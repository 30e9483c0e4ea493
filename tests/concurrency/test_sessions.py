"""Per-session transactions: embedded, over the wire, and under conflict."""

import pytest

from repro.concurrency import LockManager, SessionManager
from repro.errors import (
    DeadlockError,
    ExecutionError,
    LockUnavailable,
    SessionError,
    TimeoutError,
)
from repro.network.clock import SimulatedClock
from repro.network.faults import RetryPolicy
from repro.network.link import NetworkLink
from repro.server.client import RemoteConnection
from repro.server.protocol import Opcode, SESSION_OPCODES
from repro.server.server import DatabaseServer
from repro.sqldb import Database


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER)"
    )
    database.execute("INSERT INTO acct VALUES (1, 100), (2, 200)")
    return database


def make_stack(db, clients=2, lock_timeout_s=None):
    clock = SimulatedClock()
    locks = LockManager(clock=clock, timeout_s=lock_timeout_s)
    sessions = SessionManager(db, locks)
    server = DatabaseServer(db, sessions=sessions)
    connections = [
        RemoteConnection(
            server, NetworkLink(latency_s=0.01, dtr_kbit_s=512, clock=clock)
        )
        for __ in range(clients)
    ]
    return server, sessions, connections


class TestEmbeddedSessions:
    def test_independent_transactions(self, db):
        db.begin(session="a")
        db.begin(session="b")
        db.execute(
            "UPDATE acct SET balance = 0 WHERE id = 1", session="a"
        )
        db.execute(
            "UPDATE acct SET balance = 0 WHERE id = 2", session="b"
        )
        db.rollback(session="a")
        # a's rollback must not disturb b's still-open transaction.
        assert db.session_in_transaction("b")
        db.commit(session="b")
        result = db.execute("SELECT id, balance FROM acct ORDER BY id")
        assert result.rows == [(1, 100), (2, 0)]

    def test_double_begin_rejected_per_session(self, db):
        db.begin(session="a")
        with pytest.raises(ExecutionError):
            db.begin(session="a")
        db.begin(session="b")  # other sessions are unaffected
        db.rollback(session="a")
        db.rollback(session="b")

    def test_default_session_is_separate(self, db):
        db.begin()
        db.begin(session="a")
        db.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        db.rollback()
        assert db.session_in_transaction("a")
        db.rollback(session="a")
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 100


class TestWireSessions:
    def test_open_begin_commit(self, db):
        __, sessions, (conn, __other) = make_stack(db)
        conn.open_session()
        txn_id = conn.begin()
        assert txn_id > 0
        conn.execute("UPDATE acct SET balance = 50 WHERE id = 1")
        conn.commit()
        assert sessions.open_count == 1
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 50

    def test_rollback_over_wire(self, db):
        __, __sessions, (conn, __other) = make_stack(db)
        conn.begin()  # implicit open_session
        conn.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        conn.rollback()
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 100

    def test_two_wire_clients_hold_independent_transactions(self, db):
        __, __sessions, (first, second) = make_stack(db)
        first.begin()
        second.begin()
        first.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        second.execute("UPDATE acct SET balance = 2 WHERE id = 2")
        first.rollback()
        second.commit()
        result = db.execute("SELECT id, balance FROM acct ORDER BY id")
        assert result.rows == [(1, 100), (2, 2)]

    def test_txn_without_session_rejected(self, db):
        server, __, __connections = make_stack(db)
        from repro.server import protocol

        response = server.handle(
            protocol.encode_envelope(
                Opcode.TXN_BEGIN, protocol.encode_session_op(12345)
            )
        )
        opcode, body = protocol.decode_envelope(response)
        assert opcode is Opcode.ERROR
        kind, __msg = protocol.decode_error(body)
        assert kind == "SessionError"

    def test_session_ops_without_manager_rejected(self, db):
        from repro.server import protocol

        server = DatabaseServer(db)  # no session manager
        for opcode in SESSION_OPCODES:
            response = server.handle(
                protocol.encode_envelope(
                    opcode, protocol.encode_session_op(1)
                )
            )
            answer, __body = protocol.decode_envelope(response)
            assert answer is Opcode.ERROR

    def test_close_session_rolls_back_open_transaction(self, db):
        __, sessions, (conn, __other) = make_stack(db)
        conn.begin()
        conn.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        conn.close_session()
        assert sessions.open_count == 0
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 100

    def test_transaction_context_manager(self, db):
        __, __sessions, (conn, __other) = make_stack(db)
        with conn.transaction():
            conn.execute("UPDATE acct SET balance = 7 WHERE id = 1")
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 7
        with pytest.raises(ValueError):
            with conn.transaction():
                conn.execute("UPDATE acct SET balance = 8 WHERE id = 1")
                raise ValueError("client-side failure")
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 7

    def test_stats_frame_reports_session_counters(self, db):
        server, __, (conn, __other) = make_stack(db)
        conn.open_session()
        stats = conn.server_stats()
        assert stats["sessions_open"] == 1
        assert "lock_waits" in stats
        assert "deadlocks" in stats
        assert "txn_aborts" in stats

    def test_stats_sessions_open_drops_on_eviction(self, db):
        __, sessions, (one, other) = make_stack(db)
        one.open_session()
        other.open_session()
        sessions.evict(one.client_id)
        assert sessions.open_count == 1
        assert other.server_stats()["sessions_open"] == 1

    def test_stats_without_session_manager_reads_zero_open(self, db):
        server = DatabaseServer(db)  # no session manager
        conn = RemoteConnection(
            server, NetworkLink(latency_s=0.01, dtr_kbit_s=512)
        )
        stats = conn.server_stats()
        assert stats["sessions_open"] == 0
        assert stats == server.counters()

    def test_close_unknown_session_raises(self, db):
        __, sessions, __connections = make_stack(db)
        with pytest.raises(SessionError):
            sessions.close(999)


class TestConflicts:
    def test_writer_blocks_writer_until_commit(self, db):
        __, __sessions, (first, second) = make_stack(db)
        first.begin()
        first.execute("UPDATE acct SET balance = balance + 1 WHERE id = 1")
        second.begin()
        with pytest.raises(LockUnavailable):
            second.execute(
                "UPDATE acct SET balance = balance + 1 WHERE id = 1"
            )
        first.commit()
        # The parked request was granted at commit; the retry succeeds.
        second.execute("UPDATE acct SET balance = balance + 1 WHERE id = 1")
        second.commit()
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 102

    def test_no_lost_updates_with_interleaved_increments(self, db):
        """The classic lost-update interleaving: both clients read-modify-
        write the same row.  Under 2PL the second writer waits for the
        first commit, so both increments survive."""
        __, __sessions, (first, second) = make_stack(db)
        increments = 0
        for __round in range(5):
            first.begin()
            second.begin()
            first.execute(
                "UPDATE acct SET balance = balance + 1 WHERE id = 1"
            )
            with pytest.raises(LockUnavailable):
                second.execute(
                    "UPDATE acct SET balance = balance + 1 WHERE id = 1"
                )
            first.commit()
            second.execute(
                "UPDATE acct SET balance = balance + 1 WHERE id = 1"
            )
            second.commit()
            increments += 2
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 100 + increments

    def test_reader_blocks_writer_table_scan(self, db):
        __, __sessions, (first, second) = make_stack(db)
        first.begin()
        first.execute("SELECT SUM(balance) FROM acct")
        second.begin()
        with pytest.raises(LockUnavailable):
            second.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        first.commit()
        second.rollback()

    def test_deadlock_victim_gets_distinguishable_error(self, db):
        __, __sessions, (first, second) = make_stack(db)
        first.begin()
        second.begin()
        first.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        second.execute("UPDATE acct SET balance = 2 WHERE id = 2")
        with pytest.raises(LockUnavailable):
            first.execute("UPDATE acct SET balance = 1 WHERE id = 2")
        # second closing the cycle is the youngest -> the victim.
        with pytest.raises(DeadlockError):
            second.execute("UPDATE acct SET balance = 2 WHERE id = 1")
        second.rollback()  # acknowledges the abort; no-op success
        # first's parked request was granted by the victim's release.
        first.execute("UPDATE acct SET balance = 1 WHERE id = 2")
        first.commit()

    def test_deadlock_victim_retries_to_success_via_run_transaction(self, db):
        """The acceptance scenario: a constructed deadlock cycle is broken
        and the victim restarts through RetryPolicy to completion."""
        __, __sessions, (first, second) = make_stack(db)
        first.begin()
        first.execute("UPDATE acct SET balance = balance + 1 WHERE id = 1")

        attempts = []

        def transfer(conn):
            attempts.append(1)
            conn.execute("UPDATE acct SET balance = balance + 10 WHERE id = 2")
            if len(attempts) == 1:
                # First attempt: close the deadlock cycle (first waits on
                # id=2 below, we wait on id=1) — we are younger, we die.
                conn.execute(
                    "UPDATE acct SET balance = balance + 10 WHERE id = 1"
                )
            return "done"

        second.begin()
        second.execute("UPDATE acct SET balance = balance + 10 WHERE id = 2")
        with pytest.raises(LockUnavailable):
            first.execute("UPDATE acct SET balance = balance + 1 WHERE id = 2")
        with pytest.raises(DeadlockError):
            second.execute("UPDATE acct SET balance = balance + 10 WHERE id = 1")
        second.rollback()
        # first finishes; now the victim restarts its work via the retry
        # harness and succeeds.
        first.execute("UPDATE acct SET balance = balance + 1 WHERE id = 2")
        first.commit()
        result = second.run_transaction(
            transfer, retry_policy=RetryPolicy(max_attempts=4)
        )
        assert result == "done"
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 2"
        ).scalar() == 200 + 1 + 10

    def test_run_transaction_gives_up_after_max_attempts(self, db):
        __, __sessions, (first, second) = make_stack(db)
        first.begin()
        first.execute("UPDATE acct SET balance = 0 WHERE id = 1")

        def blocked(conn):
            conn.execute("UPDATE acct SET balance = 1 WHERE id = 1")

        with pytest.raises(TimeoutError):
            second.run_transaction(
                blocked, retry_policy=RetryPolicy(max_attempts=2)
            )
        first.rollback()

    def test_autocommit_statement_fails_fast_without_parking(self, db):
        __, __sessions, (first, second) = make_stack(db)
        first.begin()
        first.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        # Autocommit reads fail fast (they have no transaction to park).
        with pytest.raises(LockUnavailable):
            second.execute("SELECT SUM(balance) FROM acct")
        first.commit()
        assert second.execute("SELECT SUM(balance) FROM acct").scalar() == 200

    def test_client_link_stats_track_conflicts(self, db):
        """The conflicts a client runs into are counted once, by the
        server, and read back over STATS."""
        __, __sessions, (first, second) = make_stack(db)
        first.begin()
        first.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        second.begin()
        with pytest.raises(LockUnavailable):
            second.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        stats = second.server_stats()
        assert stats["lock_waits"] == 1
        assert stats["sessions_open"] == 2
        assert stats["txn_aborts"] == 0
        first.commit()
        second.rollback()
        stats = second.server_stats()
        assert stats["txn_aborts"] == 1
        assert stats["deadlocks"] == 0


class TestReadOnlyWire:
    """BEGIN TRANSACTION READ ONLY end-to-end over the session protocol."""

    @pytest.fixture
    def mvcc_db(self):
        database = Database(mvcc=True)
        database.execute(
            "CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER)"
        )
        database.execute("INSERT INTO acct VALUES (1, 100), (2, 200)")
        return database

    def test_begin_ro_routes_to_a_snapshot(self, mvcc_db):
        server, __, (reader, writer) = make_stack(mvcc_db)
        txn_id = reader.begin(read_only=True)
        assert txn_id > 0
        # A concurrent committed write is invisible to the snapshot...
        writer.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        assert reader.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 100
        reader.commit()
        # ...and the next RO transaction starts from the newer stamp.
        reader.begin(read_only=True)
        assert reader.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 0
        reader.commit()
        stats = reader.server_stats()
        assert stats["readonly_txns"] == 2
        assert stats["db_readonly_txns"] == 2
        assert stats["db_snapshot_reads"] == 2

    def test_dml_inside_ro_txn_rejected_over_wire(self, mvcc_db):
        __, __sessions, (conn, __other) = make_stack(mvcc_db)
        conn.begin(read_only=True)
        with pytest.raises(ExecutionError, match="READ ONLY"):
            conn.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        conn.rollback()
        # The session survives the rejection: a plain txn still works.
        conn.begin()
        conn.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        conn.commit()
        assert mvcc_db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 1

    def test_stats_frame_exposes_mvcc_counters(self, mvcc_db):
        __, __sessions, (conn, __other) = make_stack(mvcc_db)
        conn.begin(read_only=True)
        conn.execute("SELECT SUM(balance) FROM acct")
        conn.commit()
        stats = conn.server_stats()
        assert stats["readonly_txns"] == 1
        assert stats["db_readonly_txns"] == 1
        assert stats["db_snapshot_reads"] >= 1
        assert "db_versions_created" in stats
        assert "db_versions_gc" in stats

    def test_begin_ro_without_session_rejected(self, db):
        server, __, __connections = make_stack(db)
        from repro.server import protocol

        response = server.handle(
            protocol.encode_envelope(
                Opcode.TXN_BEGIN_RO, protocol.encode_session_op(12345)
            )
        )
        opcode, body = protocol.decode_envelope(response)
        assert opcode is Opcode.ERROR
        kind, __msg = protocol.decode_error(body)
        assert kind == "SessionError"

    def test_truncated_begin_ro_frame_keeps_server_alive(self, db):
        server, __, (conn, __other) = make_stack(db)
        from repro.server import protocol

        response = server.handle(
            protocol.encode_envelope(Opcode.TXN_BEGIN_RO, b"\x01")
        )
        opcode, __body = protocol.decode_envelope(response)
        assert opcode is Opcode.ERROR
        # The server shrugged the garbage off; real traffic still works.
        assert conn.execute("SELECT COUNT(*) FROM acct").scalar() == 2
