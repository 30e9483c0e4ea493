"""Server crash()/restart(): eviction, recovery, at-most-once, retries."""

import pytest

from repro.concurrency import LockManager, SessionManager
from repro.errors import (
    DiskCrashed,
    DuplicateRequest,
    DurabilityError,
    ServerUnavailable,
    SessionError,
)
from repro.network.clock import SimulatedClock
from repro.network.faults import RetryPolicy
from repro.network.link import NetworkLink
from repro.recovery import DiskFaultProfile, Durability, SimDisk
from repro.server import protocol
from repro.server.client import RemoteConnection
from repro.server.protocol import Opcode
from repro.server.server import DatabaseServer


def make_stack(clients=2, crash_at=None, failure="clean"):
    clock = SimulatedClock()
    durability = Durability(SimDisk())
    db = durability.open()
    db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER)")
    db.execute("INSERT INTO acct VALUES (1, 100), (2, 200)")
    durability.checkpoint()
    if crash_at is not None:
        durability.disk.arm(
            DiskFaultProfile(
                name=f"crash@{crash_at}",
                crash_at_append=crash_at,
                torn=failure == "torn",
                corrupt=failure == "corrupt",
            ),
            seed=3,
        )
    locks = LockManager(clock=clock)
    sessions = SessionManager(db, locks)
    server = DatabaseServer(db, sessions=sessions, durability=durability)
    connections = [
        RemoteConnection(
            server, NetworkLink(latency_s=0.01, dtr_kbit_s=512, clock=clock)
        )
        for __ in range(clients)
    ]
    return server, sessions, connections


class TestCrash:
    def test_crash_evicts_sessions_and_refuses_requests(self):
        server, sessions, (a, b) = make_stack()
        a.open_session()
        b.open_session()
        server.crash()
        assert sessions.open_count == 0
        assert sessions.statistics["evicted"] == 2
        with pytest.raises(ServerUnavailable):
            a.execute("SELECT 1")
        assert server.statistics["unavailable_refusals"] >= 1

    def test_crash_releases_locks_of_dead_sessions(self):
        server, sessions, (a, b) = make_stack()
        a.begin()
        a.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        server.crash()
        server.restart()
        # b can immediately take the lock the dead session held.
        b.begin()
        b.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        b.commit()

    def test_disk_crash_during_commit_crashes_the_server(self):
        server, sessions, (a, b) = make_stack(crash_at=3)
        a.begin()
        a.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        with pytest.raises(ServerUnavailable):
            a.commit()  # the commit append is the crash point
        assert server.crashed
        assert server.statistics["crashes"] == 1

    def test_crash_is_idempotent(self):
        server, __, __c = make_stack()
        server.crash()
        server.crash()
        assert server.statistics["crashes"] == 1

    def test_restart_without_durability_bundle_fails(self):
        db_server = DatabaseServer(make_stack()[0].database)
        with pytest.raises(DurabilityError):
            db_server.restart()


class TestRestart:
    def test_restart_replays_committed_work(self):
        server, sessions, (a, b) = make_stack()
        a.begin()
        a.execute("UPDATE acct SET balance = 42 WHERE id = 1")
        a.commit()
        old_db = server.database
        server.crash()
        new_db = server.restart()
        assert new_db is not old_db
        assert server.database is new_db
        assert sessions.database is new_db
        assert new_db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 42
        assert server.statistics["recoveries"] == 1
        replayed = server.durability.last_report.replayed_records
        assert replayed > 0
        assert server.statistics["replayed_records"] == replayed

    def test_in_flight_transaction_dies_with_the_crash(self):
        server, __, (a, b) = make_stack()
        a.begin()
        a.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        server.crash()
        server.restart()
        assert server.database.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 100

    def test_evicted_client_gets_session_error_not_default_session(self):
        server, __, (a, b) = make_stack()
        a.begin()
        server.crash()
        server.restart()
        # The client still believes its session is open; its statement
        # must fail loudly instead of running autocommit on the default
        # session.
        with pytest.raises(SessionError):
            a.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        # After reopening, work proceeds normally.
        a.mark_session_lost()
        a.begin()
        a.execute("UPDATE acct SET balance = 7 WHERE id = 1")
        a.commit()
        assert server.database.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 7


class TestAtMostOnceAcrossRestart:
    def commit_frame(self, connection, seq):
        inner = protocol.encode_envelope(
            Opcode.TXN_COMMIT,
            protocol.encode_session_op(connection.client_id),
        )
        return protocol.encode_envelope(
            Opcode.SEQUENCED,
            protocol.encode_sequenced(connection.client_id, seq, inner),
        )

    def test_commit_retransmission_suppressed_by_durable_hwm(self):
        server, __, (a, b) = make_stack()
        a.begin()
        a.execute("UPDATE acct SET balance = 55 WHERE id = 1")
        a.commit()
        committed_seq = next(a._seq) - 1  # the commit's sequence number
        server.crash()
        server.restart()
        # Retransmit the very same commit frame: the restart wiped the
        # replay cache, but the durable high-water mark (rebuilt from
        # commit-record origins) still recognises the sequence number.
        response = server.handle(self.commit_frame(a, committed_seq))
        opcode, body = protocol.decode_envelope(response)
        assert opcode is Opcode.SEQUENCED_RESULT
        __, __seq, inner = protocol.decode_sequenced(body)
        inner_op, inner_body = protocol.decode_envelope(inner)
        assert inner_op is Opcode.ERROR
        kind, __msg = protocol.decode_error(inner_body)
        assert kind == "DuplicateRequest"
        assert server.statistics["hwm_suppressed"] == 1
        # The commit applied exactly once.
        assert server.database.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 55

    def test_client_treats_duplicate_commit_answer_as_success(self):
        server, __, (a, b) = make_stack()
        a.begin()
        a.execute("UPDATE acct SET balance = 55 WHERE id = 1")
        a.commit()
        server.crash()
        server.restart()
        # Simulate the ambiguous-commit retry: the client re-sends the
        # commit with its already-used sequence number.
        a._seq = iter([next(a._seq) - 1])
        a._session_open = True
        a.commit()  # DuplicateRequest swallowed: the commit is durable

    def test_hwm_survives_checkpoint(self):
        server, __, (a, b) = make_stack()
        a.begin()
        a.execute("UPDATE acct SET balance = 55 WHERE id = 1")
        a.commit()
        committed_seq = next(a._seq) - 1
        a.close_session()
        server.durability.checkpoint()
        server.crash()
        server.restart()
        response = server.handle(self.commit_frame(a, committed_seq))
        __, body = protocol.decode_envelope(response)
        __, __seq, inner = protocol.decode_sequenced(body)
        inner_op, inner_body = protocol.decode_envelope(inner)
        kind, __msg = protocol.decode_error(inner_body)
        assert kind == "DuplicateRequest"

    def test_crashing_request_is_not_cached(self):
        """The response of the request that crashed the server must not
        poison the replay cache: its retransmission after restart has to
        execute (or be hwm-suppressed), not echo 'unavailable'."""
        server, __, (a, b) = make_stack(crash_at=3)
        a.begin()
        a.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        with pytest.raises(ServerUnavailable):
            a.commit()
        crashed_seq = next(a._seq) - 1
        server.restart()
        response = server.handle(self.commit_frame(a, crashed_seq))
        __, body = protocol.decode_envelope(response)
        __, __seq, inner = protocol.decode_sequenced(body)
        inner_op, inner_body = protocol.decode_envelope(inner)
        assert inner_op is Opcode.ERROR
        kind, __msg = protocol.decode_error(inner_body)
        # The commit never hit the disk, the session is gone: the right
        # answer is SessionError, never the cached 'unavailable'.
        assert kind == "SessionError"


class TestRunTransactionAcrossRestart:
    def test_retry_loop_redrives_after_manual_restart(self):
        from repro.errors import TimeoutError

        server, __, (a, b) = make_stack(crash_at=3)

        def increment(connection):
            connection.execute(
                "UPDATE acct SET balance = balance + 1 WHERE id = 2"
            )
            return True

        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01)
        # The commit append crashes the server; with nobody rebooting it
        # the retry loop gives up cleanly instead of wedging.
        with pytest.raises(TimeoutError):
            a.run_transaction(increment, retry_policy=policy)
        assert server.crashed
        server.restart()
        # After the reboot the same loop re-drives the transaction: the
        # crashed attempt's commit never hit the disk, so exactly one
        # increment lands.
        assert a.run_transaction(increment, retry_policy=policy)
        assert server.database.execute(
            "SELECT balance FROM acct WHERE id = 2"
        ).scalar() == 201

    def test_stats_expose_wal_counters(self):
        server, __, (a, b) = make_stack()
        a.begin()
        a.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        a.commit()
        stats = a.server_stats()
        assert stats["wal_appends"] >= 3
        assert stats["wal_commits"] >= 1
