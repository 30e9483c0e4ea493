"""Golden STATS frame: every key and value after one fixed wire script.

The STATS frame is the one place a client reads the server's counters
(each counted once, in the ``statistics`` dict of the component that
owns the event).  Pinning the whole dict catches a key that appears,
vanishes or starts counting a different event.
"""

import pytest

from repro.concurrency import LockManager, SessionManager
from repro.network.clock import SimulatedClock
from repro.network.link import NetworkLink
from repro.recovery import Durability
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb import Database

#: Server, database and session counters shared by both stacks.
COMMON = {
    "batch_statements": 2,
    "batches": 1,
    "cpu_seconds": 0.0,
    "crashes": 0,
    "crc_rejects": 0,
    "db_auto_analyze": 0,
    "db_plan_cache_hits": 0,
    "db_readonly_txns": 1,
    "db_rows_returned": 3,
    "db_snapshot_reads": 1,
    "db_statements": 7,
    "db_versions_created": 4,
    "db_versions_gc": 6,
    "deadlocks": 0,
    "duplicates_suppressed": 0,
    "errors": 0,
    "hwm_suppressed": 0,
    "lint_checks": 6,
    "lint_rejections": 0,
    "lock_waits": 0,
    "procedure_calls": 0,
    "queries": 3,
    "readonly_txns": 1,
    "recoveries": 0,
    "replayed_records": 0,
    "sequenced_requests": 9,
    "sessions_open": 1,
    "txn_aborts": 0,
    "unavailable_refusals": 0,
}

#: The write-ahead log's counters, present only on a durable stack.
WAL = {"wal_aborts": 0, "wal_appends": 11, "wal_commits": 3}


def run_script(durable):
    """MVCC + 2PL + sessions (+ WAL when *durable*); returns STATS."""
    clock = SimulatedClock()
    if durable:
        durability = Durability(db_kwargs={"mvcc": True})
        db = durability.open()
    else:
        durability = None
        db = Database(mvcc=True)
    db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER)")
    db.execute("INSERT INTO acct VALUES (1, 100), (2, 200)")
    sessions = SessionManager(db, LockManager(clock=clock))
    server = DatabaseServer(
        db, strict_lint=True, sessions=sessions, durability=durability
    )
    conn = RemoteConnection(
        server, NetworkLink(latency_s=0.01, dtr_kbit_s=512, clock=clock)
    )
    conn.open_session()
    conn.begin(read_only=True)
    conn.execute("SELECT SUM(balance) FROM acct")
    conn.commit()
    conn.begin()
    conn.execute("UPDATE acct SET balance = balance + 1 WHERE id = 1")
    conn.commit()
    conn.execute_batch(
        [
            ("SELECT balance FROM acct WHERE id = ?", (1,)),
            ("UPDATE acct SET balance = 0 WHERE id = ?", (2,)),
        ]
    )
    conn.execute("SELECT id, balance FROM acct WHERE id = 2")
    return conn.server_stats()


@pytest.mark.parametrize(
    "durable, expected",
    [(True, {**COMMON, **WAL}), (False, COMMON)],
    ids=["wal", "no-wal"],
)
def test_stats_frame_is_pinned(durable, expected):
    stats = run_script(durable)
    assert len(stats) == (32 if durable else 29)
    assert stats == expected
