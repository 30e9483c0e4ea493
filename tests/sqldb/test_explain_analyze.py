"""EXPLAIN ANALYZE: plans annotated with actual loop and row counts."""

import pytest

from repro.concurrency import LockManager
from repro.errors import LockUnavailable
from repro.sqldb import Database


@pytest.fixture
def db():
    db = Database()
    db.execute_script(
        """
        CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER);
        CREATE INDEX t_b ON t (b)
        """
    )
    db.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, i % 3) for i in range(9)]
    )
    return db


def analyze_text(db, sql):
    return "\n".join(
        line for (line,) in db.execute(f"EXPLAIN ANALYZE {sql}").rows
    )


class TestExplainAnalyze:
    def test_operators_carry_loops_and_rows(self, db):
        text = analyze_text(db, "SELECT a FROM t WHERE a > 5")
        assert "-> Project(a) (loops=1 rows=3)" in text
        assert "(loops=1 rows=9)" in text  # the scan saw every row

    def test_execution_footer_reports_counters(self, db):
        text = analyze_text(db, "SELECT a FROM t WHERE a > 5")
        assert "Execution: 3 row(s) returned" in text
        assert "rows_scanned: 9" in text

    def test_index_lookup_probes_counted(self, db):
        text = analyze_text(db, "SELECT b FROM t WHERE a = 3")
        assert "IndexLookup(t via t_pk) (loops=1 rows=1)" in text
        assert "index_probes: 1" in text

    def test_plain_explain_has_no_counts(self, db):
        text = "\n".join(
            line
            for (line,) in db.execute("EXPLAIN SELECT a FROM t").rows
        )
        assert "loops=" not in text
        assert "Execution:" not in text

    def test_recursive_cte_branch_loop_counts(self, db):
        text = analyze_text(
            db,
            "WITH RECURSIVE s (n) AS "
            "(SELECT 1 UNION ALL SELECT n + 1 FROM s WHERE n < 4) "
            "SELECT COUNT(*) FROM s",
        )
        # Four fixpoint rounds ran the recursive branch four times
        # (the last one produced the empty delta that ends the loop).
        assert "recursive branch" in text
        assert "(loops=4 rows=3)" in text

    def test_short_circuited_operator_marked_never_executed(self, db):
        text = analyze_text(db, "SELECT a FROM t WHERE 1 = 0 AND b = 1")
        assert "(never executed)" in text or "rows=0" in text

    def test_analyze_still_usable_as_identifier(self, db):
        db.execute("CREATE TABLE analyze (v INTEGER)")
        db.execute("INSERT INTO analyze VALUES (7)")
        assert db.execute("SELECT v FROM analyze").rows == [(7,)]

    def test_analyze_does_not_pollute_plan_cache(self, db):
        sql = "SELECT a FROM t WHERE a > 5"
        db.execute(f"EXPLAIN ANALYZE {sql}")
        # The analyzed (instrumented) plan instances must not be reused
        # by the normal execution path.
        assert db.execute(sql).rows == [(6,), (7,), (8,)]
        text = analyze_text(db, sql)
        assert "(loops=1 rows=3)" in text  # fresh counts, not accumulated


class TestExplainAnalyzeIsolation:
    """EXPLAIN ANALYZE executes its SELECT, so it must read under the
    same isolation as the plain SELECT: shared locks, or the snapshot of
    a READ ONLY transaction."""

    @staticmethod
    def make_db(**kwargs):
        db = Database(**kwargs)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        return db

    def test_blocked_by_uncommitted_writer_like_select(self):
        db = self.make_db()
        db.attach_lock_manager(LockManager())
        db.execute("BEGIN", session="w")
        db.execute("UPDATE t SET v = 99 WHERE id = 1", session="w")
        with pytest.raises(LockUnavailable):
            db.execute("SELECT v FROM t", session="r")
        with pytest.raises(LockUnavailable):
            db.execute("EXPLAIN ANALYZE SELECT v FROM t", session="r")
        db.execute("COMMIT", session="w")
        text = "\n".join(
            line
            for (line,) in db.execute(
                "EXPLAIN ANALYZE SELECT v FROM t WHERE v = 99", session="r"
            ).rows
        )
        assert "Execution: 1 row(s) returned" in text

    def test_read_only_transaction_reports_the_snapshot(self):
        db = self.make_db(mvcc=True)
        db.attach_lock_manager(LockManager())
        db.execute("BEGIN TRANSACTION READ ONLY", session="r")
        db.execute("INSERT INTO t VALUES (4, 40)")
        db.execute("BEGIN", session="w")
        db.execute("UPDATE t SET v = 99 WHERE id = 1", session="w")
        text = "\n".join(
            line
            for (line,) in db.execute(
                "EXPLAIN ANALYZE SELECT v FROM t", session="r"
            ).rows
        )
        assert "Execution: 3 row(s) returned" in text
        assert len(db.execute("SELECT v FROM t", session="r").rows) == 3
        db.execute("COMMIT", session="r")
        db.execute("COMMIT", session="w")
        assert len(db.execute("SELECT v FROM t").rows) == 4
