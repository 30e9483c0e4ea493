"""Engine micro-benchmarks: the substrate operations on the hot paths of
the PDM workload (parse, point lookup, navigational child fetch,
recursive fixpoint, bulk insert) plus the rule-vs-cost planner
comparison.

Two entry points:

* under pytest, the ``test_bench_*`` functions run through
  pytest-benchmark;
* as a script — ``python benchmarks/bench_engine_micro.py [--smoke]
  [--json PATH]`` — :func:`run_planner_modes` times every micro shape
  under the rule-based and the cost-based (post-ANALYZE) planner,
  verifies the answers are identical, and fails when the costed planner
  is more than :data:`PLANNER_MODE_MAX_RATIO` slower.  The CI perf-smoke
  job uses this mode, so the pytest import is optional here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __name__ == "__main__":
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

try:
    import pytest
except ImportError:  # CI perf-smoke image has no pytest; script mode only.
    pytest = None  # type: ignore[assignment]

from repro.sqldb import Database

# ---------------------------------------------------------------------------
# Rule-vs-cost planner micro-suite.
# ---------------------------------------------------------------------------

#: Shape name -> (sql, params).  ``?`` thresholds are fixed so the
#: selectivity stays the same whatever the table size (``v`` cycles
#: 0..199).  The join probes ``dim.k``, deliberately *not* indexed, so
#: both planners hash-join.  ``point_and`` has two competing access
#: paths: the unique pk on ``id`` and the non-unique ``t_v`` index (200
#: distinct values), so the costed planner has a real choice.
PLANNER_MODE_SHAPES = {
    "scan_filter": ("SELECT a, b FROM t WHERE v < ?", (100,)),
    "narrow_and": ("SELECT id FROM t WHERE v < ? AND b < ?", (100, 500)),
    "project_arith": ("SELECT a + b, v * 2 FROM t WHERE v >= ?", (0,)),
    "hash_join": (
        "SELECT t.id, dim.label FROM t JOIN dim ON t.v = dim.k WHERE dim.k < ?",
        (100,),
    ),
    "aggregate": ("SELECT v, COUNT(*), SUM(a) FROM t GROUP BY v", ()),
    "point_and": ("SELECT a FROM t WHERE v = ? AND id = ?", (7, 7)),
}

#: Table size of the planner-mode comparison.
PLANNER_MODE_ROWS = 10_000

#: The costed planner may not be slower than the rule-based planner by
#: more than this factor on any micro shape (plans only differ where the
#: cost model says they should, so the overhead is planning itself).
PLANNER_MODE_MAX_RATIO = 2.0

#: Shapes faster than this in both modes are too close to timer noise
#: for a ratio gate (a point lookup runs in microseconds).
PLANNER_MODE_NOISE_FLOOR_S = 0.001


def build_micro_db(size: int, planner_mode: str = "cost") -> Database:
    """A deterministic fact/dim pair; values are formulaic, not random,
    so every run (and both planners) sees byte-identical data.  The
    ``t_v`` index is never usable by the range predicates — it exists
    for ``point_and``, which probes it by equality."""
    db = Database(planner_mode=planner_mode)
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, v INTEGER)"
    )
    db.execute("CREATE INDEX t_v ON t (v)")
    db.execute("CREATE TABLE dim (k INTEGER, label VARCHAR(20))")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?)",
        [(i, i * 3, (i * 7) % 1000, i % 200) for i in range(size)],
    )
    db.executemany(
        "INSERT INTO dim VALUES (?, ?)", [(k, f"label-{k}") for k in range(200)]
    )
    return db


def _best_of(db: Database, sql: str, params, repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        db.execute(sql, params)
        best = min(best, time.perf_counter() - start)
    return best


def run_planner_modes(size: int = PLANNER_MODE_ROWS, repeats: int = 3) -> dict:
    """Rule-based vs cost-based (post-ANALYZE) planner over the micro
    shapes.

    Both databases hold byte-identical data; the results must agree
    exactly (plans may differ, answers may not).  Returns per-shape wall
    seconds for each mode and the cost/rule ratio the smoke gate checks
    against :data:`PLANNER_MODE_MAX_RATIO`.
    """
    rule_db = build_micro_db(size, planner_mode="rule")
    cost_db = build_micro_db(size, planner_mode="cost")
    cost_db.execute("ANALYZE")
    results = {}
    for shape, (sql, params) in PLANNER_MODE_SHAPES.items():
        rule_result = rule_db.execute(sql, params)
        cost_result = cost_db.execute(sql, params)
        assert cost_result.rows == rule_result.rows, (
            f"{shape}@{size}: planner modes disagree on the result"
        )
        rule_s = _best_of(rule_db, sql, params, repeats)
        cost_s = _best_of(cost_db, sql, params, repeats)
        results[shape] = {
            "shape": shape,
            "table_rows": size,
            "rows_returned": len(rule_result.rows),
            "rule_s": rule_s,
            "cost_s": cost_s,
            "ratio": cost_s / rule_s,
        }
    return results


def planner_mode_failures(results: dict) -> list:
    """Gate: the costed planner must stay within PLANNER_MODE_MAX_RATIO
    of the rule-based planner on every shape slow enough to time."""
    failures = []
    for name, entry in results.items():
        if (
            entry["rule_s"] < PLANNER_MODE_NOISE_FLOOR_S
            and entry["cost_s"] < PLANNER_MODE_NOISE_FLOOR_S
        ):
            continue  # microsecond-scale shape: ratio is timer noise
        if entry["ratio"] > PLANNER_MODE_MAX_RATIO:
            failures.append(
                f"planner modes {name}: cost-based {entry['cost_s'] * 1000:.2f} ms "
                f"is {entry['ratio']:.2f}x the rule-based "
                f"{entry['rule_s'] * 1000:.2f} ms "
                f"(limit {PLANNER_MODE_MAX_RATIO}x)"
            )
    return failures


def format_planner_modes(results: dict) -> str:
    lines = [
        f"{'shape':<24s} {'rows':>8s} {'rule ms':>9s} {'cost ms':>9s} "
        f"{'ratio':>7s}"
    ]
    for name, entry in results.items():
        lines.append(
            f"{name:<24s} {entry['table_rows']:>8d} "
            f"{entry['rule_s'] * 1000:>9.2f} {entry['cost_s'] * 1000:>9.2f} "
            f"{entry['ratio']:>6.2f}x"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer repeats — for CI",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the per-shape results to PATH"
    )
    args = parser.parse_args(argv)
    planner_modes = run_planner_modes(repeats=2 if args.smoke else 3)
    print("planner modes (rule vs cost-based after ANALYZE):")
    print(format_planner_modes(planner_modes))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {"planner_modes": planner_modes}, handle, indent=2, sort_keys=True
            )
        print(f"wrote {args.json}")
    # Coarse CI gate: the costed planner must stay within 2x of the
    # rule-based planner.
    failures = planner_mode_failures(planner_modes)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# pytest-benchmark section (tier-1 suite).
# ---------------------------------------------------------------------------

if pytest is not None:
    from repro.bench.workload import build_scenario
    from repro.model.parameters import TreeParameters
    from repro.network.profiles import WAN_256
    from repro.pdm.queries import recursive_mle_spec
    from repro.rules.modificator import QueryModificator
    from repro.rules.ruletable import RuleTable
    from repro.sqldb.parser import parse_statement
    from repro.sqldb.render import render_select

    @pytest.fixture(scope="module")
    def loaded_db():
        scenario = build_scenario(
            TreeParameters(depth=6, branching=3, visibility=0.6), WAN_256, seed=5
        )
        return scenario.database, scenario.product

    RECURSIVE_SQL = render_select(
        QueryModificator(RuleTable(), "scott", {})
        .modify_recursive(recursive_mle_spec(), "multi_level_expand")
        .to_statement()
    )

    def test_bench_parse_recursive_query(benchmark):
        statement = benchmark(parse_statement, RECURSIVE_SQL)
        assert statement.with_clause.recursive

    def test_bench_point_lookup(benchmark, loaded_db):
        db, product = loaded_db
        root = product.root_obid

        def run():
            return db.execute("SELECT * FROM assy WHERE obid = ?", [root])

        result = benchmark(run)
        assert len(result) == 1

    def test_bench_navigational_child_fetch(benchmark, loaded_db):
        db, product = loaded_db
        root = product.root_obid
        sql = (
            "SELECT link.obid, link.right, assy.name FROM link "
            "JOIN assy ON link.right = assy.obid WHERE link.left = ?"
        )

        def run():
            return db.execute(sql, [root])

        result = benchmark(run)
        assert len(result) == 3

    def test_bench_recursive_fixpoint(benchmark, loaded_db):
        db, product = loaded_db

        def run():
            return db.execute(RECURSIVE_SQL, [product.root_obid])

        result = benchmark(run)
        # Nodes plus connecting links of the whole product.
        assert len(result) == 2 * product.node_count - 1

    def test_bench_bulk_insert(benchmark):
        def run():
            db = Database()
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            db.executemany(
                "INSERT INTO t VALUES (?, ?)", [(i, i * 2) for i in range(2000)]
            )
            return db

        db = benchmark(run)
        assert db.table_rowcount("t") == 2000

    def test_bench_aggregate_scan(benchmark, loaded_db):
        db, __ = loaded_db

        def run():
            return db.execute(
                "SELECT state, COUNT(*), AVG(weight) FROM comp GROUP BY state"
            )

        result = benchmark(run)
        assert result.rows


if __name__ == "__main__":
    sys.exit(main())
