"""Differential planner tests: rule planner == cost planner, query by query.

Two databases hold identical data; one plans rule-based
(``planner_mode="rule"``), the other cost-based with fresh ``ANALYZE``
statistics.  Every query in the shared corpus — the 25-template
``repro.analysis`` corpus (the statements the PDM layer actually emits)
plus an engine-level corpus covering each operator — runs on both and
must produce the same columns and rows: as an ordered list when the
query has a top-level ``ORDER BY``, as a multiset otherwise (a cost
plan may legitimately scan or join in another order).  A query that
raises must raise an :class:`~repro.errors.SQLError` subclass on both.

A hypothesis-driven test generates random filters/projections over a
seeded table so the corpus is not limited to shapes we thought of.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLError
from repro.pdm.generator import figure2_dataset
from repro.pdm.schema import create_pdm_schema, load_product
from repro.sqldb.database import Database
from repro.sqldb.parser import parse_statement


def run_differential(pair, sql: str, params=()):
    """Run *sql* on both planners; assert the contract; return rows.

    Either both succeed with the same answer, or both raise an
    ``SQLError``.  *pair* is ``(rule_db, cost_db)``.
    """
    rule_db, cost_db = pair
    rule_error = cost_error = None
    rule_result = cost_result = None
    try:
        rule_result = rule_db.execute(sql, params)
    except SQLError as exc:
        rule_error = exc
    try:
        cost_result = cost_db.execute(sql, params)
    except SQLError as exc:
        cost_error = exc

    if rule_error is not None or cost_error is not None:
        assert rule_error is not None, (
            f"cost planner raised {cost_error!r} but rule succeeded: {sql}"
        )
        assert cost_error is not None, (
            f"rule planner raised {rule_error!r} but cost succeeded: {sql}"
        )
        return None

    assert cost_result.columns == rule_result.columns, sql
    if parse_statement(sql).order_by:
        assert cost_result.rows == rule_result.rows, sql
    else:
        assert Counter(cost_result.rows) == Counter(rule_result.rows), sql
    return rule_result.rows


def planner_pair(load):
    """``(rule_db, cost_db)`` both filled by *load*; the cost side is
    ANALYZEd so its plans are priced from real statistics."""
    rule_db = Database(planner_mode="rule")
    cost_db = Database(planner_mode="cost")
    load(rule_db)
    load(cost_db)
    cost_db.execute("ANALYZE")
    return rule_db, cost_db


def parameter_count(sql: str) -> int:
    """``?`` placeholders outside string literals."""
    return re.sub(r"'[^']*'", "", sql).count("?")


# ---------------------------------------------------------------------------
# The PDM template corpus (repro.analysis), bound to the Figure 2 root.
# ---------------------------------------------------------------------------


def pdm_select_templates():
    from repro.analysis.templates import template_queries

    return [
        (name, sql)
        for name, sql in template_queries()
        if sql.lstrip().upper().startswith(("SELECT", "WITH"))
    ]


def load_figure2(db: Database) -> None:
    create_pdm_schema(db)
    load_product(db, figure2_dataset())


@pytest.fixture(scope="module")
def figure2_pair():
    return planner_pair(load_figure2)


@pytest.mark.parametrize(
    "name,sql", pdm_select_templates(), ids=[n for n, _ in pdm_select_templates()]
)
def test_pdm_template_corpus_differential(figure2_pair, name, sql):
    params = tuple([1] * parameter_count(sql))  # Figure 2 root obid
    run_differential(figure2_pair, sql, params)


def test_pdm_corpus_covers_every_template():
    """The SELECT slice of the corpus must not silently shrink."""
    assert len(pdm_select_templates()) >= 20


# ---------------------------------------------------------------------------
# Engine-level corpus: one seeded table pair, every operator shape.
# ---------------------------------------------------------------------------

ENGINE_CORPUS = [
    # scans / filters / three-valued logic
    "SELECT * FROM t",
    "SELECT a, b FROM t WHERE v < 40",
    "SELECT id FROM t WHERE v < 40 AND b < 500",
    "SELECT id FROM t WHERE v < 10 OR b > 900",
    "SELECT id FROM t WHERE NOT (v < 40)",
    "SELECT id FROM t WHERE n IS NULL",
    "SELECT id FROM t WHERE n IS NOT NULL",
    "SELECT id FROM t WHERE n > 5",
    "SELECT id FROM t WHERE n > 5 OR v < 3",
    "SELECT id FROM t WHERE v BETWEEN 10 AND 20",
    "SELECT id FROM t WHERE v IN (1, 2, 3, NULL)",
    "SELECT id FROM t WHERE s LIKE 'name-1%'",
    "SELECT id FROM t WHERE s LIKE '%7'",
    # projections / expressions
    "SELECT a + b, v * 2 FROM t WHERE v >= 5",
    "SELECT a - b, -v FROM t",
    "SELECT s || '-x' FROM t WHERE v < 5",
    "SELECT CAST(v AS VARCHAR(10)) FROM t WHERE v < 5",
    "SELECT CASE WHEN v < 10 THEN 'lo' ELSE 'hi' END FROM t",
    "SELECT n + 1 FROM t",
    # joins (dim.k is NOT indexed, so the planner hash-joins)
    "SELECT t.id, dim.label FROM t JOIN dim ON t.v = dim.k",
    "SELECT t.id, dim.label FROM t LEFT JOIN dim ON t.v = dim.k",
    "SELECT t.id, dim.label FROM t JOIN dim ON t.v = dim.k WHERE dim.k < 20",
    "SELECT t.id FROM t JOIN dim ON t.n = dim.k",  # NULL join keys never match
    # aggregation
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(n), SUM(n), MIN(n), MAX(n), AVG(n) FROM t",
    "SELECT v, COUNT(*), SUM(a) FROM t GROUP BY v",
    "SELECT v, COUNT(*) FROM t GROUP BY v HAVING COUNT(*) > 3",
    "SELECT COUNT(*) FROM empty",
    "SELECT SUM(k) FROM empty",
    # sort / distinct / limit / offset / set ops
    "SELECT v FROM t ORDER BY v DESC, id ASC",
    "SELECT n FROM t ORDER BY n",
    "SELECT DISTINCT v FROM t",
    "SELECT DISTINCT n FROM t WHERE v < 10",
    "SELECT id FROM t ORDER BY id LIMIT 7",
    "SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 95",
    "SELECT v FROM t WHERE v < 3 UNION ALL SELECT k FROM dim WHERE k < 3",
    # index lookups, subqueries, derived tables, CTEs
    "SELECT v FROM t WHERE id = 4",  # primary-key index lookup
    "SELECT v, (SELECT MAX(k) FROM dim) FROM t WHERE v < 3",
    "SELECT x.id FROM (SELECT id FROM t WHERE v < 5) AS x",
    "WITH small AS (SELECT id, v FROM t WHERE v < 5) SELECT * FROM small",
    # competing access paths and comma-join orders (cost side may differ)
    "SELECT a FROM t WHERE v = 7 AND id = 7",
    "SELECT id FROM t WHERE v = 7 AND b > 100",
    "SELECT t.id, dim.label FROM t, dim WHERE t.v = dim.k AND dim.k = 4",
    "SELECT t.id, dim.label FROM dim, t WHERE t.v = dim.k AND t.id < 20",
]


def load_engine(db: Database) -> None:
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER,"
        " v INTEGER, n INTEGER, s VARCHAR(20))"
    )
    db.execute("CREATE INDEX t_v ON t (v)")
    db.execute("CREATE TABLE dim (k INTEGER, label VARCHAR(20))")
    db.execute("CREATE TABLE empty (k INTEGER)")
    rows = [
        (i, i * 3, (i * 7) % 1000, i % 50, None if i % 3 == 0 else i % 11, f"name-{i}")
        for i in range(500)
    ]
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", rows)
    db.executemany(
        "INSERT INTO dim VALUES (?, ?)", [(k, f"label-{k}") for k in range(0, 50, 2)]
    )


@pytest.fixture(scope="module")
def engine_pair():
    return planner_pair(load_engine)


@pytest.mark.parametrize("sql", ENGINE_CORPUS)
def test_engine_corpus_differential(engine_pair, sql):
    run_differential(engine_pair, sql)


def test_division_error_raises_in_both_modes(engine_pair):
    # Whatever access path either planner picks, a zero divisor reached
    # by evaluation surfaces as an SQLError on both.
    assert run_differential(engine_pair, "SELECT 10 / (v - v) FROM t") is None
    assert run_differential(engine_pair, "SELECT id FROM t WHERE 10 / n > 1") is None


def test_masked_conjunction_guards_division(engine_pair):
    # A decided left operand masks the right one: AND must not evaluate
    # the division on v = 0 rows the left side already rejected, nor OR
    # on rows the left side already accepted.
    rows = run_differential(engine_pair, "SELECT id FROM t WHERE v <> 0 AND 100 / v > 10")
    assert rows  # the guard admits rows, it doesn't just mask errors
    rows = run_differential(engine_pair, "SELECT id FROM t WHERE v = 0 OR 100 / v > 10")
    assert rows


# ---------------------------------------------------------------------------
# Hypothesis: random filters and projections over the seeded table.
# ---------------------------------------------------------------------------

COLUMNS = ("a", "b", "v", "n")

comparison = st.tuples(
    st.sampled_from(COLUMNS),
    st.sampled_from(("<", "<=", ">", ">=", "=", "<>")),
    st.integers(min_value=-5, max_value=60),
).map(lambda t: f"{t[0]} {t[1]} {t[2]}")

predicate = st.recursive(
    comparison,
    lambda inner: st.tuples(inner, st.sampled_from(("AND", "OR")), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    ),
    max_leaves=4,
)

projection = st.lists(
    st.sampled_from(COLUMNS + ("a + b", "v * 2", "b - v", "id")),
    min_size=1,
    max_size=4,
).map(", ".join)


@settings(max_examples=60, deadline=None)
@given(select=projection, where=predicate)
def test_random_filter_projection_differential(engine_pair, select, where):
    run_differential(engine_pair, f"SELECT {select} FROM t WHERE {where}")
