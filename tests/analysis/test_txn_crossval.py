"""Soundness on corpus: every deadlock the ContentionSim actually
produces on the workload scripts must be predicted statically by C001,
and the analyzer must never execute anything while predicting."""

import pytest

from repro.analysis.txn import (
    analyze_transaction_workload,
    parse_txn_script,
)
from repro.sim import ContentionConfig, ContentionSim, workload_scripts

#: Seeds known (and asserted below) to produce at least one deadlock at
#: this contention level — the cross-validation must not be vacuous.
SEEDS = (0, 1, 7, 42)

CONFIG = dict(clients=4, ops_per_client=8, conflict_rate=0.7)


def predicted_cycles():
    scripts = [
        parse_txn_script(name, text, sequenced=sequenced)
        for name, text, sequenced in workload_scripts()
    ]
    report = analyze_transaction_workload(scripts)
    return report.cycles


class TestSimVsStatic:
    @pytest.fixture(scope="class")
    def predictions(self):
        cycles = predicted_cycles()
        assert cycles, "the static analyzer predicted no deadlocks at all"
        return cycles

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_observed_deadlock_is_predicted(self, predictions, seed):
        sim = ContentionSim(ContentionConfig(seed=seed, **CONFIG))
        report = sim.run()
        observed = sim.locks.deadlock_cycles
        assert len(observed) == report["totals"]["deadlock_aborts"]
        for cycle_tables in observed:
            assert any(
                set(cycle_tables) <= set(prediction.tables)
                for prediction in predictions
            ), (
                f"seed {seed}: simulator deadlocked on tables "
                f"{cycle_tables} but no C001 prediction covers them "
                f"(predicted: {[p.tables for p in predictions]})"
            )

    def test_cross_validation_is_not_vacuous(self):
        total = 0
        for seed in SEEDS:
            sim = ContentionSim(ContentionConfig(seed=seed, **CONFIG))
            sim.run()
            total += len(sim.locks.deadlock_cycles)
        assert total > 0, (
            "no seed produced a deadlock — the soundness check tests nothing"
        )

    def test_self_pair_increment_is_predicted(self, predictions):
        # The known contended shape: two concurrent increment scripts.
        assert any(
            prediction.scripts == ("increment", "increment")
            and prediction.tables == ("counters",)
            for prediction in predictions
        )


class TestStaticness:
    """Analyzing scripts must leave the database byte-identical."""

    def snapshot(self, database):
        state = {}
        for name in sorted(database.catalog.table_names()):
            result = database.execute(f"SELECT * FROM {name}")
            state[name] = (tuple(result.columns), tuple(map(tuple, result.rows)))
        return state

    def test_workload_analysis_mutates_nothing(self):
        from repro.sqldb import Database

        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        database.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        before = self.snapshot(database)
        rows_before = dict(database.statistics)

        scripts = [
            parse_txn_script(
                "mutator",
                "BEGIN; DELETE FROM t WHERE id = 1; "
                "UPDATE t SET v = v + 1 WHERE id = 2; COMMIT",
                database=database,
            ),
            parse_txn_script(
                "ddl", "DROP TABLE t; SELECT 1 FROM t", database=database
            ),
        ]
        report = analyze_transaction_workload(scripts, database=database)
        assert report.findings  # it did analyze something

        assert self.snapshot(database) == before
        after = dict(database.statistics)
        # The snapshot SELECTs themselves count statements; everything
        # that tracks mutations must be untouched.
        for key in ("rows_inserted", "rows_updated", "rows_deleted"):
            if key in rows_before:
                assert after[key] == rows_before[key]
