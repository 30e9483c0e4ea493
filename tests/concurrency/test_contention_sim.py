"""The deterministic contention simulator and its invariants."""

import pytest

from repro.errors import ConcurrencyError
from repro.sim import (
    ContentionConfig,
    ContentionSim,
    exact_percentile,
    report_json,
)


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self):
        config = ContentionConfig(
            clients=3, ops_per_client=5, conflict_rate=0.6, seed=7
        )
        first = ContentionSim(config).run()
        second = ContentionSim(config).run()
        assert report_json(first) == report_json(second)
        assert first["schedule"]["hash"] == second["schedule"]["hash"]

    def test_different_seeds_differ(self):
        base = dict(clients=3, ops_per_client=5, conflict_rate=0.6)
        first = ContentionSim(ContentionConfig(seed=1, **base)).run()
        second = ContentionSim(ContentionConfig(seed=2, **base)).run()
        assert first["schedule"]["hash"] != second["schedule"]["hash"]


class TestInvariants:
    @pytest.fixture(scope="class")
    def contended_report(self):
        return ContentionSim(
            ContentionConfig(
                clients=4, ops_per_client=8, conflict_rate=0.9, seed=42
            )
        ).run()

    def test_zero_lost_updates(self, contended_report):
        assert contended_report["lost_updates"] == 0
        assert contended_report["committed_increments"] > 0

    def test_conflicts_actually_happened(self, contended_report):
        totals = contended_report["totals"]
        assert (
            totals["write_retries"]
            + totals["read_retries"]
            + totals["deadlock_aborts"]
        ) > 0

    def test_every_abort_was_restarted_to_completion(self, contended_report):
        totals = contended_report["totals"]
        # Restarts cover every deadlock/timeout abort (nothing abandoned).
        assert totals["txn_restarts"] == (
            totals["deadlock_aborts"] + totals["timeout_aborts"]
        )

    def test_all_sessions_closed(self, contended_report):
        assert contended_report["server"]["sessions_open"] == 0

    def test_checkins_match_checkouts(self, contended_report):
        totals = contended_report["totals"]
        assert totals["checkins"] == totals["checkouts"]

    def test_latency_distribution_is_ordered(self, contended_report):
        latency = contended_report["latency_s"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]

    def test_simulated_time_advanced(self, contended_report):
        assert contended_report["elapsed_s"] > 0
        assert contended_report["throughput_ops_per_s"] > 0


class TestAuditEco:
    """Long READ ONLY audits racing ECO write bursts, 2PL vs MVCC."""

    AUDIT_KWARGS = dict(
        clients=6, ops_per_client=6, conflict_rate=0.5, seed=42,
        scenario="audit_eco",
    )

    @pytest.fixture(scope="class")
    def locked(self):
        return ContentionSim(ContentionConfig(**self.AUDIT_KWARGS)).run()

    @pytest.fixture(scope="class")
    def snapshotted(self):
        return ContentionSim(
            ContentionConfig(mvcc=True, **self.AUDIT_KWARGS)
        ).run()

    def test_same_seed_byte_identical_for_both_builds(self):
        for mvcc in (False, True):
            config = ContentionConfig(mvcc=mvcc, **self.AUDIT_KWARGS)
            first = ContentionSim(config).run()
            second = ContentionSim(config).run()
            assert report_json(first) == report_json(second)

    def test_2pl_auditors_actually_contend(self, locked):
        totals = locked["totals"]
        assert totals["ro_lock_waits"] > 0
        assert not locked["mvcc"]["enabled"]
        assert locked["mvcc"]["snapshot_reads"] == 0

    def test_mvcc_auditors_never_wait_or_abort(self, snapshotted):
        totals = snapshotted["totals"]
        assert totals["ro_lock_waits"] == 0
        assert totals["ro_aborts"] == 0
        assert snapshotted["mvcc"]["enabled"]
        assert snapshotted["mvcc"]["snapshot_reads"] > 0
        assert snapshotted["mvcc"]["readonly_txns"] > 0
        # Steady state after the run: every chain garbage-collected.
        assert snapshotted["mvcc"]["chains"] == 0

    def test_mvcc_expand_tail_latency_strictly_better(
        self, locked, snapshotted
    ):
        assert (
            snapshotted["expand_latency_s"]["p99"]
            < locked["expand_latency_s"]["p99"]
        )

    def test_no_lost_updates_either_way(self, locked, snapshotted):
        assert locked["lost_updates"] == 0
        assert snapshotted["lost_updates"] == 0
        assert locked["totals"]["eco_commits"] > 0
        assert snapshotted["totals"]["eco_commits"] > 0

    def test_restarts_cover_every_abort(self, locked, snapshotted):
        for report in (locked, snapshotted):
            totals = report["totals"]
            assert totals["txn_restarts"] == (
                totals["deadlock_aborts"]
                + totals["timeout_aborts"]
                + totals["ro_aborts"]
            )


class TestConfigValidation:
    def test_rejects_zero_clients(self):
        with pytest.raises(ConcurrencyError):
            ContentionConfig(clients=0)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConcurrencyError):
            ContentionConfig(scenario="chaos-monkey")

    def test_rejects_single_hot_counter(self):
        with pytest.raises(ConcurrencyError):
            ContentionConfig(hot_counters=1)

    def test_rejects_bad_conflict_rate(self):
        with pytest.raises(ConcurrencyError):
            ContentionConfig(conflict_rate=1.5)


class TestExactPercentile:
    def test_empty_is_none(self):
        assert exact_percentile([], 0.5) is None

    def test_single_value(self):
        assert exact_percentile([3.0], 0.99) == 3.0

    def test_median_interpolates(self):
        assert exact_percentile([1.0, 2.0], 0.5) == 1.5

    def test_endpoints(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert exact_percentile(data, 0.0) == 1.0
        assert exact_percentile(data, 1.0) == 4.0
