"""Span trees on the simulated clock: nesting, attribution, exactness."""

import pytest

from repro.network.clock import SimulatedClock
from repro.obs import TraceRecorder, instrument_stack, maybe_span


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def recorder(clock):
    recorder = TraceRecorder(clock=clock)
    clock.observer = recorder
    return recorder


class TestSpanTree:
    def test_nesting_builds_children(self, recorder, clock):
        with recorder.span("outer"):
            clock.advance(1.0, "latency")
            with recorder.span("inner"):
                clock.advance(0.5, "transfer")
        (root,) = recorder.roots
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner"]
        assert root.duration == pytest.approx(1.5)
        assert root.children[0].duration == pytest.approx(0.5)

    def test_advance_credits_innermost_span_only(self, recorder, clock):
        with recorder.span("outer"):
            clock.advance(1.0, "latency")
            with recorder.span("inner"):
                clock.advance(0.5, "latency")
        (root,) = recorder.roots
        assert root.components == {"latency": 1.0}
        assert root.children[0].components == {"latency": 0.5}
        assert root.total_components() == {"latency": 1.5}

    def test_component_sum_equals_root_duration_exactly(
        self, recorder, clock
    ):
        """The invariant the whole layer exists for: no simulated second
        can go missing or be double-counted."""
        with recorder.span("root"):
            clock.advance(0.1, "latency")
            with recorder.span("a"):
                clock.advance(0.2, {"latency": 0.15, "transfer": 0.05})
            clock.advance(0.3)  # unattributed
        (root,) = recorder.roots
        totals = root.total_components()
        assert sum(totals.values()) == pytest.approx(
            root.duration, abs=1e-12
        )
        assert totals["unattributed"] == pytest.approx(0.3)

    def test_dict_component_splits_one_advance(self, recorder, clock):
        with recorder.span("s"):
            clock.advance(1.0, {"latency": 0.4, "transfer": 0.6})
        (root,) = recorder.roots
        assert root.components == {"latency": 0.4, "transfer": 0.6}

    def test_advances_outside_any_span_are_dropped(self, recorder, clock):
        clock.advance(5.0, "latency")
        assert recorder.roots == []

    def test_events_and_annotations_attach_to_current(self, recorder, clock):
        with recorder.span("s"):
            clock.advance(1.0)
            recorder.event("fault.drop", target="request")
            recorder.annotate(opcode="QUERY")
        (root,) = recorder.roots
        assert root.meta["opcode"] == "QUERY"
        ((at, message, data),) = root.events
        assert at == pytest.approx(1.0)
        assert message == "fault.drop"
        assert data == {"target": "request"}

    def test_exception_closes_span_and_records_error(self, recorder, clock):
        with pytest.raises(ValueError):
            with recorder.span("s"):
                clock.advance(1.0)
                raise ValueError("boom")
        (root,) = recorder.roots
        assert root.end is not None
        assert root.meta["error"] == "ValueError"
        assert recorder.current is None

    def test_find_root_returns_most_recent(self, recorder):
        with recorder.span("op"):
            pass
        with recorder.span("op"):
            pass
        assert recorder.find_root("op") is recorder.roots[-1]
        assert recorder.find_root("missing") is None

    def test_to_dict_is_json_exportable(self, recorder, clock):
        import json

        with recorder.span("s", kind="test", tag=1):
            clock.advance(1.0, "latency")
            recorder.event("e", n=2)
        json.dumps(recorder.roots[0].to_dict())

    def test_reset_drops_everything(self, recorder, clock):
        with recorder.span("s"):
            clock.advance(1.0)
        recorder.metrics.histogram("h").observe(0.5)
        recorder.reset()
        assert recorder.roots == []
        assert recorder.metrics.histograms == {}


class TestMaybeSpan:
    def test_none_recorder_is_noop(self, clock):
        with maybe_span(None, "s") as span:
            assert span is None
        clock.advance(1.0)  # no observer, nothing breaks

    def test_recorder_opens_real_span(self, recorder):
        with maybe_span(recorder, "s", kind="k", a=1) as span:
            assert span is recorder.current
        assert recorder.roots[0].meta == {"a": 1}


class TestInstrumentStack:
    def test_binds_clock_and_layers(self):
        from repro.network.link import NetworkLink

        link = NetworkLink(latency_s=0.1, dtr_kbit_s=512)
        recorder = TraceRecorder()
        instrument_stack(recorder, link=link)
        assert recorder.clock is link.clock
        assert link.clock.observer is recorder
        assert link.recorder is recorder
        with recorder.span("transmit"):
            link.transmit(1000, is_request=True)
        (root,) = recorder.roots
        assert root.components["latency"] == pytest.approx(0.1)
        assert sum(root.components.values()) == pytest.approx(
            root.duration, abs=1e-12
        )


class TestMvccMetrics:
    def test_traced_readonly_txn_counts_in_db_statistics(self, recorder):
        """A recorder changes no count: the READ ONLY transaction and its
        snapshot read are counted once, in the database's statistics."""
        from repro.sqldb import Database

        db = Database(mvcc=True)
        db.recorder = recorder
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("BEGIN TRANSACTION READ ONLY", session="r")
        db.execute("SELECT v FROM t WHERE id = 1", session="r")
        db.execute("COMMIT", session="r")
        assert db.statistics["readonly_txns"] == 1
        assert db.statistics["snapshot_reads"] == 1
        assert recorder.metrics.to_dict() == {"histograms": {}}


class TestTraceSummary:
    def test_counters_block_prints_nonzero_owner_counts(self, recorder, clock):
        from repro.bench.report import format_trace_summary, trace_summary

        with recorder.span("s"):
            clock.advance(1.0, "latency")
        recorder.metrics.histogram("h").observe(0.5)
        summary = trace_summary(recorder)
        assert list(summary["metrics"]) == ["histograms"]
        summary["counters"] = {"timeouts": 1, "errors": 0, "retries": 2}
        text = format_trace_summary(summary)
        block = text.split("  counters:\n")[1].split("  histograms:")[0]
        assert block == "    retries = 2\n    timeouts = 1\n"

    def test_no_counters_block_without_counts(self, recorder):
        from repro.bench.report import format_trace_summary, trace_summary

        assert "counters:" not in format_trace_summary(trace_summary(recorder))
