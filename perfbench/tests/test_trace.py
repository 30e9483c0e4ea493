"""Span arithmetic and wrap-point hygiene of the per-layer trace."""

import pytest

from pdmbench import trace
from pdmbench.trace import ACTION, SpanRecorder, installed, layer_metrics, self_times


def test_self_time_subtracts_direct_children_only():
    # action [0,10] > client [1,9] > handle [2,8] > handle [3,7] > db [4,6]
    spans = [
        (ACTION, 0, -1, 0.0, 10.0),
        ("server.client.execute", 0, 0, 1.0, 9.0),
        ("server.server.handle", 0, 1, 2.0, 8.0),
        ("server.server.handle", 0, 2, 3.0, 7.0),
        ("sqldb.database.execute", 0, 3, 4.0, 6.0),
    ]
    assert self_times(spans) == [2.0, 2.0, 2.0, 2.0, 2.0]


def test_self_time_with_sibling_children():
    spans = [
        (ACTION, 0, -1, 0.0, 10.0),
        ("a", 0, 0, 1.0, 3.0),
        ("b", 0, 0, 4.0, 8.0),
        ("c", 0, 2, 5.0, 6.0),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


class _Server:
    """Re-enters ``handle`` for a SEQUENCED-style frame, like
    ``DatabaseServer.handle``."""

    def handle(self, frame):
        if frame.startswith("S"):
            return self.handle(frame[1:])
        return frame.upper()


def test_reentrant_handle_spans_nest_and_count_one_request(monkeypatch):
    recorder = SpanRecorder()
    original = _Server.handle
    monkeypatch.setattr(_Server, "handle", recorder.wrap(original, "server.server.handle"))
    server = _Server()
    for index in range(2):
        recorder.begin_action(index)
        assert server.handle("Sq") == "Q"
        recorder.end_action()
    spans = recorder.complete()
    assert [(s[0], s[1], s[2]) for s in spans] == [
        (ACTION, 0, -1),
        ("server.server.handle", 0, 0),
        ("server.server.handle", 0, 1),
        (ACTION, 1, -1),
        ("server.server.handle", 1, 3),
        ("server.server.handle", 1, 4),
    ]
    durations = [end - start for __, __, __, start, end in spans]
    selfs = self_times(spans)
    # Self times partition each action's duration exactly.
    assert sum(selfs[:3]) == pytest.approx(durations[0])
    assert all(value >= 0 for value in selfs)
    metrics = layer_metrics(spans, {}, {}, actions=2, overhead_ratio=1.0)
    assert metrics["server.server.requests"] == 1
    handle_ms = (selfs[1] + selfs[2] + selfs[4] + selfs[5]) * 1000 / 2
    assert metrics["server.server.handle_self_ms"] == pytest.approx(handle_ms)


def test_wrappers_pass_through_between_actions():
    recorder = SpanRecorder()
    wrapped = recorder.wrap(lambda value: value + 1, "x")
    assert wrapped(1) == 2
    assert recorder.spans == []


def test_span_closes_when_the_wrapped_call_raises():
    recorder = SpanRecorder()

    def fail():
        raise ValueError("boom")

    wrapped = recorder.wrap(fail, "x")
    recorder.begin_action(0)
    with pytest.raises(ValueError):
        wrapped()
    recorder.end_action()
    assert [span[0] for span in recorder.complete()] == [ACTION, "x"]


def _current(points):
    return [vars(owner)[attribute] for owner, attribute, __, __ in points]


def test_installed_restores_every_attribute():
    points = trace.wrap_points()
    before = _current(points)
    recorder = SpanRecorder()
    with installed(recorder):
        during = _current(points)
        assert all(new is not old for new, old in zip(during, before))
    assert all(new is old for new, old in zip(_current(points), before))


def test_installed_restores_on_error():
    points = trace.wrap_points()
    before = _current(points)
    with pytest.raises(RuntimeError):
        with installed(SpanRecorder()):
            raise RuntimeError("stop")
    assert all(new is old for new, old in zip(_current(points), before))
