"""Per-layer span trace recorded from outside the program.

:func:`installed` wraps the layers' public entry points (listed by
:func:`wrap_points`) with ``time.perf_counter`` spans and restores every
wrapped attribute on exit, so untraced runs carry no wrapper at all.
Spans stay in memory as ``(name, action, parent, start, end)`` tuples.
A span's *self time* is its duration minus the time its direct child
spans cover; summing self times by layer attributes each action's time
once, even through re-entrant calls such as ``DatabaseServer.handle``
handling the inner frame of a SEQUENCED request.
"""

from __future__ import annotations

import functools
import gzip
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, int, int, float, float]

#: Name of the root span the runner opens around each action.
ACTION = "action"


class SpanRecorder:
    """In-memory spans plus the counts taken at the same wrap points."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        #: Index of the action being traced; -1 between actions, when
        #: wrappers pass straight through.
        self.action = -1
        self.counts: Dict[str, float] = {}
        self._root = -1
        self._root_start = 0.0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_action(self, index: int) -> None:
        self.action = index
        self._root = len(self.spans)
        self.spans.append(None)
        self.stack.append(self._root)
        self._root_start = perf_counter()

    def end_action(self) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[self._root] = (ACTION, self.action, -1, self._root_start, end)
        self.action = -1

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        after: Optional[Callable[["SpanRecorder", Any, tuple], None]] = None,
    ) -> Callable[..., Any]:
        """*function* recording a span named *name* while an action runs;
        ``after(recorder, result, args)`` takes counts from the call."""
        spans = self.spans
        stack = self.stack

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            action = self.action
            if action < 0:
                return function(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, action, parent, start, end)
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def complete(self) -> List[Span]:
        spans = [span for span in self.spans if span is not None]
        if len(spans) != len(self.spans) or self.stack:
            raise RuntimeError("trace has spans that never closed")
        return spans

    def write(self, path: Path) -> None:
        """Write the spans as gzip'd TSV: action, parent, name, start and
        end in microseconds from the first span."""
        spans = self.complete()
        origin = spans[0][3] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\taction\tparent\tname\tstart_us\tend_us\n")
            for index, (name, action, parent, start, end) in enumerate(spans):
                out.write(
                    f"{index}\t{action}\t{parent}\t{name}\t"
                    f"{(start - origin) * 1e6:.3f}\t{(end - origin) * 1e6:.3f}\n"
                )


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for name, action, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, _, start, end) in enumerate(spans)]


# -- wrap points -------------------------------------------------------------------


def _encoded_bytes(recorder: SpanRecorder, result: Any, args: tuple) -> None:
    recorder.count("codec_bytes", len(result))


def _rows_scanned(recorder: SpanRecorder, result: Any, args: tuple) -> None:
    recorder.count("rows_scanned", args[0].last_counters.get("rows_scanned", 0))


def _permits(recorder: SpanRecorder, result: Any, args: tuple) -> None:
    recorder.count("permitted", 1 if result else 0)


#: Frame codecs of ``repro.server.protocol``.
PROTOCOL_CODECS = tuple(
    f"{direction}_{frame}"
    for frame in (
        "envelope",
        "sequenced",
        "session_op",
        "procedure_call",
        "batch",
        "batch_result",
        "stats",
        "error",
        "values",
    )
    for direction in ("encode", "decode")
)


def wrap_points() -> List[Tuple[Any, str, str, Any]]:
    """``(owner, attribute, span name, after-hook)`` for every wrap point.

    ``parse_statement`` and ``execute_plan`` are bound into
    ``repro.sqldb.database`` and ``build_tree`` and ``object_permitted``
    into ``repro.pdm.operations`` by ``from ... import``, so they are
    patched in the module that calls them, not where they are defined.
    """
    from repro.concurrency import LockManager
    from repro.network.link import NetworkLink
    from repro.pdm import operations
    from repro.pdm.operations import PDMClient
    from repro.recovery import WalWriter
    from repro.server import protocol
    from repro.server.client import RemoteConnection
    from repro.server.server import DatabaseServer
    from repro.sqldb import database, wire
    from repro.sqldb.database import Database
    from repro.sqldb.mvcc import MvccManager
    from repro.sqldb.planner import Planner
    from repro.sqldb.storage import TableStorage

    points: List[Tuple[Any, str, str, Any]] = [
        (wire, "encode_result", "sqldb.wire.encode_result", _encoded_bytes),
        (wire, "encode_query", "sqldb.wire.encode_query", _encoded_bytes),
        (wire, "decode_result", "sqldb.wire.decode_result", None),
        (wire, "decode_query", "sqldb.wire.decode_query", None),
    ]
    points += [
        (protocol, codec, f"server.protocol.{codec}", None)
        for codec in PROTOCOL_CODECS
    ]
    points += [
        (RemoteConnection, method, f"server.client.{method}", None)
        for method in ("execute", "execute_batch", "call_procedure", "begin", "commit")
    ]
    points += [
        (DatabaseServer, "handle", "server.server.handle", None),
        (NetworkLink, "deliver", "network.link.deliver", None),
        (Database, "execute", "sqldb.database.execute", _rows_scanned),
        (Planner, "plan_select", "sqldb.planner.plan_select", None),
        (database, "parse_statement", "sqldb.parser.parse_statement", None),
        (database, "execute_plan", "sqldb.executor.execute_plan", None),
        (operations, "build_tree", "pdm.structure.build_tree", None),
        (operations, "object_permitted", "rules.evaluate.object_permitted", _permits),
    ]
    points += [
        (PDMClient, method, f"pdm.operations.{method}", None)
        for method in ("multi_level_expand", "where_used", "check_out", "check_in")
    ]
    points += [
        (TableStorage, method, f"sqldb.storage.{method}", None)
        for method in ("insert", "update", "delete")
    ]
    points += [(MvccManager, "commit", "sqldb.mvcc.commit", None)]
    points += [
        (WalWriter, method, f"recovery.wal.{method}", None)
        for method in ("log_insert", "log_update", "log_delete", "commit")
    ]
    points += [
        (LockManager, method, f"concurrency.locks.{method}", None)
        for method in ("acquire", "acquire_all_or_nothing")
    ]
    return points


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every :func:`wrap_points` entry; restore all on exit."""
    originals: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, after in wrap_points():
            original = vars(owner)[attribute]
            if not callable(original):
                raise TypeError(f"{owner.__name__}.{attribute} is not a plain function")
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(original, name, after))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# -- per-layer metrics ---------------------------------------------------------------

#: Per-layer metric -> unit and which way is better.  Times are self
#: times in ms per action; counts are per action.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "sqldb.wire.encode_ms": ("ms", "lower"),
    "sqldb.wire.decode_ms": ("ms", "lower"),
    "sqldb.wire.kb": ("KB", "lower"),
    "sqldb.wire.us_per_kb": ("us/KB", "lower"),
    "server.client.self_ms": ("ms", "lower"),
    "server.client.requests": ("count", "lower"),
    "server.protocol.ms": ("ms", "lower"),
    "server.server.handle_self_ms": ("ms", "lower"),
    "server.server.requests": ("count", "lower"),
    "sqldb.database.execute_self_ms": ("ms", "lower"),
    "sqldb.database.statements": ("count", "lower"),
    "sqldb.database.plan_cache_hit_ratio": ("ratio", "higher"),
    "rules.evaluate.ms": ("ms", "lower"),
    "rules.evaluate.calls": ("count", "lower"),
    "rules.evaluate.permit_ratio": ("ratio", "higher"),
    "sqldb.parser.ms": ("ms", "lower"),
    "sqldb.parser.calls": ("count", "lower"),
    "sqldb.planner.ms": ("ms", "lower"),
    "sqldb.planner.calls": ("count", "lower"),
    "sqldb.executor.ms": ("ms", "lower"),
    "sqldb.executor.rows_scanned": ("count", "lower"),
    "sqldb.executor.rows_returned": ("count", "lower"),
    "sqldb.executor.returned_per_scanned": ("ratio", "higher"),
    "pdm.operations.self_ms": ("ms", "lower"),
    "pdm.structure.build_tree_ms": ("ms", "lower"),
    "sqldb.storage.write_ms": ("ms", "lower"),
    "sqldb.storage.row_writes": ("count", "lower"),
    "sqldb.mvcc.commit_ms": ("ms", "lower"),
    "sqldb.mvcc.versions_created": ("count", "lower"),
    "sqldb.mvcc.snapshot_reads": ("count", "lower"),
    "recovery.wal.ms": ("ms", "lower"),
    "recovery.wal.records": ("count", "lower"),
    "recovery.wal.kb": ("KB", "lower"),
    "recovery.wal.bytes_per_row_write": ("B", "lower"),
    "concurrency.locks.ms": ("ms", "lower"),
    "concurrency.locks.acquisitions": ("count", "lower"),
    "concurrency.locks.waits": ("count", "lower"),
    "network.link.deliver_ms": ("ms", "lower"),
    "network.link.messages": ("count", "lower"),
    "network.link.wire_kb": ("KB", "lower"),
    "network.link.sim_latency_s": ("s", "lower"),
    "network.link.sim_transfer_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.unattributed_share": ("ratio", "lower"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: Sequence[Span],
    counts: Dict[str, float],
    totals: Dict[str, float],
    actions: int,
    overhead_ratio: float,
    factors: Optional[Sequence[float]] = None,
) -> Dict[str, float]:
    """Per-action per-layer metrics from a traced run.

    *spans* and *counts* come from the :class:`SpanRecorder`; *totals*
    are the stack's public counters summed over the traced actions.
    *factors* rescale each action's times to the reference host speed.
    """
    self_ms: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    nested_handles = 0
    action_ms = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        name, action, parent = span[0], span[1], span[2]
        scale = 1000 * (factors[action] if factors is not None else 1.0)
        self_ms[name] = self_ms.get(name, 0.0) + self_s * scale
        calls[name] = calls.get(name, 0) + 1
        if name == ACTION:
            action_ms += (span[4] - span[3]) * scale
        elif parent >= 0 and name == "server.server.handle" == spans[parent][0]:
            nested_handles += 1

    def ms(prefix: str) -> float:
        return sum(v for k, v in self_ms.items() if k.startswith(prefix)) / actions

    def n(prefix: str) -> float:
        return sum(v for k, v in calls.items() if k.startswith(prefix)) / actions

    def per_action(key: str) -> float:
        return totals.get(key, 0) / actions

    wire_kb = counts.get("codec_bytes", 0) / 1024 / actions
    codec_ms = ms("sqldb.wire.")
    row_writes = n("sqldb.storage.")
    rule_calls = n("rules.evaluate.")
    return {
        "sqldb.wire.encode_ms": ms("sqldb.wire.encode_"),
        "sqldb.wire.decode_ms": ms("sqldb.wire.decode_"),
        "sqldb.wire.kb": wire_kb,
        "sqldb.wire.us_per_kb": _ratio(codec_ms * 1000, wire_kb),
        "server.client.self_ms": ms("server.client."),
        "server.client.requests": per_action("round_trips"),
        "server.protocol.ms": ms("server.protocol."),
        "server.server.handle_self_ms": ms("server.server.handle"),
        "server.server.requests": n("server.server.handle") - nested_handles / actions,
        "sqldb.database.execute_self_ms": ms("sqldb.database.execute"),
        "sqldb.database.statements": per_action("statements"),
        "sqldb.database.plan_cache_hit_ratio": _ratio(
            totals.get("plan_cache_hits", 0), totals.get("statements", 0)
        ),
        "rules.evaluate.ms": ms("rules.evaluate."),
        "rules.evaluate.calls": rule_calls,
        "rules.evaluate.permit_ratio": _ratio(
            counts.get("permitted", 0) / actions, rule_calls
        ),
        "sqldb.parser.ms": ms("sqldb.parser."),
        "sqldb.parser.calls": n("sqldb.parser."),
        "sqldb.planner.ms": ms("sqldb.planner."),
        "sqldb.planner.calls": n("sqldb.planner."),
        "sqldb.executor.ms": ms("sqldb.executor."),
        "sqldb.executor.rows_scanned": counts.get("rows_scanned", 0) / actions,
        "sqldb.executor.rows_returned": per_action("rows_returned"),
        "sqldb.executor.returned_per_scanned": _ratio(
            totals.get("rows_returned", 0), counts.get("rows_scanned", 0)
        ),
        "pdm.operations.self_ms": ms("pdm.operations."),
        "pdm.structure.build_tree_ms": ms("pdm.structure."),
        "sqldb.storage.write_ms": ms("sqldb.storage."),
        "sqldb.storage.row_writes": row_writes,
        "sqldb.mvcc.commit_ms": ms("sqldb.mvcc."),
        "sqldb.mvcc.versions_created": per_action("versions_created"),
        "sqldb.mvcc.snapshot_reads": per_action("snapshot_reads"),
        "recovery.wal.ms": ms("recovery.wal."),
        "recovery.wal.records": per_action("wal_records"),
        "recovery.wal.kb": per_action("disk_bytes") / 1024,
        "recovery.wal.bytes_per_row_write": _ratio(per_action("disk_bytes"), row_writes),
        "concurrency.locks.ms": ms("concurrency.locks."),
        "concurrency.locks.acquisitions": per_action("lock_acquisitions"),
        "concurrency.locks.waits": per_action("lock_waits"),
        "network.link.deliver_ms": ms("network.link."),
        "network.link.messages": per_action("messages"),
        "network.link.wire_kb": per_action("wire_bytes") / 1024,
        "network.link.sim_latency_s": per_action("latency_s"),
        "network.link.sim_transfer_s": per_action("transfer_s"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_share": _ratio(self_ms.get(ACTION, 0.0), action_ms),
    }
