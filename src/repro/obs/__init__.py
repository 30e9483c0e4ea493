"""End-to-end observability: tracing spans and a metrics registry.

The paper's whole argument rests on *decomposing* response time into
latency, transfer and server components (Section 2, equations (1)-(6)).
This package provides the measurement substrate that turns an aggregate
benchmark number into an explanation: a :class:`TraceRecorder` opens
nested spans on the :class:`~repro.network.clock.SimulatedClock` (user
action -> per-level round trips -> link transmissions -> server handling
-> plan execution), every simulated-clock advance is attributed to a
named component of the innermost open span, and a small
:class:`MetricsRegistry` accumulates fixed-bucket histograms (round-trip
time, frame size, rows per result).

The registry holds distributions only.  Event counts have one home each:
the ``statistics`` dict of the component that owns the event (database,
server, WAL, lock manager, session manager) or the link's
:class:`~repro.network.stats.TrafficStats`; the server's STATS frame is
one view over them (:meth:`repro.server.server.DatabaseServer.counters`).

Tracing is strictly opt-in: every instrumented layer carries a
``recorder`` attribute that defaults to ``None``, and all hooks are
guarded so the traced and untraced executions advance the simulated
clock identically — enabling a recorder can never change a measured
response time.
"""

from repro.obs.metrics import (
    BYTES_BUCKETS,
    ROWS_BUCKETS,
    SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span, TraceRecorder, instrument_stack, maybe_span

__all__ = [
    "BYTES_BUCKETS",
    "ROWS_BUCKETS",
    "SECONDS_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceRecorder",
    "instrument_stack",
    "maybe_span",
]
