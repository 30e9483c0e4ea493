"""Run one workload and turn its samples into the reported metrics.

An untraced run sets the stack up :data:`SETUP_REPEATS` times (the
median is ``setup_s``), then runs the closed loop for the requested
seconds and at least :data:`MIN_SAMPLES` actions.  A traced run makes an
untraced pass and a traced pass of half the seconds each, on fresh
stacks, and fails unless both passes did the same deterministic work.
Reported timings are rescaled to the reference host speed (see
:mod:`pdmbench.speed`).
"""

from __future__ import annotations

import gc
import math
import re
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

from pdmbench import speed
from pdmbench.stack import Stack
from pdmbench.trace import LAYER_METRICS, SpanRecorder, installed, layer_metrics
from pdmbench.workloads import Sizes, Workload, make_workload

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The high percentile reported, the samples it must have above it, and
#: the fewest actions an untraced run makes so that it has them.
HIGH_PERCENTILE = 90
BEYOND = 10
MIN_SAMPLES = 100
#: The deterministic metrics average the first WINDOW actions, so they do
#: not depend on how many actions the time budget allowed; for
#: ``eco_session`` that is one pass over its round schedule.
WINDOW = Sizes().eco_period

#: End-to-end metric -> unit and which way is better.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "action_cpu_ms_p50": ("ms", "lower"),
    "action_cpu_ms_p90": ("ms", "lower"),
    "actions_per_s": ("1/s", "higher"),
    "sim_s_per_action": ("s", "lower"),
    "round_trips_per_action": ("count", "lower"),
    "payload_kb_per_action": ("KB", "lower"),
    "ok_ops_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    return NAME.fullmatch(name) is not None


def supported_percentile(samples: int) -> Optional[int]:
    """The highest whole percentile up to :data:`HIGH_PERCENTILE` whose
    nearest-rank value has at least :data:`BEYOND` samples above it, or
    None."""
    for q in range(HIGH_PERCENTILE, 0, -1):
        if samples - math.ceil(q * samples / 100) >= BEYOND:
            return q
    return None


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


#: Per-action figures that must repeat exactly for a given seed.
Figures = Tuple[float, float, float, float]


@dataclass
class Loop:
    """Samples of one closed-loop pass."""

    cpu_ms: List[float] = field(default_factory=list)
    wall_s: List[float] = field(default_factory=list)
    #: (simulated s, round trips, payload bytes, statements) per action.
    figures: List[Figures] = field(default_factory=list)
    #: Public counters summed over the pass.
    totals: Dict[str, float] = field(default_factory=dict)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Peak resident set after :data:`MIN_SAMPLES` actions; read at a
    #: fixed action count so it does not grow with a faster loop.
    peak_rss_mb: float = 0.0
    #: Per action, the mean CPU ms of the reference loops run right
    #: before and right after it.
    reference_ms: List[float] = field(default_factory=list)

    @property
    def actions(self) -> int:
        return len(self.cpu_ms)

    def factors(self) -> List[float]:
        return speed.factors(self.reference_ms)

    def scaled_cpu_ms(self) -> List[float]:
        return [cpu * f for cpu, f in zip(self.cpu_ms, self.factors())]

    def actions_per_s(self, scaled: bool = True) -> float:
        if not scaled:
            return self.actions / sum(self.wall_s)
        return self.actions / sum(w * f for w, f in zip(self.wall_s, self.factors()))

    def window(self) -> List[Figures]:
        return self.figures[:WINDOW]


def run_loop(
    workload: Workload,
    stack: Stack,
    seconds: float,
    min_actions: int,
    recorder: Optional[SpanRecorder] = None,
) -> Loop:
    """Closed loop: each action starts when the previous one returned.
    Output checks and counter reads sit outside the timed interval."""
    loop = Loop()
    measured = 0.0
    index = 0
    while measured < seconds or index < min_actions:
        reference_before = speed.reference_ms()
        before = stack.counters()
        error: Optional[ReproError] = None
        outcome = None
        if recorder is not None:
            recorder.begin_action(index)
        cpu_start = process_time()
        start = perf_counter()
        try:
            outcome = workload.action(stack, index)
        except ReproError as raised:
            error = raised
        wall = perf_counter() - start
        cpu = process_time() - cpu_start
        if recorder is not None:
            recorder.end_action()
        loop.reference_ms.append((reference_before + speed.reference_ms()) / 2)
        after = stack.counters()
        delta = {key: after[key] - before[key] for key in after}
        if error is not None:
            problems = [f"action {index}: {type(error).__name__}: {error}"]
        else:
            problems = workload.check(stack, index, outcome)
        if delta["server_errors"] or delta["txn_aborts"]:
            problems.append(
                f"action {index}: {delta['server_errors']} ERROR frames, "
                f"{delta['txn_aborts']} aborted transactions"
            )
        if problems:
            loop.failed += 1
            loop.problems.extend(problems)
        loop.cpu_ms.append(cpu * 1000)
        loop.wall_s.append(wall)
        loop.figures.append(
            (
                delta["clock_s"],
                delta["round_trips"],
                delta["payload_bytes"],
                delta["statements"],
            )
        )
        for key, value in delta.items():
            loop.totals[key] = loop.totals.get(key, 0) + value
        measured += wall
        index += 1
        if index == MIN_SAMPLES:
            loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return loop


def _fresh_stack(workload: Workload) -> Tuple[Stack, float, float]:
    """A set-up stack, its set-up wall seconds, and the host-speed factor
    from reference loops run just before and after it."""
    gc.collect()
    reference = [speed.reference_ms() for __ in range(3)]
    start = perf_counter()
    stack = workload.setup()
    seconds = perf_counter() - start
    reference += [speed.reference_ms() for __ in range(3)]
    return stack, seconds, speed.REFERENCE_MS / statistics.median(reference)


def _window_means(loop: Loop) -> Tuple[float, float, float]:
    window = loop.window()
    return (
        statistics.fmean(f[0] for f in window),
        statistics.fmean(f[1] for f in window),
        statistics.fmean(f[2] for f in window) / 1024,
    )


@dataclass
class Result:
    workload: str
    seed: int
    product_seed: int
    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, float]
    units: Dict[str, str]
    notes: List[str]

    @property
    def correct(self) -> bool:
        return not self.problems

    def summary(self) -> dict:
        for name in self.metrics:
            if not valid_name(name):
                raise ValueError(f"invalid metric name {name!r}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }

    def lines(self) -> List[str]:
        out = [
            f"workload {self.workload}  seed {self.seed}  product seed "
            f"{self.product_seed}  attempted {self.attempted}  failed "
            f"{self.failed}  failed_ops_ratio {self.failed / self.attempted:.6g}"
        ]
        out += [f"  {note}" for note in self.notes]
        out += [
            f"  {name:40s} {value:14.6g} {self.units[name]}"
            for name, value in self.metrics.items()
        ]
        out += [f"  FAILED CHECK: {problem}" for problem in self.problems[:20]]
        return out


def _finish(workload: Workload, stack: Stack, loop: Loop) -> None:
    problems = workload.finish(stack)
    if problems:
        loop.failed = min(loop.actions, loop.failed + 1)
        loop.problems.extend(f"end of run: {problem}" for problem in problems)


def run_untraced(workload: Workload, seconds: float) -> Result:
    setup_times = []
    scaled_setups = []
    stack = None
    for __ in range(SETUP_REPEATS):
        stack = None
        stack, seconds_taken, factor = _fresh_stack(workload)
        setup_times.append(seconds_taken)
        scaled_setups.append(seconds_taken * factor)
    workload.prepare(stack)
    gc.collect()
    loop = run_loop(workload, stack, seconds, MIN_SAMPLES)
    _finish(workload, stack, loop)
    high = supported_percentile(loop.actions)
    if high != HIGH_PERCENTILE:
        raise RuntimeError(f"{loop.actions} samples cannot support p{HIGH_PERCENTILE}")
    sim_s, round_trips, payload_kb = _window_means(loop)
    cpu_ms = loop.scaled_cpu_ms()
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "action_cpu_ms_p50": percentile(cpu_ms, 50),
        "action_cpu_ms_p90": percentile(cpu_ms, high),
        "actions_per_s": loop.actions_per_s(),
        "sim_s_per_action": sim_s,
        "round_trips_per_action": round_trips,
        "payload_kb_per_action": payload_kb,
        "ok_ops_ratio": (loop.actions - loop.failed) / loop.actions,
        "peak_rss_mb": loop.peak_rss_mb,
    }
    notes = [
        f"{loop.actions} actions in {sum(loop.wall_s):.2f} s measured; "
        f"CPU percentiles are nearest-rank over all {loop.actions} samples "
        f"(p{high} has {loop.actions - math.ceil(high * loop.actions / 100)} beyond it)",
        f"timings are rescaled to a host running the reference loop in "
        f"{speed.REFERENCE_MS:g} ms; it took {statistics.median(loop.reference_ms):.3f} ms "
        f"here (median); raw: setup_s {statistics.median(setup_times):.6g}, "
        f"action_cpu_ms_p50 {percentile(loop.cpu_ms, 50):.6g}, "
        f"action_cpu_ms_p90 {percentile(loop.cpu_ms, high):.6g}, "
        f"actions_per_s {loop.actions_per_s(scaled=False):.6g}",
        f"setup_s is the median of {SETUP_REPEATS} set-ups: "
        + ", ".join(f"{t:.3f}" for t in scaled_setups),
        f"deterministic metrics average the first {WINDOW} actions; "
        f"statements per action {statistics.fmean(f[3] for f in loop.window()):.6g}",
    ]
    return Result(
        workload=workload.name,
        seed=workload.seed,
        product_seed=workload.product_seed,
        attempted=loop.actions,
        failed=loop.failed,
        problems=loop.problems,
        metrics=metrics,
        units={name: unit for name, (unit, __) in END_TO_END.items()},
        notes=notes,
    )


def run_traced(workload: Workload, seconds: float, out_dir: Optional[Path]) -> Result:
    stack, __, __ = _fresh_stack(workload)
    workload.prepare(stack)
    plain = run_loop(workload, stack, seconds / 2, WINDOW)
    _finish(workload, stack, plain)
    stack = None
    stack, __, __ = _fresh_stack(workload)
    workload.prepare(stack)
    gc.collect()
    recorder = SpanRecorder()
    with installed(recorder):
        traced = run_loop(workload, stack, seconds / 2, WINDOW, recorder)
    _finish(workload, stack, traced)
    problems = plain.problems + traced.problems
    if plain.window() != traced.window():
        problems.append(
            "tracing changed behaviour: (simulated s, round trips, payload "
            f"bytes, statements) per action {plain.window()} untraced, "
            f"{traced.window()} traced"
        )
    spans = recorder.complete()
    metrics = layer_metrics(
        spans,
        recorder.counts,
        traced.totals,
        traced.actions,
        traced.actions_per_s() / plain.actions_per_s(),
        traced.factors(),
    )
    notes = [
        f"untraced pass {plain.actions} actions at {plain.actions_per_s():.4g}/s; "
        f"traced pass {traced.actions} actions at {traced.actions_per_s():.4g}/s, "
        f"{len(spans)} spans (rates at reference host speed)",
        "per-layer times are self times in ms per traced action, rescaled to "
        "the reference host speed; counts are per action",
    ]
    if out_dir is not None:
        path = out_dir / f"trace-{workload.name}-seed{workload.seed}.tsv.gz"
        recorder.write(path)
        notes.append(f"spans written to {path}")
    return Result(
        workload=workload.name,
        seed=workload.seed,
        product_seed=workload.product_seed,
        attempted=plain.actions + traced.actions,
        failed=plain.failed + traced.failed,
        problems=problems,
        metrics=metrics,
        units={name: unit for name, (unit, __) in LAYER_METRICS.items()},
        notes=notes,
    )


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Optional[Path] = None,
    sizes: Optional[Sizes] = None,
) -> Result:
    workload = make_workload(name, seed, sizes)
    if trace:
        return run_traced(workload, seconds, out_dir)
    return run_untraced(workload, seconds)
