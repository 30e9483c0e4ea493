"""Reporting: paper vs analytic model vs end-to-end simulation.

The central artefact is the *comparison table*: for every cell of the
paper's evaluation grid it shows the published value, the value computed
by :mod:`repro.model` (which must match to the cent) and the value
measured by running the action end-to-end on the built substrate (which
must match in shape — same winner, same order of magnitude, crossovers in
the same place).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ComparisonRow:
    """One grid cell of a table comparison."""

    network: str
    tree: str
    action: str
    paper_seconds: float
    model_seconds: float
    simulated_seconds: Optional[float] = None
    paper_saving: Optional[float] = None
    model_saving: Optional[float] = None
    simulated_saving: Optional[float] = None

    @property
    def model_error(self) -> float:
        """Absolute model-vs-paper difference in seconds."""
        return abs(self.model_seconds - self.paper_seconds)

    @property
    def simulated_ratio(self) -> Optional[float]:
        if self.simulated_seconds is None or self.paper_seconds == 0:
            return None
        return self.simulated_seconds / self.paper_seconds


@dataclass
class ExperimentReport:
    """Everything one experiment produced."""

    experiment_id: str
    title: str
    rows: List[ComparisonRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} ==", ""]
        header = (
            f"{'network':<22}{'tree':<12}{'action':<8}"
            f"{'paper[s]':>12}{'model[s]':>12}{'simulated[s]':>14}"
            f"{'pap.sav%':>10}{'mod.sav%':>10}{'sim.sav%':>10}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                f"{row.network:<22}{row.tree:<12}{row.action:<8}"
                f"{row.paper_seconds:>12.2f}{row.model_seconds:>12.2f}"
                + (
                    f"{row.simulated_seconds:>14.2f}"
                    if row.simulated_seconds is not None
                    else f"{'-':>14}"
                )
                + (
                    f"{row.paper_saving:>10.2f}"
                    if row.paper_saving is not None
                    else f"{'-':>10}"
                )
                + (
                    f"{row.model_saving:>10.2f}"
                    if row.model_saving is not None
                    else f"{'-':>10}"
                )
                + (
                    f"{row.simulated_saving:>10.2f}"
                    if row.simulated_saving is not None
                    else f"{'-':>10}"
                )
            )
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"  note: {note}")
        lines.append("")
        return "\n".join(lines)

    def max_model_error(self) -> float:
        return max((row.model_error for row in self.rows), default=0.0)


def trace_summary(recorder) -> dict:
    """JSON-exportable summary of a :class:`repro.obs.TraceRecorder`.

    Bundles the full span forest, the component decomposition aggregated
    over every root's subtree (which, by construction of the clock
    observer, sums to the roots' total duration exactly) and the
    histogram snapshot.
    """
    roots = list(recorder.roots)
    components: Dict[str, float] = {}
    for root in roots:
        for name, seconds in root.total_components().items():
            components[name] = components.get(name, 0.0) + seconds
    fault_events = [
        {"at": at, "message": message, "span": span.name, **data}
        for span in recorder.iter_spans()
        for at, message, data in span.events
        if message.startswith("fault.")
    ]
    return {
        "span_count": sum(1 for __ in recorder.iter_spans()),
        "root_seconds": sum(root.duration for root in roots),
        "components": dict(sorted(components.items())),
        "fault_events": fault_events,
        "metrics": recorder.metrics.to_dict(),
        "spans": [root.to_dict() for root in roots],
    }


def format_trace_summary(summary: dict, max_depth: Optional[int] = None) -> str:
    """Human-readable rendering of a :func:`trace_summary` dict.

    ``max_depth`` truncates the span tree (None renders it fully); the
    component totals and histograms always print in full.  An optional
    ``counters`` dict (event counts read from their owners, e.g. the
    server's STATS view) prints its non-zero entries.
    """
    lines = [
        f"trace: {summary['span_count']} span(s), "
        f"{summary['root_seconds']:.3f}s across "
        f"{len(summary['spans'])} root(s)"
    ]
    components = summary["components"]
    if components:
        lines.append("  time decomposition:")
        for name, seconds in components.items():
            share = (
                seconds / summary["root_seconds"] * 100.0
                if summary["root_seconds"]
                else 0.0
            )
            lines.append(f"    {name:<14}{seconds:>10.3f}s  {share:5.1f}%")
    if summary["fault_events"]:
        lines.append(f"  fault events: {len(summary['fault_events'])}")
    counters = {
        name: value
        for name, value in sorted(summary.get("counters", {}).items())
        if value
    }
    if counters:
        lines.append("  counters:")
        for name, value in counters.items():
            lines.append(f"    {name} = {value:g}")
    histograms = summary["metrics"]["histograms"]
    if histograms:
        lines.append("  histograms:")
        for name, data in histograms.items():
            line = (
                f"    {name}: n={data['count']} mean={data['mean']:.4g} "
                f"min={data['min']} max={data['max']}"
            )
            if data.get("p50") is not None:
                line += (
                    f" p50={data['p50']:.4g} p95={data['p95']:.4g} "
                    f"p99={data['p99']:.4g}"
                )
            lines.append(line)
    lines.append("  span tree:")

    def render(span: dict, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        meta = span.get("meta", {})
        label = " ".join(f"{k}={v}" for k, v in meta.items())
        lines.append(
            "    " + "  " * depth + f"{span['name']} "
            f"{span['duration']:.3f}s" + (f"  [{label}]" if label else "")
        )
        for child in span.get("children", ()):
            render(child, depth + 1)

    for root in summary["spans"]:
        render(root, 0)
    return "\n".join(lines)


def format_figure_comparison(
    experiment_id: str,
    title: str,
    paper: Dict[str, Dict[str, float]],
    model: Dict[str, Dict[str, float]],
    simulated: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Side-by-side bar values for a figure reproduction."""
    lines = [f"== {experiment_id}: {title} ==", ""]
    peak = max(value for bars in paper.values() for value in bars.values())
    scale = 40.0 / peak if peak else 0.0
    for strategy in paper:
        lines.append(f"  {strategy}:")
        for action in paper[strategy]:
            paper_value = paper[strategy][action]
            model_value = model[strategy][action]
            entry = (
                f"    {action:<7} paper {paper_value:>9.2f}s"
                f"  model {model_value:>9.2f}s"
            )
            if simulated is not None:
                entry += f"  simulated {simulated[strategy][action]:>9.2f}s"
            bar = "#" * max(1, int(round(model_value * scale)))
            lines.append(entry + "  " + bar)
    lines.append("")
    return "\n".join(lines)
