"""Golden schedule hashes and report digests of the seeded smoke cells.

Two same-seed runs agreeing with each other proves determinism, not
stability: a change that reorders a schedule still agrees with itself.
These pins fix the exact bytes every smoke cell produces, so a refactor
of the simulators must reproduce each schedule and each report byte for
byte.

The cells and the simulator entry points are taken from the benchmark
scripts themselves, so each smoke cell stays defined in one place.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
from types import ModuleType

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _bench(name: str) -> ModuleType:
    spec = importlib.util.spec_from_file_location(
        f"_golden_{name}", BENCHMARKS / f"{name}.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


bench_contention = _bench("bench_contention")
bench_crash = _bench("bench_crash")
bench_mvcc = _bench("bench_mvcc")


def _contention_smoke() -> dict:
    return bench_contention.ContentionSim(bench_contention.SMOKE_CONFIG).run()


def _crash_smoke() -> dict:
    return bench_crash.CrashChaosSim(bench_crash.SMOKE_CONFIG).run()


def _mvcc_smoke(mvcc: bool) -> dict:
    config = bench_mvcc.ContentionConfig(mvcc=mvcc, **bench_mvcc.SMOKE_KWARGS)
    return bench_mvcc.ContentionSim(config).run()


#: (cell, run, report_json, schedule hash prefix, report digest prefix)
GOLDEN = [
    (
        "contention-smoke",
        _contention_smoke,
        bench_contention.report_json,
        "e760ef7dac305190",
        "31587f0d3d0554ef",
    ),
    (
        "crash-smoke",
        _crash_smoke,
        bench_crash.report_json,
        "8e8313572c2e1e5f",
        "5ac6db643e982cef",
    ),
    (
        "mvcc-smoke-2pl",
        lambda: _mvcc_smoke(False),
        bench_mvcc.report_json,
        "a0c831385e5ef35c",
        "679a991b2b7d2157",
    ),
    (
        "mvcc-smoke-mvcc",
        lambda: _mvcc_smoke(True),
        bench_mvcc.report_json,
        "a5cf8dfd6590654d",
        "d21822a0fd60a41e",
    ),
]


@pytest.mark.parametrize(
    "run, render, schedule_hash, report_digest",
    [cell[1:] for cell in GOLDEN],
    ids=[cell[0] for cell in GOLDEN],
)
def test_smoke_cell_is_byte_identical(run, render, schedule_hash, report_digest):
    report = run()
    assert report["schedule"]["hash"][:16] == schedule_hash
    assert _digest(render(report)) == report_digest


def test_full_crash_sweep_summary_is_byte_identical():
    summary = bench_crash.run_crash_sweep(seed=42)
    assert summary["profiles"] == 51
    assert (
        _digest(json.dumps(summary, sort_keys=True, indent=2))
        == "cbd3df6c04f785fa"
    )
