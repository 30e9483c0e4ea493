"""Percentile rule, metric names and the BENCHMARK.json contract."""

import json
import re
from pathlib import Path

import pytest

from pdmbench import speed
from pdmbench.measure import END_TO_END, percentile, supported_percentile, valid_name
from pdmbench.trace import LAYER_METRICS
from pdmbench.workloads import WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize(
    "samples, expected",
    [(1000, 90), (100, 90), (99, 89), (50, 80), (20, 50), (11, 9), (10, None), (1, None)],
)
def test_highest_percentile_with_ten_samples_beyond(samples, expected):
    assert supported_percentile(samples) == expected


def test_supported_percentile_leaves_ten_samples_above_it():
    for samples in range(11, 400):
        q = supported_percentile(samples)
        values = list(range(samples))
        value = percentile(values, q)
        assert sum(1 for v in values if v > value) >= 10
        if q < 90:
            above = percentile(values, q + 1)
            assert sum(1 for v in values if v > above) < 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0
    assert percentile(values, 1) == 1.0


def test_every_metric_name_is_valid():
    for name in list(END_TO_END) + list(LAYER_METRICS):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert valid_name(name), name


@pytest.mark.parametrize("name", ["", "_x", "a b", "a/b", "x" * 65, "ms\n"])
def test_invalid_names_are_rejected(name):
    assert not valid_name(name)


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workload.why) for name, workload in WORKLOADS.items()
    ]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_speed_factor_is_reference_over_a_window_median():
    assert speed.factors([speed.REFERENCE_MS * 2] * 4) == [0.5] * 4
    slow_then_fast = [20.0] * 10 + [5.0] * 10
    factors = speed.factors(slow_then_fast, radius=2)
    assert factors[0] == speed.REFERENCE_MS / 20.0
    assert factors[-1] == speed.REFERENCE_MS / 5.0
    spike = [speed.REFERENCE_MS] * 11
    spike[5] = 100.0
    assert speed.factors(spike) == [1.0] * 11


def test_run_script_lists_every_workload():
    import run

    assert run.WORKLOADS == tuple(WORKLOADS)
