"""Every workload at a tiny size, with its correctness checks."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.model.parameters import TreeParameters
from repro.pdm.operations import ExpandStrategy

from pdmbench.measure import END_TO_END, run, run_loop
from pdmbench.stack import (
    build_product,
    canonical,
    choose_product_seed,
    scenario_stack,
    visible_profile,
)
from pdmbench.trace import LAYER_METRICS
from pdmbench.workloads import WORKLOADS, Sizes, make_workload

TINY = Sizes(
    nav_tree=TreeParameters(depth=3, branching=3, visibility=0.7),
    recursive_tree=TreeParameters(depth=3, branching=3, visibility=0.8),
    eco_period=4,
    eco_updates=2,
)

#: Layers that only the durable ECO workload exercises.
WRITE_LAYERS = (
    "sqldb.storage.write_ms",
    "sqldb.storage.row_writes",
    "sqldb.mvcc.commit_ms",
    "sqldb.mvcc.versions_created",
    "sqldb.mvcc.snapshot_reads",
    "recovery.wal.ms",
    "recovery.wal.records",
    "recovery.wal.kb",
    "concurrency.locks.ms",
    "concurrency.locks.acquisitions",
)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("seed", [42, 7])
def test_untraced_run_passes_its_checks(name, seed):
    result = run(name, seed, seconds=0.05, trace=False, sizes=TINY)
    assert result.problems == []
    assert result.failed == 0
    summary = result.summary()
    assert summary["correct"] is True
    assert set(summary["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer(name):
    result = run(name, 3, seconds=0.05, trace=True, sizes=TINY)
    assert result.problems == []
    assert set(result.metrics) == set(LAYER_METRICS)
    for layer in WRITE_LAYERS:
        if name == "eco_session":
            assert result.metrics[layer] > 0, layer
        else:
            assert result.metrics[layer] == 0, layer
    assert (result.metrics["rules.evaluate.calls"] > 0) == (name == "nav_late")
    if name == "eco_session":
        assert result.metrics["sqldb.planner.calls"] >= 1
    assert 0 <= result.metrics["trace.unattributed_share"] < 1


def test_deterministic_figures_repeat_for_a_seed():
    first = run("eco_session", 5, seconds=0.05, trace=False, sizes=TINY)
    second = run("eco_session", 5, seconds=0.05, trace=False, sizes=TINY)
    for metric in ("sim_s_per_action", "round_trips_per_action", "payload_kb_per_action"):
        assert first.metrics[metric] == second.metrics[metric]


@pytest.mark.parametrize("name", ["nav_late", "eco_session"])
def test_checks_catch_a_wrong_output(name):
    workload = make_workload(name, 42, TINY)
    stack = workload.setup()
    workload.prepare(stack)
    if name == "nav_late":
        stack.state["reference"] = b"not the tree"
    else:
        stack.state["names"][stack.state["schedule"][0].audit_root] = "stale"
    loop = run_loop(workload, stack, 0, 1)
    assert loop.failed == 1 and loop.problems


def test_product_seed_keeps_the_workload_size():
    tree = Sizes().nav_tree
    assert choose_product_seed(tree, 42) == 42
    reference = visible_profile(tree, 42)
    for seed in (1, 2, 3):
        profile = visible_profile(tree, choose_product_seed(tree, seed))
        assert abs(sum(profile) - sum(reference)) <= 2
        assert abs(profile[-1] - reference[-1]) <= 1


def test_replayed_profile_matches_the_generator():
    tree = TINY.recursive_tree
    product = build_product(tree, 11)
    assert sum(visible_profile(tree, 11)) == len(product.visible_obids) - 1


def test_canonical_form_is_strategy_independent():
    product = build_product(TINY.recursive_tree, 4)
    stack = scenario_stack(product)
    client = stack.clients[0]
    root = product.root_obid
    attrs = product.root_attributes()
    trees = [
        client.multi_level_expand(root, strategy, root_attrs=attrs).tree
        for strategy in ExpandStrategy
    ]
    assert len({canonical(tree) for tree in trees}) == 1
    trees[0].children[0].attrs["weight"] = -1.0
    assert canonical(trees[0]) != canonical(trees[1])


def test_run_script_fails_without_the_sources(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text((bench / "run.py").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nav_late"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
