"""Perf smoke runner: every expand strategy over one WAN cell.

Runs the four multi-level-expand strategies end to end on the batching
ablation scenario and prints (and optionally JSON-dumps) the simulated
response time, round trips, wire traffic and plan-cache behaviour per
strategy — a machine-readable heartbeat for CI:

    python benchmarks/run_all.py --scale small --json BENCH_batching.json

Exits non-zero if the headline invariants regress (batched expand must
do exactly one round trip per level and sit between the navigational
and recursive strategies).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_engine_micro import (  # noqa: E402
    planner_mode_failures,
    run_planner_modes,
)

from repro.bench.measure import measure_action  # noqa: E402
from repro.bench.workload import build_scenario  # noqa: E402
from repro.model.parameters import (  # noqa: E402
    NetworkParameters,
    TreeParameters,
)
from repro.model.response_time import Action, Strategy, predict  # noqa: E402
from repro.network.faults import (  # noqa: E402
    CHAOS_PRESETS,
    JUMBO_TRUNCATING_WAN,
    PERFECT,
    RetryPolicy,
)
from repro.network.profiles import WAN_512  # noqa: E402
from repro.pdm.operations import ExpandStrategy  # noqa: E402

SEED = 42

#: One frontier statement per node type rides each level's batch.
BATCH_QUERY_PACKETS = 2

STRATEGIES = (
    Strategy.LATE,
    Strategy.EARLY,
    Strategy.BATCHED,
    Strategy.RECURSIVE,
)

EXPAND_STRATEGIES = {
    Strategy.LATE: ExpandStrategy.NAVIGATIONAL_LATE,
    Strategy.EARLY: ExpandStrategy.NAVIGATIONAL_EARLY,
    Strategy.BATCHED: ExpandStrategy.EXPAND_BATCHED,
    Strategy.RECURSIVE: ExpandStrategy.RECURSIVE_EARLY,
}

FAULT_PROFILES = {
    profile.name: profile
    for profile in (PERFECT, JUMBO_TRUNCATING_WAN) + CHAOS_PRESETS
}


def run_chaos(tree, scenario, profile, fault_seed: int) -> dict:
    """Re-run every strategy resiliently under *profile* and check each
    converges to a tree byte-identical to its own zero-fault run."""
    root = scenario.product.root_obid
    root_attrs = scenario.product.root_attributes()
    reference = {
        strategy: scenario.client.multi_level_expand(
            root, EXPAND_STRATEGIES[strategy], root_attrs=root_attrs
        ).tree.canonical_bytes()
        for strategy in STRATEGIES
    }
    results = {}
    for strategy in STRATEGIES:
        chaos_scenario = build_scenario(
            tree,
            WAN_512,
            seed=SEED,
            product=scenario.product,
            fault_profile=profile,
            fault_seed=fault_seed,
            retry_policy=RetryPolicy(),
        )
        result = chaos_scenario.client.resilient_multi_level_expand(
            root, EXPAND_STRATEGIES[strategy], root_attrs=root_attrs
        )
        stats = chaos_scenario.link.stats
        client_stats = chaos_scenario.client.statistics
        converged = (
            result.tree is not None
            and result.tree.canonical_bytes() == reference[strategy]
        )
        # The recursive fallback legitimately returns the batched tree
        # shape (same visible nodes through the other pipeline).
        if not converged and strategy is Strategy.RECURSIVE:
            converged = (
                client_stats["recursive_fallbacks"] > 0
                and result.tree is not None
                and result.tree.canonical_bytes()
                == reference[Strategy.BATCHED]
            )
        results[strategy.value] = {
            "simulated_ms": round(result.seconds * 1000.0, 3),
            "converged": converged,
            "drops": stats.drops,
            "corrupt_frames": stats.corrupt_frames,
            "timeouts": stats.timeouts,
            "retries": stats.retries,
            "backoff_ms": round(stats.backoff_seconds * 1000.0, 3),
            "expand_resumes": client_stats["expand_resumes"],
            "recursive_fallbacks": client_stats["recursive_fallbacks"],
        }
    return {
        "profile": profile.name,
        "fault_seed": fault_seed,
        "strategies": results,
    }


def run_trace(tree, scenario, profile, fault_seed: int) -> dict:
    """One fully traced resilient batched expand under *profile*.

    Returns the :func:`repro.bench.report.trace_summary` dict extended
    with a ``decomposition`` entry proving the observability invariant:
    the component seconds summed over the root span's subtree equal the
    action's measured response time exactly, and a ``counters`` entry
    read from the counters' owners: the server's STATS view plus the
    client's retries and timeouts on the link.
    """
    from repro.bench.report import trace_summary
    from repro.obs import TraceRecorder

    recorder = TraceRecorder()
    traced = build_scenario(
        tree,
        WAN_512,
        seed=SEED,
        product=scenario.product,
        fault_profile=None if profile.perfect else profile,
        fault_seed=fault_seed,
        retry_policy=None if profile.perfect else RetryPolicy(),
        recorder=recorder,
    )
    result = traced.client.resilient_multi_level_expand(
        scenario.product.root_obid,
        ExpandStrategy.EXPAND_BATCHED,
        root_attrs=scenario.product.root_attributes(),
    )
    summary = trace_summary(recorder)
    root = recorder.find_root("pdm.resilient_multi_level_expand")
    components = root.total_components()
    component_sum = sum(components.values())
    summary["profile"] = profile.name
    summary["fault_seed"] = fault_seed
    summary["counters"] = {
        **traced.server.counters(),
        "retries": traced.link.stats.retries,
        "timeouts": traced.link.stats.timeouts,
    }
    summary["decomposition"] = {
        "action_seconds": result.seconds,
        "root_seconds": root.duration,
        "component_sum": component_sum,
        "exact": abs(component_sum - root.duration)
        <= 1e-9 * max(1.0, abs(root.duration)),
    }
    return summary


def lint_summary() -> dict:
    """Static-analyzer counters for the report: the bench queries must
    stay lint-clean, and a regression shows up here before it shows up
    as a slow number."""
    from collections import Counter

    from repro.analysis import Severity, analyze_sql
    from repro.analysis.templates import template_queries

    by_severity = Counter()
    clean = 0
    templates = template_queries()
    for _name, sql in templates:
        findings = analyze_sql(sql)
        if not findings:
            clean += 1
        for finding in findings:
            by_severity[finding.severity.name] += 1
    return {
        "templates": len(templates),
        "clean_templates": clean,
        "findings": {name: by_severity[name] for name in sorted(by_severity)},
        "gate_ok": by_severity[Severity.WARNING.name] == 0
        and by_severity[Severity.ERROR.name] == 0,
    }


def run_contention_smoke() -> dict:
    """Fixed-seed contention smoke: two identical runs of the mixed
    expand/check-out workload must agree byte for byte and lose no
    update."""
    from bench_contention import SMOKE_CONFIG

    from repro.sim import ContentionSim, report_json

    first = ContentionSim(SMOKE_CONFIG).run()
    second = ContentionSim(SMOKE_CONFIG).run()
    return {
        "schedule_hash": first["schedule"]["hash"],
        "steps": first["schedule"]["steps"],
        "deterministic": report_json(first) == report_json(second),
        "lost_updates": first["lost_updates"],
        "committed_increments": first["committed_increments"],
        "deadlock_aborts": first["totals"]["deadlock_aborts"],
        "txn_restarts": first["totals"]["txn_restarts"],
        "lock_waits": first["totals"]["write_retries"]
        + first["totals"]["read_retries"],
        "throughput_ops_per_s": first["throughput_ops_per_s"],
    }


def run_mvcc_smoke() -> dict:
    """Fixed-seed MVCC smoke: the audit_eco scenario (READ ONLY auditors
    racing ECO write bursts) under 2PL-only and MVCC builds with the
    same seed, gated on bench_mvcc's acceptance criteria — zero RO lock
    waits/aborts and strictly lower expand p99 under MVCC."""
    from bench_mvcc import SMOKE_KWARGS, check_pair, compare

    from repro.sim import ContentionConfig, ContentionSim, report_json

    locking = ContentionSim(ContentionConfig(mvcc=False, **SMOKE_KWARGS)).run()
    mvcc = ContentionSim(ContentionConfig(mvcc=True, **SMOKE_KWARGS)).run()
    again = ContentionSim(ContentionConfig(mvcc=True, **SMOKE_KWARGS)).run()
    pair = {"2pl": locking, "mvcc": mvcc, "deltas": compare(locking, mvcc)}
    return {
        "deterministic": report_json(mvcc) == report_json(again),
        "schedule_hash_2pl": locking["schedule"]["hash"],
        "schedule_hash_mvcc": mvcc["schedule"]["hash"],
        "ro_lock_waits_2pl": locking["totals"]["ro_lock_waits"],
        "ro_lock_waits_mvcc": mvcc["totals"]["ro_lock_waits"],
        "ro_aborts_2pl": locking["totals"]["ro_aborts"],
        "ro_aborts_mvcc": mvcc["totals"]["ro_aborts"],
        "expand_p99_2pl": locking["expand_latency_s"]["p99"],
        "expand_p99_mvcc": mvcc["expand_latency_s"]["p99"],
        "snapshot_reads": mvcc["mvcc"]["snapshot_reads"],
        "versions_created": mvcc["mvcc"]["versions_created"],
        "versions_gc": mvcc["mvcc"]["versions_gc"],
        "chains": mvcc["mvcc"]["chains"],
        "lost_updates": locking["lost_updates"] + mvcc["lost_updates"],
        "gate_failures": check_pair(pair),
    }


#: Schema tag of the perf-trajectory file; bump when the layout changes.
TRAJECTORY_SCHEMA = "bench-trajectory/v2"


def run_crash_smoke() -> dict:
    """Fixed-seed crash-chaos smoke: one torn-tail crash cell run twice
    (byte-identical reports required) plus a reduced crash-point sweep
    auditing the durability invariants under all three failure
    flavours."""
    from bench_crash import SMOKE_CONFIG

    from repro.errors import DurabilityError
    from repro.sim import CrashChaosSim, report_json, run_crash_sweep

    first = CrashChaosSim(SMOKE_CONFIG).run()
    second = CrashChaosSim(SMOKE_CONFIG).run()
    try:
        sweep = run_crash_sweep(seed=SEED, max_crash_at=4)
        sweep_ok = sweep["all_invariants_held"]
        sweep_profiles = sweep["profiles"]
        sweep_error = None
    except DurabilityError as error:
        sweep_ok = False
        sweep_profiles = 0
        sweep_error = str(error)
    return {
        "schedule_hash": first["schedule"]["hash"],
        "steps": first["schedule"]["steps"],
        "deterministic": report_json(first) == report_json(second),
        "crash_occurred": first["crash"]["occurred"],
        "restarts": first["restarts"],
        "lost_committed": len(first["lost_committed"]),
        "resurrected": first["resurrected"],
        "fixpoint": first["final_recovery_fixpoint"],
        "tail_status": first["crash_recovery"].get("tail_status"),
        "sweep_profiles": sweep_profiles,
        "sweep_ok": sweep_ok,
        "sweep_error": sweep_error,
    }


def trajectory_report(report: dict) -> dict:
    """The perf-trajectory slice written by ``--bench-trajectory``: the
    planner-mode timings plus the MVCC and crash smokes' seeded
    verdicts and schedule hashes."""
    trajectory = {
        "schema": TRAJECTORY_SCHEMA,
        "scale": report["scale"],
    }
    planner_modes = report.get("planner_modes")
    if planner_modes:
        trajectory["planner_modes"] = {
            name: {
                "rule_s": entry["rule_s"],
                "cost_s": entry["cost_s"],
                "ratio": entry["ratio"],
            }
            for name, entry in planner_modes.items()
        }
    bench_mvcc = report.get("bench_mvcc")
    if bench_mvcc:
        trajectory["mvcc"] = {
            "ro_lock_waits_2pl": bench_mvcc["ro_lock_waits_2pl"],
            "ro_lock_waits_mvcc": bench_mvcc["ro_lock_waits_mvcc"],
            "ro_aborts_2pl": bench_mvcc["ro_aborts_2pl"],
            "ro_aborts_mvcc": bench_mvcc["ro_aborts_mvcc"],
            "expand_p99_2pl": bench_mvcc["expand_p99_2pl"],
            "expand_p99_mvcc": bench_mvcc["expand_p99_mvcc"],
            "schedule_hash_mvcc": bench_mvcc["schedule_hash_mvcc"],
        }
    crash = report.get("crash")
    if crash:
        trajectory["crash"] = {
            "schedule_hash": crash["schedule_hash"],
            "sweep_profiles": crash["sweep_profiles"],
            "lost_committed": crash["lost_committed"],
            "resurrected": crash["resurrected"],
        }
    return trajectory


def run(scale: str, fault_profile=None, fault_seed: int = 1, trace_profile=None) -> dict:
    if scale == "small":
        # Deep enough that the padded IN-list shapes repeat and the
        # plan-cache invariant stays checkable.
        tree = TreeParameters(depth=4, branching=3, visibility=0.6)
    else:
        tree = TreeParameters(depth=5, branching=4, visibility=0.5)
    network = NetworkParameters(
        latency_s=WAN_512.latency_s, dtr_kbit_s=WAN_512.dtr_kbit_s
    )
    scenario = build_scenario(tree, WAN_512, seed=SEED)
    results = {}
    for strategy in STRATEGIES:
        measured = measure_action(scenario, Action.MLE, strategy)
        packets = BATCH_QUERY_PACKETS if strategy is Strategy.BATCHED else 1
        model = predict(
            Action.MLE, strategy, tree, network, query_packets=packets
        )
        results[strategy.value] = {
            "simulated_ms": round(measured.seconds * 1000.0, 3),
            "model_ms": round(model.total_seconds * 1000.0, 3),
            "round_trips": measured.round_trips,
            "statements": measured.statements,
            "plan_cache_hits": measured.plan_cache_hits,
            "payload_bytes": measured.payload_bytes,
            "wire_bytes": measured.wire_bytes,
            "result_nodes": measured.result_nodes,
        }
    opcode_traffic = dict(scenario.link.stats.opcode_messages)
    lint = lint_summary()
    report = {
        "scale": scale,
        "tree": {
            "depth": tree.depth,
            "branching": tree.branching,
            "visibility": tree.visibility,
        },
        "network": {
            "latency_s": network.latency_s,
            "dtr_kbit_s": network.dtr_kbit_s,
        },
        "strategies": results,
        "opcode_messages": opcode_traffic,
        "lint": lint,
        "contention": run_contention_smoke(),
        "bench_mvcc": run_mvcc_smoke(),
        "crash": run_crash_smoke(),
        "planner_modes": run_planner_modes(repeats=2 if scale == "small" else 3),
    }
    if fault_profile is not None and not fault_profile.perfect:
        report["faults"] = run_chaos(tree, scenario, fault_profile, fault_seed)
    if trace_profile is not None:
        report["trace"] = run_trace(tree, scenario, trace_profile, fault_seed)
    return report


def check(report: dict) -> list:
    """The smoke invariants; returns a list of failure descriptions."""
    failures = []
    strategies = report["strategies"]
    batched = strategies[Strategy.BATCHED.value]
    early = strategies[Strategy.EARLY.value]
    recursive = strategies[Strategy.RECURSIVE.value]
    if batched["round_trips"] != report["tree"]["depth"]:
        failures.append(
            f"batched expand took {batched['round_trips']} round trips, "
            f"expected depth={report['tree']['depth']}"
        )
    if not (
        recursive["simulated_ms"]
        < batched["simulated_ms"]
        < early["simulated_ms"]
    ):
        failures.append("batched is not between recursive and early")
    if batched["plan_cache_hits"] <= 0:
        failures.append("batched expand produced no plan-cache hits")
    sizes = {entry["result_nodes"] for entry in strategies.values()}
    if len(sizes) != 1:
        failures.append(f"strategies disagree on tree size: {sizes}")
    faults = report.get("faults")
    if faults:
        for name, entry in faults["strategies"].items():
            if not entry["converged"]:
                failures.append(
                    f"{name} under {faults['profile']} did not converge to "
                    f"its zero-fault tree"
                )
        injected = sum(
            entry["drops"] + entry["corrupt_frames"]
            for entry in faults["strategies"].values()
        )
        if injected == 0:
            failures.append(
                f"{faults['profile']} (seed {faults['fault_seed']}) "
                f"injected no faults — chaos smoke proved nothing"
            )
    lint = report.get("lint")
    if lint and not lint["gate_ok"]:
        failures.append(
            f"bench query templates are not lint-clean: {lint['findings']}"
        )
    contention = report.get("contention")
    if contention:
        if not contention["deterministic"]:
            failures.append(
                "contention smoke: same-seed runs are not byte-identical"
            )
        if contention["lost_updates"] != 0:
            failures.append(
                f"contention smoke lost {contention['lost_updates']} updates"
            )
        if contention["lock_waits"] + contention["deadlock_aborts"] == 0:
            failures.append(
                "contention smoke saw no lock conflicts — proved nothing"
            )
    bench_mvcc = report.get("bench_mvcc")
    if bench_mvcc:
        if not bench_mvcc["deterministic"]:
            failures.append(
                "bench_mvcc: same-seed MVCC runs are not byte-identical"
            )
        failures.extend(
            f"bench_mvcc: {failure}"
            for failure in bench_mvcc["gate_failures"]
        )
    crash = report.get("crash")
    if crash:
        if not crash["deterministic"]:
            failures.append(
                "crash smoke: same-seed runs are not byte-identical"
            )
        if not crash["crash_occurred"]:
            failures.append("crash smoke: crash point never fired")
        if crash["lost_committed"]:
            failures.append(
                f"crash smoke lost {crash['lost_committed']} committed txns"
            )
        if crash["resurrected"]:
            failures.append(
                f"crash smoke resurrected {crash['resurrected']} "
                f"uncommitted increments"
            )
        if not crash["fixpoint"]:
            failures.append("crash smoke: final recovery is not a fixpoint")
        if not crash["sweep_ok"]:
            failures.append(
                f"crash sweep violated durability invariants: "
                f"{crash['sweep_error']}"
            )
    planner_modes = report.get("planner_modes")
    if planner_modes:
        # The costed planner may only deviate from the rule-based one
        # where the cost model says it should win, so its wall time must
        # stay within 2x on every micro shape.
        failures.extend(planner_mode_failures(planner_modes))
    trace = report.get("trace")
    if trace:
        decomposition = trace["decomposition"]
        if not decomposition["exact"]:
            failures.append(
                f"trace decomposition leaks simulated time: components sum "
                f"to {decomposition['component_sum']!r} but the root span "
                f"lasted {decomposition['root_seconds']!r}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="paper",
        help="small shrinks the tree for quick CI smoke runs",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the machine-readable report to PATH",
    )
    parser.add_argument(
        "--fault-profile",
        choices=sorted(FAULT_PROFILES),
        help="additionally re-run every strategy resiliently under this "
        "chaos preset and require byte-identical convergence",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=1,
        help="seed for the deterministic fault plan (default: 1)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="run one fully traced resilient batched expand (under "
        "--fault-profile, default flaky-wan), write the span-tree JSON "
        "export to PATH and print the time decomposition",
    )
    parser.add_argument(
        "--bench-trajectory",
        metavar="PATH",
        help="also write the perf-trajectory slice (planner modes, MVCC "
        "and crash smoke hashes) to PATH",
    )
    args = parser.parse_args(argv)
    report = run(
        args.scale,
        fault_profile=(
            FAULT_PROFILES[args.fault_profile] if args.fault_profile else None
        ),
        fault_seed=args.fault_seed,
        trace_profile=(
            FAULT_PROFILES[args.fault_profile or "flaky-wan"]
            if args.trace
            else None
        ),
    )
    header = (
        f"{'strategy':<12s} {'sim ms':>10s} {'model ms':>10s} "
        f"{'trips':>6s} {'stmts':>6s} {'cache':>6s} {'wire B':>10s}"
    )
    print(header)
    for name, entry in report["strategies"].items():
        print(
            f"{name:<12s} {entry['simulated_ms']:>10.1f} "
            f"{entry['model_ms']:>10.1f} {entry['round_trips']:>6d} "
            f"{entry['statements']:>6d} {entry['plan_cache_hits']:>6d} "
            f"{entry['wire_bytes']:>10.0f}"
        )
    faults = report.get("faults")
    if faults:
        print(
            f"\nchaos: {faults['profile']} "
            f"(fault seed {faults['fault_seed']})"
        )
        print(
            f"{'strategy':<12s} {'sim ms':>10s} {'drops':>6s} "
            f"{'retry':>6s} {'t/o':>5s} {'resume':>7s} {'conv':>5s}"
        )
        for name, entry in faults["strategies"].items():
            print(
                f"{name:<12s} {entry['simulated_ms']:>10.1f} "
                f"{entry['drops']:>6d} {entry['retries']:>6d} "
                f"{entry['timeouts']:>5d} {entry['expand_resumes']:>7d} "
                f"{'yes' if entry['converged'] else 'NO':>5s}"
            )
    contention = report.get("contention")
    if contention:
        print(
            f"\ncontention smoke: hash={contention['schedule_hash'][:16]} "
            f"steps={contention['steps']} "
            f"deadlocks={contention['deadlock_aborts']} "
            f"restarts={contention['txn_restarts']} "
            f"lost={contention['lost_updates']} "
            f"deterministic={'yes' if contention['deterministic'] else 'NO'}"
        )
    trace = report.get("trace")
    if trace:
        from repro.bench.report import format_trace_summary

        print(
            f"\ntraced expand under {trace['profile']} "
            f"(fault seed {trace['fault_seed']}):"
        )
        print(format_trace_summary(trace, max_depth=2))
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=2, sort_keys=True)
        print(f"wrote {args.trace}")
    bench_mvcc = report.get("bench_mvcc")
    if bench_mvcc:
        print(
            f"\nmvcc smoke (audit_eco): "
            f"ro_waits 2pl={bench_mvcc['ro_lock_waits_2pl']} "
            f"mvcc={bench_mvcc['ro_lock_waits_mvcc']} "
            f"ro_aborts 2pl={bench_mvcc['ro_aborts_2pl']} "
            f"mvcc={bench_mvcc['ro_aborts_mvcc']} "
            f"expand_p99 2pl={bench_mvcc['expand_p99_2pl']:.3f}s "
            f"mvcc={bench_mvcc['expand_p99_mvcc']:.3f}s "
            f"deterministic={'yes' if bench_mvcc['deterministic'] else 'NO'}"
        )
    crash = report.get("crash")
    if crash:
        print(
            f"\ncrash smoke: hash={crash['schedule_hash'][:16]} "
            f"steps={crash['steps']} restarts={crash['restarts']} "
            f"tail={crash['tail_status']} "
            f"lost={crash['lost_committed']} "
            f"resurrected={crash['resurrected']} "
            f"sweep={crash['sweep_profiles']} profiles "
            f"deterministic={'yes' if crash['deterministic'] else 'NO'}"
        )
    planner_modes = report.get("planner_modes")
    if planner_modes:
        from bench_engine_micro import format_planner_modes

        print("\nplanner modes (rule vs cost-based after ANALYZE):")
        print(format_planner_modes(planner_modes))
    failures = check(report)
    report["ok"] = not failures
    if args.bench_trajectory:
        with open(args.bench_trajectory, "w", encoding="utf-8") as handle:
            json.dump(trajectory_report(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.bench_trajectory}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
