"""Crash-chaos benchmark: seeded crash points under a live workload.

Sweeps the WAL crash-point grid — every append position under every
failure flavour (clean stop, torn final record, bit-flipped corrupt
tail) — through the deterministic crash-chaos simulator and audits the
two durability invariants per run: zero lost committed transactions and
zero resurrected uncommitted writes.

    python benchmarks/bench_crash.py --json BENCH_crash.json

``--smoke`` runs one fixed-seed crash cell twice (byte-identical
reports required) plus a reduced sweep — the CI gate for the recovery
subsystem.  The full mode sweeps >= 50 crash points and additionally
re-runs a sample cell to assert byte-identical reports per seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.errors import DurabilityError  # noqa: E402
from repro.sim import (  # noqa: E402
    CrashConfig,
    CrashChaosSim,
    report_json,
    run_crash_sweep,
)

SEED = 42

SMOKE_CONFIG = CrashConfig(crash_at_append=7, failure="torn", seed=SEED)


def print_table(summary: dict) -> None:
    header = (
        f"{'crash_at':>8s} {'failure':>8s} {'restarts':>8s} "
        f"{'acked':>6s} {'applied':>8s} {'sum':>5s} {'tail':>8s} "
        f"{'discarded':>9s}"
    )
    print(header)
    for run in summary["runs"]:
        print(
            f"{run['crash_at']:>8d} {run['failure']:>8s} "
            f"{run['restarts']:>8d} {run['acked']:>6d} "
            f"{run['applied']:>8d} {run['counter_sum']:>5d} "
            f"{str(run['tail_status']):>8s} {str(run['discarded']):>9s}"
        )
    print(
        f"{summary['profiles']} profiles, seed {summary['seed']}, "
        f"invariants held: {summary['all_invariants_held']}"
    )


def determinism_check(config: CrashConfig) -> list:
    """Two runs of one cell must produce byte-identical reports."""
    first = CrashChaosSim(config).run()
    second = CrashChaosSim(config).run()
    failures = []
    if report_json(first) != report_json(second):
        failures.append(
            "same-seed crash reports differ — recovery is not deterministic"
        )
    if first["lost_committed"]:
        failures.append(f"lost committed txns: {first['lost_committed']}")
    if first["resurrected"]:
        failures.append(f"resurrected increments: {first['resurrected']}")
    if not first["final_recovery_fixpoint"]:
        failures.append("final recovery is not a fixpoint")
    if not first["crash"]["occurred"]:
        failures.append("crash point never fired — proved nothing")
    print(
        f"cell crash@{config.crash_at_append}-{config.failure}: "
        f"schedule hash {first['schedule']['hash']}"
    )
    print(
        f"steps={first['schedule']['steps']} restarts={first['restarts']} "
        f"acked={first['acked_txns']} applied={first['applied_txns']} "
        f"tail={first['crash_recovery'].get('tail_status')} "
        f"discarded={first['crash_recovery'].get('txns_discarded')}"
    )
    return failures


def smoke() -> int:
    """Fixed-seed gate: one cell twice byte-identically, plus a reduced
    sweep covering all three failure flavours."""
    failures = determinism_check(SMOKE_CONFIG)
    try:
        summary = run_crash_sweep(seed=SEED, max_crash_at=4)
    except DurabilityError as error:
        failures.append(str(error))
    else:
        print(
            f"reduced sweep: {summary['profiles']} profiles, "
            f"invariants held: {summary['all_invariants_held']}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seed", type=int, default=SEED, help="base seed for the sweep"
    )
    parser.add_argument(
        "--max-crash-at",
        type=int,
        default=17,
        help="sweep crash points 1..N under each failure flavour",
    )
    parser.add_argument(
        "--clients", type=int, default=3, help="clients per run"
    )
    parser.add_argument(
        "--txns", type=int, default=3, help="transactions per client"
    )
    parser.add_argument("--json", metavar="PATH", help="write the summary")
    parser.add_argument(
        "--smoke", action="store_true", help="CI determinism gate"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()

    failures = determinism_check(
        CrashConfig(
            clients=args.clients,
            txns_per_client=args.txns,
            crash_at_append=7,
            failure="corrupt",
            seed=args.seed,
        )
    )
    try:
        summary = run_crash_sweep(
            seed=args.seed,
            max_crash_at=args.max_crash_at,
            clients=args.clients,
            txns_per_client=args.txns,
        )
    except DurabilityError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print_table(summary)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
