"""Contention benchmark: mixed expand/check-out workload under 2PL.

Sweeps client count and conflict rate through the deterministic
contention simulator and prints throughput, the latency distribution and
the deadlock/abort/retry accounting per cell:

    python benchmarks/bench_contention.py --json BENCH_contention.json

``--smoke`` runs one fixed-seed cell twice and fails unless the two
reports (schedule hash included) are byte-identical and no update was
lost — the CI determinism gate for the concurrency subsystem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.sim import (  # noqa: E402
    ContentionConfig,
    ContentionSim,
    report_json,
)

SEED = 42

SMOKE_CONFIG = ContentionConfig(
    clients=4, ops_per_client=8, conflict_rate=0.7, seed=SEED
)


def run_cell(clients: int, conflict_rate: float, seed: int, ops: int) -> dict:
    config = ContentionConfig(
        clients=clients,
        ops_per_client=ops,
        conflict_rate=conflict_rate,
        seed=seed,
    )
    return ContentionSim(config).run()


def sweep(client_counts, conflict_rates, seed: int, ops: int) -> list:
    cells = []
    for clients in client_counts:
        for conflict_rate in conflict_rates:
            cells.append(run_cell(clients, conflict_rate, seed, ops))
    return cells


def print_table(cells) -> None:
    header = (
        f"{'clients':>7s} {'conflict':>8s} {'ops/s':>8s} "
        f"{'p50 s':>8s} {'p95 s':>8s} {'p99 s':>8s} "
        f"{'waits':>6s} {'dlocks':>6s} {'restarts':>8s} {'lost':>5s}"
    )
    print(header)
    for cell in cells:
        totals = cell["totals"]
        latency = cell["latency_s"]
        print(
            f"{cell['config']['clients']:>7d} "
            f"{cell['config']['conflict_rate']:>8.2f} "
            f"{cell['throughput_ops_per_s']:>8.3f} "
            f"{latency['p50']:>8.3f} {latency['p95']:>8.3f} "
            f"{latency['p99']:>8.3f} "
            f"{totals['write_retries'] + totals['read_retries']:>6d} "
            f"{totals['deadlock_aborts']:>6d} "
            f"{totals['txn_restarts']:>8d} "
            f"{cell['lost_updates']:>5d}"
        )


def smoke() -> int:
    """Fixed-seed determinism gate: two runs, byte-identical reports,
    zero lost updates, and at least one conflict actually exercised."""
    first = ContentionSim(SMOKE_CONFIG).run()
    second = ContentionSim(SMOKE_CONFIG).run()
    failures = []
    if report_json(first) != report_json(second):
        failures.append("same-seed reports differ — simulator is not deterministic")
    if first["schedule"]["hash"] != second["schedule"]["hash"]:
        failures.append("same-seed schedule hashes differ")
    if first["lost_updates"] != 0:
        failures.append(f"{first['lost_updates']} updates lost under contention")
    conflicts = (
        first["totals"]["write_retries"]
        + first["totals"]["read_retries"]
        + first["totals"]["deadlock_aborts"]
    )
    if conflicts == 0:
        failures.append("smoke cell saw no lock conflicts — proved nothing")
    print(f"schedule hash: {first['schedule']['hash']}")
    print(
        f"steps={first['schedule']['steps']} "
        f"committed_increments={first['committed_increments']} "
        f"deadlocks={first['totals']['deadlock_aborts']} "
        f"restarts={first['totals']['txn_restarts']} "
        f"lost_updates={first['lost_updates']}"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=[2, 4, 8],
        help="client counts to sweep",
    )
    parser.add_argument(
        "--conflict-rates",
        type=float,
        nargs="+",
        default=[0.1, 0.5, 0.9],
        help="conflict rates to sweep",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--ops", type=int, default=8, help="operations per client"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the full report to PATH"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fixed-seed determinism gate instead of the sweep",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    cells = sweep(args.clients, args.conflict_rates, args.seed, args.ops)
    print_table(cells)
    failures = [
        f"clients={cell['config']['clients']} "
        f"conflict={cell['config']['conflict_rate']}: "
        f"{cell['lost_updates']} lost updates"
        for cell in cells
        if cell["lost_updates"] != 0
    ]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(cells, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
