"""MVCC benchmark: READ ONLY auditors racing ECO write bursts.

Runs the contention simulator's ``audit_eco`` scenario twice with the
same seed — once on a plain strict-2PL build and once with the MVCC
snapshot-read subsystem enabled — and compares lock waits, aborts and
the multi-level-expand latency distribution between the two builds:

    python benchmarks/bench_mvcc.py --json BENCH_mvcc.json

``--smoke`` runs one fixed-seed pair and fails unless

* both builds are deterministic (byte-identical same-seed reports),
* the 2PL build actually contends (RO lock waits > 0, else the cell
  proves nothing),
* the MVCC build shows ZERO lock waits and ZERO aborts for read-only
  transactions,
* the MVCC build's p99 multi-level-expand latency is strictly lower,
* neither build loses an update (the zero-lost-update audit), and
* MVCC garbage collection drains every version chain by the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.sim import (  # noqa: E402
    ContentionConfig,
    ContentionSim,
    report_json,
)

SEED = 42

#: One smoke cell: enough clients for auditor/writer overlap, long
#: enough transactions for the 2PL build to park and deadlock.
SMOKE_KWARGS = dict(
    clients=6,
    ops_per_client=6,
    conflict_rate=0.5,
    seed=SEED,
    scenario="audit_eco",
)


def run_pair(seed: int, clients: int, ops: int) -> dict:
    """Run the same audit_eco cell under 2PL-only and MVCC."""
    kwargs = dict(
        clients=clients,
        ops_per_client=ops,
        conflict_rate=0.5,
        seed=seed,
        scenario="audit_eco",
    )
    locking = ContentionSim(ContentionConfig(mvcc=False, **kwargs)).run()
    mvcc = ContentionSim(ContentionConfig(mvcc=True, **kwargs)).run()
    return {"2pl": locking, "mvcc": mvcc, "deltas": compare(locking, mvcc)}


def compare(locking: dict, mvcc: dict) -> dict:
    """Headline deltas between the two builds of one cell."""
    lt, mt = locking["totals"], mvcc["totals"]
    lx, mx = locking["expand_latency_s"], mvcc["expand_latency_s"]
    return {
        "ro_lock_waits": {"2pl": lt["ro_lock_waits"], "mvcc": mt["ro_lock_waits"]},
        "ro_aborts": {"2pl": lt["ro_aborts"], "mvcc": mt["ro_aborts"]},
        "expand_p50_s": {"2pl": lx["p50"], "mvcc": mx["p50"]},
        "expand_p95_s": {"2pl": lx["p95"], "mvcc": mx["p95"]},
        "expand_p99_s": {"2pl": lx["p99"], "mvcc": mx["p99"]},
        "elapsed_s": {"2pl": locking["elapsed_s"], "mvcc": mvcc["elapsed_s"]},
    }


def check_pair(pair: dict) -> List[str]:
    """The acceptance gates for one 2PL/MVCC cell pair."""
    locking, mvcc = pair["2pl"], pair["mvcc"]
    failures = []
    if locking["totals"]["ro_lock_waits"] == 0:
        failures.append(
            "2PL build saw no read-only lock waits — cell proves nothing"
        )
    if mvcc["totals"]["ro_lock_waits"] != 0:
        failures.append(
            f"MVCC build saw {mvcc['totals']['ro_lock_waits']} read-only "
            f"lock waits (expected 0)"
        )
    if mvcc["totals"]["ro_aborts"] != 0:
        failures.append(
            f"MVCC build saw {mvcc['totals']['ro_aborts']} read-only "
            f"aborts (expected 0)"
        )
    p99_2pl = locking["expand_latency_s"]["p99"]
    p99_mvcc = mvcc["expand_latency_s"]["p99"]
    if p99_2pl is None or p99_mvcc is None:
        failures.append("missing expand latency percentiles")
    elif not p99_mvcc < p99_2pl:
        failures.append(
            f"MVCC expand p99 {p99_mvcc:.3f}s not below 2PL {p99_2pl:.3f}s"
        )
    for name, report in (("2PL", locking), ("MVCC", mvcc)):
        if report["lost_updates"] != 0:
            failures.append(f"{name} build lost {report['lost_updates']} updates")
    if mvcc["mvcc"]["chains"] != 0:
        failures.append(
            f"{mvcc['mvcc']['chains']} version chains survived GC "
            f"(expected 0 with no open snapshots)"
        )
    if mvcc["mvcc"]["snapshot_reads"] == 0:
        failures.append("MVCC build recorded no snapshot reads")
    return failures


def print_pair(pair: dict) -> None:
    print(
        f"{'':>12s} {'ro_waits':>8s} {'ro_aborts':>9s} "
        f"{'exp p50':>8s} {'exp p95':>8s} {'exp p99':>8s} {'lost':>5s}"
    )
    for name, report in (("2PL-only", pair["2pl"]), ("MVCC", pair["mvcc"])):
        totals = report["totals"]
        expand = report["expand_latency_s"]
        print(
            f"{name:>12s} {totals['ro_lock_waits']:>8d} "
            f"{totals['ro_aborts']:>9d} "
            f"{expand['p50']:>8.3f} {expand['p95']:>8.3f} "
            f"{expand['p99']:>8.3f} {report['lost_updates']:>5d}"
        )


def smoke() -> int:
    """Fixed-seed gate: determinism plus the MVCC acceptance criteria."""
    first = ContentionSim(ContentionConfig(mvcc=True, **SMOKE_KWARGS)).run()
    second = ContentionSim(ContentionConfig(mvcc=True, **SMOKE_KWARGS)).run()
    locking = ContentionSim(ContentionConfig(mvcc=False, **SMOKE_KWARGS)).run()
    locking2 = ContentionSim(ContentionConfig(mvcc=False, **SMOKE_KWARGS)).run()
    failures = []
    if report_json(first) != report_json(second):
        failures.append("same-seed MVCC reports differ — not deterministic")
    if report_json(locking) != report_json(locking2):
        failures.append("same-seed 2PL reports differ — not deterministic")
    pair = {"2pl": locking, "mvcc": first, "deltas": compare(locking, first)}
    failures.extend(check_pair(pair))
    print_pair(pair)
    print(f"2PL schedule hash:  {locking['schedule']['hash']}")
    print(f"MVCC schedule hash: {first['schedule']['hash']}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--clients", type=int, default=6, help="client count (half audit)"
    )
    parser.add_argument(
        "--ops", type=int, default=6, help="operations per client"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the full pair report to PATH"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fixed-seed acceptance gate instead of the sweep",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    pair = run_pair(args.seed, args.clients, args.ops)
    print_pair(pair)
    failures = check_pair(pair)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(pair, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
