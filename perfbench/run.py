#!/usr/bin/env python3
"""PDM action benchmark.

    python3 perfbench/run.py --workload nav_late --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs one seeded closed-loop workload (``nav_late``, ``recursive`` or
``eco_session``) against the repository's stack, checks every output,
prints each metric with its unit and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the metrics are the per-layer ones of a traced run.
``--workload all`` runs every workload, each in its own process.  Exits
non-zero when a check fails, or when the repository's ``src`` tree is
missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("nav_late", "recursive", "eco_session")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repository sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve())]
            command += ["--workload", workload, "--seed", str(args.seed)]
            command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(command, check=False).returncode)
        return status
    sys.path[:0] = [str(SRC), str(HERE)]
    from pdmbench.measure import run

    result = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        out_dir=HERE / "out",
    )
    for line in result.lines():
        print(line)
    print(json.dumps(result.summary()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
