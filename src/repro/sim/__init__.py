"""Seeded multi-client simulations of one PDM server.

The paper's setting is many worldwide clients sharing one PDM server
over slow links.  This package reproduces it deterministically:

* :mod:`repro.sim.harness` — the shared :class:`World` (one simulated
  clock, lock and session managers, a server, N WAN connections) and its
  seeded scheduler with a crash→restart step and a livelock guard;
* :mod:`repro.sim.contention` — the 2PL/MVCC contention workload
  (``mixed`` and ``audit_eco`` scenarios, the ``bench_contention`` and
  ``bench_mvcc`` harness);
* :mod:`repro.sim.chaos` — the crash-chaos workload and its crash-point
  sweep (the ``bench_crash`` harness).
"""

from repro.sim.chaos import (
    CRASH_FAILURES,
    CrashChaosSim,
    CrashConfig,
    run_crash_chaos,
    run_crash_sweep,
    sweep_profiles,
)
from repro.sim.contention import (
    ContentionConfig,
    ContentionSim,
    workload_scripts,
)
from repro.sim.harness import MAX_STEPS, World, exact_percentile, report_json

__all__ = [
    "CRASH_FAILURES",
    "ContentionConfig",
    "ContentionSim",
    "CrashChaosSim",
    "CrashConfig",
    "MAX_STEPS",
    "World",
    "exact_percentile",
    "report_json",
    "run_crash_chaos",
    "run_crash_sweep",
    "sweep_profiles",
    "workload_scripts",
]
