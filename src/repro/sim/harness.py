"""The shared stack and seeded scheduler every simulation runs on.

A :class:`World` is N clients against one server over one simulated
clock: a :class:`~repro.concurrency.locks.LockManager` and
:class:`~repro.concurrency.sessions.SessionManager` over the database, a
:class:`~repro.server.server.DatabaseServer` (durable when given a
:class:`~repro.recovery.recover.Durability` bundle) and one
:class:`~repro.server.client.RemoteConnection` per client, each over its
own :class:`~repro.network.link.NetworkLink`.  Every round trip, lock
wait and backoff advances the same timeline.

The server is single-threaded, so true parallelism is neither possible
nor needed — what matters is the *interleaving* of statements from
different sessions.  Each simulated client is a generator that performs
one wire operation (or one retry of a parked statement) per resumption
and yields a label; :meth:`World.interleave` picks which client to
resume next with ``random.Random(seed)``, restarts a crashed server
through WAL recovery before the next pick, and hashes the resulting
schedule trace.  The schedule is a pure function of the seed, so two
runs of one configuration produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.concurrency.locks import LockManager
from repro.concurrency.sessions import SessionManager
from repro.errors import ConcurrencyError
from repro.network.clock import SimulatedClock
from repro.network.link import NetworkLink
from repro.recovery.recover import Durability, RecoveryReport
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb.database import Database

#: Scheduler-step ceiling — generous (a client operation is a handful of
#: steps even with retries and crash waits); hitting it means livelock,
#: a bug.
MAX_STEPS = 200_000


@dataclass(frozen=True)
class Schedule:
    """The trace of one :meth:`World.interleave` run."""

    #: ``"{step}:{client}:{label}"`` per resumption, plus a
    #: ``"{step}:restart"`` entry per crash restart.
    log: List[str]
    #: Client resumptions (restart entries excluded).
    steps: int
    hash: str
    restarts: int
    #: Recovery report of the first crash restart — the scan that sees a
    #: torn or corrupt tail, unlike later recoveries of a truncated log.
    recovery: Optional[RecoveryReport]


def client_rng(seed: int, index: int) -> random.Random:
    """Client *index*'s private workload stream, derived from the run seed."""
    return random.Random(seed * 1_000_003 + index)


class World:
    """N clients against one server over one simulated clock."""

    def __init__(
        self,
        database: Database,
        clients: int,
        *,
        lock_timeout_s: float,
        latency_s: float,
        dtr_kbit_s: float,
        durability: Optional[Durability] = None,
    ) -> None:
        self.clock = SimulatedClock()
        self.database = database
        self.durability = durability
        self.locks = LockManager(clock=self.clock, timeout_s=lock_timeout_s)
        self.sessions = SessionManager(database, self.locks)
        self.server = DatabaseServer(
            database, sessions=self.sessions, durability=durability
        )
        self.connections = [
            RemoteConnection(
                self.server,
                NetworkLink(
                    latency_s=latency_s, dtr_kbit_s=dtr_kbit_s, clock=self.clock
                ),
            )
            for __ in range(clients)
        ]

    def interleave(
        self, generators: Dict[int, Iterator[str]], seed: int
    ) -> Schedule:
        """Resume the client generators in seeded order until all finish.

        Raises :class:`ConcurrencyError` once :data:`MAX_STEPS`
        resumptions have not finished the run.
        """
        scheduler = random.Random(seed)
        alive = sorted(generators)
        log: List[str] = []
        steps = 0
        restarts = 0
        recovery: Optional[RecoveryReport] = None
        while True:
            if self.server.crashed:
                self.server.restart()
                restarts += 1
                if recovery is None and self.durability is not None:
                    recovery = self.durability.last_report
                log.append(f"{steps}:restart")
            if not alive:
                break
            if steps >= MAX_STEPS:
                raise ConcurrencyError(
                    f"scheduler exceeded {MAX_STEPS} steps — livelock"
                )
            index = alive[scheduler.randrange(len(alive))]
            try:
                label = next(generators[index])
            except StopIteration:
                alive.remove(index)
                label = "done"
            log.append(f"{steps}:{index}:{label}")
            steps += 1
        digest = hashlib.sha256("\n".join(log).encode("utf-8")).hexdigest()
        return Schedule(log, steps, digest, restarts, recovery)


def exact_percentile(sorted_values: List[float], q: float) -> Optional[float]:
    """Exact linear-interpolation percentile of pre-sorted data."""
    if not sorted_values:
        return None
    position = q * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return sorted_values[lower]
    fraction = position - lower
    return (
        sorted_values[lower] * (1.0 - fraction)
        + sorted_values[upper] * fraction
    )


def report_json(report: Dict[str, Any]) -> str:
    """Canonical (byte-stable) JSON rendering of a report."""
    return json.dumps(report, sort_keys=True, indent=2)
