"""Crash-chaos workload: counter transactions on a durable, crashing server.

The server runs on a :class:`~repro.recovery.recover.Durability` bundle
(WAL on a :class:`~repro.recovery.simdisk.SimDisk`) and the disk is
armed with a seeded crash point: on the Nth WAL append the disk dies
(optionally leaving a torn final record or a bit-flipped corrupt tail).
The server crashes and evicts every session; the scheduler restarts it
through WAL recovery before resuming the clients, which reconcile and
finish their workload.

Every transaction is crash-idempotent via the *applied-token* pattern:
it inserts one unique token row in the same transaction as its two
counter increments.  After a crash the client cannot know whether an
in-flight commit made it to disk, so it queries its token — present
means the transaction is durable (count it committed), absent means it
was discarded at recovery (re-run it).

The audit at the end checks the two durability invariants byte-exactly:

* **zero lost committed updates** — every transaction a client counted
  as committed has its token row in the recovered database;
* **zero resurrected uncommitted writes** — the counter total equals
  exactly ``2 x`` the number of applied tokens, so no discarded
  transaction's increments survived (and none was applied twice).

A final clean restart then replays the full log once more and the state
is compared before/after — recovery of the finished log must be a
fixpoint.  Reports are a pure function of the configuration (wire client
ids are excluded), so two runs with the same seed are byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    DeadlockError,
    DurabilityError,
    LockTimeout,
    LockUnavailable,
    ReproError,
    ServerUnavailable,
    SessionError,
)
from repro.recovery.recover import Durability, RecoveryReport
from repro.recovery.simdisk import DiskFaultProfile, SimDisk
from repro.sim.harness import World, client_rng
from repro.sqldb.database import Database

#: Fault flavours a crash point can take.
CRASH_FAILURES: Tuple[str, str, str] = ("clean", "torn", "corrupt")

_INCREMENT_SQL = "UPDATE counters SET value = value + 1 WHERE id = ?"
_TOKEN_SQL = "INSERT INTO applied (token, client) VALUES (?, ?)"
_TOKEN_CHECK_SQL = "SELECT token FROM applied WHERE token = ?"

#: Errors that mean "the server crashed / my session is gone".
_CRASH_ERRORS = (ServerUnavailable, SessionError)
#: Errors that abort the transaction but keep the session alive.
_ABORT_ERRORS = (DeadlockError, LockTimeout)


@dataclass(frozen=True)
class CrashConfig:
    """Configuration of one crash-chaos run.

    ``crash_at_append`` counts WAL appends *after* setup (schema, seed
    rows and the post-setup checkpoint are never the crash victim);
    ``None`` runs the workload on a perfect disk.  ``failure`` selects
    what the dying append leaves behind: ``clean`` (nothing), ``torn``
    (a prefix of the record) or ``corrupt`` (the record with one flipped
    bit).
    """

    clients: int = 3
    txns_per_client: int = 3
    hot_counters: int = 4
    crash_at_append: Optional[int] = None
    failure: str = "clean"
    seed: int = 0
    lock_timeout_s: float = 300.0
    latency_s: float = 0.05
    dtr_kbit_s: float = 512.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.txns_per_client < 1:
            raise ValueError("txns_per_client must be >= 1")
        if self.hot_counters < 2:
            raise ValueError("hot_counters must be >= 2 (txns touch two)")
        if self.failure not in CRASH_FAILURES:
            raise ValueError(f"failure must be one of {CRASH_FAILURES}")
        if self.crash_at_append is not None and self.crash_at_append < 1:
            raise ValueError("crash_at_append must be >= 1")

    def profile(self) -> DiskFaultProfile:
        """The disk fault profile this configuration arms."""
        if self.crash_at_append is None:
            raise ValueError("no crash point configured")
        return DiskFaultProfile(
            name=f"crash@{self.crash_at_append}-{self.failure}",
            crash_at_append=self.crash_at_append,
            torn=self.failure == "torn",
            corrupt=self.failure == "corrupt",
        )


class CrashChaosSim(World):
    """One deterministic crash-chaos run (see module docstring)."""

    def __init__(self, config: CrashConfig) -> None:
        self.config = config
        self.disk = SimDisk()
        durability = Durability(self.disk)
        database = durability.open()
        self._setup_schema(database)
        # Checkpoint the seed state so every recovery in this run starts
        # from the snapshot, then arm the crash point: workload appends
        # only from here on.
        durability.checkpoint()
        if config.crash_at_append is not None:
            self.disk.arm(config.profile(), seed=config.seed)
        super().__init__(
            database,
            config.clients,
            lock_timeout_s=config.lock_timeout_s,
            latency_s=config.latency_s,
            dtr_kbit_s=config.dtr_kbit_s,
            durability=durability,
        )
        self.acked: Dict[int, List[int]] = {
            index: [] for index in range(config.clients)
        }
        self.counts: Dict[str, int] = {
            "committed": 0,
            "lock_waits": 0,
            "deadlock_aborts": 0,
            "timeout_aborts": 0,
            "crash_observations": 0,
            "reconciled_committed": 0,
            "reconciled_retried": 0,
        }

    # -- setup ---------------------------------------------------------------

    def _setup_schema(self, database: Database) -> None:
        database.execute(
            "CREATE TABLE counters (id INTEGER PRIMARY KEY, value INTEGER)"
        )
        database.execute(
            "CREATE TABLE applied (token INTEGER PRIMARY KEY, client INTEGER)"
        )
        for counter_id in range(1, self.config.hot_counters + 1):
            database.execute(
                "INSERT INTO counters (id, value) VALUES (?, ?)",
                [counter_id, 0],
            )

    # -- client behaviour ----------------------------------------------------

    def _token(self, index: int, txn: int) -> int:
        return (index + 1) * 1_000_000 + txn

    def _client(self, index: int) -> Generator[str, None, None]:
        """One client: open a session, run its transactions, close."""
        config = self.config
        connection = self.connections[index]
        rng = client_rng(config.seed, index)
        yield from self._guarded(index, connection.open_session, "open")
        txn = 0
        while txn < config.txns_per_client:
            token = self._token(index, txn)
            first = rng.randrange(1, config.hot_counters + 1)
            second = rng.randrange(1, config.hot_counters + 1)
            while second == first:
                second = rng.randrange(1, config.hot_counters + 1)
            outcome = yield from self._run_txn(index, token, (first, second))
            if outcome == "committed":
                self.acked[index].append(token)
                self.counts["committed"] += 1
                txn += 1
            elif outcome == "crash":
                applied = yield from self._reconcile(index, token)
                if applied:
                    self.acked[index].append(token)
                    self.counts["reconciled_committed"] += 1
                    txn += 1
                else:
                    self.counts["reconciled_retried"] += 1
            # "aborted" (deadlock/timeout): retry the same token.
        try:
            connection.close_session()
        except _CRASH_ERRORS:
            connection.mark_session_lost()
        yield "close"

    def _guarded(
        self, index: int, op: Callable[[], object], label: str
    ) -> Generator[str, None, None]:
        """Run a session op, waiting out crashes until it succeeds."""
        connection = self.connections[index]
        while True:
            try:
                op()
            except _CRASH_ERRORS:
                connection.mark_session_lost()
                self.counts["crash_observations"] += 1
                yield "crash-wait"
                continue
            yield label
            return

    def _run_txn(
        self, index: int, token: int, targets: Tuple[int, int]
    ) -> Generator[str, None, str]:
        """One attempt at an increment transaction; returns the outcome
        (``committed`` / ``aborted`` / ``crash``)."""
        connection = self.connections[index]
        try:
            connection.begin()
        except _CRASH_ERRORS:
            return self._observe_crash(index)
        yield "begin"
        statements: List[Tuple[str, List[int]]] = [
            (_TOKEN_SQL, [token, index]),
            (_INCREMENT_SQL, [targets[0]]),
            (_INCREMENT_SQL, [targets[1]]),
        ]
        for label, (sql, params) in zip(("token", "inc1", "inc2"), statements):
            while True:
                try:
                    connection.execute(sql, params)
                except LockUnavailable:
                    # Parked: the statement stays queued server-side;
                    # retry on the next resumption, transaction open.
                    self.counts["lock_waits"] += 1
                    yield "wait"
                    continue
                except _ABORT_ERRORS as error:
                    yield from self._acknowledge_abort(index, error)
                    return "aborted"
                except _CRASH_ERRORS:
                    return self._observe_crash(index)
                yield label
                break
        try:
            connection.commit()
        except _ABORT_ERRORS as error:
            yield from self._acknowledge_abort(index, error)
            return "aborted"
        except _CRASH_ERRORS:
            return self._observe_crash(index)
        yield "commit"
        return "committed"

    def _observe_crash(self, index: int) -> str:
        self.connections[index].mark_session_lost()
        self.counts["crash_observations"] += 1
        return "crash"

    def _acknowledge_abort(
        self, index: int, error: ReproError
    ) -> Generator[str, None, None]:
        key = (
            "deadlock_aborts"
            if isinstance(error, DeadlockError)
            else "timeout_aborts"
        )
        self.counts[key] += 1
        connection = self.connections[index]
        try:
            connection.rollback()
        except _CRASH_ERRORS:
            connection.mark_session_lost()
            self.counts["crash_observations"] += 1
        except ReproError:
            pass
        yield "abort"

    def _reconcile(self, index: int, token: int) -> Generator[str, None, bool]:
        """After a crash: is this transaction's token durable?

        The autocommit read needs no session; a still-crashed server (or
        a not-yet-cleared eviction) is waited out.
        """
        connection = self.connections[index]
        yield "crashed"
        while True:
            try:
                result = connection.execute(_TOKEN_CHECK_SQL, [token])
            except LockUnavailable:
                # Another client's open transaction holds the write lock
                # on the token table; park and retry like any reader.
                self.counts["lock_waits"] += 1
                yield "reconcile-wait"
                continue
            except _CRASH_ERRORS:
                connection.mark_session_lost()
                yield "reconcile-wait"
                continue
            yield "reconcile"
            return len(result.rows) > 0

    # -- run and audit -------------------------------------------------------

    def _state(self) -> Tuple[List[int], List[Tuple[int, int]], int]:
        # The server's database, not the World's: a restart replaces it.
        database = self.server.database
        tokens = sorted(
            int(row[0])
            for row in database.execute("SELECT token FROM applied").rows
        )
        counters = sorted(
            (int(row[0]), int(row[1]))
            for row in database.execute(
                "SELECT id, value FROM counters"
            ).rows
        )
        return tokens, counters, sum(value for __, value in counters)

    def run(self) -> Dict[str, Any]:
        """Drive all clients to completion and return the audited report."""
        schedule = self.interleave(
            {index: self._client(index) for index in range(self.config.clients)},
            self.config.seed,
        )
        tokens, counters, counter_sum = self._state()
        acked = sorted(
            token for tokens_ in self.acked.values() for token in tokens_
        )
        lost_committed = sorted(set(acked) - set(tokens))
        resurrected = counter_sum - 2 * len(tokens)
        # Fixpoint check: one more clean recovery of the finished log
        # must reproduce the exact same state.
        self.server.restart()
        tokens_after, counters_after, __ = self._state()
        fixpoint = tokens_after == tokens and counters_after == counters
        assert self.durability is not None
        wal = self.durability.wal
        return {
            "config": asdict(self.config),
            "schedule": {"steps": len(schedule.log), "hash": schedule.hash},
            "counts": dict(self.counts),
            "restarts": schedule.restarts,
            "acked_txns": len(acked),
            "applied_txns": len(tokens),
            "counter_sum": counter_sum,
            "lost_committed": lost_committed,
            "resurrected": resurrected,
            "final_recovery_fixpoint": fixpoint,
            "crash": {
                "configured_at_append": self.config.crash_at_append,
                "failure": self.config.failure,
                "occurred": schedule.restarts > 0,
            },
            "disk": {
                "total_appends": self.disk.total_appends,
                "size_bytes": self.disk.size,
            },
            "crash_recovery": _recovery_json(schedule.recovery),
            "final_recovery": _recovery_json(self.durability.last_report),
            "wal": dict(wal.statistics) if wal is not None else {},
            "server": {
                key: self.server.statistics[key]
                for key in (
                    "crashes",
                    "recoveries",
                    "replayed_records",
                    "hwm_suppressed",
                    "unavailable_refusals",
                )
            },
            "sessions": dict(self.sessions.statistics),
            "locks": dict(self.locks.statistics),
        }


def _recovery_json(report: Optional[RecoveryReport]) -> Dict[str, Any]:
    if report is None:
        return {}
    recovery = report.as_dict()
    # Wire client ids are allocated from a process-global counter, so
    # the high-water-mark map would differ between two in-process runs
    # of the same configuration; report only its cardinality.
    recovery.pop("hwm")
    recovery["hwm_clients"] = len(report.hwm)
    return recovery


def run_crash_chaos(config: CrashConfig) -> Dict[str, Any]:
    """Run one configuration and return its report."""
    return CrashChaosSim(config).run()


def sweep_profiles(
    max_crash_at: int = 17,
    failures: Tuple[str, ...] = CRASH_FAILURES,
) -> List[Tuple[int, str]]:
    """The (crash_at, failure) grid of a sweep: every append position in
    ``1..max_crash_at`` under every failure flavour."""
    return [
        (crash_at, failure)
        for crash_at in range(1, max_crash_at + 1)
        for failure in failures
    ]


def run_crash_sweep(
    seed: int = 0,
    max_crash_at: int = 17,
    failures: Tuple[str, ...] = CRASH_FAILURES,
    clients: int = 3,
    txns_per_client: int = 3,
) -> Dict[str, Any]:
    """Sweep the crash-point grid and audit every run.

    Raises :class:`DurabilityError` on the first violated invariant;
    otherwise returns a summary with one compact line per run.
    """
    runs: List[Dict[str, Any]] = []
    for crash_at, failure in sweep_profiles(max_crash_at, failures):
        config = CrashConfig(
            clients=clients,
            txns_per_client=txns_per_client,
            crash_at_append=crash_at,
            failure=failure,
            seed=seed,
        )
        report = run_crash_chaos(config)
        if report["lost_committed"]:
            raise DurabilityError(
                f"lost committed transactions {report['lost_committed']} "
                f"at crash point {crash_at} ({failure})"
            )
        if report["resurrected"]:
            raise DurabilityError(
                f"{report['resurrected']} resurrected uncommitted "
                f"increments at crash point {crash_at} ({failure})"
            )
        if not report["final_recovery_fixpoint"]:
            raise DurabilityError(
                f"final recovery not a fixpoint at crash point "
                f"{crash_at} ({failure})"
            )
        runs.append(
            {
                "crash_at": crash_at,
                "failure": failure,
                "restarts": report["restarts"],
                "acked": report["acked_txns"],
                "applied": report["applied_txns"],
                "counter_sum": report["counter_sum"],
                "tail_status": report["crash_recovery"].get("tail_status"),
                "discarded": report["crash_recovery"].get("txns_discarded"),
                "schedule_hash": report["schedule"]["hash"],
            }
        )
    return {
        "seed": seed,
        "profiles": len(runs),
        "clients": clients,
        "txns_per_client": txns_per_client,
        "all_invariants_held": True,
        "runs": runs,
    }
