"""Strict two-phase locking for the single-threaded simulated server.

The server handles one request at a time, so a conflicting lock request
cannot block inside ``handle()`` — there is no other thread that could
release the lock.  Instead the manager *parks* the request in a FIFO
wait queue and raises :class:`LockUnavailable`; the client retries the
same statement (the transaction stays open, the queue position is kept)
and either finds the lock granted in the meantime or parks again.  This
turns blocking into bounded client-driven polling while preserving FIFO
fairness and making deadlock detection straightforward: the parked
requests *are* the wait-for edges.

Resources are ``(table, row_id)`` pairs; ``row_id is None`` means the
whole table.  A table-level lock conflicts with every row-level lock of
the table and vice versa (scans take table-level shared locks, which is
what closes the phantom window against row inserts under table-X).

Compatibility (between two different transactions)::

            held S   held X
    want S    ok      wait
    want X   wait     wait

Deadlocks are detected at parking time by a depth-first search over the
wait-for graph; the youngest transaction in the cycle (largest txn id)
is aborted.  Check-out maps onto *persistent* owner-scoped locks: they
are acquired all-or-nothing, never wait (so they never deadlock), and
survive transaction boundaries until explicitly released by check-in.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConcurrencyError, DeadlockError, LockTimeout, LockUnavailable

#: A lockable resource: (table name lowercased, row id or None for the table).
Resource = Tuple[str, Optional[int]]


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def compatible(held: LockMode, wanted: LockMode) -> bool:
    """The S/X compatibility matrix (between two different owners).

    Public because the static analyzer's footprint model
    (:mod:`repro.concurrency.footprint`) must use the *same* matrix the
    runtime grants by — one source of truth, not two.
    """
    return held is LockMode.SHARED and wanted is LockMode.SHARED


def overlaps(a: Resource, b: Resource) -> bool:
    """Whether two resources cover common rows (same table, and same row
    or either side is the whole table)."""
    if a[0] != b[0]:
        return False
    return a[1] is None or b[1] is None or a[1] == b[1]


# Historical private names, kept for callers inside this module.
_compatible = compatible
_overlaps = overlaps


class _Waiter:
    """One parked lock request, keeping its FIFO position across retries."""

    __slots__ = ("txn_id", "resource", "mode", "enqueued_at", "deadline")

    def __init__(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        enqueued_at: float,
        deadline: Optional[float],
    ) -> None:
        self.txn_id = txn_id
        self.resource = resource
        self.mode = mode
        self.enqueued_at = enqueued_at
        self.deadline = deadline


class _Txn:
    """Book-keeping for one lock owner (transaction or persistent user)."""

    __slots__ = ("txn_id", "owner", "persistent", "held")

    def __init__(self, txn_id: int, owner: Any, persistent: bool) -> None:
        self.txn_id = txn_id
        self.owner = owner
        self.persistent = persistent
        #: resource -> LockMode currently held.
        self.held: Dict[Resource, LockMode] = {}


class LockManager:
    """Strict 2PL with parked FIFO waiters and deadlock detection.

    ``clock`` (a :class:`repro.network.clock.SimulatedClock`) and
    ``timeout_s`` enable lock-wait timeouts: a waiter parked longer than
    ``timeout_s`` simulated seconds is cancelled on its next retry and
    its transaction aborted with :class:`LockTimeout`.  Without a clock
    waiters never time out (tests drive the interleaving explicitly).
    """

    def __init__(
        self,
        clock: Optional[Any] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.clock = clock
        self.timeout_s = timeout_s
        self._txn_ids = itertools.count(1)
        self._txns: Dict[int, _Txn] = {}
        #: table name -> FIFO list of parked waiters for that table.
        self._queues: Dict[str, List[_Waiter]] = {}
        #: Called with the victim txn id when deadlock detection picks a
        #: transaction *other than the requester* — the database rolls the
        #: victim back (which re-enters release_all).
        self.abort_callback: Optional[Callable[[int], None]] = None
        self.statistics = {
            "acquisitions": 0,
            "waits": 0,
            "deadlocks": 0,
            "timeouts": 0,
            "grants_after_wait": 0,
        }
        #: One entry per detected deadlock: the sorted table names the
        #: cycle's transactions were waiting on.  The static analyzer's
        #: soundness test cross-checks these against C001 predictions.
        #: Kept out of ``statistics`` so seeded sim reports stay
        #: byte-identical to earlier revisions.
        self.deadlock_cycles: List[Tuple[str, ...]] = []

    # -- owner lifecycle ----------------------------------------------------

    def begin(self, owner: Any = None, persistent: bool = False) -> int:
        """Register a lock owner; returns its id (monotonic: larger = younger)."""
        txn_id = next(self._txn_ids)
        self._txns[txn_id] = _Txn(txn_id, owner, persistent)
        return txn_id

    def persistent_owner(self, key: Any) -> int:
        """Get-or-create the persistent lock owner registered under *key*
        (e.g. a check-out user).  Persistent owners survive transaction
        boundaries — their locks stay held until explicitly released —
        and are never picked as deadlock victims."""
        for txn in self._txns.values():
            if txn.persistent and txn.owner == key:
                return txn.txn_id
        return self.begin(owner=key, persistent=True)

    def reset(self) -> None:
        """Forget every owner, held lock and parked waiter.

        The lock table is volatile state: a server crash wipes it.  Called
        from the restart path *after* session eviction has released the
        evicted transactions' locks through the normal strict-2PL path;
        what remains (ephemeral autocommit owners caught mid-statement,
        persistent check-out owners) is cleared wholesale — a check-out
        does not survive the crash of the server that recorded it and must
        be re-established through the PDM layer.  The id counter keeps
        running so post-restart owners never reuse a pre-crash id.
        """
        self._txns.clear()
        self._queues.clear()

    def release_all(self, txn_id: int) -> None:
        """Drop every lock and parked waiter of *txn_id* (strict 2PL
        release at commit/abort), then grant unblocked waiters in FIFO
        order."""
        txn = self._txns.pop(txn_id, None)
        if txn is None:
            return
        touched = {resource[0] for resource in txn.held}
        for table, queue in self._queues.items():
            before = len(queue)
            queue[:] = [w for w in queue if w.txn_id != txn_id]
            if len(queue) != before:
                touched.add(table)
        for table in sorted(touched):
            self._grant_waiters(table)

    def holders(self, resource: Resource) -> Dict[int, LockMode]:
        """Current holders of locks overlapping *resource* (diagnostics)."""
        found: Dict[int, LockMode] = {}
        for txn in self._txns.values():
            for held_resource, mode in txn.held.items():
                if _overlaps(held_resource, resource):
                    found[txn.txn_id] = mode
        return found

    def locks_held(self, txn_id: int) -> List[Tuple[Resource, LockMode]]:
        txn = self._txns.get(txn_id)
        if txn is None:
            return []
        return sorted(txn.held.items(), key=lambda item: (item[0][0], -1 if item[0][1] is None else item[0][1]))

    # -- acquisition --------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        table: str,
        row_id: Optional[int],
        mode: LockMode,
        park: bool = True,
    ) -> None:
        """Acquire (or upgrade to) *mode* on ``(table, row_id)``.

        Returns on success.  On conflict: with ``park=True`` the request
        is parked (keeping any existing queue position) and
        :class:`LockUnavailable` raised — unless that would deadlock, in
        which case the youngest transaction of the cycle is aborted
        (:class:`DeadlockError` if that is the requester).  With
        ``park=False`` (autocommit statements, persistent locks) the
        request fails fast without joining the queue.
        """
        txn = self._txns.get(txn_id)
        if txn is None:
            raise ConcurrencyError(f"unknown lock owner {txn_id}")
        resource: Resource = (table.lower(), row_id)
        held = txn.held.get(resource)
        if held is LockMode.EXCLUSIVE or held is mode:
            return  # already strong enough
        self.statistics["acquisitions"] += 1
        waiter = self._find_waiter(txn_id, resource, mode)
        if waiter is not None and self._expired(waiter):
            self._cancel_waiters(txn_id)
            self.statistics["timeouts"] += 1
            raise LockTimeout(
                f"transaction {txn_id} waited more than {self.timeout_s}s "
                f"for {mode.value} on {self._describe(resource)}"
            )
        if self._grantable(txn, resource, mode, waiter):
            self._grant(txn, resource, mode, waiter)
            return
        if not park:
            raise LockUnavailable(
                f"{mode.value} on {self._describe(resource)} is held by "
                f"transaction(s) {sorted(self._conflicting_holders(txn, resource, mode))}"
            )
        if waiter is None:
            waiter = self._park(txn_id, resource, mode)
        victim = self._detect_deadlock(txn_id)
        if victim is not None:
            self.statistics["deadlocks"] += 1
            if victim == txn_id:
                self._cancel_waiters(txn_id)
                raise DeadlockError(
                    f"transaction {txn_id} chosen as deadlock victim "
                    f"waiting for {mode.value} on {self._describe(resource)}"
                )
            if self.abort_callback is not None:
                self.abort_callback(victim)
            else:
                self.release_all(victim)
            # The abort released the victim's locks; the waiter may have
            # been granted by the FIFO pass just now.
            if txn.held.get(resource) in (mode, LockMode.EXCLUSIVE):
                return
        self.statistics["waits"] += 1
        raise LockUnavailable(
            f"{mode.value} on {self._describe(resource)} is held by "
            f"transaction(s) {sorted(self._conflicting_holders(txn, resource, mode))}; "
            f"request parked, retry the statement"
        )

    def acquire_all_or_nothing(
        self,
        txn_id: int,
        resources: Sequence[Resource],
        mode: LockMode = LockMode.EXCLUSIVE,
    ) -> None:
        """Acquire *mode* on every resource or none (no waiting).

        Used for persistent check-out locks: a partial grant is rolled
        back before :class:`LockUnavailable` propagates, so a failed
        check-out leaves no locks behind.
        """
        txn = self._txns.get(txn_id)
        if txn is None:
            raise ConcurrencyError(f"unknown lock owner {txn_id}")
        acquired: List[Resource] = []
        try:
            for table, row_id in resources:
                resource: Resource = (table.lower(), row_id)
                if resource in txn.held:
                    continue
                self.acquire(txn_id, table, row_id, mode, park=False)
                acquired.append(resource)
        except LockUnavailable:
            for resource in acquired:
                del txn.held[resource]
            for table in sorted({resource[0] for resource in acquired}):
                self._grant_waiters(table)
            raise

    def release(self, txn_id: int, resources: Sequence[Resource]) -> None:
        """Release specific resources of a persistent owner (check-in)."""
        txn = self._txns.get(txn_id)
        if txn is None:
            return
        touched = set()
        for table, row_id in resources:
            resource: Resource = (table.lower(), row_id)
            if txn.held.pop(resource, None) is not None:
                touched.add(resource[0])
        for table in sorted(touched):
            self._grant_waiters(table)

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _describe(resource: Resource) -> str:
        table, row_id = resource
        return f"table {table!r}" if row_id is None else f"{table!r} row {row_id}"

    def _find_waiter(
        self, txn_id: int, resource: Resource, mode: LockMode
    ) -> Optional[_Waiter]:
        for waiter in self._queues.get(resource[0], ()):
            if (
                waiter.txn_id == txn_id
                and waiter.resource == resource
                and waiter.mode is mode
            ):
                return waiter
        return None

    def _expired(self, waiter: _Waiter) -> bool:
        return (
            waiter.deadline is not None
            and self.clock is not None
            and self.clock.now > waiter.deadline
        )

    def _conflicting_holders(
        self, txn: _Txn, resource: Resource, mode: LockMode
    ) -> List[int]:
        conflicts = []
        for other in self._txns.values():
            if other.txn_id == txn.txn_id:
                continue
            for held_resource, held_mode in other.held.items():
                if _overlaps(held_resource, resource) and not _compatible(
                    held_mode, mode
                ):
                    conflicts.append(other.txn_id)
                    break
        return conflicts

    def _blocking_waiters(
        self, txn: _Txn, resource: Resource, mode: LockMode, own: Optional[_Waiter]
    ) -> List[int]:
        """Parked waiters queued ahead whose request conflicts with ours.

        Granting around them would let late arrivals barge past the FIFO
        queue and starve writers behind a stream of readers.
        """
        blocking = []
        for waiter in self._queues.get(resource[0], ()):
            if waiter is own:
                break  # only waiters *ahead* of our own position block us
            if waiter.txn_id == txn.txn_id:
                continue
            if _overlaps(waiter.resource, resource) and not (
                _compatible(waiter.mode, mode)
            ):
                blocking.append(waiter.txn_id)
        return blocking

    def _grantable(
        self, txn: _Txn, resource: Resource, mode: LockMode, own: Optional[_Waiter]
    ) -> bool:
        if self._conflicting_holders(txn, resource, mode):
            return False
        return not self._blocking_waiters(txn, resource, mode, own)

    def _grant(
        self,
        txn: _Txn,
        resource: Resource,
        mode: LockMode,
        waiter: Optional[_Waiter],
    ) -> None:
        held = txn.held.get(resource)
        if held is None or mode is LockMode.EXCLUSIVE:
            txn.held[resource] = mode
        if waiter is not None:
            self._queues[resource[0]].remove(waiter)
            self.statistics["grants_after_wait"] += 1

    def _park(self, txn_id: int, resource: Resource, mode: LockMode) -> _Waiter:
        now = self.clock.now if self.clock is not None else 0.0
        deadline = (
            now + self.timeout_s
            if self.timeout_s is not None and self.clock is not None
            else None
        )
        waiter = _Waiter(txn_id, resource, mode, now, deadline)
        self._queues.setdefault(resource[0], []).append(waiter)
        return waiter

    def _cancel_waiters(self, txn_id: int) -> None:
        for queue in self._queues.values():
            queue[:] = [w for w in queue if w.txn_id != txn_id]

    def _grant_waiters(self, table: str) -> None:
        """FIFO pass: grant every waiter of *table* that is now unblocked.

        Installing the lock immediately (rather than merely marking the
        waiter runnable) means the owner's retried statement finds the
        lock already held — and the resource stays protected from later
        arrivals in the meantime.
        """
        queue = self._queues.get(table)
        if not queue:
            return
        progressed = True
        while progressed:
            progressed = False
            for waiter in list(queue):
                txn = self._txns.get(waiter.txn_id)
                if txn is None:
                    queue.remove(waiter)
                    progressed = True
                    continue
                if self._grantable(txn, waiter.resource, waiter.mode, waiter):
                    self._grant(txn, waiter.resource, waiter.mode, waiter)
                    progressed = True

    # -- deadlock detection --------------------------------------------------

    def _wait_edges(self) -> Dict[int, Set[int]]:
        """Wait-for graph: parked txn -> txns it waits on (conflicting
        holders plus conflicting waiters queued ahead of it)."""
        edges: Dict[int, Set[int]] = {}
        for queue in self._queues.values():
            for waiter in queue:
                txn = self._txns.get(waiter.txn_id)
                if txn is None:
                    continue
                targets = set(
                    self._conflicting_holders(txn, waiter.resource, waiter.mode)
                )
                targets.update(
                    self._blocking_waiters(txn, waiter.resource, waiter.mode, waiter)
                )
                if targets:
                    edges.setdefault(waiter.txn_id, set()).update(targets)
        return edges

    def _detect_deadlock(self, start: int) -> Optional[int]:
        """Find a wait-for cycle through *start*; return the victim
        (youngest = largest txn id, persistent owners excluded) or None."""
        edges = self._wait_edges()
        path: List[int] = []
        on_path = set()
        visited = set()

        def dfs(node: int) -> Optional[List[int]]:
            if node in on_path:
                return path[path.index(node) :]
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for target in sorted(edges.get(node, ())):
                cycle = dfs(target)
                if cycle is not None:
                    return cycle
            path.pop()
            on_path.discard(node)
            return None

        cycle = dfs(start)
        if not cycle:
            return None
        candidates = [
            txn_id
            for txn_id in cycle
            if txn_id in self._txns and not self._txns[txn_id].persistent
        ]
        if not candidates:
            return None
        self._record_cycle(set(cycle))
        return max(candidates)

    def _record_cycle(self, members: Set[int]) -> None:
        """Append the tables the cycle's members are waiting on to
        :attr:`deadlock_cycles` (the parked requests *are* the wait-for
        edges, so their resources name the cycle)."""
        tables: Set[str] = set()
        for queue in self._queues.values():
            for waiter in queue:
                if waiter.txn_id in members:
                    tables.add(waiter.resource[0])
        self.deadlock_cycles.append(tuple(sorted(tables)))
