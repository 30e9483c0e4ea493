"""Concurrent sessions: 2PL locking and per-client transactions.

The paper's measurements are single-user, but its setting — hundreds of
engineers against one PDM server — is not.  This package supplies the
concurrency substrate: a strict two-phase :class:`LockManager` with
parked FIFO waiters and wait-for-graph deadlock detection, a
:class:`SessionManager` mapping wire clients onto independent database
transactions, and the lock-footprint model the static transaction
analyzer shares with the runtime.  The seeded contention simulator that
races N clients over this substrate lives in :mod:`repro.sim`.
"""

from repro.concurrency.footprint import (
    Granularity,
    LockRequest,
    delete_footprint,
    insert_footprint,
    may_conflict,
    may_overlap,
    select_footprint,
    statement_footprint,
    update_footprint,
)
from repro.concurrency.locks import LockManager, LockMode, compatible
from repro.concurrency.sessions import Session, SessionManager

__all__ = [
    "Granularity",
    "LockManager",
    "LockMode",
    "LockRequest",
    "Session",
    "SessionManager",
    "compatible",
    "delete_footprint",
    "insert_footprint",
    "may_conflict",
    "may_overlap",
    "select_footprint",
    "statement_footprint",
    "update_footprint",
]
