"""Per-client server sessions mapping wire clients onto transactions.

A session is keyed by the ``client_id`` every SEQUENCED frame already
carries (and which the OPEN_SESSION handshake states explicitly).  Each
session owns at most one open transaction inside the shared
:class:`~repro.sqldb.database.Database`; the session token handed to the
database *is* the client id, so two clients hold independent change lists
and lock sets while the local default session (token ``None``) keeps
working for server procedures and embedded use.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.errors import SessionError
from repro.sqldb.database import Database


class Session:
    """State of one wire client's session."""

    __slots__ = ("client_id", "transactions", "commits", "rollbacks")

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        self.transactions = 0
        self.commits = 0
        self.rollbacks = 0

    @property
    def token(self) -> int:
        """The database session token (the client id itself)."""
        return self.client_id


class SessionManager:
    """Session registry for one :class:`DatabaseServer`.

    Constructing it with a lock manager attaches that manager to the
    database, turning on strict 2PL for every session (the local default
    session included).
    """

    def __init__(
        self, database: Database, lock_manager: Optional[Any] = None
    ) -> None:
        self.database = database
        self.lock_manager = lock_manager
        if lock_manager is not None:
            database.attach_lock_manager(lock_manager)
        self._sessions: Dict[int, Session] = {}
        #: Client ids whose session the *server* tore down (eviction or
        #: crash).  Their later statements must fail with SessionError —
        #: silently routing them to the default session would commit what
        #: the client believes is inside its (dead) transaction.  Cleared
        #: by the client's next OPEN_SESSION.
        self._evicted: Set[int] = set()
        self.statistics = {
            "opened": 0,
            "closed": 0,
            "evicted": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def open(self, client_id: int) -> Session:
        """Open (or return the already-open) session for *client_id*.

        Idempotent: a retransmitted OPEN_SESSION must not fail, and the
        replay cache cannot cover the unsequenced first handshake.
        """
        session = self._sessions.get(client_id)
        if session is None:
            session = self._sessions[client_id] = Session(client_id)
            self.statistics["opened"] += 1
        self._evicted.discard(client_id)
        return session

    def close(self, client_id: int) -> None:
        """Close the session, rolling back any transaction it left open."""
        session = self._sessions.pop(client_id, None)
        if session is None:
            raise SessionError(f"no open session for client {client_id}")
        self.statistics["closed"] += 1
        if self.database.session_in_transaction(session.token):
            self.database.rollback(session.token)
        else:
            # Consume a pending force-abort flag, if any: the session is
            # going away, nobody is left to observe the DeadlockError.
            self.database._aborted.pop(session.token, None)

    def evict(self, client_id: int) -> bool:
        """Server-side close of a session whose client went away.

        This is the fix for the lock-leak: a client that stops sending
        frames (network death, process kill) used to leave its 2PL locks
        held forever, starving every parked waiter behind them.  Eviction
        runs the same teardown as :meth:`close` — roll back the open
        transaction, which releases its locks and wakes FIFO waiters —
        but is idempotent (returns False for unknown sessions) because
        the server calls it for *every* client at crash time.
        """
        session = self._sessions.pop(client_id, None)
        if session is None:
            return False
        self._evicted.add(client_id)
        self.statistics["evicted"] += 1
        if self.database.session_in_transaction(session.token):
            self.database.rollback(session.token)
        else:
            self.database._aborted.pop(session.token, None)
        return True

    def evict_all(self) -> int:
        """Evict every open session (server crash/restart); returns the
        number evicted.  Uses the same per-session path as :meth:`evict`,
        so restart cannot leak locks any more than a single eviction can."""
        count = 0
        for client_id in list(self._sessions):
            if self.evict(client_id):
                count += 1
        return count

    def rebind(self, database: Database) -> None:
        """Point the manager at the recovered database after a restart.

        All sessions must have been evicted first (a session token refers
        to transaction state inside the old, discarded database)."""
        if self._sessions:
            raise SessionError(
                f"cannot rebind with {len(self._sessions)} session(s) "
                f"still open; evict them first"
            )
        self.database = database
        if self.lock_manager is not None:
            database.attach_lock_manager(self.lock_manager)

    def get(self, client_id: Optional[int]) -> Optional[Session]:
        if client_id is None:
            return None
        return self._sessions.get(client_id)

    def was_evicted(self, client_id: int) -> bool:
        """Whether the server tore this client's session down (and the
        client has not re-opened one since)."""
        return client_id in self._evicted

    def require(self, client_id: int) -> Session:
        session = self._sessions.get(client_id)
        if session is None:
            raise SessionError(
                f"client {client_id} has no open session "
                f"(send OPEN_SESSION first)"
            )
        return session

    @property
    def open_count(self) -> int:
        return len(self._sessions)

    # -- transactions --------------------------------------------------------

    def begin(self, client_id: int, read_only: bool = False) -> int:
        session = self.require(client_id)
        txn_id = self.database.begin(session.token, read_only=read_only)
        session.transactions += 1
        return txn_id

    def commit(self, client_id: int) -> None:
        session = self.require(client_id)
        self.database.commit(session.token)
        session.commits += 1

    def rollback(self, client_id: int) -> None:
        """Roll back the session's transaction.

        No-op success when no transaction is open: the common caller is a
        retry harness acknowledging a force-aborted (deadlock victim)
        transaction, and a rollback must never fail for already being
        done.
        """
        session = self.require(client_id)
        token = session.token
        if self.database._aborted.pop(token, None) is not None:
            session.rollbacks += 1
            return
        if not self.database.session_in_transaction(token):
            return
        self.database.rollback(token)
        session.rollbacks += 1
