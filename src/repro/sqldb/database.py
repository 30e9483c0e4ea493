"""The :class:`Database` facade: parse, plan (with caching), execute.

This is the "relational DBMS" the PDM system sits on.  The facade keeps an
LRU plan cache keyed by statement text, so the navigational workload —
thousands of executions of the same parameterised child-fetch query — pays
the parse/plan cost once, mirroring the prepared-statement behaviour of a
production DBMS.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    CatalogError,
    DeadlockError,
    ExecutionError,
    IntegrityError,
    LockTimeout,
    SQLError,
)
from repro.sqldb import ast_nodes as ast
from repro.sqldb import ast_walk
from repro.sqldb.executor import ExecutionEnv
from repro.sqldb.expressions import (
    CompileContext,
    Frame,
    Scope,
    compile_expression,
)
from repro.sqldb.functions import FunctionRegistry
from repro.sqldb.mvcc import MvccManager
from repro.sqldb.parser import parse_script, parse_statement
from repro.sqldb.planner import Plan, Planner
from repro.sqldb.recursive import execute_plan
from repro.sqldb.result import ResultSet
from repro.sqldb.schema import Catalog, Column, TableSchema
from repro.sqldb.stats import StatsCatalog
from repro.sqldb.storage import TableStorage
from repro.sqldb.types import coerce_value, is_null


class _Transaction:
    """One transaction and its change list.

    Explicit transactions (BEGIN ... COMMIT) are keyed by their session
    in ``Database._transactions``.  An autocommit DML statement runs as an
    *implicit* transaction, and recovery replays each committed logged
    transaction as one; all three end in :meth:`Database._finish`.
    """

    __slots__ = ("txn_id", "implicit", "lock_owner", "read_only", "snapshot", "changes")

    def __init__(self, txn_id: int, implicit: bool = False, read_only: bool = False) -> None:
        #: WAL transaction id; for an explicit transaction also its lock
        #: owner id.
        self.txn_id = txn_id
        #: Implicit transactions fail fast on lock conflicts: there is no
        #: transaction to keep a queue position for.
        self.implicit = implicit
        #: Lock-manager owner id.  An implicit transaction begins its
        #: ephemeral owner on its first lock request.
        self.lock_owner: Optional[int] = None if implicit else txn_id
        #: READ ONLY transactions reject DML; under MVCC they read a
        #: snapshot instead of taking shared locks.
        self.read_only = read_only
        #: The :class:`repro.sqldb.mvcc.Snapshot` captured at BEGIN for a
        #: read-only transaction on an MVCC database; None otherwise.
        self.snapshot = None
        #: ``(storage, op, row_id, before)`` per row write, in write order:
        #: rollback undoes them newest-first, commit installs their slots.
        self.changes: List[Tuple[TableStorage, str, int, Any]] = []


class Database:
    """An in-memory SQL database.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20))")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    >>> db.execute("SELECT name FROM t WHERE id = ?", [2]).scalar()
    'two'
    """

    def __init__(
        self,
        plan_cache_size: int = 512,
        recursion_limit: int = 1_000_000,
        planner_mode: str = "cost",
        mvcc: bool = False,
        auto_analyze_threshold: int = 256,
    ) -> None:
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self.recursion_limit = recursion_limit
        if planner_mode not in ("cost", "rule"):
            raise SQLError(
                f"unknown planner mode {planner_mode!r} (expected 'cost' or 'rule')"
            )
        #: ``"cost"`` (default) prices access paths and join orders with
        #: ANALYZE-collected statistics; ``"rule"`` is the ablation switch
        #: that keeps the deterministic rule-based choices even after
        #: ANALYZE.
        self.planner_mode = planner_mode
        #: ANALYZE-collected optimizer statistics.  In-memory and advisory
        #: only: never WAL-logged (lost on crash/recovery) because losing
        #: them can only change plan quality, not results.
        self.stats = StatsCatalog()
        #: Statement-text -> Plan cache (SELECT only; DML re-plans, which is
        #: cheap because DML statements here are tiny).
        self._plan_cache: "OrderedDict[str, Plan]" = OrderedDict()
        self._plan_cache_size = plan_cache_size
        #: Counters a server can report: statements executed, cache hits.
        #: The MVCC block is present (at zero) even without MVCC so the
        #: STATS wire shape is build-independent.
        self.statistics = {
            "statements": 0,
            "plan_cache_hits": 0,
            "rows_returned": 0,
            "snapshot_reads": 0,
            "versions_created": 0,
            "versions_gc": 0,
            "readonly_txns": 0,
            "auto_analyze": 0,
        }
        #: MVCC snapshot-read subsystem (DESIGN §14): commit clock, open
        #: snapshots, per-table version stores.  Opt-in so the default
        #: build stays byte-identical to the 2PL-only engine.
        self.mvcc = MvccManager(self.statistics) if mvcc else None
        #: Re-ANALYZE a table before planning when its storage ``version``
        #: drifted this far past the version the statistics were collected
        #: at.  Only tables that *have* statistics re-collect — a never-
        #: ANALYZEd database stays statistics-free (and deterministic).
        #: <= 0 disables the trigger.
        self.auto_analyze_threshold = auto_analyze_threshold
        #: Ablation switch threaded into every execution environment
        #: (paper Section 5.3.1 — uncorrelated subquery caching).
        self.enable_subquery_cache = True
        #: Ablation switch: semi-naive (True) vs naive recursive fixpoint.
        self.enable_seminaive = True
        #: name (lower) -> ast.CreateView records, expanded at plan time.
        self.views: dict = {}
        #: Counters of the most recent execution (rows scanned, index
        #: probes, subquery executions) — the input to a server-side CPU
        #: cost model.
        self.last_counters: dict = {}
        #: session token -> open :class:`_Transaction`.  Token ``None`` is
        #: the local default session (the legacy single-transaction API);
        #: a server maps each wire session to its client id.
        self._transactions: Dict[Hashable, _Transaction] = {}
        #: Monotonic transaction ids when no lock manager issues them
        #: (larger id = younger transaction).
        self._txn_seq = 0
        #: Session the currently executing statement belongs to.
        self._current_session: Hashable = None
        #: Sessions whose transaction was force-aborted (deadlock victim,
        #: lock timeout) -> reason; surfaced as :class:`DeadlockError` on
        #: the session's next statement or commit.
        self._aborted: Dict[Hashable, str] = {}
        #: Optional :class:`repro.concurrency.LockManager` enforcing
        #: strict 2PL across sessions (see :meth:`attach_lock_manager`).
        self.locks = None
        #: Optional :class:`repro.obs.TraceRecorder`; when set, every
        #: :meth:`execute` opens a ``db.execute`` span and the executor
        #: environment carries the recorder down to the fixpoint loop.
        self.recorder = None
        #: Optional :class:`repro.recovery.WalWriter` (see
        #: :meth:`attach_wal`); None keeps the database purely in-memory.
        self.wal = None
        #: The transaction the executing DML statement (or recovery redo)
        #: writes into: where :meth:`_record_change` appends each change.
        self._writer: Optional[_Transaction] = None
        #: Implicit (autocommit) WAL transaction ids are drawn from a
        #: disjoint high range so they can never collide with explicit
        #: transaction ids and merge in the log.
        self._implicit_txn_seq = 0

    # -- public API -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        session: Hashable = None,
    ) -> ResultSet:
        """Parse, plan and execute a single statement.

        *session* selects which open transaction (if any) the statement
        runs in; ``None`` is the local default session.  A statement on a
        session whose transaction was force-aborted (deadlock victim)
        raises :class:`DeadlockError` so the owner learns about the abort
        and can restart.
        """
        previous = self._current_session
        self._current_session = session
        try:
            self._check_aborted(session)
            recorder = self.recorder
            if recorder is None:
                return self._execute(sql, params)
            with recorder.span(
                "db.execute",
                kind="database",
                sql=sql if isinstance(sql, str) else type(sql).__name__,
            ) as span:
                result = self._execute(sql, params, span)
                span.meta["rows"] = len(result.rows)
                return result
        finally:
            self._current_session = previous

    def _execute(self, sql: str, params: Sequence[Any], span=None) -> ResultSet:
        self.statistics["statements"] += 1
        #: A DML statement scans nothing through the executor counters, so
        #: reset here — a server CPU model must never be charged for a
        #: previous statement's stale scan counts.
        self.last_counters = {}
        statement = None
        if isinstance(sql, str):
            cached = self._plan_cache.get(sql)
            if cached is not None and not self._auto_analyze(cached.tables):
                self.statistics["plan_cache_hits"] += 1
                self._plan_cache.move_to_end(sql)
                if span is not None:
                    span.meta["plan_cache_hit"] = True
                return self._run_select(cached, params)
            # A refreshed statistics catalog emptied the plan cache: fall
            # through and re-plan under the new estimates.
            statement = parse_statement(sql)
        else:
            statement = sql  # pre-parsed AST, used by the server fast path
        if isinstance(statement, ast.SelectStatement):
            self._auto_analyze(self._referenced_tables(statement))
            plan = self._plan(statement)
            if isinstance(sql, str):
                self._remember_plan(sql, plan)
            return self._run_select(plan, params)
        return self._execute_dml(statement, params)

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> int:
        """Execute a parameterised DML statement once per parameter row.

        Parses once; returns the total number of affected rows.  This is the
        bulk-load path used when a scenario database is generated.
        """
        statement = parse_statement(sql)
        total = 0
        for params in rows:
            result = self._execute_dml(statement, params)
            total += result.rowcount
        return total

    def execute_script(self, sql: str) -> None:
        """Execute a ``;``-separated script (DDL bootstrap)."""
        for statement in parse_script(sql):
            if isinstance(statement, ast.SelectStatement):
                plan = self._plan(statement)
                self._run_select(plan, ())
            else:
                self._execute_dml(statement, ())

    def register_function(self, name: str, function, propagate_null: bool = True) -> None:
        """Register a stored scalar function callable from SQL (SQL/PSM
        stand-in; see :mod:`repro.sqldb.functions`)."""
        self.functions.register(name, function, propagate_null=propagate_null)
        # Plans compile function calls through the registry at run time, so
        # cached plans remain valid after (re)registration.

    def table_names(self) -> List[str]:
        return self.catalog.table_names()

    def view_names(self) -> List[str]:
        return sorted(view.name for view in self.views.values())

    def table_rowcount(self, name: str) -> int:
        return len(self.catalog.lookup(name).storage)

    def explain(self, sql: str) -> ResultSet:
        """Return the physical plan of a SELECT statement as text rows."""
        return self.execute(f"EXPLAIN {sql}")

    def plan_statement(self, statement: ast.SelectStatement) -> Plan:
        """Plan a SELECT without executing or caching it.

        Public for the static analyzer (:mod:`repro.analysis`), whose
        plan-level rules inspect access paths; planning touches only the
        catalog, never table data.
        """
        return self._plan(statement)

    def lint(self, sql: str) -> list:
        """Statically analyze *sql* and return the list of
        :class:`repro.analysis.Finding` — without executing anything.

        Imported lazily: the engine layer stays importable without the
        analysis package and vice versa.
        """
        from repro.analysis import analyze_sql

        return analyze_sql(sql, database=self)

    # -- transactions ------------------------------------------------------------

    def session_in_transaction(self, session: Hashable = None) -> bool:
        return session in self._transactions

    def attach_lock_manager(self, manager) -> None:
        """Enforce strict 2PL with *manager* (a
        :class:`repro.concurrency.LockManager`): SELECTs take table-level
        shared locks, DML takes row/table exclusive locks, all released
        at commit/rollback.  The manager's deadlock victims are aborted
        through :meth:`_abort_txn`."""
        self.locks = manager
        manager.abort_callback = self._abort_txn

    #: Base of the implicit-transaction id range (see ``_implicit_txn_seq``).
    _IMPLICIT_TXN_BASE = 1 << 32

    def attach_wal(self, writer) -> None:
        """Make every mutation durable through *writer* (a
        :class:`repro.recovery.WalWriter`).

        Each row write appends a redo record under the executing
        transaction's WAL id (see :meth:`_record_change`), and
        :meth:`_finish` appends that transaction's COMMIT or ABORT record.
        """
        self.wal = writer

    def _log_ddl(self, statement) -> None:
        """Append a DDL record (the statement re-rendered to SQL text).

        DDL is rejected inside transactions, so a logged DDL statement is
        durable the moment it succeeds; recovery replays the text through
        the ordinary execute path."""
        if self.wal is None:
            return
        from repro.sqldb.render import render_statement

        self.wal.log_ddl(render_statement(statement))

    def begin(self, session: Hashable = None, read_only: bool = False) -> int:
        """Start a transaction on *session* (DML becomes undoable until
        commit); returns the transaction id.

        ``read_only=True`` (``BEGIN READ ONLY``) rejects DML for the
        transaction's lifetime; on an MVCC database it additionally
        captures a :class:`repro.sqldb.mvcc.Snapshot`, and every SELECT
        inside the transaction reads that snapshot without taking locks.
        """
        self._check_aborted(session)
        if session in self._transactions:
            raise ExecutionError("a transaction is already active")
        if self.locks is not None:
            txn_id = self.locks.begin(owner=session)
        else:
            self._txn_seq += 1
            txn_id = self._txn_seq
        txn = _Transaction(txn_id, read_only=read_only)
        if read_only:
            self.statistics["readonly_txns"] += 1
            if self.mvcc is not None:
                txn.snapshot = self.mvcc.open_snapshot()
        self._transactions[session] = txn
        return txn_id

    def commit(self, session: Hashable = None) -> None:
        """Make the session's transaction permanent."""
        self._check_aborted(session)
        txn = self._transactions.pop(session, None)
        if txn is None:
            raise ExecutionError("no transaction is active")
        self._finish(txn, commit=True)

    def rollback(self, session: Hashable = None) -> None:
        """Undo every change the session's transaction made.

        Rolling back a session whose transaction was already force-aborted
        (deadlock victim) is a no-op success — the work is already undone
        and the client is merely acknowledging the abort.
        """
        if self._aborted.pop(session, None) is not None:
            return
        txn = self._transactions.pop(session, None)
        if txn is None:
            raise ExecutionError("no transaction is active")
        self._finish(txn, commit=False)

    def transaction(self, session: Hashable = None):
        """Context manager: commit on success, roll back on exception.

        >>> db = Database()
        >>> _ = db.execute("CREATE TABLE t (v INTEGER)")
        >>> with db.transaction():
        ...     _ = db.execute("INSERT INTO t VALUES (1)")
        >>> db.table_rowcount("t")
        1
        """
        return _TransactionContext(self, session)

    def _finish(self, txn: _Transaction, commit: bool) -> None:
        """End *txn*: the one commit/abort path of explicit, implicit
        (autocommit) and recovery-replayed transactions.

        An abort first undoes ``txn.changes`` newest-first.  Then, in
        this order:

        1. the WAL COMMIT or ABORT record (nothing, for a transaction that
           logged no change).  The COMMIT append is the durability point:
           if the disk dies on it, :class:`~repro.errors.DiskCrashed`
           propagates and no later step runs, so no snapshot can see a
           version the log does not hold;
        2. version install (commit) or pending-write release (abort);
        3. snapshot close;
        4. lock release.
        """
        changes = txn.changes
        if not commit:
            for storage, op, row_id, before in reversed(changes):
                storage.undo(op, row_id, before)
        wal = self.wal
        if wal is not None:
            if commit:
                wal.commit(txn.txn_id)
            else:
                wal.abort(txn.txn_id)
        mvcc = self.mvcc
        if mvcc is not None:
            writes: List[Tuple[object, int]] = [
                (storage, row_id) for storage, _op, row_id, _before in changes
            ]
            if commit:
                mvcc.commit(writes)
            else:
                mvcc.abort(writes)
            if txn.snapshot is not None:
                mvcc.close_snapshot(txn.snapshot)
        if self.locks is not None and txn.lock_owner is not None:
            self.locks.release_all(txn.lock_owner)

    def _abort_txn(self, txn_id: int) -> None:
        """Force-abort the transaction with *txn_id* (deadlock victim).

        Called back by the lock manager while some *other* session's
        acquire is in progress; the victim's session learns about it via
        :class:`DeadlockError` on its next statement, commit, or (as a
        no-op) rollback.
        """
        for session, txn in list(self._transactions.items()):
            if txn.txn_id == txn_id:
                del self._transactions[session]
                self._finish(txn, commit=False)
                self._aborted[session] = (
                    f"transaction {txn_id} was aborted as a deadlock victim; "
                    f"restart the transaction"
                )
                return

    def _check_aborted(self, session: Hashable) -> None:
        reason = self._aborted.pop(session, None)
        if reason is not None:
            raise DeadlockError(reason)

    # -- the change sink ------------------------------------------------------------

    def _record_change(self, storage, op: str, row_id: int, before, after) -> None:
        """The change sink of every table: called once per row write.

        Appends the change to the executing transaction, appends its WAL
        redo record under that transaction's id, and — on an MVCC
        database — captures the slot's committed pre-image, so snapshots
        keep reading it until :meth:`_finish` installs the new version.
        Every row write runs inside a DML statement or a recovery redo,
        which set ``_writer``.
        """
        txn = self._writer
        assert txn is not None, "row write outside a transaction"
        txn.changes.append((storage, op, row_id, before))
        wal = self.wal
        if wal is not None:
            table = storage.schema.name
            if op == "insert":
                wal.log_insert(txn.txn_id, table, row_id, after)
            elif op == "update":
                wal.log_update(txn.txn_id, table, row_id, after)
            else:
                wal.log_delete(txn.txn_id, table, row_id)
        if storage.mvcc is not None:
            storage.mvcc.record_write(row_id, before)

    @contextmanager
    def _writing(self, txn: _Transaction):
        """Route the row writes made inside the block to *txn*.

        An implicit *txn* commits at exit even when the block raised: a
        multi-row autocommit INSERT keeps its pre-error rows in memory,
        and the log and the version store must agree with memory.
        """
        previous, self._writer = self._writer, txn
        try:
            yield
        finally:
            self._writer = previous
            if txn.implicit:
                self._finish(txn, commit=True)

    def redo(self, txn_id: int):
        """Recovery replay of one committed transaction, as a context
        manager: the row writes made inside the block commit through
        :meth:`_finish` as the original commit did, so the MVCC commit
        clock bumps once per writing transaction, in log order, and
        rebuilds exactly."""
        return self._writing(_Transaction(txn_id, implicit=True))

    def _current_snapshot(self):
        """The executing session's snapshot, when it is a read-only
        transaction on an MVCC database; else None (locking reads)."""
        if self.mvcc is None:
            return None
        txn = self._transactions.get(self._current_session)
        if txn is None:
            return None
        return txn.snapshot

    def adopt_storage(self, schema, storage) -> None:
        """Register an externally built storage (checkpoint restore) with
        the catalog, the change sink and, under MVCC, a version store."""
        self.catalog.create(schema, storage)
        storage.sink = self._record_change
        if self.mvcc is not None:
            self.mvcc.register(storage)

    # -- locking ------------------------------------------------------------------

    @contextmanager
    def _lock_scope(self):
        """Lock-owner scope of one read (SELECT, EXPLAIN ANALYZE,
        ANALYZE); DML locks through its transaction (:meth:`_txn_locks`).

        Inside a transaction, locks attach to it and live until
        commit/rollback (strict 2PL).  Autocommit reads get an ephemeral
        owner released at statement end; their conflicts fail fast
        (``park=False``) because there is no transaction to keep a queue
        position for.  Yields ``(owner_id, parkable)`` or
        ``(None, False)`` when no lock manager is attached.
        """
        if self.locks is None:
            yield None, False
            return
        txn = self._transactions.get(self._current_session)
        if txn is not None:
            yield txn.lock_owner, True
            return
        owner = self.locks.begin(owner="autocommit")
        try:
            yield owner, False
        finally:
            self.locks.release_all(owner)

    def _txn_locks(self, txn: _Transaction) -> Tuple[Optional[int], bool]:
        """``(owner_id, parkable)`` for *txn*'s DML locks, like
        :meth:`_lock_scope` yields; ``(None, False)`` without a lock
        manager.  An implicit transaction begins its ephemeral owner
        here, on its first lock request."""
        if self.locks is None:
            return None, False
        if txn.lock_owner is None:
            txn.lock_owner = self.locks.begin(owner="autocommit")
        return txn.lock_owner, not txn.implicit

    def _acquire_lock(self, owner, parkable, table, row_id, mode) -> None:
        if owner is None:
            return
        try:
            self.locks.acquire(owner, table, row_id, mode, park=parkable)
        except (DeadlockError, LockTimeout):
            # This session is the victim: its transaction (if any) is
            # rolled back here so the raised error leaves a clean slate.
            txn = self._transactions.pop(self._current_session, None)
            if txn is not None:
                self._finish(txn, commit=False)
            raise

    def _acquire_footprint(self, owner, parkable, requests) -> None:
        """Acquire the table-granularity part of a static lock footprint
        (see :mod:`repro.concurrency.footprint`, the shared source of
        truth with the transaction analyzer).  ROWS-granularity requests
        are bound to actual row ids by :meth:`_acquire_row_locks` once
        the matching rows are known."""
        from repro.concurrency.footprint import Granularity  # local: avoid cycle

        for request in requests:
            if request.granularity is Granularity.TABLE:
                self._acquire_lock(
                    owner, parkable, request.table, None, request.mode
                )

    def _acquire_row_locks(self, owner, parkable, requests, row_ids) -> None:
        """Bind every ROWS-granularity request of a footprint to the
        matched *row_ids*, acquiring one row lock per row *before* the
        first mutation (a conflict aborts with nothing to undo)."""
        from repro.concurrency.footprint import Granularity  # local: avoid cycle

        for request in requests:
            if request.granularity is Granularity.ROWS:
                for row_id in row_ids:
                    self._acquire_lock(
                        owner, parkable, request.table, row_id, request.mode
                    )

    def _lock_tables_shared(self, owner, parkable, tables) -> None:
        from repro.concurrency.footprint import select_footprint  # local: avoid cycle

        self._acquire_footprint(owner, parkable, select_footprint(tables))

    def _where_subquery_tables(self, where) -> Tuple[str, ...]:
        """Base tables referenced by subqueries of a DML WHERE clause —
        they are read, so they need shared locks too."""
        from repro.concurrency.footprint import where_subquery_tables  # local: avoid cycle

        return where_subquery_tables(where, self._referenced_tables)

    # -- planning / environments -----------------------------------------------

    def _plan(self, statement: ast.SelectStatement) -> Plan:
        planner = Planner(
            self.catalog,
            self.functions,
            views=self.views,
            stats=self.stats,
            cost_based=self.planner_mode == "cost",
        )
        plan = planner.plan_select(statement)
        plan.tables = self._referenced_tables(statement)
        return plan

    def _referenced_tables(self, statement: ast.SelectStatement) -> Tuple[str, ...]:
        """Base tables *statement* reads, with views expanded to their
        underlying tables (recursively)."""
        names: set = set()
        pending = list(ast_walk.referenced_tables(statement))
        seen: set = set()
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            view = self.views.get(name)
            if view is not None:
                pending.extend(ast_walk.referenced_tables(view.select))
            else:
                names.add(name)
        return tuple(sorted(names))

    def _remember_plan(self, sql: str, plan: Plan) -> None:
        self._plan_cache[sql] = plan
        if len(self._plan_cache) > self._plan_cache_size:
            self._plan_cache.popitem(last=False)

    def _environment(self, params: Sequence[Any]) -> ExecutionEnv:
        env = ExecutionEnv(
            params=params,
            functions=self.functions,
            recursion_limit=self.recursion_limit,
        )
        env.enable_subquery_cache = self.enable_subquery_cache
        env.enable_seminaive = self.enable_seminaive
        env.recorder = self.recorder
        env.snapshot = self._current_snapshot()
        return env

    @contextmanager
    def _read_scope(self, tables: Tuple[str, ...]):
        """Isolation scope of one read of *tables*.

        A read-only transaction on an MVCC database reads its snapshot:
        visibility replaces shared locks entirely — no lock scope, no
        waits, no deadlock exposure.  Every other read takes shared locks
        on *tables* (held to commit inside a transaction, strict 2PL).
        """
        if self._current_snapshot() is not None:
            self.statistics["snapshot_reads"] += 1
            yield
            return
        with self._lock_scope() as (owner, parkable):
            self._lock_tables_shared(owner, parkable, tables)
            yield

    def _run_select(self, plan: Plan, params: Sequence[Any]) -> ResultSet:
        with self._read_scope(plan.tables):
            env = self._environment(params)
            rows = execute_plan(plan, env)
        self.statistics["rows_returned"] += len(rows)
        self.last_counters = dict(env.counters)
        return ResultSet(plan.output_names, rows)

    # -- DML / DDL ----------------------------------------------------------------

    #: Statement types whose effects (catalog mutations, index builds)
    #: rollback cannot reverse — rejected inside any transaction.
    _DDL_STATEMENTS = (
        ast.CreateTable,
        ast.CreateIndex,
        ast.DropTable,
        ast.CreateView,
        ast.DropView,
    )

    def _execute_dml(self, statement, params: Sequence[Any]) -> ResultSet:
        if self.session_in_transaction(self._current_session) and isinstance(
            statement, self._DDL_STATEMENTS
        ):
            raise ExecutionError(
                f"DDL ({type(statement).__name__}) is not allowed inside a "
                f"transaction: catalog changes are not covered by the undo "
                f"log and could not be rolled back"
            )
        if isinstance(statement, ast.CreateTable):
            result = self._create_table(statement)
            self._log_ddl(statement)
            return result
        if isinstance(statement, ast.CreateIndex):
            entry = self.catalog.lookup(statement.table)
            entry.storage.create_index(
                statement.name, statement.columns, unique=statement.unique
            )
            self._log_ddl(statement)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.DropTable):
            if self.mvcc is not None:
                self.mvcc.forget(self.catalog.lookup(statement.name).schema.name)
            self.catalog.drop(statement.name)
            self.stats.drop(statement.name)
            self._plan_cache.clear()
            self._log_ddl(statement)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            txn = self._transactions.get(self._current_session)
            if txn is not None and txn.read_only:
                raise ExecutionError(
                    f"{type(statement).__name__.upper()} is not allowed "
                    f"inside a READ ONLY transaction"
                )
            if txn is None:
                self._implicit_txn_seq += 1
                txn = _Transaction(
                    self._IMPLICIT_TXN_BASE + self._implicit_txn_seq, implicit=True
                )
            with self._writing(txn):
                if isinstance(statement, ast.Insert):
                    return self._insert(statement, params, txn)
                if isinstance(statement, ast.Update):
                    return self._update(statement, params, txn)
                return self._delete(statement, params, txn)
        if isinstance(statement, ast.CreateView):
            result = self._create_view(statement)
            self._log_ddl(statement)
            return result
        if isinstance(statement, ast.DropView):
            key = statement.name.lower()
            if key not in self.views:
                raise CatalogError(f"view {statement.name!r} does not exist")
            del self.views[key]
            self._plan_cache.clear()
            self._log_ddl(statement)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.BeginTransaction):
            self.begin(self._current_session, read_only=statement.read_only)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.CommitTransaction):
            self.commit(self._current_session)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.RollbackTransaction):
            self.rollback(self._current_session)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.Explain):
            from repro.sqldb.explain import explain_analyze_plan, explain_plan

            self._auto_analyze(self._referenced_tables(statement.statement))
            plan = self._plan(statement.statement)
            if statement.analyze:
                # EXPLAIN ANALYZE plans are never cached, so the operator
                # instances are fresh and safe to instrument in place.  The
                # plan runs, so it reads under the same isolation as SELECT.
                with self._read_scope(plan.tables):
                    env = self._environment(params)
                    lines = explain_analyze_plan(plan, env)
            else:
                lines = explain_plan(plan)
            return ResultSet(["plan"], [(line,) for line in lines])
        if isinstance(statement, ast.Lint):
            from repro.analysis import analyze_statement

            findings = analyze_statement(statement.statement, database=self)
            return ResultSet(
                ["rule_id", "severity", "message", "node_path"],
                [finding.as_row() for finding in findings],
            )
        if isinstance(statement, ast.LintTransaction):
            from repro.analysis.txn import analyze_transaction_sql

            # Purely static: the quoted script is parsed and analyzed,
            # never executed — database state is byte-identical after.
            findings = analyze_transaction_sql(statement.script, database=self)
            return ResultSet(
                ["rule_id", "severity", "message", "node_path"],
                [finding.as_row() for finding in findings],
            )
        if isinstance(statement, ast.Analyze):
            return self._analyze(statement)
        raise ExecutionError(
            f"unsupported statement type {type(statement).__name__}"
        )

    def _analyze(self, statement: ast.Analyze) -> ResultSet:
        """``ANALYZE [table]`` — collect optimizer statistics.

        Deliberately not DDL: it changes no data and no schema, so it is
        allowed inside transactions and is never WAL-logged.  Cached plans
        were chosen under the old statistics, so the plan cache is
        cleared.
        """
        if statement.table is not None:
            entries = [self.catalog.lookup(statement.table)]
        else:
            entries = [
                self.catalog.lookup(name)
                for name in sorted(self.catalog.table_names(), key=str.lower)
            ]
        rows: List[tuple] = []
        with self._lock_scope() as (owner, parkable):
            self._lock_tables_shared(
                owner, parkable, tuple(entry.schema.name for entry in entries)
            )
            for entry in entries:
                table_stats = self.stats.analyze_table(entry.schema, entry.storage)
                rows.append(
                    (
                        entry.schema.name,
                        table_stats.row_count,
                        len(table_stats.columns),
                    )
                )
        self._plan_cache.clear()
        return ResultSet(["table", "rows", "columns"], rows)

    def _auto_analyze(self, tables: Tuple[str, ...]) -> bool:
        """Refresh statistics of any of *tables* whose storage drifted
        ``auto_analyze_threshold`` mutations past its last ANALYZE.

        Only tables that already have statistics qualify — the trigger
        keeps estimates fresh, it never introduces them — so a database
        that was never ANALYZEd (e.g. the deterministic contention sims)
        is entirely unaffected.  Returns True when anything re-collected
        (the plan cache was cleared: callers holding a cached plan must
        re-plan).  Skipped under a snapshot read, which must stay
        lock-free.
        """
        threshold = self.auto_analyze_threshold
        if threshold <= 0 or self._current_snapshot() is not None:
            return False
        stale = []
        for name in tables:
            table_stats = self.stats.get(name)
            if table_stats is None or not self.catalog.exists(name):
                continue
            entry = self.catalog.lookup(name)
            if entry.storage.version - table_stats.version >= threshold:
                stale.append(entry)
        if not stale:
            return False
        with self._lock_scope() as (owner, parkable):
            self._lock_tables_shared(
                owner, parkable, tuple(entry.schema.name for entry in stale)
            )
            for entry in stale:
                self.stats.analyze_table(entry.schema, entry.storage)
        self.statistics["auto_analyze"] += len(stale)
        self._plan_cache.clear()
        return True

    def _create_view(self, statement: ast.CreateView) -> ResultSet:
        key = statement.name.lower()
        if self.catalog.exists(statement.name) or key in self.views:
            raise CatalogError(
                f"a table or view named {statement.name!r} already exists"
            )
        # Validate the definition now (plannable, column arity) so broken
        # views fail at CREATE time, not at first use.
        planner = Planner(
            self.catalog,
            self.functions,
            views=self.views,
            stats=self.stats,
            cost_based=self.planner_mode == "cost",
        )
        plan = planner.plan_select(statement.select)
        if statement.columns is not None and len(statement.columns) != len(
            plan.output_names
        ):
            raise CatalogError(
                f"view {statement.name!r} declares {len(statement.columns)} "
                f"columns but its query produces {len(plan.output_names)}"
            )
        self.views[key] = statement
        self._plan_cache.clear()
        return ResultSet([], [], rowcount=0)

    def _create_table(self, statement: ast.CreateTable) -> ResultSet:
        schema = TableSchema(
            name=statement.name,
            columns=[
                Column(
                    name=column.name,
                    sql_type=column.sql_type,
                    not_null=column.not_null,
                    primary_key=column.primary_key,
                )
                for column in statement.columns
            ],
        )
        storage = TableStorage(schema)
        self.adopt_storage(schema, storage)
        return ResultSet([], [], rowcount=0)

    def _insert(
        self, statement: ast.Insert, params: Sequence[Any], txn: _Transaction
    ) -> ResultSet:
        from repro.concurrency.footprint import insert_footprint  # local: avoid cycle

        entry = self.catalog.lookup(statement.table)
        # Table-level X on the target: serialises inserts against scans
        # holding the table-level S, which closes the phantom window.
        # INSERT ... SELECT sources are read, so they take table-S.
        sources = (
            self._referenced_tables(statement.select)
            if statement.rows is None
            else ()
        )
        requests = insert_footprint(entry.schema.name, sources)
        self._acquire_footprint(*self._txn_locks(txn), requests)
        schema = entry.schema
        if statement.columns is not None:
            positions = [schema.column_index(name) for name in statement.columns]
        else:
            positions = list(range(schema.arity))
        env = self._environment(params)
        source_rows: List[Tuple[Any, ...]]
        if statement.rows is not None:
            ctx = CompileContext([Frame(Scope([]))], self._reject_subquery, self.functions)
            source_rows = []
            for value_exprs in statement.rows:
                if len(value_exprs) != len(positions):
                    raise IntegrityError(
                        f"INSERT supplies {len(value_exprs)} values for "
                        f"{len(positions)} columns"
                    )
                closures = [compile_expression(expr, ctx) for expr in value_exprs]
                source_rows.append(tuple(fn((), env) for fn in closures))
        else:
            plan = self._plan(statement.select)
            source_rows = execute_plan(plan, env)
            if source_rows and len(source_rows[0]) != len(positions):
                raise IntegrityError(
                    "INSERT ... SELECT column count mismatch"
                )
        inserted = 0
        for values in source_rows:
            full_row: List[Any] = [None] * schema.arity
            for position, value in zip(positions, values):
                column = schema.columns[position]
                full_row[position] = (
                    None if is_null(value) else coerce_value(value, column.sql_type)
                )
            entry.storage.insert(full_row)
            inserted += 1
        return ResultSet([], [], rowcount=inserted)

    def _reject_subquery(self, statement, frames):
        # INSERT ... VALUES may not embed subqueries in this dialect; the
        # planner callback position still has to exist for the compiler.
        raise ExecutionError("subqueries are not allowed in VALUES lists")

    def _table_context(self, entry) -> Tuple[CompileContext, Scope]:
        scope = Scope([(entry.schema.name, entry.schema.column_names)])
        planner = Planner(
            self.catalog,
            self.functions,
            views=self.views,
            stats=self.stats,
            cost_based=self.planner_mode == "cost",
        )
        frames = [Frame(scope)]
        ctx = CompileContext(frames, planner._plan_subquery, self.functions)
        return ctx, scope

    def _matching_row_ids(self, entry, where, params, env) -> List[int]:
        ctx, __ = self._table_context(entry)
        predicate = (
            compile_expression(where, ctx) if where is not None else None
        )
        matches = []
        for row_id, row in entry.storage.scan():
            if predicate is None or predicate(row, env) is True:
                matches.append(row_id)
        return matches

    def _update(
        self, statement: ast.Update, params: Sequence[Any], txn: _Transaction
    ) -> ResultSet:
        from repro.concurrency.footprint import update_footprint  # local: avoid cycle

        entry = self.catalog.lookup(statement.table)
        schema = entry.schema
        env = self._environment(params)
        ctx, __ = self._table_context(entry)
        compiled = [
            (schema.column_index(column), compile_expression(value, ctx))
            for column, value in statement.assignments
        ]
        requests = update_footprint(
            schema.name,
            statement.where,
            self._where_subquery_tables(statement.where),
        )
        owner, parkable = self._txn_locks(txn)
        self._acquire_footprint(owner, parkable, requests)
        row_ids = self._matching_row_ids(entry, statement.where, params, env)
        # Row-level X on every matched row *before* the first mutation:
        # a conflict aborts the statement with nothing to undo, and the
        # rows are re-fetched below after the grant, so an assignment
        # like ``v = v + 1`` always reads the latest committed value.
        self._acquire_row_locks(owner, parkable, requests, row_ids)
        for row_id in row_ids:
            old_row = entry.storage.fetch(row_id)
            row = list(old_row)
            # SQL semantics: every assignment sees the pre-update row.
            for position, closure in compiled:
                value = closure(old_row, env)
                column = schema.columns[position]
                row[position] = (
                    None if is_null(value) else coerce_value(value, column.sql_type)
                )
            entry.storage.update(row_id, row)
        return ResultSet([], [], rowcount=len(row_ids))

    def _delete(
        self, statement: ast.Delete, params: Sequence[Any], txn: _Transaction
    ) -> ResultSet:
        from repro.concurrency.footprint import delete_footprint  # local: avoid cycle

        entry = self.catalog.lookup(statement.table)
        env = self._environment(params)
        requests = delete_footprint(
            entry.schema.name,
            statement.where,
            self._where_subquery_tables(statement.where),
        )
        owner, parkable = self._txn_locks(txn)
        self._acquire_footprint(owner, parkable, requests)
        row_ids = self._matching_row_ids(entry, statement.where, params, env)
        self._acquire_row_locks(owner, parkable, requests, row_ids)
        for row_id in row_ids:
            entry.storage.delete(row_id)
        return ResultSet([], [], rowcount=len(row_ids))


class _TransactionContext:
    """Context manager returned by :meth:`Database.transaction`."""

    def __init__(self, database: Database, session: Hashable = None) -> None:
        self._database = database
        self._session = session

    def __enter__(self) -> Database:
        self._database.begin(self._session)
        return self._database

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._database.commit(self._session)
        else:
            try:
                self._database.rollback(self._session)
            except ExecutionError:
                # The transaction may already be gone: a deadlock/timeout
                # victim is rolled back at the point of the conflict, so
                # there is nothing left to undo here.
                pass
        return False
