"""The database server: executes wire requests against a local Database.

Besides plain query execution, the server supports *server procedures* —
named Python callables installed next to the database.  These model the
paper's conclusion for check-out ("application-specific functionality
performing the desired user action has to be installed at the database
server", Section 6): the whole multi-statement operation runs server-side
and only one round trip crosses the WAN.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import Severity, errors_only
from repro.errors import (
    DeadlockError,
    DiskCrashed,
    DuplicateRequest,
    DurabilityError,
    FrameCorrupted,
    LintViolation,
    LockTimeout,
    LockUnavailable,
    ProtocolError,
    ReproError,
    ServerUnavailable,
    SQLError,
)
from repro.obs import ROWS_BUCKETS, maybe_span
from repro.server import protocol
from repro.server.protocol import Opcode
from repro.sqldb import wire
from repro.sqldb.database import Database

#: A server procedure receives the database and the call arguments and
#: returns a flat list of values shipped back to the client.
ServerProcedure = Callable[..., Sequence[Any]]


class CpuCostModel:
    """Simulated server-side query evaluation cost.

    The paper deliberately ignores local evaluation time ("transmission
    costs are the dominating limitation factor", Section 6) but notes that
    "in higher bandwidth environments ... it may be reasonable to take
    local query execution time into consideration".  This model charges a
    fixed cost per statement plus a cost per row the executor scanned;
    the defaults of zero reproduce the paper's convention.
    """

    def __init__(
        self,
        seconds_per_statement: float = 0.0,
        seconds_per_row_scanned: float = 0.0,
    ) -> None:
        self.seconds_per_statement = seconds_per_statement
        self.seconds_per_row_scanned = seconds_per_row_scanned

    @property
    def enabled(self) -> bool:
        return self.seconds_per_statement > 0 or self.seconds_per_row_scanned > 0

    def cost(self, statements: int, rows_scanned: int) -> float:
        return (
            statements * self.seconds_per_statement
            + rows_scanned * self.seconds_per_row_scanned
        )


class DatabaseServer:
    """Request handler bound to one :class:`Database` instance."""

    def __init__(
        self,
        database: Database,
        cpu_cost: Optional[CpuCostModel] = None,
        strict_lint: bool = False,
        sessions=None,
        durability=None,
    ) -> None:
        self.database = database
        self.cpu_cost = cpu_cost if cpu_cost is not None else CpuCostModel()
        #: Optional :class:`repro.recovery.Durability` bundle.  With one,
        #: the server has a deterministic :meth:`crash`/:meth:`restart`
        #: lifecycle: a :class:`DiskCrashed` from the WAL takes the server
        #: down, and restart rebuilds the database by log replay.
        self.durability = durability
        #: While True every request is refused with
        #: :class:`ServerUnavailable` (sequenced requests get a wrapped
        #: refusal so session-mode clients see it as a reply, not noise).
        self.crashed = False
        #: Optional :class:`repro.concurrency.SessionManager`; without one
        #: the session/transaction opcodes are rejected and every wire
        #: statement runs on the database's default session, as before.
        self.sessions = sessions
        #: Client id of the SEQUENCED frame being handled (routes QUERY /
        #: BATCH statements to that client's session transaction).
        self._active_client: Optional[int] = None
        #: With strict lint on, statements with ERROR-severity analyzer
        #: findings (non-linear / non-monotonic recursion, misplaced tree
        #: conditions) are rejected with a :class:`LintViolation` ERROR
        #: frame *before* execution — the statement never runs.
        self.strict_lint = strict_lint
        #: sql text -> LintViolation (or None for clean/unlintable text);
        #: a navigational client repeats identical statement text, so the
        #: gate is an LRU on exactly that text.
        self._lint_cache: "OrderedDict[str, Optional[LintViolation]]" = (
            OrderedDict()
        )
        self.lint_cache_size = 256
        #: CPU seconds charged for the most recent request (consumed by
        #: the client driver to advance the simulated clock).
        self.last_cpu_seconds = 0.0
        #: Rows the executor scanned for the current request, accumulated
        #: per statement so a BATCH of N statements is charged for all N
        #: scans, not just the last one.
        self._request_rows_scanned = 0
        #: Optional :class:`repro.obs.TraceRecorder` (see
        #: :func:`repro.obs.instrument_stack`); None keeps handling
        #: untraced and free.
        self.recorder = None
        self._procedures: Dict[str, ServerProcedure] = {}
        #: (client id, sequence number) -> wrapped response.  Answering a
        #: retransmission from here (instead of re-executing) is what
        #: makes retried EXECUTE/BATCH requests idempotent.
        self._replay_cache: "OrderedDict[Tuple[int, int], bytes]" = OrderedDict()
        self.replay_cache_size = 512
        self.statistics = {
            "queries": 0,
            "procedure_calls": 0,
            "batches": 0,
            "batch_statements": 0,
            "errors": 0,
            "cpu_seconds": 0.0,
            "sequenced_requests": 0,
            "duplicates_suppressed": 0,
            "crc_rejects": 0,
            "lint_checks": 0,
            "lint_rejections": 0,
            "lock_waits": 0,
            "deadlocks": 0,
            "txn_aborts": 0,
            "readonly_txns": 0,
            "crashes": 0,
            "recoveries": 0,
            "replayed_records": 0,
            "hwm_suppressed": 0,
            "unavailable_refusals": 0,
        }

    def _lint_gate(self, sql: str) -> None:
        """Raise :class:`LintViolation` for ERROR-severity findings.

        Purely static: the analyzer parses and plans but never executes,
        so a gated statement has no effect on the database whatsoever.
        Lint failures of the analyzer itself (unparseable text, unknown
        tables) are swallowed — execution will report the real error.
        """
        if not self.strict_lint:
            return
        self.statistics["lint_checks"] += 1
        if sql in self._lint_cache:
            self._lint_cache.move_to_end(sql)
            violation = self._lint_cache[sql]
        else:
            violation = None
            try:
                findings = self.database.lint(sql)
            except SQLError:
                findings = []
            errors = errors_only(findings)
            if errors:
                details = "; ".join(
                    f"{f.rule_id} [{f.node_path}] {f.message}" for f in errors
                )
                violation = LintViolation(
                    f"statement rejected by strict lint: {details}"
                )
            self._lint_cache[sql] = violation
            while len(self._lint_cache) > self.lint_cache_size:
                self._lint_cache.popitem(last=False)
        if violation is not None:
            self.statistics["lint_rejections"] += 1
            raise violation

    def _script_lint_gate(
        self, statements: Sequence[Tuple[str, Sequence[Any]]]
    ) -> None:
        """Raise :class:`LintViolation` for C-rule ERRORs in a batch.

        A multi-statement BATCH is a transaction script: with strict lint
        on it runs through the transaction analyzer
        (:mod:`repro.analysis.txn`) *before the first statement
        executes*, and a C-rule ERROR (non-idempotent DML outside a
        retry envelope, DDL inside a transaction) rejects the whole
        batch — the database state is untouched.  SEQUENCED batches are
        analyzed as sequenced (the replay cache makes retries
        exactly-once, so C002 does not apply).  Per-statement base rules
        are still gated one by one by :meth:`_lint_gate`, preserving the
        entry-level error shape for non-script violations.
        """
        if not self.strict_lint or len(statements) < 2:
            return
        self.statistics["lint_checks"] += 1
        sequenced = self._active_client is not None
        joined = ";\n".join(sql for sql, __ in statements)
        key = f"script:{int(sequenced)}:{joined}"
        if key in self._lint_cache:
            self._lint_cache.move_to_end(key)
            violation = self._lint_cache[key]
        else:
            from repro.analysis import analyze_transaction_sql

            violation = None
            try:
                findings = analyze_transaction_sql(
                    joined, database=self.database, sequenced=sequenced
                )
            except SQLError:
                # Unparseable as a script: execution reports the real
                # error per entry with full context.
                findings = []
            errors = [
                f
                for f in findings
                if f.severity >= Severity.ERROR and f.rule_id.startswith("C")
            ]
            if errors:
                details = "; ".join(
                    f"{f.rule_id} [{f.node_path}] {f.message}" for f in errors
                )
                violation = LintViolation(
                    f"batch rejected by strict script lint: {details}"
                )
            self._lint_cache[key] = violation
            while len(self._lint_cache) > self.lint_cache_size:
                self._lint_cache.popitem(last=False)
        if violation is not None:
            self.statistics["lint_rejections"] += 1
            raise violation

    def register_procedure(self, name: str, procedure: ServerProcedure) -> None:
        """Install a server procedure callable via CALL_PROCEDURE requests."""
        self._procedures[name.lower()] = procedure

    def procedure_names(self) -> List[str]:
        return sorted(self._procedures)

    def handle(self, frame: bytes) -> bytes:
        """Process one request envelope and return the response envelope.

        Errors raised by the engine are converted into ERROR envelopes, so
        a malformed query costs a round trip but never kills the server —
        matching real client/server DBMS behaviour.
        """
        if self.crashed:
            return self._refuse_unavailable(frame)
        if frame[:1] == bytes([int(Opcode.SEQUENCED)]):
            return self._handle_sequenced(frame[1:])
        self.last_cpu_seconds = 0.0
        self._request_rows_scanned = 0
        statements_before = self.database.statistics["statements"]
        recorder = self.recorder
        with maybe_span(
            recorder, "server.handle", kind="server", frame_bytes=len(frame)
        ) as span:
            try:
                opcode, body = protocol.decode_envelope(frame)
                if span is not None:
                    span.meta["opcode"] = opcode.name
                if opcode is Opcode.QUERY:
                    response = self._handle_query(body)
                elif opcode is Opcode.CALL_PROCEDURE:
                    response = self._handle_procedure(body)
                elif opcode is Opcode.BATCH:
                    response = self._handle_batch(body)
                elif opcode is Opcode.STATS:
                    response = self._handle_stats(body)
                elif opcode is Opcode.PING:
                    response = protocol.encode_envelope(Opcode.PONG)
                elif opcode in protocol.SESSION_OPCODES:
                    response = self._handle_session_op(opcode, body)
                else:
                    raise ProtocolError(
                        f"unexpected request opcode {opcode.name}"
                    )
            except DiskCrashed as error:
                # The WAL disk lost power mid-append: all volatile state
                # (sessions, locks, caches, the in-memory tables) is gone.
                # Take the server down; only restart() brings it back.
                self.crash()
                self.statistics["errors"] += 1
                if span is not None:
                    span.meta["error"] = type(error).__name__
                return protocol.encode_envelope(
                    Opcode.ERROR,
                    protocol.encode_error(
                        ServerUnavailable(f"server crashed: {error}")
                    ),
                )
            except ReproError as error:
                self._note_concurrency_error(error)
                self.statistics["errors"] += 1
                if span is not None:
                    span.meta["error"] = type(error).__name__
                return protocol.encode_envelope(
                    Opcode.ERROR, protocol.encode_error(error)
                )
            except Exception as error:  # noqa: BLE001 — last-resort guard
                # A bug below the wire layer (or a misbehaving server
                # procedure) must cost the client an error round trip,
                # never kill the server loop.
                self.statistics["errors"] += 1
                if span is not None:
                    span.meta["error"] = type(error).__name__
                    span.meta["unexpected"] = True
                wrapped = ProtocolError(
                    f"internal server error: "
                    f"{type(error).__name__}: {error}"
                )
                return protocol.encode_envelope(
                    Opcode.ERROR, protocol.encode_error(wrapped)
                )
            if self.cpu_cost.enabled:
                statements = (
                    self.database.statistics["statements"] - statements_before
                )
                self.last_cpu_seconds = self.cpu_cost.cost(
                    statements, self._request_rows_scanned
                )
                self.statistics["cpu_seconds"] += self.last_cpu_seconds
            return response

    def _handle_sequenced(self, body: bytes) -> bytes:
        """At-most-once execution for sequenced requests.

        A CRC-failed body (bit flip or truncation in transit) is answered
        with a retriable ``FrameCorrupted`` error frame; a (client, seq)
        pair seen before is answered from the replay cache *without*
        touching the database, so a retransmitted UPDATE never applies
        twice; anything else is handled normally and the wrapped response
        cached.
        """
        try:
            client_id, seq, inner = protocol.decode_sequenced(body)
        except ProtocolError as error:
            self.statistics["crc_rejects"] += 1
            self.statistics["errors"] += 1
            self.last_cpu_seconds = 0.0
            return protocol.encode_envelope(
                Opcode.ERROR,
                protocol.encode_error(FrameCorrupted(str(error))),
            )
        if inner[:1] == bytes([int(Opcode.SEQUENCED)]):
            self.statistics["errors"] += 1
            self.last_cpu_seconds = 0.0
            return protocol.encode_envelope(
                Opcode.ERROR,
                protocol.encode_error(
                    ProtocolError("nested sequenced frames are not allowed")
                ),
            )
        self.statistics["sequenced_requests"] += 1
        key = (client_id, seq)
        cached = self._replay_cache.get(key)
        recorder = self.recorder
        if cached is not None:
            self.statistics["duplicates_suppressed"] += 1
            self.last_cpu_seconds = 0.0
            with maybe_span(
                recorder,
                "server.handle",
                kind="server",
                sequenced=True,
                client_id=client_id,
                seq=seq,
                replay_hit=True,
            ):
                pass
            return cached
        wal = self.database.wal
        if wal is not None and 0 < seq <= wal.hwm.get(client_id, 0):
            # The durable high-water mark proves this sequence number
            # already drove a commit before a crash wiped the replay
            # cache.  Re-executing would apply the work twice; answer
            # with a distinguishable refusal instead (at-most-once
            # across restarts).
            self.statistics["hwm_suppressed"] += 1
            wrapped = protocol.encode_envelope(
                Opcode.SEQUENCED_RESULT,
                protocol.encode_sequenced(
                    client_id,
                    seq,
                    protocol.encode_envelope(
                        Opcode.ERROR,
                        protocol.encode_error(
                            DuplicateRequest(
                                f"sequence {seq} of client {client_id} was "
                                f"executed and committed before a server "
                                f"restart; its response was lost with the "
                                f"crash"
                            )
                        ),
                    ),
                ),
            )
            self._replay_cache[key] = wrapped
            return wrapped
        with maybe_span(
            recorder,
            "server.sequenced",
            kind="server",
            client_id=client_id,
            seq=seq,
        ):
            previous = self._active_client
            previous_origin = wal.origin if wal is not None else None
            self._active_client = client_id
            if wal is not None:
                # Commits performed while handling this request carry its
                # (client, seq) into the log — the durable twin of the
                # replay cache.
                wal.origin = (client_id, seq)
            try:
                response = self.handle(inner)
            finally:
                self._active_client = previous
                if wal is not None:
                    wal.origin = previous_origin
        wrapped = protocol.encode_envelope(
            Opcode.SEQUENCED_RESULT,
            protocol.encode_sequenced(client_id, seq, response),
        )
        if self.crashed:
            # The request crashed the server: never cache the refusal —
            # a retry after restart must re-resolve against the durable
            # high-water mark, not replay a stale "unavailable".
            return wrapped
        self._replay_cache[key] = wrapped
        while len(self._replay_cache) > self.replay_cache_size:
            self._replay_cache.popitem(last=False)
        return wrapped

    # -- crash / restart ----------------------------------------------------

    def _refuse_unavailable(self, frame: bytes) -> bytes:
        """Answer a request arriving at a crashed server.

        Sequenced requests get the refusal wrapped in a SEQUENCED_RESULT
        (CRC-framed, matching the request's client and sequence number)
        so session-mode clients decode it as a definite answer instead of
        discarding it as transport damage and retrying forever.  Nothing
        is cached: the refusal describes the server, not the request.
        """
        self.last_cpu_seconds = 0.0
        self.statistics["unavailable_refusals"] += 1
        error_frame = protocol.encode_envelope(
            Opcode.ERROR,
            protocol.encode_error(
                ServerUnavailable(
                    "server is crashed; wait for restart and retry"
                )
            ),
        )
        if frame[:1] == bytes([int(Opcode.SEQUENCED)]):
            try:
                client_id, seq, __ = protocol.decode_sequenced(frame[1:])
            except ProtocolError:
                return error_frame
            return protocol.encode_envelope(
                Opcode.SEQUENCED_RESULT,
                protocol.encode_sequenced(client_id, seq, error_frame),
            )
        return error_frame

    def crash(self) -> None:
        """Deterministic power-off: drop every piece of volatile state.

        Sessions are evicted through the same path a single dead client's
        eviction uses (rolling back their transactions, which releases
        their 2PL locks in order), the lock table and the replay/lint
        caches are cleared, and the server refuses all requests until
        :meth:`restart`.  Idempotent.  The database object stays referenced
        but is semantically dead — restart replaces it with the recovered
        one.
        """
        if self.crashed:
            return
        self.crashed = True
        self.statistics["crashes"] += 1
        if self.sessions is not None:
            self.sessions.evict_all()
        if self.database.locks is not None:
            self.database.locks.reset()
        self._replay_cache.clear()
        self._lint_cache.clear()

    def restart(self) -> Database:
        """Recover the database from the write-ahead log and come back up.

        Requires a :class:`repro.recovery.Durability` bundle.  Calls
        :meth:`crash` first if the server is still nominally up (a clean
        restart drill), then replays the log into a fresh database, rebinds
        the session manager (which re-attaches the lock manager), and
        starts answering requests again.  The SEQUENCED replay cache is
        empty after a restart, but the recovered high-water mark keeps
        at-most-once execution intact: pre-crash sequence numbers are
        refused with :class:`DuplicateRequest` instead of re-executed.
        """
        if self.durability is None:
            raise DurabilityError(
                "server has no durability bundle; attach one to restart"
            )
        self.crash()
        database = self.durability.recover()
        if self.recorder is not None:
            database.recorder = self.recorder
        self.database = database
        if self.sessions is not None:
            self.sessions.rebind(database)
        report = self.durability.last_report
        self.statistics["recoveries"] += 1
        if report is not None:
            self.statistics["replayed_records"] += report.replayed_records
        self.crashed = False
        return database

    def _note_concurrency_error(self, error: ReproError) -> None:
        """Attribute concurrency-control outcomes to the STATS counters."""
        if isinstance(error, LockUnavailable):
            self.statistics["lock_waits"] += 1
        elif isinstance(error, DeadlockError):
            self.statistics["deadlocks"] += 1
            self.statistics["txn_aborts"] += 1
        elif isinstance(error, LockTimeout):
            self.statistics["txn_aborts"] += 1

    def _session_token(self):
        """Database session token for the statement being handled.

        A client with an open session executes on that session's
        transaction; everything else (no session manager, unsequenced
        requests, clients that never opened a session) runs on the
        default session, preserving the pre-session behaviour.
        """
        if self.sessions is None:
            return None
        session = self.sessions.get(self._active_client)
        if session is None:
            if self._active_client is not None and self.sessions.was_evicted(
                self._active_client
            ):
                from repro.errors import SessionError

                raise SessionError(
                    f"session of client {self._active_client} was evicted "
                    f"by the server (idle teardown or crash); send "
                    f"OPEN_SESSION to continue"
                )
            return None
        return session.token

    def _handle_session_op(self, opcode: Opcode, body: bytes) -> bytes:
        if self.sessions is None:
            raise ProtocolError(
                f"{opcode.name} requires a server with session support"
            )
        client_id = protocol.decode_session_op(body)
        if opcode is Opcode.OPEN_SESSION:
            self.sessions.open(client_id)
            return protocol.encode_envelope(
                Opcode.SESSION_RESULT, protocol.encode_values(["open", client_id])
            )
        if opcode is Opcode.CLOSE_SESSION:
            self.sessions.close(client_id)
            return protocol.encode_envelope(
                Opcode.SESSION_RESULT, protocol.encode_values(["closed", client_id])
            )
        if opcode is Opcode.TXN_BEGIN:
            txn_id = self.sessions.begin(client_id)
            return protocol.encode_envelope(
                Opcode.TXN_RESULT, protocol.encode_values(["begin", txn_id])
            )
        if opcode is Opcode.TXN_BEGIN_RO:
            txn_id = self.sessions.begin(client_id, read_only=True)
            self.statistics["readonly_txns"] += 1
            return protocol.encode_envelope(
                Opcode.TXN_RESULT, protocol.encode_values(["begin_ro", txn_id])
            )
        if opcode is Opcode.TXN_COMMIT:
            self.sessions.commit(client_id)
            return protocol.encode_envelope(
                Opcode.TXN_RESULT, protocol.encode_values(["commit", client_id])
            )
        # TXN_ROLLBACK
        self.sessions.rollback(client_id)
        self.statistics["txn_aborts"] += 1
        return protocol.encode_envelope(
            Opcode.TXN_RESULT, protocol.encode_values(["rollback", client_id])
        )

    def _statement_done(self, result) -> None:
        """Account one successfully executed statement's scan and rows."""
        self._request_rows_scanned += self.database.last_counters.get(
            "rows_scanned", 0
        )
        if self.recorder is not None:
            self.recorder.metrics.histogram(
                "server.rows_per_result", ROWS_BUCKETS
            ).observe(len(result.rows))

    def _handle_query(self, body: bytes) -> bytes:
        sql, params = wire.decode_query(body)
        self.statistics["queries"] += 1
        self._lint_gate(sql)
        result = self.database.execute(sql, params, session=self._session_token())
        self._statement_done(result)
        return protocol.encode_envelope(Opcode.RESULT, wire.encode_result(result))

    def _handle_batch(self, body: bytes) -> bytes:
        """Execute a pipelined batch: one entry per statement.

        Statement-level failures become BATCH_ENTRY_ERROR entries in the
        response, so a bad statement never poisons its batch — only a
        malformed frame (caught in :meth:`handle`) fails the whole request.
        """
        statements = protocol.decode_batch(body)
        self.statistics["batches"] += 1
        self._script_lint_gate(statements)
        token = self._session_token()
        entries: List[tuple] = []
        for sql, params in statements:
            self.statistics["batch_statements"] += 1
            try:
                self._lint_gate(sql)
                result = self.database.execute(sql, params, session=token)
            except ReproError as error:
                self._note_concurrency_error(error)
                self.statistics["errors"] += 1
                entries.append(
                    (protocol.BATCH_ENTRY_ERROR, protocol.encode_error(error))
                )
                continue
            self._statement_done(result)
            try:
                payload = wire.encode_result(result)
            except ReproError as error:
                # An unencodable result (e.g. an int64-overflowing value)
                # poisons only its own entry, not the whole batch.
                self.statistics["errors"] += 1
                entries.append(
                    (protocol.BATCH_ENTRY_ERROR, protocol.encode_error(error))
                )
            else:
                entries.append((protocol.BATCH_ENTRY_RESULT, payload))
        return protocol.encode_envelope(
            Opcode.BATCH_RESULT, protocol.encode_batch_result(entries)
        )

    def counters(self) -> Dict[str, Any]:
        """One flat view of the counters the STATS frame reports.

        Each value is read from the ``statistics`` of the component that
        owns the event: the server's own keys, the database's as
        ``db_*``, the write-ahead log's appends/commits/aborts as
        ``wal_*``, and ``sessions_open`` from the session manager (0
        without one).  Nothing here is a copy that could go stale.
        """
        counters: Dict[str, Any] = dict(self.statistics)
        for name, value in self.database.statistics.items():
            counters[f"db_{name}"] = value
        wal = self.database.wal
        if wal is not None:
            for name in ("appends", "commits", "aborts"):
                counters[f"wal_{name}"] = wal.statistics[name]
        counters["sessions_open"] = (
            self.sessions.open_count if self.sessions is not None else 0
        )
        return counters

    def _handle_stats(self, body: bytes) -> bytes:
        """Report :meth:`counters` in one round trip, so a bench harness
        reads them without reaching into the server process."""
        if body:
            raise ProtocolError("STATS request carries no body")
        return protocol.encode_envelope(
            Opcode.STATS_RESULT, protocol.encode_stats(self.counters())
        )

    def _handle_procedure(self, body: bytes) -> bytes:
        name, args = protocol.decode_procedure_call(body)
        procedure = self._procedures.get(name.lower())
        if procedure is None:
            raise ProtocolError(f"unknown server procedure {name!r}")
        self.statistics["procedure_calls"] += 1
        values = procedure(self.database, *args)
        return protocol.encode_envelope(
            Opcode.PROCEDURE_RESULT, protocol.encode_values(list(values))
        )
