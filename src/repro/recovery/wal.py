"""CRC-32-framed write-ahead log: record codec, writer, and scanner.

Every mutation the SQL engine performs is described by one WAL record
appended to a :class:`~repro.recovery.simdisk.SimDisk` *before* the
server acknowledges the enclosing transaction.  Recovery replays the log
forward: committed transactions are redone, in-flight ones discarded —
so a crash loses at most the work nobody was told had committed.

Framing (big-endian)::

    magic(1 = 0xA5) | u32 payload length | u32 CRC-32 of payload | payload
    payload = kind(1) | u64 txn_id | body

Record kinds:

``B`` begin        body: empty (written lazily, before a txn's first op)
``C`` commit       body: origin flag(1) [+ u32 client_id + u32 seq]
``A`` abort        body: empty
``I`` insert       body: table, u64 row_id, u16 arity, values
``U`` update       body: table, u64 row_id, u16 arity, values (new row)
``D`` delete       body: table, u64 row_id
``Q`` ddl          body: SQL text (rendered statement, replayed verbatim)
``K`` checkpoint   body: full snapshot (tables, rows, views, HWM map)
``F`` fence        body: empty (written by recovery: every txn open
                   before this point crashed and must be discarded)

The commit record's *origin* is the ``(client_id, seq)`` of the wire
request that drove the commit; the per-client maximum over commit
origins is the SEQUENCED **high-water mark**, which is how at-most-once
execution survives a restart that wiped the in-memory replay cache.

Values reuse the deterministic wire codec
(:func:`repro.sqldb.wire.encode_value`), so a WAL byte stream — like a
wire frame — is a pure function of the operations that produced it.

The scanner (:func:`scan_wal`) verifies each record's CRC and framing.
Damage *at the tail* (a torn final write, a flipped bit in the last
record) ends the clean prefix — expected after a crash, recovery stops
there.  Damage *in the middle* — an invalid record with intact records
after it — raises :class:`~repro.errors.WalCorruptError` instead,
because silently stopping would drop committed work.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError, WalCorruptError
from repro.recovery.simdisk import SimDisk
from repro.sqldb.wire import decode_value, encode_value

MAGIC = 0xA5
_HEADER = struct.Struct(">BII")

#: Upper bound on one record's payload; anything larger in a header is
#: framing garbage, not a record that failed to fit.
MAX_PAYLOAD = 64 * 1024 * 1024

KIND_BEGIN = "B"
KIND_COMMIT = "C"
KIND_ABORT = "A"
KIND_INSERT = "I"
KIND_UPDATE = "U"
KIND_DELETE = "D"
KIND_DDL = "Q"
KIND_CHECKPOINT = "K"
KIND_FENCE = "F"

_KINDS = frozenset(
    (
        KIND_BEGIN,
        KIND_COMMIT,
        KIND_ABORT,
        KIND_INSERT,
        KIND_UPDATE,
        KIND_DELETE,
        KIND_DDL,
        KIND_CHECKPOINT,
        KIND_FENCE,
    )
)

Row = Tuple[Any, ...]


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record.

    A single carrier type keeps the scanner's output homogeneous; the
    fields beyond ``kind``/``txn_id`` are populated per kind (``table``/
    ``row_id``/``row`` for data ops, ``sql`` for DDL, ``origin`` for
    commits, ``snapshot`` for checkpoints).
    """

    kind: str
    txn_id: int = 0
    table: Optional[str] = None
    row_id: Optional[int] = None
    row: Optional[Row] = None
    sql: Optional[str] = None
    origin: Optional[Tuple[int, int]] = None
    snapshot: Optional["Snapshot"] = None


@dataclass(frozen=True)
class IndexDef:
    name: str
    columns: Tuple[str, ...]
    unique: bool


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    type_length: Optional[int]
    not_null: bool
    primary_key: bool


@dataclass(frozen=True)
class TableSnapshot:
    """One table's schema, indexes and slot-exact contents.

    ``total_slots`` preserves the heap's row-id space: deleted (and
    never-committed) slots stay ``None`` after restore, so row ids in
    later WAL records keep pointing at the right rows.
    """

    name: str
    columns: Tuple[ColumnDef, ...]
    indexes: Tuple[IndexDef, ...]
    total_slots: int
    rows: Tuple[Tuple[int, Row], ...]


@dataclass(frozen=True)
class Snapshot:
    """A checkpoint's full image: tables, views, and the HWM map."""

    tables: Tuple[TableSnapshot, ...]
    views: Tuple[str, ...]
    hwm: Tuple[Tuple[int, int], ...]
    #: MVCC commit-clock value at checkpoint time (0 on non-MVCC builds):
    #: restoring it lets replayed commits continue the exact stamp
    #: sequence, so the rebuilt version store matches the original.
    mvcc_clock: int = 0


@dataclass
class WalScan:
    """Result of scanning a WAL byte stream.

    ``clean_length`` is the byte offset where the intact prefix ends —
    recovery truncates the disk there before appending resumes.
    ``tail_status`` is ``"clean"`` (the log ends exactly at a record
    boundary), ``"torn"`` (trailing bytes too short to be a record) or
    ``"corrupt"`` (a full-length tail record failed its CRC or framing).
    """

    records: List[WalRecord] = field(default_factory=list)
    clean_length: int = 0
    tail_status: str = "clean"
    tail_error: Optional[str] = None


# -- low-level string/row helpers -------------------------------------------


def _enc_str(text: str) -> bytes:
    payload = text.encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def _dec_str(buffer: bytes, offset: int) -> Tuple[str, int]:
    if offset + 4 > len(buffer):
        raise ProtocolError("truncated WAL string")
    length = struct.unpack_from(">I", buffer, offset)[0]
    offset += 4
    if offset + length > len(buffer):
        raise ProtocolError("truncated WAL string")
    try:
        text = buffer[offset : offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 in WAL record: {exc}") from None
    return text, offset + length


def _enc_row(row: Row) -> bytes:
    if len(row) > 0xFFFF:
        raise ProtocolError("row arity exceeds the WAL limit")
    parts = [struct.pack(">H", len(row))]
    parts.extend(encode_value(value) for value in row)
    return b"".join(parts)


def _dec_row(buffer: bytes, offset: int) -> Tuple[Row, int]:
    if offset + 2 > len(buffer):
        raise ProtocolError("truncated WAL row")
    arity = struct.unpack_from(">H", buffer, offset)[0]
    offset += 2
    values: List[Any] = []
    for __ in range(arity):
        value, offset = decode_value(buffer, offset)
        values.append(value)
    return tuple(values), offset


# -- record encoding ---------------------------------------------------------


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def encode_record(record: WalRecord) -> bytes:
    """Encode one record, CRC frame included."""
    body: bytes
    kind = record.kind
    if kind in (KIND_BEGIN, KIND_ABORT, KIND_FENCE):
        body = b""
    elif kind == KIND_COMMIT:
        if record.origin is None:
            body = b"\x00"
        else:
            body = b"\x01" + struct.pack(">II", *record.origin)
    elif kind in (KIND_INSERT, KIND_UPDATE):
        assert record.table is not None and record.row_id is not None
        assert record.row is not None
        body = (
            _enc_str(record.table)
            + struct.pack(">Q", record.row_id)
            + _enc_row(record.row)
        )
    elif kind == KIND_DELETE:
        assert record.table is not None and record.row_id is not None
        body = _enc_str(record.table) + struct.pack(">Q", record.row_id)
    elif kind == KIND_DDL:
        assert record.sql is not None
        body = _enc_str(record.sql)
    elif kind == KIND_CHECKPOINT:
        assert record.snapshot is not None
        body = _enc_snapshot(record.snapshot)
    else:
        raise ProtocolError(f"unknown WAL record kind {kind!r}")
    payload = kind.encode("ascii") + struct.pack(">Q", record.txn_id) + body
    return _frame(payload)


def decode_payload(payload: bytes) -> WalRecord:
    """Decode one record payload (the bytes the CRC covers)."""
    if len(payload) < 9:
        raise ProtocolError("WAL payload shorter than its fixed header")
    kind = chr(payload[0])
    if kind not in _KINDS:
        raise ProtocolError(f"unknown WAL record kind {payload[0]:#x}")
    txn_id = struct.unpack_from(">Q", payload, 1)[0]
    offset = 9
    if kind in (KIND_BEGIN, KIND_ABORT, KIND_FENCE):
        _expect_end(payload, offset)
        return WalRecord(kind=kind, txn_id=txn_id)
    if kind == KIND_COMMIT:
        if offset >= len(payload):
            raise ProtocolError("truncated commit record")
        flag = payload[offset]
        offset += 1
        origin: Optional[Tuple[int, int]] = None
        if flag == 1:
            if offset + 8 > len(payload):
                raise ProtocolError("truncated commit origin")
            client_id, seq = struct.unpack_from(">II", payload, offset)
            origin = (client_id, seq)
            offset += 8
        elif flag != 0:
            raise ProtocolError(f"invalid commit origin flag {flag:#x}")
        _expect_end(payload, offset)
        return WalRecord(kind=kind, txn_id=txn_id, origin=origin)
    if kind in (KIND_INSERT, KIND_UPDATE):
        table, offset = _dec_str(payload, offset)
        if offset + 8 > len(payload):
            raise ProtocolError("truncated WAL row id")
        row_id = struct.unpack_from(">Q", payload, offset)[0]
        offset += 8
        row, offset = _dec_row(payload, offset)
        _expect_end(payload, offset)
        return WalRecord(
            kind=kind, txn_id=txn_id, table=table, row_id=row_id, row=row
        )
    if kind == KIND_DELETE:
        table, offset = _dec_str(payload, offset)
        if offset + 8 > len(payload):
            raise ProtocolError("truncated WAL row id")
        row_id = struct.unpack_from(">Q", payload, offset)[0]
        offset += 8
        _expect_end(payload, offset)
        return WalRecord(kind=kind, txn_id=txn_id, table=table, row_id=row_id)
    if kind == KIND_DDL:
        sql, offset = _dec_str(payload, offset)
        _expect_end(payload, offset)
        return WalRecord(kind=kind, txn_id=txn_id, sql=sql)
    # KIND_CHECKPOINT
    snapshot, offset = _dec_snapshot(payload, offset)
    _expect_end(payload, offset)
    return WalRecord(kind=kind, txn_id=txn_id, snapshot=snapshot)


def _expect_end(payload: bytes, offset: int) -> None:
    if offset != len(payload):
        raise ProtocolError("trailing bytes inside WAL record")


# -- snapshot codec ----------------------------------------------------------


def _enc_snapshot(snapshot: Snapshot) -> bytes:
    parts: List[bytes] = [struct.pack(">I", len(snapshot.tables))]
    for table in snapshot.tables:
        parts.append(_enc_str(table.name))
        parts.append(struct.pack(">H", len(table.columns)))
        for column in table.columns:
            parts.append(_enc_str(column.name))
            parts.append(_enc_str(column.type_name))
            has_length = column.type_length is not None
            flags = (
                (1 if column.not_null else 0)
                | (2 if column.primary_key else 0)
                | (4 if has_length else 0)
            )
            parts.append(struct.pack(">B", flags))
            if has_length:
                assert column.type_length is not None
                parts.append(struct.pack(">I", column.type_length))
        parts.append(struct.pack(">H", len(table.indexes)))
        for index in table.indexes:
            parts.append(_enc_str(index.name))
            parts.append(struct.pack(">H", len(index.columns)))
            for name in index.columns:
                parts.append(_enc_str(name))
            parts.append(b"\x01" if index.unique else b"\x00")
        parts.append(struct.pack(">Q", table.total_slots))
        parts.append(struct.pack(">I", len(table.rows)))
        for row_id, row in table.rows:
            parts.append(struct.pack(">Q", row_id))
            parts.append(_enc_row(row))
    parts.append(struct.pack(">I", len(snapshot.views)))
    for view_sql in snapshot.views:
        parts.append(_enc_str(view_sql))
    parts.append(struct.pack(">I", len(snapshot.hwm)))
    for client_id, seq in snapshot.hwm:
        parts.append(struct.pack(">II", client_id, seq))
    parts.append(struct.pack(">Q", snapshot.mvcc_clock))
    return b"".join(parts)


def _dec_snapshot(buffer: bytes, offset: int) -> Tuple[Snapshot, int]:
    def _u(fmt: str, size: int) -> int:
        nonlocal offset
        if offset + size > len(buffer):
            raise ProtocolError("truncated WAL snapshot")
        value = struct.unpack_from(fmt, buffer, offset)[0]
        offset += size
        return int(value)

    tables: List[TableSnapshot] = []
    for __ in range(_u(">I", 4)):
        name, offset = _dec_str(buffer, offset)
        columns: List[ColumnDef] = []
        for __c in range(_u(">H", 2)):
            column_name, offset = _dec_str(buffer, offset)
            type_name, offset = _dec_str(buffer, offset)
            flags = _u(">B", 1)
            type_length = _u(">I", 4) if flags & 4 else None
            columns.append(
                ColumnDef(
                    name=column_name,
                    type_name=type_name,
                    type_length=type_length,
                    not_null=bool(flags & 1),
                    primary_key=bool(flags & 2),
                )
            )
        indexes: List[IndexDef] = []
        for __i in range(_u(">H", 2)):
            index_name, offset = _dec_str(buffer, offset)
            index_columns: List[str] = []
            for __n in range(_u(">H", 2)):
                column_name, offset = _dec_str(buffer, offset)
                index_columns.append(column_name)
            unique = _u(">B", 1)
            if unique not in (0, 1):
                raise ProtocolError("invalid index uniqueness flag")
            indexes.append(
                IndexDef(
                    name=index_name,
                    columns=tuple(index_columns),
                    unique=bool(unique),
                )
            )
        total_slots = _u(">Q", 8)
        rows: List[Tuple[int, Row]] = []
        for __r in range(_u(">I", 4)):
            row_id = _u(">Q", 8)
            row, offset = _dec_row(buffer, offset)
            rows.append((row_id, row))
        tables.append(
            TableSnapshot(
                name=name,
                columns=tuple(columns),
                indexes=tuple(indexes),
                total_slots=total_slots,
                rows=tuple(rows),
            )
        )
    views: List[str] = []
    for __v in range(_u(">I", 4)):
        view_sql, offset = _dec_str(buffer, offset)
        views.append(view_sql)
    hwm: List[Tuple[int, int]] = []
    for __h in range(_u(">I", 4)):
        client_id = _u(">I", 4)
        seq = _u(">I", 4)
        hwm.append((client_id, seq))
    mvcc_clock = _u(">Q", 8)
    return (
        Snapshot(
            tables=tuple(tables),
            views=tuple(views),
            hwm=tuple(hwm),
            mvcc_clock=mvcc_clock,
        ),
        offset,
    )


# -- scanning ----------------------------------------------------------------


def _try_record(data: bytes, offset: int) -> Tuple[Optional[WalRecord], int, str]:
    """Parse the record at *offset*.

    Returns ``(record, next_offset, "")`` on success, else
    ``(None, offset, status)`` where status is ``"torn"`` (not enough
    bytes for what the header promises) or ``"corrupt"`` (bad magic,
    absurd length, CRC mismatch, or an undecodable payload).
    """
    remaining = len(data) - offset
    if remaining < _HEADER.size:
        return None, offset, "torn"
    magic, length, crc = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        return None, offset, "corrupt"
    if length > MAX_PAYLOAD:
        return None, offset, "corrupt"
    start = offset + _HEADER.size
    if start + length > len(data):
        return None, offset, "torn"
    payload = bytes(data[start : start + length])
    if zlib.crc32(payload) != crc:
        return None, offset, "corrupt"
    try:
        record = decode_payload(payload)
    except ProtocolError:
        return None, offset, "corrupt"
    return record, start + length, ""


def scan_wal(data: bytes, strict: bool = True) -> WalScan:
    """Scan a WAL byte stream into its clean prefix of records.

    With ``strict`` (the default), damage followed by any intact record
    raises :class:`~repro.errors.WalCorruptError` — the damage is *in
    the middle* of the log and recovering only the prefix would silently
    lose the committed work behind it.  Damage with nothing valid after
    it is an ordinary crash tail: the scan stops cleanly and reports how
    the tail died.
    """
    scan = WalScan()
    offset = 0
    while offset < len(data):
        record, next_offset, status = _try_record(data, offset)
        if record is None:
            scan.tail_status = status
            scan.tail_error = (
                f"{status} record at offset {offset} "
                f"({len(data) - offset} trailing bytes)"
            )
            if strict:
                resync = _find_valid_record_after(data, offset)
                if resync is not None:
                    raise WalCorruptError(
                        f"WAL damaged mid-log: {scan.tail_error}, but an "
                        f"intact record follows at offset {resync} — "
                        f"refusing to silently drop it"
                    )
            break
        scan.records.append(record)
        offset = next_offset
    scan.clean_length = offset
    return scan


def _find_valid_record_after(data: bytes, failed_at: int) -> Optional[int]:
    """First offset past *failed_at* where an intact record parses.

    The resync probe behind strict mode: a hit means the damage is
    mid-log.  Probing is bounded to candidate magic bytes, so garbage
    tails cost one linear pass.
    """
    offset = data.find(MAGIC.to_bytes(1, "big"), failed_at + 1)
    while offset != -1:
        record, __, __status = _try_record(data, offset)
        if record is not None:
            return offset
        offset = data.find(MAGIC.to_bytes(1, "big"), offset + 1)
    return None


# -- the writer --------------------------------------------------------------


class WalWriter:
    """Appends records for one database's mutations to a disk.

    ``BEGIN`` is written lazily before a transaction's first logged
    operation, so read-only transactions cost zero appends.  ``commit``
    and ``abort`` are no-ops for transactions that never wrote.

    After the disk crashes, every logging call silently does nothing:
    writes that follow a power loss are lost by definition, and the
    server is about to find out via the :class:`~repro.errors.DiskCrashed`
    that the crashing append already raised.

    The writer also maintains the running per-client high-water mark
    (``hwm``) over commit origins — the in-memory twin of what recovery
    reconstructs from the log.
    """

    def __init__(self, disk: SimDisk) -> None:
        self.disk = disk
        #: Transactions whose BEGIN has been written and COMMIT has not.
        self._begun: Dict[int, bool] = {}
        #: (client_id, seq) of the wire request currently being handled;
        #: stamped onto commit records for the durable high-water mark.
        self.origin: Optional[Tuple[int, int]] = None
        #: client_id -> highest sequence number whose request committed.
        self.hwm: Dict[int, int] = {}
        self.statistics = {"appends": 0, "commits": 0, "aborts": 0, "checkpoints": 0}

    @property
    def appends(self) -> int:
        return self.statistics["appends"]

    def _append(self, record: WalRecord) -> None:
        if self.disk.crashed:
            return
        self.disk.append(encode_record(record))
        self.statistics["appends"] += 1

    def _ensure_begun(self, txn_id: int) -> None:
        if txn_id not in self._begun:
            self._begun[txn_id] = True
            self._append(WalRecord(kind=KIND_BEGIN, txn_id=txn_id))

    # -- logging hooks ------------------------------------------------------

    def log_insert(self, txn_id: int, table: str, row_id: int, row: Row) -> None:
        self._ensure_begun(txn_id)
        self._append(
            WalRecord(
                kind=KIND_INSERT, txn_id=txn_id, table=table, row_id=row_id, row=row
            )
        )

    def log_update(self, txn_id: int, table: str, row_id: int, row: Row) -> None:
        self._ensure_begun(txn_id)
        self._append(
            WalRecord(
                kind=KIND_UPDATE, txn_id=txn_id, table=table, row_id=row_id, row=row
            )
        )

    def log_delete(self, txn_id: int, table: str, row_id: int) -> None:
        self._ensure_begun(txn_id)
        self._append(
            WalRecord(kind=KIND_DELETE, txn_id=txn_id, table=table, row_id=row_id)
        )

    def log_ddl(self, sql: str) -> None:
        """DDL is durable immediately: it is rejected inside transactions
        by the engine, so there is nothing to buffer or undo."""
        self._append(WalRecord(kind=KIND_DDL, sql=sql))

    def commit(self, txn_id: int) -> None:
        if self._begun.pop(txn_id, None) is None:
            return  # read-only transaction: nothing was logged
        origin = self.origin
        self._append(WalRecord(kind=KIND_COMMIT, txn_id=txn_id, origin=origin))
        self.statistics["commits"] += 1
        if origin is not None:
            client_id, seq = origin
            if seq > self.hwm.get(client_id, 0):
                self.hwm[client_id] = seq

    def abort(self, txn_id: int) -> None:
        if self._begun.pop(txn_id, None) is None:
            return
        self._append(WalRecord(kind=KIND_ABORT, txn_id=txn_id))
        self.statistics["aborts"] += 1

    def fence(self) -> None:
        """Mark a recovery boundary: transactions open before this point
        died with the crash and must never merge with post-restart
        transactions that happen to reuse their ids."""
        self._begun.clear()
        self._append(WalRecord(kind=KIND_FENCE))

    def checkpoint(self, snapshot: Snapshot) -> None:
        self._append(WalRecord(kind=KIND_CHECKPOINT, snapshot=snapshot))
        self.statistics["checkpoints"] += 1
