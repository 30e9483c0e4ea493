"""Durability subsystem: write-ahead log, crash injection, recovery.

Layers, bottom up:

* :mod:`repro.recovery.simdisk` — an append-only simulated disk with a
  seeded fault profile (crash at the Nth append, optionally leaving a
  torn or bit-flipped final record);
* :mod:`repro.recovery.wal` — the CRC-framed redo log: record codec,
  damage-distinguishing scanner and the :class:`WalWriter` the database
  appends through;
* :mod:`repro.recovery.recover` — checkpoint snapshots and the
  :class:`Durability` bundle that replays the log into a fresh database
  at every open.

The deterministic crash-chaos simulator that drives this subsystem under
a live workload, and its sweep driver, live in :mod:`repro.sim.chaos`.
"""

from repro.recovery.recover import (
    Durability,
    RecoveryReport,
    restore_snapshot,
    snapshot_database,
)
from repro.recovery.simdisk import PERFECT_DISK, DiskFaultProfile, SimDisk
from repro.recovery.wal import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_DDL,
    KIND_DELETE,
    KIND_FENCE,
    KIND_INSERT,
    KIND_UPDATE,
    MAX_PAYLOAD,
    Snapshot,
    WalRecord,
    WalScan,
    WalWriter,
    decode_payload,
    encode_record,
    scan_wal,
)

__all__ = [
    "Durability",
    "DiskFaultProfile",
    "KIND_ABORT",
    "KIND_BEGIN",
    "KIND_CHECKPOINT",
    "KIND_COMMIT",
    "KIND_DDL",
    "KIND_DELETE",
    "KIND_FENCE",
    "KIND_INSERT",
    "KIND_UPDATE",
    "MAX_PAYLOAD",
    "PERFECT_DISK",
    "RecoveryReport",
    "SimDisk",
    "Snapshot",
    "WalRecord",
    "WalScan",
    "WalWriter",
    "decode_payload",
    "encode_record",
    "restore_snapshot",
    "scan_wal",
    "snapshot_database",
]
