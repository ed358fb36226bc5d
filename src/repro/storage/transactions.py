"""Transactions over the object store.

GemStone provided TSE with concurrency control (section 5).  This module
reproduces the minimum a multi-session store needs: strict two-phase
locking at slice granularity with an undo journal, giving atomic
commit/abort over the raw :class:`~repro.storage.store.ObjectStore` API —
exercised directly by the storage and failure-injection tests.

It is *not* what ``TseDatabase.transaction()`` runs on.  Database
savepoints roll back through :class:`~repro.storage.undo.UndoLog`, which
the store and instance pool feed at their mutation seams (this module's
slice-drop undo would re-create slices under new ids, breaking object
slice links); a failed schema-change pipeline rolls back through the
schema memento in :mod:`repro.core.manager`.  The database uses only this
manager's ``commits``/``aborts`` counters, which its savepoints maintain.

Locks are per-transaction-manager and the lock table itself is guarded by a
mutex, so transactions issued from different threads (the
``repro.concurrency`` session layer) arbitrate correctly:

* transaction-id allocation is atomic — two concurrent ``begin()`` calls can
  never mint the same id (which would alias their lock ownership);
* lock acquisition is re-entrant for a transaction that already holds the
  slice, including the SHARED→EXCLUSIVE *upgrade* when it is the sole
  holder — previously the holder check and the table mutation were separate
  steps, so a concurrent reader slipping in between them turned a legal
  sole-holder upgrade into a spurious :class:`~repro.errors.LockConflict`
  (or, worse, left an EXCLUSIVE entry with two holders);
* conflicts are detected and raised while the mutex is held, so the error
  reflects a real, not a torn, table state.

Conflicts fail fast (no blocking waits): the schema latch in
``repro.concurrency.latch`` is the blocking primitive; slice locks only
arbitrate overlapping logical units of work.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import LockConflict, TransactionStateError
from repro.obs.tracing import Tracer
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore


class TxStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class _UndoEntry:
    """A closure that reverses one store mutation."""

    description: str
    undo: Callable[[], None]


class Transaction:
    """One atomic unit of work against an :class:`ObjectStore`.

    Obtain instances from :meth:`TransactionManager.begin`.  All mutations
    must go through the transaction's methods (``create_slice``,
    ``put_value`` ...) for the undo journal to cover them.
    """

    def __init__(self, manager: "TransactionManager", tx_id: int) -> None:
        self._manager = manager
        self._store = manager.store
        self.tx_id = tx_id
        self.status = TxStatus.ACTIVE
        self._journal: List[_UndoEntry] = []
        self._locks: Set[Oid] = set()

    # -- state guards -----------------------------------------------------

    def _require_active(self) -> None:
        if self.status is not TxStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.tx_id} is {self.status.value}, not active"
            )

    # -- locking ------------------------------------------------------------

    def _lock(self, slice_id: Oid, mode: LockMode) -> None:
        self._manager._acquire(self, slice_id, mode)
        self._locks.add(slice_id)

    # -- journalled store operations ----------------------------------------

    def create_slice(self, cluster_key: str, values: Optional[dict] = None) -> Oid:
        """Create a slice; it is dropped again if the transaction aborts."""
        self._require_active()
        slice_id = self._store.create_slice(cluster_key, values)
        self._lock(slice_id, LockMode.EXCLUSIVE)
        self._journal.append(
            _UndoEntry(
                f"drop created slice {slice_id}",
                lambda sid=slice_id: self._store.drop_slice(sid),
            )
        )
        return slice_id

    def get_value(self, slice_id: Oid, key: str, default: object = None) -> object:
        self._require_active()
        self._lock(slice_id, LockMode.SHARED)
        return self._store.get_value(slice_id, key, default)

    def put_value(self, slice_id: Oid, key: str, value: object) -> None:
        self._require_active()
        self._lock(slice_id, LockMode.EXCLUSIVE)
        had_value = self._store.has_value(slice_id, key)
        old = self._store.get_value(slice_id, key) if had_value else None

        def undo(sid=slice_id, k=key, existed=had_value, previous=old) -> None:
            if existed:
                self._store.put_value(sid, k, previous)
            else:
                self._store.remove_value(sid, k)

        self._journal.append(_UndoEntry(f"restore {key} of {slice_id}", undo))
        self._store.put_value(slice_id, key, value)

    def drop_slice(self, slice_id: Oid) -> None:
        self._require_active()
        self._lock(slice_id, LockMode.EXCLUSIVE)
        cluster_key = self._store.cluster_key_of(slice_id)
        values = self._store.read_slice(slice_id)

        def undo(key=cluster_key, payload=values) -> None:
            # The slice is recreated with a *new* id on undo; callers that
            # need id-stable aborts should not drop slices mid-transaction.
            self._store.create_slice(key, payload)

        self._journal.append(_UndoEntry(f"recreate dropped slice {slice_id}", undo))
        self._store.drop_slice(slice_id)

    def run_undoable(self, description: str, do: Callable[[], None],
                     undo: Callable[[], None]) -> None:
        """Run an arbitrary mutation with a caller-supplied compensator.

        Higher layers (schema mutations, view registration) use this to bring
        non-store state under the same atomicity umbrella.
        """
        self._require_active()
        do()
        self._journal.append(_UndoEntry(description, undo))

    # -- outcome -----------------------------------------------------------

    def commit(self) -> None:
        self._require_active()
        with self._manager.tracer.span(
            "commit", tx_id=self.tx_id, locks=len(self._locks)
        ):
            # WAL discipline: the log is flushed durably *before* the commit
            # becomes visible (locks released); an abort never touches disk
            if self._manager.wal is not None:
                self._manager.wal.flush()
            self._journal.clear()
            self.status = TxStatus.COMMITTED
            self._manager._release_all(self)
        self._manager.commits += 1

    def abort(self) -> None:
        self._require_active()
        with self._manager.tracer.span(
            "abort", tx_id=self.tx_id, undo_entries=len(self._journal)
        ):
            for entry in reversed(self._journal):
                entry.undo()
            self._journal.clear()
            self.status = TxStatus.ABORTED
            self._manager._release_all(self)
        self._manager.aborts += 1

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.status is TxStatus.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


class TransactionManager:
    """Issues transactions and arbitrates slice locks between them."""

    def __init__(self, store: ObjectStore, tracer: Optional[Tracer] = None) -> None:
        self.store = store
        self.tracer = tracer if tracer is not None else Tracer()
        self._next_tx_id = 1
        self._lock_table: Dict[Oid, Tuple[LockMode, Set[int]]] = {}
        #: guards tx-id allocation and every lock-table read-modify-write;
        #: re-entrant so tracing/metrics callbacks can consult the table
        self._mutex = threading.RLock()
        #: lifetime outcome counters, surfaced via ``Database.stats()``
        self.commits = 0
        self.aborts = 0
        #: optional :class:`repro.storage.wal.WalManager`; when attached,
        #: :meth:`Transaction.commit` flushes the log before the commit
        #: becomes visible (write-ahead discipline)
        self.wal = None

    def begin(self) -> Transaction:
        with self._mutex:
            tx = Transaction(self, self._next_tx_id)
            self._next_tx_id += 1
        return tx

    # -- lock table ---------------------------------------------------------

    def _acquire(self, tx: Transaction, slice_id: Oid, mode: LockMode) -> None:
        with self._mutex:
            entry = self._lock_table.get(slice_id)
            if entry is None:
                self._lock_table[slice_id] = (mode, {tx.tx_id})
                return
            held_mode, holders = entry
            if tx.tx_id in holders:
                if len(holders) == 1:
                    # re-entrant by the sole holder: same-mode re-acquire,
                    # EXCLUSIVE→SHARED (covered), SHARED→EXCLUSIVE upgrade
                    if mode is LockMode.EXCLUSIVE and held_mode is LockMode.SHARED:
                        self._lock_table[slice_id] = (LockMode.EXCLUSIVE, holders)
                    return
                if mode is LockMode.SHARED:
                    return  # already a co-holder of the shared lock
                raise LockConflict(
                    f"transaction {tx.tx_id} cannot upgrade to exclusive on "
                    f"{slice_id}: shared with {sorted(holders - {tx.tx_id})}"
                )
            if mode is LockMode.SHARED and held_mode is LockMode.SHARED:
                holders.add(tx.tx_id)
                return
            raise LockConflict(
                f"transaction {tx.tx_id} cannot take {mode.value} lock on "
                f"{slice_id}: held {held_mode.value} by {sorted(holders)}"
            )

    def _release_all(self, tx: Transaction) -> None:
        with self._mutex:
            for slice_id in list(self._lock_table):
                mode, holders = self._lock_table[slice_id]
                holders.discard(tx.tx_id)
                if not holders:
                    del self._lock_table[slice_id]

    @property
    def locked_slice_count(self) -> int:
        with self._mutex:
            return len(self._lock_table)

    def stats_dict(self) -> Dict[str, int]:
        """Outcome counters for the metrics registry's ``transactions`` group."""
        return {
            "committed": self.commits,
            "aborted": self.aborts,
            "locked_slices": self.locked_slice_count,
        }

    def reset_stats(self) -> None:
        self.commits = 0
        self.aborts = 0
