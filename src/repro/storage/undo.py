"""The savepoint undo log: before-images recorded at the mutation seams.

``TseDatabase.transaction()`` needs all-or-nothing semantics for a block
of work.  Copying the whole database on entry would make every savepoint
cost O(database) — against the point of object slicing, where a change
touches only the slices it concerns (section 4).  Instead, while a
savepoint is open, every seam a pool or store change already passes
through records how to undo itself:

* :class:`~repro.storage.store.ObjectStore` slice creation and drop (a
  dropped slice's payload is kept, so it comes back under its original
  slice id);
* :class:`~repro.objectmodel.slicing.InstancePool` object create and
  destroy, membership add and remove, lazy slice creation, value writes
  and removals, and casts.

Aborting replays the log newest-first through those same seams, so every
undo step seals its own migration cone and emits its ordinary pool delta:
extent caches, indexes and pending epoch captures stay incremental.  The
log is memory-only (the WAL stays redo-only) and holds entries only while
a savepoint is open: an abort costs O(work done in the savepoint), and a
commit only drops the entries.

Savepoints nest: :meth:`UndoLog.mark` returns the position to roll back
to, and an inner release keeps its entries so an enclosing abort still
undoes them.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

__all__ = ["UndoLog"]


class UndoLog:
    """Undo steps for the open savepoints, oldest first."""

    __slots__ = ("_entries", "_depth", "recording")

    def __init__(self) -> None:
        self._entries: List[Tuple[Callable[..., None], tuple]] = []
        self._depth = 0
        #: True while at least one savepoint is open and no rollback is
        #: replaying — the seams check this one flag before recording
        self.recording = False

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, undo: Callable[..., None], *args) -> None:
        """Append one step: ``undo(*args)`` reverses the change just made."""
        self._entries.append((undo, args))

    def mark(self) -> int:
        """Open a savepoint; returns the position :meth:`rollback` returns to."""
        self._depth += 1
        self.recording = True
        return len(self._entries)

    def release(self) -> None:
        """Close the innermost savepoint, keeping its work.  Entries are
        dropped only when the outermost savepoint closes."""
        self._close()
        if self._depth == 0:
            self._entries.clear()

    def rollback(self, mark: int) -> None:
        """Undo everything recorded since ``mark`` (newest first) and close
        the innermost savepoint.  Undo steps run with recording off, so the
        seams they call do not log their own reversal."""
        entries = self._entries
        self.recording = False
        try:
            while len(entries) > mark:
                undo, args = entries.pop()
                undo(*args)
        finally:
            del entries[mark:]
            self._close()

    def _close(self) -> None:
        if self._depth == 0:
            raise RuntimeError("undo log released without an open savepoint")
        self._depth -= 1
        self.recording = self._depth > 0
