"""Object identifier allocation.

GemStone — the storage platform the paper builds on — hands out immutable
object identifiers (OIDs).  The object-slicing architecture of section 4
needs one OID for the *conceptual* object plus one OID per *implementation*
object, so OID consumption itself is a measured quantity in Table 1
(``#oids for one object``: ``1 + N_impl`` for slicing versus ``1`` for the
intersection-class architecture).  This module provides the allocator and a
tiny value type so that the benchmarks can count and size OIDs faithfully.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator

#: Size of one OID in bytes, used by the Table 1 storage accounting.  GemStone
#: used 32-bit OOPs; we keep the same figure so the paper's formulas
#: ``(1 + N_impl) * sizeOf(oid)`` produce comparable magnitudes.
OID_SIZE_BYTES = 4

#: Size of one intra-object pointer in bytes (the links between conceptual and
#: implementation objects cost ``2 * N_impl * sizeOf(pointer)`` per object).
POINTER_SIZE_BYTES = 4


class Oid:
    """An immutable object identifier.

    OIDs compare and hash by value, never by identity, because the whole
    point of an OID is stable identity across transactions and processes.
    Hand-written rather than a frozen dataclass: OIDs key every extent
    set and slice table in the system, so the hash is computed once at
    construction instead of on every dict/set operation.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: int) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(value))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Oid is immutable (tried to set {name!r})")

    def __reduce__(self):
        # copy/deepcopy/pickle re-enter __init__ instead of poking slots
        # (plain slot restoration would trip the immutability guard)
        return (Oid, (self.value,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Oid) and other.value == self.value

    def __lt__(self, other: "Oid"):
        if not isinstance(other, Oid):
            return NotImplemented
        return self.value < other.value

    def __le__(self, other: "Oid"):
        if not isinstance(other, Oid):
            return NotImplemented
        return self.value <= other.value

    def __gt__(self, other: "Oid"):
        if not isinstance(other, Oid):
            return NotImplemented
        return self.value > other.value

    def __ge__(self, other: "Oid"):
        if not isinstance(other, Oid):
            return NotImplemented
        return self.value >= other.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"oid:{self.value}"


@dataclass
class OidAllocator:
    """Monotonically increasing OID source.

    The allocator also keeps a running count so Table 1's ``#oids`` column can
    be read off directly after a workload, and supports snapshot/restore so
    the store can persist its state.

    Allocation is atomic: the increment of ``_next``/``_allocated`` happens
    under a mutex, so concurrent creates from different sessions can never
    mint the same OID (which would silently corrupt the Table 1 ``#oids``
    accounting and alias two objects' identities).  ``fast_forward`` and
    ``snapshot`` take the same mutex so a WAL watermark or checkpoint never
    observes a half-applied increment.
    """

    _next: int = 1
    _allocated: int = 0
    _mutex: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def allocate(self) -> Oid:
        """Return a fresh, never-before-issued OID."""
        with self._mutex:
            oid = Oid(self._next)
            self._next += 1
            self._allocated += 1
        return oid

    def allocate_many(self, count: int) -> Iterator[Oid]:
        """Yield ``count`` fresh OIDs."""
        for _ in range(count):
            yield self.allocate()

    @property
    def allocated_count(self) -> int:
        """Number of OIDs handed out over the allocator's lifetime."""
        return self._allocated

    @property
    def next_value(self) -> int:
        """The integer the next allocated OID will carry.

        Log replay records this watermark per allocating operation so that
        operations which consumed OIDs without leaving state (a rejected
        ``create``, a rolled-back savepoint) do not desynchronise OID
        assignment between the original run and its replay.
        """
        return self._next

    def fast_forward(self, next_value: int) -> None:
        """Advance the allocator so the next OID carries ``next_value``.

        Only forward movement is allowed — OIDs are never reissued.
        """
        with self._mutex:
            if next_value < self._next:
                raise ValueError(
                    f"cannot rewind OID allocator from {self._next} to {next_value}"
                )
            while self._next < next_value:
                self._next += 1
                self._allocated += 1

    def rewind(self, next_value: int) -> None:
        """Roll allocation back to a savepoint's watermark.

        Only a savepoint rollback may call this: every OID at or above
        ``next_value`` went to work the rollback has just undone, so no
        live object, slice or durable record carries it.
        """
        with self._mutex:
            if next_value > self._next:
                raise ValueError(
                    f"cannot rewind OID allocator forward from {self._next} "
                    f"to {next_value}"
                )
            self._allocated -= self._next - next_value
            self._next = next_value

    def snapshot(self) -> dict:
        """Return a JSON-serialisable snapshot of the allocator state."""
        with self._mutex:
            return {"next": self._next, "allocated": self._allocated}

    @classmethod
    def from_snapshot(cls, state: dict) -> "OidAllocator":
        """Rebuild an allocator from :meth:`snapshot` output."""
        return cls(_next=int(state["next"]), _allocated=int(state["allocated"]))
