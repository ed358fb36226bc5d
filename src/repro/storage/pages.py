"""Simulated page-based storage with access accounting.

The paper's Table 1 argues about page behaviour: object slices of the same
class "tend to cluster" so that attribute-restricted selects touch few pages,
while inherited-attribute access must chase pointers across slices (and hence
across pages).  To make those claims *measurable* rather than rhetorical, the
object store places every slice on a simulated disk page and this module
counts page reads and writes.

The page manager is deliberately simple — fixed slot capacity per page, one
free list per *cluster key* (normally the class name) — because the point is
cost observability, not a real buffer pool.  A small LRU buffer cache is
still provided so that repeated access to a hot page is not charged as a
fresh I/O, mirroring how a real system would behave under the paper's
workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import PageError

#: Default number of slices stored per page.  Slices are small (a handful of
#: attribute values), so a 4 KiB page comfortably holds a few dozen.
DEFAULT_SLOTS_PER_PAGE = 32

#: Default number of pages held in the buffer cache.
DEFAULT_CACHE_PAGES = 8


@dataclass
class Page:
    """A fixed-capacity container of slice slots, clustered by key."""

    page_id: int
    cluster_key: str
    capacity: int
    slots: Dict[int, object] = field(default_factory=dict)
    _next_slot: int = 0

    @property
    def is_full(self) -> bool:
        return len(self.slots) >= self.capacity

    def insert(self, payload: object) -> int:
        """Place ``payload`` in a fresh slot, returning the slot number."""
        if self.is_full:
            raise PageError(f"page {self.page_id} is full")
        slot = self._next_slot
        self._next_slot += 1
        self.slots[slot] = payload
        return slot

    def read(self, slot: int) -> object:
        if slot not in self.slots:
            raise PageError(f"slot {slot} not present on page {self.page_id}")
        return self.slots[slot]

    def write(self, slot: int, payload: object) -> None:
        if slot not in self.slots:
            raise PageError(f"slot {slot} not present on page {self.page_id}")
        self.slots[slot] = payload

    def delete(self, slot: int) -> object:
        if slot not in self.slots:
            raise PageError(f"slot {slot} not present on page {self.page_id}")
        return self.slots.pop(slot)


@dataclass
class PageStats:
    """Counters exposed to the benchmarks."""

    page_reads: int = 0
    page_writes: int = 0
    cache_hits: int = 0
    pages_allocated: int = 0

    def reset(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.cache_hits = 0

    def as_dict(self) -> dict:
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "cache_hits": self.cache_hits,
            "pages_allocated": self.pages_allocated,
        }


class PageManager:
    """Allocates pages, routes slice placement, and counts simulated I/O.

    Slices are clustered by ``cluster_key``: consecutive inserts with the same
    key land on the same page until it fills, which reproduces the clustering
    assumption of Table 1 ("slices of the objects of the same attributes tend
    to cluster").
    """

    def __init__(
        self,
        slots_per_page: int = DEFAULT_SLOTS_PER_PAGE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> None:
        if slots_per_page < 1:
            raise PageError("slots_per_page must be at least 1")
        self._slots_per_page = slots_per_page
        self._pages: Dict[int, Page] = {}
        self._open_page_by_key: Dict[str, int] = {}
        self._next_page_id = 1
        self._cache: "OrderedDict[int, None]" = OrderedDict()
        self._cache_capacity = cache_pages
        self.stats = PageStats()

    # -- page lifecycle ----------------------------------------------------

    def _allocate_page(self, cluster_key: str) -> Page:
        page = Page(self._next_page_id, cluster_key, self._slots_per_page)
        self._pages[page.page_id] = page
        self._next_page_id += 1
        self.stats.pages_allocated += 1
        return page

    def _open_page(self, cluster_key: str) -> Page:
        """Return the current partially-filled page for ``cluster_key``."""
        page_id = self._open_page_by_key.get(cluster_key)
        if page_id is not None:
            page = self._pages[page_id]
            if not page.is_full:
                return page
        page = self._allocate_page(cluster_key)
        self._open_page_by_key[cluster_key] = page.page_id
        return page

    # -- buffer cache ------------------------------------------------------

    def _touch(self, page_id: int, *, write: bool) -> None:
        """Record one access to ``page_id``, charging I/O on a cache miss."""
        if page_id in self._cache:
            self._cache.move_to_end(page_id)
            self.stats.cache_hits += 1
        else:
            if write:
                self.stats.page_writes += 1
            else:
                self.stats.page_reads += 1
            self._cache[page_id] = None
            while len(self._cache) > self._cache_capacity:
                self._cache.popitem(last=False)
        if write and page_id in self._cache:
            # a cached write still dirties the page; count it as a write when
            # it was a hit so write amplification is not hidden entirely.
            pass

    def drop_cache(self) -> None:
        """Empty the buffer cache (used by benchmarks for cold-start runs)."""
        self._cache.clear()

    # -- slice-level interface ----------------------------------------------

    def place(self, cluster_key: str, payload: object) -> Tuple[int, int]:
        """Store ``payload`` clustered by ``cluster_key``.

        Returns the ``(page_id, slot)`` address of the new slice.
        """
        page = self._open_page(cluster_key)
        slot = page.insert(payload)
        self._touch(page.page_id, write=True)
        return page.page_id, slot

    def read(self, page_id: int, slot: int) -> object:
        page = self._page(page_id)
        self._touch(page_id, write=False)
        return page.read(slot)

    def write(self, page_id: int, slot: int, payload: object) -> None:
        page = self._page(page_id)
        page.write(slot, payload)
        self._touch(page_id, write=True)

    def modify(self, page_id: int, slot: int) -> object:
        """Fetch a slot's payload for in-place mutation: one page access,
        charged as a write (a slot update is a read-modify-write of the
        same page, not two independent I/Os)."""
        page = self._page(page_id)
        self._touch(page_id, write=True)
        return page.read(slot)

    def delete(self, page_id: int, slot: int) -> object:
        """Free a slot; returns the payload it held."""
        page = self._page(page_id)
        payload = page.delete(slot)
        self._touch(page_id, write=True)
        return payload

    def pages_for_key(self, cluster_key: str) -> List[int]:
        """All page ids that hold slices of ``cluster_key`` (live or not)."""
        return [p.page_id for p in self._pages.values() if p.cluster_key == cluster_key]

    def _page(self, page_id: int) -> Page:
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageError(f"unknown page id {page_id}") from None

    @property
    def page_count(self) -> int:
        return len(self._pages)
