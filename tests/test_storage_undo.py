"""Unit tests for the savepoint undo log at the object-store seam.

``TseDatabase.transaction()`` is the end-to-end surface (see
``tests/test_db_transactions.py``); these tests pin the store half of it:
slice create/drop record their own reversal, release keeps the work,
rollback undoes it newest-first back to its mark.
"""

import pytest

from repro.storage.store import ObjectStore


@pytest.fixture()
def store():
    return ObjectStore()


class TestReleaseRollback:
    def test_release_keeps_created_slice(self, store):
        store.undo.mark()
        slice_id = store.create_slice("A", {"x": 1})
        store.undo.release()
        assert store.read_slice(slice_id) == {"x": 1}
        assert len(store.undo) == 0

    def test_rollback_drops_created_slices(self, store):
        mark = store.undo.mark()
        slice_id = store.create_slice("A", {"x": 1})
        store.undo.rollback(mark)
        assert not store.slice_exists(slice_id)

    def test_rollback_restores_dropped_slice_under_its_id(self, store):
        slice_id = store.create_slice("A", {"x": 1})
        mark = store.undo.mark()
        store.drop_slice(slice_id)
        store.undo.rollback(mark)
        assert store.read_slice(slice_id) == {"x": 1}
        assert [sid for sid, _ in store.scan_cluster("A")] == [slice_id]

    def test_rollback_runs_newest_first(self, store):
        # the drop is undone before the create, so nothing is left behind
        mark = store.undo.mark()
        slice_id = store.create_slice("A", {"x": 1})
        store.drop_slice(slice_id)
        store.undo.rollback(mark)
        assert not store.slice_exists(slice_id)
        assert list(store.scan_cluster("A")) == []

    def test_nested_rollback_stops_at_its_own_mark(self, store):
        outer = store.undo.mark()
        kept = store.create_slice("A", {"x": 1})
        inner = store.undo.mark()
        dropped = store.create_slice("A", {"x": 2})
        store.undo.rollback(inner)
        assert store.slice_exists(kept)
        assert not store.slice_exists(dropped)
        store.undo.rollback(outer)
        assert not store.slice_exists(kept)

    def test_nothing_recorded_outside_a_savepoint(self, store):
        store.create_slice("A")
        assert len(store.undo) == 0


class TestSavepointState:
    def test_release_without_open_savepoint_rejected(self, store):
        store.undo.mark()
        store.undo.release()
        with pytest.raises(RuntimeError):
            store.undo.release()

    def test_rollback_without_open_savepoint_rejected(self, store):
        mark = store.undo.mark()
        store.undo.release()
        with pytest.raises(RuntimeError):
            store.undo.rollback(mark)
