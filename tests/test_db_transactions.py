"""Tests for database-level savepoint transactions (db.transaction())."""

import pytest

from repro.algebra.expressions import Compare
from repro.core.database import TseDatabase
from repro.schema.properties import Attribute
from repro.workloads.university import build_figure3_database, populate_students


class TestCommit:
    def test_successful_block_keeps_everything(self, fig3):
        db, view, _ = fig3
        with db.transaction():
            view.add_attribute("register", to="Student", domain="str")
            fresh = view["Student"].create(name="tx", register="r")
        assert view.version == 2
        assert fresh.oid in {h.oid for h in view["Student"].extent()}

    def test_nested_work_and_queries_inside(self, fig3):
        db, view, _ = fig3
        with db.transaction():
            view.add_attribute("flag", to="TA", domain="bool")
            view["TA"].set_where(Compare("salary", ">=", 0), flag=True)
            assert all(h["flag"] for h in view["TA"].extent())


class TestRollback:
    def test_schema_and_data_rolled_back_together(self, fig3):
        db, view, objects = fig3
        count_before = view["Student"].count()
        classes_before = db.schema.class_names()
        with pytest.raises(RuntimeError):
            with db.transaction():
                view.add_attribute("register", to="Student", domain="str")
                view["Student"].create(name="doomed", register="x")
                view["Student"].extent()[0]["name"] = "mangled"
                raise RuntimeError("abort")
        assert view.version == 1
        assert view["Student"].count() == count_before
        assert db.schema.class_names() == classes_before
        assert all(h["name"] != "mangled" for h in view["Student"].extent())

    def test_view_history_rolled_back(self, fig3):
        db, view, _ = fig3
        with pytest.raises(ValueError):
            with db.transaction():
                view.add_attribute("a", to="Student", domain="int")
                view.add_attribute("b", to="Student", domain="int")
                raise ValueError("no")
        assert db.views.history.total_versions() == 1
        assert len(db.evolution_log()) == 0

    def test_deletion_undone(self, fig3):
        db, view, _ = fig3
        victim = view["Student"].extent()[0]
        values_before = victim.values()
        with pytest.raises(RuntimeError):
            with db.transaction():
                victim.delete()
                raise RuntimeError("abort")
        assert victim.oid in {h.oid for h in view["Student"].extent()}
        assert view["Student"].get_object(victim.oid).values() == values_before

    def test_new_view_creation_undone(self, fig3):
        db, view, _ = fig3
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.create_view("scratch", ["Person"], closure="ignore")
                raise RuntimeError("abort")
        assert "scratch" not in db.view_names()

    def test_indexes_rebuilt_after_rollback(self, fig3):
        db, view, _ = fig3
        db.create_index("Person", "name")
        with pytest.raises(RuntimeError):
            with db.transaction():
                view["Student"].create(name="ghost")
                raise RuntimeError("abort")
        hits = view["Person"].select_where(Compare("name", "==", "ghost"))
        assert hits == []
        # index created inside an aborted transaction disappears
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.create_index("Person", "age")
                raise RuntimeError("abort")
        assert db.indexes.get("Person", "age") is None

    def test_database_fully_usable_after_rollback(self, fig3):
        db, view, _ = fig3
        with pytest.raises(RuntimeError):
            with db.transaction():
                view.add_attribute("x", to="Student", domain="int")
                raise RuntimeError("abort")
        # the same change applies cleanly afterwards
        view.add_attribute("x", to="Student", domain="int")
        assert "x" in view["Student"].property_names()
        db.schema.validate()

    def test_sequential_transactions_isolated(self, fig3):
        db, view, _ = fig3
        with db.transaction():
            view["Student"].create(name="first")
        with pytest.raises(RuntimeError):
            with db.transaction():
                view["Student"].create(name="second")
                raise RuntimeError("abort")
        names = {h["name"] for h in view["Student"].extent()}
        assert "first" in names and "second" not in names


def _rejected_batch(db, updates):
    """Run ``updates`` plus a trailing delete of a dead OID as one
    ``apply_many`` — the last update is rejected, so the batch rolls back."""
    from repro.errors import TseError
    from repro.storage.oid import Oid

    with pytest.raises(TseError):
        db.apply_many(list(updates) + [("delete", {"oids": [Oid(10**9)]})])


class TestUndoLogRollback:
    """Savepoints roll back through the undo log: in place, O(batch), with
    every component that observes the pool kept incrementally."""

    def test_page_counters_survive_a_rejected_batch(self, fig3):
        db, view, _ = fig3
        view["Person"].extent()
        for handle in view["Student"].extent():
            handle["name"]
        stats = db.store.stats
        before = stats.as_dict()
        assert before["page_reads"] + before["cache_hits"] > 0
        victim = view["Student"].extent()[0].oid
        _rejected_batch(
            db,
            [
                ("set", {"oids": [victim], "class_name": "Person",
                         "assignments": {"name": "x"}}),
                ("create", {"class_name": "Student",
                            "assignments": {"name": "ghost"}}),
            ],
        )
        assert db.store.stats is stats
        after = stats.as_dict()
        for key, value in before.items():
            assert after[key] >= value, (key, before, after)

    def test_aborted_delete_revives_the_same_object(self, fig3):
        db, view, _ = fig3
        victim = view["TA"].extent()[0]
        oid = victim.oid
        obj = db.pool.get(oid)
        classes = set(obj.direct_classes)
        links = {
            name: (impl.oid, impl.slice_id)
            for name, impl in obj.implementations.items()
        }
        payloads = {
            name: db.store.read_slice(impl.slice_id)
            for name, impl in obj.implementations.items()
        }
        values = view["TA"].get_object(oid).values()
        watermark = db.store.oid_next
        slices = db.store.live_slice_count
        _rejected_batch(
            db,
            [
                ("delete", {"oids": [oid]}),
                ("create", {"class_name": "Student",
                            "assignments": {"name": "new"}}),
            ],
        )
        revived = db.pool.get(oid)
        assert revived.direct_classes == classes
        assert {
            name: (impl.oid, impl.slice_id)
            for name, impl in revived.implementations.items()
        } == links
        assert {
            name: db.store.read_slice(impl.slice_id)
            for name, impl in revived.implementations.items()
        } == payloads
        assert view["TA"].get_object(oid).values() == values
        assert db.store.oid_next == watermark
        assert db.store.live_slice_count == slices
        assert oid in db.evaluator.extent("TA")

    def test_aborted_remove_restores_the_dropped_slice(self, fig3):
        db, view, _ = fig3
        student = next(
            h for h in view["Student"].extent()
            if "Student" in db.pool.get(h.oid).direct_classes
            and "Student" in db.pool.get(h.oid).implementations
        )
        oid = student.oid
        slice_id = db.pool.get(oid).implementations["Student"].slice_id
        values = student.values()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.engine.remove([oid], "Student")
                assert not db.store.slice_exists(slice_id)
                raise RuntimeError("abort")
        assert db.pool.get(oid).implementations["Student"].slice_id == slice_id
        assert view["Student"].get_object(oid).values() == values
        assert oid in db.evaluator.extent("Student")

    def test_abort_keeps_unrelated_extent_caches(self, fig3):
        db, view, _ = fig3
        seen = []
        db.pool.add_delta_listener(lambda delta: seen.append(delta.kind))
        for name in db.schema.class_names():
            db.evaluator.extent(name)
        cached = dict(db.evaluator._cache)
        misses = db.evaluator.stats.misses
        _rejected_batch(
            db, [("create", {"class_name": "Person", "assignments": {"name": "p"}})]
        )
        assert "reset" not in seen
        assert db.evaluator._cache == cached
        for name in db.schema.class_names():
            db.evaluator.extent(name)
        assert db.evaluator.stats.misses == misses

    def test_indexes_follow_rollback_incrementally(self, fig3):
        db, view, _ = fig3
        db.create_index("Person", "name")
        target = view["Person"].extent()[0]
        old_name = target["name"]
        with pytest.raises(RuntimeError):
            with db.transaction():
                target["name"] = "renamed"
                db.indexes.drop_index("Person", "name")
                raise RuntimeError("abort")
        restored = db.indexes.get("Person", "name")
        assert restored is not None
        assert target.oid in restored.lookup(old_name)
        assert restored.lookup("renamed") == frozenset()

    def test_index_entries_undone_without_a_rebuild(self, fig3):
        db, view, _ = fig3
        index = db.create_index("Person", "name")
        target = view["Person"].extent()[0]
        old_name = target["name"]
        with pytest.raises(RuntimeError):
            with db.transaction():
                target["name"] = "renamed"
                view["Student"].create(name="ghost")
                raise RuntimeError("abort")
        assert db.indexes.get("Person", "name") is index
        assert target.oid in index.lookup(old_name)
        assert index.lookup("renamed") == frozenset()
        assert index.lookup("ghost") == frozenset()

    def test_nested_abort_rolls_back_to_its_own_mark(self, fig3):
        db, view, _ = fig3
        with db.transaction():
            kept = view["Student"].create(name="kept")
            with pytest.raises(RuntimeError):
                with db.transaction():
                    view["Student"].create(name="inner")
                    kept["name"] = "clobbered"
                    raise RuntimeError("inner abort")
            assert kept["name"] == "kept"
        names = {h["name"] for h in view["Student"].extent()}
        assert "kept" in names and "inner" not in names

    def test_outer_abort_undoes_committed_inner_block(self, fig3):
        db, view, _ = fig3
        count = view["Student"].count()
        watermark = db.store.oid_next
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    view["Student"].create(name="inner")
                raise RuntimeError("outer abort")
        assert view["Student"].count() == count
        assert db.store.oid_next == watermark
        assert len(db.store.undo) == 0 and not db.store.undo.recording
