"""Tests for hash indexes and dotted path expressions."""

import pytest

from repro.errors import ObjectModelError, PredicateError
from repro.algebra.expressions import And, Compare
from repro.core.database import TseDatabase
from repro.schema.extents import read_path
from repro.schema.properties import Attribute


@pytest.fixture()
def tagged():
    db = TseDatabase()
    db.define_class(
        "Doc", [Attribute("tag", domain="str"), Attribute("size", domain="int")]
    )
    view = db.create_view("V", ["Doc"])
    for index in range(60):
        view["Doc"].create(tag=f"t{index % 6}", size=index)
    return db, view


class TestHashIndex:
    def test_index_backfills_existing_data(self, tagged):
        db, view = tagged
        index = db.create_index("Doc", "tag")
        assert index.entry_count == 60
        assert len(index.lookup("t2")) == 10

    def test_select_where_uses_index(self, tagged):
        db, view = tagged
        index = db.create_index("Doc", "tag")
        hits = view["Doc"].select_where(Compare("tag", "==", "t1"))
        assert len(hits) == 10
        assert index.lookups == 1

    def test_and_rooted_predicates_still_use_index(self, tagged):
        db, view = tagged
        index = db.create_index("Doc", "tag")
        hits = view["Doc"].select_where(
            And(Compare("tag", "==", "t1"), Compare("size", ">", 30))
        )
        assert all(h["tag"] == "t1" and h["size"] > 30 for h in hits)
        assert index.lookups == 1

    def test_isin_predicate_uses_index(self, tagged):
        from repro.algebra.expressions import IsIn

        db, view = tagged
        index = db.create_index("Doc", "tag")
        hits = view["Doc"].select_where(IsIn("tag", ("t1", "t2")))
        assert len(hits) == 20
        assert index.lookups == 2  # one lookup per listed value

    def test_index_maintained_on_writes(self, tagged):
        db, view = tagged
        db.create_index("Doc", "tag")
        handle = view["Doc"].select_where(Compare("tag", "==", "t0"))[0]
        handle["tag"] = "renamed"
        assert len(view["Doc"].select_where(Compare("tag", "==", "t0"))) == 9
        assert len(view["Doc"].select_where(Compare("tag", "==", "renamed"))) == 1

    def test_index_maintained_on_create_and_delete(self, tagged):
        db, view = tagged
        db.create_index("Doc", "tag")
        fresh = view["Doc"].create(tag="brand-new", size=1)
        assert len(view["Doc"].select_where(Compare("tag", "==", "brand-new"))) == 1
        fresh.delete()
        assert view["Doc"].select_where(Compare("tag", "==", "brand-new")) == []

    def test_index_agrees_with_scan(self, tagged):
        """Correctness oracle: indexed and scan answers are identical."""
        db, view = tagged
        scan = {h.oid for h in view["Doc"].select_where(Compare("tag", "==", "t4"))}
        db.create_index("Doc", "tag")
        indexed = {h.oid for h in view["Doc"].select_where(Compare("tag", "==", "t4"))}
        assert indexed == scan

    def test_index_on_refined_attribute(self):
        """Capacity-augmenting attributes index at their refine class."""
        db = TseDatabase()
        db.define_class("Item", [Attribute("sku", domain="str")])
        view = db.create_view("V", ["Item"])
        for index in range(10):
            view["Item"].create(sku=f"s{index}")
        view.add_attribute("status", to="Item", domain="str")
        for handle in view["Item"].extent():
            handle["status"] = "new"
        index = db.create_index(view.schema.global_name_of("Item"), "status")
        assert index.storage_class == view.schema.global_name_of("Item")
        hits = view["Item"].select_where(Compare("status", "==", "new"))
        assert len(hits) == 10

    def test_non_stored_attribute_rejected(self, tagged):
        db, view = tagged
        from repro.schema.properties import Method

        db.define_class("WithMethod", [Method("m", body=lambda h: 1)])
        with pytest.raises(ObjectModelError):
            db.create_index("WithMethod", "m")

    def test_drop_index(self, tagged):
        db, view = tagged
        db.create_index("Doc", "tag")
        db.indexes.drop_index("Doc", "tag")
        assert db.indexes.get("Doc", "tag") is None
        with pytest.raises(ObjectModelError):
            db.indexes.drop_index("Doc", "tag")

    def test_index_maintained_on_value_removal(self, tagged):
        db, view = tagged
        index = db.create_index("Doc", "tag")
        oid = next(iter(index.lookup("t1")))
        db.pool.remove_value(oid, "Doc", "tag")
        assert oid not in index.lookup("t1")
        # the maintained index equals one backfilled from the live data
        db.indexes.drop_index("Doc", "tag")
        fresh = db.indexes.create_index("Doc", "tag")
        assert fresh.entry_count == index.entry_count == 59
        assert fresh.lookup("t1") == index.lookup("t1")

    def test_remove_membership_drops_index_entries(self):
        db = TseDatabase()
        db.define_class("A", [Attribute("x", domain="int")])
        db.define_class("B", [], inherits_from=("A",))
        view = db.create_view("V", ["A", "B"])
        obj = view["B"].create(x=5)
        db.create_index("A", "x")
        assert len(db.indexes.get("A", "x").lookup(5)) == 1
        db.engine.remove([obj.oid], "B")
        # the object only held direct membership in B; its value slice for A
        # (where x is stored) outlives the B membership, so it stays indexed
        # as long as the object itself is alive
        assert db.pool.exists(obj.oid)


class TestPathExpressions:
    @pytest.fixture()
    def advised(self):
        db = TseDatabase()
        db.define_class("Person", [Attribute("name", domain="str")])
        db.define_class(
            "Student",
            [Attribute("advisor", domain="Person")],
            inherits_from=("Person",),
        )
        view = db.create_view("V", ["Person", "Student"])
        prof = view["Person"].create(name="Knuth")
        ada = view["Student"].create(name="Ada", advisor=prof.oid)
        bob = view["Student"].create(name="Bob")
        return db, view, prof, ada, bob

    def test_predicate_traverses_reference(self, advised):
        db, view, prof, ada, bob = advised
        hits = view["Student"].select_where(Compare("advisor.name", "==", "Knuth"))
        assert [h.oid for h in hits] == [ada.oid]

    def test_handle_reads_path(self, advised):
        db, view, prof, ada, bob = advised
        assert ada["advisor.name"] == "Knuth"

    def test_none_along_path_yields_none(self, advised):
        db, view, prof, ada, bob = advised
        assert bob["advisor.name"] is None

    def test_multi_hop_path(self):
        db = TseDatabase()
        db.define_class("Person", [Attribute("name", domain="str")])
        db.define_class(
            "Office", [Attribute("occupant", domain="Person")],
        )
        db.define_class(
            "Building", [Attribute("corner_office", domain="Office")],
        )
        view = db.create_view("V", ["Person", "Office", "Building"])
        boss = view["Person"].create(name="Boss")
        office = view["Office"].create(occupant=boss.oid)
        hq = view["Building"].create(corner_office=office.oid)
        assert hq["corner_office.occupant.name"] == "Boss"

    def test_primitive_domain_not_traversable(self, advised):
        db, view, prof, ada, bob = advised
        with pytest.raises(PredicateError):
            read_path(db.schema, db.pool, "Student", ada.oid, "name.length")

    def test_language_supports_paths(self, advised):
        db, view, prof, ada, bob = advised
        from repro.lang import Interpreter

        result = Interpreter(db, "V").execute(
            'set Student where advisor.name == "Knuth" [name = "Ada L"]'
        )
        assert result.count == 1
        assert ada["name"] == "Ada L"


class TestRenameProperty:
    def test_rename_creates_new_version(self, tagged):
        db, view = tagged
        view.rename_property("Doc", "tag", "label")
        assert view.version == 2
        assert "label" in view["Doc"].property_names()
        handle = view["Doc"].extent()[0]
        assert handle["label"] is not None

    def test_rename_is_view_local(self, tagged):
        db, view = tagged
        other = db.create_view("other", ["Doc"])
        view.rename_property("Doc", "tag", "label")
        assert "tag" in other["Doc"].property_names()
        assert "label" not in other["Doc"].property_names()

    def test_rename_collision_rejected(self, tagged):
        db, view = tagged
        from repro.errors import ChangeRejected

        with pytest.raises(ChangeRejected):
            view.rename_property("Doc", "tag", "size")

    def test_rename_unknown_rejected(self, tagged):
        db, view = tagged
        from repro.errors import ChangeRejected

        with pytest.raises(ChangeRejected):
            view.rename_property("Doc", "ghost", "new")

    def test_rename_then_rename_again(self, tagged):
        db, view = tagged
        view.rename_property("Doc", "tag", "label")
        view.rename_property("Doc", "label", "badge")
        handle = view["Doc"].extent()[0]
        assert handle["badge"] is not None
        assert "label" not in view["Doc"].property_names()

    def test_create_through_alias(self, tagged):
        db, view = tagged
        view.rename_property("Doc", "tag", "label")
        fresh = view["Doc"].create(label="aliased", size=1)
        assert fresh["label"] == "aliased"
