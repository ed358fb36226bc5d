"""Unit tests for view/class/object handles and transparency mechanics."""

import pytest

from repro.errors import (
    InvalidCast,
    NotAMember,
    UnknownClass,
    UnknownProperty,
    UnknownView,
)
from repro.algebra.expressions import Compare
from repro.core.database import TseDatabase
from repro.schema.properties import Attribute
from repro.views.schema import ViewSchema


class TestViewHandle:
    def test_handle_tracks_current_version(self, fig3):
        """The transparency mechanism: handles resolve through the history,
        so an evolution flips what they see without re-acquisition."""
        db, view, _ = fig3
        same_handle = db.view("VS1")
        view.add_attribute("register", to="Student", domain="str")
        assert same_handle.version == 2
        assert "register" in same_handle["Student"].property_names()

    def test_unknown_view_raises(self, fig3):
        db, _, _ = fig3
        with pytest.raises(UnknownView):
            db.view("nope")

    def test_contains_and_getitem(self, fig3):
        db, view, _ = fig3
        assert "Student" in view
        assert "Grad" not in view  # outside the view
        with pytest.raises(UnknownClass):
            view["Grad"]

    def test_describe_renders(self, fig3):
        db, view, _ = fig3
        text = view.describe()
        assert "VS1.v1" in text and "TA isa Student" in text


class TestViewClassHandle:
    def test_extent_and_count(self, fig3):
        db, view, objects = fig3
        assert view["Person"].count() == len(objects)
        assert len(view["Person"].extent()) == len(objects)

    def test_select_where(self, fig3):
        db, view, _ = fig3
        young = view["Person"].select_where(Compare("age", "<", 21))
        assert all(h["age"] < 21 for h in young)

    def test_set_where(self, fig3):
        db, view, _ = fig3
        touched = view["Student"].set_where(
            Compare("major", "==", "cs"), advisor="prof"
        )
        assert touched > 0
        for h in view["Student"].select_where(Compare("major", "==", "cs")):
            assert h["advisor"] == "prof"

    def test_get_object_membership_checked(self, fig3):
        db, view, _ = fig3
        outsider = db.engine.create("Grad", {})
        with pytest.raises(NotAMember):
            view["TA"].get_object(outsider)

    def test_attribute_and_method_names(self, fig3):
        db, view, _ = fig3
        view.add_method("greet", to="Person", body=lambda h: f"hi {h['name']}")
        assert "greet" in view["Person"].method_names()
        assert "name" in view["Person"].attribute_names()
        assert "greet" not in view["Person"].attribute_names()


class TestObjectHandle:
    def test_method_invocation_receives_handle(self, fig3):
        db, view, _ = fig3
        view.add_method("greet", to="Person", body=lambda h: f"hi {h['name']}")
        person = view["Person"].extent()[0]
        assert person.call("greet") == f"hi {person['name']}"

    def test_method_with_arguments(self, fig3):
        db, view, _ = fig3
        view.add_method("older_than", to="Person", body=lambda h, n: h["age"] > n)
        person = view["Person"].extent()[0]
        assert person.call("older_than", 0) is True

    def test_calling_attribute_as_method_rejected(self, fig3):
        db, view, _ = fig3
        person = view["Person"].extent()[0]
        with pytest.raises(UnknownProperty):
            person.call("name")

    def test_values_respects_view_type(self, fig3):
        db, view, _ = fig3
        student = view["Student"].extent()[0]
        assert set(student.values()) == {
            "name",
            "age",
            "address",
            "ssn",
            "major",
            "advisor",
        }

    def test_classes_lists_memberships(self, fig3):
        db, view, _ = fig3
        ta = view["TA"].extent()[0]
        assert ta.classes() == ["Person", "Student", "TA"]

    def test_cast_changes_context(self, fig3):
        db, view, _ = fig3
        ta = view["TA"].extent()[0]
        as_person = ta.cast("Person")
        assert as_person.view_class == "Person"
        assert as_person.oid == ta.oid

    def test_cast_outside_membership_rejected(self, fig3):
        db, view, _ = fig3
        plain_student = view["Student"].create(name="no-ta")
        with pytest.raises(InvalidCast):
            plain_student.cast("TA")

    def test_equality_by_oid(self, fig3):
        db, view, _ = fig3
        first = view["TA"].extent()[0]
        again = view["Student"].get_object(first.oid)
        assert first == again
        assert len({first, again}) == 1

    def test_remove_from_and_add_to(self, fig3):
        db, view, _ = fig3
        student = view["Student"].create(name="mover")
        student.add_to("TA")
        assert student.oid in {h.oid for h in view["TA"].extent()}
        view["TA"].get_object(student.oid).remove_from("TA")
        assert student.oid not in {h.oid for h in view["TA"].extent()}


class TestPropertyRenames:
    def test_view_level_property_alias(self):
        """Disambiguation-by-renaming (section 6.1.1): a view exposes an
        aliased property name mapped onto the underlying one."""
        db = TseDatabase()
        db.define_class("Doc", [Attribute("title"), Attribute("body")])
        db.views.create_view(
            "V",
            ["Doc"],
            property_renames={"Doc": {"headline": "title"}},
            closure="ignore",
        )
        view = db.view("V")
        doc = view["Doc"].create(headline="Hello", body="world")
        assert doc["headline"] == "Hello"
        assert "headline" in view["Doc"].property_names()
        # the underlying name still resolves for unaliased access paths
        assert doc["title"] == "Hello"


def _accessor_surface(handle) -> dict:
    """What ``ViewHandle.dump()`` reports, rebuilt one accessor call at a
    time (one ``get_object`` per extent member)."""
    by_class = {}
    for cls in handle.class_names():
        cls_handle = handle[cls]
        extent = sorted(cls_handle.extent_oids())
        by_class[cls] = {
            "attributes": sorted(cls_handle.attribute_names()),
            "methods": sorted(cls_handle.method_names()),
            "extent": extent,
            "count": cls_handle.count(),
            "objects": {oid: cls_handle.get_object(oid).values() for oid in extent},
        }
    return {
        "version": handle.version,
        "classes": sorted(handle.class_names()),
        "edges": sorted(handle.edges()),
        "by_class": by_class,
    }


def _assert_dump_matches_accessors(db, plans: dict) -> None:
    for name in db.view_names():
        current = db.view(name)
        handles = [current] + [
            current.pin(schema.version)
            for schema in db.views.history.versions_of(name)
        ]
        for handle in handles:
            dump = handle.dump(plans)
            dump = dict(dump, classes=sorted(dump["classes"]),
                        edges=sorted(dump["edges"]))
            assert dump == _accessor_surface(handle), (name, handle.version)


def _walk(commands) -> None:
    """Apply ``commands`` through the differential harness and, after every
    step, pin every view version's ``dump()`` to the accessor surface."""
    from repro.checking.runner import DifferentialHarness

    harness = DifferentialHarness()
    plans: dict = {}
    db = None
    try:
        for command in commands:
            harness.apply(command)
            if harness.db is not db:  # recovery swapped the database in
                db, plans = harness.db, {}
            _assert_dump_matches_accessors(db, plans)
    finally:
        harness.close()


class TestDumpEqualsAccessors:
    """``dump()`` is the differential sweep's only reader, so it must
    answer exactly what the per-call accessors do — for every view,
    version and class, after every step of real fuzz and corpus runs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz_sequences(self, seed):
        from repro.checking.commands import CommandGenerator

        _walk(CommandGenerator(seed).generate(15))

    def test_corpus_entries(self):
        from pathlib import Path

        from repro.checking.minimize import load_corpus_entry

        corpus = sorted(
            (Path(__file__).parent / "corpus" / "differential").glob("*.json")
        )
        assert corpus
        for path in corpus:
            commands, _meta = load_corpus_entry(path)
            _walk(commands)
