"""Generic update operators and their propagation through views (§3.3–3.4).

The five generic operators — ``create``, ``delete``, ``set``, ``add``,
``remove`` — are applicable to base *and* virtual classes.  Updates against a
virtual class are routed to its source classes following the per-operator
rules of section 3.4, eventually bottoming out at *origin* base classes
(the Theorem 1 construction).  The routing table:

===========  =====================================================
derivation   routing
===========  =====================================================
select       all ops work on the source; creations/additions/sets
             that leave the predicate unsatisfied raise (or are
             allowed through, never becoming visible) per the
             configured value-closure policy
difference   all ops work on the *first* argument class
hide         all ops on the source; hidden attributes cannot be
             assigned — defaults apply; a hidden REQUIRED attribute
             without a default rejects creation (footnote 4)
refine       all ops on the source; ``set`` of a refining attribute
             is applied at the virtual class itself (its slice)
union        ``create``/``add`` go to the *propagation source* (the
             substituted class of section 6.5.4) or an explicit
             target; ``delete``/``remove``/``set`` go to both
             arguments when the object is a member
intersect    ``create``/``add`` propagate to *both* arguments;
             ``remove`` is ambiguous — both by default, or an
             explicit single target
===========  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    NotAMember,
    NotUpdatable,
    UnknownProperty,
    UpdateRejected,
)
from repro.objectmodel.slicing import InstancePool
from repro.schema.classes import BaseClass, VirtualClass
from repro.schema.extents import (
    ExtentEvaluator,
    IncrementalExtentEvaluator,
    read_attribute,
)
from repro.schema.graph import GlobalSchema
from repro.schema.properties import Attribute
from repro.schema import types as typemod
from repro.storage.oid import Oid


class ValueClosurePolicy(enum.Enum):
    """The two resolutions of the value-closure problem [6] (section 3.4)."""

    #: reject creations/additions/sets that would not be visible in the class
    REJECT = "reject"
    #: perform them on the source class; the object simply stays invisible
    ALLOW = "allow"


@dataclass
class UpdateReport:
    """What an update actually did — useful for tests and tracing."""

    operation: str
    class_name: str
    oids: Tuple[Oid, ...]
    routed_to: Tuple[str, ...]


class UpdateEngine:
    """Executes generic updates with section 3.4 propagation."""

    def __init__(
        self,
        schema: GlobalSchema,
        pool: InstancePool,
        evaluator: Optional[ExtentEvaluator] = None,
        value_closure: ValueClosurePolicy = ValueClosurePolicy.REJECT,
    ) -> None:
        self.schema = schema
        self.pool = pool
        self.evaluator = evaluator or IncrementalExtentEvaluator(schema, pool)
        self.value_closure = value_closure
        #: optional :class:`repro.storage.wal.WalManager`; when set, every
        #: successful operator journals a logical record.  Records are
        #: written *after* the in-memory mutation succeeds (a rejected
        #: update leaves no trace), carrying the pre-operation OID
        #: watermark so replay allocates identically even though failed
        #: operations consumed OIDs without logging anything.
        self.journal = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _check_updatable(self, class_name: str) -> None:
        if not self.schema[class_name].updatable:
            raise NotUpdatable(
                f"class {class_name!r} was derived by an object-generating "
                f"query and is not updatable with generic operators"
            )

    def insertion_targets(
        self, class_name: str, union_target: Optional[str] = None
    ) -> FrozenSet[str]:
        """Base classes a ``create``/``add`` against ``class_name`` lands in.

        ``union_target`` overrides the routing at union classes (the paper's
        "the choice depends on the context").
        """
        self._check_updatable(class_name)
        cls = self.schema[class_name]
        if isinstance(cls, BaseClass):
            return frozenset({class_name})
        assert isinstance(cls, VirtualClass)
        der = cls.derivation
        if der.op in ("select", "hide", "refine"):
            return self.insertion_targets(der.source, union_target)
        if der.op == "difference":
            return self.insertion_targets(der.sources[0], union_target)
        if der.op == "union":
            chosen = union_target or cls.propagation_source or der.sources[0]
            if chosen == "both":
                return self.insertion_targets(
                    der.sources[0], None
                ) | self.insertion_targets(der.sources[1], None)
            if chosen not in der.sources:
                raise UpdateRejected(
                    f"union target {chosen!r} is not a source of {class_name!r}"
                )
            return self.insertion_targets(chosen, None)
        if der.op == "intersect":
            return self.insertion_targets(
                der.sources[0], union_target
            ) | self.insertion_targets(der.sources[1], union_target)
        raise UpdateRejected(f"unhandled derivation {der.op!r}")  # pragma: no cover

    def origin_classes(self, class_name: str) -> FrozenSet[str]:
        """All base classes reachable by chasing source relationships — the
        *origin classes* of section 3.4."""
        cls = self.schema[class_name]
        if isinstance(cls, BaseClass):
            return frozenset({class_name})
        assert isinstance(cls, VirtualClass)
        result: Set[str] = set()
        for source in cls.derivation.sources:
            result |= self.origin_classes(source)
        return frozenset(result)

    def removal_targets(
        self, class_name: str, target: Optional[str] = None
    ) -> FrozenSet[str]:
        """Base classes a ``remove`` against ``class_name`` propagates to."""
        self._check_updatable(class_name)
        cls = self.schema[class_name]
        if isinstance(cls, BaseClass):
            return frozenset({class_name})
        assert isinstance(cls, VirtualClass)
        der = cls.derivation
        if der.op in ("select", "hide", "refine"):
            return self.removal_targets(der.source, target)
        if der.op == "difference":
            return self.removal_targets(der.sources[0], target)
        if der.op == "union":
            # remove goes to both sources when the object is a member there
            return self.removal_targets(der.sources[0]) | self.removal_targets(
                der.sources[1]
            )
        if der.op == "intersect":
            if target is not None:
                if target not in der.sources:
                    raise UpdateRejected(
                        f"intersect target {target!r} is not a source of "
                        f"{class_name!r}"
                    )
                return self.removal_targets(target)
            return self.removal_targets(der.sources[0]) | self.removal_targets(
                der.sources[1]
            )
        raise UpdateRejected(f"unhandled derivation {der.op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # assignment helpers
    # ------------------------------------------------------------------

    def _resolve_assignable(self, class_name: str, attr: str):
        """Resolve ``attr`` in the class's type, insisting it is a stored
        attribute (methods and derived attributes are not assignable)."""
        type_map = self.schema.type_of(class_name)
        resolved = typemod.resolve_qualified(type_map, attr, class_name=class_name)
        if not isinstance(resolved.prop, Attribute) or resolved.storage_class is None:
            raise UpdateRejected(
                f"{attr!r} of {class_name!r} is not an assignable stored attribute"
            )
        return resolved

    def _apply_assignments(
        self, oid: Oid, class_name: str, assignments: Dict[str, object]
    ) -> List[Tuple[str, str, bool, object]]:
        """Write assignments through ``class_name``'s type.

        Returns an undo log of ``(storage_class, attr, had_value, old)``.
        """
        undo: List[Tuple[str, str, bool, object]] = []
        for attr, value in assignments.items():
            resolved = self._resolve_assignable(class_name, attr)
            storage = resolved.storage_class
            bare_name = resolved.name  # qualified refs store under the name
            had = self.pool.has_value(oid, storage, bare_name)
            old = self.pool.get_value(oid, storage, bare_name) if had else None
            undo.append((storage, bare_name, had, old))
            self.pool.set_value(oid, storage, bare_name, value)
        return undo

    def _rollback_assignments(
        self, oid: Oid, undo: List[Tuple[str, str, bool, object]]
    ) -> None:
        for storage, attr, had, old in reversed(undo):
            if had:
                self.pool.set_value(oid, storage, attr, old)
            else:
                self.pool.remove_value(oid, storage, attr)

    def _fill_required(self, oid: Oid, base_targets: Iterable[str]) -> None:
        """Apply defaults / reject for REQUIRED attributes after a create.

        Walks the types of the classes the new object became a member of; a
        required stored attribute without a value takes its declared default,
        and rejects the creation when no default exists (footnote 4's hidden-
        REQUIRED case surfaces here, because the hide class's type cannot
        assign the attribute).
        """
        for target in base_targets:
            type_map = self.schema.type_of(target)
            for entry in typemod.stored_attributes(type_map):
                prop = entry.prop
                assert isinstance(prop, Attribute)
                if not prop.required:
                    continue
                if self.pool.has_value(oid, entry.storage_class, prop.name):
                    continue
                if prop.default is not None:
                    self.pool.set_value(
                        oid, entry.storage_class, prop.name, prop.default
                    )
                else:
                    raise UpdateRejected(
                        f"required attribute {prop.name!r} of {target!r} "
                        f"received no value and has no default"
                    )

    # ------------------------------------------------------------------
    # the five generic operators
    # ------------------------------------------------------------------

    def create(
        self,
        class_name: str,
        assignments: Optional[Dict[str, object]] = None,
        union_target: Optional[str] = None,
    ) -> Oid:
        """``<class> create [<assignments>]`` — returns the new object's OID."""
        assignments = dict(assignments or {})
        oid_base = self.pool.store.oid_next
        targets = self.insertion_targets(class_name, union_target)
        obj = self.pool.create_object(targets)
        try:
            self._apply_assignments(obj.oid, class_name, assignments)
            self._fill_required(obj.oid, targets)
            if (
                self.value_closure is ValueClosurePolicy.REJECT
                and obj.oid not in self.evaluator.extent(class_name)
            ):
                raise UpdateRejected(
                    f"created object would not be visible in {class_name!r} "
                    f"(value-closure violation)"
                )
        except Exception:
            self.pool.destroy_object(obj.oid)
            # every OID from ``oid_base`` on went to the object just
            # destroyed: hand them back, so the watermark stays the one a
            # log replay (which never sees this create) reproduces
            self.pool.store.rewind_oids(oid_base)
            raise
        if self.journal is not None:
            self.journal.log_create(
                class_name, assignments, union_target, obj.oid, oid_base
            )
        return obj.oid

    def delete(self, oids: Iterable[Oid]) -> UpdateReport:
        """``<set-expr> delete`` — destroy objects entirely (all classes)."""
        oids = tuple(oids)
        for oid in oids:
            self.pool.destroy_object(oid)
        if self.journal is not None and oids:
            self.journal.log_delete(oids)
        return UpdateReport("delete", "*", oids, ())

    def set_values(
        self,
        oids: Iterable[Oid],
        class_name: str,
        assignments: Dict[str, object],
    ) -> UpdateReport:
        """``<set-expr> set [<assignments>]`` through ``class_name``'s type.

        A refining attribute is stored at the refine virtual class (its
        storage class); everything else propagates to the defining source —
        both fall out of type resolution, which records the storage class per
        attribute.
        """
        self._check_updatable(class_name)
        oids = tuple(oids)
        oid_base = self.pool.store.oid_next
        extent = self.evaluator.extent(class_name)
        for oid in oids:
            if oid not in extent:
                raise NotAMember(f"{oid} is not a member of {class_name!r}")
        undo_per_oid: List[Tuple[Oid, list]] = []
        try:
            for oid in oids:
                undo = self._apply_assignments(oid, class_name, dict(assignments))
                undo_per_oid.append((oid, undo))
            if self.value_closure is ValueClosurePolicy.REJECT:
                new_extent = self.evaluator.extent(class_name)
                escaped = [oid for oid in oids if oid not in new_extent]
                if escaped:
                    raise UpdateRejected(
                        f"set would move {len(escaped)} object(s) out of "
                        f"{class_name!r} (value-closure violation)"
                    )
        except Exception:
            for oid, undo in reversed(undo_per_oid):
                self._rollback_assignments(oid, undo)
            raise
        if self.journal is not None and oids:
            self.journal.log_set(class_name, oids, assignments, oid_base)
        return UpdateReport("set", class_name, oids, ())

    def add(
        self,
        oids: Iterable[Oid],
        class_name: str,
        union_target: Optional[str] = None,
    ) -> UpdateReport:
        """``<set-expr> add <class>`` — objects acquire the class's type."""
        oids = tuple(oids)
        targets = self.insertion_targets(class_name, union_target)
        added: List[Tuple[Oid, str]] = []
        try:
            for oid in oids:
                for target in targets:
                    if target not in self.pool.get(oid).direct_classes:
                        self.pool.add_membership(oid, target)
                        added.append((oid, target))
            if self.value_closure is ValueClosurePolicy.REJECT:
                extent = self.evaluator.extent(class_name)
                escaped = [oid for oid in oids if oid not in extent]
                if escaped:
                    raise UpdateRejected(
                        f"add could not make {len(escaped)} object(s) visible "
                        f"in {class_name!r} (value-closure violation)"
                    )
        except Exception:
            for oid, target in reversed(added):
                # the forward pass only recorded memberships (slices appear
                # lazily), so a slice for ``target`` can only pre-exist —
                # e.g. as ancestor storage of another membership — and the
                # rollback must not destroy its values
                self.pool.remove_membership(oid, target, keep_slice=True)
            raise
        if self.journal is not None and oids:
            self.journal.log_add(class_name, oids, union_target)
        return UpdateReport("add", class_name, oids, tuple(sorted(targets)))

    def remove(
        self,
        oids: Iterable[Oid],
        class_name: str,
        target: Optional[str] = None,
    ) -> UpdateReport:
        """``<set-expr> remove <class>`` — objects lose the class's type."""
        oids = tuple(oids)
        targets = self.removal_targets(class_name, target)
        extent = self.evaluator.extent(class_name)
        for oid in oids:
            if oid not in extent:
                raise NotAMember(f"{oid} is not a member of {class_name!r}")
        for oid in oids:
            obj = self.pool.get(oid)
            removable = [t for t in targets if t in obj.direct_classes]
            if not removable:
                raise NotAMember(
                    f"{oid} has no direct membership among {sorted(targets)}"
                )
            remaining = set(obj.direct_classes) - set(removable)
            for member_class in removable:
                # the slice stays when the removed class is still an ancestor
                # of a remaining membership: the object keeps that part of its
                # type, so removing the direct membership must not lose values
                keep = any(
                    self.schema.is_ancestor(member_class, direct)
                    for direct in remaining
                )
                self.pool.remove_membership(oid, member_class, keep_slice=keep)
        if self.journal is not None and oids:
            self.journal.log_remove(class_name, oids, target)
        return UpdateReport("remove", class_name, oids, tuple(sorted(targets)))

    # ------------------------------------------------------------------
    # Theorem 1 support
    # ------------------------------------------------------------------

    def is_updatable(self, class_name: str) -> bool:
        """Theorem 1 marker propagation: a class is updatable when it is a
        base class or all the classes its derivation is based on are."""
        cls = self.schema[class_name]
        if not cls.updatable:
            return False
        if isinstance(cls, BaseClass):
            return True
        assert isinstance(cls, VirtualClass)
        return all(self.is_updatable(source) for source in cls.derivation.sources)
