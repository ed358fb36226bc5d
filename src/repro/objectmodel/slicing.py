"""The object-slicing object model (section 4 of the paper).

One logical object is represented as a *conceptual object* — a bare OID plus
membership bookkeeping — linked to one *implementation object* per class that
stores attributes for it.  This gives the two capabilities capacity-
augmenting views need (section 2.3):

* **multiple classification** — an object is simultaneously a member of every
  class it has (or could lazily have) a slice for;
* **dynamic restructuring** — giving every instance of ``Car`` a new stored
  attribute (via a capacity-augmenting refine class) requires no rewrite of
  existing storage: a new implementation object per car is created, lazily,
  the first time the new attribute is touched.

Slices live in the :class:`~repro.storage.store.ObjectStore`, clustered by
their class, so the page-level cost claims of Table 1 are observable.

Every leaf mutator is also an undo seam: while a ``db.transaction()``
savepoint is open it records its before-image in the store's
:class:`~repro.storage.undo.UndoLog`, and a rollback replays those steps
newest-first through the same mutators — each undo step seals its own
migration cone and emits its ordinary :class:`PoolDelta`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, FrozenSet, Iterable, ItemsView, Iterator, Optional, Set

from repro.errors import InvalidCast, NotAMember, ObjectNotFound
from repro.storage.oid import OID_SIZE_BYTES, POINTER_SIZE_BYTES, Oid
from repro.storage.store import ABSENT, ObjectStore

#: distinguishes "attribute never written" from a stored ``None`` so
#: :meth:`InstancePool.get_value` costs one page read instead of two
_MISSING = object()


@dataclass(frozen=True, slots=True)
class PoolDelta:
    """One typed change event emitted to delta listeners.

    Kinds and their populated fields:

    ==================  ==========================================
    ``add_membership``     ``oid``, ``class_name``
    ``remove_membership``  ``oid``, ``class_name``
    ``set_value``          ``oid``, ``class_name`` (storage class), ``attr``
    ``remove_value``       ``oid``, ``class_name`` (storage class), ``attr``
    ``destroy``            ``oid``
    ``reset``              (none — the whole pool state was replaced)
    ==================  ==========================================

    Incremental extent maintenance consumes these to apply ``±{oid}``
    through the derivation DAG instead of recomputing extents wholesale.
    """

    kind: str
    oid: Optional[Oid] = None
    class_name: Optional[str] = None
    attr: Optional[str] = None


@dataclass(slots=True)
class ImplementationObject:
    """One class-specific slice of a conceptual object.

    Carries its own OID (Table 1: ``#oids = 1 + N_impl``), the class whose
    locally-introduced stored attributes it holds, and the two pointers that
    link it with its conceptual object (``2 * N_impl`` pointers of managerial
    storage per object).
    """

    oid: Oid
    class_name: str
    conceptual_oid: Oid
    slice_id: Oid


class ConceptualObject:
    """The identity-bearing half of a sliced object.

    ``__slots__`` because the pool holds one of these per live object and
    the hot paths (value reads, membership checks) chase through them — a
    slotted layout removes the per-instance ``__dict__`` both in memory and
    in attribute-lookup indirection.
    """

    __slots__ = ("oid", "direct_classes", "implementations", "current_class")

    def __init__(self, oid: Oid) -> None:
        self.oid = oid
        #: base classes the object is a *direct* member of
        self.direct_classes: Set[str] = set()
        #: storage class name -> implementation object
        self.implementations: Dict[str, ImplementationObject] = {}
        #: the class currently representing the object (casting, Table 1)
        self.current_class: Optional[str] = None

    @property
    def n_impl(self) -> int:
        """Number of implementation objects (``N_impl`` in Table 1)."""
        return len(self.implementations)

    def managerial_storage_bytes(self) -> int:
        """Table 1 formula: ``(1 + N_impl) * sizeOf(oid) + N_impl * 2 *
        sizeOf(pointer)``."""
        return (1 + self.n_impl) * OID_SIZE_BYTES + self.n_impl * 2 * POINTER_SIZE_BYTES

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<object {self.oid} in {sorted(self.direct_classes)}>"


class InstancePool:
    """Creates, classifies and destroys sliced objects over an object store.

    The pool is schema-agnostic: membership is tracked by class *name* and
    slices by storage-class *name*.  The schema layer decides which classes
    exist and where each attribute is stored; the pool just keeps the slices.
    """

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self._objects: Dict[Oid, ConceptualObject] = {}
        self._members_direct: Dict[str, Set[Oid]] = {}
        self._generation = 0
        #: callbacks fired on value writes: (oid, storage_class, attr, value)
        self._value_listeners: list = []
        #: callbacks fired on value removals: (oid, storage_class, attr)
        self._value_remove_listeners: list = []
        #: callbacks fired when an object is destroyed: (oid,)
        self._destroy_listeners: list = []
        #: callbacks fired when a slice is dropped: (oid, storage_class)
        self._slice_drop_listeners: list = []
        #: callbacks fired with a :class:`PoolDelta` on every mutation
        self._delta_listeners: list = []
        #: optional :class:`~repro.concurrency.migration.MigrationEngine`;
        #: when set, every leaf mutator asks it to seal affected pending
        #: epoch extents *before* the pool state changes (lazy migration)
        self.migration = None

    def add_value_listener(self, callback) -> None:
        """Subscribe to attribute writes (index maintenance hook)."""
        self._value_listeners.append(callback)

    def add_value_remove_listener(self, callback) -> None:
        """Subscribe to attribute removals (index maintenance hook)."""
        self._value_remove_listeners.append(callback)

    def add_delta_listener(self, callback) -> None:
        """Subscribe to typed :class:`PoolDelta` events (extent maintenance).

        Deltas fire *after* the pool state reflects the change, so a
        listener re-reading the pool observes the post-state.
        """
        self._delta_listeners.append(callback)

    def _emit(self, delta: PoolDelta) -> None:
        for listener in self._delta_listeners:
            listener(delta)

    def add_destroy_listener(self, callback) -> None:
        """Subscribe to object destruction (index maintenance hook)."""
        self._destroy_listeners.append(callback)

    def add_slice_drop_listener(self, callback) -> None:
        """Subscribe to per-class slice drops (index maintenance hook)."""
        self._slice_drop_listeners.append(callback)

    @property
    def generation(self) -> int:
        """Monotone counter bumped on membership changes (extent caching)."""
        return self._generation

    def _dirty(self) -> None:
        self._generation += 1

    # -- lifecycle ------------------------------------------------------------

    def create_object(self, direct_classes: Iterable[str]) -> ConceptualObject:
        """Create a conceptual object that is a direct member of each class."""
        direct_classes = tuple(direct_classes)
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation(
            "membership", class_names=direct_classes
        )
        try:
            oid = self.store.allocate_oid()
            obj = ConceptualObject(oid)
            self._objects[oid] = obj
            for name in direct_classes:
                self._add_direct(obj, name)
            self._dirty()
            undo = self.store.undo
            if undo.recording:
                undo.record(self._uncreate, oid)
            for name in obj.direct_classes:
                self._emit(PoolDelta("add_membership", oid=oid, class_name=name))
            return obj
        finally:
            if sealed:
                mig.end_mutation()

    def _uncreate(self, oid: Oid) -> None:
        """Undo of :meth:`create_object`.  Later undo steps have already
        stripped the object back to its bare memberships, so removing it
        moves exactly the cone its creation sealed — no seal-everything
        :meth:`destroy_object` needed."""
        obj = self.get(oid)
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation(
            "membership", oid=oid, class_names=tuple(obj.direct_classes)
        )
        try:
            for name in obj.direct_classes:
                self._discard_direct(oid, name)
            del self._objects[oid]
            self._dirty()
            for listener in self._destroy_listeners:
                listener(oid)
            self._emit(PoolDelta("destroy", oid=oid))
        finally:
            if sealed:
                mig.end_mutation()

    def destroy_object(self, oid: Oid) -> None:
        """Destroy an object: all slices dropped, all memberships removed.

        This is the semantics of the generic ``delete`` operator — the object
        is "removed from all the classes which they belong to" (section 3.3).
        """
        obj = self.get(oid)
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation("destroy", oid=oid)
        try:
            undo = self.store.undo
            if undo.recording:
                # recorded before the slice drops, so on rollback the
                # slices are back before the object is revived
                undo.record(self._revive, obj)
            for impl in obj.implementations.values():
                self.store.drop_slice(impl.slice_id)
            for name in list(obj.direct_classes):
                self._discard_direct(oid, name)
            del self._objects[oid]
            self._dirty()
            for listener in self._destroy_listeners:
                listener(oid)
            self._emit(PoolDelta("destroy", oid=oid))
        finally:
            if sealed:
                mig.end_mutation()

    def _revive(self, obj: ConceptualObject) -> None:
        """Undo of :meth:`destroy_object`: the same conceptual object (same
        OID, memberships, slice links and current class) rejoins the pool.
        Its slices were restored by the store's own undo steps."""
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation("destroy", oid=obj.oid)
        try:
            self._objects[obj.oid] = obj
            for name in obj.direct_classes:
                self._members_direct.setdefault(name, set()).add(obj.oid)
            self._dirty()
            for impl in obj.implementations.values():
                self._announce_slice(obj.oid, impl)
            for name in obj.direct_classes:
                self._emit(PoolDelta("add_membership", oid=obj.oid, class_name=name))
        finally:
            if sealed:
                mig.end_mutation()

    def _announce_slice(self, oid: Oid, impl: ImplementationObject) -> None:
        """Tell value listeners and delta listeners about every value of a
        slice that has just been re-linked to its object (rollback only)."""
        for attr, value in self.store.read_slice(impl.slice_id).items():
            for listener in self._value_listeners:
                listener(oid, impl.class_name, attr, value)
            self._emit(
                PoolDelta("set_value", oid=oid, class_name=impl.class_name, attr=attr)
            )

    def get(self, oid: Oid) -> ConceptualObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectNotFound(f"no live object with {oid}") from None

    def exists(self, oid: Oid) -> bool:
        return oid in self._objects

    def all_oids(self) -> FrozenSet[Oid]:
        return frozenset(self._objects)

    def objects(self) -> Iterator[ConceptualObject]:
        return iter(self._objects.values())

    @property
    def object_count(self) -> int:
        return len(self._objects)

    # -- membership (multiple & dynamic classification) -------------------------

    def _add_direct(self, obj: ConceptualObject, class_name: str) -> None:
        obj.direct_classes.add(class_name)
        self._members_direct.setdefault(class_name, set()).add(obj.oid)

    def _discard_direct(self, oid: Oid, class_name: str) -> None:
        """Drop one direct membership, pruning the bucket when it empties so
        ``classes_with_members`` never iterates dead entries."""
        bucket = self._members_direct.get(class_name)
        if bucket is not None:
            bucket.discard(oid)
            if not bucket:
                del self._members_direct[class_name]

    def add_membership(self, oid: Oid, class_name: str) -> None:
        """Make the object a direct member of another class (generic ``add``).

        With object slicing this is cheap: record membership; slices appear
        lazily when class-specific attributes are touched.
        """
        obj = self.get(oid)
        if class_name not in obj.direct_classes:
            mig = self.migration
            sealed = mig is not None and mig.begin_mutation(
                "membership", oid=oid, class_names=(class_name,)
            )
            try:
                self._add_direct(obj, class_name)
                self._dirty()
                undo = self.store.undo
                if undo.recording:
                    undo.record(
                        self._unadd_membership, oid, class_name, obj.current_class
                    )
                self._emit(
                    PoolDelta("add_membership", oid=oid, class_name=class_name)
                )
            finally:
                if sealed:
                    mig.end_mutation()

    def _unadd_membership(
        self, oid: Oid, class_name: str, current_class: Optional[str]
    ) -> None:
        """Undo of :meth:`add_membership` (the slice, if any, is removed by
        its own :meth:`ensure_slice` undo step)."""
        self.remove_membership(oid, class_name, keep_slice=True)
        self.get(oid).current_class = current_class

    def remove_membership(
        self, oid: Oid, class_name: str, keep_slice: bool = False
    ) -> None:
        """Remove direct membership (generic ``remove``); drops the slice.

        ``keep_slice=True`` preserves the implementation slice: the caller
        (who knows the schema) has established that ``class_name`` is still
        an ancestor of one of the object's remaining memberships, so its
        stored attributes are still part of the object's type and must not
        be lost with the direct membership.
        """
        obj = self.get(oid)
        if class_name not in obj.direct_classes:
            raise NotAMember(f"{oid} is not a direct member of {class_name!r}")
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation(
            "membership", oid=oid, class_names=(class_name,)
        )
        try:
            obj.direct_classes.discard(class_name)
            self._discard_direct(oid, class_name)
            impl = None if keep_slice else obj.implementations.pop(class_name, None)
            undo = self.store.undo
            if undo.recording:
                # recorded before the slice drop: rollback restores the
                # slice first, then re-links it here
                undo.record(
                    self._unremove_membership,
                    oid,
                    class_name,
                    impl,
                    obj.current_class,
                )
            if impl is not None:
                self.store.drop_slice(impl.slice_id)
                for listener in self._slice_drop_listeners:
                    listener(oid, class_name)
            if obj.current_class == class_name:
                obj.current_class = None
            self._dirty()
            self._emit(
                PoolDelta("remove_membership", oid=oid, class_name=class_name)
            )
        finally:
            if sealed:
                mig.end_mutation()

    def _unremove_membership(
        self,
        oid: Oid,
        class_name: str,
        impl: Optional[ImplementationObject],
        current_class: Optional[str],
    ) -> None:
        """Undo of :meth:`remove_membership`: the membership returns, and
        so does the dropped slice (already restored in the store under its
        original id), re-linked and re-announced to the listeners."""
        obj = self.get(oid)
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation(
            "membership", oid=oid, class_names=(class_name,)
        )
        try:
            self._add_direct(obj, class_name)
            if impl is not None:
                obj.implementations[class_name] = impl
            obj.current_class = current_class
            self._dirty()
            if impl is not None:
                self._announce_slice(oid, impl)
            self._emit(PoolDelta("add_membership", oid=oid, class_name=class_name))
        finally:
            if sealed:
                mig.end_mutation()

    def reclassify(self, oid: Oid, from_class: str, to_class: str) -> None:
        """Dynamic classification (Table 1): swap one membership for another.

        With slicing this is "creating and destroying implementation
        objects" — no value copying, no identity swap.
        """
        self.remove_membership(oid, from_class)
        self.add_membership(oid, to_class)

    def members_direct(self, class_name: str) -> FrozenSet[Oid]:
        return frozenset(self._members_direct.get(class_name, ()))

    def classes_with_members(self) -> FrozenSet[str]:
        # empty buckets are pruned eagerly, so the keys are exactly the
        # classes with at least one direct member
        return frozenset(self._members_direct)

    def direct_membership_items(self) -> ItemsView[str, Set[Oid]]:
        """Read-only view over ``(class_name, direct members)`` pairs.

        Exposed for extent evaluation, which unions many buckets per call;
        handing out the live sets avoids one frozenset copy per bucket.
        Callers must not mutate the sets.
        """
        return self._members_direct.items()

    # -- casting ----------------------------------------------------------------

    def cast(self, oid: Oid, class_name: str, member_of: Container[str]) -> None:
        """Cast the object to ``class_name`` (switch its representative
        implementation object).

        ``member_of`` is any container of classes the caller (who knows the
        schema) has established the object belongs to; casting outside it
        raises.
        """
        obj = self.get(oid)
        if class_name not in member_of:
            raise InvalidCast(f"{oid} is not a member of {class_name!r}")
        undo = self.store.undo
        if undo.recording:
            undo.record(self._uncast, oid, obj.current_class)
        obj.current_class = class_name

    def _uncast(self, oid: Oid, current_class: Optional[str]) -> None:
        self.get(oid).current_class = current_class

    # -- slices and values ----------------------------------------------------------

    def ensure_slice(self, oid: Oid, storage_class: str) -> ImplementationObject:
        """Return the implementation object for ``storage_class``, creating
        it lazily — the dynamic-restructuring move of section 4.1."""
        obj = self.get(oid)
        impl = obj.implementations.get(storage_class)
        if impl is None:
            slice_id = self.store.create_slice(storage_class)
            impl = ImplementationObject(
                oid=self.store.allocate_oid(),
                class_name=storage_class,
                conceptual_oid=oid,
                slice_id=slice_id,
            )
            obj.implementations[storage_class] = impl
            undo = self.store.undo
            if undo.recording:
                undo.record(self._unlink_slice, oid, storage_class)
        return impl

    def _unlink_slice(self, oid: Oid, storage_class: str) -> None:
        """Undo of a lazy :meth:`ensure_slice`.  The slice holds no values
        by now (their writes were undone first), so unlinking it moves no
        extent; the store's own undo step then drops it."""
        del self.get(oid).implementations[storage_class]

    def get_value(
        self, oid: Oid, storage_class: str, attr: str, default: object = None
    ) -> object:
        """Read one stored attribute from the object's slice for the class.

        A missing slice means the attribute was never written: the default
        applies without materialising the slice (reads stay cheap even right
        after a capacity-augmenting refine over a huge extent).
        """
        obj = self.get(oid)
        impl = obj.implementations.get(storage_class)
        if impl is None:
            return default
        value = self.store.get_value(impl.slice_id, attr, _MISSING)
        return default if value is _MISSING else value

    def value_reader(self, storage_class: str, attr: str, default: object = None):
        """A pre-bound reader ``fn(oid) -> value``, equivalent to
        :meth:`get_value` with the same arguments but with the object table
        and the store-side column reader resolved once.  Built by the extent
        evaluator's plans so select scans read attribute values without any
        per-object setup."""
        slice_read = self.store.value_reader(storage_class, attr, default)

        def read(oid: Oid, _pool=self) -> object:
            # _objects is reassigned wholesale by restore(); go through the
            # pool attribute so a reader built before the swap follows it
            try:
                obj = _pool._objects[oid]
            except KeyError:
                raise ObjectNotFound(f"no live object with {oid}") from None
            impl = obj.implementations.get(storage_class)
            if impl is None:
                return default
            return slice_read(impl.slice_id)

        return read

    def _restore_value(
        self, oid: Oid, storage_class: str, attr: str, previous: object
    ) -> None:
        """Undo of :meth:`set_value`: write back the replaced value, or
        erase the attribute when there was none."""
        if previous is ABSENT:
            self.remove_value(oid, storage_class, attr)
        else:
            self.set_value(oid, storage_class, attr, previous)

    def has_value(self, oid: Oid, storage_class: str, attr: str) -> bool:
        obj = self.get(oid)
        impl = obj.implementations.get(storage_class)
        return impl is not None and self.store.has_value(impl.slice_id, attr)

    def set_value(self, oid: Oid, storage_class: str, attr: str, value: object) -> None:
        """Write one stored attribute into the slice, creating it on demand.

        Value writes bump the pool generation because select-class extents
        depend on attribute values, not only on memberships.
        """
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation(
            "value", oid=oid, class_names=(storage_class,), attr=attr
        )
        try:
            impl = self.ensure_slice(oid, storage_class)
            previous = self.store.put_value(impl.slice_id, attr, value)
            undo = self.store.undo
            if undo.recording:
                undo.record(self._restore_value, oid, storage_class, attr, previous)
            self._dirty()
            for listener in self._value_listeners:
                listener(oid, storage_class, attr, value)
            self._emit(
                PoolDelta("set_value", oid=oid, class_name=storage_class, attr=attr)
            )
        finally:
            if sealed:
                mig.end_mutation()

    def remove_value(self, oid: Oid, storage_class: str, attr: str) -> None:
        """Erase one stored attribute (used by update rollback)."""
        obj = self.get(oid)
        impl = obj.implementations.get(storage_class)
        if impl is not None:
            mig = self.migration
            sealed = mig is not None and mig.begin_mutation(
                "value", oid=oid, class_names=(storage_class,), attr=attr
            )
            try:
                previous = self.store.remove_value(impl.slice_id, attr)
                undo = self.store.undo
                if undo.recording and previous is not ABSENT:
                    undo.record(self.set_value, oid, storage_class, attr, previous)
                self._dirty()
                for listener in self._value_remove_listeners:
                    listener(oid, storage_class, attr)
                self._emit(
                    PoolDelta(
                        "remove_value", oid=oid, class_name=storage_class, attr=attr
                    )
                )
            finally:
                if sealed:
                    mig.end_mutation()

    # -- mementos -------------------------------------------------------------

    def memento(self) -> tuple:
        """A restorable snapshot of memberships and slice links.

        O(objects): savepoints do not use it (they record undo steps at the
        mutation seams instead).

        Implementation objects are immutable records, so sharing them
        between the live state and the memento is safe; the mutable sets and
        dicts are copied.
        """
        objects = {}
        for oid, obj in self._objects.items():
            clone = ConceptualObject(oid)
            clone.direct_classes = set(obj.direct_classes)
            clone.implementations = dict(obj.implementations)
            clone.current_class = obj.current_class
            objects[oid] = clone
        members = {name: set(oids) for name, oids in self._members_direct.items()}
        return (objects, members)

    def restore(self, memento: tuple) -> None:
        """Roll memberships and slice links back to a prior :meth:`memento`.

        The wholesale replacement can move any extent, so pending epoch
        captures are all sealed first.  Every other component observes it
        as one ``reset`` delta (extent caches are dropped whole).
        """
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation("reset")
        try:
            self._restore_body(memento)
        finally:
            if sealed:
                mig.end_mutation()

    def _restore_body(self, memento: tuple) -> None:
        objects, members = memento
        self._objects = {}
        for oid, obj in objects.items():
            clone = ConceptualObject(oid)
            clone.direct_classes = set(obj.direct_classes)
            clone.implementations = dict(obj.implementations)
            clone.current_class = obj.current_class
            self._objects[oid] = clone
        self._members_direct = {
            name: set(oids) for name, oids in members.items() if oids
        }
        self._dirty()
        self._emit(PoolDelta("reset"))

    # -- statistics for Table 1 ---------------------------------------------------

    def total_oids_used(self) -> int:
        """OIDs consumed by conceptual plus implementation objects."""
        return sum(1 + obj.n_impl for obj in self._objects.values())

    def total_managerial_bytes(self) -> int:
        return sum(obj.managerial_storage_bytes() for obj in self._objects.values())

    def average_n_impl(self) -> float:
        if not self._objects:
            return 0.0
        return sum(obj.n_impl for obj in self._objects.values()) / len(self._objects)
