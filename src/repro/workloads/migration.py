"""Lazy-migration capture counts for data writes (``benchmarks/bench_migration.py``).

An epoch published by a data write must share every extent the write did
not move, and each moved extent must be captured once however many
pinned epochs still wait for it.  This workload drives a lazy-migration
database (backfill worker off, so every capture is accounted for) through
writer sessions and reads the ``migration`` counters:

* a committed value write that moves no extent — the backlog it leaves
  and the pending epochs it registers (both must be 0);
* a create and a delete — how many class extents each moved, and how many
  extents the engine captured for it after ``readers`` further epochs
  were pinned on top of it (by value writes that move nothing) and the
  backlog was drained.  Captured must not exceed moved.

Counters, not timings: the figures are exact and machine-independent.
"""

from __future__ import annotations

from typing import Dict

from repro.algebra.expressions import Compare
from repro.schema.classes import Derivation
from repro.workloads.savepoint import BASE_OBJECTS, build_population


def measure_capture_counts(scale: int, readers: int) -> Dict[str, int]:
    """Migration counters for a value write, a create and a delete at
    ``scale`` x :data:`BASE_OBJECTS` objects with ``readers`` pinned
    epochs stacked on each structural write."""
    db = build_population(BASE_OBJECTS * scale)
    db.define_virtual_class(
        "Adult",
        Derivation(op="select", sources=("Person",), predicate=Compare("age", ">=", 21)),
    )
    db.migration_mode = "lazy"
    db.migration_backfill = False
    sessions = db.sessions()
    engine = sessions.migration
    engine.drain()
    class_names = sorted(db.schema.class_names())
    target = sorted(db.evaluator.extent("Person"))[len(db.pool.all_oids()) // 2]
    victim = sorted(db.evaluator.extent("Student"))[0]

    def write(mutate) -> None:
        with sessions.writer() as writer:
            mutate(writer.view("campus"))

    def rename(view) -> None:  # reads no select predicate: moves nothing
        view["Person"].get_object(target).set("name", "renamed")

    def structural(mutate):
        before = {name: db.evaluator.extent(name) for name in class_names}
        captured = engine.classes_captured
        write(mutate)
        moved = sum(db.evaluator.extent(name) != before[name] for name in class_names)
        pinned = []
        for _ in range(readers):
            pinned.append(sessions.reader().__enter__())
            write(rename)
        engine.drain()
        for reader in pinned:
            reader.close()
        return moved, engine.classes_captured - captured

    registered = engine.epochs_registered
    write(rename)
    value_backlog = engine.backlog()
    value_registered = engine.epochs_registered - registered
    create_moved, create_captured = structural(
        lambda view: view["Person"].create(name="late", age=30)
    )
    delete_moved, delete_captured = structural(
        lambda view: view["Student"].get_object(victim).delete()
    )
    return {
        "objects": db.pool.object_count,
        "readers": readers,
        "value_write_backlog": value_backlog,
        "value_write_epochs_registered": value_registered,
        "create_moved": create_moved,
        "create_captured": create_captured,
        "delete_moved": delete_moved,
        "delete_captured": delete_captured,
        "classes_carried": engine.classes_carried,
    }


def capture_gate_violations(cell: Dict[str, int]) -> Dict[str, int]:
    """The figures of ``cell`` that break the gate (empty when it holds)."""
    violations = {
        key: cell[key]
        for key in ("value_write_backlog", "value_write_epochs_registered")
        if cell[key] != 0
    }
    for write in ("create", "delete"):
        if cell[f"{write}_captured"] > cell[f"{write}_moved"]:
            violations[f"{write}_captured"] = cell[f"{write}_captured"]
    return violations
