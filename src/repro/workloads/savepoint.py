"""Savepoint cost versus database size (``benchmarks/bench_savepoint.py``).

A savepoint must cost O(work in the batch), not O(database): entry records
a mark, commit drops the undo entries, abort replays only the batch's own
changes.  This workload times the three shapes that matter at a given
population:

* a one-op **committed** ``apply_many`` (one ``set``);
* a one-op **rejected** ``apply_many`` — the same ``set``, then a delete
  of an OID that was never allocated, so the batch does its work and
  rolls back;
* the same ``set`` as a direct ``db.engine.set_values`` call, which opens
  no savepoint — the floor a one-op batch is compared against.

Each is the best of ``repeats`` timed calls, in milliseconds.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.core.database import TseDatabase
from repro.errors import TseError
from repro.schema.properties import Attribute
from repro.storage.oid import Oid

#: population (objects) at scale factor 1, as in ``bench_migration``
BASE_OBJECTS = 120


def build_population(n_objects: int) -> TseDatabase:
    """Person/Student campus with ``n_objects`` objects and one view."""
    db = TseDatabase()
    db.define_class(
        "Person",
        [Attribute("name", domain="str"), Attribute("age", domain="int", default=0)],
    )
    db.define_class(
        "Student", [Attribute("major", domain="str")], inherits_from=("Person",)
    )
    db.create_view("campus", ["Person", "Student"])
    view = db.view("campus")
    for index in range(n_objects):
        if index % 3:
            view["Person"].create(name=f"p{index}", age=index % 80)
        else:
            view["Student"].create(name=f"s{index}", age=20, major="cs")
    return db


def _best_ms(fn: Callable[[int], None], repeats: int) -> float:
    best = None
    for k in range(repeats):
        start = time.perf_counter()
        fn(k)
        elapsed = (time.perf_counter() - start) * 1000
        best = elapsed if best is None else min(best, elapsed)
    return round(best, 4)


def measure_savepoint(scale: int, repeats: int = 15) -> Dict[str, float]:
    """Best-of-``repeats`` milliseconds for a committed one-op batch, a
    rejected one-op batch and the unbatched update, at ``scale`` x
    :data:`BASE_OBJECTS` objects."""
    db = build_population(BASE_OBJECTS * scale)
    target = sorted(db.evaluator.extent("Person"))[len(db.pool.all_oids()) // 2]
    never_allocated = Oid(0)

    def set_kwargs(k: int):
        return {"oids": [target], "class_name": "Person", "assignments": {"age": k}}

    def one_set(k: int):
        return ("set", set_kwargs(k))

    def commit(k: int) -> None:
        db.apply_many([one_set(k)])

    def abort(k: int) -> None:
        try:
            db.apply_many([one_set(k), ("delete", {"oids": [never_allocated]})])
        except TseError:
            return
        raise AssertionError("the rejected batch committed")

    def unbatched(k: int) -> None:
        db.engine.set_values(**set_kwargs(k))

    for fn in (commit, abort, unbatched):  # warm plans and caches
        fn(0)
    return {
        "objects": db.pool.object_count,
        "commit_ms": _best_ms(commit, repeats),
        "abort_ms": _best_ms(abort, repeats),
        "unbatched_ms": _best_ms(unbatched, repeats),
    }
