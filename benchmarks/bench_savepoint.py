"""Savepoint scale gate: one-op batches cost the same at 1x and 100x.

Every ``apply_many`` (and every wire ``update``/``apply_many``) runs inside
a ``db.transaction()`` savepoint.  The savepoint records undo steps at the
pool/store mutation seams instead of copying the database, so a one-op
batch must cost the same whatever the population.  For each scale factor
(1x/10x/100x of a ~120-object base, as in ``bench_migration``) this bench
times, best-of-``REPEATS`` (:func:`repro.workloads.savepoint.measure_savepoint`):

* a one-op committed batch (one ``set``);
* a one-op rejected batch (the ``set``, then a delete of a never-allocated
  OID: the batch works, then rolls back);
* the same ``set`` as a direct ``db.engine.set_values`` call (no
  savepoint at all).

Asserted:

* **flat**: at 100x, commit and abort each cost less than
  ``FLATNESS_BOUND`` x their 1x cost (a ``FLOOR_MS`` floor keeps
  microsecond noise at 1x from deciding the gate);
* **near the floor**: at 100x, commit and abort each cost at most
  ``UNBATCHED_MULTIPLE`` x the unbatched update.  Measured on a 2-vCPU
  container: commit ~2.5x, abort ~3.6x; the bound leaves 2x headroom.

Writes ``BENCH_savepoint.json`` at the repo root (read by ``trend.py``)
and ``benchmarks/results/savepoint.md``.  The tier-1 smoke
(``tests/test_bench_smoke.py::test_savepoint_scale_smoke``) asserts the
same flatness over 1x/10x.
"""

from pathlib import Path

from conftest import format_table, write_bench_json, write_report

from repro.workloads.savepoint import BASE_OBJECTS, measure_savepoint

BENCH_SAVEPOINT_JSON = Path(__file__).parent.parent / "BENCH_savepoint.json"

SCALES = (1, 10, 100)
REPEATS = 15

#: 100x may cost at most this multiple of 1x (commit and abort alike)
FLATNESS_BOUND = 4.0
#: 1x costs below this floor count as the floor in the flatness gate
FLOOR_MS = 0.05
#: at 100x, a one-op batch may cost at most this multiple of the
#: unbatched update (measured ~2.5x commit, ~3.6x abort)
UNBATCHED_MULTIPLE = 8.0


def test_savepoint_cost_is_flat_in_database_size():
    cells = {scale: measure_savepoint(scale, REPEATS) for scale in SCALES}
    base, top = cells[SCALES[0]], cells[SCALES[-1]]
    for key in ("commit_ms", "abort_ms"):
        assert top[key] < FLATNESS_BOUND * max(base[key], FLOOR_MS), (key, cells)
        assert top[key] <= UNBATCHED_MULTIPLE * top["unbatched_ms"], (key, cells)

    payload = {
        "base_objects": BASE_OBJECTS,
        "repeats": REPEATS,
        **{f"scale_{s}x": cells[s] for s in SCALES},
        # gate thresholds, not measurements (trend.py skips "floors")
        "floors": {
            "flatness": FLATNESS_BOUND,
            "floor_ms": FLOOR_MS,
            "unbatched_multiple": UNBATCHED_MULTIPLE,
        },
    }
    write_bench_json("savepoint_scale", payload, target=BENCH_SAVEPOINT_JSON)

    rows = [
        (
            f"{scale}x ({cells[scale]['objects']})",
            cells[scale]["commit_ms"],
            cells[scale]["abort_ms"],
            cells[scale]["unbatched_ms"],
            round(cells[scale]["commit_ms"] / cells[scale]["unbatched_ms"], 1),
            round(cells[scale]["abort_ms"] / cells[scale]["unbatched_ms"], 1),
        )
        for scale in SCALES
    ]
    body = (
        f"Best-of-{REPEATS} milliseconds for a one-op `apply_many` committed, "
        "the same op rejected (rolled back through the undo log), and the "
        "same update as a direct `db.engine.set_values` call (no savepoint):\n\n"
        + format_table(
            [
                "scale (objects)",
                "commit ms",
                "abort ms",
                "unbatched ms",
                "commit/unbatched",
                "abort/unbatched",
            ],
            rows,
        )
        + f"\n\nBounds asserted: 100x < {FLATNESS_BOUND}x 1x (floor "
        f"{FLOOR_MS} ms) for commit and abort; at 100x both <= "
        f"{UNBATCHED_MULTIPLE}x unbatched."
    )
    write_report("savepoint", "Savepoint cost versus database size", body)

