"""Tier-1 smoke run of the extent-maintenance benchmark workload.

A tiny configuration of the mixed read/write workload from
``benchmarks/bench_transparency_overhead.py`` — enough to catch the
incremental engine regressing to full recomputes, small enough to run in
every tier-1 pass.  Thresholds are deliberately looser than the full
benchmark's (CI machines are noisy); the full run asserts the real >=5x.
"""

import json
from pathlib import Path

import pytest

from repro.workloads.extent_maintenance import WORKLOAD_CLASSES, measure_mixed_workload

BENCH_HOTPATH = Path(__file__).parent.parent / "BENCH_hotpath.json"


@pytest.mark.bench_smoke
def test_mixed_workload_smoke():
    results = measure_mixed_workload(n_objects=30, rounds=60)

    baseline = results["baseline"]
    incremental = results["incremental"]
    assert baseline["ops"] == incremental["ops"]
    assert incremental["ops"] > 60 * len(WORKLOAD_CLASSES)

    # the incremental engine must actually be incremental: almost all reads
    # served from cache, full recomputes an order of magnitude rarer
    assert incremental["hit_ratio"] > 0.9, results
    assert incremental["full_recomputes"] < baseline["full_recomputes"] / 10, results
    assert incremental["deltas_applied"] > 0, results

    # lenient wall-clock bound; the full benchmark asserts >=5x
    assert results["speedup"]["ops_per_sec_ratio"] >= 2, results


@pytest.mark.bench_smoke
def test_hotpath_floor():
    """The hot path holds the floors stored next to the measurements in
    ``BENCH_hotpath.json`` (written by ``benchmarks/bench_hotpath.py``).

    Both primary guards are machine-independent:

    * ``fuzz_commands_per_probe_min`` — fuzz commands per run of
      ``tsebench/probe.reference_work``, both timed in this process, so a
      slow CPU slows both sides of the figure alike;
    * ``matcher_compiled_vs_interpreted_min`` — row-compiled select
      matchers against ``Predicate.matches`` over the same readers, timed
      side by side on the mixed workload's select classes.

    A loose absolute floor (``fuzz_commands_per_sec_min``) additionally
    catches structural collapse on any machine.
    """
    from repro.workloads.hotpath import fuzz_commands_per_probe, matcher_speedup
    from tsebench.probe import reference_work

    floors = json.loads(BENCH_HOTPATH.read_text())["hotpath"]["floors"]

    fuzz = fuzz_commands_per_probe(reference_work, range(50, 56), 15, rounds=7)
    assert fuzz["commands_per_sec"] >= floors["fuzz_commands_per_sec_min"], (
        fuzz, floors)
    assert fuzz["commands_per_probe"] >= floors["fuzz_commands_per_probe_min"], (
        fuzz, floors)

    matcher = matcher_speedup(n_objects=200, repeats=20)
    assert matcher["speedup"] >= floors["matcher_compiled_vs_interpreted_min"], (
        f"row-compiled select matchers are slower than the interpreter: "
        f"{matcher}"
    )


@pytest.mark.bench_smoke
def test_savepoint_scale_smoke():
    """A one-op ``apply_many`` — committed, and rolled back through the
    undo log — costs the same at 10x the population as at 1x (the full
    ``benchmarks/bench_savepoint.py`` sweep asserts it over 100x).  The
    0.05 ms floor keeps microsecond noise at 1x from deciding the gate."""
    from repro.workloads.savepoint import measure_savepoint

    cells = {scale: measure_savepoint(scale) for scale in (1, 10)}
    for key in ("commit_ms", "abort_ms"):
        assert cells[10][key] < 4.0 * max(cells[1][key], 0.05), (key, cells)


@pytest.mark.bench_smoke
def test_migration_capture_shape_smoke():
    """Epochs share what a data write did not move, at 1x and 10x and with
    1 or 3 pinned readers (backfill off, so every capture is counted): a
    value write that moves no extent leaves no backlog and registers no
    pending epoch, and a create or delete captures at most the extents it
    moved — once, however many pinned epochs wait for them.  Exact
    counters; ``benchmarks/bench_migration.py`` asserts the same over
    100x and records the figures in ``BENCH_migration.json``."""
    from repro.workloads.migration import capture_gate_violations, measure_capture_counts

    for scale in (1, 10):
        for readers in (1, 3):
            cell = measure_capture_counts(scale, readers)
            assert not capture_gate_violations(cell), cell
