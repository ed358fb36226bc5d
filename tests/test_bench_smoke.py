"""Tier-1 smoke run of the extent-maintenance benchmark workload.

A tiny configuration of the mixed read/write workload from
``benchmarks/bench_transparency_overhead.py`` — enough to catch the
incremental engine regressing to full recomputes, small enough to run in
every tier-1 pass.  Thresholds are deliberately looser than the full
benchmark's (CI machines are noisy); the full run asserts the real >=5x.
"""

import json
import time
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
    """The hot-path speedups hold above the floors stored next to the
    measurements in ``BENCH_hotpath.json`` (written by
    ``benchmarks/bench_hotpath.py``).

    The primary guards are *ratios* measured before/after in this very
    process — machine-independent, so a slow CI runner cannot fake a
    regression and a fast one cannot hide it:

    * fuzz throughput with compiled predicates + bulk sweeps + batching
      vs the toggled-off configuration must stay above
      ``fuzz_toggle_speedup_min``;
    * the mixed workload with compiled predicates must not lose to the
      interpreter (``mixed_compiled_vs_interpreted_min``).

    A loose absolute floor (``fuzz_commands_per_sec_min``) additionally
    catches structural collapse (an accidental quadratic) that a ratio
    would cancel out.
    """
    from repro.algebra import compiler
    from repro.checking.commands import CommandGenerator
    from repro.checking.runner import DifferentialHarness

    floors = json.loads(BENCH_HOTPATH.read_text())["hotpath"]["floors"]

    def fuzz_rate(before: bool) -> float:
        compiler.set_compilation(not before)
        try:
            seeds, length = range(50, 56), 15

            def sweep():
                total = 0
                for seed in seeds:
                    commands = CommandGenerator(seed).generate(length)
                    harness = DifferentialHarness()
                    if before:
                        harness.bulk_sweep = False
                        harness.batched = False
                    try:
                        for command in commands:
                            harness.apply(command)
                    finally:
                        harness.close()
                    total += len(commands)
                return total

            sweep()  # warm-up
            start = time.perf_counter()
            n = sweep()
            return n / (time.perf_counter() - start)
        finally:
            compiler.set_compilation(True)

    after = fuzz_rate(before=False)
    toggled = fuzz_rate(before=True)
    assert after >= floors["fuzz_commands_per_sec_min"], (after, floors)
    assert after / toggled >= floors["fuzz_toggle_speedup_min"], (
        f"compiled+bulk+batched fuzzing at {after:.0f} cmd/s is only "
        f"{after / toggled:.2f}x the toggled-off {toggled:.0f} cmd/s "
        f"(floor {floors['fuzz_toggle_speedup_min']}x)"
    )

    compiler.set_compilation(False)
    try:
        interpreted = measure_mixed_workload(n_objects=60, rounds=80)
    finally:
        compiler.set_compilation(True)
    compiled = measure_mixed_workload(n_objects=60, rounds=80)
    ratio = (
        compiled["baseline"]["ops_per_sec"]
        / interpreted["baseline"]["ops_per_sec"]
    )
    assert ratio >= floors["mixed_compiled_vs_interpreted_min"], (
        f"compiled predicates made the mixed workload slower ({ratio:.2f}x)"
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
