"""Hot-path throughput: fuzzing, the mixed workload, compiled matchers.

Measures the shipped hot path (compiled predicates, row matchers, bulk
equivalence sweeps, batched ``apply_many``) three ways:

1. **fuzz** — differential-fuzz commands per second, and per run of
   ``tsebench/probe.reference_work`` timed in the same process (the
   machine-independent figure ``trend.py`` tracks);
2. **mixed** — the mixed read/write extent workload, incremental and
   from-scratch evaluators;
3. **matcher** — row-compiled select matchers against
   ``Predicate.matches`` over the same readers.

The numbers recorded when predicate compilation and batching landed —
against the toggled-off configuration and against the commit before them
— are carried forward unchanged under ``pre_pr``; those modes no longer
exist, so they are history, not re-measured.

Results land in ``BENCH_hotpath.json`` at the repo root next to the
floors that ``tests/test_bench_smoke.py::test_hotpath_floor`` enforces on
every tier-1 run.
"""

from __future__ import annotations

import sys
from pathlib import Path

from conftest import format_table, write_bench_json, write_report

from repro.workloads.extent_maintenance import measure_mixed_workload
from repro.workloads.hotpath import fuzz_commands_per_probe, matcher_speedup

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_hotpath.json"

sys.path.insert(0, str(REPO_ROOT))
from tsebench.probe import reference_work  # noqa: E402

FUZZ_LENGTH = 20
FUZZ_SEEDS = range(100, 112)
REPEATS = 5
MIXED_OBJECTS = 200
MIXED_ROUNDS = 300
MATCHER_REPEATS = 50

#: floors enforced by ``test_hotpath_floor`` (seeds 50-55, length 15).  The
#: per-probe floor is 1.3x the highest figure the toggled-off configuration
#: (interpreted predicates, accessor-at-a-time sweep, unbatched updates)
#: reached there on a 2-vCPU container (0.52-0.75; the shipped path
#: measured 1.32-1.70).  The figure depends on the seeds, so this bench's
#: longer sequences report it without gating on it.
FLOORS = {
    "fuzz_commands_per_sec_min": 150,
    "fuzz_commands_per_probe_min": 1.0,
    "matcher_compiled_vs_interpreted_min": 0.95,
}

#: recorded once, when compilation and batching landed; frozen
PRE_PR = {
    "commit": "fb5929e2e5e3b75bf3d0ab5cda3233dbde74fb6c",
    "fuzz_commands_per_sec": 848.2,
    "mixed_baseline_ops_per_sec": 3598,
    "mixed_incremental_ops_per_sec": 429967,
    "toggle_before": {
        "fuzz_commands_per_sec": 1386.9,
        "mixed_baseline_ops_per_sec": 6696,
        "mixed_incremental_ops_per_sec": 734950,
    },
    "after": {
        "fuzz_commands_per_sec": 3019.3,
        "mixed_baseline_ops_per_sec": 12367,
        "mixed_incremental_ops_per_sec": 876712,
    },
}


def test_hotpath():
    fuzz = fuzz_commands_per_probe(reference_work, FUZZ_SEEDS, FUZZ_LENGTH, REPEATS)
    mixed = measure_mixed_workload(n_objects=MIXED_OBJECTS, rounds=MIXED_ROUNDS)
    matcher = matcher_speedup(MIXED_OBJECTS, MATCHER_REPEATS)

    payload = {
        "fuzz": {
            "length": FUZZ_LENGTH,
            "sequences": len(FUZZ_SEEDS),
            "repeats": REPEATS,
            "after_commands_per_sec": round(fuzz["commands_per_sec"], 1),
            "after_commands_per_probe": round(fuzz["commands_per_probe"], 3),
        },
        "mixed": {
            "n_objects": MIXED_OBJECTS,
            "rounds": MIXED_ROUNDS,
            "after": {
                "incremental_ops_per_sec": round(mixed["incremental"]["ops_per_sec"]),
                "baseline_ops_per_sec": round(mixed["baseline"]["ops_per_sec"]),
            },
        },
        "matcher": {
            "n_objects": MIXED_OBJECTS,
            "repeats": MATCHER_REPEATS,
            "compiled_ms": matcher["compiled_ms"],
            "interpreted_ms": matcher["interpreted_ms"],
            "compiled_vs_interpreted_speedup": round(matcher["speedup"], 2),
        },
        "floors": FLOORS,
        "pre_pr": PRE_PR,
    }
    write_bench_json("hotpath", payload, target=BENCH_JSON)

    rows = [
        ("fuzz (cmd/s)", f"{fuzz['commands_per_sec']:.0f}"),
        ("fuzz (cmd per reference_work)", f"{fuzz['commands_per_probe']:.2f}"),
        ("mixed incremental (ops/s)", payload["mixed"]["after"]["incremental_ops_per_sec"]),
        ("mixed baseline-eval (ops/s)", payload["mixed"]["after"]["baseline_ops_per_sec"]),
        ("select matcher, compiled vs interpreted", f"{matcher['speedup']:.2f}x"),
    ]
    write_report(
        "hotpath",
        "Hot-path throughput (compiled predicates, batched updates, bulk sweeps)",
        format_table(["workload", "measured"], rows)
        + "\n\nFrozen history (not re-measured): the pre-compilation commit "
        f"fuzzed at {PRE_PR['fuzz_commands_per_sec']} cmd/s, the toggled-off "
        f"configuration at {PRE_PR['toggle_before']['fuzz_commands_per_sec']} "
        f"cmd/s, the shipped path at {PRE_PR['after']['fuzz_commands_per_sec']} "
        "cmd/s on the same machine.",
    )

    assert fuzz["commands_per_sec"] >= FLOORS["fuzz_commands_per_sec_min"], fuzz
    assert matcher["speedup"] >= FLOORS["matcher_compiled_vs_interpreted_min"], matcher
