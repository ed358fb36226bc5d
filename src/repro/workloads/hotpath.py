"""Hot-path measurements shared by ``benchmarks/bench_hotpath.py`` and the
tier-1 ``test_hotpath_floor`` gate.  Both figures are machine-independent:
fuzz throughput per run of a fixed reference computation timed in the same
process, and row-compiled select matchers against ``Predicate.matches``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Iterable

from repro.algebra import compiler
from repro.checking.runner import run_sequence
from repro.workloads.extent_maintenance import build_select_workload


def fuzz_sweep(seeds: Iterable[int], length: int) -> int:
    """Run one differential sequence per seed; returns commands applied."""
    total = 0
    for seed in seeds:
        commands, divergence = run_sequence(seed, length)
        assert divergence is None, divergence
        total += len(commands)
    return total


def fuzz_commands_per_probe(
    reference_work: Callable[[], object], seeds: Iterable[int], length: int, rounds: int
) -> Dict[str, float]:
    """Medians over ``rounds`` timed sweeps (after one warm-up) of wall-clock
    ``commands_per_sec`` and of ``commands_per_probe``: commands per CPU
    second times the median CPU seconds of ``reference_work``, sampled 30
    times on each side of the sweep."""
    def probe() -> list:
        samples = []
        for _ in range(30):
            start = time.process_time()
            reference_work()
            samples.append(time.process_time() - start)
        return samples

    seeds = list(seeds)
    fuzz_sweep(seeds, length)
    rates, figures = [], []
    for _ in range(rounds):
        samples = probe()
        wall, cpu = time.perf_counter(), time.process_time()
        n = fuzz_sweep(seeds, length)
        cpu = time.process_time() - cpu
        rates.append(n / (time.perf_counter() - wall))
        samples += probe()
        figures.append(n / cpu * statistics.median(samples))
    return {
        "commands_per_sec": statistics.median(rates),
        "commands_per_probe": statistics.median(figures),
    }


def matcher_speedup(n_objects: int, repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` seconds, interleaved, to test each select class's
    source extent with ``compiler.row_matcher`` and with
    ``pred.matches(plans.reader(...))``; ``speedup`` is interpreted over
    compiled.  Both sides must select the same members."""
    db, _ = build_select_workload(n_objects)
    plans = db.evaluator.plans
    cases = [
        (sorted(db.evaluator.extent(der.source)), der.source, der.predicate)
        for der in (cls.derivation for cls in db.schema.virtual_classes())
        if der.op == "select"
    ]
    rows = [
        compiler.row_matcher(
            pred,
            lambda attr, _s=source: plans.oid_reader(_s, attr),
            lambda oid, _s=source: plans.reader(_s, oid),
        )
        for _oids, source, pred in cases
    ]

    def compiled() -> list:
        return [list(filter(row, oids)) for row, (oids, _s, _p) in zip(rows, cases)]

    def interpreted() -> list:
        return [
            [oid for oid in oids if pred.matches(plans.reader(source, oid))]
            for oids, source, pred in cases
        ]

    assert compiled() == interpreted()
    best = {compiled: float("inf"), interpreted: float("inf")}
    for _ in range(repeats):
        for fn in best:
            start = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return {
        "compiled_ms": round(best[compiled] * 1000, 4),
        "interpreted_ms": round(best[interpreted] * 1000, 4),
        "speedup": best[interpreted] / best[compiled],
    }
