"""Benchmark trend report: trajectories and regression flags.

``write_bench_json`` (conftest.py) merges every benchmark's machine-readable
numbers into repo-root ``BENCH_*.json`` artifacts, each entry stamped with a
``meta.unix_time``.  This script reads *all* of them (archived copies
included — any ``BENCH_*.json`` under the scanned roots counts as a run),
extracts the timing-like metrics from the heterogeneous nested payloads,
and prints a per-benchmark trajectory table: best recorded value, latest
value, and a ``REGRESSION`` flag whenever the latest run is more than 20%
worse than the best ever recorded.  The same table is written to
``benchmarks/results/trend.md``.

Usage::

    PYTHONPATH=src python benchmarks/trend.py [--root DIR ...] [--threshold PCT]

Exit status is always 0 — the report is informational (CI runs it
non-gating); the flags are for humans reading the artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

REPO_ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_THRESHOLD = 0.20

#: metric-name suffixes/fragments where *lower* is better (latencies, sizes)
LOWER_IS_BETTER = ("_ms", "_s", "_bytes", "log_bytes")
#: fragments where *higher* is better (throughputs, ratios, speedups)
HIGHER_IS_BETTER = (
    "per_s", "per_sec", "per_probe", "speedup", "hit_ratio", "throughput"
)
#: subtrees that are configuration or provenance, not measurements
SKIP_KEYS = ("meta", "floors", "pre_pr")


def _direction(name: str) -> Optional[int]:
    """+1 when higher is better, -1 when lower is better, None: not a metric.

    The unit suffix is checked *first*: it is exact where the
    higher-is-better fragments are substrings, and a latency named, say,
    ``pause_per_schema_change_ms`` contains ``per_s`` by accident of
    spelling — flagging a shrinking pause as a regression."""
    leaf = name.rsplit(".", 1)[-1]
    if any(leaf.endswith(suffix) for suffix in LOWER_IS_BETTER):
        return -1
    if any(fragment in leaf for fragment in HIGHER_IS_BETTER):
        return 1
    return None


def _walk_metrics(payload, prefix: str = "") -> Iterable[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf that looks like
    a measurement; list elements are indexed into the path."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in SKIP_KEYS:
                continue
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from _walk_metrics(value, path)
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from _walk_metrics(value, f"{prefix}[{index}]")
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        if _direction(prefix) is not None:
            yield prefix, float(payload)


def load_runs(roots: List[Path]) -> List[Tuple[str, float, Dict[str, Dict]]]:
    """All ``BENCH_*.json`` artifacts under ``roots`` as
    ``(source, run_time, {bench_key: entry})``, oldest first."""
    runs = []
    for root in roots:
        for path in sorted(root.glob("BENCH_*.json")):
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"skipping {path}: {exc}", file=sys.stderr)
                continue
            if not isinstance(data, dict):
                continue
            stamp = max(
                (
                    entry.get("meta", {}).get("unix_time", 0.0)
                    for entry in data.values()
                    if isinstance(entry, dict)
                ),
                default=0.0,
            )
            runs.append((path.name, stamp, data))
    runs.sort(key=lambda run: run[1])
    return runs


def collect_series(
    runs: List[Tuple[str, float, Dict[str, Dict]]]
) -> Dict[Tuple[str, str], List[Tuple[float, float]]]:
    """``{(bench_key, metric): [(run_time, value), ...]}`` in run order.

    One benchmark entry can carry its own timestamp (each merge updates
    only its key), so the per-entry ``meta.unix_time`` wins over the file
    stamp when present.
    """
    series: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for _source, file_time, data in runs:
        for bench_key, entry in data.items():
            if not isinstance(entry, dict):
                continue
            entry_time = entry.get("meta", {}).get("unix_time", file_time)
            for metric, value in _walk_metrics(entry):
                series.setdefault((bench_key, metric), []).append(
                    (entry_time, value)
                )
    for points in series.values():
        points.sort(key=lambda point: point[0])
    return series


def build_rows(
    series: Dict[Tuple[str, str], List[Tuple[float, float]]],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Tuple[str, str, int, float, float, str, str]]:
    """Table rows: benchmark, metric, runs, best, latest, delta-vs-best, flag.

    ``delta`` is signed so that positive always means "worse": a latency
    that grew or a throughput that shrank.
    """
    rows = []
    for (bench_key, metric), points in sorted(series.items()):
        direction = _direction(metric)
        values = [value for _t, value in points]
        latest = values[-1]
        best = max(values) if direction == 1 else min(values)
        if best <= 0:
            delta = 0.0
        elif direction == 1:
            delta = (best - latest) / best
        else:
            delta = (latest - best) / best
        if len(values) == 1:
            # a benchmark appearing for the first time has no history to
            # regress against — mark it, never flag it
            flag = "new"
        elif delta > threshold:
            flag = "REGRESSION"
        else:
            flag = "ok"
        rows.append(
            (
                bench_key,
                metric,
                len(values),
                best,
                latest,
                f"{delta * 100:+.1f}%",
                flag,
            )
        )
    return rows


def render_markdown(rows, threshold: float) -> str:
    headers = ("benchmark", "metric", "runs", "best", "latest", "vs best", "flag")
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        bench, metric, n, best, latest, delta, flag = row
        lines.append(
            f"| {bench} | {metric} | {n} | {best:g} | {latest:g} "
            f"| {delta} | {flag} |"
        )
    flagged = sum(1 for row in rows if row[-1] == "REGRESSION")
    summary = (
        f"{len(rows)} metric series; {flagged} flagged as regressions "
        f"(latest more than {threshold * 100:.0f}% worse than best recorded)."
    )
    return summary + "\n\n" + "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        action="append",
        type=Path,
        default=None,
        help="directory to scan for BENCH_*.json (repeatable; default: "
        "the repo root and benchmarks/results)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD * 100,
        help="regression flag threshold in percent (default 20)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULTS_DIR / "trend.md",
        help="markdown report destination (default benchmarks/results/trend.md)",
    )
    options = parser.parse_args(argv)
    roots = options.root or [REPO_ROOT, RESULTS_DIR]
    threshold = options.threshold / 100.0

    runs = load_runs(roots)
    if not runs:
        print("no BENCH_*.json artifacts found; run the benchmarks first")
        return 0
    rows = build_rows(collect_series(runs), threshold)
    body = render_markdown(rows, threshold)
    print(f"scanned {len(runs)} artifact(s): "
          + ", ".join(name for name, _t, _d in runs))
    print(body)

    options.out.parent.mkdir(parents=True, exist_ok=True)
    options.out.write_text("# Benchmark trend\n\n" + body + "\n")
    print(f"\nwrote {options.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
