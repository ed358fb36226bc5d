"""The TSE benchmark: one workload over the wire, checked, with metrics.

    python3 tsebench/run.py --workload write_online --seed 1 --seconds 20 --trace 0

Builds the server from ``src/`` of this checkout, starts it in a child
process (:mod:`launcher`) several times to time set-up, then drives it
with two closed-loop connections from this process (:mod:`client`) for
``--seconds``, checks every reply and the final state, and prints a
report followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs the layer wrappers in the server and reports the
per-layer metrics instead, with a per-request-class table whose rows add
up to the client round trip.  Results and span dumps go to
``.tsebench/results/``.  See ``tsebench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".tsebench"
#: server launches per run; ``setup_s`` is their median, scaled by the probe
SETUPS = 5
#: waits on the server process
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """One launcher child: start, command, stop."""

    def __init__(self, workload: str, work: Path, trace: int, spans=None, dump=None):
        self.args = [
            sys.executable, str(HERE / "launcher.py"),
            "--workload", workload, "--wal", str(work / "wal"), "--trace", str(trace),
        ]
        if spans:
            self.args += ["--spans", str(spans)]
        if dump:
            self.args += ["--dump", str(dump)]
        self.work = work
        self.proc = None
        self.port = None
        self.setup_s = None

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        # a fixed string-hash seed: set and dict orders, and so the
        # server's work per request, are the same in every run
        env["PYTHONHASHSEED"] = "0"
        started = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *self.args, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            cwd=str(ROOT), env=env,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT_S)
        if not line.startswith(b"READY "):
            raise RuntimeError(f"server failed to start: {line!r}")
        self.setup_s = time.perf_counter() - started
        self.port = int(line.split()[1])

    async def command(self, command: str):
        """Send ``command``; returns the ``<cpu>`` object of its
        acknowledgement, if it has one."""
        self.proc.stdin.write(command.encode() + b"\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), STOP_TIMEOUT_S)
        words = line.split(maxsplit=2)
        if words[:2] != [b"OK", command.encode()]:
            raise RuntimeError(f"server did not acknowledge {command}: {line!r}")
        return json.loads(words[2]) if len(words) == 3 else None

    async def stop(self) -> dict:
        """Stop the server; returns its ``DONE`` report."""
        try:
            self.proc.stdin.write(b"stop\n")
            await self.proc.stdin.drain()
            self.proc.stdin.close()
            while True:
                line = await asyncio.wait_for(self.proc.stdout.readline(), STOP_TIMEOUT_S)
                if not line:
                    raise RuntimeError("server exited without a report")
                if line.startswith(b"DONE "):
                    return json.loads(line[5:])
        finally:
            await self.kill()

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            try:
                await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()


def ms(seconds):
    return None if seconds is None else seconds * 1000.0


def scripted(result) -> int:
    """Completed requests the scripts sent: drain polls (as many as the
    backlog takes to empty) and lost connections are left out."""
    return sum(1 for s in result.samples if s.ok and s.rclass not in ("poll", "lost"))


def scaled(seconds: float, window: dict) -> float:
    """``seconds`` of CPU-bound work scaled to the speed at which the
    probe's reference work takes ``REFERENCE_S`` (see probe.py), by the
    probe median of the launcher's ``<cpu>`` object ``window``."""
    from probe import REFERENCE_S

    return seconds * REFERENCE_S / window["probe_s"]


def cpu_ms_per_op(result, server_cpu_s) -> float:
    """Server CPU time (all threads, the backfill worker's included) per
    scripted request, over the measured run."""
    return server_cpu_s * 1000.0 / max(1, scripted(result))


def end_to_end(result, setups, window, report) -> dict:
    """The gated metrics: set-up time and CPU per request at the probe's
    reference speed, and memory.  They stay put when other processes take
    the machine's CPUs or its clock speed drifts; round trips do not, and
    are only printed (:func:`named`)."""
    from client import median

    return {
        "setup_s": (scaled(median(setups), window), "s"),
        "server_cpu_ms_per_op": (cpu_ms_per_op(result, scaled(window["cpu_s"], window)), "ms"),
        "server_rss_mb": (report["vmhwm_kb"] / 1024.0, "MB"),
    }


def named(result, setups, window, report, user_bytes, wal_bytes) -> list:
    """Every request class's metrics under its own name (``write_p50_ms``,
    ``abort_p50_ms``, ...) with sample counts; a percentile with fewer
    than ten samples beyond it is withheld (None)."""
    from client import median, percentile

    rows = [("setup_s", scaled(median(setups), window), "s", len(setups)),
            ("setup_wall_s", median(setups), "s", len(setups)),
            ("server_cpu_ms_per_op", cpu_ms_per_op(result, scaled(window["cpu_s"], window)), "ms",
             scripted(result)),
            ("server_cpu_raw_ms_per_op", cpu_ms_per_op(result, window["cpu_s"]), "ms",
             scripted(result)),
            ("probe_ms", window["probe_s"] * 1000.0, "ms", window["probe_n"])]
    completed = sum(1 for s in result.samples if s.ok)
    rows.append(("throughput_ops_s", completed / result.elapsed, "1/s", completed))
    for label, rclass in (("read", "read"), ("read_values", "read_values"),
                          ("write", "write"), ("abort", "abort"),
                          ("schema_change", "schema_change")):
        values = result.seconds(rclass)
        if not values:
            continue
        rows.append((f"{label}_p50_ms", ms(median(values)), "ms", len(values)))
        if label in ("read", "write"):
            rows.append((f"{label}_p99_ms", ms(percentile(values, 0.99)), "ms", len(values)))
    if result.drains:
        rows.append(("evolve_to_drained_p50_ms", ms(median(result.drains)), "ms", len(result.drains)))
    rows.append(("failed_ops_frac", result.failed / max(1, result.attempted), "ratio", result.attempted))
    rows.append(("server_rss_mb", report["vmhwm_kb"] / 1024.0, "MB", 1))
    if user_bytes:
        rows.append(("wal_bytes_per_user_byte", wal_bytes / user_bytes, "ratio", user_bytes))
    return rows


def delta(after: dict, before: dict, *path):
    a, b = after, before
    for key in path:
        a, b = a.get(key, 0), b.get(key, 0)
    return (a or 0) - (b or 0)


def per_layer(result, report, before, after, user_bytes, window) -> tuple:
    """Per-layer metrics and the per-request-class table."""
    from client import median
    from layers import layer_names

    summary = report["layers"]
    n = max(1, sum(1 for s in result.samples if s.rclass != "lost"))
    total_rtt_ms = max(1e-9, sum(s.seconds for s in result.samples) * 1000.0)
    self_ms = summary["self_ms"]
    foreground = sum(v for c, layers in self_ms.items() if c != "background" for v in layers.values())
    # shares of the summed client round trips, not ms: a layer a workload
    # never calls reads 0 in every run, which is a fact, not a timing
    metrics = {}
    for layer in layer_names():
        value = sum(layers.get(layer, 0.0) for layers in self_ms.values())
        metrics[f"{layer}_share"] = (value / total_rtt_ms, "ratio")
    metrics["server.unattributed_share"] = ((total_rtt_ms - foreground) / total_rtt_ms, "ratio")
    writes = len(result.seconds("write"))
    hits = delta(after, before, "extents", "hits")
    misses = delta(after, before, "extents", "misses")
    fsyncs = delta(after, before, "wal", "fsyncs_issued")
    absorbed = delta(after, before, "wal", "group_commit_absorbed")
    page_reads = delta(after, before, "pages", "page_reads")
    cache_hits = delta(after, before, "pages", "cache_hits")
    wal_bytes = delta(after, before, "wal_bytes")
    write_p50 = median(result.seconds("write"))
    savepoint = sum(self_ms.get("write", {}).get(k, 0.0)
                    for k in ("storage.store_snapshot", "objectmodel.pool_memento"))
    metrics.update({
        "concurrency.migration_backlog_peak": (summary["backlog_peak"], "count"),
        "schema.extent_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "storage.fsyncs_per_write": (fsyncs / max(1, writes), "count"),
        "storage.wal_group_absorbed_ratio": (absorbed / max(1, fsyncs + absorbed), "ratio"),
        "storage.wal_bytes_per_user_byte": (wal_bytes / max(1, user_bytes), "ratio"),
        "storage.pages_read_per_op": (page_reads / n, "count"),
        "storage.pages_written_per_op": (delta(after, before, "pages", "page_writes") / n, "count"),
        "storage.buffer_hit_ratio": (cache_hits / max(1, cache_hits + page_reads), "ratio"),
        "savepoint.share_of_write_p50": (
            (savepoint / writes) / (write_p50 * 1000.0) if writes and write_p50 else 0.0, "ratio"),
        "trace.throughput_ops_s": (sum(1 for s in result.samples if s.ok) / result.elapsed, "1/s"),
        "trace.server_cpu_ms_per_op": (cpu_ms_per_op(result, scaled(window["cpu_s"], window)), "ms"),
    })
    table = {}
    for rclass in sorted({s.rclass for s in result.samples} | set(self_ms)):
        rtts = result.seconds(rclass, ok_only=False) if rclass != "background" else []
        count = len(rtts)
        layers = self_ms.get(rclass, {})
        row = {"client_requests": count,
               "server_requests": summary["requests"].get(rclass, 0)}
        if count:
            row["rtt_mean_ms"] = sum(rtts) * 1000.0 / count
            row["layers_ms"] = {k: v / count for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}
            row["layers_ms"]["server.unattributed_ms"] = row["rtt_mean_ms"] - sum(layers.values()) / count
        else:
            row["layers_total_ms"] = dict(sorted(layers.items(), key=lambda kv: -kv[1]))
        row["calls"] = summary["calls"].get(rclass, {})
        table[rclass] = row
    return metrics, table


def print_table(table) -> None:
    for rclass, row in table.items():
        if "rtt_mean_ms" in row:
            print(f"  [{rclass}] {row['client_requests']} client / {row['server_requests']} "
                  f"server requests, mean round trip {row['rtt_mean_ms']:.4f} ms = ")
            for layer, value in row["layers_ms"].items():
                print(f"      {layer:<36} {value:10.4f} ms/request")
        else:
            print(f"  [{rclass}] no round trip; self time over the run:")
            for layer, value in row["layers_total_ms"].items():
                print(f"      {layer:<36} {value:10.3f} ms total")


def print_savepoint_share(table, result) -> None:
    """The savepoint copy's share of the committed-write median."""
    from client import median

    pieces = ("storage.store_snapshot", "objectmodel.pool_memento")
    calls = sum(row["calls"].get(p, 0) for row in table.values() for p in pieces)
    write = table.get("write")
    if write is None:
        print(f"  savepoint copy: no committed writes; {calls} snapshot/memento calls")
        return
    per_write = sum(write["layers_ms"].get(p, 0.0) for p in pieces)
    p50 = median(result.seconds("write")) * 1000.0
    print(f"  savepoint copy: store_snapshot + pool_memento = {per_write:.3f} ms per committed "
          f"write = {100.0 * per_write / p50:.1f}% of the traced write p50 ({p50:.3f} ms)")


async def final_state(workload, conns, ledgers, base, twin) -> list:
    """Read the final state over the wire and compare it with the
    ledgers (write workloads) and the twin (``evolve_small``)."""
    from client import ledger_mismatches
    from loads import DATA_VIEW, EVOLVE_VIEW, canonical

    problems = []
    data = next(c for c in conns if c.view == DATA_VIEW)
    extents = {}
    for view_class in ("Person", "Student", "TA"):
        reply = await data.call({"type": "extent", "class": view_class})
        extents[view_class] = reply["oids"]
    objects = (await data.call({"type": "extent", "class": "Student", "values": True}))["objects"]
    tas = (await data.call({"type": "extent", "class": "TA", "values": True}))["objects"]
    for oid, values in tas.items():
        objects[oid] = {**objects.get(oid, {}), **values}
    problems += ledger_mismatches(base, ledgers, extents, objects)
    if workload == "evolve_small":
        evo = next(c for c in conns if c.view == EVOLVE_VIEW)
        described = await evo.call({"type": "describe"})
        described.pop("id", None)
        described.pop("type", None)
        if canonical(described) != canonical(twin.describe_view(EVOLVE_VIEW)):
            problems.append("describe of EVO differs from the twin's")
    return problems


async def bench(args) -> int:
    import client
    import loads
    from repro.core.database import TseDatabase

    workload = args.workload
    twin = loads.build_db(workload)
    base = loads.Baseline.of(twin, with_ta_values=workload == "read_pinned")
    scripts = loads.make_scripts(workload, args.seed, base, twin)
    stamp = f"{workload}-s{args.seed}-t{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work_root = OUT / "work" / f"{stamp}-{os.getpid()}"
    spans = results / f"{stamp}.spans.jsonl" if args.trace else None
    dump = work_root / "live.json" if workload == "write_online" else None
    servers = []
    try:
        setups = []
        for index in range(SETUPS):
            last = index == SETUPS - 1
            server = ServerProcess(workload, work_root / f"server{index}", args.trace,
                                   spans if last else None, dump if last else None)
            servers.append(server)
            await server.start()
            setups.append(server.setup_s)
            if not last:
                await server.stop()
        server = servers[-1]
        conns = [client.Connection(i, view) for i, view in enumerate(scripts.views)]
        ledgers = [client.Ledger() for _ in conns]
        for conn in conns:
            await conn.open("127.0.0.1", server.port)
            for view_class in ("Person", "Student", "TA"):  # warm the read paths
                await conn.call({"type": "count", "class": view_class})
                reply = await conn.call({"type": "extent", "class": view_class})
                if reply["oids"] != base.extents[view_class]:
                    # the scripts' write targets are the twin's OIDs
                    raise RuntimeError(f"server's {view_class} extent differs from the twin's")
        judge = client.Judge(base, ledgers, exact_reads=workload == "read_pinned")
        before = (await conns[0].call({"type": "stats"}))["stats"]
        await server.command("mark")
        result = await client.drive(conns, scripts.scripts, judge, args.seconds)
        window = await server.command("freeze")
        after = (await conns[0].call({"type": "stats"}))["stats"]
        problems = list(result.errors)
        if workload != "read_pinned":
            await client.cleanup(conns, ledgers)
            problems += await final_state(workload, conns, ledgers, base, twin)
        for conn in conns:
            await conn.close()
        report = await server.stop()
        if dump is not None:
            recovered = TseDatabase.recover(server.work / "wal")
            from repro.persistence import database_to_dict

            live = json.loads(dump.read_text())
            if loads.canonical(database_to_dict(recovered)) != live:
                problems.append("database recovered from the WAL differs from the live one")
            recovered.wal.close()
    finally:
        for server in servers:
            if server.proc is not None and server.proc.returncode is None:
                server.proc.kill()
                await server.proc.wait()
        shutil.rmtree(work_root, ignore_errors=True)

    user_bytes = sum(l.user_bytes for l in ledgers)
    wal_bytes = delta(after, before, "wal_bytes")
    print(f"tsebench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{result.attempted} requests in {result.elapsed:.2f} s over 2 connections")
    print("  named metrics (n = samples):")
    for name, value, unit, count in named(result, setups, window, report,
                                          user_bytes, wal_bytes):
        shown = "withheld (fewer than 10 samples beyond it)" if value is None else f"{value:.6g} {unit}"
        print(f"    {name:<28} {shown}  (n={count})")
    saved = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "problems": problems}
    if args.trace:
        metrics, table = per_layer(result, report, before, after, user_bytes, window)
        print("  per-layer self time by request class (rows add up to the round trip):")
        print_table(table)
        print_savepoint_share(table, result)
        saved["table"] = table
        saved["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = end_to_end(result, setups, window, report)
    missing = [name for name, (value, _unit) in metrics.items() if value is None]
    if missing:
        problems.append(f"too few samples for {', '.join(missing)}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    correct = not problems and result.failed == 0
    payload = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    saved["result"] = payload
    (results / f"{stamp}.json").write_text(json.dumps(saved, indent=1, default=str))
    print(json.dumps(payload))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="TSE benchmark (see tsebench/README.md)")
    parser.add_argument("--workload", required=True, choices=("read_pinned", "write_online", "evolve_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"tsebench: no TSE sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return asyncio.run(bench(args))


if __name__ == "__main__":
    sys.exit(main())
