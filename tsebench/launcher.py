"""The server process of one benchmark run.

Builds and populates the workload's database, enables the WAL with
``sync="flush"``, and serves it with a ``TseServer`` at its defaults.
With ``--trace 1`` the layer wrappers of :mod:`layers` are installed
first.  It prints ``READY <port>`` once the first frame can be sent, starts
the speed probe (:mod:`probe`), then obeys one command per stdin line,
acknowledging each with ``OK <command>``:

``mark``    start the measured window (and charging spans, in traced runs)
``freeze``  end it; the acknowledgement is ``OK freeze <cpu>``
``stop``    stop the server, write the results, print ``DONE <json>``

``<cpu>`` is a JSON object: ``cpu_s``, the CPU time of the process (all its
threads) over the measured window, less the probe's own, ``probe_s``, the
probe's median sample over the same window, and ``probe_n``, its samples.

End of stdin counts as ``stop``, so the process never outlives the
benchmark that started it.

    python3 tsebench/launcher.py --workload write_online --wal DIR [--trace 1]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path
from typing import Tuple


def peak_rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def cpu_since(probe, since: Tuple[float, int]) -> str:
    """The ``<cpu>`` object of the window that began at ``since``."""
    cpu_s, first = since
    probe_s, probe_cpu_s = probe.window(first)
    return json.dumps({"cpu_s": time.process_time() - cpu_s - probe_cpu_s, "probe_s": probe_s,
                       "probe_n": max(1, len(probe.samples) - first)})


async def serve(db, recorder, probe) -> None:
    from repro.server.server import TseServer

    server = TseServer(db)
    _, port = await server.start()
    print(f"READY {port}", flush=True)
    probe.start()
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_commands():
        try:
            for line in sys.stdin:
                loop.call_soon_threadsafe(commands.put_nowait, line.strip())
            loop.call_soon_threadsafe(commands.put_nowait, "stop")
        except RuntimeError:  # the loop already closed after a "stop"
            pass

    threading.Thread(target=read_commands, daemon=True).start()
    marked = (time.process_time(), len(probe.samples))
    while True:
        command = await commands.get()
        if command == "stop":
            break
        reply = f"OK {command}"
        if command == "mark":
            marked = (time.process_time(), len(probe.samples))
            if recorder is not None:
                recorder.reset()
                recorder.recording = True
        elif command == "freeze":
            reply += " " + cpu_since(probe, marked)
            if recorder is not None:
                recorder.recording = False
        print(reply, flush=True)
    await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--wal", required=True, help="WAL directory (must be new)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="span dump file (traced runs)")
    parser.add_argument("--dump", help="write persistence.database_to_dict here on stop")
    args = parser.parse_args(argv)

    import probe

    speed = probe.Probe()
    recorder = None
    if args.trace:
        import layers

        recorder = layers.install()
    import loads

    db = loads.build_db(args.workload)
    db.enable_wal(args.wal, sync="flush")
    asyncio.run(serve(db, recorder, speed))
    speed.stop()
    result = {"vmhwm_kb": peak_rss_kb()}
    migration = db.sessions().migration
    if migration is not None:
        migration.drain()  # the backfill worker must be idle for the dump
    if args.dump:
        from repro.persistence import database_to_dict

        Path(args.dump).write_text(json.dumps(database_to_dict(db), default=str))
    db.wal.close()
    if recorder is not None:
        result["layers"] = recorder.summary()
        if args.spans:
            recorder.dump(args.spans)
    print("DONE " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
