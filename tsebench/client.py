"""The closed-loop load: one asyncio process, one task per connection.

Each connection sends its next frame only after the reply to the last one
arrived, the way an application blocked on ``Client`` calls behaves.
Round trips are timed here, on the client, and every percentile the
benchmark reports is computed from these samples.  Every reply is judged
against the script's expectation and the connection's ledger of
acknowledged writes; a reply that differs counts as failed.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.server import protocol

from loads import ABORT_AGE, MAX_OUTSTANDING, OWN, Baseline, Step

#: one reply may take this long before the run is declared hung
REPLY_TIMEOUT_S = 60.0
#: a schema change's backlog must drain within this long
DRAIN_TIMEOUT_S = 30.0
#: pause between two ``migration_status`` polls of one drain
POLL_INTERVAL_S = 0.002


def percentile(samples: List[float], q: float) -> Optional[float]:
    """The ``q`` quantile by nearest rank, or ``None`` when fewer than ten
    samples lie beyond it (a p99 needs 1,000 samples, a p90 100)."""
    n = len(samples)
    if n == 0 or n * (1.0 - q) < 10 - 1e-9:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * n) - 1)]


def median(samples: List[float]) -> Optional[float]:
    if not samples:
        return None
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Sample:
    rclass: str
    rtype: str
    seconds: float
    ok: bool


@dataclass
class Ledger:
    """What one connection knows the server must hold."""

    outstanding: List[int] = field(default_factory=list)
    created: Set[int] = field(default_factory=set)
    deleted: Set[int] = field(default_factory=set)
    #: last acknowledged value per (oid, attribute)
    values: Dict[Tuple[int, str], object] = field(default_factory=dict)
    #: encoded bytes of acknowledged update specs
    user_bytes: int = 0


def spec_bytes(spec: dict) -> int:
    return len(json.dumps(spec, separators=(",", ":")).encode())


def update_specs(frame: dict) -> List[dict]:
    if frame["type"] == "update":
        return [{k: v for k, v in frame.items() if k not in ("type", "id")}]
    return list(frame.get("updates", ()))


class Judge:
    """Decides whether a reply is the one the script and ledgers expect."""

    def __init__(self, base: Baseline, ledgers: List[Ledger], exact_reads: bool):
        self.base = base
        self.ledgers = ledgers
        self.oid_of = {name: oid for oid, name in base.names.items()}
        #: read_pinned: no writes, so every read must equal the population
        self.exact_reads = exact_reads

    def count_range(self, conn: int, view_class: str) -> Tuple[int, int]:
        n = len(self.base.extents[view_class])
        if self.exact_reads or view_class == "TA":
            return n, n
        mine = len(self.ledgers[conn].outstanding)
        others = sum(
            MAX_OUTSTANDING for i in range(len(self.ledgers)) if i != conn
        )
        return n + mine, n + mine + others

    def reply_ok(self, conn: int, step: Step, frame: dict, reply: dict) -> bool:
        if reply.get("id") != frame.get("id"):
            return False
        if step.expect == "rejected":
            return reply.get("type") == "error" and reply.get("code") == "rejected"
        if reply.get("type") == "error":
            return False
        rtype = frame["type"]
        if rtype == "count":
            lo, hi = self.count_range(conn, frame["class"])
            return lo <= reply.get("count", -1) <= hi
        if rtype == "classes":
            return sorted(reply.get("classes", ())) == self.base.classes
        if rtype == "extent":
            if frame.get("values"):
                return reply.get("objects") == self.base.ta_objects
            oids = reply.get("oids", [])
            expected = self.base.extents[frame["class"]]
            if self.exact_reads:
                return oids == expected
            lo, hi = self.count_range(conn, frame["class"])
            return lo <= len(oids) <= hi and set(expected) <= set(oids)
        if rtype in ("update", "apply_many"):
            results = [reply] if rtype == "update" else reply.get("results", [])
            specs = update_specs(frame)
            if len(results) != len(specs):
                return False
            for spec, result in zip(specs, results):
                if spec["op"] == "create":
                    if not isinstance(result.get("oid"), int):
                        return False
                elif result.get("count") != len(spec.get("oids", [None])):
                    return False  # set-where names exactly one object
            return True
        if step.rclass == "schema_change":
            return step.version is None or reply.get("version") == step.version
        return True

    def settle(self, conn: int, frame: dict, reply: dict, ok: bool) -> None:
        """Fold an acknowledged write into the ledger (or undo the
        placeholder pops of one that did not commit)."""
        ledger = self.ledgers[conn]
        specs = update_specs(frame)
        if not ok or reply.get("type") == "error":
            for spec in specs:
                if spec["op"] == "delete":
                    ledger.outstanding[:0] = [o for o in spec["oids"]]
            return
        results = [reply] if frame["type"] == "update" else reply.get("results", [])
        for spec, result in zip(specs, results):
            ledger.user_bytes += spec_bytes(spec)
            if spec["op"] == "create":
                ledger.outstanding.append(result["oid"])
                ledger.created.add(result["oid"])
            elif spec["op"] == "delete":
                ledger.deleted.update(spec["oids"])
            elif spec["op"] == "set":
                oids = spec.get("oids") or [self.oid_of[spec["where"]["value"]]]
                for oid in oids:
                    for attr, value in spec["values"].items():
                        ledger.values[(oid, attr)] = value


def render(step: Step, ledger: Ledger, rid: int) -> dict:
    """The frame to send: the script's frame with ``$own`` replaced by
    the connection's oldest acknowledged create, and a request id."""
    frame = json.loads(json.dumps(step.frame))
    specs = [frame] if frame["type"] == "update" else frame.get("updates", ())
    for spec in specs:
        if spec.get("oids") == [OWN]:
            spec["oids"] = [ledger.outstanding.pop(0)]
    frame["id"] = rid
    return frame


class Connection:
    """One TCP connection speaking the framed protocol."""

    def __init__(self, index: int, view: str):
        self.index = index
        self.view = view
        self.reader = None
        self.writer = None
        self._ids = 0

    def next_id(self) -> int:
        self._ids += 1
        return self._ids

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)
        await self.call({"type": "hello", "protocol": protocol.PROTOCOL_VERSION,
                         "tenant": f"bench{self.index}"})
        await self.call({"type": "attach", "view": self.view})

    async def rpc(self, frame: dict) -> dict:
        self.writer.write(protocol.encode_frame(frame))
        await self.writer.drain()
        reply = await asyncio.wait_for(protocol.read_frame(self.reader), REPLY_TIMEOUT_S)
        if reply is None:
            raise ConnectionError("server closed the connection")
        return reply

    async def call(self, frame: dict) -> dict:
        """An unmeasured request that must succeed (set-up, checks)."""
        frame = {**frame, "id": self.next_id()}
        reply = await self.rpc(frame)
        if reply.get("type") == "error":
            raise RuntimeError(f"{frame['type']} failed: {reply}")
        return reply

    async def close(self) -> None:
        if self.writer is None:
            return
        try:
            await self.call({"type": "goodbye"})
        except (ConnectionError, RuntimeError, asyncio.TimeoutError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@dataclass
class RunResult:
    samples: List[Sample]
    drains: List[float]
    elapsed: float
    errors: List[str]

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def seconds(self, rclass: str, rtype: Optional[str] = None, ok_only=True) -> List[float]:
        return [
            s.seconds
            for s in self.samples
            if s.rclass == rclass
            and (rtype is None or s.rtype == rtype)
            and (s.ok or not ok_only)
        ]


async def drive(
    conns: List[Connection],
    scripts: List[Iterable[Step]],
    judge: Judge,
    seconds: float,
) -> RunResult:
    """Run every connection's script in a closed loop for ``seconds``.

    A finite script (a list) is spread evenly over the run -- step ``i``
    is not sent before ``i * seconds / len(script)`` -- so the other
    connection meets it during the whole run rather than in one burst;
    it runs to its end even past the deadline."""
    samples: List[Sample] = []
    drains: List[float] = []
    errors: List[str] = []
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds

    async def one(conn: Connection, script: Iterable[Step], paced: bool):
        ledger = judge.ledgers[conn.index]
        pace = seconds / len(script) if paced else 0.0
        try:
            for index, step in enumerate(script):
                if paced:
                    await asyncio.sleep(max(0.0, start + index * pace - clock()))
                elif clock() >= deadline:
                    return
                frame = render(step, ledger, conn.next_id())
                sent = clock()
                reply = await conn.rpc(frame)
                took = clock() - sent
                ok = judge.reply_ok(conn.index, step, frame, reply)
                if frame["type"] in ("update", "apply_many"):
                    judge.settle(conn.index, frame, reply, ok and step.expect == "ok")
                if not ok and len(errors) < 5:
                    errors.append(f"{step.rclass} {frame} -> {reply}")
                samples.append(Sample(step.rclass, frame["type"], took, ok))
                if step.drain and ok:
                    await drain(conn, sent)
        except (ConnectionError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
            samples.append(Sample("lost", "disconnect", 0.0, False))
            errors.append(f"connection {conn.index}: {exc!r}")

    async def drain(conn: Connection, sent: float) -> None:
        while True:
            frame = {"type": "migration_status", "id": conn.next_id()}
            polled = clock()
            reply = await conn.rpc(frame)
            took = clock() - polled
            backlog = reply.get("migration", {}).get("backlog")
            ok = reply.get("type") == "result" and isinstance(backlog, int)
            samples.append(Sample("poll", "migration_status", took, ok))
            if not ok or clock() - sent > DRAIN_TIMEOUT_S:
                errors.append(f"drain failed: {reply}")
                return
            if backlog == 0:
                drains.append(clock() - sent)
                return
            await asyncio.sleep(POLL_INTERVAL_S)

    await asyncio.gather(
        *(one(c, s, isinstance(s, list)) for c, s in zip(conns, scripts))
    )
    return RunResult(samples, drains, clock() - start, errors)


async def cleanup(conns: List[Connection], ledgers: List[Ledger]) -> None:
    """Delete every create still outstanding, so the population ends as
    it started (unmeasured)."""
    for conn in conns:
        ledger = ledgers[conn.index]
        while ledger.outstanding:
            oid = ledger.outstanding.pop(0)
            await conn.call({"type": "update", "op": "delete", "class": "Student", "oids": [oid]})
            ledger.deleted.add(oid)


def ledger_mismatches(
    base: Baseline, ledgers: List[Ledger], extents: Dict[str, List[int]], objects: dict
) -> List[str]:
    """Compare the server's final state with the ledgers: per-class OID
    sets, the last acknowledged value of every attribute written, and no
    trace of a rejected batch."""
    problems = []
    created = set().union(*(l.created for l in ledgers))
    deleted = set().union(*(l.deleted for l in ledgers))
    for view_class in ("Person", "Student"):
        expected = (set(base.extents[view_class]) | created) - deleted
        if set(extents[view_class]) != expected:
            problems.append(f"{view_class} OIDs differ from the ledger")
    if extents["TA"] != base.extents["TA"]:
        problems.append("TA OIDs differ from the population")
    for ledger in ledgers:
        for (oid, attr), value in ledger.values.items():
            got = objects.get(str(oid), {}).get(attr)
            if got != value:
                problems.append(f"oid {oid}.{attr} is {got!r}, ledger says {value!r}")
                break
    for oid, values in objects.items():
        if values.get("age") == ABORT_AGE or str(values.get("name", "")).startswith("abort"):
            problems.append(f"oid {oid} carries a write of a rejected batch")
            break
    return problems
