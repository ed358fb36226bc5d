"""Per-layer timing for the traced run, from the benchmark's own files.

:func:`install` wraps public callables of each layer *before* the server
builds its database, so every instance picks the wrappers up.  A wrapper
records a span (name, start, end, parent span on the same thread) and
charges the span's *self* time -- its duration minus the time of the
spans nested inside it -- to the request being served.  There is no wire
trace id, so requests are told apart by connection task: the server's
``_dispatch`` and ``_run`` are wrapped to carry the request across the
executor hand-off.  Work on threads no request owns (the lazy-migration
backfill worker) is charged to the ``background`` class.

Frame decoding is timed at ``protocol.decode_body``: ``read_frame``
itself also waits for the client's next frame to arrive, which is idle
time, not codec work.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.core.explain import PRIMITIVE_OPS

#: raw spans kept for the dump file; aggregates always cover every span
SPAN_DUMP_CAP = 50_000

READ_TYPES = ("count", "extent", "classes")

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("tsebench_request", default=None)


def request_class(message: dict, failed: bool) -> str:
    """The client's request classes, decided from the frame and outcome."""
    rtype = message.get("type")
    if rtype == "extent" and message.get("values"):
        return "read_values"
    if rtype in READ_TYPES:
        return "read"
    if rtype in ("update", "apply_many"):
        return "abort" if failed else "write"
    if rtype in PRIMITIVE_OPS:
        return "schema_change"
    if rtype == "migration_status":
        return "poll"
    return "other"


class _Request:
    __slots__ = ("message", "failed", "recorded", "self_s", "calls", "spans")

    def __init__(self, message: dict, recorded: bool):
        self.message = message
        self.failed = False
        self.recorded = recorded
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []


class Recorder:
    """Spans and per-(request class, layer) self-time totals."""

    def __init__(self) -> None:
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._seq = itertools.count(1)
        self._decoded: Dict[int, tuple] = {}
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests: Dict[str, int] = defaultdict(int)
            self.self_s: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
            self.calls: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
            self.spans: List[tuple] = []
            self.spans_total = 0
            self.backlog_peak = 0

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self) -> str:
        name = getattr(self._local, "name", None)
        if name is None:
            name = self._local.name = threading.current_thread().name
        return name

    def _sink(self) -> Optional[_Request]:
        return getattr(self._local, "request", None) or _CURRENT.get()

    def enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][3] if stack else 0
        frame = [name, time.perf_counter(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        span = (span_id, parent, name, self._thread(), start, end)
        self._charge(self._sink(), name, duration - child, span)

    def _charge(self, request: Optional[_Request], name: str, self_s: float, span: tuple) -> None:
        if request is not None:
            if request.recorded:
                request.self_s[name] += self_s
                request.calls[name] += 1
                request.spans.append(span)
            return
        if not self.recording:
            return
        with self._lock:
            self.self_s["background"][name] += self_s
            self.calls["background"][name] += 1
            self._keep("background", 0, span)

    def _keep(self, rclass: str, seq: int, span: tuple) -> None:
        self.spans_total += 1
        if len(self.spans) < SPAN_DUMP_CAP:
            self.spans.append((seq, rclass) + span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return traced

    # -- requests ------------------------------------------------------------

    def decoded(self, message, start: float, end: float) -> None:
        if isinstance(message, dict):
            span = (next(self._ids), 0, "server.decode", self._thread(), start, end)
            self._decoded[id(message)] = span

    def begin(self, message: dict) -> _Request:
        request = _Request(message, self.recording)
        span = self._decoded.pop(id(message), None)
        if span is not None and request.recorded:
            request.self_s["server.decode"] += span[5] - span[4]
            request.calls["server.decode"] += 1
            request.spans.append(span)
        return request

    def finish(self, request: _Request) -> None:
        if not request.recorded:
            return
        rclass = request_class(request.message, request.failed)
        seq = next(self._seq)
        with self._lock:
            self.requests[rclass] += 1
            for name, value in request.self_s.items():
                self.self_s[rclass][name] += value
                self.calls[rclass][name] += request.calls[name]
            for span in request.spans:
                self._keep(rclass, seq, span)

    def note_backlog(self, backlog: int) -> None:
        if self.recording and backlog > self.backlog_peak:
            self.backlog_peak = backlog

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        with self._lock:
            return {
                "requests": dict(self.requests),
                "self_ms": {
                    rclass: {name: s * 1000.0 for name, s in layers.items()}
                    for rclass, layers in self.self_s.items()
                },
                "calls": {rclass: dict(layers) for rclass, layers in self.calls.items()},
                "backlog_peak": self.backlog_peak,
                "spans_total": self.spans_total,
                "spans_dumped": len(self.spans),
            }

    def dump(self, path) -> None:
        fields = ("request", "class", "id", "parent", "name", "thread", "start", "end")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def _targets():
    """(layer name, owner, attribute names) wrapped by :func:`install`."""
    from repro.algebra.updates import UpdateEngine
    from repro.classifier.classify import Classifier
    from repro.concurrency.latch import SchemaLatch
    from repro.concurrency.migration import MigrationEngine
    from repro.concurrency.sessions import ReaderSession
    from repro.core.database import TseDatabase
    from repro.core.handles import ViewClassHandle
    from repro.core.translator import TseTranslator
    from repro.objectmodel.slicing import InstancePool
    from repro.schema.extents import ExtentEvaluator
    from repro.schema.graph import GlobalSchema
    from repro.server import protocol
    from repro.storage.store import ObjectStore
    from repro.storage.wal import WriteAheadLog
    from repro.views.generation import ViewSchemaGenerator

    return [
        ("server.encode", protocol, ("encode_frame",)),
        ("core.apply_view_updates", TseDatabase, ("apply_view_updates",)),
        ("core.schema_change", TseDatabase, ("schema_change",)),
        ("core.read_extent", TseDatabase, ("read_extent",)),
        ("core.select_where", ViewClassHandle, ("select_where",)),
        ("storage.store_snapshot", ObjectStore, ("snapshot",)),
        ("storage.store_restore", ObjectStore, ("restore_snapshot",)),
        ("objectmodel.pool_memento", InstancePool, ("memento",)),
        ("objectmodel.pool_restore", InstancePool, ("restore",)),
        ("schema.schema_memento", GlobalSchema, ("memento",)),
        ("algebra.update", UpdateEngine, ("create", "set_values", "delete", "add", "remove")),
        ("concurrency.latch_read_wait", SchemaLatch, ("acquire_read",)),
        ("concurrency.latch_write_wait", SchemaLatch, ("acquire_write",)),
        ("concurrency.session_refresh", ReaderSession, ("refresh",)),
        ("concurrency.capture_touch", MigrationEngine, ("capture_touch",)),
        ("concurrency.seal", MigrationEngine, ("begin_mutation",)),
        ("concurrency.backfill_step", MigrationEngine, ("backfill_step",)),
        ("core.translate", TseTranslator, PRIMITIVE_OPS),
        ("classifier.classify", Classifier, ("classify_new",)),
        ("views.generate", ViewSchemaGenerator, ("generate",)),
        ("schema.extent", ExtentEvaluator, ("extent",)),
        ("storage.wal_append", WriteAheadLog, ("append",)),
        ("storage.wal_barrier", WriteAheadLog, ("barrier",)),
    ]


def layer_names() -> List[str]:
    """Every layer :func:`install` times."""
    return ["server.decode", "server.handler", "concurrency.epoch_publish"] + [
        name for name, _owner, _attributes in _targets()
    ]


def install() -> Recorder:
    """Wrap every layer's entry points; returns the recorder they feed."""
    from repro.concurrency.epoch import EpochManager
    from repro.server import protocol
    from repro.server.server import TseServer

    recorder = Recorder()
    for name, owner, attributes in _targets():
        for attribute in attributes:
            setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))

    decode_body = protocol.decode_body

    def traced_decode(body):
        start = time.perf_counter()
        message = decode_body(body)
        recorder.decoded(message, start, time.perf_counter())
        return message

    protocol.decode_body = traced_decode

    publish = recorder.wrap("concurrency.epoch_publish", EpochManager.publish)

    def traced_publish(self):
        epoch = publish(self)
        if self.migration is not None:
            recorder.note_backlog(self.migration.backlog())
        return epoch

    EpochManager.publish = traced_publish

    dispatch = TseServer._dispatch

    async def traced_dispatch(self, conn, message):
        request = recorder.begin(message)
        token = _CURRENT.set(request)
        try:
            await dispatch(self, conn, message)
        finally:
            _CURRENT.reset(token)
            recorder.finish(request)

    run = TseServer._run

    async def traced_run(self, fn, *args):
        request = _CURRENT.get()

        def job():
            recorder._local.request = request
            frame = recorder.enter("server.handler")
            try:
                return fn(*args)
            except BaseException:
                if request is not None:
                    request.failed = True
                raise
            finally:
                recorder.exit(frame)
                recorder._local.request = None

        return await run(self, job)

    TseServer._dispatch = traced_dispatch
    TseServer._run = traced_run
    return recorder
