"""A unified metrics registry for the whole database.

Before this module, observability counters were scattered: ``ExtentStats``
on the evaluator, ``PageStats`` on the store, OID/slice counters on the
pool, ad-hoc ints elsewhere.  :class:`MetricsRegistry` puts one facade over
all of them without forcing a rewrite:

* **counters** — monotonically increasing values owned by the registry
  (``registry.counter("schema_changes").inc()``), optionally labelled so
  one family can attribute work per session / per record type;
* **gauges** — point-in-time values, either set directly or *observed*
  through a callback (``registry.gauge("objects", callback=...)``) so
  existing component state is absorbed rather than duplicated;
* **histograms** — fixed-boundary bucketed distributions (span durations),
  optionally labelled, with streaming p50/p95/p99 estimates interpolated
  from the buckets (the ``histogram_quantile`` construction, O(1) memory);
* **groups** — named providers returning whole dicts (``pages``,
  ``extents``), preserving the nested shape ``Database.stats()`` always had.

Dimensional metrics are *families*: ``counter("session_reads",
labels={"session": "r3"})`` get-or-creates one child per label set under a
single family name.  Label cardinality is budgeted per family
(:data:`LABEL_CARDINALITY_BUDGET`): once a family holds that many children,
further label sets collapse into a single ``_other_`` child instead of
growing without bound — a mis-labelled hot loop degrades one series, never
the process.

Everything is exportable two ways: :meth:`MetricsRegistry.snapshot` (the
JSON/dict shape ``Database.stats()`` now delegates to) and
:meth:`MetricsRegistry.to_prometheus` (the text exposition format, so a
scraper — or a test — can consume the same numbers).  Bucket boundaries are
rendered through one canonical formatter in *both* exports, and
``observe()`` uses the same inclusive upper-bound (``value <= le``)
semantics Prometheus defines for ``le`` — the JSON snapshot and the
``_bucket`` series can be compared key-for-key.

Instruments and the registry are thread-safe: each instrument guards its
own mutation/read with a small per-instrument lock (a ``Histogram`` update
touches ``sum``, ``count`` *and* a bucket — three separate writes that
threads would otherwise tear, leaving ``count != sum(bucket counts)`` in a
snapshot), and the registry serialises its get-or-create maps so two
threads asking for the same name always receive the same object.  Gauge
callbacks are invoked *outside* the registry lock — they read live
component state and may themselves take component locks.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "LABEL_CARDINALITY_BUDGET",
    "OVERFLOW_LABEL",
]

#: default histogram boundaries (seconds), Prometheus-style
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: quantiles estimated on every histogram snapshot
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

#: children a single family may hold before new label sets collapse
LABEL_CARDINALITY_BUDGET = 64

#: label value absorbing over-budget label sets
OVERFLOW_LABEL = "_other_"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: a normalised label set: sorted (key, value) pairs
LabelKey = Tuple[Tuple[str, str], ...]


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric-name fragment."""
    cleaned = _NAME_RE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


class Counter:
    """A monotonically increasing value (resettable for benchmarking)."""

    __slots__ = ("name", "help", "labels", "value", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """A point-in-time value: set directly, or observed via callback."""

    __slots__ = ("name", "help", "labels", "_value", "_callback", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], object]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._value: object = 0
        self._callback = callback
        self._lock = threading.Lock()

    def set(self, value: object) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        with self._lock:
            self._value = value

    @property
    def value(self) -> object:
        if self._callback is not None:
            return self._callback()  # outside the lock: may consult live state
        with self._lock:
            return self._value

    def reset(self) -> None:
        if self._callback is None:
            with self._lock:
                self._value = 0


class Histogram:
    """Fixed-boundary bucketed distribution of observed values."""

    __slots__ = (
        "name", "help", "labels", "buckets", "counts", "sum", "count", "max", "_lock"
    )

    def __init__(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not buckets or tuple(sorted(buckets)) != tuple(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self.buckets = tuple(float(bound) for bound in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        #: largest observation: the answer for ranks past the last bound
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # The bucket is the first bound >= value — the inclusive ``le``
        # semantics of the Prometheus cumulative export.  bisect_left lands
        # on the bound itself when value == bound, so boundary observations
        # count into the bucket whose ``le`` equals them, exactly as a
        # scraper computing ``value <= le`` would expect.
        index = bisect_left(self.buckets, value)
        # sum/count/bucket are three writes; the lock keeps the invariant
        # count == sum(bucket counts) visible to any concurrent snapshot
        with self._lock:
            self.sum += value
            self.count += 1
            self.counts[index] += 1
            if value > self.max:
                self.max = value

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.buckets) + 1)
            self.sum = 0.0
            self.count = 0
            self.max = 0.0

    def quantile(self, q: float) -> float:
        """Streaming quantile interpolated from bucket boundaries.

        The ``histogram_quantile`` construction: find the bucket the rank
        falls in, interpolate linearly inside it.  A rank in the ``+Inf``
        bucket has no upper edge to interpolate towards; it reports the
        largest observation instead of the last finite bound."""
        with self._lock:
            counts = list(self.counts)
            total = self.count
            largest = self.max
        return self._quantile_from(q, counts, total, largest)

    def _quantile_from(
        self, q: float, counts: List[int], total: int, largest: float
    ) -> float:
        if total <= 0:
            return 0.0
        rank = q * total
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.buckets, counts):
            if cumulative + bucket_count >= rank:
                if bucket_count == 0:
                    return lower
                fraction = (rank - cumulative) / bucket_count
                return lower + (bound - lower) * fraction
            cumulative += bucket_count
            lower = bound
        return largest

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self.counts)
            total = self.count
            observed_sum = self.sum
            largest = self.max
        cumulative = 0
        buckets = {}
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            buckets[_fmt(bound)] = cumulative
        buckets["+Inf"] = total
        return {
            "count": total,
            "sum": round(observed_sum, 6),
            "buckets": buckets,
            "p50": round(self._quantile_from(0.5, counts, total, largest), 6),
            "p95": round(self._quantile_from(0.95, counts, total, largest), 6),
            "p99": round(self._quantile_from(0.99, counts, total, largest), 6),
        }


class MetricsRegistry:
    """One registry over counters, gauges, histograms and stat groups.

    Instruments are get-or-create: calling :meth:`counter` twice with the
    same name (and label set) returns the same object, so components never
    coordinate on construction order.  Registration order is preserved and
    becomes the key order of :meth:`snapshot` — the key-stability contract
    of ``Database.stats()``.  Every instrument kind is a *family*: the
    unlabelled child renders exactly as before (a bare scalar / histogram
    dict), labelled children render under ``{k=v,...}`` keys.
    """

    def __init__(self, label_budget: int = LABEL_CARDINALITY_BUDGET) -> None:
        self._counters: Dict[str, Dict[LabelKey, Counter]] = {}
        self._gauges: Dict[str, Dict[LabelKey, Gauge]] = {}
        self._groups: Dict[str, Callable[[], Mapping[str, object]]] = {}
        #: family name -> label-key -> Histogram
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}
        #: snapshot key order across all instrument kinds
        self._order: List[Tuple[str, str]] = []
        self._label_budget = max(1, label_budget)
        #: guards the get-or-create maps and ``_order``; re-entrant because
        #: ``timed_observe`` calls :meth:`histogram` which may re-enter
        self._lock = threading.RLock()

    # -- registration ------------------------------------------------------

    def _admit(
        self, family: Dict[LabelKey, object], key: LabelKey
    ) -> LabelKey:
        """Enforce the per-family cardinality budget.

        A new label set beyond the budget is redirected onto the overflow
        child (same label *keys*, every value ``_other_``) so the family
        stays bounded no matter what a caller interpolates into labels."""
        if key and key not in family and len(family) >= self._label_budget:
            return tuple((k, OVERFLOW_LABEL) for k, _ in key)
        return key

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        with self._lock:
            family = self._counters.get(name)
            if family is None:
                self._check_free(name)
                family = {}
                self._counters[name] = family
                self._order.append(("counter", name))
            key = self._admit(family, _label_key(labels))
            instrument = family.get(key)
            if instrument is None:
                instrument = Counter(name, help, labels=dict(key))
                family[key] = instrument
        return instrument

    def gauge(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], object]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        with self._lock:
            family = self._gauges.get(name)
            if family is None:
                self._check_free(name)
                family = {}
                self._gauges[name] = family
                self._order.append(("gauge", name))
            key = self._admit(family, _label_key(labels))
            instrument = family.get(key)
            if instrument is None:
                instrument = Gauge(name, help, callback, labels=dict(key))
                family[key] = instrument
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        with self._lock:
            family = self._histograms.get(name)
            if family is None:
                self._check_free(name)
                family = {}
                self._histograms[name] = family
                self._order.append(("histogram", name))
            key = self._admit(family, _label_key(labels))
            instrument = family.get(key)
            if instrument is None:
                instrument = Histogram(
                    name, buckets=buckets, help=help, labels=dict(key)
                )
                family[key] = instrument
        return instrument

    def register_group(
        self, name: str, provider: Callable[[], Mapping[str, object]]
    ) -> None:
        """Absorb an existing stats object: ``provider()`` returns its dict.

        Re-registering a name replaces the provider (databases rebuild
        component wiring on restore)."""
        with self._lock:
            if name not in self._groups:
                self._check_free(name)
                self._order.append(("group", name))
            self._groups[name] = provider

    # -- timing helpers ----------------------------------------------------

    def timed_observe(
        self,
        name: str,
        seconds: float,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> None:
        """Record one duration into the ``name`` histogram family.

        Keyword arguments become histogram labels, so one family can hold
        e.g. checkpoint vs. recovery timings side by side
        (``timed_observe("durability_seconds", dt, op="checkpoint")``).
        """
        self.histogram(name, buckets=buckets, labels=labels or None).observe(seconds)

    @contextmanager
    def timed(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ):
        """Context manager timing its block into the ``name`` histogram —
        the duration is recorded even when the block raises."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timed_observe(
                name, time.perf_counter() - start, buckets=buckets, **labels
            )

    def _check_free(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._groups
            or name in self._histograms
        ):
            raise ValueError(f"metric name {name!r} already registered as another kind")

    # -- export ------------------------------------------------------------

    @staticmethod
    def _family_snapshot(
        family: Mapping[LabelKey, object], render: Callable[[object], object]
    ) -> object:
        """One family as snapshot JSON: bare value when unlabelled, a
        ``{k=v}``-keyed dict once labelled children exist."""
        if len(family) == 1 and () in family:
            return render(family[()])
        out = {}
        for key, child in sorted(family.items()):
            label = "{%s}" % ",".join(f"{k}={v}" for k, v in key)
            out[label] = render(child)
        return out

    def describe(self) -> List[Dict[str, object]]:
        """The instrument inventory, in registration order.

        One row per family: ``{"name", "kind", "labels", "help"}`` where
        ``labels`` is the sorted union of label keys across the family's
        children and ``help`` is the first non-empty help string among
        them.  ``docs/OPERATIONS.md``'s metrics reference is generated
        from these rows (:func:`repro.tools.metrics_reference_markdown`),
        so the table cannot drift from the code."""
        with self._lock:
            order = list(self._order)
            rows: List[Dict[str, object]] = []
            for kind, name in order:
                if kind == "group":
                    rows.append(
                        {"name": name, "kind": "group", "labels": [], "help": ""}
                    )
                    continue
                family_map = {
                    "counter": self._counters,
                    "gauge": self._gauges,
                    "histogram": self._histograms,
                }[kind]
                family = family_map[name]
                label_keys = sorted({k for key in family for k, _ in key})
                help_text = next(
                    (child.help for child in family.values() if child.help), ""
                )
                rows.append(
                    {
                        "name": name,
                        "kind": kind,
                        "labels": label_keys,
                        "help": help_text,
                    }
                )
        return rows

    def snapshot(self) -> Dict[str, object]:
        """All instruments as one JSON-ready dict, in registration order."""
        with self._lock:
            order = list(self._order)
        result: Dict[str, object] = {}
        for kind, name in order:
            if kind == "counter":
                result[name] = self._family_snapshot(
                    self._counters[name], lambda c: c.value
                )
            elif kind == "gauge":
                result[name] = self._family_snapshot(
                    self._gauges[name], lambda g: g.value
                )
            elif kind == "group":
                result[name] = dict(self._groups[name]())
            else:  # histogram family
                result[name] = self._family_snapshot(
                    self._histograms[name], lambda h: h.as_dict()
                )
        return result

    def to_prometheus(self, prefix: str = "tse_") -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            order = list(self._order)
        lines: List[str] = []
        for kind, name in order:
            metric = prefix + _sanitize(name)
            if kind == "counter":
                family = self._counters[name]
                helps = [c.help for c in family.values() if c.help]
                if helps:
                    lines.append(f"# HELP {metric} {helps[0]}")
                lines.append(f"# TYPE {metric} counter")
                for _, counter in sorted(family.items()):
                    labels = _labels(counter.labels)
                    lines.append(f"{metric}_total{labels} {_fmt(counter.value)}")
            elif kind == "gauge":
                family = self._gauges[name]
                emitted_type = False
                for _, gauge in sorted(family.items()):
                    value = gauge.value
                    if not isinstance(value, (int, float)):
                        continue  # non-numeric gauges are snapshot-only
                    if not emitted_type:
                        if gauge.help:
                            lines.append(f"# HELP {metric} {gauge.help}")
                        lines.append(f"# TYPE {metric} gauge")
                        emitted_type = True
                    labels = _labels(gauge.labels)
                    lines.append(f"{metric}{labels} {_fmt(value)}")
            elif kind == "group":
                for key, value in self._groups[name]().items():
                    if not isinstance(value, (int, float)):
                        continue
                    flat = f"{metric}_{_sanitize(str(key))}"
                    lines.append(f"# TYPE {flat} gauge")
                    lines.append(f"{flat} {_fmt(value)}")
            else:  # histogram family
                lines.append(f"# TYPE {metric} histogram")
                for _, hist in sorted(self._histograms[name].items()):
                    label_prefix = dict(hist.labels)
                    state = hist.as_dict()  # locked, internally consistent
                    for bound, cumulative in state["buckets"].items():
                        labels = _labels({**label_prefix, "le": bound})
                        lines.append(f"{metric}_bucket{labels} {cumulative}")
                    base = _labels(label_prefix)
                    lines.append(f"{metric}_sum{base} {_fmt(state['sum'])}")
                    lines.append(f"{metric}_count{base} {state['count']}")
        return "\n".join(lines) + "\n"

    # -- maintenance -------------------------------------------------------

    def reset(self) -> None:
        """Zero every registry-owned value (callback gauges are untouched —
        they mirror live component state, which owns its own reset)."""
        for family in self._counters.values():
            for counter in family.values():
                counter.reset()
        for family in self._gauges.values():
            for gauge in family.values():
                gauge.reset()
        for family in self._histograms.values():
            for hist in family.values():
                hist.reset()


def _fmt(value: object) -> str:
    """Numbers without trailing noise (ints stay ints, bools become 0/1)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_sanitize(k)}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"
