"""Tests for ``repro.obs``: tracer, metrics registry, event bus — and their
integration into the schema-change pipeline."""

import json
import re

import pytest

from repro.core.database import TseDatabase
from repro.errors import TseError
from repro.obs import (
    LIFECYCLE_EVENTS,
    NULL_SPAN,
    EventBus,
    MetricsRegistry,
    Tracer,
    phase_breakdown,
)
from repro.workloads.university import build_figure3_database, populate_students


class TestTracer:
    def test_disabled_tracer_returns_the_shared_null_span(self):
        tracer = Tracer()
        span = tracer.span("anything", attr=1)
        assert span is NULL_SPAN
        assert tracer.span("other") is span  # no allocation per call
        with span as inner:
            inner.set(ignored=True)
        assert tracer.traces() == []
        assert tracer.spans_recorded == 0

    def test_null_span_supports_full_span_surface(self):
        assert NULL_SPAN.find("x") is None
        assert list(NULL_SPAN.walk()) == []
        assert NULL_SPAN.render_lines() == []
        assert NULL_SPAN.as_dict()["children"] == []
        assert NULL_SPAN.duration_ms == 0.0

    def test_spans_nest_into_a_tree(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root", op="test") as root:
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b") as b:
                b.set(items=3)
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.children[0].children[0].name == "grandchild"
        assert root.find("grandchild") is not None
        assert root.children[1].attributes == {"items": 3}
        assert len(list(root.walk())) == 4
        # only the finished root lands in the ring
        assert tracer.traces() == [root]
        assert tracer.spans_recorded == 4
        assert root.duration_ms >= root.children[0].duration_ms

    def test_exception_marks_span_and_still_records(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        root = tracer.last()
        assert root.attributes["error"] == "ValueError"
        assert root.end is not None

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(ring_size=4)
        tracer.enable()
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [s.name for s in tracer.traces()]
        assert names == ["s6", "s7", "s8", "s9"]
        assert [s.name for s in tracer.traces(limit=2)] == ["s8", "s9"]
        tracer.clear()
        assert tracer.traces() == [] and tracer.spans_recorded == 0

    def test_disable_mid_span_does_not_corrupt_the_stack(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            tracer.disable()
        tracer.enable()
        with tracer.span("fresh"):
            pass
        assert tracer.last().name == "fresh"
        assert tracer.last().children == []

    def test_finished_spans_feed_the_duration_histogram(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        tracer.enable()
        with tracer.span("timed"):
            pass
        snapshot = metrics.snapshot()
        hist = snapshot["span_duration_seconds"]["{span=timed}"]
        assert hist["count"] == 1

    def test_phase_breakdown_aggregates_the_forest(self):
        tracer = Tracer()
        tracer.enable()
        for _ in range(2):
            with tracer.span("change"):
                with tracer.span("classify"):
                    pass
                with tracer.span("classify"):
                    pass
        phases = phase_breakdown(tracer.traces())
        assert phases["change"]["count"] == 2
        assert phases["classify"]["count"] == 4
        assert phases["classify"]["total_ms"] >= 0


class TestMetricsRegistry:
    def test_counter_is_get_or_create_and_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        counter.inc()
        registry.counter("ops").inc(2)
        assert registry.snapshot()["ops"] == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_callback_forms(self):
        registry = MetricsRegistry()
        registry.gauge("direct").set(7)
        registry.gauge("derived", callback=lambda: 40 + 2)
        snapshot = registry.snapshot()
        assert snapshot["direct"] == 7
        assert snapshot["derived"] == 42
        with pytest.raises(ValueError):
            registry.gauge("derived").set(1)

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        data = registry.snapshot()["lat"]
        assert data["count"] == 3
        # bucket keys use the same canonical formatting as the Prometheus
        # ``le`` labels (1.0 renders as "1"), so the two exports agree
        assert data["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}

    def test_boundary_observation_counts_into_its_own_le_bucket(self):
        # value == bound must land in the bucket whose ``le`` equals it —
        # the inclusive upper-bound semantics Prometheus defines
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.1)
        hist.observe(1.0)
        data = registry.snapshot()["lat"]
        assert data["buckets"] == {"0.1": 1, "1": 2, "+Inf": 2}
        text = registry.to_prometheus()
        assert 'tse_lat_bucket{le="0.1"} 1' in text
        assert 'tse_lat_bucket{le="1"} 2' in text

    def test_snapshot_and_prometheus_agree_on_bucket_keys(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.0001, 0.5, 1.0, 2.5)).observe(0.2)
        snapshot_keys = set(registry.snapshot()["lat"]["buckets"]) - {"+Inf"}
        text = registry.to_prometheus()
        prom_keys = set(re.findall(r'tse_lat_bucket\{le="([^"]+)"\}', text)) - {"+Inf"}
        assert snapshot_keys == prom_keys

    def test_histogram_quantiles_interpolate_from_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for _ in range(90):
            hist.observe(0.05)
        for _ in range(10):
            hist.observe(0.5)
        data = registry.snapshot()["lat"]
        assert 0.0 < data["p50"] <= 0.1
        assert 0.1 < data["p95"] <= 1.0
        assert 0.1 < data["p99"] <= 1.0
        assert hist.quantile(0.0) == 0.0 or hist.quantile(0.0) <= 0.1
        empty = registry.histogram("none", buckets=(0.1,))
        assert empty.quantile(0.5) == 0.0

    def test_quantiles_past_the_top_bucket_report_the_largest_observation(self):
        """A 10 s request must not read as p99 = 1 s because 1 s is the
        last finite bucket bound."""
        registry = MetricsRegistry()
        hist = registry.histogram("slow")
        assert hist.buckets[-1] == 1.0
        for _ in range(95):
            hist.observe(0.01)
        for _ in range(5):
            hist.observe(10.0)
        assert hist.quantile(0.99) > 1.0
        assert registry.snapshot()["slow"]["p99"] == 10.0
        assert hist.quantile(0.5) <= 0.01
        hist.reset()
        hist.observe(3.0)
        assert hist.quantile(0.99) == 3.0

    def test_labeled_counter_families(self):
        registry = MetricsRegistry()
        registry.counter("reads", labels={"session": "r1"}).inc(3)
        registry.counter("reads", labels={"session": "r2"}).inc(4)
        snap = registry.snapshot()["reads"]
        assert snap == {"{session=r1}": 3, "{session=r2}": 4}
        text = registry.to_prometheus()
        assert 'tse_reads_total{session="r1"} 3' in text
        assert 'tse_reads_total{session="r2"} 4' in text

    def test_labeled_gauge_families(self):
        registry = MetricsRegistry()
        registry.gauge("depth", labels={"view": "VS1"}).set(2)
        registry.gauge("depth", labels={"view": "VS2"}).set(5)
        assert registry.snapshot()["depth"] == {"{view=VS1}": 2, "{view=VS2}": 5}
        assert 'tse_depth{view="VS2"} 5' in registry.to_prometheus()

    def test_label_cardinality_budget_collapses_overflow(self):
        registry = MetricsRegistry(label_budget=3)
        for i in range(10):
            registry.counter("ops", labels={"session": f"s{i}"}).inc()
        family = registry._counters["ops"]
        assert len(family) == 4  # 3 admitted + one _other_ overflow child
        overflow = registry.counter("ops", labels={"session": "anything-new"})
        assert overflow.labels == {"session": "_other_"}
        assert overflow.value == 7  # the 7 over-budget increments pooled

    def test_groups_absorb_existing_stats_dicts(self):
        registry = MetricsRegistry()
        backing = {"hits": 1}
        registry.register_group("cache", lambda: backing)
        assert registry.snapshot()["cache"] == {"hits": 1}
        backing["hits"] = 9  # live, not copied at registration
        assert registry.snapshot()["cache"] == {"hits": 9}

    def test_snapshot_preserves_registration_order(self):
        registry = MetricsRegistry()
        registry.gauge("b")
        registry.counter("a")
        registry.register_group("c", dict)
        assert list(registry.snapshot()) == ["b", "a", "c"]

    def test_name_collisions_across_kinds_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_reset_zeroes_owned_values_only(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.gauge("g").set(5)
        registry.gauge("live", callback=lambda: 5)
        registry.histogram("h").observe(1.0)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["c"] == 0 and snapshot["g"] == 0
        assert snapshot["live"] == 5  # mirrors component state; untouched
        assert snapshot["h"]["count"] == 0

    def test_prometheus_export_format(self):
        registry = MetricsRegistry()
        registry.counter("changes", help="applied changes").inc(3)
        registry.gauge("objects").set(12)
        registry.gauge("flag").set(True)
        registry.gauge("label", callback=lambda: "VS1")  # non-numeric: skipped
        registry.register_group("pages", lambda: {"reads": 4, "name": "x"})
        registry.histogram("lat", buckets=(0.1, 1.0), labels={"span": "classify"}).observe(0.5)
        text = registry.to_prometheus()
        assert "# HELP tse_changes applied changes" in text
        assert "# TYPE tse_changes counter" in text
        assert "tse_changes_total 3" in text
        assert "tse_objects 12" in text
        assert "tse_flag 1" in text  # bool renders as 0/1, not True/False
        assert "tse_label" not in text
        assert "tse_pages_reads 4" in text
        assert "tse_pages_name" not in text
        assert 'tse_lat_bucket{le="0.1",span="classify"} 0' in text
        assert 'tse_lat_bucket{le="+Inf",span="classify"} 1' in text
        assert 'tse_lat_count{span="classify"} 1' in text
        assert text.endswith("\n")


class TestEventBus:
    def test_subscribe_emit_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("ping", seen.append)
        event = bus.emit("ping", n=1)
        assert event["n"] == 1 and event.kind == "ping"
        unsubscribe()
        bus.emit("ping", n=2)
        assert [e.payload["n"] for e in seen] == [1]

    def test_wildcard_sees_every_kind(self):
        bus = EventBus()
        seen = []
        bus.subscribe("*", seen.append)
        bus.emit("a")
        bus.emit("b")
        assert [e.kind for e in seen] == ["a", "b"]
        assert bus.emitted == 2


class TestPipelineIntegration:
    def test_schema_change_produces_a_nested_span_tree(self):
        db, view = build_figure3_database()
        populate_students(db, 3)
        db.obs.tracer.enable()
        view["Student"].count()  # warm the extent cache
        view.add_attribute("register", to="Student", domain="str")
        view["Student"].count()
        with db.transaction():
            view["Student"].create(name="traced")
        roots = db.obs.tracer.traces()
        change = next(r for r in roots if r.name == "schema_change")
        assert change.attributes["operation"] == "add_attribute"
        assert change.attributes["new_version"] == 2
        for stage in ("translate", "classify", "view_generate"):
            assert change.find(stage) is not None, change.render_lines()
        forest_names = {s.name for root in roots for s in root.walk()}
        assert {"extent_maintain", "commit", "extent_recompute"} <= forest_names

    def test_lifecycle_events_fire_in_order(self):
        db, view = build_figure3_database()
        seen = []
        db.obs.events.subscribe("*", seen.append)
        view.add_attribute("register", to="Student", domain="str")
        kinds = [e.kind for e in seen]
        assert kinds == [
            "schema_change_requested",
            "translated",
            "classified",
            "view_substituted",
            "schema_change_applied",
        ]
        assert all(kind in LIFECYCLE_EVENTS for kind in kinds)
        translated = seen[1]
        assert translated["statements"] == 2
        assert "defineVC" in translated["script"]
        applied = seen[-1]
        assert applied["new_version"] == 2

    def test_failed_change_emits_failure_and_counts(self):
        db, view = build_figure3_database()
        seen = []
        db.obs.events.subscribe("schema_change_failed", seen.append)
        with pytest.raises(Exception):
            view.add_attribute("major", to="Student", domain="str")  # duplicate
        assert len(seen) == 1
        assert db.stats()["schema_changes_failed"] == 1

    def test_definevc_event(self):
        from repro.schema.classes import Derivation

        db, _ = build_figure3_database()
        seen = []
        db.obs.events.subscribe("definevc", seen.append)
        db.define_virtual_class(
            "NoMajor", Derivation(op="hide", sources=("Student",), hidden=("major",))
        )
        assert seen[0]["effective"] == "NoMajor"


class TestDatabaseStats:
    def test_stats_keys_are_stable(self):
        db, view = build_figure3_database()
        populate_students(db, 3)
        stats = db.stats()
        # the seed contract, unchanged
        assert stats["classes_base"] == 5
        assert stats["objects"] == 3
        assert stats["views"] == 1
        assert stats["oids_used"] >= 3
        assert "page_reads" in stats["pages"]
        assert "hits" in stats["extents"]
        # new registry-backed keys
        assert stats["transactions"]["committed"] == 0
        assert stats["pipeline"]["tracing_enabled"] is False
        assert stats["schema_changes_applied"] == 0
        view.add_attribute("register", to="Student", domain="str")
        assert db.stats()["schema_changes_applied"] == 1

    def test_stats_snapshot_is_json_serialisable(self):
        db, view = build_figure3_database()
        view.add_attribute("register", to="Student", domain="str")
        json.dumps(db.stats())  # must not raise

    def test_reset_stats_clears_every_resettable_counter(self):
        db, view = build_figure3_database()
        populate_students(db, 3)
        view["Student"].count()
        view.add_attribute("register", to="Student", domain="str")
        db.reset_stats()
        stats = db.stats()
        assert stats["schema_changes_applied"] == 0
        assert stats["extents"]["hits"] == 0
        assert stats["extents"]["misses"] == 0
        assert stats["pages"]["page_reads"] == 0
        # gauges mirroring live schema state are untouched
        assert stats["objects"] == 3
        assert stats["view_versions"] == 2

    def test_transactions_group_counts_savepoint_outcomes(self):
        db, view = build_figure3_database()

        def outcomes():
            return db.stats()["transactions"]

        assert outcomes() == {"committed": 0, "aborted": 0}
        with db.transaction():
            view["Student"].create(name="kept")
        assert outcomes() == {"committed": 1, "aborted": 0}
        with pytest.raises(RuntimeError):
            with db.transaction():
                view["Student"].create(name="dropped")
                raise RuntimeError("abort")
        assert outcomes() == {"committed": 1, "aborted": 1}
        # a nested inner abort counts once; its enclosing block commits
        with db.transaction():
            with pytest.raises(RuntimeError):
                with db.transaction():
                    raise RuntimeError("inner abort")
        assert outcomes() == {"committed": 2, "aborted": 2}
        # a rejected batch is one aborted savepoint
        with pytest.raises(TseError):
            db.apply_many([
                ("create", {"class_name": "Student", "assignments": {}}),
                ("create", {"class_name": "NoSuchClass"}),
            ])
        assert outcomes() == {"committed": 2, "aborted": 3}
        db.reset_stats()
        assert outcomes() == {"committed": 0, "aborted": 0}

    def test_prometheus_export_covers_database_state(self):
        db, view = build_figure3_database()
        populate_students(db, 2)
        view.add_attribute("register", to="Student", domain="str")
        text = db.obs.metrics.to_prometheus()
        assert "tse_objects 2" in text
        assert "tse_schema_changes_applied_total 1" in text
        assert "tse_pages_page_reads" in text
