"""Tests for the mergeable metrics registry (repro.obs.metrics)."""

import json
import threading

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    assert_snapshot_schema,
    empty_snapshot,
    global_registry,
    merge_snapshots,
    subtract_snapshots,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_legacy_settable_value(self):
        # The SolveStats/CacheStats views rely on value being settable.
        counter = MetricsRegistry().counter("x")
        counter.value = 7
        counter.value += 1
        assert counter.value == 8
        counter.reset()
        assert counter.value == 0

    def test_same_name_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("n") is registry.counter("n")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError):
            registry.gauge("n")

    def test_shared_lock_group(self):
        registry = MetricsRegistry()
        lock = threading.Lock()
        a = registry.counter("a", lock=lock)
        b = registry.counter("b", lock=lock)
        with lock:
            a.inc_held(2)
            b.inc_held(3)
        assert (a.value, b.value) == (2, 3)
        # The same lock (or none) finds the counter; another lock cannot
        # claim to guard it.
        assert registry.counter("a", lock=lock) is a
        assert registry.counter("a") is a
        with pytest.raises(ValueError, match="another lock"):
            registry.counter("a", lock=threading.Lock())


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3.0)
        gauge.add(1.5)
        assert gauge.value == 4.5


class TestHistogram:
    def test_bucket_edges_inclusive_upper(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        # Values exactly on an edge land in that edge's bin.
        for value in (0.5, 1.0, 2.0, 5.0, 6.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1, 1]  # (<=1, <=2, <=5, overflow)
        assert hist.count == 5
        assert hist.sum == pytest.approx(14.5)
        assert hist.mean == pytest.approx(14.5 / 5)

    def test_increasing_edges_accepted(self):
        hist = MetricsRegistry().histogram(
            "ok", buckets=(0.001, 0.01, 0.1, 1.0))
        assert hist.counts == [0, 0, 0, 0, 0]

    def test_non_increasing_edges_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("bad2", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("bad3", buckets=())

    def test_merge_requires_equal_edges(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots(a.snapshot(), b.snapshot())


class TestSnapshot:
    def test_schema_and_determinism(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.02)
        snapshot = registry.snapshot()
        assert_snapshot_schema(snapshot)
        assert snapshot["schema"] == METRICS_SCHEMA_VERSION
        # Identical registries snapshot identically — no timestamps,
        # hostnames or uptime may leak in (diffability contract).
        other = MetricsRegistry()
        other.counter("c").inc(3)
        other.gauge("g").set(1.5)
        other.histogram("h").observe(0.02)
        assert snapshot == other.snapshot()
        # And it is plain JSON data.
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_wallclock_keys_rejected(self):
        bad = dict(empty_snapshot(), created=123.0)
        with pytest.raises(AssertionError):
            assert_snapshot_schema(bad)

    def test_merge_associative(self):
        snapshots = []
        for k in range(3):
            registry = MetricsRegistry()
            registry.counter("c").inc(k + 1)
            registry.gauge("g").set(float(k))
            hist = registry.histogram("h", buckets=(0.5, 1.0))
            # Exact binary fractions keep float addition associative.
            hist.observe(0.25 * (k + 1))
            snapshots.append(registry.snapshot())
        a, b, c = snapshots
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right
        assert left["counters"]["c"] == 6
        assert left["histograms"]["h"]["count"] == 3

    def test_empty_snapshot_is_merge_identity(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert merge_snapshots(snap, empty_snapshot()) == snap
        assert merge_snapshots(empty_snapshot(), snap) == snap

    def test_subtract_is_the_delta(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(0.5)
        before = registry.snapshot()
        registry.counter("c").inc(5)
        registry.counter("new").inc(1)
        registry.histogram("h").observe(1.5)
        delta = subtract_snapshots(registry.snapshot(), before)
        assert_snapshot_schema(delta)
        assert delta["counters"] == {"c": 5, "new": 1}
        assert delta["histograms"]["h"]["count"] == 1
        # Applying the delta to 'before' reproduces 'after'.
        assert merge_snapshots(before, delta) == registry.snapshot()

    def test_subtract_drops_zero_counters(self):
        registry = MetricsRegistry()
        registry.counter("idle").inc(3)
        before = registry.snapshot()
        delta = subtract_snapshots(registry.snapshot(), before)
        assert delta["counters"] == {}

    def test_registry_merge_creates_missing_metrics(self):
        worker = MetricsRegistry()
        worker.counter("w.only").inc(4)
        worker.histogram("w.h", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.merge(worker.snapshot())
        assert parent.counter("w.only").value == 4
        assert parent.get("w.h").count == 1


class TestThreadSafety:
    def test_concurrent_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        hist = registry.histogram("lat", buckets=(0.5,))
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                counter.inc()
                hist.observe(0.1)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread
        assert hist.count == n_threads * per_thread
        assert hist.counts[0] == n_threads * per_thread


def test_global_registry_is_shared():
    assert global_registry() is global_registry()
