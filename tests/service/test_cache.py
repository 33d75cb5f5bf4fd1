"""Tests for the two-tier content-addressed result cache."""

import json
import os

import pytest

from repro.service.cache import ResultCache

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, {"v": 1})
        assert cache.get(KEY_A) == {"v": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_memory_entries=2)
        cache.put(KEY_A, {"v": "a"})
        cache.put(KEY_B, {"v": "b"})
        cache.get(KEY_A)                 # A is now most recently used
        cache.put(KEY_C, {"v": "c"})     # evicts B
        assert cache.get(KEY_B) is None
        assert cache.get(KEY_A) == {"v": "a"}
        assert cache.stats.evictions == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_memory_entries=0)


class TestDiskTier:
    def test_layout_is_sharded_by_prefix(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(KEY_A, {"v": 1})
        expected = tmp_path / "objects" / KEY_A[:2] / f"{KEY_A}.json"
        assert expected.exists()
        assert json.loads(expected.read_text()) == {"v": 1}

    def test_persists_across_instances(self, tmp_path):
        ResultCache(str(tmp_path)).put(KEY_A, {"v": 42})
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(KEY_A) == {"v": 42}
        assert fresh.stats.disk_hits == 1
        # The disk hit is promoted into the memory tier.
        assert fresh.get(KEY_A) == {"v": 42}
        assert fresh.stats.memory_hits == 1

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_memory_entries=1)
        cache.put(KEY_A, {"v": "a"})
        cache.put(KEY_B, {"v": "b"})     # evicts A from memory only
        assert len(cache) == 1
        assert cache.get(KEY_A) == {"v": "a"}
        assert cache.stats.disk_hits == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(KEY_A, {"v": 1})
        path = tmp_path / "objects" / KEY_A[:2] / f"{KEY_A}.json"
        path.write_text("{truncated")
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(KEY_A) is None
        assert fresh.stats.misses == 1

    def test_disk_entries_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(KEY_A, {"v": 1})
        cache.put(KEY_B, {"v": 2})
        assert cache.disk_entries() == 2
        cache.clear(disk=True)
        assert cache.disk_entries() == 0
        assert cache.get(KEY_A) is None

    def test_contains_checks_both_tiers(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_memory_entries=1)
        cache.put(KEY_A, {"v": 1})
        cache.put(KEY_B, {"v": 2})
        assert cache.contains(KEY_A) and cache.contains(KEY_B)
        assert not cache.contains(KEY_C)
        # contains() must not skew the hit/miss statistics.
        assert cache.stats.lookups == 0


class TestStats:
    def test_hit_rate(self):
        cache = ResultCache()
        assert cache.stats.hit_rate == 0.0
        cache.put(KEY_A, {})
        cache.get(KEY_A)
        cache.get(KEY_B)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        data = cache.stats.as_dict()
        assert data["hits"] == 1 and data["hit_rate"] == pytest.approx(0.5)


TANK_NETLIST = """tank standard
R1 tank 0 1k
L1 tank 0 1m
C1 tank 0 1n
Vref vref 0 DC 1 AC 1
Rtie vref tank 1G
.end
"""


class TestSchemaInvalidation:
    def test_schema_5_disk_entry_misses(self, tmp_path, monkeypatch):
        # Schema 6 moved every refined peak onto the closed-form minimum
        # of eq. 1.3, so a schema-5 verdict on disk must never be served.
        from repro.service import requests as requests_module
        from repro.service import AnalysisRequest, StabilityService

        with monkeypatch.context() as patch:
            patch.setattr(requests_module, "REQUEST_SCHEMA_VERSION", 5)
            old_key = AnalysisRequest(mode="all-nodes",
                                      netlist=TANK_NETLIST).fingerprint()
        service = StabilityService(cache_directory=str(tmp_path),
                                   backend="serial")
        try:
            request = AnalysisRequest(mode="all-nodes", netlist=TANK_NETLIST)
            assert request.fingerprint() != old_key
            stale = service.submit(request).to_dict()
            stale["result"]["results"][0]["performance_index"] = -99.0
            service.cache.clear()
            ResultCache(str(tmp_path)).put(old_key, stale)
            assert service.cache.disk_entries() == 1
            fresh = service.submit(AnalysisRequest(mode="all-nodes",
                                                   netlist=TANK_NETLIST))
            assert fresh.ok and not fresh.cached
            assert fresh.result["results"][0]["performance_index"] != -99.0
        finally:
            service.close()
