"""Tests for the content-addressed stage cache (runner/cache.py)."""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import SegmentationPipeline
from repro.csp.segmenter import CspConfig
from repro.runner.cache import StageCache, fingerprint
from repro.sitegen.corpus import build_site


@dataclass(frozen=True)
class _Knobs:
    threshold: float = 0.5
    tags: frozenset = frozenset({"a", "b"})


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint("x", 1, [2, 3]) == fingerprint("x", 1, [2, 3])

    def test_type_tags_distinguish_lookalikes(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint(None) != fingerprint("None")

    def test_container_shape_matters(self):
        assert fingerprint([1, 2]) != fingerprint([2, 1])
        assert fingerprint([1, 2]) != fingerprint([[1], [2]])

    def test_set_order_independent(self):
        # Iteration order of sets is hash-randomized across processes;
        # the fingerprint must not depend on it.
        assert fingerprint(frozenset("abcdef")) == fingerprint(
            frozenset("fedcba")
        )
        assert fingerprint({"x": 1, "y": 2}) == fingerprint({"y": 2, "x": 1})

    def test_dataclass_fields_matter(self):
        assert fingerprint(_Knobs()) == fingerprint(_Knobs())
        assert fingerprint(_Knobs()) != fingerprint(_Knobs(threshold=0.6))
        assert fingerprint(_Knobs()) != fingerprint(
            _Knobs(tags=frozenset({"a"}))
        )

    def test_pipeline_config_stable(self):
        assert fingerprint(PipelineConfig()) == fingerprint(PipelineConfig())

    def test_nested_config_change_changes_key(self):
        base = PipelineConfig()
        tweaked = PipelineConfig(csp=CspConfig(seed=999))
        assert fingerprint(base) != fingerprint(tweaked)


class TestStageCache:
    def test_miss_then_hit(self, tmp_path):
        cache = StageCache(tmp_path)
        key = fingerprint("k")
        assert cache.get("s", key) == (False, None)
        assert cache.put("s", key, 42) == 42
        assert cache.get("s", key) == (True, 42)  # no recompute
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_different_parts_different_entries(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.put("s", fingerprint("a"), "A")
        cache.put("s", fingerprint("b"), "B")
        assert cache.get("s", fingerprint("a")) == (True, "A")
        assert cache.get("s", fingerprint("b")) == (True, "B")

    def test_stage_namespaces_are_disjoint(self, tmp_path):
        cache = StageCache(tmp_path)
        key = fingerprint("k")
        cache.put("s1", key, 1)
        assert cache.get("s2", key) == (False, None)
        cache.put("s2", key, 2)
        assert cache.get("s1", key) == (True, 1)
        assert cache.get("s2", key) == (True, 2)

    def test_corrupted_entry_detected_and_recomputed(self, tmp_path):
        cache = StageCache(tmp_path)
        key = fingerprint("k")
        cache.put("s", key, {"v": 1})
        (entry,) = list((tmp_path / "s").rglob("*.bin"))
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte -> checksum mismatch
        entry.write_bytes(bytes(blob))

        fresh = StageCache(tmp_path)
        # The damaged entry is never trusted: a miss, not a load.
        assert fresh.get("s", key) == (False, None)
        assert fresh.stats.corrupt == 1 and fresh.stats.misses == 1
        fresh.put("s", key, {"v": 2})
        # ...and the rewritten entry is healthy again.
        assert StageCache(tmp_path).get("s", key) == (True, {"v": 2})

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        key = fingerprint("k")
        cache.put("s", key, "value")
        (entry,) = list((tmp_path / "s").rglob("*.bin"))
        entry.write_bytes(entry.read_bytes()[:10])
        assert StageCache(tmp_path).get("s", key) == (False, None)

    def test_store_failure_degrades_to_uncached(self, tmp_path):
        # A full or failing disk costs the cache entry, never the
        # computed value: put still returns the result.
        cache = StageCache(tmp_path)

        def broken_store(stage, key, value):
            raise OSError(28, "No space left on device")

        cache.store = broken_store
        key = fingerprint("k")
        assert cache.put("s", key, "value") == "value"
        assert cache.stats.store_errors == 1
        # Nothing was written; the next lookup misses.
        assert StageCache(tmp_path).get("s", key) == (False, None)


class TestEviction:
    """Size-bounded (``max_bytes``) LRU behavior."""

    @staticmethod
    def _age(cache, stage, key, age_s):
        """Backdate an entry's mtime so LRU order is deterministic."""
        path = cache._path(stage, key)
        stamp = path.stat().st_mtime - age_s
        os.utime(path, (stamp, stamp))

    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            StageCache(tmp_path, max_bytes=0)
        StageCache(tmp_path, max_bytes=1)  # minimum accepted

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = StageCache(tmp_path)
        for index in range(20):
            cache.store("s", fingerprint(index), b"x" * 512)
        assert len(cache._entries()) == 20
        assert cache.stats.evictions == 0

    def test_oldest_entries_evicted_first(self, tmp_path):
        # Entries are ~560 bytes each (checksum + pickled payload);
        # a 2000-byte budget holds three of them.
        cache = StageCache(tmp_path, max_bytes=2000)
        keys = [fingerprint(index) for index in range(4)]
        for age, key in zip((30, 20, 10), keys[:3]):
            cache.store("s", key, b"x" * 512)
            self._age(cache, "s", key, age)
        cache.store("s", keys[3], b"x" * 512)
        found = [cache.load("s", key)[0] for key in keys]
        # keys[0] (the oldest) was evicted to make room for keys[3].
        assert found == [False, True, True, True]
        assert cache.stats.evictions == 1
        assert cache.total_bytes() <= 2000

    def test_hit_refreshes_recency(self, tmp_path):
        cache = StageCache(tmp_path, max_bytes=2000)
        keys = [fingerprint(index) for index in range(4)]
        for age, key in zip((30, 20, 10), keys[:3]):
            cache.store("s", key, b"x" * 512)
            self._age(cache, "s", key, age)
        # Touch the oldest entry: the load bumps its mtime, so the
        # next eviction takes keys[1] instead.
        assert cache.load("s", keys[0]) == (True, b"x" * 512)
        cache.store("s", keys[3], b"x" * 512)
        found = [cache.load("s", key)[0] for key in keys]
        assert found == [True, False, True, True]

    def test_budget_smaller_than_one_entry(self, tmp_path):
        cache = StageCache(tmp_path, max_bytes=64)
        key = fingerprint("big")
        cache.store("s", key, b"x" * 4096)
        # Even the just-written entry goes when it alone busts the
        # budget: a bounded cache never grows past its bound.
        assert cache.load("s", key) == (False, None)
        assert cache.stats.evictions == 1

    def test_evictions_metric_booked(self, tmp_path):
        from repro.obs import MetricsRegistry, Observability

        metrics = MetricsRegistry()
        cache = StageCache(
            tmp_path,
            obs=Observability(metrics=metrics, keep_spans=False),
            max_bytes=1200,
        )
        for index in range(4):
            cache.store("s", fingerprint(index), b"x" * 512)
        counters = metrics.as_dict()["counters"]
        assert counters["runner.cache.evictions"] == cache.stats.evictions
        assert cache.stats.evictions >= 2

    def test_put_respects_budget(self, tmp_path):
        cache = StageCache(tmp_path, max_bytes=2000)
        for index in range(10):
            cache.put("s", fingerprint(index), b"x" * 512)
        assert cache.total_bytes() <= 2000
        assert cache.stats.evictions > 0


class TestPipelineCaching:
    @pytest.fixture()
    def site(self):
        return build_site("lee")

    def _run(self, site, cache):
        pipeline = SegmentationPipeline("csp", cache=cache)
        details = [
            site.detail_pages(i) for i in range(len(site.list_pages))
        ]
        return pipeline.segment_site(site.list_pages, details)

    @staticmethod
    def _content(run):
        return [
            (
                page_run.page.url,
                [str(r) for r in page_run.segmentation.records],
                [
                    o.extract.text
                    for o in page_run.segmentation.unassigned
                ],
                dict(page_run.segmentation.meta),
            )
            for page_run in run.pages
        ]

    def test_cold_and_warm_runs_identical(self, tmp_path, site):
        cold = self._run(site, StageCache(tmp_path))
        warm_cache = StageCache(tmp_path)
        warm = self._run(site, warm_cache)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits > 0
        assert self._content(cold) == self._content(warm)
        # Byte-identical content fingerprints, not just equal shapes.
        assert fingerprint(self._content(cold)) == fingerprint(
            self._content(warm)
        )

    def test_page_mutation_changes_keys(self, tmp_path, site):
        cache = StageCache(tmp_path)
        self._run(site, cache)
        mutated = build_site("lee")
        mutated.list_pages[0].html += "<!-- one byte more -->"
        mutated.list_pages[0].invalidate_cache()
        second = StageCache(tmp_path)
        self._run(mutated, second)
        # Page-0 stages recompute; page-1's extracts may still hit.
        assert second.stats.misses > 0

    def test_method_config_sweep_reuses_upstream(self, tmp_path, site):
        self._run(site, StageCache(tmp_path))
        sweep_cache = StageCache(tmp_path)
        pipeline = SegmentationPipeline(
            "csp",
            PipelineConfig(csp=CspConfig(seed=7)),
            cache=sweep_cache,
        )
        details = [
            site.detail_pages(i) for i in range(len(site.list_pages))
        ]
        pipeline.segment_site(site.list_pages, details)
        # Template / extracts / observations hit; only the
        # segmentation stage (whose config changed) recomputes.
        assert sweep_cache.stats.hits > 0
        assert 0 < sweep_cache.stats.misses <= len(site.list_pages)
