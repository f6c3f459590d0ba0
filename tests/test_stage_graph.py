"""Tests for the pipeline's stages (core/pipeline.py, core/stages.py).

Three layers:

* the stage chain as the pipeline runs it: which cache entries a cold,
  warm or re-keyed run reads, and in what order;
* the *Merkle key* tests: a golden digest per stage over fixed tiny
  inputs pins the on-disk entry names, and changing one input changes
  exactly the keys of the stages downstream of it.  Every key is the
  one the pipeline passes to ``cache.get``, seen through a recording
  cache;
* the degradation ladder: every fallback of the template and segment
  steps produces the meta and health fallbacks it always did.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.pipeline
from repro.core.config import PipelineConfig
from repro.core.exceptions import (
    CspError,
    EmptyProblemError,
    InferenceError,
    TemplateNotFoundError,
)
from repro.core.pipeline import SegmentationPipeline, bind_token_cache
from repro.core.stages import CACHE_SCHEMA, stage_key
from repro.crawl.resilient import CrawlHealth
from repro.csp.segmenter import CspConfig
from repro.extraction.matching import MatchOptions
from repro.obs import ManualClock, Observability
from repro.relational.detail_fields import detail_field_pairs
from repro.runner.cache import MemoryStageCache, StageCache, fingerprint
from repro.sitegen.corpus import build_site
from repro.template.finder import TemplateFinder
from repro.webdoc.page import Page


class RecordingCache:
    """A stage cache that records every lookup made through it.

    ``reads`` lists ``(stage, key, found)`` in call order; entries live
    in ``inner``, which several recorders may share.
    """

    def __init__(self, inner: MemoryStageCache | None = None) -> None:
        self.inner = inner if inner is not None else MemoryStageCache()
        self.reads: list[tuple[str, str, bool]] = []

    def get(self, stage: str, key: str):
        found, value = self.inner.get(stage, key)
        self.reads.append((stage, key, found))
        return found, value

    def put(self, stage: str, key: str, value):
        return self.inner.put(stage, key, value)

    def lookups(self) -> list[tuple[str, bool]]:
        return [(stage, found) for stage, _, found in self.reads]


class _Raising:
    def __init__(self, error):
        self.error = error

    def segment(self, table):
        raise self.error


def _lee():
    site = build_site("lee")
    return site, [site.detail_pages(i) for i in range(len(site.list_pages))]


class TestStageChain:
    """The order and extent of the cache reads the pipeline makes."""

    def test_cold_page_runs_its_chain_in_order(self):
        site, details = _lee()
        cache = RecordingCache()
        obs = Observability(clock=ManualClock(tick=1.0))
        SegmentationPipeline("csp", obs=obs, cache=cache).segment_site(
            site.list_pages, details
        )
        # ``segment`` is looked up first; each miss reads one stage up.
        page_reads = [("segment", False), ("observations", False), ("extracts", False)]
        assert cache.lookups() == [("template", False)] + page_reads * len(
            site.list_pages
        )
        for page_span in obs.tracer.find("pipeline.page"):
            assert [child.name for child in page_span.children] == [
                "pipeline.extracts",
                "pipeline.observations",
                "pipeline.segment",
            ]

    def test_method_change_reads_only_what_missed(self):
        site, details = _lee()
        entries = MemoryStageCache()
        SegmentationPipeline("csp", cache=entries).segment_site(
            site.list_pages, details
        )
        cache = RecordingCache(entries)
        SegmentationPipeline("prob", cache=cache).segment_site(
            site.list_pages, details
        )
        # The method is part of the segment key only: the prob run's
        # segment misses and reads the csp run's observations; no
        # extracts entry is read.
        assert cache.lookups() == [("template", True)] + [
            ("segment", False),
            ("observations", True),
        ] * len(site.list_pages)

    def test_template_found_once_per_site(self, monkeypatch):
        site, details = _lee()
        calls: list[int] = []
        find = TemplateFinder.find

        def counted_find(self, pages):
            calls.append(len(pages))
            return find(self, pages)

        monkeypatch.setattr(TemplateFinder, "find", counted_find)
        pipeline = SegmentationPipeline("csp")
        pipeline.segment_site(site.list_pages, details)
        assert calls == [len(site.list_pages)]
        pipeline.segment_site(site.list_pages, details)
        assert calls == [len(site.list_pages)] * 2


class TestStageGraphStructure:
    """How far a cache hit on one stage reaches up the chain."""

    def test_hit_resolves_no_dependency(self, monkeypatch):
        site, details = _lee()
        entries = MemoryStageCache()
        cold_run = SegmentationPipeline("csp", cache=entries).segment_site(
            site.list_pages, details
        )
        warm = SegmentationPipeline(
            "csp",
            obs=Observability(clock=ManualClock(tick=1.0)),
            cache=RecordingCache(entries),
        )
        # Nothing upstream of a hit is computed.
        monkeypatch.setattr(
            TemplateFinder, "find", lambda self, pages: pytest.fail("template")
        )
        monkeypatch.setattr(
            repro.core.pipeline,
            "extract_strings",
            lambda *args: pytest.fail("extracts"),
        )
        monkeypatch.setattr(
            repro.core.pipeline.ObservationTable,
            "build",
            staticmethod(lambda *args, **kwargs: pytest.fail("observations")),
        )
        monkeypatch.setattr(warm, "_make_segmenter", lambda: pytest.fail("segment"))
        warm_run = warm.segment_site(site.list_pages, details)
        # Nor is any upstream entry read.
        assert warm.cache.lookups() == [("template", True)] + [
            ("segment", True)
        ] * len(site.list_pages)
        assert [page.segmentation.records for page in warm_run.pages] == [
            page.segmentation.records for page in cold_run.pages
        ]
        for page_span in warm.obs.tracer.find("pipeline.page"):
            assert [child.name for child in page_span.children] == [
                "pipeline.segment"
            ]
        counters = warm.obs.metrics.as_dict()["counters"]
        assert "pipeline.extracts" not in counters
        assert "pipeline.observations" not in counters
        assert counters["pipeline.records"] == sum(
            len(page.segmentation.records) for page in warm_run.pages
        )


class TestDegradationLadder:
    """The template and segment fallbacks, seen from ``segment_site``."""

    def test_condition_preempts_compute(self, monkeypatch):
        # A single list page never reaches template induction.
        site, details = _lee()
        monkeypatch.setattr(
            TemplateFinder,
            "find",
            lambda self, pages: pytest.fail("must not induce a template"),
        )
        health = CrawlHealth()
        run = SegmentationPipeline("csp").segment_site(
            site.list_pages[:1], details[:1], crawl_health=health
        )
        assert not run.template_verdict.ok
        assert health.fallbacks == ["single_list_page"]
        cached = SegmentationPipeline("csp", cache=MemoryStageCache())
        assert not cached.segment_site(
            site.list_pages[:1], details[:1]
        ).template_verdict.ok

    def test_exception_rungs_match_in_order(self, monkeypatch):
        site, details = _lee()
        for method, error, meta in (
            ("csp", EmptyProblemError("nothing"), {"empty_problem": True}),
            ("prob", InferenceError("zero mass"), {"segmenter_error": "zero mass"}),
        ):
            pipeline = SegmentationPipeline(method)
            monkeypatch.setattr(
                pipeline, "_make_segmenter", lambda error=error: _Raising(error)
            )
            run = pipeline.segment_site(site.list_pages, details)
            for page_run in run.pages:
                assert page_run.segmentation.records == []
                assert {
                    name: value
                    for name, value in page_run.segmentation.meta.items()
                    if name in ("empty_problem", "segmenter_error")
                } == meta, method

    def test_unmatched_exception_propagates(self, monkeypatch):
        site, details = _lee()
        pipeline = SegmentationPipeline("csp")
        monkeypatch.setattr(
            pipeline, "_make_segmenter", lambda: _Raising(RuntimeError("real bug"))
        )
        with pytest.raises(RuntimeError, match="real bug"):
            pipeline.segment_site(site.list_pages, details)

    def test_unlabelled_rung_leaves_health_alone(self, monkeypatch):
        # Segment-level fallbacks annotate the page, not the crawl.
        site, details = _lee()
        for error in (EmptyProblemError("nothing"), CspError("unsatisfiable")):
            pipeline = SegmentationPipeline("csp")
            monkeypatch.setattr(
                pipeline, "_make_segmenter", lambda error=error: _Raising(error)
            )
            health = CrawlHealth()
            run = pipeline.segment_site(
                site.list_pages, details, crawl_health=health
            )
            assert all(not page.segmentation.records for page in run.pages)
            assert health.fallbacks == []

    def test_degraded_result_is_cached(self, monkeypatch):
        site, details = _lee()
        cache = MemoryStageCache()
        cold = SegmentationPipeline("csp", cache=cache)
        monkeypatch.setattr(
            cold, "_make_segmenter", lambda: _Raising(CspError("unsatisfiable"))
        )
        cold_run = cold.segment_site(site.list_pages, details)
        warm = SegmentationPipeline("csp", cache=cache)
        monkeypatch.setattr(
            warm,
            "_make_segmenter",
            lambda: pytest.fail("a cached degraded page must not re-segment"),
        )
        warm_run = warm.segment_site(site.list_pages, details)
        for cold_page, warm_page in zip(cold_run.pages, warm_run.pages):
            assert warm_page.segmentation.records == []
            assert warm_page.segmentation.meta == cold_page.segmentation.meta
            assert warm_page.segmentation.meta["segmenter_error"] == "unsatisfiable"


def _key_inputs(
    method="csp",
    config=None,
    list_html="<ul><li>Ann</li><li>Bob</li></ul>",
    detail_html="<p>Name: Ann</p>",
):
    """Every stage key input for a fixed two-list-page, one-detail site."""
    return (
        method,
        config or PipelineConfig(),
        [Page("l0.html", list_html), Page("l1.html", "<ul><li>Cy</li></ul>")],
        [Page("r0.html", detail_html)],
    )


def _stage_keys(method, config, list_pages, details):
    """The key of each stage, as the pipeline passes it to ``cache.get``.

    A cold cached run over the site (``details`` for list page 0, none
    for the others), then one ``detail_fields`` parse of ``details``.
    The page stages' first reads are list page 0's.  ``tokenize`` is
    keyed once per page, by URL.
    """
    list_pages = [Page(page.url, page.html) for page in list_pages]
    details = [Page(page.url, page.html) for page in details]
    cache = RecordingCache()
    token_reads = {}
    for page in list_pages[:1] + details:
        token_reads[page.url] = RecordingCache(cache.inner)
        bind_token_cache([page], token_reads[page.url])
    pipeline = SegmentationPipeline(method, config, cache=cache)
    pipeline.segment_site(list_pages, [details] + [[]] * (len(list_pages) - 1))
    pipeline.detail_fields(details)
    keys: dict[str, str] = {}
    for stage, key, _ in cache.reads:
        keys.setdefault(stage, key)
    for url, recorder in token_reads.items():
        ((stage, key, _),) = recorder.reads
        keys[f"{stage} {url}"] = key
    return keys


#: The keys of ``_stage_keys(*_key_inputs())``: the on-disk entry
#: names.  They change with ``CACHE_SCHEMA``, the key rule, or the
#: fields of a config class a key covers.
GOLDEN_KEYS = {
    "template": "b52f0a3d50a4c8623f9dcbb9d313bf721d186f152b36d80984ce427bcd46dd6f",
    "extracts": "1d3e691d1746e3cd1a9d1713d3115427dea55828825fb44a78ccac0eaab75c3d",
    "observations": "c6b8e5943b622b42d37d1ee0446e82d96d9237db28a0acc861e29327197e29f1",
    "segment": "2196302e349a8e4d2159c33a5d59328848a82bb38d3eaed519890583f074534a",
    "detail_fields": "798e48f3a56e735fc4ebf9ec1c725234534c853d52afd3379fb9eb65f356ab80",
    "tokenize l0.html": "7958f5b0d9eb1eec581eaf3c6e7b328e745906536480a9382f302e6d69735e22",
    "tokenize r0.html": "f68d227d32c14844b2a142ef5497c2c7c98c8ef32ca0985c6039d635e0277d55",
}

#: One input changed at a time → exactly the stage keys downstream of it.
DOWNSTREAM = [
    (
        "list page",
        _key_inputs(list_html="<ul><li>Ann</li><li>Di</li></ul>"),
        {"tokenize l0.html", "template", "extracts", "observations", "segment"},
    ),
    (
        "detail page",
        _key_inputs(detail_html="<p>Name: Bo</p>"),
        {"tokenize r0.html", "observations", "segment", "detail_fields"},
    ),
    (
        "allowed_punct",
        _key_inputs(
            config=PipelineConfig(
                allowed_punct=frozenset(".,"),
                match=MatchOptions(allowed_punct=frozenset(".,")),
            )
        ),
        {"extracts", "observations", "segment", "detail_fields"},
    ),
    (
        "MatchOptions",
        _key_inputs(config=PipelineConfig(match=MatchOptions(casefold=True))),
        {"observations", "segment"},
    ),
    (
        "CspConfig",
        _key_inputs(config=PipelineConfig(csp=CspConfig(seed=7))),
        {"segment"},
    ),
    ("method", _key_inputs(method="prob"), {"segment"}),
]


class TestGoldenKeyParity:
    """Stage keys chain their dependencies' keys (a Merkle hash)."""

    @pytest.fixture()
    def site(self):
        return build_site("lee")

    def test_golden_key_per_stage(self):
        assert _stage_keys(*_key_inputs()) == GOLDEN_KEYS

    @pytest.mark.parametrize(
        "changed, inputs, downstream",
        DOWNSTREAM,
        ids=[row[0] for row in DOWNSTREAM],
    )
    def test_one_input_changes_exactly_its_downstream_keys(
        self, changed, inputs, downstream
    ):
        base = _stage_keys(*_key_inputs())
        keys = _stage_keys(*inputs)
        assert base.keys() == keys.keys()
        assert {stage for stage in keys if keys[stage] != base[stage]} == (
            downstream
        ), changed

    def test_key_chains_dependency_keys(self, monkeypatch):
        method, config, list_pages, details = _key_inputs()
        hashed: Counter[str] = Counter()

        def counted_stage_key(name, *args):
            hashed[name] += 1
            return stage_key(name, *args)

        monkeypatch.setattr(repro.core.pipeline, "stage_key", counted_stage_key)
        keys = _stage_keys(method, config, list_pages, details)
        assert keys["segment"] == fingerprint(
            "segment", CACHE_SCHEMA, [keys["observations"]], method, config.csp
        )
        assert keys["observations"] == fingerprint(
            "observations",
            CACHE_SCHEMA,
            [keys["extracts"]],
            [page.html for page in details],
            config.match,
        )
        assert keys["extracts"] == fingerprint(
            "extracts", CACHE_SCHEMA, [keys["template"]], 0, config.allowed_punct
        )
        # Each key is hashed once: the template once per site, the
        # page chain once per list page, tokenize once per bound page.
        assert hashed == {
            "template": 1,
            "extracts": 2,
            "observations": 2,
            "segment": 2,
            "detail_fields": 1,
            "tokenize": 2,
        }

    def test_no_key_hashed_without_a_cache(self, monkeypatch, site):
        hashed: list[tuple] = []
        monkeypatch.setattr(
            repro.core.pipeline, "stage_key", lambda *args: hashed.append(args)
        )
        pipeline = SegmentationPipeline("csp")
        pipeline.segment_site(
            site.list_pages,
            [site.detail_pages(i) for i in range(len(site.list_pages))],
        )
        pipeline.detail_fields(site.detail_pages(0))
        bind_token_cache(site.list_pages, None)
        assert hashed == []

    def test_detail_fields_key_material_golden(self, site):
        """``detail_fields`` keys on detail-page bytes + punctuation only.

        No upstream keys: the entry is shared by every method and every
        template/match/segmenter setting, and the digest below pins the
        on-disk entry name for fixed inputs.
        """
        config = PipelineConfig()

        def read_key(details):
            cache = RecordingCache()
            SegmentationPipeline("csp", config, cache=cache).detail_fields(details)
            ((stage, key, _),) = cache.reads
            assert stage == "detail_fields"
            return key

        details = site.detail_pages(0)
        assert read_key(details) == fingerprint(
            "detail_fields",
            CACHE_SCHEMA,
            [],
            [page.html for page in details],
            config.allowed_punct,
        )
        fixed = [
            Page("r0.html", "<p>Name: Ann</p>"),
            Page("r1.html", "<p>Name: Bob</p>"),
        ]
        assert read_key(fixed) == (
            "b2a972aaff8e5eaf9271e275a72c2c65a95bded4198c6d95db5ecee4d72dd4e7"
        )

    def test_detail_fields_stage_is_the_relational_parse(self, tmp_path, site):
        details = site.detail_pages(0)
        expected = detail_field_pairs(details)
        cold = SegmentationPipeline("csp", cache=StageCache(tmp_path))
        assert cold.detail_fields(details) == expected
        warm_cache = StageCache(tmp_path)
        warm = SegmentationPipeline("csp", cache=warm_cache)
        fresh = [Page(page.url, page.html) for page in details]
        assert warm.detail_fields(fresh) == expected
        assert (warm_cache.stats.hits, warm_cache.stats.misses) == (1, 0)
        # A cache hit never tokenizes the detail pages.
        assert all(page._tokens is None for page in fresh)

    def test_warm_site_reads_one_entry_per_output(self, tmp_path, site):
        details = [site.detail_pages(i) for i in range(len(site.list_pages))]
        cold = SegmentationPipeline("csp", cache=StageCache(tmp_path))
        cold_run = cold.segment_site(site.list_pages, details)
        warm_cache = StageCache(tmp_path)
        obs = Observability(clock=ManualClock(tick=1.0))
        warm = SegmentationPipeline("csp", obs=obs, cache=warm_cache)
        warm_run = warm.segment_site(site.list_pages, details)
        # One template entry, then one segment entry per list page.
        pages = len(site.list_pages)
        assert (warm_cache.stats.hits, warm_cache.stats.misses) == (
            1 + pages,
            0,
        )
        for cold_page, warm_page in zip(cold_run.pages, warm_run.pages):
            assert warm_page.segmentation.records == cold_page.segmentation.records
            assert warm_page.table is warm_page.segmentation.table
        for page_span in obs.tracer.find("pipeline.page"):
            assert [child.name for child in page_span.children] == [
                "pipeline.segment"
            ]
        counters = obs.metrics.as_dict()["counters"]
        assert "pipeline.extracts" not in counters
        assert "pipeline.observations" not in counters


class TestTokenBinding:
    def test_tokens_load_through_the_cache_on_first_use(self, tmp_path):
        html = build_site("lee").list_pages[0].html
        cold_cache = StageCache(tmp_path)
        cold = Page("a.html", html)
        bind_token_cache([cold], cold_cache)
        assert cold_cache.stats.misses == 0  # binding reads nothing
        assert cold.tokens() == Page("a.html", html).tokens()
        assert (cold_cache.stats.hits, cold_cache.stats.misses) == (0, 1)

        warm_cache = StageCache(tmp_path)
        warm = Page("a.html", html)
        bind_token_cache([warm], warm_cache)
        assert warm.tokens() == cold.tokens()
        assert warm.tokens() is warm.tokens()
        assert (warm_cache.stats.hits, warm_cache.stats.misses) == (1, 0)

    def test_no_cache_binds_nothing(self):
        page = Page("a.html", "<b>hi</b>")
        bind_token_cache([page], None)
        assert page._token_source is None


class TestPipelineLadderAsData:
    """Each fallback's verdict, meta and health bookkeeping."""

    @pytest.mark.parametrize("method", ["csp", "prob"])
    def test_single_list_page_skips_induction(self, method):
        site = build_site("lee")
        health = CrawlHealth()
        run = SegmentationPipeline(method).segment_site(
            site.list_pages[:1],
            [site.detail_pages(0)],
            crawl_health=health,
        )
        assert not run.template_verdict.ok
        assert "only one list page" in run.template_verdict.reason
        assert health.fallbacks == ["single_list_page"]
        assert len(run.pages) == 1
        assert run.pages[0].segmentation.meta["whole_page"] is True
        assert run.pages[0].segmentation.meta["template_ok"] is False

    @pytest.mark.parametrize("method", ["csp", "prob"])
    def test_template_not_found_is_whole_page_rung(self, method, monkeypatch):
        site = build_site("lee")
        pipeline = SegmentationPipeline(method)

        def raise_not_found(pages):
            raise TemplateNotFoundError("sample too noisy")

        monkeypatch.setattr(pipeline._finder, "find", raise_not_found)
        health = CrawlHealth()
        run = pipeline.segment_site(
            site.list_pages,
            [site.detail_pages(i) for i in range(len(site.list_pages))],
            crawl_health=health,
        )
        assert run.whole_page_fallback
        assert "sample too noisy" in run.template_verdict.reason
        assert health.fallbacks == ["whole_page_template"]
        for page_run in run.pages:
            assert page_run.segmentation.meta["whole_page"] is True

    @pytest.mark.parametrize("method", ["csp", "prob"])
    def test_empty_sample_records_fallback(self, method):
        health = CrawlHealth()
        run = SegmentationPipeline(method).segment_site(
            [], [], crawl_health=health
        )
        assert run.pages == []
        assert not run.template_verdict.ok
        assert health.fallbacks == ["empty_sample"]

    def test_segmenter_csp_error_becomes_unsegmented_page(self, monkeypatch):
        site = build_site("lee")
        pipeline = SegmentationPipeline("csp")
        monkeypatch.setattr(
            pipeline,
            "_make_segmenter",
            lambda: _Raising(CspError("unsatisfiable at every relaxation")),
        )
        run = pipeline.segment_generated_site(site)
        for page_run in run.pages:
            assert page_run.segmentation.records == []
            assert (
                "unsatisfiable at every relaxation"
                in page_run.segmentation.meta["segmenter_error"]
            )


class TestMemoryStageCache:
    def test_round_trip_isolates_values(self):
        cache = MemoryStageCache()
        key = fingerprint("k")
        assert cache.get("s", key) == (False, None)
        stored = cache.put("s", key, {"v": [1]})
        stored["v"].append(2)  # mutating a returned value...
        found, again = cache.get("s", key)
        assert found and again == {"v": [1]}  # ...never poisons the cache
        again["v"].append(3)
        assert cache.get("s", key) == (True, {"v": [1]})
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        assert len(cache) == 1
        assert cache.get("other", key) == (False, None)  # per-stage entries

    def test_method_sweep_shares_upstream_stages(self):
        site = build_site("lee")
        details = [
            site.detail_pages(i) for i in range(len(site.list_pages))
        ]
        cache = MemoryStageCache()
        for method in ("csp", "prob"):
            SegmentationPipeline(method, cache=cache).segment_site(
                site.list_pages, details
            )
        # tokenize/template/extracts/observations hit on the second
        # method; only its segment stage (method in the key) missed.
        assert cache.stats.hits > 0
        segment_misses = 2 * len(site.list_pages)  # one per method/page
        shared_misses = cache.stats.misses - segment_misses
        warm = MemoryStageCache()
        SegmentationPipeline("csp", cache=warm).segment_site(
            site.list_pages, details
        )
        assert shared_misses == warm.stats.misses - len(site.list_pages)
