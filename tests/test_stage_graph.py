"""Tests for the declarative stage graph (core/stages.py).

Three layers:

* unit tests of the generic contract (context layering, toposort,
  entry points, degradation ladders);
* the *golden key-parity* tests: the graph's chained cache-key
  material must equal — part for part, fingerprint for fingerprint —
  the hand-written tuples the pipeline passed to ``StageCache``
  before the refactor, and a cache primed old-style (legacy tuples,
  values computed by direct stage calls) must serve a graph-driven
  run with zero misses;
* the degradation ladder as data: every rung of the pipeline's
  template/segment ladders produces the same meta and health
  fallbacks the hand-written ladders did.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.exceptions import (
    CspError,
    EmptyProblemError,
    TemplateNotFoundError,
)
from repro.core.pipeline import (
    PIPELINE_GRAPH,
    SegmentationPipeline,
    bind_token_cache,
)
from repro.core.stages import Degradation, Stage, StageContext, StageGraph
from repro.crawl.resilient import CrawlHealth
from repro.csp.segmenter import CspSegmenter
from repro.extraction.extracts import extract_strings
from repro.extraction.observations import ObservationTable
from repro.relational.detail_fields import detail_field_pairs
from repro.runner.cache import MemoryStageCache, StageCache, fingerprint
from repro.sitegen.corpus import build_site
from repro.template.finder import TemplateFinder
from repro.template.table_slot import resolve_table_regions
from repro.webdoc.page import Page


class TestStageContext:
    def test_child_resolves_through_parent(self):
        parent = StageContext({"a": 1})
        child = parent.child(b=2)
        assert child["a"] == 1 and child["b"] == 2
        assert "a" in child and "b" in child and "c" not in child
        assert child.get("c", 9) == 9
        with pytest.raises(KeyError):
            child["c"]

    def test_set_binds_in_own_layer_only(self):
        parent = StageContext({"a": 1})
        child = parent.child()
        child.set("a", 2)
        assert child["a"] == 2 and parent["a"] == 1

    def test_health_inherited(self):
        health = CrawlHealth()
        parent = StageContext({}, health=health)
        assert parent.child().health is health


class TestStageGraphStructure:
    def test_duplicate_name_rejected(self):
        stage = Stage(name="s", compute=lambda ctx: 1)
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph((stage, stage))

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            StageGraph((Stage(name="s", compute=lambda ctx: 1, deps=("x",)),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            StageGraph(
                (
                    Stage(name="a", compute=lambda ctx: 1, deps=("b",)),
                    Stage(name="b", compute=lambda ctx: 1, deps=("a",)),
                )
            )

    def test_unknown_target_rejected(self):
        graph = StageGraph((Stage(name="a", compute=lambda ctx: 1),))
        with pytest.raises(ValueError, match="unknown stage"):
            graph.run(StageContext(), targets=("nope",))

    def test_runs_dependency_closure_in_order(self):
        ran: list[str] = []

        def compute(name):
            return lambda ctx: ran.append(name) or name

        graph = StageGraph(
            (
                Stage(name="c", compute=compute("c"), deps=("b",)),
                Stage(name="a", compute=compute("a")),
                Stage(name="b", compute=compute("b"), deps=("a",)),
                Stage(name="other", compute=compute("other")),
            )
        )
        ctx = graph.run(StageContext(), targets=("c",))
        assert ran == ["a", "b", "c"]  # closure only, dependency order
        assert ctx["c"] == "c"

    def test_already_bound_stage_not_rerun(self):
        ran: list[str] = []
        graph = StageGraph(
            (
                Stage(name="a", compute=lambda ctx: ran.append("a") or 1),
                Stage(
                    name="b",
                    compute=lambda ctx: ran.append("b") or ctx["a"] + 1,
                    deps=("a",),
                ),
            )
        )
        site = StageContext()
        graph.run(site, targets=("a",))
        page = site.child()
        graph.run(page, targets=("b",))
        assert ran == ["a", "b"]  # "a" computed once, shared via parent
        assert page["b"] == 2

    def test_key_material_requires_declared_key(self):
        graph = StageGraph((Stage(name="a", compute=lambda ctx: 1),))
        with pytest.raises(ValueError, match="no cache key"):
            graph.key_material("a", StageContext())


class TestDegradationLadder:
    def _graph(self, degradations, compute=None):
        return StageGraph(
            (
                Stage(
                    name="s",
                    compute=compute or (lambda ctx: "computed"),
                    degradations=tuple(degradations),
                ),
            )
        )

    def test_condition_preempts_compute(self):
        graph = self._graph(
            [
                Degradation(
                    condition=lambda ctx: True,
                    fallback=lambda error, ctx: "degraded",
                    label="rung",
                )
            ],
            compute=lambda ctx: pytest.fail("must not compute"),
        )
        health = CrawlHealth()
        ctx = StageContext({}, health=health)
        graph.run(ctx)
        assert ctx["s"] == "degraded"
        assert health.fallbacks == ["rung"]

    def test_exception_rungs_match_in_order(self):
        def boom(ctx):
            raise EmptyProblemError("nothing")

        graph = self._graph(
            [
                Degradation(
                    exceptions=(CspError,),
                    fallback=lambda error, ctx: "csp",
                ),
                Degradation(
                    exceptions=(EmptyProblemError,),
                    fallback=lambda error, ctx: f"empty:{error}",
                ),
            ],
            compute=boom,
        )
        ctx = graph.run(StageContext())
        assert ctx["s"] == "empty:nothing"

    def test_unmatched_exception_propagates(self):
        def boom(ctx):
            raise RuntimeError("real bug")

        graph = self._graph(
            [Degradation(exceptions=(CspError,), fallback=lambda e, c: "x")],
            compute=boom,
        )
        with pytest.raises(RuntimeError, match="real bug"):
            graph.run(StageContext())

    def test_unlabelled_rung_leaves_health_alone(self):
        graph = self._graph(
            [
                Degradation(
                    condition=lambda ctx: True,
                    fallback=lambda error, ctx: None,
                )
            ]
        )
        health = CrawlHealth()
        graph.run(StageContext({}, health=health))
        assert health.fallbacks == []

    def test_degraded_result_is_cached(self):
        calls: list[int] = []

        graph = StageGraph(
            (
                Stage(
                    name="s",
                    key=lambda ctx: ("k",),
                    compute=lambda ctx: calls.append(1) or "computed",
                    degradations=(
                        Degradation(
                            condition=lambda ctx: True,
                            fallback=lambda error, ctx: "degraded",
                        ),
                    ),
                ),
            )
        )
        cache = MemoryStageCache()
        assert graph.run(StageContext(), cache=cache)["s"] == "degraded"
        assert graph.run(StageContext(), cache=cache)["s"] == "degraded"
        assert calls == []
        assert cache.stats.hits == 1 and cache.stats.misses == 1


def _legacy_key_tuples(site, method="csp", config=None):
    """The pre-refactor hand-written cache-key tuples, frozen here.

    These reproduce, part for part, the tuples the old
    ``SegmentationPipeline._cached`` call sites built inline; the
    golden tests below assert the graph's chained key material stays
    byte-identical to them.
    """
    config = config or PipelineConfig()
    list_pages = site.list_pages
    list_htmls = [page.html for page in list_pages]
    details = [site.detail_pages(i) for i in range(len(list_pages))]
    method_config = {
        "csp": config.csp,
        "prob": config.prob,
        "hybrid": (config.csp, config.prob),
    }[method]

    template = (list_htmls, config.template)
    per_page = []
    for index in range(len(list_pages)):
        extracts = template + (index, config.allowed_punct)
        observations = extracts + (
            [page.html for page in details[index]],
            config.match,
        )
        segment = observations + (method, method_config)
        per_page.append(
            {
                "extracts": extracts,
                "observations": observations,
                "segment": segment,
            }
        )
    tokenize = {
        page.url: (page.html,)
        for page in list_pages + [p for group in details for p in group]
    }
    return template, per_page, tokenize, details


class TestGoldenKeyParity:
    """Satellite: graph key material == pre-refactor tuples."""

    @pytest.fixture()
    def site(self):
        return build_site("lee")

    @pytest.mark.parametrize("method", ["csp", "prob", "hybrid"])
    def test_key_material_matches_legacy_tuples(self, site, method):
        config = PipelineConfig()
        template_key, per_page, tokenize_keys, details = _legacy_key_tuples(
            site, method, config
        )
        pipeline = SegmentationPipeline(method, config)
        ctx = pipeline._site_context(site.list_pages, None)
        PIPELINE_GRAPH.run(ctx, targets=("template",))

        assert PIPELINE_GRAPH.key_material("template", ctx) == list(
            template_key
        )
        for index, region in enumerate(ctx["regions"]):
            page_ctx = ctx.child(
                index=index,
                region=region,
                details=details[index],
                other_lists=[
                    page
                    for position, page in enumerate(site.list_pages)
                    if position != index
                ],
            )
            for stage in ("extracts", "observations", "segment"):
                material = PIPELINE_GRAPH.key_material(stage, page_ctx)
                assert material == list(per_page[index][stage]), stage
                # Same fingerprint => same on-disk cache entry path.
                assert fingerprint(stage, material) == fingerprint(
                    stage, list(per_page[index][stage])
                )
        for page in site.list_pages:
            tok_ctx = StageContext({"page": page})
            assert PIPELINE_GRAPH.key_material("tokenize", tok_ctx) == list(
                tokenize_keys[page.url]
            )

    def test_detail_fields_key_material_golden(self, site):
        """``detail_fields`` keys on detail-page bytes + punctuation only.

        No dependencies: the entry is shared by every method and every
        template/match/segmenter setting, and the digest below pins the
        on-disk entry name for fixed inputs.
        """
        config = PipelineConfig()
        details = site.detail_pages(0)
        ctx = StageContext({"details": details, "config": config})
        assert PIPELINE_GRAPH.stage("detail_fields").deps == ()
        assert PIPELINE_GRAPH.key_material("detail_fields", ctx) == [
            [page.html for page in details],
            config.allowed_punct,
        ]
        fixed = StageContext(
            {
                "details": [
                    Page("r0.html", "<p>Name: Ann</p>"),
                    Page("r1.html", "<p>Name: Bob</p>"),
                ],
                "config": config,
            }
        )
        assert fingerprint(
            "detail_fields", PIPELINE_GRAPH.key_material("detail_fields", fixed)
        ) == "8fa6d2ce3e1a295515f973157e6195d18508ce0fbcd266bfe9bf451c2be56a14"

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

    def test_legacy_primed_cache_serves_graph_run_warm(self, tmp_path, site):
        """A cache primed with pre-refactor keys gives 100% hits."""
        config = PipelineConfig()
        method = "csp"
        template_key, per_page, tokenize_keys, details = _legacy_key_tuples(
            site, method, config
        )
        cache = StageCache(tmp_path)

        # Prime old-style: hand-built key tuples, values from direct
        # stage calls (no stage graph anywhere in this block).
        for page in site.list_pages + [
            page for group in details for page in group
        ]:
            cache.store(
                "tokenize",
                cache.key("tokenize", tokenize_keys.get(page.url, (page.html,))),
                page.tokens(),
            )
        verdict = TemplateFinder(config.template).find(site.list_pages)
        cache.store("template", cache.key("template", template_key), verdict)
        regions = resolve_table_regions(site.list_pages, verdict)
        for index, region in enumerate(regions):
            extracts = extract_strings(region, config.allowed_punct)
            cache.store(
                "extracts",
                cache.key("extracts", per_page[index]["extracts"]),
                extracts,
            )
            table = ObservationTable.build(
                extracts,
                details[index],
                other_list_pages=[
                    page
                    for position, page in enumerate(site.list_pages)
                    if position != index
                ],
                options=config.match,
            )
            cache.store(
                "observations",
                cache.key("observations", per_page[index]["observations"]),
                table,
            )
            segmentation = CspSegmenter(config.csp).segment(table)
            cache.store(
                "segment",
                cache.key("segment", per_page[index]["segment"]),
                segmentation,
            )

        warm = StageCache(tmp_path)
        pipeline = SegmentationPipeline(method, config, cache=warm)
        run = pipeline.segment_site(site.list_pages, details)
        assert warm.stats.misses == 0
        assert warm.stats.hits > 0
        assert len(run.pages) == len(site.list_pages)
        assert all(page_run.segmentation.records for page_run in run.pages)


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


class _Raising:
    def __init__(self, error):
        self.error = error

    def segment(self, table):
        raise self.error


class TestPipelineLadderAsData:
    """Satellite: each declared rung matches the hand-written ladder."""

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
        stored = cache.get_or_compute("s", ("k",), lambda: {"v": [1]})
        stored["v"].append(2)  # mutating a returned value...
        again = cache.get_or_compute("s", ("k",), lambda: {"v": [3]})
        assert again == {"v": [1]}  # ...never poisons the cache
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1

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
