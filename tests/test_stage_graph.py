"""Tests for the declarative stage graph (core/stages.py).

Three layers:

* unit tests of the generic contract (context layering, toposort,
  entry points, lazy dependency resolution, degradation ladders);
* the *Merkle key* tests: a golden digest per stage over fixed tiny
  inputs pins the on-disk entry names, and changing one input changes
  exactly the keys of the stages downstream of it;
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
from repro.core.stages import (
    CACHE_SCHEMA,
    Degradation,
    Stage,
    StageContext,
    StageGraph,
)
from repro.crawl.resilient import CrawlHealth
from repro.csp.segmenter import CspConfig
from repro.extraction.matching import MatchOptions
from repro.obs import ManualClock, Observability
from repro.relational.detail_fields import detail_field_pairs
from repro.runner.cache import MemoryStageCache, StageCache, fingerprint
from repro.sitegen.corpus import build_site
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
            graph.key("a", StageContext())

    def test_hit_resolves_no_dependency(self):
        ran: list[str] = []

        def stage(name, deps=()):
            return Stage(
                name=name,
                deps=deps,
                key=lambda ctx: (),
                compute=lambda ctx: ran.append(name) or name,
                span=f"s.{name}",
                counters=lambda value, ctx: ((f"n.{name}", 1),),
            )

        graph = StageGraph(
            (stage("a"), stage("b", ("a",)), stage("c", ("b",)))
        )
        cache = MemoryStageCache()
        graph.run(StageContext(), targets=("c",), cache=cache)
        assert ran == ["a", "b", "c"]
        assert (cache.stats.hits, cache.stats.misses) == (0, 3)

        obs = Observability(clock=ManualClock(tick=1.0))
        warm = graph.run(StageContext(), targets=("c",), obs=obs, cache=cache)
        assert ran == ["a", "b", "c"] and warm["c"] == "c"
        assert "a" not in warm and "b" not in warm  # nothing upstream read
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)
        assert [span.name for span in obs.tracer.roots] == ["s.c"]
        assert obs.metrics.as_dict()["counters"] == {"n.c": 1}

    def test_miss_loads_only_the_dependencies_it_needs(self):
        ran: list[str] = []
        graph = StageGraph(
            (
                Stage(
                    name="a",
                    key=lambda ctx: (),
                    compute=lambda ctx: ran.append("a") or 1,
                ),
                Stage(
                    name="b",
                    deps=("a",),
                    key=lambda ctx: (ctx["knob"],),
                    compute=lambda ctx: ran.append("b") or ctx["a"] + ctx["knob"],
                ),
            )
        )
        cache = MemoryStageCache()
        graph.run(StageContext({"knob": 1}), targets=("b",), cache=cache)
        tweaked = graph.run(
            StageContext({"knob": 2}), targets=("b",), cache=cache
        )
        # "b" missed under the new knob and read "a" from the cache.
        assert ran == ["a", "b", "b"] and tweaked["b"] == 3
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)


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
    """Each stage's key, in contexts seeded the way the pipeline does.

    ``tokenize`` is keyed once per page, by URL.
    """
    site = SegmentationPipeline(method, config)._site_context(
        list_pages, None
    )
    page = site.child(index=0, details=details)
    keys = {
        stage: PIPELINE_GRAPH.key(stage, page)
        for stage in ("template", "extracts", "observations", "segment")
    }
    keys["detail_fields"] = PIPELINE_GRAPH.key(
        "detail_fields", StageContext({"details": details, "config": config})
    )
    for each in list_pages[:1] + details:
        keys[f"tokenize {each.url}"] = PIPELINE_GRAPH.key(
            "tokenize", StageContext({"page": each})
        )
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

    def test_key_chains_dependency_keys(self):
        method, config, list_pages, details = _key_inputs()
        site = SegmentationPipeline(method, config)._site_context(
            list_pages, None
        )
        template = PIPELINE_GRAPH.key("template", site)
        page = site.child(index=0, details=details)
        assert PIPELINE_GRAPH.key("segment", page) == fingerprint(
            "segment",
            CACHE_SCHEMA,
            [PIPELINE_GRAPH.key("observations", page)],
            method,
            config.csp,
        )
        assert PIPELINE_GRAPH.key("extracts", page) == fingerprint(
            "extracts", CACHE_SCHEMA, [template], 0, config.allowed_punct
        )
        # Computed once per context: the site's template key is reused.
        assert page.keys.keys() == {"extracts", "observations", "segment"}
        assert site.keys.keys() == {"template"}

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
        assert PIPELINE_GRAPH.key("detail_fields", ctx) == fingerprint(
            "detail_fields",
            CACHE_SCHEMA,
            [],
            [page.html for page in details],
            config.allowed_punct,
        )
        fixed = StageContext(
            {
                "details": [
                    Page("r0.html", "<p>Name: Ann</p>"),
                    Page("r1.html", "<p>Name: Bob</p>"),
                ],
                "config": config,
            }
        )
        assert PIPELINE_GRAPH.key("detail_fields", fixed) == (
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
