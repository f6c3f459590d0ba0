"""The end-to-end segmentation pipeline (paper Section 3).

Given a site's sample list pages and, for each, its detail pages in
link order, :class:`SegmentationPipeline` runs the full method:

1. page-template induction over the list pages, with the whole-page
   fallback on failure (Sections 3.1, 6.2);
2. table-slot resolution and extract extraction (Section 3.2);
3. observation building: matching against detail pages, the
   all-lists/all-details filters, positions (Sections 3.2, 4.2);
4. record segmentation by the configured method — ``"csp"``
   (Section 4) or ``"prob"`` (Section 5);
5. the rest-of-the-data attachment rule (Section 6.2).

Since the stage-graph refactor the pipeline is a *thin assembly of
stage declarations*: the catalogue below (:data:`PIPELINE_GRAPH`)
declares each stage's dependencies, cache-key parts, compute function,
span/counter emissions, and degradation ladder as data, and the
generic :class:`~repro.core.stages.StageGraph` executor supplies the
plumbing.  ``segment_site`` seeds a :class:`~repro.core.stages.StageContext`
with the sample and the config, runs the ``template`` stage once per
site and the ``extracts → observations → segment`` chain once per list
page, and assembles the :class:`SiteRun`.  The other drivers — the
batch runner's workers (:mod:`repro.runner.worker`), the online
service (:mod:`repro.serve.service`), the experiment sweeps
(:mod:`repro.reporting.experiment`) — enter the same graph instead of
re-implementing the plumbing.

The pipeline never raises on a *degenerate page* (no extracts survive
the filters): the ``segment`` stage's degradation ladder returns an
empty segmentation with the reason in ``meta`` so corpus-wide runs
always complete, mirroring how the paper reports such pages as rows of
unsegmented records.

The same best-effort stance extends to *degenerate samples* from
incomplete crawls: template failures (including a raised
:class:`~repro.core.exceptions.TemplateNotFoundError`) downgrade to the
whole-page fallback, a single surviving list page is segmented without
template induction, and a :class:`~repro.crawl.resilient.CrawlHealth`
report handed in by the crawl layer is carried on the
:class:`SiteRun` and summarized into every ``Segmentation.meta`` — so
evaluation can condition accuracy on crawl completeness.  Each rung of
that ladder is a declared :class:`~repro.core.stages.Degradation`.

Every stage is also *cacheable*: constructed with a ``cache`` (any
object with the :class:`~repro.runner.cache.StageCache` interface —
the pipeline itself depends on nothing in :mod:`repro.runner`), each
stage is looked up by a content fingerprint of its exact inputs (page
bytes + the stage's config slice) before being computed, so warm
re-runs and parameter sweeps skip the work upstream of the changed
knob.  Keys chain: each stage's key hashes its dependencies' keys
with its own inputs, and a stage whose key hits is loaded without
reading its dependencies, so a warm list page reads only its
``segment`` entry.  Caching engages only for pristine samples: a run
carrying a ``crawl_health`` report came through a (possibly
fault-injected) crawl whose degradation bookkeeping must actually
execute, so it always computes.  Two stages sit outside the per-site
chain: ``tokenize``, which :func:`bind_token_cache` puts behind each
page's :meth:`~repro.webdoc.page.Page.tokens` so a stream is read only
when a stage that missed needs it, and ``detail_fields``
(:meth:`SegmentationPipeline.detail_fields`), the detail-page
label/value parse that names store columns.

The pipeline is fully instrumented: handed an
:class:`~repro.obs.Observability` bundle it emits a
``pipeline.segment_site`` span tree (template induction, then per
list page the extract / observation / segment stages, each with
counts in its attributes) and books stage totals into the metrics
registry — the per-stage cost profile ``docs/observability.md``
documents.  The per-stage spans and counters are emitted by the stage
executor from the declarations, not by per-call-site code.  Without a
bundle it falls back to the installed default
(:func:`repro.obs.current`), which is a no-op unless the CLI's
``--trace``/``--metrics-out`` flags or the benchmark session profile
installed a live bundle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.config import METHODS, PipelineConfig
from repro.core.exceptions import (
    ConfigError,
    CspError,
    EmptyProblemError,
    InferenceError,
    InsufficientPagesError,
    TemplateNotFoundError,
)
from repro.core.results import Segmentation
from repro.core.stages import Degradation, Stage, StageContext, StageGraph
from repro.csp.segmenter import CspSegmenter
from repro.extraction.extracts import extract_strings
from repro.extraction.observations import ObservationTable
from repro.obs import Observability, current as current_obs
from repro.template.finder import TemplateFinder, TemplateVerdict
from repro.template.model import PageTemplate
from repro.template.table_slot import resolve_table_regions
from repro.tokens.tokenizer import Token, tokenize_html
from repro.webdoc.page import Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crawl.resilient import CrawlBudget, CrawlHealth
    from repro.sitegen.faults import FaultPlan
    from repro.sitegen.site import GeneratedSite

__all__ = [
    "DEGRADED_META",
    "PIPELINE_GRAPH",
    "PageRun",
    "SiteRun",
    "SegmentationPipeline",
    "bind_token_cache",
]


@dataclass
class PageRun:
    """Everything produced for one list page.

    Attributes:
        page: the list page.
        table: the observation table that was segmented.
        segmentation: the method's output.
        elapsed: segmentation wall-clock seconds (observation building
            included).
    """

    page: Page
    table: ObservationTable
    segmentation: Segmentation
    elapsed: float


@dataclass
class SiteRun:
    """A pipeline run over one site's sample.

    Attributes:
        method: the segmentation method used.
        template_verdict: outcome of template induction.
        pages: one :class:`PageRun` per surviving list page.
        crawl_health: retrieval-layer report when the sample came from
            a (possibly fault-injected) crawl; ``None`` for pristine
            samples handed in directly.
    """

    method: str
    template_verdict: TemplateVerdict
    pages: list[PageRun] = field(default_factory=list)
    crawl_health: CrawlHealth | None = None

    @property
    def whole_page_fallback(self) -> bool:
        """Did the site hit the template fallback (Table 4 note *b*)?"""
        return not self.template_verdict.ok


def _failed_verdict(reason: str, page_count: int) -> TemplateVerdict:
    """A verdict that routes every page to the whole-page fallback."""
    return TemplateVerdict(
        template=PageTemplate(aligned=(), page_count=page_count),
        ok=False,
        reason=reason,
    )


#: Segmentation meta keys the ``segment`` stage's degradation ladder
#: sets on a page it could not segment.  The batch runner quarantines a
#: site on them, and the service does not ingest such a run.
DEGRADED_META = ("segmenter_error", "empty_problem")


def _empty_segmentation(ctx: StageContext, **meta: Any) -> Segmentation:
    """The degradation ladder's single exit: no records, reason in meta."""
    return Segmentation(
        method=ctx["method"],
        records=[],
        table=ctx["observations"],
        meta=dict(meta),
    )


def _template_result_attrs(verdict: TemplateVerdict, ctx: StageContext) -> dict:
    attrs: dict = {"ok": verdict.ok}
    if not verdict.ok:
        attrs["reason"] = verdict.reason
    return attrs


def _detail_fields(ctx: StageContext) -> dict[int, dict[str, str]]:
    # Imported on use: only store-bound runs name columns, so the
    # relational layer stays out of worker start-up.
    from repro.relational.detail_fields import detail_field_pairs

    return detail_field_pairs(ctx["details"], ctx["config"].allowed_punct)


def _build_pipeline_graph() -> StageGraph:
    """The paper's stage catalogue, declared as data.

    Context inputs the stages read (seeded by the drivers):

    * site scope — ``list_pages``, ``list_htmls``, ``config``,
      ``method``, ``method_config``, ``finder``, ``make_segmenter``;
    * page scope — ``index``, ``region``, ``details``, ``other_lists``;
    * tokenize scope — ``page``;
    * detail-fields scope — ``details``, ``config``.
    """
    tokenize = Stage(
        name="tokenize",
        key=lambda ctx: (ctx["page"].html,),
        compute=lambda ctx: tokenize_html(ctx["page"].html),
    )
    detail_fields = Stage(
        name="detail_fields",
        key=lambda ctx: (
            [page.html for page in ctx["details"]],
            ctx["config"].allowed_punct,
        ),
        compute=_detail_fields,
    )
    template = Stage(
        name="template",
        key=lambda ctx: (ctx["list_htmls"], ctx["config"].template),
        compute=lambda ctx: ctx["finder"].find(ctx["list_pages"]),
        span="pipeline.template",
        span_attrs=lambda ctx: {"pages": len(ctx["list_pages"])},
        result_attrs=_template_result_attrs,
        finalize=lambda verdict, ctx: ctx.set(
            "regions", resolve_table_regions(ctx["list_pages"], verdict)
        ),
        degradations=(
            # A single-page sample (the rest quarantined by the crawl)
            # skips induction entirely: it needs two pages.
            Degradation(
                label="single_list_page",
                condition=lambda ctx: len(ctx["list_pages"]) == 1,
                fallback=lambda error, ctx: _failed_verdict(
                    "only one list page survived the crawl; template "
                    "induction needs two",
                    page_count=1,
                ),
            ),
            # A raised template failure becomes the paper's
            # Section 6.2 whole-page fallback.
            Degradation(
                label="whole_page_template",
                exceptions=(TemplateNotFoundError, InsufficientPagesError),
                fallback=lambda error, ctx: _failed_verdict(
                    str(error), page_count=len(ctx["list_pages"])
                ),
            ),
        ),
    )
    extracts = Stage(
        name="extracts",
        deps=("template",),
        key=lambda ctx: (ctx["index"], ctx["config"].allowed_punct),
        compute=lambda ctx: extract_strings(
            ctx["region"], ctx["config"].allowed_punct
        ),
        span="pipeline.extracts",
        result_attrs=lambda extracts, ctx: {"count": len(extracts)},
        counters=lambda extracts, ctx: (("pipeline.extracts", len(extracts)),),
    )
    observations = Stage(
        name="observations",
        deps=("extracts",),
        key=lambda ctx: (
            [page.html for page in ctx["details"]],
            ctx["config"].match,
        ),
        compute=lambda ctx: ObservationTable.build(
            ctx["extracts"],
            ctx["details"],
            other_list_pages=ctx["other_lists"],
            options=ctx["config"].match,
            token_table=ctx["token_table"],
            obs=ctx["obs"],
        ),
        span="pipeline.observations",
        span_attrs=lambda ctx: {"detail_pages": len(ctx["details"])},
        result_attrs=lambda table, ctx: {
            "observations": len(table.observations)
        },
        counters=lambda table, ctx: (
            ("pipeline.observations", len(table.observations)),
        ),
    )
    segment = Stage(
        name="segment",
        deps=("observations",),
        key=lambda ctx: (ctx["method"], ctx["method_config"]),
        compute=lambda ctx: ctx["make_segmenter"]().segment(
            ctx["observations"]
        ),
        span="pipeline.segment",
        span_attrs=lambda ctx: {"method": ctx["method"]},
        result_attrs=lambda segmentation, ctx: {
            "records": len(segmentation.records)
        },
        counters=lambda segmentation, ctx: (
            ("pipeline.records", len(segmentation.records)),
        ),
        degradations=(
            # Nothing to segment at all.
            Degradation(
                condition=lambda ctx: not ctx["observations"].observations,
                fallback=lambda error, ctx: _empty_segmentation(
                    ctx, empty_problem=True
                ),
            ),
            # Segmenters may decide the problem is empty on criteria
            # stricter than "no observations" (e.g. every observation
            # filtered as unusable); degrade to an empty result.
            Degradation(
                exceptions=(EmptyProblemError,),
                fallback=lambda error, ctx: _empty_segmentation(
                    ctx, empty_problem=True
                ),
            ),
            # A page the method cannot segment (degenerate lattice from
            # an incomplete crawl, constraints unsatisfiable at every
            # relaxation level) is reported as a page of unsegmented
            # records — the paper's FN rows — not a crashed site run.
            Degradation(
                exceptions=(InferenceError, CspError),
                fallback=lambda error, ctx: _empty_segmentation(
                    ctx, segmenter_error=str(error)
                ),
            ),
        ),
    )
    return StageGraph(
        (tokenize, detail_fields, template, extracts, observations, segment)
    )


#: The shared stage graph every driver executes through: the pipeline
#: itself, the batch runner's workers (``tokenize`` behind each page's
#: token source, ``detail_fields`` for store column names), the online
#: service's fallback path, and the experiment sweeps.
PIPELINE_GRAPH = _build_pipeline_graph()


def _cached_tokens(cache: Any, page: Page) -> list[Token]:
    ctx = StageContext({"page": page})
    PIPELINE_GRAPH.run(ctx, targets=("tokenize",), cache=cache)
    return ctx["tokenize"]


def bind_token_cache(pages: Iterable[Page], cache: Any) -> None:
    """Route each page's token stream through the ``tokenize`` stage.

    Tokenization is keyed on page bytes alone, so a stage cache can
    hand any worker a page's stream without re-lexing.  The binding is
    lazy: the entry is loaded (or computed and stored) only when
    something calls :meth:`Page.tokens` — a downstream stage that
    missed the cache, or whole-page table-region resolution.  A site
    whose stages all hit reads no token stream at all.  Without a
    cache this is a no-op (pages tokenize on first use).
    """
    if cache is None:
        return
    source = functools.partial(_cached_tokens, cache)
    for page in pages:
        page.bind_token_source(source)


class SegmentationPipeline:
    """Site in, records out."""

    def __init__(
        self,
        method: str = "csp",
        config: PipelineConfig | None = None,
        obs: Observability | None = None,
        cache=None,
    ) -> None:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; pick from {METHODS}")
        self.method = method
        self.config = config or PipelineConfig()
        self.obs = obs if obs is not None else current_obs()
        self.cache = cache
        self._finder = TemplateFinder(self.config.template)

    def _method_config(self):
        """The config slice that determines segmentation output."""
        if self.method == "csp":
            return self.config.csp
        if self.method == "hybrid":
            return (self.config.csp, self.config.prob)
        return self.config.prob

    def _make_segmenter(self):
        if self.method == "csp":
            return CspSegmenter(self.config.csp, obs=self.obs)
        if self.method == "hybrid":
            from repro.core.hybrid import HybridConfig, HybridSegmenter

            return HybridSegmenter(
                HybridConfig(csp=self.config.csp, prob=self.config.prob),
                obs=self.obs,
            )
        from repro.prob.segmenter import ProbabilisticSegmenter

        return ProbabilisticSegmenter(self.config.prob)

    def detail_fields(self, details: list[Page]) -> dict[int, dict[str, str]]:
        """One list page's detail pages as ``{record: {label: value}}``.

        Runs the ``detail_fields`` stage, through the pipeline's stage
        cache when it has one.
        """
        ctx = StageContext({"details": details, "config": self.config})
        PIPELINE_GRAPH.run(
            ctx, targets=("detail_fields",), obs=self.obs, cache=self.cache
        )
        return ctx["detail_fields"]

    def _site_context(
        self, list_pages: list[Page], crawl_health: CrawlHealth | None
    ) -> StageContext:
        """The site-scope stage context (see the graph's docstring)."""
        return StageContext(
            {
                "list_pages": list_pages,
                "list_htmls": [page.html for page in list_pages],
                "config": self.config,
                "method": self.method,
                "method_config": self._method_config(),
                "finder": self._finder,
                "make_segmenter": self._make_segmenter,
                # Site-scoped intern table: every list page's
                # observation build shares one id space and one set of
                # page reductions (detail pages double as other-list
                # context across pages of the same site).
                "token_table": self.config.match.make_table(),
                # The pipeline's bundle, for stages whose compute books
                # counters directly (the CLI threads obs explicitly and
                # never installs a global bundle).
                "obs": self.obs,
            },
            health=crawl_health,
        )

    def segment_site(
        self,
        list_pages: list[Page],
        detail_pages_per_list: list[list[Page]],
        crawl_health: CrawlHealth | None = None,
    ) -> SiteRun:
        """Run the full method over one site's sample.

        Args:
            list_pages: the sample list pages.  Two or more get the
                paper's setup; one is segmented under the whole-page
                fallback; zero yields an empty run (the crawl found
                nothing usable).
            detail_pages_per_list: for each list page, its detail
                pages in link order (index = record number).  Sets may
                be incomplete — missing detail pages shift record
                numbering and show up as crawl gaps, not errors.
            crawl_health: the retrieval layer's report, attached to
                the run and summarized into each segmentation's meta.
        """
        if len(list_pages) != len(detail_pages_per_list):
            raise ConfigError(
                "need one detail-page list per list page "
                f"({len(list_pages)} vs {len(detail_pages_per_list)})"
            )
        if not list_pages:
            if crawl_health is not None:
                crawl_health.fallbacks.append("empty_sample")
            return SiteRun(
                method=self.method,
                template_verdict=_failed_verdict(
                    "no list pages survived the crawl", page_count=0
                ),
                crawl_health=crawl_health,
            )
        obs = self.obs
        obs.counter("pipeline.sites").inc()
        # Caching engages only for pristine samples: degraded crawls
        # must run their health/fallback bookkeeping for real.
        cache = self.cache if crawl_health is None else None
        site_ctx = self._site_context(list_pages, crawl_health)
        with obs.span(
            "pipeline.segment_site",
            method=self.method,
            list_pages=len(list_pages),
        ) as site_span:
            PIPELINE_GRAPH.run(
                site_ctx, targets=("template",), obs=obs, cache=cache
            )
            verdict = site_ctx["template"]
            run = SiteRun(
                method=self.method,
                template_verdict=verdict,
                crawl_health=crawl_health,
            )

            for index, region in enumerate(site_ctx["regions"]):
                with obs.span(
                    "pipeline.page", index=index, url=region.page.url
                ) as page_span:
                    started = obs.clock.now()
                    page_ctx = site_ctx.child(
                        index=index,
                        region=region,
                        details=detail_pages_per_list[index],
                        other_lists=[
                            page
                            for position, page in enumerate(list_pages)
                            if position != index
                        ],
                    )
                    PIPELINE_GRAPH.run(
                        page_ctx, targets=("segment",), obs=obs, cache=cache
                    )
                    segmentation = page_ctx["segment"]
                    segmentation.meta.setdefault("template_ok", verdict.ok)
                    segmentation.meta.setdefault("whole_page", region.whole_page)
                    if crawl_health is not None:
                        segmentation.meta.setdefault(
                            "crawl",
                            {
                                "gap_count": crawl_health.gap_count,
                                "retries": crawl_health.retries,
                                "recovered": crawl_health.recovered,
                                "quarantined": len(
                                    crawl_health.quarantined_pages
                                ),
                                "budget_exhausted": crawl_health.budget_exhausted,
                            },
                        )
                    page_span.attributes["records"] = len(segmentation.records)
                    run.pages.append(
                        PageRun(
                            page=region.page,
                            table=segmentation.table,
                            segmentation=segmentation,
                            elapsed=obs.clock.now() - started,
                        )
                    )
            obs.counter("pipeline.pages").inc(len(run.pages))
            site_span.attributes["pages"] = len(run.pages)
            site_span.attributes["template_ok"] = verdict.ok
        return run

    def segment_generated_site(
        self,
        site: GeneratedSite,
        *,
        fault_plan: FaultPlan | None = None,
        budget: CrawlBudget | None = None,
    ) -> SiteRun:
        """Convenience wrapper for simulator sites.

        Without a fault plan or a budget the site's true pages are
        used directly (the pristine fast path).  With either, the
        sample is obtained by actually crawling the site
        (:func:`~repro.crawl.crawler.crawl_site`), and the run carries
        the resulting :class:`~repro.crawl.resilient.CrawlHealth`.
        """
        if fault_plan is None and budget is None:
            return self.segment_site(
                site.list_pages,
                [site.detail_pages(index) for index in range(len(site.list_pages))],
            )
        from repro.crawl.crawler import crawl_site

        crawl = crawl_site(
            site,
            fault_plan=fault_plan,
            budget=budget,
            obs=self.obs,
        )
        return self.segment_site(
            crawl.list_pages,
            crawl.detail_pages_per_list,
            crawl_health=crawl.health,
        )
