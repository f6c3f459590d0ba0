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

The pipeline runs these stages directly: ``segment_site`` resolves
the ``template`` once per site, then runs the ``extracts →
observations → segment`` chain once per list page.  Every driver —
the batch runner's workers (:mod:`repro.runner.worker`), the online
service (:mod:`repro.serve.service`), the experiment sweeps
(:mod:`repro.reporting.experiment`) — enters through
``segment_site``, :meth:`SegmentationPipeline.detail_fields` or
:func:`bind_token_cache`.

The pipeline never raises on a *degenerate page* (no extracts survive
the filters): the ``segment`` step returns an empty segmentation with
the reason in ``meta`` so corpus-wide runs always complete, mirroring
how the paper reports such pages as rows of unsegmented records.

The same best-effort stance extends to *degenerate samples* from
incomplete crawls: template failures (including a raised
:class:`~repro.core.exceptions.TemplateNotFoundError`) downgrade to the
whole-page fallback, a single surviving list page is segmented without
template induction, and a :class:`~repro.crawl.resilient.CrawlHealth`
report handed in by the crawl layer is carried on the
:class:`SiteRun` and summarized into every ``Segmentation.meta`` — so
evaluation can condition accuracy on crawl completeness.  Both
template fallbacks are booked in the report's ``fallbacks``.

Every stage is also *cacheable*: constructed with a ``cache`` (any
object with the :class:`~repro.runner.cache.StageCache` interface —
the pipeline itself depends on nothing in :mod:`repro.runner`), each
stage is looked up by a content fingerprint of its exact inputs (page
bytes + the stage's config slice) before being computed, so warm
re-runs and parameter sweeps skip the work upstream of the changed
knob.  Keys chain (:func:`~repro.core.stages.stage_key`): each
stage's key hashes the keys of the stages it reads with its own
inputs, and a stage whose key hits is loaded without reading anything
upstream, so a warm list page reads only its ``segment`` entry.  Keys
are hashed only when there is a cache.  Caching engages only for
pristine samples: a run carrying a ``crawl_health`` report came
through a (possibly fault-injected) crawl whose degradation
bookkeeping must actually execute, so it always computes.  Two stages
sit outside the per-site chain: ``tokenize``, which
:func:`bind_token_cache` puts behind each page's
:meth:`~repro.webdoc.page.Page.tokens` so a stream is read only when
a stage that missed needs it, and ``detail_fields``
(:meth:`SegmentationPipeline.detail_fields`), the detail-page
label/value parse that names store columns.

The pipeline is fully instrumented: handed an
:class:`~repro.obs.Observability` bundle it emits a
``pipeline.segment_site`` span tree (template induction, then per
list page the extract / observation / segment stages, each with
counts in its attributes) and books stage totals into the metrics
registry — the per-stage cost profile ``docs/observability.md``
documents.  A stage served from the cache opens only its own span and
books only its own counter.  Without a bundle it falls back to the
installed default (:func:`repro.obs.current`), which is a no-op unless
the CLI's ``--trace``/``--metrics-out`` flags or the benchmark session
profile installed a live bundle.
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
from repro.core.stages import stage_key
from repro.csp.segmenter import CspSegmenter
from repro.extraction.extracts import extract_strings
from repro.extraction.observations import ObservationTable
from repro.obs import Observability, current as current_obs
from repro.template.finder import TemplateFinder, TemplateVerdict
from repro.template.model import PageTemplate
from repro.template.table_slot import TableRegion, resolve_table_regions
from repro.tokens.tokenizer import Token, tokenize_html
from repro.webdoc.page import Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crawl.resilient import CrawlBudget, CrawlHealth
    from repro.extraction.matching import TokenTable
    from repro.sitegen.faults import FaultPlan
    from repro.sitegen.site import GeneratedSite

__all__ = [
    "DEGRADED_META",
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


#: Segmentation meta keys the ``segment`` step sets on a page it could
#: not segment.  The batch runner quarantines a site on them, and the
#: service does not ingest such a run.
DEGRADED_META = ("segmenter_error", "empty_problem")


def _book(health: CrawlHealth | None, fallback: str) -> None:
    """Record a sample-level fallback in the crawl's health report, if any."""
    if health is not None:
        health.fallbacks.append(fallback)


def _get(cache: Any, stage: str, key: str | None) -> Any:
    """A stage's cached value, or None on a miss or without a cache."""
    if cache is None:
        return None
    found, value = cache.get(stage, key)
    return value if found else None


def _put(cache: Any, stage: str, key: str | None, value: Any) -> Any:
    """Store a computed value when there is a cache; return what to use."""
    return value if cache is None else cache.put(stage, key, value)


def _cached_tokens(cache: Any, page: Page) -> list[Token]:
    key = stage_key("tokenize", [], page.html)
    tokens = _get(cache, "tokenize", key)
    if tokens is None:
        tokens = cache.put("tokenize", key, tokenize_html(page.html))
    return tokens


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

        The ``detail_fields`` stage, through the pipeline's stage cache
        when it has one.
        """
        # Imported on use: only store-bound runs name columns, so the
        # relational layer stays out of worker start-up.
        from repro.relational.detail_fields import detail_field_pairs

        punct = self.config.allowed_punct
        key = None
        if self.cache is not None:
            key = stage_key(
                "detail_fields", [], [page.html for page in details], punct
            )
        fields = _get(self.cache, "detail_fields", key)
        if fields is None:
            fields = _put(
                self.cache,
                "detail_fields",
                key,
                detail_field_pairs(details, punct),
            )
        return fields

    def _template(
        self, list_pages: list[Page], health: CrawlHealth | None, cache: Any
    ) -> tuple[str | None, TemplateVerdict, list[TableRegion]]:
        """The site's template key, verdict and table regions.

        The regions are resolved inside the ``pipeline.template`` span;
        the key is None without a cache.
        """
        key = None
        if cache is not None:
            key = stage_key(
                "template",
                [],
                [page.html for page in list_pages],
                self.config.template,
            )
        verdict = _get(cache, "template", key)
        with self.obs.span("pipeline.template", pages=len(list_pages)) as span:
            if verdict is None:
                if len(list_pages) == 1:
                    # A single-page sample (the rest quarantined by the
                    # crawl) skips induction entirely: it needs two pages.
                    _book(health, "single_list_page")
                    verdict = _failed_verdict(
                        "only one list page survived the crawl; template "
                        "induction needs two",
                        page_count=1,
                    )
                else:
                    try:
                        verdict = self._finder.find(list_pages)
                    except (TemplateNotFoundError, InsufficientPagesError) as error:
                        # A raised template failure becomes the paper's
                        # Section 6.2 whole-page fallback.
                        _book(health, "whole_page_template")
                        verdict = _failed_verdict(
                            str(error), page_count=len(list_pages)
                        )
                verdict = _put(cache, "template", key, verdict)
            span.attributes["ok"] = verdict.ok
            if not verdict.ok:
                span.attributes["reason"] = verdict.reason
            regions = resolve_table_regions(list_pages, verdict)
        return key, verdict, regions

    def _segment(self, table: ObservationTable) -> Segmentation:
        """Segment ``table``; an unsegmentable page gets no records.

        A page with nothing to segment, or one the method cannot
        segment (degenerate lattice from an incomplete crawl,
        constraints unsatisfiable at every relaxation level), is
        reported as a page of unsegmented records — the paper's FN
        rows — with the reason in ``meta``, not a crashed site run.
        """
        try:
            if not table.observations:
                raise EmptyProblemError("no observations")
            return self._make_segmenter().segment(table)
        except EmptyProblemError:
            # Segmenters may also judge a problem empty on stricter
            # criteria (e.g. every observation filtered as unusable).
            meta: dict[str, Any] = {"empty_problem": True}
        except (InferenceError, CspError) as error:
            meta = {"segmenter_error": str(error)}
        return Segmentation(method=self.method, records=[], table=table, meta=meta)

    def _page_segmentation(
        self,
        cache: Any,
        template_key: str | None,
        index: int,
        region: TableRegion,
        list_pages: list[Page],
        details: list[Page],
        token_table: TokenTable,
    ) -> Segmentation:
        """One list page's ``extracts → observations → segment`` chain.

        With a cache, ``segment`` is looked up first, and a stage
        upstream of it is read (or computed) only when the stage below
        it missed.  Each stage that runs or hits opens its span and
        books its counter.
        """
        obs = self.obs
        extracts_key = observations_key = segment_key = None
        if cache is not None:
            extracts_key = stage_key(
                "extracts", [template_key], index, self.config.allowed_punct
            )
            observations_key = stage_key(
                "observations",
                [extracts_key],
                [page.html for page in details],
                self.config.match,
            )
            segment_key = stage_key(
                "segment", [observations_key], self.method, self._method_config()
            )
        segmentation = _get(cache, "segment", segment_key)
        if segmentation is None:
            table = _get(cache, "observations", observations_key)
            if table is None:
                extracts = _get(cache, "extracts", extracts_key)
                with obs.span("pipeline.extracts") as span:
                    if extracts is None:
                        extracts = _put(
                            cache,
                            "extracts",
                            extracts_key,
                            extract_strings(region, self.config.allowed_punct),
                        )
                    span.attributes["count"] = len(extracts)
                obs.counter("pipeline.extracts").inc(len(extracts))
            with obs.span(
                "pipeline.observations", detail_pages=len(details)
            ) as span:
                if table is None:
                    table = _put(
                        cache,
                        "observations",
                        observations_key,
                        ObservationTable.build(
                            extracts,
                            details,
                            other_list_pages=[
                                page
                                for position, page in enumerate(list_pages)
                                if position != index
                            ],
                            options=self.config.match,
                            token_table=token_table,
                            obs=obs,
                        ),
                    )
                span.attributes["observations"] = len(table.observations)
            obs.counter("pipeline.observations").inc(len(table.observations))
        with obs.span("pipeline.segment", method=self.method) as span:
            if segmentation is None:
                segmentation = _put(
                    cache, "segment", segment_key, self._segment(table)
                )
            span.attributes["records"] = len(segmentation.records)
        obs.counter("pipeline.records").inc(len(segmentation.records))
        return segmentation

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
            _book(crawl_health, "empty_sample")
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
        # Site-scoped intern table: every list page's observation build
        # shares one id space and one set of page reductions (detail
        # pages double as other-list context across pages of the same
        # site).
        token_table = self.config.match.make_table()
        with obs.span(
            "pipeline.segment_site",
            method=self.method,
            list_pages=len(list_pages),
        ) as site_span:
            template_key, verdict, regions = self._template(
                list_pages, crawl_health, cache
            )
            run = SiteRun(
                method=self.method,
                template_verdict=verdict,
                crawl_health=crawl_health,
            )

            for index, region in enumerate(regions):
                with obs.span(
                    "pipeline.page", index=index, url=region.page.url
                ) as page_span:
                    started = obs.clock.now()
                    segmentation = self._page_segmentation(
                        cache,
                        template_key,
                        index,
                        region,
                        list_pages,
                        detail_pages_per_list[index],
                        token_table,
                    )
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
