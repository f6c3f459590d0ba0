"""Link-following crawler for list pages.

Automates the step the paper performed by hand ("From each site, we
randomly selected two list pages and manually downloaded the detail
pages"): given a list page, follow every link in document order,
fetch what resolves, and separate the detail pages from
advertisements and other chrome targets the way Section 6.1 proposes
— "the detail pages, generated from the same template, will look
similar to one another".  The fetched pages are fingerprinted
(:mod:`repro.ingest.fingerprint`) and clustered by template
(:mod:`repro.ingest.cluster`), and the largest cluster is the detail
pages.  Detail pages are returned in link order, which is the record
order the segmenters assume.

Every fetch goes through the one fetcher,
:class:`~repro.crawl.resilient.ResilientFetcher`.  A degenerate page
(nothing fetchable) is recorded in its :class:`CrawlResult` instead
of raising, and :func:`crawl_site` crawls every list page even when
some fail — one dead results page quarantines that page, not the
site.  :func:`crawl_site` builds its fetcher (optionally over a
:class:`~repro.sitegen.faults.FaultPlan` transport) and returns a
:class:`SiteCrawl` carrying the
:class:`~repro.crawl.resilient.CrawlHealth` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crawl.resilient import CrawlBudget, CrawlHealth, ResilientFetcher
from repro.ingest.cluster import cluster_profiles
from repro.ingest.fingerprint import profile_pages
from repro.obs import Observability, current as current_obs
from repro.sitegen.faults import FaultPlan, FaultyTransport
from repro.sitegen.site import GeneratedSite
from repro.webdoc.html import extract_links
from repro.webdoc.page import Page

__all__ = [
    "CrawlResult",
    "Crawler",
    "SiteCrawl",
    "crawl_site",
]


@dataclass
class CrawlResult:
    """What one list-page crawl produced.

    Attributes:
        list_page: the crawled list page.
        detail_pages: the classified detail pages, in link order.
        other_pages: fetched pages judged not to be detail pages.
        dead_links: hrefs that could not be obtained (dead, budget,
            circuit — see the fetcher's health report for reasons).
        error: set when the crawl degenerated (no link fetchable at
            all); the page should be quarantined, not segmented.
    """

    list_page: Page
    detail_pages: list[Page] = field(default_factory=list)
    other_pages: list[Page] = field(default_factory=list)
    dead_links: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        """Did this page's crawl degenerate entirely?"""
        return self.error is not None


class Crawler:
    """Fetch and classify everything a list page links to."""

    def __init__(self, fetcher: ResilientFetcher) -> None:
        self.fetcher = fetcher

    def try_collect(self, list_page: Page) -> CrawlResult:
        """Crawl one list page, recording failure instead of raising.

        A page whose links are all dead comes back with ``error`` set
        and empty page lists — a quarantinable partial result.  The
        largest template cluster of the fetched pages is the detail
        pages; a tie goes to the cluster whose first page comes first
        in link order.  Both parts keep link order.
        """
        result = CrawlResult(list_page=list_page)
        fetched: list[Page] = []
        for url in extract_links(list_page.html):
            if url == list_page.url:
                continue
            page = self.fetcher.try_fetch(url)
            if page is None:
                result.dead_links.append(url)
            else:
                fetched.append(page)
        if not fetched:
            result.error = (
                f"list page {list_page.url!r} links to no fetchable pages"
            )
            return result
        clusters = cluster_profiles(profile_pages(fetched))
        details = set(max(clusters, key=len).members)
        for index, page in enumerate(fetched):
            if index in details:
                result.detail_pages.append(page)
            else:
                result.other_pages.append(page)
        return result


@dataclass
class SiteCrawl:
    """Everything a fault-aware site crawl produced.

    ``list_pages``/``detail_pages_per_list`` hold only the pages that
    survived quarantine, shaped exactly how
    :meth:`~repro.core.pipeline.SegmentationPipeline.segment_site`
    wants them; ``results`` keeps every per-page outcome (including
    quarantined ones) and ``health`` the full retry/gap accounting.
    """

    list_pages: list[Page] = field(default_factory=list)
    detail_pages_per_list: list[list[Page]] = field(default_factory=list)
    results: list[CrawlResult] = field(default_factory=list)
    health: CrawlHealth = field(default_factory=CrawlHealth)


def crawl_site(
    site: GeneratedSite,
    *,
    fault_plan: FaultPlan | None = None,
    budget: CrawlBudget | None = None,
    obs: Observability | None = None,
) -> SiteCrawl:
    """Crawl a simulator site through the resilient retrieval stack.

    Every detail-page fetch goes through a
    :class:`~repro.crawl.resilient.ResilientFetcher` — over a
    :class:`~repro.sitegen.faults.FaultyTransport` when ``fault_plan``
    is given — so transient faults are retried, budgets enforced, and
    every unresolved URL recorded as a gap.  Degenerate list pages are
    quarantined (dropped from the sample, listed in
    ``health.quarantined_pages``) instead of aborting the site.

    The crawl is traced as one ``crawl.site`` span (one
    ``crawl.list_page`` child per list page), whose final attributes
    mirror the headline numbers of the returned
    :class:`~repro.crawl.resilient.CrawlHealth` report — the span tree
    and the health report describe the same events at two zoom levels.
    """
    obs = obs if obs is not None else current_obs()
    transport = site if fault_plan is None else FaultyTransport(site, fault_plan)
    fetcher = ResilientFetcher(transport, budget=budget, obs=obs)
    crawler = Crawler(fetcher)
    crawl = SiteCrawl(health=fetcher.health)

    with obs.span(
        "crawl.site", list_pages=len(site.list_pages)
    ) as site_span:
        for list_page in site.list_pages:
            with obs.span("crawl.list_page", url=list_page.url) as page_span:
                result = crawler.try_collect(list_page)
                page_span.attributes["detail_pages"] = len(result.detail_pages)
                page_span.attributes["dead_links"] = len(result.dead_links)
                crawl.results.append(result)
                if result.failed:
                    page_span.attributes["quarantined"] = True
                    crawl.health.quarantined_pages.append(list_page.url)
                    continue
                crawl.list_pages.append(list_page)
                crawl.detail_pages_per_list.append(result.detail_pages)
        health = crawl.health
        site_span.attributes.update(
            requests=health.requests,
            retries=health.retries,
            recovered=health.recovered,
            gaps=health.gap_count,
            quarantined=len(health.quarantined_pages),
            breaker_trips=health.breaker_trips,
            budget_exhausted=health.budget_exhausted,
        )
    return crawl
