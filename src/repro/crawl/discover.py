"""Automatic site discovery from the entry point.

The paper's Section 3 vision starts one level above the pipeline's
inputs: "the user provides a pointer to the top-level page — index
page or a form — and the system automatically navigates the site,
retrieving all pages, classifying them as list and detail pages".

:func:`discover_site` implements that navigation over a fetcher:

1. follow each link off the entry page;
2. from every landing page, walk its "Next" chain (the paper's own
   suggestion: "One method is to simply follow the 'Next' link, and
   download the next page of results");
3. accept the first chain whose pages all crawl like list pages —
   i.e. each links to a sizeable cluster of same-template (detail)
   pages.

The result is exactly what
:meth:`~repro.core.pipeline.SegmentationPipeline.segment_site` wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import CrawlError
from repro.crawl.crawler import CrawlResult, Crawler
from repro.crawl.resilient import ResilientFetcher
from repro.ingest.fingerprint import ShingleSpace, profile_page
from repro.webdoc.html import extract_links
from repro.webdoc.page import Page

__all__ = ["DiscoveredSite", "discover_site", "follow_next_chain"]


def follow_next_chain(
    fetcher: ResilientFetcher, start: Page, max_pages: int = 10
) -> list[Page]:
    """The page plus everything its "Next" links lead to, in order.

    The Next link is the fingerprint pass's
    :attr:`~repro.ingest.fingerprint.PageProfile.next_url`.
    """
    chain = [start]
    seen = {start.url}
    while len(chain) < max_pages:
        next_url = profile_page(chain[-1], ShingleSpace()).next_url
        if next_url is None or next_url in seen:
            break
        page = fetcher.try_fetch(next_url)
        if page is None:
            break
        seen.add(page.url)
        chain.append(page)
    return chain


@dataclass
class DiscoveredSite:
    """What automatic navigation found.

    Attributes:
        list_pages: the results chain, in Next order.
        crawl_results: per list page, its crawled/classified details.
    """

    list_pages: list[Page] = field(default_factory=list)
    crawl_results: list[CrawlResult] = field(default_factory=list)

    @property
    def detail_pages_per_list(self) -> list[list[Page]]:
        return [result.detail_pages for result in self.crawl_results]


def discover_site(
    fetcher: ResilientFetcher,
    index_url: str,
    min_details: int = 2,
    max_chain: int = 10,
) -> DiscoveredSite:
    """Navigate from the entry page to the pipeline's inputs.

    Args:
        fetcher: the crawl's fetcher; its health books every request.
        index_url: the user's "pointer to the top-level page".
        min_details: a chain page must link to at least this many
            same-template pages to count as a list page.
        max_chain: Next-chain length cap.

    Raises:
        CrawlError: the entry page cannot be fetched, or no link off
            it leads to a valid results chain.
    """
    index = fetcher.fetch(index_url)
    crawler = Crawler(fetcher)

    for url in extract_links(index.html):
        start = fetcher.try_fetch(url)
        if start is None:
            continue
        chain = follow_next_chain(fetcher, start, max_chain)
        results: list[CrawlResult] = []
        for page in chain:
            result = crawler.try_collect(page)
            if result.failed or len(result.detail_pages) < min_details:
                results = []
                break
            results.append(result)
        if results:
            return DiscoveredSite(list_pages=chain, crawl_results=results)

    raise CrawlError(
        f"no results chain found from entry page {index_url!r}"
    )
