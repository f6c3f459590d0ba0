"""Site navigation: the one caching fetcher (retries, budgets, circuit
breaking), crawling, and list/detail classification.

The names below load on first use (:mod:`repro._lazy`): importing
:mod:`~repro.crawl.resilient` alone (fetch-driven ingest does)
does not load the crawler or the ingest fingerprint pass it
classifies pages with.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.crawl.crawler": ("CrawlResult", "Crawler", "SiteCrawl", "crawl_site"),
    "repro.crawl.discover": (
        "DiscoveredSite",
        "discover_site",
        "follow_next_chain",
    ),
    "repro.crawl.fetcher": ("DirectorySite",),
    "repro.crawl.resilient": (
        "CircuitBreaker",
        "CrawlBudget",
        "CrawlHealth",
        "ResilientFetcher",
        "RetryPolicy",
        "url_class",
    ),
    "repro.webdoc.html": ("extract_links",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
