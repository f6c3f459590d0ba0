"""Site navigation: fetching, crawling, list/detail classification,
and the resilient retrieval layer (retries, budgets, circuit breaking)."""

from repro.crawl.classifier import ClassifierConfig, PageClassifier, page_similarity
from repro.crawl.crawler import (
    CrawlResult,
    Crawler,
    SiteCrawl,
    crawl_generated_site,
    crawl_site,
)
from repro.crawl.discover import (
    DiscoveredSite,
    discover_site,
    extract_links_with_text,
    follow_next_chain,
)
from repro.crawl.fetcher import DirectorySite, SiteFetcher
from repro.crawl.resilient import (
    CircuitBreaker,
    CrawlBudget,
    CrawlHealth,
    ResilientFetcher,
    RetryPolicy,
    url_class,
)
from repro.webdoc.html import extract_links

__all__ = [
    "CircuitBreaker",
    "ClassifierConfig",
    "CrawlBudget",
    "CrawlHealth",
    "CrawlResult",
    "Crawler",
    "DirectorySite",
    "DiscoveredSite",
    "PageClassifier",
    "ResilientFetcher",
    "RetryPolicy",
    "SiteCrawl",
    "SiteFetcher",
    "crawl_generated_site",
    "crawl_site",
    "discover_site",
    "extract_links",
    "extract_links_with_text",
    "follow_next_chain",
    "page_similarity",
    "url_class",
]
