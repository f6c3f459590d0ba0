"""Fetch-driven ingestion: walk seed URLs into a crawl snapshot.

The front door's file-reading mode assumes somebody already crawled;
this module *is* the crawl.  :func:`fetch_crawl` walks outward from
one or more seed URLs in breadth-first discovery order, pulling every
page through the crawl layer's one fetcher
(:class:`~repro.crawl.resilient.ResilientFetcher`: retries with
backoff, a request/deadline budget, circuit breakers per URL class)
so a hostile or half-dead source degrades into recorded
:class:`~repro.crawl.resilient.CrawlHealth` gaps instead of an
aborted ingest.  The budget's request ceiling also caps the crawl's
size: the frontier left when it runs out is recorded as
``budget_exhausted`` gaps.

The result is a :class:`FetchedCrawl`: pages in discovery order, a
content fingerprint per page (:func:`~repro.ingest.bundle.page_fingerprint`),
and the crawl health.  :func:`write_snapshot` persists all three as a
page directory plus a ``crawl.json`` manifest — the same manifest
name :mod:`repro.sitegen.mixed` writes, so
:func:`~repro.sitegen.mixed.load_crawl_pages` and ``repro ingest``
read a snapshot back exactly like an exported corpus, in the recorded
crawl order.

Snapshot writes are deterministic bytes: sorted JSON keys and LF-only
line endings, so the same crawl produces the same manifest on every
platform and fingerprint diffs (:mod:`repro.ingest.diff`) never see
phantom churn from serialization.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro._atomic import write_atomic
from repro.crawl.resilient import CrawlBudget, CrawlHealth, ResilientFetcher
from repro.ingest.bundle import page_fingerprint
from repro.obs import Observability, current
from repro.webdoc.html import extract_links
from repro.webdoc.page import Page

__all__ = [
    "CRAWL_SNAPSHOT_NAME",
    "FetchedCrawl",
    "fetch_crawl",
    "write_snapshot",
]

#: Snapshot manifest name — deliberately the same file name the mixed
#: corpus generator uses, so both producers feed one consumer.
CRAWL_SNAPSHOT_NAME = "crawl.json"


@dataclass
class FetchedCrawl:
    """One completed crawl: pages, content identities, health.

    Attributes:
        seeds: the URLs the walk started from, in request order.
        pages: every fetched page, in breadth-first discovery order —
            the crawl order the snapshot manifest records.
        fingerprints: URL -> content fingerprint for every fetched
            page (the diff currency of incremental re-ingest).
        health: the resilient fetcher's full account — requests,
            retries, recoveries, and a gap reason per URL given up on.
    """

    seeds: tuple[str, ...]
    pages: list[Page]
    fingerprints: dict[str, str]
    health: CrawlHealth

    @property
    def page_count(self) -> int:
        return len(self.pages)


def fetch_crawl(
    source,
    seeds: Iterable[str],
    budget: CrawlBudget | None = None,
    obs: Observability | None = None,
) -> FetchedCrawl:
    """Walk ``seeds`` breadth-first through the resilient fetcher.

    ``source`` is anything with ``fetch(url) -> Page`` — a
    :class:`~repro.crawl.fetcher.DirectorySite`, a
    :class:`~repro.sitegen.site.GeneratedSite`, or a fault-injecting
    transport wrapping either.  Every link of every fetched page is
    followed exactly once (first-occurrence order); URLs that cannot
    be obtained within policy become health gaps, never exceptions.

    Args:
        source: page source.
        seeds: starting URLs (duplicates collapsed, order kept).
        budget: request/deadline budget (unlimited when None).
        obs: observability bundle (``ingest.fetch.*`` counters plus
            the fetcher's own ``crawl.*`` accounting).
    """
    obs = obs if obs is not None else current()
    fetcher = ResilientFetcher(source, budget=budget, obs=obs)
    health = fetcher.health
    seed_list = list(dict.fromkeys(seeds))
    queue: deque[str] = deque(seed_list)
    seen: set[str] = set(seed_list)
    pages: list[Page] = []
    fingerprints: dict[str, str] = {}

    with obs.span("ingest.fetch", seeds=len(seed_list)) as span:
        while queue:
            url = queue.popleft()
            page = fetcher.try_fetch(url)
            if page is None:
                continue  # the gap and its reason are in the health
            pages.append(page)
            fingerprints[url] = page_fingerprint(page.html)
            for href in extract_links(page.html):
                if href not in seen:
                    seen.add(href)
                    queue.append(href)
        span.attributes["pages"] = len(pages)
        span.attributes["gaps"] = health.gap_count

    obs.counter("ingest.fetch.pages").inc(len(pages))
    obs.counter("ingest.fetch.gaps").inc(health.gap_count)
    return FetchedCrawl(
        seeds=tuple(seed_list),
        pages=pages,
        fingerprints=fingerprints,
        health=health,
    )


def write_snapshot(crawl: FetchedCrawl, directory: str | Path) -> Path:
    """Persist a crawl: flat page files plus the ``crawl.json`` manifest.

    The manifest records the seeds, the crawl order, a fingerprint per
    page and the crawl health — everything a later run needs to diff
    against this crawl or to re-ingest it byte-identically.  Writes
    are deterministic (sorted keys, LF-only).  Returns the manifest
    path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for page in crawl.pages:
        (directory / page.url).write_text(
            page.html, encoding="utf-8", newline="\n"
        )
    manifest = {
        "seeds": list(crawl.seeds),
        "pages": [page.url for page in crawl.pages],
        "fingerprints": dict(sorted(crawl.fingerprints.items())),
        "crawl_health": crawl.health.as_dict(),
    }
    manifest_path = directory / CRAWL_SNAPSHOT_NAME
    write_atomic(
        manifest_path,
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    return manifest_path

