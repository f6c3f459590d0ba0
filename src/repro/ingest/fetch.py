"""Fetch-driven ingestion: walk seed URLs into a crawl snapshot.

The front door's file-reading mode assumes somebody already crawled;
this module *is* the crawl.  :func:`fetch_crawl` walks outward from
one or more seed URLs in breadth-first discovery order, pulling every
page through the resilient retrieval stack
(:class:`~repro.crawl.resilient.ResilientFetcher`: retries with
backoff, per-site budgets, circuit breakers per URL class) so a
hostile or half-dead source degrades into recorded
:class:`~repro.crawl.resilient.CrawlHealth` gaps instead of an
aborted ingest.

The result is a :class:`FetchedCrawl`: pages in discovery order, a
content fingerprint per page (:func:`~repro.ingest.bundle.page_fingerprint`),
and the crawl health.  :func:`write_snapshot` persists all three as a
page directory plus a ``crawl.json`` manifest — the same manifest
name :mod:`repro.sitegen.mixed` writes, so
:func:`~repro.sitegen.mixed.load_crawl_pages` and ``repro ingest``
consume a snapshot exactly like an exported corpus — and
:func:`load_snapshot` round-trips it (identical page order and
fingerprints; see the manifest round-trip tests).

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

from repro.crawl.resilient import (
    GAP_BUDGET,
    CircuitBreaker,
    CrawlBudget,
    CrawlHealth,
    ResilientFetcher,
    RetryPolicy,
)
from repro.ingest.bundle import page_fingerprint
from repro.obs import Observability, current
from repro.webdoc.html import extract_links
from repro.webdoc.page import Page

__all__ = [
    "CRAWL_SNAPSHOT_NAME",
    "FetchedCrawl",
    "fetch_crawl",
    "load_snapshot",
    "write_snapshot",
]

#: Snapshot manifest name — deliberately the same file name the mixed
#: corpus generator uses, so both producers feed one consumer.
CRAWL_SNAPSHOT_NAME = "crawl.json"

#: CrawlHealth fields restored by :func:`load_snapshot` (the derived
#: keys ``gap_count`` / ``recovery_rate`` are recomputed, not stored).
_HEALTH_FIELDS = (
    "requests",
    "retries",
    "recovered",
    "transient_failures",
    "gaps",
    "quarantined_pages",
    "fallbacks",
    "breaker_trips",
    "budget_exhausted",
    "simulated_elapsed_s",
)


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
    retry: RetryPolicy | None = None,
    budget: CrawlBudget | None = None,
    breaker: CircuitBreaker | None = None,
    max_pages: int | None = None,
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
        retry: retry/backoff policy (fetcher default when None).
        budget: request/deadline budget (unlimited when None).
        breaker: circuit breaker (fetcher default when None).
        max_pages: stop *discovering* after this many fetched pages;
            frontier URLs still queued are recorded as
            ``budget_exhausted`` gaps.
        obs: observability bundle (``ingest.fetch.*`` counters plus
            the fetcher's own ``crawl.*`` accounting).
    """
    obs = obs if obs is not None else current()
    health = CrawlHealth()
    fetcher = ResilientFetcher(
        source,
        retry=retry,
        budget=budget,
        breaker=breaker,
        health=health,
        obs=obs,
    )
    seed_list = list(dict.fromkeys(seeds))
    queue: deque[str] = deque(seed_list)
    seen: set[str] = set(seed_list)
    pages: list[Page] = []
    fingerprints: dict[str, str] = {}

    with obs.span("ingest.fetch", seeds=len(seed_list)) as span:
        while queue:
            if max_pages is not None and len(pages) >= max_pages:
                health.budget_exhausted = True
                for url in queue:
                    health.record_gap(url, GAP_BUDGET)
                break
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
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return manifest_path


def load_snapshot(directory: str | Path) -> FetchedCrawl:
    """Read a :func:`write_snapshot` directory back.

    Pages come back in the recorded crawl order with the recorded
    fingerprints; the health is reconstructed from its stored fields.

    Raises:
        ValueError: no manifest, or one without the snapshot keys
            (e.g. a generator truth manifest, which has no
            fingerprints to round-trip).
    """
    directory = Path(directory)
    manifest_path = directory / CRAWL_SNAPSHOT_NAME
    if not manifest_path.is_file():
        raise ValueError(f"no crawl snapshot manifest in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if "fingerprints" not in manifest:
        raise ValueError(
            f"{manifest_path} is not a fetch snapshot (no fingerprints)"
        )
    health_dict = manifest.get("crawl_health") or {}
    health = CrawlHealth(
        **{
            name: health_dict[name]
            for name in _HEALTH_FIELDS
            if name in health_dict
        }
    )
    pages = [
        Page(
            url=name,
            html=(directory / name).read_text(encoding="utf-8"),
        )
        for name in manifest["pages"]
    ]
    return FetchedCrawl(
        seeds=tuple(manifest.get("seeds", ())),
        pages=pages,
        fingerprints=dict(manifest["fingerprints"]),
        health=health,
    )
