"""Incremental re-ingest: fingerprint-diff a fresh crawl, redo less.

A site that changed three detail pages should not cost a full
re-cluster of thirteen hundred.  This module implements the diff
path of the ingest lifecycle:

1. :func:`diff_fingerprints` compares the fresh crawl's per-page
   content fingerprints against the previous ingest manifest's and
   classifies every URL as unchanged / changed / added / removed
   (:class:`CrawlDiff`);
2. :func:`plan_reingest` maps the dirty URLs onto the previous run's
   bundles.  A bundle is **stale** when any of its pages changed or
   vanished, or when a dirty page links into it (an added or edited
   page can only re-wire bundles it links to — a clean page's links
   cannot change without its bytes changing, so dirty pages' forward
   links bound the blast radius).  Stale bundles' pages, the dirty
   pages themselves, and any previously quarantined page a dirty page
   links to form the re-ingest subset; everything else is carried
   forward untouched;
3. :func:`reingest_pages` runs the normal front door over just the
   subset and merges the outcome with the carried bundles into a
   :class:`ReingestReport` that reconciles over the *whole* fresh
   crawl — carried pages + re-bundled pages + quarantined pages ==
   input pages, same invariant as a full ingest;
4. :func:`write_reingest` materializes it: rebuilt bundle directories
   are rewritten, carried ones left byte-identical on disk (the
   digest-parity guarantee), directories the merged manifest no
   longer lists are removed, and the merged manifest is itself a
   valid "previous" for the next incremental run.

The diff outcome is exported as ``ingest.diff.{unchanged, changed,
added, removed}`` counters plus ``ingest.carried.bundles`` /
``ingest.rebuilt.bundles``; stale bundle names feed
:mod:`repro.lifecycle` so store rows and cached wrappers die with
their templates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.ingest.bundle import (
    INGEST_MANIFEST_NAME,
    IngestConfig,
    IngestReport,
    PageAccounting,
    QuarantinedPage,
    _drop_duplicate_urls,
    _write_generation,
    ingest_pages,
    page_fingerprint,
)
from repro.obs import Observability, current
from repro.webdoc.html import extract_links
from repro.webdoc.page import Page

__all__ = [
    "CrawlDiff",
    "ReingestPlan",
    "ReingestReport",
    "diff_fingerprints",
    "load_previous_manifest",
    "plan_reingest",
    "reingest_pages",
    "write_reingest",
]


@dataclass(frozen=True)
class CrawlDiff:
    """URL-level outcome of comparing two crawls by content."""

    unchanged: tuple[str, ...]
    changed: tuple[str, ...]
    added: tuple[str, ...]
    removed: tuple[str, ...]

    def counts(self) -> dict[str, int]:
        """JSON-ready counter form (the ``--json`` payload's ``diff``)."""
        return {
            "unchanged": len(self.unchanged),
            "changed": len(self.changed),
            "added": len(self.added),
            "removed": len(self.removed),
        }

    @property
    def dirty(self) -> frozenset[str]:
        """URLs whose current bytes were never ingested: changed+added."""
        return frozenset(self.changed) | frozenset(self.added)


def diff_fingerprints(
    previous: dict[str, str], fresh: dict[str, str]
) -> CrawlDiff:
    """Classify every URL across two fingerprint maps (sorted output)."""
    unchanged: list[str] = []
    changed: list[str] = []
    added: list[str] = []
    for url in sorted(fresh):
        old = previous.get(url)
        if old is None:
            added.append(url)
        elif old == fresh[url]:
            unchanged.append(url)
        else:
            changed.append(url)
    removed = sorted(url for url in previous if url not in fresh)
    return CrawlDiff(
        unchanged=tuple(unchanged),
        changed=tuple(changed),
        added=tuple(added),
        removed=tuple(removed),
    )


@dataclass
class ReingestPlan:
    """What one incremental run will redo, carry, and invalidate.

    Attributes:
        diff: the URL-level crawl diff.
        reingest_urls: the re-ingest subset, in crawl order.
        carried: previous-manifest bundle entries carried forward
            verbatim (dicts with ``name`` / ``list_pages`` /
            ``detail_counts`` / ``pages``).
        carried_quarantine: previously quarantined pages still present
            and unchanged, kept with their original reasons.
        stale_bundles: bundle names invalidated by this run (their
            directories, store rows and wrappers are all stale),
            sorted.
    """

    diff: CrawlDiff
    reingest_urls: list[str]
    carried: list[dict]
    carried_quarantine: list[QuarantinedPage]
    stale_bundles: list[str]


def load_previous_manifest(out_dir: str | Path) -> dict | None:
    """The previous run's ingest manifest, if one usable for diffing.

    Returns None when the manifest is missing, unparseable, or
    predates the lifecycle fields (no per-page fingerprints / no
    per-bundle page lists) — callers fall back to a full ingest.
    """
    path = Path(out_dir) / INGEST_MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or not manifest.get("fingerprints"):
        return None
    bundles = manifest.get("bundles", [])
    if any("pages" not in entry for entry in bundles):
        return None
    return manifest


def plan_reingest(
    previous: dict,
    pages: list[Page],
    fingerprints: dict[str, str],
) -> ReingestPlan:
    """Decide the re-ingest subset (see the module docstring for why).

    Args:
        previous: the previous ingest manifest
            (:func:`load_previous_manifest`).
        pages: the fresh crawl, duplicate URLs already dropped.
        fingerprints: URL -> content fingerprint of ``pages``.
    """
    diff = diff_fingerprints(previous["fingerprints"], fingerprints)
    current_urls = set(fingerprints)
    page_by_url = {page.url: page for page in pages}

    bundle_of: dict[str, str] = {}
    for entry in previous.get("bundles", []):
        for url in entry["pages"]:
            bundle_of[url] = entry["name"]
    previous_quarantine = {
        item["url"]: item["reason"]
        for item in previous.get("quarantine", [])
    }

    # Forward links of dirty pages bound how far a change can re-wire
    # the bundle graph: only pages whose bytes changed can link (or
    # stop linking) anywhere new.
    dirty = diff.dirty
    dirty_targets: set[str] = set()
    for url in dirty:
        dirty_targets.update(extract_links(page_by_url[url].html))

    stale: set[str] = set()
    for url in list(diff.changed) + list(diff.removed):
        name = bundle_of.get(url)
        if name is not None:
            stale.add(name)
    for url in dirty_targets:
        name = bundle_of.get(url)
        if name is not None:
            stale.add(name)

    reingest: set[str] = set(dirty)
    carried: list[dict] = []
    for entry in previous.get("bundles", []):
        if entry["name"] in stale:
            reingest.update(
                url for url in entry["pages"] if url in current_urls
            )
        else:
            carried.append(entry)
    # A dirty page linking at a previously quarantined page may claim
    # it now (a new list page adopting "unlinked" details); give those
    # pages a second chance inside the subset.
    reingest.update(
        url
        for url in dirty_targets
        if url in previous_quarantine and url in current_urls
    )

    # Everything else carries forward: bundle pages stay bundled,
    # quarantined pages stay quarantined with their original reasons.
    carried_pages = {url for entry in carried for url in entry["pages"]}
    carried_quarantine = [
        QuarantinedPage(url, reason)
        for url, reason in previous_quarantine.items()
        if url in current_urls and url not in reingest
    ]
    leftovers = (
        current_urls
        - reingest
        - carried_pages
        - {page.url for page in carried_quarantine}
    )
    # Safety net: an unchanged page the previous run never accounted
    # for (foreign manifest) re-ingests rather than vanishing.
    reingest.update(leftovers)

    return ReingestPlan(
        diff=diff,
        reingest_urls=[
            page.url for page in pages if page.url in reingest
        ],
        carried=carried,
        carried_quarantine=carried_quarantine,
        stale_bundles=sorted(stale),
    )


@dataclass
class ReingestReport(PageAccounting):
    """The reconciled outcome of one incremental re-ingest.

    Same accounting contract as a full
    :class:`~repro.ingest.bundle.IngestReport` — every fresh-crawl
    page is in exactly one carried bundle, one rebuilt bundle, or the
    quarantine list — plus the lifecycle facts: the diff, what was
    carried vs rebuilt vs removed, and which bundle names downstream
    consumers must invalidate (:attr:`stale_bundles`).
    """

    page_count: int
    diff: CrawlDiff
    report: IngestReport  #: the front door's run over the subset only
    carried: list[dict]
    quarantined: list[QuarantinedPage]  #: merged: subset + carried
    stale_bundles: list[str]
    removed_bundles: list[str]
    fingerprints: dict[str, str]
    crawl_health: dict | None = None

    @property
    def carried_page_count(self) -> int:
        return sum(len(entry["pages"]) for entry in self.carried)

    @property
    def bundled_page_count(self) -> int:
        return self.carried_page_count + self.report.bundled_page_count

    @property
    def bundle_count(self) -> int:
        return len(self.carried) + len(self.report.bundles)

    @property
    def reprocessed_page_count(self) -> int:
        """Pages the front door actually re-ran (the savings metric)."""
        return self.report.page_count

    @property
    def rebuilt(self) -> list[str]:
        return [bundle.name for bundle in self.report.bundles]

    def as_dict(self) -> dict:
        """JSON-ready merged summary — a valid "previous" manifest."""
        bundles = list(self.carried) + [
            bundle.entry() for bundle in self.report.bundles
        ]
        summary = self._summary(
            self.report.cluster_count,
            sorted(bundles, key=lambda entry: entry["name"]),
            self.diff.counts(),
        )
        summary.update(
            reprocessed=self.reprocessed_page_count,
            carried=sorted(entry["name"] for entry in self.carried),
            rebuilt=sorted(self.rebuilt),
            stale_bundles=list(self.stale_bundles),
            removed_bundles=list(self.removed_bundles),
        )
        return summary


def reingest_pages(
    pages: list[Page],
    previous: dict,
    config: IngestConfig | None = None,
    obs: Observability | None = None,
) -> ReingestReport:
    """Diff ``pages`` against ``previous`` and re-ingest only the dirty part.

    The carried portion is never re-profiled, re-classified or
    re-clustered — its manifest entries ride through verbatim, which
    is what keeps carried bundle directories byte-identical on disk.
    """
    obs = obs if obs is not None else current()
    with obs.span("ingest.reingest", pages=len(pages)) as span:
        unique_pages, duplicates = _drop_duplicate_urls(pages)
        fingerprints = {
            page.url: page_fingerprint(page.html) for page in unique_pages
        }
        plan = plan_reingest(previous, unique_pages, fingerprints)
        for name in ("unchanged", "changed", "added", "removed"):
            obs.counter(f"ingest.diff.{name}").inc(
                len(getattr(plan.diff, name))
            )

        subset_urls = set(plan.reingest_urls)
        subset = [
            page for page in unique_pages if page.url in subset_urls
        ]
        if subset:
            sub_report = ingest_pages(subset, config, obs=obs)
        else:
            sub_report = IngestReport(
                page_count=0,
                cluster_count=0,
                bundles=[],
                quarantined=[],
            )
        rebuilt_names = {bundle.name for bundle in sub_report.bundles}
        removed_bundles = sorted(
            set(plan.stale_bundles) - rebuilt_names
        )
        obs.counter("ingest.carried.bundles").inc(len(plan.carried))
        obs.counter("ingest.rebuilt.bundles").inc(len(rebuilt_names))
        span.attributes["reprocessed"] = len(subset)
        span.attributes["carried"] = len(plan.carried)
        span.attributes["stale"] = len(plan.stale_bundles)

        return ReingestReport(
            page_count=len(pages),
            diff=plan.diff,
            report=sub_report,
            carried=plan.carried,
            quarantined=(
                list(sub_report.quarantined)
                + plan.carried_quarantine
                + duplicates
            ),
            stale_bundles=plan.stale_bundles,
            removed_bundles=removed_bundles,
            fingerprints=fingerprints,
            crawl_health=None,
        )


def write_reingest(
    reingest: ReingestReport, out_dir: str | Path
) -> Path:
    """Apply one incremental run to a bundle directory.

    Rebuilt bundles are rewritten, carried directories are not touched
    — their bytes are the previous run's, which is the point — the
    merged manifest replaces
    :data:`~repro.ingest.bundle.INGEST_MANIFEST_NAME`, and only then
    are the directories it no longer lists (vanished bundles) removed
    (:func:`~repro.ingest.bundle._write_generation`).  Returns the
    manifest path.
    """
    return _write_generation(out_dir, reingest.report.bundles, reingest.as_dict())
