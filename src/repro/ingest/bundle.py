"""Assemble template clusters into runnable site bundles.

The last ingest stage turns "a crawl, clustered by template" into the
exact shape the batch runner eats: per discovered sub-site, a chain
of list pages plus each list page's detail pages in record order.
The assembly logic follows the paper's navigation story:

1. A cluster most of whose members classify as "list" is a candidate
   list template.  Its members are chained by their "Next" links
   (chains only follow links that stay inside the cluster — a list
   page's Next never jumps templates).
2. Each chain's outgoing links are resolved against the crawl; the
   detail cluster is the template cluster that absorbs the majority
   of them.  A chain whose links scatter across many clusters is a
   portal, not a results chain, and is quarantined.
3. Per list page, the links that land in the detail cluster — in
   first-occurrence order, which is record order — become that page's
   detail pages, and the (chain, details) pair becomes a
   :class:`SiteBundle`.

**Nothing is dropped silently.**  Every input page ends the run
either inside a bundle or in the quarantine list with a reason
(``form`` / ``portal`` / ``short-chain`` / ``thin-list`` / ``orphan``
/ ``decoy`` / ``unlinked`` / ``duplicate-url``), the counts reconcile
by construction, and the same accounting is exported as ``ingest.*``
counters and a quarantine manifest for offline inspection.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro._atomic import write_atomic
from repro.ingest.classify import DETAIL, LIST, classify_profiles
from repro.ingest.cluster import (
    ClusterConfig,
    TemplateCluster,
    cluster_profiles,
)
from repro.ingest.fingerprint import PageProfile, ShingleSpace, profile_pages
from repro.obs import Observability, current
from repro.webdoc.page import Page
from repro.webdoc.store import MANIFEST_NAME, plain_name, save_sample

__all__ = [
    "IngestConfig",
    "IngestReport",
    "QuarantinedPage",
    "SiteBundle",
    "bundle_dirs",
    "ingest_pages",
    "page_fingerprint",
    "write_bundles",
]

INGEST_MANIFEST_NAME = "ingest_manifest.json"

#: Quarantine reasons, in the order the manifest reports them.
QUARANTINE_REASONS = (
    "duplicate-url",  # second page with an already-seen URL
    "form",  # search/entry page (contains a <form>)
    "portal",  # list-like page whose links scatter across templates
    "short-chain",  # a Next chain below the minimum length
    "thin-list",  # a chain page with too few resolved details
    "orphan",  # structurally unique page (singleton cluster)
    "decoy",  # shared template never claimed as a detail cluster
    "unlinked",  # member of a claimed detail cluster no list links to
)


#: Minimum list pages per bundle.  One-page "chains" are
#: indistinguishable from portals and link hubs.
MIN_CHAIN = 2

#: Minimum fraction of a chain's candidate detail links that must land
#: in a single cluster.  Real list pages concentrate (every row is the
#: same template); portals scatter.
CONCENTRATION = 0.5


@dataclass(frozen=True)
class IngestConfig:
    """The front door's settable thresholds (``repro ingest`` flags).

    Attributes:
        cluster: template-cluster thresholds (``--join-threshold``,
            ``--merge-threshold``).
        min_details: minimum detail pages per list page
            (``--min-details``).
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    min_details: int = 2


@dataclass
class SiteBundle:
    """One discovered sub-site, in batch-runner shape.

    ``name`` is the stem of the chain head's file name, or the whole
    file name when the stem is ``.`` or ``..`` (``\\`` separates path
    segments as ``/`` does, as browsers read it): a plain child name of
    the output directory, unique per bundle by construction.
    """

    name: str
    list_pages: list[Page]
    detail_pages_per_list: list[list[Page]]
    list_cluster_id: int
    detail_cluster_id: int

    @property
    def page_count(self) -> int:
        return len(self.list_pages) + sum(
            len(details) for details in self.detail_pages_per_list
        )

    def page_urls(self) -> list[str]:
        urls = [page.url for page in self.list_pages]
        for details in self.detail_pages_per_list:
            urls.extend(page.url for page in details)
        return urls

    def entry(self) -> dict:
        """The bundle's ingest-manifest entry."""
        return {
            "name": self.name,
            "list_pages": [page.url for page in self.list_pages],
            "detail_counts": [
                len(details) for details in self.detail_pages_per_list
            ],
            "pages": self.page_urls(),
        }


@dataclass(frozen=True)
class QuarantinedPage:
    """One page the bundler refused, and why."""

    url: str
    reason: str


def page_fingerprint(html: str) -> str:
    """Content identity of one page: SHA-256 of its UTF-8 bytes.

    This is the unit of change detection for the whole lifecycle
    (fetch snapshots, incremental re-ingest, store/wrapper
    invalidation): a page whose bytes did not change cannot have
    changed its template, its links or its records, so everything
    derived from it is still valid.
    """
    return hashlib.sha256(html.encode("utf-8")).hexdigest()


class PageAccounting:
    """The page accounting a full and an incremental report share.

    A subclass has ``page_count``, ``bundled_page_count``,
    ``quarantined``, ``fingerprints`` and ``crawl_health``.
    """

    def reconciles(self) -> bool:
        """Every input page bundled or quarantined, no double counting."""
        return self.bundled_page_count + len(self.quarantined) == self.page_count

    def quarantine_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for page in self.quarantined:
            counts[page.reason] = counts.get(page.reason, 0) + 1
        return dict(
            sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        )

    def _summary(
        self, clusters: int, bundles: list[dict], diff: dict | None
    ) -> dict:
        """The manifest keys both reports write."""
        return {
            "pages": self.page_count,
            "clusters": clusters,
            "bundled": self.bundled_page_count,
            "quarantined": len(self.quarantined),
            "reconciled": self.reconciles(),
            "quarantine_counts": self.quarantine_counts(),
            "bundles": bundles,
            "quarantine": [
                {"url": page.url, "reason": page.reason}
                for page in self.quarantined
            ],
            "fingerprints": dict(sorted(self.fingerprints.items())),
            "crawl_health": self.crawl_health,
            "diff": diff,
        }


@dataclass
class IngestReport(PageAccounting):
    """The full, reconciled outcome of one ingest run.

    Beyond the page accounting, the report carries the lifecycle
    context of the run: per-page content fingerprints (so the *next*
    ingest of the same crawl can diff against this one — see
    :mod:`repro.ingest.diff`) and, for fetch-driven runs, the
    :class:`~repro.crawl.resilient.CrawlHealth` in JSON-ready form so
    a degraded crawl is visible in the manifest instead of silent.
    """

    page_count: int
    cluster_count: int
    bundles: list[SiteBundle]
    quarantined: list[QuarantinedPage]
    fingerprints: dict[str, str] = field(default_factory=dict)
    crawl_health: dict | None = None

    @property
    def bundled_page_count(self) -> int:
        return sum(bundle.page_count for bundle in self.bundles)

    def as_dict(self) -> dict:
        """JSON-ready summary (the quarantine manifest's schema).

        A full ingest has no diff, but the key is always present, for
        schema stability with incremental runs (see ingest/diff.py).
        """
        return self._summary(
            self.cluster_count, [bundle.entry() for bundle in self.bundles], None
        )


def ingest_pages(
    pages: list[Page],
    config: IngestConfig | None = None,
    obs: Observability | None = None,
) -> IngestReport:
    """Run the whole front door over a crawl of arbitrary pages.

    Fingerprint → classify → cluster → bundle, with every stage timed
    under an ``ingest.*`` span and the page accounting exported as
    ``ingest.*`` counters.  The result reconciles by construction:
    every input page is in exactly one bundle or the quarantine list.
    """
    config = config or IngestConfig()
    obs = obs or current()

    with obs.span("ingest.run", pages=len(pages)) as run_span:
        unique_pages, duplicates = _drop_duplicate_urls(pages)

        with obs.span("ingest.fingerprint", pages=len(unique_pages)) as span:
            space = ShingleSpace()
            profiles = profile_pages(unique_pages, space)
            span.attributes["shingles"] = len(space)

        with obs.span("ingest.classify") as span:
            kinds = classify_profiles(profiles)
            for kind in (LIST, DETAIL, "other"):
                span.attributes[kind] = kinds.count(kind)

        with obs.span("ingest.cluster") as span:
            clusters = cluster_profiles(profiles, config.cluster)
            span.attributes["clusters"] = len(clusters)

        with obs.span("ingest.bundle") as span:
            bundles, quarantined = _assemble(
                unique_pages, profiles, kinds, clusters, config
            )
            span.attributes["bundles"] = len(bundles)

        quarantined.extend(duplicates)
        report = IngestReport(
            page_count=len(pages),
            cluster_count=len(clusters),
            bundles=bundles,
            quarantined=quarantined,
            fingerprints={
                page.url: page_fingerprint(page.html)
                for page in unique_pages
            },
        )
        run_span.attributes["bundles"] = len(bundles)
        run_span.attributes["quarantined"] = len(quarantined)

        obs.counter("ingest.pages").inc(len(pages))
        obs.counter("ingest.clusters").inc(len(clusters))
        obs.counter("ingest.bundles").inc(len(bundles))
        obs.counter("ingest.pages.bundled").inc(report.bundled_page_count)
        obs.counter("ingest.pages.quarantined").inc(len(quarantined))
        for reason, count in report.quarantine_counts().items():
            obs.counter(f"ingest.quarantine.{reason}").inc(count)

    return report


def _drop_duplicate_urls(
    pages: list[Page],
) -> tuple[list[Page], list[QuarantinedPage]]:
    """Keep the first page per URL; quarantine later duplicates."""
    unique: list[Page] = []
    seen: set[str] = set()
    duplicates: list[QuarantinedPage] = []
    for page in pages:
        if page.url in seen:
            duplicates.append(QuarantinedPage(page.url, "duplicate-url"))
        else:
            seen.add(page.url)
            unique.append(page)
    return unique, duplicates


def _list_dominant(cluster: TemplateCluster, kinds: list[str]) -> bool:
    """Most members classify as list pages."""
    list_members = sum(1 for i in cluster.members if kinds[i] == LIST)
    return list_members * 2 > len(cluster.members)


def _chains(
    cluster: TemplateCluster,
    profiles: list[PageProfile],
    url_to_index: dict[str, int],
) -> list[list[int]]:
    """Next-chains inside one cluster, in first-member order.

    A chain head is a member no other member's Next link targets;
    each head's chain follows Next links while they resolve inside
    the cluster.  Cycles (a → b → a leaves no head) are broken by
    treating the earliest unvisited member as a head, so every member
    lands in exactly one chain.
    """
    members = set(cluster.members)
    next_of: dict[int, int] = {}
    targets: set[int] = set()
    for i in cluster.members:
        next_url = profiles[i].next_url
        if next_url is None:
            continue
        j = url_to_index.get(next_url)
        if j is not None and j in members:
            next_of[i] = j
            targets.add(j)

    chains: list[list[int]] = []
    visited: set[int] = set()
    heads = [i for i in cluster.members if i not in targets]
    # Cycle members are nobody's head; sweep them up afterwards.
    for head in heads + cluster.members:
        if head in visited:
            continue
        chain = []
        node: int | None = head
        while node is not None and node not in visited:
            visited.add(node)
            chain.append(node)
            node = next_of.get(node)
        chains.append(chain)
    return chains


def _assemble(
    pages: list[Page],
    profiles: list[PageProfile],
    kinds: list[str],
    clusters: list[TemplateCluster],
    config: IngestConfig,
) -> tuple[list[SiteBundle], list[QuarantinedPage]]:
    """Pair list chains with detail clusters; quarantine the rest."""
    url_to_index = {profile.url: i for i, profile in enumerate(profiles)}
    cluster_of: dict[int, int] = {}
    for cluster in clusters:
        for member in cluster.members:
            cluster_of[member] = cluster.cluster_id
    list_cluster_ids = {
        cluster.cluster_id
        for cluster in clusters
        if _list_dominant(cluster, kinds)
    }

    bundles: list[SiteBundle] = []
    assigned: dict[int, str] = {}  # page index -> "" (bundled) or reason
    claimed_detail_clusters: set[int] = set()

    for cluster in clusters:
        if cluster.cluster_id not in list_cluster_ids:
            continue
        for chain in _chains(cluster, profiles, url_to_index):
            outcome = _try_bundle(
                chain,
                pages,
                profiles,
                url_to_index,
                cluster_of,
                list_cluster_ids,
                assigned,
                config,
            )
            if isinstance(outcome, SiteBundle):
                outcome.list_cluster_id = cluster.cluster_id
                bundles.append(outcome)
                claimed_detail_clusters.add(outcome.detail_cluster_id)
            else:
                for i in chain:
                    assigned[i] = outcome

    quarantined: list[QuarantinedPage] = []
    for i, profile in enumerate(profiles):
        reason = assigned.get(i)
        if reason == "":
            continue  # bundled
        if reason is None:
            reason = _leftover_reason(
                i, profile, cluster_of, clusters,
                list_cluster_ids, claimed_detail_clusters,
            )
        quarantined.append(QuarantinedPage(profile.url, reason))
    return bundles, quarantined


def _try_bundle(
    chain: list[int],
    pages: list[Page],
    profiles: list[PageProfile],
    url_to_index: dict[str, int],
    cluster_of: dict[int, int],
    list_cluster_ids: set[int],
    assigned: dict[int, str],
    config: IngestConfig,
) -> SiteBundle | str:
    """Bundle one chain, or return its quarantine reason."""
    chain_set = set(chain)
    # Candidate detail links: the chain's outlinks that resolve to
    # crawled pages outside list clusters and outside the chain, and
    # are not already bundled elsewhere.
    per_page_candidates: list[list[int]] = []
    votes: dict[int, int] = {}
    total_candidates = 0
    for i in chain:
        candidates: list[int] = []
        for href in profiles[i].links:
            j = url_to_index.get(href)
            if (
                j is None
                or j in chain_set
                or assigned.get(j) == ""
                or cluster_of[j] in list_cluster_ids
            ):
                continue
            candidates.append(j)
            votes[cluster_of[j]] = votes.get(cluster_of[j], 0) + 1
            total_candidates += 1
        per_page_candidates.append(candidates)

    if total_candidates == 0:
        return "portal" if len(chain) > 1 else "short-chain"
    detail_cluster_id = min(
        votes, key=lambda cid: (-votes[cid], cid)
    )
    if votes[detail_cluster_id] / total_candidates < CONCENTRATION:
        return "portal"
    if len(chain) < MIN_CHAIN:
        return "short-chain"

    details_per_list: list[list[Page]] = []
    for candidates in per_page_candidates:
        details = [
            pages[j]
            for j in candidates
            if cluster_of[j] == detail_cluster_id
        ]
        if len(details) < config.min_details:
            return "thin-list"
        details_per_list.append(details)

    file_name = Path(profiles[chain[0]].url.replace("\\", "/")).name
    stem = Path(file_name).stem
    bundle = SiteBundle(
        name=stem if stem not in ("", ".", "..") else file_name,
        list_pages=[pages[i] for i in chain],
        detail_pages_per_list=details_per_list,
        list_cluster_id=-1,  # caller fills in
        detail_cluster_id=detail_cluster_id,
    )
    for i in chain:
        assigned[i] = ""
    for candidates in per_page_candidates:
        for j in candidates:
            if cluster_of[j] == detail_cluster_id:
                assigned[j] = ""
    return bundle


def _leftover_reason(
    i: int,
    profile: PageProfile,
    cluster_of: dict[int, int],
    clusters: list[TemplateCluster],
    list_cluster_ids: set[int],
    claimed_detail_clusters: set[int],
) -> str:
    """Why a page neither bundled nor failed with its chain."""
    if profile.has_form:
        return "form"
    cluster = clusters[cluster_of[i]]
    if len(cluster.members) == 1:
        return "orphan"
    if cluster.cluster_id in claimed_detail_clusters:
        return "unlinked"
    if cluster.cluster_id in list_cluster_ids:
        return "portal"
    return "decoy"


def write_bundles(
    report: IngestReport, out_dir: str | Path
) -> Path:
    """Materialize bundles as sample subdirectories plus a manifest.

    Each bundle becomes ``out_dir/<name>/`` in the standard sample
    layout (``sample.json`` + page files), so
    ``tasks_from_directory(out_dir)`` — and therefore ``repro
    segment-dir out_dir`` — consumes the output directly.  The
    quarantine manifest (:data:`INGEST_MANIFEST_NAME`) records the
    full accounting next to the bundles.  A full ingest replaces the
    previous generation (:func:`_write_generation`).  Returns the
    manifest path.
    """
    return _write_generation(out_dir, report.bundles, report.as_dict())


def bundle_dirs(out_dir: str | Path) -> list[str]:
    """The bundle directories under ``out_dir``, sorted by name.

    A bundle directory is a child directory holding a ``sample.json``:
    exactly what ``tasks_from_directory(out_dir)`` runs.
    """
    return sorted(
        path.parent.name
        for path in Path(out_dir).glob(f"*/{MANIFEST_NAME}")
        if path.is_file()
    )


def _write_generation(
    out_dir: str | Path, bundles: list[SiteBundle], manifest: dict
) -> Path:
    """Make ``out_dir`` hold exactly the bundles ``manifest`` lists.

    In order: a bundle name that is not plain raises ``ValueError``
    before anything is touched; each of ``bundles`` is cleared and
    written; the manifest is replaced in one rename; only then is every
    bundle directory (:func:`bundle_dirs`) the manifest does not list
    removed.  Nothing outside ``out_dir`` is written or removed: a
    symlink among its children is removed itself, never followed.
    """
    unsafe = [bundle.name for bundle in bundles if not plain_name(bundle.name)]
    if unsafe:
        raise ValueError(f"bundle names must be plain file names: {unsafe!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for bundle in bundles:
        _remove(out_dir / bundle.name)
        save_sample(
            out_dir / bundle.name,
            bundle.name,
            bundle.list_pages,
            bundle.detail_pages_per_list,
        )
    manifest_path = out_dir / INGEST_MANIFEST_NAME
    write_atomic(
        manifest_path,
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    listed = {entry["name"] for entry in manifest["bundles"]}
    for name in bundle_dirs(out_dir):
        if name not in listed:
            _remove(out_dir / name)
    return manifest_path


def _remove(path: Path) -> None:
    """Remove a child of ``out_dir``; a symlink goes, never its target."""
    if path.is_symlink():
        path.unlink()
    else:
        shutil.rmtree(path, ignore_errors=True)
