"""The ingestion front door: from raw crawl to runnable site bundles.

Everything below this package assumes one clean list+detail site; the
paper's Section 3 vision starts from an arbitrary entry point.  This
package closes the gap: point :func:`ingest_pages` at a soup of
crawled pages and it fingerprints every page's template structure
(:mod:`~repro.ingest.fingerprint`), classifies pages as
list/detail/other (:mod:`~repro.ingest.classify`), groups them into
template clusters (:mod:`~repro.ingest.cluster`), and assembles
(list-chain, detail-cluster) pairs into batch-runner-ready bundles
with every unassignable page explicitly quarantined
(:mod:`~repro.ingest.bundle`).

The CLI front end is ``repro ingest CRAWL_DIR --out BUNDLES_DIR``;
the output feeds straight into ``repro segment-dir BUNDLES_DIR``.

Two lifecycle companions extend the directory-reading path:
:mod:`~repro.ingest.fetch` walks seed URLs through the crawl
layer's fetcher into a ``crawl.json`` snapshot (``repro ingest --fetch``),
and :mod:`~repro.ingest.diff` re-ingests only what a fingerprint
diff against the previous manifest says changed (``--incremental``),
carrying unchanged bundles forward byte-identically.
"""

from repro.ingest.bundle import (
    INGEST_MANIFEST_NAME,
    IngestConfig,
    IngestReport,
    QuarantinedPage,
    SiteBundle,
    bundle_dirs,
    ingest_pages,
    page_fingerprint,
    write_bundles,
)
from repro.ingest.classify import classify_profile, classify_profiles
from repro.ingest.cluster import ClusterConfig, TemplateCluster, cluster_profiles
from repro.ingest.diff import (
    CrawlDiff,
    ReingestPlan,
    ReingestReport,
    diff_fingerprints,
    load_previous_manifest,
    plan_reingest,
    reingest_pages,
    write_reingest,
)
from repro.ingest.fetch import (
    CRAWL_SNAPSHOT_NAME,
    FetchedCrawl,
    fetch_crawl,
    write_snapshot,
)
from repro.ingest.fingerprint import (
    PageProfile,
    ShingleSpace,
    profile_page,
    profile_pages,
)

__all__ = [
    "CRAWL_SNAPSHOT_NAME",
    "INGEST_MANIFEST_NAME",
    "ClusterConfig",
    "CrawlDiff",
    "FetchedCrawl",
    "IngestConfig",
    "IngestReport",
    "PageProfile",
    "QuarantinedPage",
    "ReingestPlan",
    "ReingestReport",
    "ShingleSpace",
    "SiteBundle",
    "TemplateCluster",
    "bundle_dirs",
    "classify_profile",
    "classify_profiles",
    "cluster_profiles",
    "diff_fingerprints",
    "fetch_crawl",
    "ingest_pages",
    "load_previous_manifest",
    "page_fingerprint",
    "plan_reingest",
    "profile_page",
    "profile_pages",
    "reingest_pages",
    "write_bundles",
    "write_reingest",
    "write_snapshot",
]
