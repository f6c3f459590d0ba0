"""Group fingerprinted pages into template clusters.

Pages from one template share most of their structural shingles, so
template grouping is set similarity over fingerprints.  The grouping
must satisfy two requirements from the front door's contract:

* **multi-template sites split** — a site rendering parcels with one
  template and permits with another yields two clusters, each of
  which can become its own (list chain, detail cluster) bundle;
* **near-duplicate templates merge deterministically** — two sites
  stamped from the same generator with different seeds produce
  almost-identical templates; their pages belong in one cluster, and
  which cluster survives a merge must not depend on dict order or
  timing.

The clusterer is index-fast: an inverted shingle→cluster index finds
the candidate clusters for each page in time proportional to the
page's fingerprint size, never by scanning all pages pairwise.  All
tie-breaks go to the lowest cluster id, and cluster ids follow input
order, so the result is a pure function of the input sequence.

The crawler (:class:`~repro.crawl.crawler.Crawler`) clusters the pages
one list page links to the same way and takes the largest cluster as
the detail pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ingest.fingerprint import PageProfile

__all__ = ["ClusterConfig", "TemplateCluster", "cluster_profiles"]


@dataclass(frozen=True)
class ClusterConfig:
    """Clustering thresholds.

    Attributes:
        join_threshold: minimum Jaccard similarity between a page's
            fingerprint and a cluster's shingle union for the page to
            join the cluster.  Same-template pages score 0.7+;
            different templates land well under 0.3.
        merge_threshold: minimum Jaccard similarity between two
            cluster unions for the clusters to merge in the
            near-duplicate pass.  Set above ``join_threshold``:
            merging is for templates that are *almost the same*, not
            merely related.
    """

    join_threshold: float = 0.5
    merge_threshold: float = 0.6


@dataclass
class TemplateCluster:
    """One template's pages.

    Attributes:
        cluster_id: dense id, assigned in order of first member.
        members: page indexes into the profiled crawl, input order.
        shingles: union of the members' fingerprint shingles.
    """

    cluster_id: int
    members: list[int] = field(default_factory=list)
    shingles: set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.members)


def _jaccard(shared: int, size_a: int, size_b: int) -> float:
    union = size_a + size_b - shared
    if union == 0:
        return 1.0
    return shared / union


def cluster_profiles(
    profiles: list[PageProfile], config: ClusterConfig | None = None
) -> list[TemplateCluster]:
    """Cluster a profiled crawl by template fingerprint.

    Greedy pass in input order: each page joins the best existing
    cluster at or above ``join_threshold`` (candidates found through
    the inverted index, best = highest Jaccard, ties to the lowest
    cluster id), else founds a new cluster.  A second pass merges
    near-duplicate clusters (union Jaccard at or above
    ``merge_threshold``), lower id surviving, until a fixed point.
    Cluster ids are then renumbered densely in order of each
    cluster's first member, so the output is deterministic for a
    given input sequence.
    """
    config = config or ClusterConfig()
    clusters: list[TemplateCluster] = []
    # Inverted index: shingle id -> ids of clusters containing it.
    index: dict[int, list[int]] = {}

    for page_index, profile in enumerate(profiles):
        counts: dict[int, int] = {}
        for shingle in profile.shingles:
            for cluster_id in index.get(shingle, ()):
                counts[cluster_id] = counts.get(cluster_id, 0) + 1
        best_id: int | None = None
        best_score = config.join_threshold
        for cluster_id in sorted(counts):
            score = _jaccard(
                counts[cluster_id],
                len(profile.shingles),
                len(clusters[cluster_id].shingles),
            )
            if score > best_score or (
                score == best_score and best_id is None
            ):
                best_score = score
                best_id = cluster_id
        if best_id is None:
            best_id = len(clusters)
            clusters.append(TemplateCluster(best_id))
        cluster = clusters[best_id]
        cluster.members.append(page_index)
        for shingle in profile.shingles:
            if shingle not in cluster.shingles:
                cluster.shingles.add(shingle)
                index.setdefault(shingle, []).append(best_id)

    _merge_near_duplicates(clusters, config.merge_threshold)

    survivors = [cluster for cluster in clusters if cluster.members]
    survivors.sort(key=lambda cluster: cluster.members[0])
    for new_id, cluster in enumerate(survivors):
        cluster.cluster_id = new_id
    return survivors


def _merge_near_duplicates(
    clusters: list[TemplateCluster], threshold: float
) -> None:
    """Merge cluster pairs whose shingle unions are near-identical.

    Quadratic over clusters (not pages) and iterated to a fixed
    point; lower id absorbs higher, keeping the outcome independent
    of discovery order.  Emptied clusters stay in the list (with no
    members) for the caller to drop.
    """
    merged = True
    while merged:
        merged = False
        for a in range(len(clusters)):
            if not clusters[a].members:
                continue
            for b in range(a + 1, len(clusters)):
                if not clusters[b].members:
                    continue
                shared = len(clusters[a].shingles & clusters[b].shingles)
                if shared == 0:
                    continue
                score = _jaccard(
                    shared,
                    len(clusters[a].shingles),
                    len(clusters[b].shingles),
                )
                if score >= threshold:
                    clusters[a].members.extend(clusters[b].members)
                    clusters[a].members.sort()
                    clusters[a].shingles |= clusters[b].shingles
                    clusters[b].members = []
                    clusters[b].shingles = set()
                    merged = True
