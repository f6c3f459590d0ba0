"""Cross-layer invalidation: one notion of freshness for the system.

Every downstream layer caches something derived from a site's
template: the relational store holds its segmented rows, the serving
registry holds its induced wrapper (in memory and on disk).  When an
ingest replaces or removes a bundle directory, or incremental
re-ingest (:mod:`repro.ingest.diff`) declares a bundle stale — its
pages changed, vanished, or got re-wired — those derived artifacts
are wrong *now*, whether or not anything re-segments later.

:func:`invalidate_consumers` is the single place that knowledge
propagates from.  For every stale site id it:

* drops the store rows via
  :meth:`~repro.store.db.RelationalStore.remove_site` (cascading
  cells / columns / site row, orphaned catalog attributes pruned), so
  ``/query`` stops returning data from a dead template immediately;
* invalidates the cached wrapper for every method via
  :meth:`~repro.serve.registry.WrapperRegistry.invalidate` with
  ``disk=True``, so neither this process nor a restarted one can
  serve with a wrapper induced from the old template.

Both consumers are optional — batch users may have no store, offline
users no registry — and invalidating a site nobody ever ingested is
a no-op, so re-ingest drivers call this unconditionally for every
stale bundle.  The outcome is returned as an
:class:`InvalidationReport` and booked under ``lifecycle.*``
counters; ``docs/ingestion.md`` carries the full what-changed →
what-is-dropped matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import METHODS
from repro.obs import Observability, current

__all__ = ["InvalidationReport", "invalidate_consumers"]


@dataclass
class InvalidationReport:
    """What one invalidation pass actually dropped.

    Attributes:
        sites: the stale site ids processed, sorted.
        store: summed per-table delete counts from
            :meth:`~repro.store.db.RelationalStore.remove_site`
            (None when no store was wired).
        store_sites_removed: sites that actually had store rows.
        wrappers_invalidated: (site, method) wrapper entries dropped
            from the registry, either tier.
    """

    sites: tuple[str, ...]
    store: dict[str, int] | None = None
    store_sites_removed: int = 0
    wrappers_invalidated: int = 0
    errors: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "store": self.store,
            "store_sites_removed": self.store_sites_removed,
            "wrappers_invalidated": self.wrappers_invalidated,
            "errors": list(self.errors),
        }


def invalidate_consumers(
    site_ids: Iterable[str],
    store=None,
    registry=None,
    methods: Sequence[str] = METHODS,
    obs: Observability | None = None,
) -> InvalidationReport:
    """Drop every derived artifact of the given stale site ids.

    Args:
        site_ids: stale bundle/site names (duplicates collapsed).
            Bundle names are store site ids: ``segment-dir --store``
            keys rows by the bundle directory name.
        store: a :class:`~repro.store.db.RelationalStore` (or None).
            Store failures are collected into ``errors`` rather than
            raised — a broken store must not stop wrapper
            invalidation.
        registry: a :class:`~repro.serve.registry.WrapperRegistry`
            (or None); invalidated with ``disk=True`` per method.
        methods: the segmenter methods whose wrappers to drop.
        obs: observability bundle for the ``lifecycle.*`` counters.
    """
    from repro.store.db import StoreError  # local: store is optional

    obs = obs if obs is not None else current()
    sites = tuple(sorted(set(site_ids)))
    report = InvalidationReport(sites=sites)
    if store is not None:
        report.store = {"sites": 0, "columns": 0, "cells": 0, "attributes": 0}

    with obs.span("lifecycle.invalidate", sites=len(sites)) as span:
        for site in sites:
            if store is not None:
                try:
                    removed = store.remove_site(site)
                except StoreError as error:
                    report.errors.append(f"store: {site}: {error}")
                else:
                    for key, count in removed.items():
                        report.store[key] += count
                    if removed["sites"]:
                        report.store_sites_removed += 1
            if registry is not None:
                for method in methods:
                    if registry.invalidate(site, method, disk=True):
                        report.wrappers_invalidated += 1
        span.attributes["store_sites"] = report.store_sites_removed
        span.attributes["wrappers"] = report.wrappers_invalidated

    obs.counter("lifecycle.sites").inc(len(sites))
    if report.store_sites_removed:
        obs.counter("lifecycle.store_sites_removed").inc(
            report.store_sites_removed
        )
    if report.wrappers_invalidated:
        obs.counter("lifecycle.wrappers_invalidated").inc(
            report.wrappers_invalidated
        )
    return report
