"""Ingesting segmented output into the relational store.

One ingest path, two producers.  Both the batch runner and the online
service reduce a segmented site to the same **wire page entries** —
the ``{"url", "records", "record_count"}`` dicts of
:mod:`repro.serve.schema`, where every record is a
``{"texts": [...], "columns": [...]}`` dict — and hand them to
:func:`ingest_pages`:

* the batch runner's workers attach one entry per page to their
  :class:`~repro.runner.tasks.PageOutcome` (``segment-dir --store``
  collects them; :func:`ingest_batch` drains a finished
  :class:`~repro.runner.engine.BatchResult`);
* the serve path calls :func:`page_entry` on each response page right
  after answering (``repro serve --store``), so warm and cold answers
  ingest identically.

Semantic column names ride on each entry (``"names"``), computed by
:func:`page_entry` from the labels parsed off the site's detail pages
(:meth:`repro.core.pipeline.SegmentationPipeline.detail_fields`, the
pipeline's ``detail_fields`` stage) through the existing
:mod:`repro.relational` naming — the same agreement voting that names
columns in the paper's combined view.  Batch workers name their
entries before they return them, reading the stage through their
stage cache.  The serve path hands :func:`ingest_pages` unnamed
entries plus a ``detail_fields`` callback, so detail pages are parsed
only when the store writes.

Idempotence: a site's content fingerprint (canonical SHA-256 of its
wire pages' URLs and records, via
:func:`repro.runner.cache.fingerprint`) is stored on its ``sites``
row.  Re-ingesting unchanged content is a no-op
(``store.ingest.unchanged``); changed content replaces the site's
columns and cells in one transaction (``store.ingest.replaced``); a
quarantined or degraded run is never ingested
(``store.ingest.skipped``) so a broken crawl cannot poison good data.
Column names are not part of the fingerprint: content whose only
change is its detail labels reads as unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs import Observability
from repro.relational.naming import name_columns
from repro.relational.table_builder import RelationalTable
from repro.runner.cache import fingerprint
from repro.store.catalog import Catalog
from repro.store.db import RelationalStore, StoreError, now

__all__ = [
    "IngestReport",
    "ingest_batch",
    "ingest_pages",
    "page_entry",
    "site_fingerprint",
]

#: Batch statuses eligible for ingestion (mirrors the runner: only a
#: clean run's records are trusted; quarantined/failed are skipped).
INGESTIBLE_STATUSES = frozenset({"ok"})


@dataclass
class IngestReport:
    """What one ingest pass did, per site outcome."""

    sites: int = 0
    rows: int = 0
    unchanged: int = 0
    replaced: int = 0
    skipped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "sites": self.sites,
            "rows": self.rows,
            "unchanged": self.unchanged,
            "replaced": self.replaced,
            "skipped": self.skipped,
        }


def _record_cells(record: Any) -> dict[str, str]:
    """One wire record's cells, keyed ``L<column>``.

    Mirrors :func:`repro.relational.table_builder.build_table`: the
    record's column labels place each text, positions are the
    fallback, and several texts landing in one column join with
    ``" / "``.  Falls back to positions whenever the column list does
    not align with the texts (attached extracts are not labelled).
    """
    texts = record.get("texts") or []
    columns = record.get("columns")
    if not isinstance(columns, list) or len(columns) != len(texts):
        columns = list(range(len(texts)))
    cells: dict[str, str] = {}
    for column, text in zip(columns, texts):
        key = f"L{int(column)}"
        if key in cells:
            cells[key] = cells[key] + " / " + str(text)
        else:
            cells[key] = str(text)
    return cells


def _page_table(records: Sequence[Any]) -> RelationalTable:
    """Wire records as a :class:`RelationalTable` (for the namer)."""
    rows = []
    width = 0
    for index, record in enumerate(records):
        cells = _record_cells(record)
        for key in cells:
            width = max(width, int(key[1:]) + 1)
        rows.append({"_record": str(index), **cells})
    table = RelationalTable()
    table.columns = [f"L{position}" for position in range(width)]
    table.rows = rows
    return table


def page_entry(
    url: str,
    records: list[dict[str, Any]],
    fields: dict[int, dict[str, str]] | None = None,
) -> dict[str, Any]:
    """One store-ready wire page entry (the single ingest currency).

    Args:
        url: the list page's URL.
        records: wire record dicts (from
            :func:`repro.serve.schema.segmentation_records` or
            :func:`~repro.serve.schema.wrapped_row_records`).
        fields: the page's detail pages parsed into
            ``{record: {label: value}}``
            (:meth:`~repro.core.pipeline.SegmentationPipeline.detail_fields`);
            when given, columns are named through the relational layer
            and the names ride on the entry as ``{"L0": "Owner", ...}``.
    """
    entry: dict[str, Any] = {
        "url": url,
        "records": list(records),
        "record_count": len(records),
        "names": {},
    }
    if fields and records:
        entry["names"] = name_columns(_page_table(records), fields)
    return entry


def site_fingerprint(method: str, entries: Sequence[dict[str, Any]]) -> str:
    """Content identity of one site's wire pages (idempotence key)."""
    return fingerprint(
        "store-site",
        method,
        [(entry["url"], entry["records"]) for entry in entries],
    )


def ingest_pages(
    store: RelationalStore,
    site_id: str,
    method: str,
    entries: Sequence[dict[str, Any]],
    source: str = "batch",
    obs: Observability | None = None,
    detail_fields: Callable[[str], dict[int, dict[str, str]] | None]
    | None = None,
) -> str:
    """Upsert one site's wire pages; returns the outcome.

    Args:
        detail_fields: when given, parses a list page's detail pages
            (by page URL) into :func:`page_entry`'s ``fields``; it is
            called only when the store writes, for each entry with
            records, and those entries are named from its answer.

    Returns:
        ``"inserted"`` (new site), ``"replaced"`` (content changed),
        or ``"unchanged"`` (fingerprint match — a no-op).

    Raises:
        StoreError: the database refused (corrupt, locked, closed).
    """
    obs = obs if obs is not None else store.obs
    if not site_id or not entries:
        raise StoreError(f"nothing to ingest for site {site_id!r}")
    digest = site_fingerprint(method, entries)
    started = time.perf_counter()
    with obs.span("store.ingest", site=site_id, method=method):
        previous = store.site_fingerprint(site_id, method)
        if previous == digest:
            obs.counter("store.ingest.unchanged").inc()
            return "unchanged"
        if detail_fields is not None:
            entries = [
                page_entry(
                    entry["url"],
                    entry["records"],
                    detail_fields(entry["url"]) if entry["records"] else None,
                )
                for entry in entries
            ]

        # Union the site's columns across pages: first page to name a
        # column wins (page order is deterministic), positions come
        # from the column key itself.
        names: dict[str, str] = {}
        keys: set[str] = set()
        row_count = 0
        cell_rows: list[tuple[str, str, str, int, str, str]] = []
        for entry in entries:
            for key, name in (entry.get("names") or {}).items():
                names.setdefault(key, name)
            for index, record in enumerate(entry["records"]):
                row_count += 1
                for key, value in _record_cells(record).items():
                    keys.add(key)
                    cell_rows.append(
                        (site_id, method, entry["url"], index, key, value)
                    )

        columns = [
            (key, int(key[1:]), names.get(key))
            for key in sorted(keys, key=lambda k: int(k[1:]))
        ]
        catalog = Catalog(store)
        with store.transaction() as conn:
            conn.execute(
                "DELETE FROM cells WHERE site_id = ? AND method = ?",
                (site_id, method),
            )
            catalog.register_columns(site_id, method, columns)
            conn.executemany(
                "INSERT INTO cells (site_id, method, page_url,"
                " record_index, column_key, value) VALUES (?, ?, ?, ?, ?, ?)",
                cell_rows,
            )
            conn.execute(
                "INSERT OR REPLACE INTO sites (site_id, method, fingerprint,"
                " page_count, record_count, source, ingested_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    site_id, method, digest, len(entries), row_count,
                    source, now(),
                ),
            )
        obs.counter("store.ingest.sites").inc()
        obs.counter("store.ingest.rows").inc(row_count)
        obs.histogram("store.ingest.seconds").observe(
            time.perf_counter() - started
        )
        if previous is not None:
            obs.counter("store.ingest.replaced").inc()
            return "replaced"
        return "inserted"


def ingest_batch(
    store: RelationalStore,
    batch: Any,
    method: str,
    obs: Observability | None = None,
) -> IngestReport:
    """Ingest a finished :class:`~repro.runner.engine.BatchResult`.

    Only ``ok`` results whose pages carry wire entries (the runner
    collects them under ``collect_wire=True`` / ``--store``) are
    ingested; everything else books ``store.ingest.skipped``.
    """
    obs = obs if obs is not None else store.obs
    report = IngestReport()
    for result in sorted(batch.results, key=lambda r: r.task_id):
        entries = [
            page.wire for page in result.pages if page.wire is not None
        ]
        if result.status not in INGESTIBLE_STATUSES or not entries:
            obs.counter("store.ingest.skipped").inc()
            report.skipped += 1
            continue
        site_id = result.task_id.split(":", 1)[0]
        outcome = ingest_pages(
            store, site_id, method, entries, source="batch", obs=obs
        )
        if outcome == "unchanged":
            report.unchanged += 1
            continue
        report.sites += 1
        report.rows += sum(len(entry["records"]) for entry in entries)
        if outcome == "replaced":
            report.replaced += 1
    return report
