"""Wire shapes shared by the online service and the batch CLI.

One serialization vocabulary for segmentation output, used by three
consumers so they cannot drift apart:

* the service's ``POST /v1/segment`` responses
  (:mod:`repro.serve.service`);
* ``repro segment --json`` (one :class:`~repro.core.pipeline.SiteRun`
  summarized by :func:`site_run_summary`);
* ``repro segment-dir --json`` (a batch result summarized by
  :func:`batch_summary`).

Records are rendered as ``{"texts": [...], "columns": [...]}`` dicts
— the same shape whether they came from a full pipeline run
(:func:`segmentation_records`) or from a cached wrapper
(:func:`wrapped_row_records`) — which is what lets the end-to-end
service test assert byte-identical records across the cold and warm
paths.

Payload parsing for the service lives here too
(:func:`pages_from_payload`): the request schema mirrors the
``sample.json`` manifest of :mod:`repro.webdoc.store`, with inline
HTML instead of file references::

    {
      "site": "lee",
      "method": "prob",                # optional, server default else
      "pages": [
        {"list": "<html>...", "details": ["<html>...", ...]},
        ...
      ]
    }
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.core.pipeline import SiteRun
from repro.core.results import Segmentation
from repro.webdoc.page import Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wrapper.apply import WrappedRow

__all__ = [
    "PayloadError",
    "batch_summary",
    "pages_from_payload",
    "run_page_summaries",
    "segmentation_records",
    "site_run_summary",
    "wrapped_row_records",
]


class PayloadError(ValueError):
    """A request payload does not match the schema (maps to HTTP 400)."""


def segmentation_records(segmentation: Segmentation) -> list[dict[str, Any]]:
    """Pipeline records as wire dicts (assigned + attached texts)."""
    records = []
    for record in segmentation.records:
        columns = None
        if record.columns is not None:
            columns = [
                record.columns[observation.seq]
                for observation in record.observations
                if observation.seq in record.columns
            ]
        records.append({"texts": record.full_texts, "columns": columns})
    return records


def wrapped_row_records(rows: Sequence[WrappedRow]) -> list[dict[str, Any]]:
    """Wrapper-extracted rows as wire dicts (same shape as pipeline)."""
    return [{"texts": row.texts, "columns": list(row.columns)} for row in rows]


def run_page_summaries(
    run: SiteRun, timings: bool = False
) -> list[dict[str, Any]]:
    """One wire page dict per surviving list page of a ``SiteRun``.

    The single shaping of pipeline pages, shared by the service's
    ``/v1/segment`` responses, :func:`site_run_summary`, and the store
    ingester; ``timings=True`` adds the diagnostic fields the CLI
    summary carries (unassigned extracts, per-page elapsed seconds).
    """
    pages: list[dict[str, Any]] = []
    for page_run in run.pages:
        entry: dict[str, Any] = {
            "url": page_run.page.url,
            "records": segmentation_records(page_run.segmentation),
            "record_count": len(page_run.segmentation.records),
        }
        if timings:
            entry["unassigned"] = [
                observation.extract.text
                for observation in page_run.segmentation.unassigned
            ]
            entry["elapsed_s"] = round(page_run.elapsed, 6)
        pages.append(entry)
    return pages


def site_run_summary(
    run: SiteRun, elapsed_s: float | None = None
) -> dict[str, Any]:
    """JSON-ready summary of one pipeline :class:`SiteRun`."""
    summary: dict[str, Any] = {
        "method": run.method,
        "template_ok": run.template_verdict.ok,
        "whole_page_fallback": run.whole_page_fallback,
        "pages": run_page_summaries(run, timings=True),
        "record_count": sum(
            len(page_run.segmentation.records) for page_run in run.pages
        ),
    }
    if elapsed_s is not None:
        summary["elapsed_s"] = round(elapsed_s, 6)
    if run.crawl_health is not None:
        summary["crawl_health"] = run.crawl_health.as_dict()
    return summary


def batch_summary(batch: Any, method: str) -> dict[str, Any]:
    """JSON-ready summary of a :class:`~repro.runner.engine.BatchResult`."""
    sites = []
    for result in sorted(batch.results, key=lambda r: r.task_id):
        entry: dict[str, Any] = {
            "task_id": result.task_id,
            "status": result.status,
            "record_count": result.record_count,
            "duration_s": round(result.duration_s, 6),
            "pages": [
                {
                    "url": page.url,
                    # With wire entries collected (segment-dir --store)
                    # records take the structured {"texts", "columns"}
                    # shape every other consumer ships; batch workers
                    # otherwise reduce them to display strings
                    # ("r0: a | b | c") and those go out as-is.
                    "records": (
                        page.wire["records"]
                        if getattr(page, "wire", None)
                        else list(page.records)
                    ),
                    "record_count": page.record_count,
                    "unassigned": list(page.unassigned),
                    "elapsed_s": round(page.elapsed, 6),
                }
                for page in result.pages
            ],
        }
        if result.error:
            entry["error"] = result.error.strip().splitlines()[-1]
        sites.append(entry)
    summary: dict[str, Any] = {
        "method": method,
        "by_status": batch.by_status(),
        "sites": sites,
        "cache": {"hits": batch.cache_hits, "misses": batch.cache_misses},
        "skipped": len(batch.skipped),
        "interrupted": batch.interrupted,
    }
    return summary


def pages_from_payload(payload: Any) -> tuple[str, list[Page], list[list[Page]]]:
    """Parse a ``/v1/segment`` payload into pipeline inputs.

    Returns ``(site_id, list_pages, detail_pages_per_list)``.

    Raises:
        PayloadError: the payload does not match the schema.
    """
    if not isinstance(payload, dict):
        raise PayloadError("payload must be a JSON object")
    site = payload.get("site")
    if not isinstance(site, str) or not site:
        raise PayloadError('payload needs a non-empty string "site"')
    entries = payload.get("pages")
    if not isinstance(entries, list) or not entries:
        raise PayloadError('payload needs a non-empty "pages" list')
    list_pages: list[Page] = []
    details: list[list[Page]] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "list" not in entry:
            raise PayloadError(f'pages[{index}] needs a "list" HTML string')
        html = entry["list"]
        if not isinstance(html, str):
            raise PayloadError(f"pages[{index}].list must be a string")
        url = entry.get("url") or f"{site}-list{index}.html"
        list_pages.append(Page(url=str(url), html=html, kind="list"))
        entry_details = entry.get("details", [])
        if not isinstance(entry_details, list) or not all(
            isinstance(page, str) for page in entry_details
        ):
            raise PayloadError(
                f"pages[{index}].details must be a list of HTML strings"
            )
        details.append(
            [
                Page(
                    url=f"{site}-p{index}-detail{position}.html",
                    html=page,
                    kind="detail",
                )
                for position, page in enumerate(entry_details)
            ]
        )
    return site, list_pages, details
