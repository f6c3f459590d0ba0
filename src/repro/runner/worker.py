"""The function a batch worker executes, and its task-kind handlers.

:func:`execute_task` is the single entry point the engine submits to
the process pool (it must stay a module-level function: the ``spawn``
start method imports this module in the child and pickles only the
:class:`~repro.runner.tasks.SiteTask` and a few plain arguments).  It
builds a fresh per-worker :class:`~repro.obs.Observability` bundle and
an optional :class:`~repro.runner.cache.StageCache`, dispatches on the
task kind, and reduces the pipeline's output to a picklable
:class:`~repro.runner.tasks.TaskResult` — including the worker
registry's snapshot, which the engine merges into the parent's
metrics so a parallel run profiles exactly like a serial one.

Workers execute stages through the shared stage graph
(:data:`repro.core.pipeline.PIPELINE_GRAPH`), which loads a stage's
dependencies only when the stage misses the cache.  Every page is
bound to the ``tokenize`` stage
(:func:`~repro.core.pipeline.bind_token_cache`), and store-bound runs
(``collect_wire``) take their column names from the ``detail_fields``
stage.  A warm site therefore reads one ``template`` entry, then one
``segment`` and one ``detail_fields`` entry per list page.

Every spawned worker pays for this module's imports at start-up, so
it imports only the pipeline core.  The layers one task kind needs
(sample loading, the simulator, scoring, store wiring) are imported
inside their handlers, and the pipeline imports a method's segmenter
when it first segments.

Failures never escape: any exception becomes a ``failed`` result
carrying the traceback, so one broken site cannot take down the
batch (the process-pool analogue of the resilient pipeline's
quarantine semantics).
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path
from typing import Any

from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    DEGRADED_META,
    SegmentationPipeline,
    SiteRun,
    bind_token_cache,
)
from repro.obs import Observability
from repro.runner.cache import StageCache
from repro.runner.tasks import PageOutcome, SiteTask, TaskResult
from repro.webdoc.page import Page

__all__ = ["execute_task"]


def _outcomes(run: SiteRun) -> tuple[list[PageOutcome], str]:
    """Reduce a :class:`SiteRun` to plain data + a site status."""
    pages: list[PageOutcome] = []
    quarantined = False
    for page_run in run.pages:
        segmentation = page_run.segmentation
        meta = segmentation.meta
        if any(key in meta for key in DEGRADED_META):
            quarantined = True
        pages.append(
            PageOutcome(
                url=page_run.page.url,
                records=[str(record) for record in segmentation.records],
                unassigned=[
                    observation.extract.text
                    for observation in segmentation.unassigned
                ],
                elapsed=page_run.elapsed,
                notes={
                    "template_ok": meta.get("template_ok"),
                    "whole_page": meta.get("whole_page"),
                    **{
                        key: meta[key]
                        for key in DEGRADED_META
                        if key in meta
                    },
                },
            )
        )
    if not run.pages:
        quarantined = True
    return pages, ("quarantined" if quarantined else "ok")


def _attach_wire(
    pages: list[PageOutcome],
    run: SiteRun,
    pipeline: SegmentationPipeline,
    details_by_url: dict[str, list[Page]],
) -> None:
    """Attach store-ready wire entries to the page outcomes.

    One serialization (``repro.serve.schema.segmentation_records``)
    and one naming pass (``repro.store.ingest.page_entry``) shared
    with the serve path, so batch ingest and online ingest write
    byte-identical store content for the same pages.  The detail-page
    labels that name the columns come from the pipeline's cached
    ``detail_fields`` stage.
    """
    from repro.serve.schema import segmentation_records
    from repro.store.ingest import page_entry

    for outcome, page_run in zip(pages, run.pages):
        records = segmentation_records(page_run.segmentation)
        details = details_by_url.get(outcome.url)
        fields = (
            pipeline.detail_fields(details) if details and records else None
        )
        outcome.wire = page_entry(outcome.url, records, fields)


def _segment(
    pipeline: SegmentationPipeline,
    list_pages: list[Page],
    details: list[list[Page]],
    collect_wire: bool,
) -> tuple[SiteRun, list[PageOutcome], str]:
    """Segment one site's sample: the body every handler shares."""
    bind_token_cache(
        list_pages + [page for group in details for page in group],
        pipeline.cache,
    )
    run = pipeline.segment_site(list_pages, details)
    pages, status = _outcomes(run)
    if collect_wire:
        _attach_wire(
            pages,
            run,
            pipeline,
            {page.url: group for page, group in zip(list_pages, details)},
        )
    return run, pages, status


def _run_sample_dir(
    task: SiteTask, pipeline: SegmentationPipeline, collect_wire: bool
) -> tuple[list[PageOutcome], str, Any]:
    from repro.webdoc.store import load_sample

    sample = load_sample(Path(task.spec))
    _, pages, status = _segment(
        pipeline,
        sample.list_pages,
        sample.detail_pages_per_list,
        collect_wire,
    )
    return pages, status, None


def _generated_sample(spec: str) -> tuple[Any, list[list[Page]]]:
    from repro.sitegen.corpus import build_site

    site = build_site(spec)
    details = [site.detail_pages(i) for i in range(len(site.list_pages))]
    return site, details


def _run_generated(
    task: SiteTask, pipeline: SegmentationPipeline, collect_wire: bool
) -> tuple[list[PageOutcome], str, Any]:
    site, details = _generated_sample(task.spec)
    _, pages, status = _segment(
        pipeline, site.list_pages, details, collect_wire
    )
    return pages, status, None


def _run_eval_generated(
    task: SiteTask, pipeline: SegmentationPipeline, collect_wire: bool
) -> tuple[list[PageOutcome], str, Any]:
    from repro.reporting.aggregate import page_results

    site, details = _generated_sample(task.spec)
    run, pages, status = _segment(
        pipeline, site.list_pages, details, collect_wire
    )
    return pages, status, page_results(site, task.method, run)


def execute_task(
    task: SiteTask,
    cache_dir: str | None = None,
    collect_trace: bool = False,
    config: PipelineConfig | None = None,
    collect_wire: bool = False,
) -> TaskResult:
    """Run one task to a :class:`TaskResult`; never raises."""
    obs = Observability(keep_spans=collect_trace)
    cache = StageCache(cache_dir, obs=obs) if cache_dir else None
    started = time.perf_counter()
    try:
        with obs.span(
            "runner.task", task=task.task_id, kind=task.kind
        ) as span:
            if task.kind == "_sleep":  # stall-watchdog test hook
                time.sleep(float(task.spec))
                pages, status, payload = [], "ok", None
            elif task.kind == "_kill":  # pool-crash test hook
                import os
                import signal

                os.kill(os.getpid(), signal.SIGKILL)
                raise AssertionError("unreachable")
            else:
                handler = {
                    "sample_dir": _run_sample_dir,
                    "generated": _run_generated,
                    "eval_generated": _run_eval_generated,
                }.get(task.kind)
                if handler is None:
                    raise ValueError(f"unknown task kind {task.kind!r}")
                pipeline = SegmentationPipeline(
                    task.method, config, obs=obs, cache=cache
                )
                pages, status, payload = handler(
                    task, pipeline, collect_wire
                )
            span.attributes["status"] = status
            span.attributes["pages"] = len(pages)
        return TaskResult(
            task_id=task.task_id,
            status=status,
            duration_s=time.perf_counter() - started,
            pages=pages,
            cache_hits=cache.stats.hits if cache else 0,
            cache_misses=cache.stats.misses if cache else 0,
            metrics=obs.metrics.as_dict(),
            trace=obs.tracer.to_dict() if collect_trace else None,
            payload=payload,
        )
    except Exception:
        return TaskResult(
            task_id=task.task_id,
            status="failed",
            duration_s=time.perf_counter() - started,
            cache_hits=cache.stats.hits if cache else 0,
            cache_misses=cache.stats.misses if cache else 0,
            metrics=obs.metrics.as_dict(),
            error=traceback.format_exc(),
        )
