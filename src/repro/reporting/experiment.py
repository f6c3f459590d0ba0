"""The corpus experiment driver.

:func:`run_corpus` reproduces the paper's main experiment: both
segmentation methods over all 12 simulated sites (two list pages
each), scored against ground truth.  Benchmarks, examples and tests
all share this driver so they report identical numbers.

The standard corpus (``corpus=None``) executes through the batch
runner (:mod:`repro.runner`): one ``eval_generated`` task per
(site, method), scheduled on ``workers`` processes and optionally
backed by the content-addressed stage cache (``cache_dir``) — the
Table 4 run parallelizes and warm-runs like any other batch, while
row order and numbers stay byte-identical to the serial loop.  A
caller-supplied corpus object (noise sweeps, ablations) cannot be
rebuilt by name inside a worker, so it runs inline — but the method
sweep still reuses upstream stages: every method shares one
per-site :class:`~repro.runner.cache.MemoryStageCache`, so the
graph's ``tokenize``/``template``/``extracts``/``observations``
stages compute once per site and only ``segment`` (whose cache key
includes the method and its config) runs per method.  Rows are
re-emitted in method-major order, so sharing changes no output.
"""

from __future__ import annotations

from repro.core.config import PipelineConfig
from repro.core.pipeline import SegmentationPipeline
from repro.reporting.aggregate import (
    ExperimentResult,
    PageResult,
    page_results,
)
from repro.runner.cache import MemoryStageCache
from repro.sitegen.corpus import Corpus, build_corpus

__all__ = ["run_corpus", "run_site"]


def run_site(
    site,
    method: str,
    config: PipelineConfig | None = None,
    cache=None,
) -> list[PageResult]:
    """Run one method over one generated site; one row per list page.

    Args:
        cache: optional stage cache (disk or memory) the pipeline's
            stage graph consults; pass the same instance across
            methods to reuse method-independent upstream stages.
    """
    pipeline = SegmentationPipeline(method, config, cache=cache)
    return page_results(site, method, pipeline.segment_generated_site(site))


def _run_standard_corpus(
    methods: tuple[str, ...],
    config: PipelineConfig | None,
    workers: int,
    cache_dir: str | None,
) -> ExperimentResult:
    """The standard 12 sites through the batch runner."""
    from repro.runner import BatchRunner, RunnerConfig, SiteTask
    from repro.sitegen.corpus import TABLE4_ORDER

    tasks = [
        SiteTask(
            task_id=f"{name}:{method}",
            kind="eval_generated",
            spec=name,
            method=method,
        )
        for method in methods
        for name in TABLE4_ORDER
    ]
    runner = BatchRunner(
        RunnerConfig(workers=workers, cache_dir=cache_dir, pipeline=config)
    )
    batch = runner.run(tasks)
    rows_by_task = {result.task_id: result for result in batch.results}
    result = ExperimentResult()
    for task in tasks:  # deterministic row order, whatever finished first
        task_result = rows_by_task.get(task.task_id)
        if task_result is None or task_result.status == "failed":
            detail = task_result.error if task_result else "task not run"
            raise RuntimeError(
                f"experiment task {task.task_id} failed: {detail}"
            )
        for row in task_result.payload:
            result.add(row)
    return result


def run_corpus(
    corpus: Corpus | None = None,
    methods: tuple[str, ...] = ("prob", "csp"),
    config: PipelineConfig | None = None,
    workers: int = 1,
    cache_dir: str | None = None,
) -> ExperimentResult:
    """Run the full Table 4 experiment.

    Args:
        corpus: a rendered corpus; defaults to the standard 12 sites,
            which then execute through the batch runner.
        methods: which segmenters to evaluate.
        config: shared pipeline configuration.
        workers: process-pool width for the standard corpus (1 runs
            inline; ignored for a caller-supplied corpus).
        cache_dir: optional stage-cache root for the standard corpus.
    """
    if corpus is None:
        return _run_standard_corpus(
            tuple(methods), config, workers, cache_dir
        )
    # Site-major execution so each site's upstream stages are computed
    # once and shared across methods; rows are then emitted in the
    # method-major order the serial loop always produced.
    rows_by_cell: dict[tuple[str, int], list[PageResult]] = {}
    for site_index, site in enumerate(corpus.sites):
        site_cache = MemoryStageCache()
        for method in methods:
            rows_by_cell[(method, site_index)] = run_site(
                site, method, config, cache=site_cache
            )
    result = ExperimentResult()
    for method in methods:
        for site_index in range(len(corpus.sites)):
            for row in rows_by_cell[(method, site_index)]:
                result.add(row)
    return result
