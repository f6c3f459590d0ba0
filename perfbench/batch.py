"""The two batch workloads: ``batch-cold`` and ``recrawl-incremental``.

Both drive the program through its public entry points only — the
ingest front door, the batch runner, the relational store and the
lifecycle invalidation — over a seeded ``sitegen.mixed`` crawl, and
score what comes out against the generator's truth.

``batch-cold``: every page pays the full paper pipeline with no stage
cache, so template / extraction / CSP dominate and the store only
inserts.  ``recrawl-incremental``: the timed part re-crawls
generation 1 over a directory, re-ingests against the generation-0
manifest, invalidates the stale sites' store rows and wrappers, and
re-segments every bundle against the warm stage cache — so crawl,
ingest diffing, cache hits, the store's no-op path and lifecycle do
the work, and CSP runs only on the few stale bundles.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench.measure import SpeedProbe, percentile, tail_percentile
from perfbench.tracing import ROOT_SPAN, Recorder, Tracing, layer_report, layer_self_times

#: ``batch-cold`` crawl: 40 slots of 12-record sub-sites (48 sites, about
#: 1600 pages); segmentation is most of a pass on 2 cores, and a pass
#: is short enough for a 20 s run to take the median of several.
COLD_SPEC = {"sites": 40, "records": 12}
#: ``recrawl-incremental`` crawl: the acceptance-scale 40-slot crawl
#: (48 sites, 1317 pages), smaller because its state is built per setup.
RECRAWL_SPEC = {"sites": 40}
METHOD = "csp"
#: Canned column-keyword queries, asked round-robin after the timed part.
QUERIES = ("owner", "name", "address", "value", "parcel", "owner, value")
#: Query calls after each timed pass, spread over the run; a run asks
#: at least :data:`MIN_QUERY_CALLS` (a p99 needs 1000 for 10 beyond it).
QUERIES_PER_PASS = 600
MIN_QUERY_CALLS = 1100


@dataclass
class PassResult:
    """One timed pass through the batch path."""

    seconds: float
    pages: int
    batch: Any
    store_report: Any
    checks: dict[str, bool] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)


def workers() -> int:
    return os.cpu_count() or 1


def variant_seed(seed: int, index: int) -> int:
    """The generator seed of a run's ``index``-th set-up.

    Each set-up builds its own inputs and the timed passes rotate over
    them, so one run's figures rest on several generated crawls rather
    than on the quirks of one.  The same ``--seed`` always gives the
    same variants.
    """
    return seed * 100 + index


def _truth_tables(corpus) -> dict[str, Any]:
    """List-page URL -> its ``ListPageTruth`` for every true sub-site."""
    tables = {}
    for site in corpus.sites:
        generated = corpus.generated[site.name]
        for index, url in enumerate(site.list_urls):
            tables[url] = generated.truth[index]
    return tables


def record_score(samples, corpus, pipeline):
    """The paper's Cor/InC/FN/FP totals over ``(list_pages, details)`` samples.

    Each sample is segmented by ``pipeline`` and every list page is
    scored with ``score_page`` against its generator truth.  Truth list
    pages no sample covered count as false negatives; records on pages
    with no truth count as false positives.
    """
    from repro.core.evaluation import PageScore, score_page

    tables = _truth_tables(corpus)
    total = PageScore()
    seen = set()
    for list_pages, details in samples:
        run = pipeline.segment_site(list_pages, details)
        for page_run in run.pages:
            truth = tables.get(page_run.page.url)
            if truth is None:
                total.fp += len(page_run.segmentation.records)
                continue
            seen.add(page_run.page.url)
            total = total + score_page(page_run.segmentation, truth)
    for url, truth in tables.items():
        if url not in seen:
            total.fn += len(truth.rows)
    return total


def cached_record_score(bundle_dir: Path, corpus, cache_dir: Path):
    """:func:`record_score` of a bundle directory, replayed from the
    stage cache the scored batch run filled (every stage hits)."""
    from repro.core.pipeline import SegmentationPipeline
    from repro.runner import StageCache
    from repro.webdoc.store import load_sample

    samples = (
        (sample.list_pages, sample.detail_pages_per_list)
        for sample in (load_sample(task.spec) for task in _tasks(bundle_dir))
    )
    pipeline = SegmentationPipeline(METHOD, cache=StageCache(cache_dir))
    return record_score(samples, corpus, pipeline)


def bundle_f1(corpus, bundles: list[tuple[str, list[str]]]) -> float:
    from repro.sitegen.mixed import score_bundles

    score = score_bundles(corpus.sites, bundles)
    if score.precision + score.recall == 0:
        return 0.0
    return 2 * score.precision * score.recall / (score.precision + score.recall)


def run_queries(db_path: Path, calls: int) -> tuple[list[float], int]:
    """Ask :data:`QUERIES` round-robin; (latencies s, bad answers)."""
    import repro.store as store

    latencies = []
    bad = 0
    with store.RelationalStore(db_path) as db:
        for i in range(calls):
            started = time.perf_counter()
            result = store.query_store(db, QUERIES[i % len(QUERIES)])
            latencies.append(time.perf_counter() - started)
            rows = result.rows
            if not rows or not all(row.get("site") and row.get("page") for row in rows):
                bad += 1
    return latencies, bad


def _runner(workers_n: int, cache_dir: Path | None, obs=None):
    from repro.runner import BatchRunner, RunnerConfig

    return BatchRunner(
        RunnerConfig(
            workers=workers_n,
            cache_dir=str(cache_dir) if cache_dir else None,
            collect_wire=True,
        ),
        obs=obs,
    )


# -- batch-cold ------------------------------------------------------------


class BatchCold:
    """``batch-cold``: crawl in, store rows out, nothing cached."""

    name = "batch-cold"
    setups = 3
    #: Timed passes a run makes at least, however short ``--seconds``.
    min_passes = 3

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.corpora = []

    def setup(self) -> float:
        """Generate one seeded crawl the timed passes are handed."""
        from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus

        spec = MixedCorpusSpec(seed=variant_seed(self.seed, len(self.corpora)), **COLD_SPEC)
        started = time.perf_counter()
        self.corpora.append(build_mixed_corpus(spec))
        return time.perf_counter() - started

    def run_pass(
        self, tag: str, workers_n: int, variant: int = 0, obs=None, recorder=None
    ) -> PassResult:
        import repro.ingest as ingest
        import repro.runner as runner
        import repro.store as store

        root = self.work / tag
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        pages = self.corpora[variant].pages
        span = recorder.span(ROOT_SPAN) if recorder else nullcontext()
        started = time.perf_counter()
        with span:
            report = ingest.ingest_pages(pages)
            ingest.write_bundles(report, root / "bundles")
            batch = _runner(workers_n, None, obs).run(
                runner.tasks_from_directory(root / "bundles", method=METHOD)
            )
            with store.RelationalStore(root / "store.db") as db:
                store_report = store.ingest_batch(db, batch, METHOD)
        seconds = time.perf_counter() - started
        return PassResult(
            seconds=seconds,
            pages=len(pages),
            batch=batch,
            store_report=store_report,
            checks={
                "ingest_reconciles": report.reconciles(),
                "tasks_ok": batch.ok,
                "store_inserted_every_site": store_report.sites == len(report.bundles),
            },
            extra={
                "bundles": [(b.name, b.page_urls()) for b in report.bundles],
                "ingest": report,
                "root": root,
                "variant": variant,
            },
        )

    def score(self, last: PassResult) -> tuple[float, float, dict[str, bool]]:
        """(bundle_f1, record_f1, checks) from an untimed scoring run."""
        root = last.extra["root"]
        cache = self.work / "score-cache"
        shutil.rmtree(cache, ignore_errors=True)
        corpus = self.corpora[last.extra["variant"]]
        scored = _runner(workers(), cache).run(_tasks(root / "bundles"))
        total = cached_record_score(root / "bundles", corpus, cache)
        checks = {
            "scoring_run_ok": scored.ok,
            "scoring_digest_matches": scored.digest() == last.batch.digest(),
        }
        return bundle_f1(corpus, last.extra["bundles"]), total.f_measure, checks

    @staticmethod
    def page_sample(task_result) -> bool:
        """Every page is a segment-latency sample (nothing is cached)."""
        return True

    def unaccounted(self, result: PassResult) -> int:
        report = result.extra["ingest"]
        return report.page_count - report.bundled_page_count - len(report.quarantined)

    def inputs(self) -> dict[str, list[int]]:
        return {
            "pages": [c.page_count for c in self.corpora],
            "true_sites": [len(c.sites) for c in self.corpora],
        }

    def layer_counts(self, result: PassResult) -> dict[str, float]:
        report = result.extra["ingest"]
        return {
            "ingest.pages": report.page_count,
            "ingest.clusters": report.cluster_count,
            "ingest.bundles": len(report.bundles),
            "ingest.quarantined": len(report.quarantined),
            "ingest.reprocess_ratio": 1.0,
        }


def _tasks(bundle_dir: Path):
    from repro.runner import tasks_from_directory

    return tasks_from_directory(bundle_dir, method=METHOD)


# -- recrawl-incremental ---------------------------------------------------


class RecrawlIncremental:
    """``recrawl-incremental``: generation 1 against generation-0 state."""

    name = "recrawl-incremental"
    setups = 3
    min_passes = 3

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.states: list[Path] = []
        self.gen1 = []
        self.reference = []

    def setup(self) -> float:
        """Build one generation-0 state the timed passes start from.

        A gen-1 crawl snapshot directory (the site the timed crawl
        reads), a full gen-0 ingest with bundle dirs and manifest, a
        gen-0 segment run that fills the stage cache, the store it
        populates, and a wrapper induced and cached per site.
        """
        import repro.ingest as ingest
        import repro.store as store
        from repro.core.pipeline import SegmentationPipeline
        from repro.runner import StageCache
        from repro.serve.registry import WrapperRegistry
        from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus, write_crawl
        from repro.webdoc.store import load_sample
        from repro.wrapper.induce import induce_wrapper

        seed = variant_seed(self.seed, len(self.states))
        state = self.work / f"gen0-{len(self.states)}"
        started = time.perf_counter()
        gen0 = build_mixed_corpus(MixedCorpusSpec(seed=seed, **RECRAWL_SPEC))
        gen1 = build_mixed_corpus(MixedCorpusSpec(seed=seed, generation=1, **RECRAWL_SPEC))
        write_crawl(gen1, state / "site")
        report = ingest.ingest_pages(gen0.pages)
        ingest.write_bundles(report, state / "bundles")
        batch = _runner(workers(), state / "cache").run(_tasks(state / "bundles"))
        if not batch.ok:
            raise RuntimeError(f"generation-0 segment run failed: {batch.by_status()}")
        with store.RelationalStore(state / "store.db") as db:
            store.ingest_batch(db, batch, METHOD)
        registry = WrapperRegistry(cache=StageCache(state / "wrappers"))
        pipeline = SegmentationPipeline(METHOD, cache=StageCache(state / "cache"))
        for task in _tasks(state / "bundles"):
            sample = load_sample(task.spec)
            run = pipeline.segment_site(sample.list_pages, sample.detail_pages_per_list)
            page = next((p for p in run.pages if p.segmentation.records), None)
            if page is not None:
                registry.put(task.task_id, METHOD, induce_wrapper(page, run.template_verdict))
        elapsed = time.perf_counter() - started
        self.states.append(state)
        self.gen1.append(gen1)
        return elapsed

    def _fresh_copy(self, tag: str, state: Path) -> Path:
        root = self.work / tag
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        for name in ("bundles", "cache", "wrappers"):
            shutil.copytree(state / name, root / name)
        shutil.copy2(state / "store.db", root / "store.db")
        return root

    def run_pass(
        self, tag: str, workers_n: int, variant: int = 0, obs=None, recorder=None
    ) -> PassResult:
        import repro.crawl as crawl
        import repro.ingest as ingest
        import repro.lifecycle as lifecycle
        import repro.store as store
        from repro.runner import StageCache
        from repro.serve.registry import WrapperRegistry

        state, gen1 = self.states[variant], self.gen1[variant]
        root = self._fresh_copy(tag, state)
        seeds = [page.url for page in gen1.pages]
        span = recorder.span(ROOT_SPAN) if recorder else nullcontext()
        started = time.perf_counter()
        with span:
            fetched = ingest.fetch_crawl(crawl.DirectorySite(state / "site"), seeds)
            previous = ingest.load_previous_manifest(root / "bundles")
            reingest = ingest.reingest_pages(fetched.pages, previous)
            ingest.write_reingest(reingest, root / "bundles")
            with store.RelationalStore(root / "store.db") as db:
                registry = WrapperRegistry(cache=StageCache(root / "wrappers"))
                invalidation = lifecycle.invalidate_consumers(
                    reingest.stale_bundles, store=db, registry=registry
                )
                batch = _runner(workers_n, root / "cache", obs).run(_tasks(root / "bundles"))
                store_report = store.ingest_batch(db, batch, METHOD)
        seconds = time.perf_counter() - started

        merged = {entry["name"]: entry["pages"] for entry in reingest.carried}
        for bundle in reingest.report.bundles:
            merged[bundle.name] = bundle.page_urls()
        carried = len(reingest.carried)
        return PassResult(
            seconds=seconds,
            pages=len(gen1.pages),
            batch=batch,
            store_report=store_report,
            checks={
                "every_page_fetched": fetched.page_count == len(gen1.pages),
                "ingest_reconciles": reingest.reconciles(),
                "tasks_ok": batch.ok,
                "merged_equals_from_scratch": merged == self.reference[variant],
                "carried_sites_unchanged": store_report.unchanged == carried
                and store_report.sites == len(reingest.rebuilt),
                "invalidation_clean": not invalidation.errors,
            },
            extra={
                "bundles": sorted(merged.items()),
                "fetched": fetched,
                "reingest": reingest,
                "invalidation": invalidation,
                "root": root,
                "variant": variant,
            },
        )

    def prepare_reference(self) -> None:
        """From-scratch gen-1 bundle sets (outside every timed part)."""
        import repro.ingest as ingest

        self.reference = [
            {b.name: b.page_urls() for b in ingest.ingest_pages(gen1.pages).bundles}
            for gen1 in self.gen1
        ]

    def score(self, last: PassResult) -> tuple[float, float, dict[str, bool]]:
        root, gen1 = last.extra["root"], self.gen1[last.extra["variant"]]
        total = cached_record_score(root / "bundles", gen1, root / "cache")
        return bundle_f1(gen1, last.extra["bundles"]), total.f_measure, {}

    @staticmethod
    def page_sample(task_result) -> bool:
        """Segment latency is sampled on the sites served from the cache.

        The few stale sites a seed happens to churn are recomputed on
        another time scale; their tail would make the figure a property
        of the seed.  ``cold_p50_ms`` still counts every site.
        """
        return not task_result.cache_misses

    def unaccounted(self, result: PassResult) -> int:
        reingest = result.extra["reingest"]
        gen1 = self.gen1[result.extra["variant"]]
        missing = len(gen1.pages) - result.extra["fetched"].page_count
        unreconciled = (
            reingest.page_count
            - reingest.bundled_page_count
            - len(reingest.quarantined)
        )
        return missing + abs(unreconciled)

    def inputs(self) -> dict[str, list[int]]:
        return {
            "pages": [g.page_count for g in self.gen1],
            "true_sites": [len(g.sites) for g in self.gen1],
        }

    def layer_counts(self, result: PassResult) -> dict[str, float]:
        fetched = result.extra["fetched"]
        reingest = result.extra["reingest"]
        invalidation = result.extra["invalidation"]
        return {
            "crawl.requests": fetched.health.requests,
            "crawl.retries": fetched.health.retries,
            "crawl.gaps": fetched.health.gap_count,
            "ingest.pages": reingest.page_count,
            "ingest.clusters": reingest.report.cluster_count,
            "ingest.bundles": reingest.bundle_count,
            "ingest.quarantined": len(reingest.quarantined),
            "ingest.reprocess_ratio": reingest.reprocessed_page_count
            / reingest.page_count,
            "lifecycle.sites_removed": invalidation.store_sites_removed,
            "lifecycle.wrappers_invalidated": invalidation.wrappers_invalidated,
        }


WORKLOADS: dict[str, Callable[[int, Path], Any]] = {
    BatchCold.name: BatchCold,
    RecrawlIncremental.name: RecrawlIncremental,
}


# -- the run ---------------------------------------------------------------


def measure(workload, seconds: float) -> dict[str, Any]:
    """The untraced run: repeat the timed pass for ``seconds``.

    A :class:`SpeedProbe` samples the machine's speed all through the
    run; every set-up, pass and batch of queries has its times scaled
    by the speed over it.  The unscaled figures go to the run block.
    """
    clock = time.perf_counter
    setup_windows, raw_setups = [], []
    pass_windows: list[tuple[float, float]] = []
    query_batches: list[tuple[list[float], float, float]] = []
    passes: list[PassResult] = []
    bad_queries = 0

    def ask(db_path: Path, calls: int) -> None:
        nonlocal bad_queries
        started = clock()
        latencies, bad = run_queries(db_path, calls)
        query_batches.append((latencies, started, clock()))
        bad_queries += bad

    with SpeedProbe(workload.work / "speed.log") as probe:
        for _ in range(workload.setups):
            gc.collect()  # the previous set-up's garbage is not this one's cost
            started = clock()
            raw_setups.append(workload.setup())
            setup_windows.append((started, clock()))
        if hasattr(workload, "prepare_reference"):
            workload.prepare_reference()
        deadline = clock() + seconds
        while len(passes) < workload.min_passes or clock() < deadline:
            if passes:
                shutil.rmtree(passes[-1].extra["root"], ignore_errors=True)
            variant = len(passes) % workload.setups
            started = clock()
            passes.append(workload.run_pass(f"pass{len(passes)}", workers(), variant))
            pass_windows.append((started, clock()))
            ask(passes[-1].extra["root"] / "store.db", QUERIES_PER_PASS)
        last = passes[-1]
        asked = sum(len(batch) for batch, _, _ in query_batches)
        if asked < MIN_QUERY_CALLS:
            ask(last.extra["root"] / "store.db", MIN_QUERY_CALLS - asked)
    speeds = [probe.speed(*window) for window in pass_windows]
    setups = [t * probe.speed(*w) for t, w in zip(raw_setups, setup_windows)]
    raw_query_s = [t for batch, _, _ in query_batches for t in batch]
    query_s = [t * probe.speed(a, b) for batch, a, b in query_batches for t in batch]
    bundle, record, score_checks = workload.score(last)

    checks: dict[str, bool] = {}
    for result in passes:
        for name, ok in result.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks.update(score_checks)
    digests = {(p.extra["variant"], p.batch.digest()) for p in passes}
    checks["passes_deterministic"] = len(digests) == len({p.extra["variant"] for p in passes})
    checks["queries_answered_with_provenance"] = bad_queries == 0

    def timed(scales: list[float], setup_s: list[float], query_s: list[float]):
        """The timed metrics, each pass's times multiplied by its scale."""
        task_s = [r.duration_s * k for p, k in zip(passes, scales) for r in p.batch.results]
        page_s = [
            page.elapsed * k
            for p, k in zip(passes, scales)
            for r in p.batch.results
            if workload.page_sample(r)
            for page in r.pages
        ]
        list_pages = [sum(len(r.pages) for r in p.batch.results) for p in passes]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "pages_per_s": (
                statistics.median(p.pages / (p.seconds * k) for p, k in zip(passes, scales)),
                "1/s",
            ),
            "cold_p50_ms": (percentile(task_s, 0.5) * 1000, "ms"),
            "segment_p50_ms": (percentile(page_s, 0.5) * 1000, "ms"),
            "query_p50_ms": (percentile(query_s, 0.5) * 1000, "ms"),
            "max_rps": (
                statistics.median(
                    n / (p.batch.wall_s * k) for n, p, k in zip(list_pages, passes, scales)
                ),
                "1/s",
            ),
        }
        return metrics, task_s, page_s, list_pages

    metrics, task_s, page_s, list_pages = timed(speeds, setups, query_s)
    metrics["bundle_f1"] = (bundle, "ratio")
    metrics["record_f1"] = (record, "ratio")
    unscaled = timed([1.0] * len(passes), raw_setups, raw_query_s)[0]
    segment_p99, segment_q = tail_percentile(page_s, 0.99)
    attempted = sum(p.pages + len(p.batch.results) for p in passes) + len(query_s)
    failed = (
        sum(workload.unaccounted(p) for p in passes)
        + sum(1 for p in passes for r in p.batch.results if r.status != "ok")
        + bad_queries
    )
    run_block = {
        "passes": len(passes),
        "pass_seconds": [round(p.seconds, 4) for p in passes],
        "setup_seconds": [round(s, 4) for s in raw_setups],
        "machine_speed": [round(s, 4) for s in speeds],
        "unscaled": {name: value for name, (value, _) in unscaled.items()},
        "inputs": {
            **workload.inputs(),
            "bundles": len(last.extra["bundles"]),
            "list_pages_per_pass": list_pages[-1],
            "queries": len(query_s),
        },
        "samples": {
            "tasks": len(task_s),
            "segment_pages": len(page_s),
            "segment_tail_quantile": segment_q,
            "segment_tail_ms": segment_p99 * 1000,
            "queries": len(query_s),
            "query_p99_ms": percentile(query_s, 0.99) * 1000,
        },
        "checks": checks,
    }
    for p in passes:
        shutil.rmtree(p.extra["root"], ignore_errors=True)
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "run": run_block,
    }


def trace(workload, seconds: float) -> dict[str, Any]:
    """The traced run: per-layer metrics from one inline traced pass.

    Three passes over the same inputs: the untraced ``nproc``-worker
    pass (digest and parallel efficiency), an untraced inline pass
    and the traced inline pass (the tracing overhead is the
    ``pages_per_s`` gap between the two inline passes).  The traced
    digest must equal the untraced parallel one.
    """
    from repro.obs import Observability

    workload.setup()
    if hasattr(workload, "prepare_reference"):
        workload.prepare_reference()
    parallel = workload.run_pass("parallel", workers())
    inline = workload.run_pass("inline", 1)
    obs = Observability(keep_spans=False)
    recorder = Recorder()
    tracing = Tracing(recorder).install()
    try:
        traced = workload.run_pass("traced", 1, obs=obs, recorder=recorder)
        query_s, bad_queries = run_queries(traced.extra["root"] / "store.db", len(QUERIES) * 10)
    finally:
        tracing.restore()

    checks: dict[str, bool] = {}
    for result in (parallel, inline, traced):
        for name, ok in result.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks["traced_digest_equals_parallel"] = traced.batch.digest() == parallel.batch.digest()
    checks["queries_answered_with_provenance"] = bad_queries == 0
    layers = layer_report(recorder)
    checks["self_times_account_for_wall"] = (
        abs(layers["trace.layers_s"] + layers["trace.unaccounted_s"] - layers["trace.wall_s"])
        < 1e-6
    )

    counters = obs.metrics.as_dict()["counters"]
    batch = traced.batch
    task_s = sum(r.duration_s for r in batch.results)
    hits, misses = batch.cache_hits, batch.cache_misses
    store_report = traced.store_report
    n_workers = workers()
    per_layer: dict[str, float] = {
        "crawl.requests": 0,
        "crawl.retries": 0,
        "crawl.gaps": 0,
        "lifecycle.sites_removed": 0,
        "lifecycle.wrappers_invalidated": 0,
        **layers,
        **workload.layer_counts(traced),
        "extraction.index.probes": counters.get("extraction.index.probes", 0),
        "csp.wsat.flips": counters.get("csp.wsat.flips", 0),
        "csp.wsat.delta_evals": counters.get("csp.wsat.delta_evals", 0),
        "csp.wsat.skipped_unsat": counters.get("csp.wsat.skipped_unsat", 0),
        "csp.relaxations": counters.get("csp.relaxations", 0),
        "runner.wall_s": batch.wall_s,
        "runner.task_s": task_s,
        "runner.cache_hits": hits,
        "runner.cache_misses": misses,
        "runner.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runner.tasks_failed": sum(1 for r in batch.results if r.status != "ok"),
        "runner.parallel_efficiency": sum(r.duration_s for r in parallel.batch.results)
        / (parallel.batch.wall_s * n_workers),
        "store.rows": store_report.rows,
        "store.inserted": store_report.sites - store_report.replaced,
        "store.replaced": store_report.replaced,
        "store.unchanged": store_report.unchanged,
        "store.ingest_errors": 0,
    }
    pps = {
        "parallel": parallel.pages / parallel.seconds,
        "inline": inline.pages / inline.seconds,
        "traced": traced.pages / traced.seconds,
    }
    per_layer["trace.overhead_ratio"] = 1.0 - pps["traced"] / pps["inline"]
    runs = (parallel, inline, traced)
    attempted = sum(p.pages + len(p.batch.results) for p in runs) + len(query_s)
    failed = (
        sum(workload.unaccounted(p) for p in runs)
        + sum(1 for p in runs for r in p.batch.results if r.status != "ok")
        + bad_queries
    )
    per_layer["error_ratio"] = failed / attempted
    run_block = {
        "inputs": {**workload.inputs(), "bundles": len(traced.extra["bundles"])},
        "pages_per_s": pps,
        "parallel_speedup": pps["parallel"] / pps["inline"],
        "tracing_overhead": {
            "traced_vs_inline": per_layer["trace.overhead_ratio"],
            "traced_vs_parallel": 1.0 - pps["traced"] / pps["parallel"],
        },
        "layer_self_s": layer_self_times(recorder),
        "checks": checks,
    }
    for p in (parallel, inline, traced):
        shutil.rmtree(p.extra["root"], ignore_errors=True)
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "layers": per_layer,
        "run": run_block,
    }
