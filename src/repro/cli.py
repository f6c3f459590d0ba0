"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro sites                     # list the corpus sites
    python -m repro segment superpages        # segment one site
    python -m repro segment ohio --method csp --page 1
    python -m repro segment lee --trace --metrics-out m.json
    python -m repro table4                    # the full experiment
    python -m repro table4 --methods prob     # one method only
    python -m repro show superpages --page 0  # dump a generated page
    python -m repro export lee ./lee_pages    # save pages + manifest
    python -m repro segment-dir ./lee_pages   # segment saved pages
    python -m repro export-corpus ./corpus    # save many sites at once
    python -m repro segment-dir ./corpus --workers 4 --cache-dir ./cache
    python -m repro segment-dir ./corpus --workers 4 --resume
    python -m repro segment lee --json        # machine-readable summary
    python -m repro serve --port 8080         # long-lived HTTP service
    python -m repro serve --procs 4           # supervised multi-process
    python -m repro --version

``segment-dir`` works on *any* directory holding saved list/detail
pages with a ``sample.json`` manifest — including pages you mirrored
from a real site — so the full pipeline is usable from the shell; the
other commands operate on the simulated corpus.  Handed a directory
*of* sample directories (the ``export-corpus`` layout) it becomes a
batch run through :mod:`repro.runner`: a worker pool
(``--workers``), a content-addressed stage cache (``--cache-dir``), a
JSONL run manifest, and ``--resume`` to finish an interrupted run.
The exit code is non-zero when any site ends quarantined or failed.

``serve`` starts the long-lived online service (:mod:`repro.serve`):
``POST /v1/segment`` answers from a per-site wrapper cache when it
can and the full pipeline when it must, with admission control and
graceful SIGTERM draining.  ``--procs N`` puts a supervising parent
in front of N crash-isolated worker processes sharing the port via
``SO_REUSEPORT``, restarting dead workers under a crash budget — see
``docs/serving.md``.  Every serving process runs
:func:`repro.serve.supervisor.run_worker`, with or without ``--procs``.

``--json`` on ``segment`` and ``segment-dir`` swaps the human output
for the machine-readable summary the service shares
(:mod:`repro.serve.schema`), so shell pipelines and the HTTP path
speak one format.

``--store DB`` on ``segment-dir`` ingests every cleanly segmented
site into a sqlite relational store (:mod:`repro.store`) after the
batch; the same flag on ``serve`` ingests online after each response.
``query`` then answers column-keyword queries over either store::

    python -m repro segment-dir ./corpus --store tables.db
    python -m repro query tables.db name charge bail
    python -m repro serve --store tables.db   # /query over HTTP too
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.config import METHODS
from repro.sitegen.corpus import SITE_BUILDERS, TABLE4_ORDER, build_corpus, build_site

__all__ = ["main", "build_parser"]


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} not in [0, 1]")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive count")
    return value


def _add_obs_flags(command: argparse.ArgumentParser) -> None:
    """Observability flags shared by the segmenting commands."""
    command.add_argument(
        "--trace",
        action="store_true",
        help="print the pipeline's span tree (per-stage durations + counts)",
    )
    command.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics registry (counters + histograms) as JSON",
    )


def _make_obs(args):
    """An Observability bundle when any obs flag is set, else None."""
    if not (args.trace or args.metrics_out):
        return None
    from repro.obs import Observability

    return Observability()


def _emit_obs(args, obs, out) -> None:
    """Print the trace / write the metrics dump as requested."""
    if obs is None:
        return
    if args.trace:
        print("-- trace " + "-" * 51, file=out)
        print(obs.tracer.render(), file=out)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.metrics.to_json() + "\n")
        print(f"metrics written to {args.metrics_out}", file=out)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Using the Structure of Web Sites for "
            "Automatic Segmentation of Tables' (SIGMOD 2004)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("sites", help="list the simulated corpus sites")

    segment = commands.add_parser("segment", help="segment one corpus site")
    segment.add_argument("site", choices=sorted(SITE_BUILDERS))
    segment.add_argument(
        "--method", choices=METHODS, default="prob", help="segmenter to run"
    )
    segment.add_argument(
        "--page", type=int, default=None, help="only this list page"
    )
    segment.add_argument(
        "--fault-rate",
        type=_rate,
        default=0.0,
        help=(
            "chaos mode: crawl the site through a fault-injecting "
            "transport with this transient-failure rate (0-1)"
        ),
    )
    segment.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault plan (chaos runs are reproducible)",
    )
    segment.add_argument(
        "--max-requests",
        type=_positive_int,
        default=None,
        help="per-site request budget for the chaos crawl",
    )
    segment.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable summary instead of the record dump",
    )
    _add_obs_flags(segment)

    table4 = commands.add_parser(
        "table4", help="run the paper's main experiment"
    )
    table4.add_argument(
        "--methods",
        nargs="+",
        choices=METHODS,
        default=["prob", "csp"],
        help="methods to evaluate",
    )
    table4.add_argument(
        "--cache-dir",
        default=None,
        help="stage-cache root; warm re-runs skip unchanged stages",
    )
    table4.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="run the experiment's sites on a process pool this wide",
    )

    export = commands.add_parser(
        "export", help="save a simulated site's pages + manifest to disk"
    )
    export.add_argument("site", choices=sorted(SITE_BUILDERS))
    export.add_argument("directory", help="output directory")

    export_corpus = commands.add_parser(
        "export-corpus",
        help="save several simulated sites as sample subdirectories",
    )
    export_corpus.add_argument("directory", help="output directory")
    export_corpus.add_argument(
        "--sites",
        nargs="+",
        choices=sorted(SITE_BUILDERS),
        default=None,
        help="sites to export (default: all 12)",
    )
    export_corpus.add_argument(
        "--mixed",
        type=_positive_int,
        default=None,
        metavar="SLOTS",
        help=(
            "export an adversarial mixed *crawl* of this many site "
            "slots instead of clean sample directories (flat pages + "
            "a crawl.json truth manifest; feed it to `repro ingest`)"
        ),
    )
    export_corpus.add_argument(
        "--seed",
        type=int,
        default=0,
        help="mixed-crawl generation seed (with --mixed)",
    )
    export_corpus.add_argument(
        "--generation",
        type=int,
        default=0,
        metavar="G",
        help=(
            "mixed-crawl churn generation (with --mixed): 0 is the "
            "base corpus, each later generation mutates K detail "
            "pages, reskins one template and adds/removes a sub-site "
            "on top of the previous one (untouched pages stay "
            "byte-identical)"
        ),
    )

    ingest = commands.add_parser(
        "ingest",
        help=(
            "turn a crawl of arbitrary mixed pages into runnable site "
            "bundles (fingerprint -> classify -> cluster -> bundle)"
        ),
    )
    ingest.add_argument(
        "directory",
        help=(
            "crawl directory: flat *.html pages, optionally with a "
            "crawl.json ordering manifest (see export-corpus --mixed)"
        ),
    )
    ingest.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help=(
            "output directory: one sample subdirectory per bundle "
            "(segment-dir ready) plus the quarantine manifest"
        ),
    )
    ingest.add_argument(
        "--min-details",
        type=_positive_int,
        default=2,
        help="minimum detail pages per list page",
    )
    ingest.add_argument(
        "--join-threshold",
        type=_rate,
        default=0.5,
        help="fingerprint similarity needed to join a template cluster",
    )
    ingest.add_argument(
        "--merge-threshold",
        type=_rate,
        default=0.6,
        help="cluster similarity at which near-duplicate templates merge",
    )
    ingest.add_argument(
        "--fetch",
        action="append",
        metavar="SEED_URL",
        default=None,
        help=(
            "fetch mode: instead of reading every *.html file, walk "
            "this seed URL through the resilient fetcher (retries, "
            "budget, circuit breaker) and ingest what the crawl "
            "reaches; repeatable for multiple seeds"
        ),
    )
    ingest.add_argument(
        "--max-requests",
        type=_positive_int,
        default=None,
        metavar="N",
        help="fetch mode: hard crawl budget in fetch requests",
    )
    ingest.add_argument(
        "--snapshot",
        metavar="DIR",
        default=None,
        help=(
            "fetch mode: also persist the fetched pages plus a "
            "crawl.json manifest (URL order, fingerprints, crawl "
            "health) to this directory for replay"
        ),
    )
    ingest.add_argument(
        "--incremental",
        action="store_true",
        help=(
            "diff page fingerprints against the previous manifest in "
            "--out and re-ingest only changed/new pages' bundles; "
            "unchanged bundles carry forward byte-identically (falls "
            "back to a full ingest when no usable manifest exists)"
        ),
    )
    ingest.add_argument(
        "--store",
        metavar="DB",
        default=None,
        help=(
            "sqlite relational store whose rows for replaced, removed "
            "or stale bundles are dropped (cascading, catalog recounted)"
        ),
    )
    ingest.add_argument(
        "--wrapper-cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "wrapper stage-cache root whose cached wrappers for "
            "replaced, removed or stale bundles are invalidated"
        ),
    )
    ingest.add_argument(
        "--json",
        action="store_true",
        help="print the full ingest report as JSON",
    )
    _add_obs_flags(ingest)

    segment_dir = commands.add_parser(
        "segment-dir",
        help=(
            "segment saved pages: one sample directory, or a corpus of "
            "sample subdirectories run as a (parallel, cached) batch"
        ),
    )
    segment_dir.add_argument("directory", help="sample or corpus directory")
    segment_dir.add_argument(
        "--method", choices=METHODS, default="prob", help="segmenter to run"
    )
    segment_dir.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="process-pool width (1 = run inline, serially)",
    )
    segment_dir.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="content-addressed stage cache; re-runs hit it",
    )
    segment_dir.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help=(
            "JSONL run manifest path (default: run_manifest.jsonl "
            "inside the corpus directory)"
        ),
    )
    segment_dir.add_argument(
        "--resume",
        action="store_true",
        help="skip tasks the manifest already records as completed",
    )
    segment_dir.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stall watchdog: give up if no site finishes for this long",
    )
    segment_dir.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable summary instead of the record dump",
    )
    segment_dir.add_argument(
        "--store",
        metavar="DB",
        default=None,
        help=(
            "ingest cleanly segmented sites into this sqlite relational "
            "store after the batch (idempotent; see `repro query`)"
        ),
    )
    _add_obs_flags(segment_dir)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived HTTP segmentation service",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="segmentation worker threads",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=8,
        help="admission-control queue depth (full queue answers 429)",
    )
    serve.add_argument(
        "--method",
        choices=METHODS,
        default="prob",
        help="default segmenter for payloads that name none",
    )
    serve.add_argument(
        "--wrapper-cache-dir",
        metavar="PATH",
        default=None,
        help="disk-backed wrapper registry (survives restarts)",
    )
    serve.add_argument(
        "--wrapper-cache-max-bytes",
        type=int,
        default=64 * 1024 * 1024,
        metavar="BYTES",
        help="LRU size bound of the wrapper cache directory",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request deadline (queued or running past it -> 504)",
    )
    serve.add_argument(
        "--drift-threshold",
        type=_rate,
        default=0.5,
        help="wrapper quality below this re-runs the pipeline (0-1)",
    )
    serve.add_argument(
        "--hung-grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help=(
            "watchdog grace past the deadline before an in-flight "
            "request is abandoned as a 504"
        ),
    )
    serve.add_argument(
        "--mem-limit-mb",
        type=int,
        default=None,
        metavar="MB",
        help="cap the process address space (RLIMIT_AS) per worker",
    )
    serve.add_argument(
        "--procs",
        type=_positive_int,
        default=1,
        help=(
            "worker processes under a supervising parent; >1 needs "
            "SO_REUSEPORT (crashed workers are restarted)"
        ),
    )
    serve.add_argument(
        "--crash-budget",
        type=int,
        default=8,
        help="worker crashes tolerated per rolling window before exit 1",
    )
    serve.add_argument(
        "--crash-window",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="rolling window the crash budget is counted over",
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="a worker silent this long is presumed wedged and killed",
    )
    serve.add_argument(
        "--chaos-plan",
        metavar="PATH",
        default=None,
        help="JSON ChaosPlan: inject worker kills / hangs / cache faults",
    )
    serve.add_argument(
        "--store",
        metavar="DB",
        default=None,
        help=(
            "sqlite relational store: ingest each response's records "
            "online and answer GET /query from it"
        ),
    )

    query = commands.add_parser(
        "query",
        help="column-keyword query over a relational store",
    )
    query.add_argument("store", help="sqlite store written by --store")
    query.add_argument(
        "keywords",
        nargs="+",
        help='column keywords, e.g. "name" "charge" "bail"',
    )
    query.add_argument(
        "--method",
        choices=METHODS,
        default=None,
        help="only tables ingested under this segmenter",
    )
    query.add_argument(
        "--limit",
        type=_positive_int,
        default=20,
        metavar="N",
        help="maximum unioned rows returned",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="print the wire-shape result the /query endpoint returns",
    )

    show = commands.add_parser("show", help="print a generated page's HTML")
    show.add_argument("site", choices=sorted(SITE_BUILDERS))
    show.add_argument("--page", type=int, default=0, help="list page index")
    show.add_argument(
        "--detail", type=int, default=None, help="detail page index instead"
    )
    return parser


def _cmd_sites(args, out) -> int:
    corpus = build_corpus()
    print(f"{'site':<14} {'domain':<12} {'records':<9} layout", file=out)
    for site in corpus.sites:
        spec = site.spec
        counts = "/".join(str(count) for count in spec.records_per_page)
        print(
            f"{spec.name:<14} {spec.domain:<12} {counts:<9} "
            f"{spec.layout.value}",
            file=out,
        )
    return 0


def _cmd_segment(args, out) -> int:
    from repro.core.evaluation import score_page
    from repro.core.pipeline import SegmentationPipeline

    site = build_site(args.site)
    obs = _make_obs(args)
    pipeline = SegmentationPipeline(args.method, obs=obs)
    if args.fault_rate > 0.0 or args.max_requests is not None:
        from repro.crawl.resilient import CrawlBudget
        from repro.sitegen.faults import FaultPlan

        run = pipeline.segment_generated_site(
            site,
            fault_plan=FaultPlan(
                seed=args.fault_seed, transient_rate=args.fault_rate
            ),
            budget=CrawlBudget(max_requests=args.max_requests),
        )
    else:
        run = pipeline.segment_generated_site(site)
    truth_by_url = {
        site.list_pages[truth.page_index].url: truth for truth in site.truth
    }
    status = 0
    if args.json:
        import json as json_module

        from repro.serve.schema import site_run_summary

        summary = site_run_summary(run)
        summary["site"] = args.site
        for page_run in run.pages:
            truth = truth_by_url[page_run.page.url]
            if score_page(page_run.segmentation, truth).cor < len(truth.rows):
                status = 1
        covered = {page_run.page.url for page_run in run.pages}
        if any(url not in covered for url in truth_by_url):
            status = 1
        summary["exit_code"] = status
        print(json_module.dumps(summary, indent=2), file=out)
        _emit_obs(args, obs, out)
        return status
    if run.crawl_health is not None:
        print(f"crawl: {run.crawl_health.summary()}", file=out)
    for page_run in run.pages:
        truth = truth_by_url[page_run.page.url]
        if args.page is not None and truth.page_index != args.page:
            continue
        score = score_page(page_run.segmentation, truth)
        print(
            f"== {page_run.page.url} [{args.method}] "
            f"Cor={score.cor} InC={score.inc} FN={score.fn} "
            f"FP={score.fp} ({page_run.elapsed:.2f}s)",
            file=out,
        )
        for record in page_run.segmentation.records:
            print(f"  {record}", file=out)
        if score.cor < len(truth.rows):
            status = 1
    covered = {page_run.page.url for page_run in run.pages}
    for url, truth in truth_by_url.items():
        if args.page is not None and truth.page_index != args.page:
            continue
        if url not in covered:  # quarantined or budget-starved page
            status = 1
    _emit_obs(args, obs, out)
    return status


def _cmd_table4(args, out) -> int:
    from repro.reporting.experiment import run_corpus
    from repro.reporting.tables import render_table4

    result = run_corpus(
        methods=tuple(args.methods),
        workers=args.workers,
        cache_dir=args.cache_dir,
    )
    print(render_table4(result), file=out)
    return 0


def _cmd_export(args, out) -> int:
    from repro.webdoc.store import save_sample

    site = build_site(args.site)
    manifest = save_sample(
        args.directory,
        args.site,
        site.list_pages,
        [site.detail_pages(i) for i in range(len(site.list_pages))],
    )
    print(f"wrote {manifest}", file=out)
    return 0


def _cmd_segment_dir(args, out) -> int:
    from pathlib import Path

    from repro.runner import BatchRunner, RunnerConfig, tasks_from_directory

    try:
        tasks = tasks_from_directory(args.directory, method=args.method)
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    obs = _make_obs(args)
    manifest_path = args.manifest or str(
        Path(args.directory) / "run_manifest.jsonl"
    )
    runner = BatchRunner(
        RunnerConfig(
            workers=args.workers,
            cache_dir=args.cache_dir,
            manifest_path=manifest_path,
            resume=args.resume,
            stall_timeout=args.timeout,
            collect_trace=bool(args.trace),
            collect_wire=bool(args.store),
        ),
        obs=obs,
    )
    batch = runner.run(tasks)

    store_summary = None
    if args.store:
        store_summary = _ingest_batch_into_store(args, batch, obs, out)

    bad = sum(
        1
        for result in batch.results
        if result.status in ("failed", "timeout", "crashed", "quarantined")
    )
    if args.json:
        import json as json_module

        from repro.serve.schema import batch_summary

        summary = batch_summary(batch, method=args.method)
        if store_summary is not None:
            summary["store"] = store_summary
        summary["exit_code"] = 1 if (bad or batch.interrupted) else 0
        print(json_module.dumps(summary, indent=2), file=out)
        _emit_obs(args, obs, out)
        return summary["exit_code"]

    bad = 0
    for result in sorted(batch.results, key=lambda r: r.task_id):
        if result.status in ("failed", "timeout", "crashed"):
            bad += 1
            reason = (result.error or result.status).strip().splitlines()[-1]
            print(f"!! {result.task_id}: {result.status} — {reason}", file=out)
            continue
        if result.status == "quarantined":
            bad += 1
        for page in result.pages:
            print(
                f"== {page.url} [{args.method}] "
                f"{page.record_count} records "
                f"({page.elapsed:.2f}s)",
                file=out,
            )
            for record in page.records:
                print(f"  {record}", file=out)
            if page.unassigned:
                print(
                    "  unassigned: " + " | ".join(page.unassigned),
                    file=out,
                )
    counts = batch.by_status()
    summary = (
        f"sites: {counts.get('ok', 0)} ok, "
        f"{counts.get('quarantined', 0)} quarantined, "
        f"{counts.get('failed', 0) + counts.get('timeout', 0) + counts.get('crashed', 0)} failed"
    )
    if batch.skipped:
        summary += f", {len(batch.skipped)} resumed-skipped"
    if args.cache_dir:
        summary += (
            f" (cache: {batch.cache_hits} hits, "
            f"{batch.cache_misses} misses)"
        )
    if batch.interrupted:
        summary += " [interrupted]"
    print(summary, file=out)
    if store_summary is not None and "error" not in store_summary:
        print(
            f"store {args.store}: {store_summary['sites']} sites, "
            f"{store_summary['rows']} rows "
            f"({store_summary['unchanged']} unchanged, "
            f"{store_summary['replaced']} replaced, "
            f"{store_summary['skipped']} skipped)",
            file=out,
        )
    _emit_obs(args, obs, out)
    return 1 if (bad or batch.interrupted) else 0


def _ingest_batch_into_store(args, batch, obs, out):
    """Ingest a segment-dir batch into ``args.store``; never raises."""
    from repro.store import RelationalStore, StoreError, ingest_batch

    try:
        with RelationalStore(args.store, obs=obs) as store:
            report = ingest_batch(store, batch, method=args.method, obs=obs)
    except StoreError as error:
        print(f"store error: {error}", file=out)
        return {"error": str(error)}
    return report.as_dict()


def _cmd_export_corpus(args, out) -> int:
    from pathlib import Path

    from repro.webdoc.store import save_sample

    if args.mixed is not None:
        if args.sites:
            print("--mixed and --sites are mutually exclusive", file=out)
            return 2
        from repro.sitegen.mixed import (
            MixedCorpusSpec,
            build_mixed_corpus,
            write_crawl,
        )

        corpus = build_mixed_corpus(
            MixedCorpusSpec(
                sites=args.mixed,
                seed=args.seed,
                generation=args.generation,
            )
        )
        manifest = write_crawl(corpus, args.directory)
        print(
            f"wrote mixed crawl: {corpus.page_count} pages, "
            f"{len(corpus.sites)} true sites, "
            f"{len(corpus.distractor_urls)} distractors "
            f"(truth manifest: {manifest})",
            file=out,
        )
        if corpus.churn is not None:
            churn = corpus.churn
            print(
                f"generation {churn.generation} churn: "
                f"{len(churn.mutated)} pages mutated, "
                f"{len(churn.reskinned)} sites reskinned, "
                f"{len(churn.added)} added, {len(churn.removed)} removed",
                file=out,
            )
        return 0

    names = args.sites or sorted(SITE_BUILDERS)
    root = Path(args.directory)
    for name in names:
        site = build_site(name)
        save_sample(
            root / name,
            name,
            site.list_pages,
            [site.detail_pages(i) for i in range(len(site.list_pages))],
        )
    print(f"wrote {len(names)} sample directories under {root}", file=out)
    return 0


def _ingest_load_pages(args, obs, out):
    """The ingest front half: pages + optional crawl health, or an exit code.

    Returns ``(pages, crawl_health)`` on success and ``(None, code)``
    on failure, so :func:`_cmd_ingest` can return the code directly.
    """
    import json as json_module

    if args.fetch:
        from repro.crawl.fetcher import DirectorySite
        from repro.crawl.resilient import CrawlBudget
        from repro.ingest import fetch_crawl, write_snapshot

        budget = None
        if args.max_requests is not None:
            budget = CrawlBudget(max_requests=args.max_requests)
        crawl = fetch_crawl(
            DirectorySite(args.directory),
            args.fetch,
            budget=budget,
            obs=obs,
        )
        if not crawl.pages:
            print(
                f"fetch mode: no pages reachable from seeds {args.fetch}",
                file=out,
            )
            return None, 2
        if args.snapshot:
            snapshot = write_snapshot(crawl, args.snapshot)
            if not args.json:
                print(
                    f"snapshot: {crawl.page_count} pages -> {snapshot}",
                    file=out,
                )
        return crawl.pages, crawl.health.as_dict()

    from repro.sitegen.mixed import load_crawl_pages

    try:
        pages = load_crawl_pages(args.directory)
    except (OSError, ValueError, json_module.JSONDecodeError) as error:
        print(f"cannot read crawl directory: {error}", file=out)
        return None, 2
    return pages, None


def _ingest_invalidate(args, sites, obs, out):
    """Drop ``sites``' store rows and cached wrappers."""
    from repro.lifecycle import invalidate_consumers
    from repro.store import RelationalStore, StoreError

    registry = None
    if args.wrapper_cache_dir:
        from repro.runner.cache import StageCache
        from repro.serve.registry import WrapperRegistry

        registry = WrapperRegistry(
            cache=StageCache(args.wrapper_cache_dir), obs=obs
        )
    try:
        if args.store:
            with RelationalStore(args.store, obs=obs) as store:
                report = invalidate_consumers(
                    sites, store=store, registry=registry, obs=obs
                )
        else:
            report = invalidate_consumers(sites, registry=registry, obs=obs)
    except StoreError as error:
        print(f"store error: {error}", file=out)
        return {"error": str(error)}
    return report.as_dict()


def _cmd_ingest(args, out) -> int:
    import json as json_module
    from pathlib import Path

    from repro.ingest import (
        IngestConfig,
        bundle_dirs,
        ingest_pages,
        load_previous_manifest,
        reingest_pages,
        write_bundles,
        write_reingest,
    )
    from repro.ingest.cluster import ClusterConfig
    from repro.obs import NULL_OBS

    obs = _make_obs(args)
    run_obs = obs or NULL_OBS

    pages, crawl_health = _ingest_load_pages(args, run_obs, out)
    if pages is None:
        return crawl_health  # the front half already printed the reason

    config = IngestConfig(
        cluster=ClusterConfig(
            join_threshold=args.join_threshold,
            merge_threshold=args.merge_threshold,
        ),
        min_details=args.min_details,
    )

    # Every bundle directory the write replaces or removes is stale
    # downstream; only bundles carried forward untouched are not.
    stale = set(bundle_dirs(args.out))
    previous = load_previous_manifest(args.out) if args.incremental else None
    if previous is not None:
        report = reingest_pages(pages, previous, config, obs=run_obs)
        report.crawl_health = crawl_health
        manifest = write_reingest(report, args.out)
        bundle_total = report.bundle_count
        stale -= {entry["name"] for entry in report.carried} - set(report.rebuilt)
        stale |= set(report.stale_bundles)
    else:
        if args.incremental and not args.json:
            print(
                "incremental: no usable previous manifest in "
                f"{args.out}; running a full ingest",
                file=out,
            )
        report = ingest_pages(pages, config, obs=run_obs)
        report.crawl_health = crawl_health
        manifest = write_bundles(report, args.out)
        bundle_total = len(report.bundles)

    invalidation = None
    if args.store or args.wrapper_cache_dir:
        invalidation = _ingest_invalidate(args, stale, run_obs, out)

    if args.json:
        summary = report.as_dict()
        summary["out"] = str(Path(args.out))
        summary["invalidation"] = invalidation
        print(json_module.dumps(summary, indent=2), file=out)
    else:
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in report.quarantine_counts().items()
        )
        print(
            f"ingest: {report.page_count} pages -> "
            f"{bundle_total} bundles "
            f"({report.bundled_page_count} pages); "
            f"{len(report.quarantined)} quarantined"
            + (f" ({reasons})" if reasons else ""),
            file=out,
        )
        if previous is not None:
            counts = report.diff.counts()
            print(
                "incremental: "
                f"{counts['unchanged']} unchanged / "
                f"{counts['changed']} changed / "
                f"{counts['added']} added / "
                f"{counts['removed']} removed pages; "
                f"{len(report.carried)} bundles carried, "
                f"{len(report.rebuilt)} rebuilt, "
                f"{len(report.removed_bundles)} removed "
                f"({report.reprocessed_page_count} pages re-processed)",
                file=out,
            )
        if invalidation is not None and "error" not in invalidation:
            print(
                f"invalidated: {invalidation['store_sites_removed']} "
                f"store sites, {invalidation['wrappers_invalidated']} "
                "cached wrappers",
                file=out,
            )
        if not report.reconciles():  # pragma: no cover - safety net
            print("WARNING: page accounting does not reconcile", file=out)
        print(
            f"wrote {bundle_total} bundles under {args.out} "
            f"(manifest: {manifest})",
            file=out,
        )
    _emit_obs(args, obs, out)
    if not report.reconciles():
        return 1
    return 0 if bundle_total else 1


def _service_config(args):
    from repro.serve import ServiceConfig

    return ServiceConfig(
        method=args.method,
        drift_threshold=args.drift_threshold,
        wrapper_cache_dir=args.wrapper_cache_dir,
        wrapper_cache_max_bytes=args.wrapper_cache_max_bytes,
        deadline_s=args.deadline,
        workers=args.workers,
        max_queue=args.max_queue,
        hung_grace_s=args.hung_grace,
        store_path=args.store,
    )


def _run_supervised(args, config, chaos_plan, out) -> int:
    """``serve --procs N``: supervise N worker processes."""
    import dataclasses
    import shutil
    import tempfile

    from repro.serve.supervisor import (
        Supervisor,
        SupervisorConfig,
        worker_command,
    )

    # Crash survivability needs shared state: without an explicit
    # wrapper dir, give the fleet a throwaway one so a restarted
    # worker still warms from its predecessors' wrappers.
    cleanup_dir = None
    if config.wrapper_cache_dir is None:
        cleanup_dir = tempfile.mkdtemp(prefix="repro-wrappers-")
        config = dataclasses.replace(config, wrapper_cache_dir=cleanup_dir)
    supervisor = Supervisor(
        worker_command(config, args.host, chaos_plan, args.mem_limit_mb),
        SupervisorConfig(
            procs=args.procs,
            crash_budget=args.crash_budget,
            crash_window_s=args.crash_window,
            heartbeat_timeout_s=args.heartbeat_timeout,
        ),
        host=args.host,
        port=args.port,
        out=out,
    )
    try:
        return supervisor.run()
    finally:
        if cleanup_dir is not None:
            shutil.rmtree(cleanup_dir, ignore_errors=True)


def _cmd_serve(args, out) -> int:
    from repro.serve.chaos import load_chaos_plan
    from repro.serve.supervisor import run_worker

    chaos_plan = load_chaos_plan(args.chaos_plan) if args.chaos_plan else None
    config = _service_config(args)
    if args.procs > 1:
        return _run_supervised(args, config, chaos_plan, out)
    return run_worker(
        config,
        host=args.host,
        port=args.port,
        chaos_plan=chaos_plan,
        mem_limit_mb=args.mem_limit_mb,
        out=out,
    )


def _cmd_query(args, out) -> int:
    from pathlib import Path

    from repro.store import RelationalStore, StoreError, query_store

    if not Path(args.store).is_file():
        print(f"error: no store database at {args.store}", file=out)
        return 2
    try:
        with RelationalStore(args.store) as store:
            result = query_store(
                store,
                args.keywords,
                limit=args.limit,
                method=args.method,
            )
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    except StoreError as error:
        print(f"store error: {error}", file=out)
        return 2
    if args.json:
        import json as json_module

        print(json_module.dumps(result.as_dict(), indent=2), file=out)
        return 0 if result.tables else 1
    if not result.tables:
        print(f"no tables match: {', '.join(result.keywords)}", file=out)
        return 1
    for hit in result.tables:
        bindings = ", ".join(
            f"{keyword}→{binding['column']}"
            f" ({binding['attribute']}, {binding['strength']:.1f})"
            for keyword, binding in hit.columns.items()
        )
        print(
            f"== {hit.site_id} [{hit.method}] score={hit.score:.2f} "
            f"{hit.record_count} records — {bindings}",
            file=out,
        )
    header = " | ".join(result.keywords)
    print(f"-- rows ({len(result.rows)}) — {header}", file=out)
    for row in result.rows:
        values = " | ".join(
            row["values"].get(keyword, "") for keyword in result.keywords
        )
        print(f"  [{row['site']} {row['page']}#{row['record']}] {values}", file=out)
    return 0


def _cmd_show(args, out) -> int:
    site = build_site(args.site)
    if args.detail is not None:
        page = site.detail_pages(args.page)[args.detail]
    else:
        page = site.list_pages[args.page]
    print(page.html, file=out)
    return 0


_COMMANDS = {
    "sites": _cmd_sites,
    "segment": _cmd_segment,
    "table4": _cmd_table4,
    "export": _cmd_export,
    "export-corpus": _cmd_export_corpus,
    "ingest": _cmd_ingest,
    "segment-dir": _cmd_segment_dir,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "show": _cmd_show,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)
