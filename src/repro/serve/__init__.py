"""Online segmentation: a long-lived HTTP service over the pipeline.

Everything below :mod:`repro.serve` turns the one-shot batch codebase
into the ROADMAP's long-lived server.  The economics come from the
wrapper layer: the full pipeline costs seconds per site, but a site's
induced :class:`~repro.wrapper.induce.RowWrapper` re-extracts further
pages in milliseconds — so the service learns each site once (the
*cold* path), caches the wrapper per site (the
:class:`~repro.serve.registry.WrapperRegistry`, optionally disk-backed
through the LRU-bounded :class:`~repro.runner.cache.StageCache`), and
answers repeat traffic from it (the *warm* path).  Template drift is
caught by :mod:`repro.serve.drift`'s detail-page cross-check and
triggers a pipeline fallback plus re-induction, so a redesigned site
heals itself on the next request.

Module map (request logic is transport-free by design):

* :mod:`~repro.serve.schema` — wire shapes shared with the CLI's
  ``--json`` output; payload parsing;
* :mod:`~repro.serve.drift` — wrapper-output quality scoring without
  ground truth;
* :mod:`~repro.serve.registry` — the per-site wrapper cache;
* :mod:`~repro.serve.service` — ``POST /v1/segment`` semantics
  (:class:`SegmentationService`);
* :mod:`~repro.serve.http` — stdlib HTTP front end with a bounded
  worker pool, admission control (429 + Retry-After), per-request
  deadlines (504), a hung-handler watchdog, ``/healthz``,
  ``/metricz`` and graceful SIGTERM draining
  (:class:`SegmentationServer`);
* :mod:`~repro.serve.supervisor` — multi-process serving: a parent
  holds the ``SO_REUSEPORT`` port and keeps N worker processes alive
  via heartbeats, exponential-backoff restarts and a rolling crash
  budget (:class:`Supervisor`); every serving process, supervised or
  not, runs its :func:`run_worker`;
* :mod:`~repro.serve.chaos` — seeded fault injection for the serving
  path: worker kills, hung handlers, slow/corrupt cache reads,
  disk-full writes (:class:`ChaosPlan`);
* :mod:`~repro.serve.client` — stdlib client for tests, smoke jobs
  and benchmarks, with bounded seeded-jitter retries.

CLI: ``repro serve --port 8080 --procs 4 --workers 4 --max-queue 16
--wrapper-cache-dir ./wrappers``.  Full endpoint and capacity-knob
reference: ``docs/serving.md``.

The names below load on first use (:mod:`repro._lazy`): a batch
worker that imports only :mod:`~repro.serve.schema` does not load the
HTTP server or the supervisor.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.serve.chaos": (
        "ChaosInjector",
        "ChaosPlan",
        "ChaosStageCache",
        "load_chaos_plan",
    ),
    "repro.serve.client": (
        "ServeClient",
        "ServeResponse",
        "payload_from_pages",
        "payload_from_sample",
    ),
    "repro.serve.drift": ("DriftVerdict", "wrapped_page_quality"),
    "repro.serve.http": ("SegmentationServer",),
    "repro.serve.registry": ("WrapperRegistry",),
    "repro.serve.service": ("SegmentationService", "ServeError", "ServiceConfig"),
    "repro.serve.supervisor": (
        "CrashBudget",
        "RestartBackoff",
        "Supervisor",
        "SupervisorConfig",
        "run_worker",
        "supports_reuse_port",
        "worker_command",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
