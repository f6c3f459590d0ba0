"""The online segmentation service's request logic (transport-free).

:class:`SegmentationService` is everything ``POST /v1/segment`` does,
with no HTTP anywhere in sight — the unit tests and the benchmark
drive it directly, and :mod:`repro.serve.http` merely moves JSON in
and out of it.  One request flows::

    payload ──▶ parse (schema.pages_from_payload)
        │
        ▼
    WrapperRegistry.get(site, method)
        │ hit                                   │ miss
        ▼                                       ▼
    apply_wrapper per list page            full pipeline
        │                                  (SegmentationPipeline)
        ▼                                       │
    drift check (wrapped_page_quality)          ▼
        │ healthy        │ drifted ───────▶ induce_wrapper
        ▼                                       │ + registry.put
    records from rows                           ▼
        ("path": "wrapper")             apply induced wrapper
                                        to the request's pages
                                        ("path": "pipeline")

The cold path *also* answers from the freshly-induced wrapper (falling
back to the raw segmentation only when induction fails): both paths
therefore serialize the same deterministic function of the page, which
is what makes cold and warm responses byte-identical for an unchanged
site — the end-to-end acceptance check.

:meth:`SegmentationService._segment` calls three steps directly,
top to bottom, each inside its own span: ``serve.apply`` (wrap every
list page and score drift), ``serve.pipeline`` (the full pipeline,
which nests the :data:`~repro.core.pipeline.PIPELINE_GRAPH`
``pipeline.*`` spans) and ``serve.induce`` (learn a wrapper from the
first page with records; skipped when there is none).  Only the warm
apply books an outcome (``serve.wrapper_hits`` or
``serve.fallbacks``); the apply that follows an induction books none.

Thread safety: one service instance is shared by every worker thread.
The registry locks internally, the metrics registry is thread-safe,
and each request gets its own private span tree
(:class:`~repro.obs.Observability` with the *shared* metrics
registry), because a tracer's span stack must not interleave across
threads.

Counters (see ``docs/observability.md``): ``serve.requests``,
``serve.wrapper_hits``, ``serve.pipeline_runs``, ``serve.fallbacks``
(drift-triggered), ``serve.reinductions``, ``serve.errors``; the
``serve.request.seconds`` histogram tracks latency.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any

from repro.core.config import METHODS
from repro.core.exceptions import ConfigError, ExtractionError, ReproError
from repro.core.pipeline import DEGRADED_META, SegmentationPipeline, SiteRun
from repro.obs import MetricsRegistry, Observability
from repro.runner.cache import StageCache
from repro.serve.drift import DriftVerdict, wrapped_page_quality
from repro.serve.registry import WrapperRegistry
from repro.serve.schema import (
    PayloadError,
    pages_from_payload,
    run_page_summaries,
    wrapped_row_records,
)
from repro.store import RelationalStore, StoreError, ingest_pages, page_entry
from repro.store.query import query_store
from repro.webdoc.page import Page
from repro.wrapper.apply import apply_wrapper
from repro.wrapper.induce import RowWrapper, induce_wrapper

__all__ = [
    "ServeError",
    "ServiceConfig",
    "SegmentationService",
]


def _apply(
    wrapper: RowWrapper,
    list_pages: list[Page],
    details: list[list[Page]],
    threshold: float,
) -> tuple[list[dict[str, Any]], DriftVerdict]:
    """Wrapper-extract every list page and judge the output's quality."""
    pages: list[dict[str, Any]] = []
    scores: list[float] = []
    for list_page, detail_pages in zip(list_pages, details):
        rows = apply_wrapper(wrapper, list_page)
        scores.append(wrapped_page_quality(rows, detail_pages))
        pages.append(
            {
                "url": list_page.url,
                "records": wrapped_row_records(rows),
                "record_count": len(rows),
            }
        )
    score = sum(scores) / len(scores) if scores else 0.0
    return pages, DriftVerdict(score=score, threshold=threshold)


class ServeError(ReproError):
    """A request the service refuses, with its HTTP status.

    Attributes:
        status: the HTTP status code the transport should emit.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the online service (capacity knobs in docs/serving.md).

    Plain values only, so a serving worker's whole configuration
    travels as JSON (:func:`repro.serve.supervisor.worker_command`).

    Attributes:
        method: default segmentation method when a payload names none.
        drift_threshold: wrapper quality below this triggers the
            pipeline fallback + re-induction.
        wrapper_cache_dir: disk tier for the wrapper registry (None =
            memory only).
        wrapper_cache_max_bytes: LRU size bound of that disk tier.
        deadline_s: wall-clock deadline after which a queued or running
            request is answered 504.
        workers: worker-thread count (used by the HTTP layer).
        max_queue: admission-control queue depth (HTTP layer); a full
            queue answers 429 with a Retry-After hint.
        max_body_bytes: request bodies above this are refused (413).
        hung_grace_s: how long past its deadline an in-flight request
            may sit before the HTTP layer's watchdog finalizes it as a
            504 and replaces the wedged worker thread.
        store_path: when set, every healthy response is also ingested
            into this :class:`~repro.store.RelationalStore` (online
            ingest), and ``GET /query`` answers column-keyword
            queries over it.
    """

    method: str = "prob"
    drift_threshold: float = 0.5
    wrapper_cache_dir: str | None = None
    wrapper_cache_max_bytes: int | None = 64 * 1024 * 1024
    deadline_s: float = 60.0
    workers: int = 2
    max_queue: int = 8
    max_body_bytes: int = 16 * 1024 * 1024
    hung_grace_s: float = 5.0
    store_path: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown default method {self.method!r}")
        if not 0.0 <= self.drift_threshold <= 1.0:
            raise ConfigError("drift_threshold must lie in [0, 1]")
        if self.workers < 1 or self.max_queue < 1:
            raise ConfigError("workers and max_queue must be >= 1")
        if self.deadline_s <= 0.0:
            raise ConfigError("deadline_s must be > 0")
        if self.hung_grace_s < 0.0:
            raise ConfigError("hung_grace_s must be >= 0")


class SegmentationService:
    """Segment request payloads, caching one wrapper per site.

    Args:
        config: service knobs.
        metrics: shared thread-safe registry exported by ``/metricz``
            (one is created if omitted).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.started_at = time.time()
        #: Set to end every ``_sleep`` test-hook wait at once.
        self.sleep_released = threading.Event()
        cache = None
        if self.config.wrapper_cache_dir is not None:
            cache = StageCache(
                self.config.wrapper_cache_dir,
                obs=self._request_obs(),
                max_bytes=self.config.wrapper_cache_max_bytes,
            )
        self.registry = WrapperRegistry(cache=cache, obs=self._request_obs())
        self.store: RelationalStore | None = None
        if self.config.store_path is not None:
            self.store = RelationalStore(
                self.config.store_path, obs=self._request_obs()
            )

    def _request_obs(self) -> Observability:
        """A per-request bundle: private span stack, shared metrics."""
        return Observability(metrics=self.metrics, keep_spans=False)

    # -- request handling ----------------------------------------------------

    def segment(self, payload: Any, trace_id: str | None = None) -> dict[str, Any]:
        """Handle one ``/v1/segment`` payload; returns the response dict.

        Raises:
            ServeError: refused requests, carrying the HTTP status
                (400 malformed payload, 500 internal failure).
        """
        obs = self._request_obs()
        trace_id = trace_id or uuid.uuid4().hex[:16]
        started = time.perf_counter()
        obs.counter("serve.requests").inc()
        try:
            with obs.span("serve.request"):
                response = self._segment(payload, obs)
        except ServeError:
            obs.counter("serve.errors").inc()
            raise
        except PayloadError as error:
            obs.counter("serve.errors").inc()
            raise ServeError(400, str(error)) from error
        except ReproError as error:
            obs.counter("serve.errors").inc()
            raise ServeError(
                500, f"{type(error).__name__}: {error}"
            ) from error
        elapsed = time.perf_counter() - started
        obs.histogram("serve.request.seconds").observe(elapsed)
        response["trace_id"] = trace_id
        response["elapsed_s"] = round(elapsed, 6)
        return response

    def _segment(self, payload: Any, obs: Observability) -> dict[str, Any]:
        if isinstance(payload, dict) and "_sleep" in payload:
            # Test hook (cf. the runner's ``_sleep`` task kind): hold a
            # worker for a bounded time, or until ``sleep_released`` is
            # set, so admission-control and deadline tests can saturate
            # the queue deterministically.
            seconds = min(float(payload["_sleep"]), 30.0)
            self.sleep_released.wait(max(seconds, 0.0))
            return {"path": "sleep", "slept_s": seconds, "pages": [],
                    "record_count": 0}
        site_id, list_pages, details = pages_from_payload(payload)
        method = payload.get("method") or self.config.method
        if method not in METHODS:
            raise ServeError(
                400, f"unknown method {method!r}; pick from {METHODS}"
            )

        threshold = self.config.drift_threshold
        wrapper = self.registry.get(site_id, method)
        drift: DriftVerdict | None = None
        if wrapper is not None:
            with obs.span("serve.apply", site=site_id):
                pages, drift = _apply(wrapper, list_pages, details, threshold)
            if not drift.drifted:
                obs.counter("serve.wrapper_hits").inc()
                self._store_ingest(
                    site_id, method, pages, list_pages, details,
                    degraded=False, obs=obs,
                )
                return self._response(
                    site_id, method, "wrapper", pages, drift, cached=True
                )
            obs.counter("serve.fallbacks").inc()

        with obs.span("serve.pipeline", site=site_id, method=method):
            run = SegmentationPipeline(method, obs=obs).segment_site(
                list_pages, details
            )
        obs.counter("serve.pipeline_runs").inc()
        sample = next(
            (page for page in run.pages if page.segmentation.records), None
        )
        wrapper = None
        if sample is not None:
            with obs.span("serve.induce", site=site_id):
                try:
                    wrapper = induce_wrapper(sample, run.template_verdict)
                except ExtractionError:
                    # A segmentation the induction cannot generalize is
                    # not an error: the raw run answers the request.
                    pass
        if wrapper is not None:
            self.registry.put(site_id, method, wrapper)
            if drift is not None:
                obs.counter("serve.reinductions").inc()
            with obs.span("serve.apply", site=site_id):
                pages, _ = _apply(wrapper, list_pages, details, threshold)
        else:
            if drift is not None:
                # Drifted and could not re-induce: the stale wrapper
                # must not answer the next request either.
                self.registry.invalidate(site_id, method)
            pages = run_page_summaries(run)
        self._store_ingest(
            site_id, method, pages, list_pages, details,
            degraded=self._run_degraded(run, len(list_pages)), obs=obs,
        )
        return self._response(
            site_id, method, "pipeline", pages, drift,
            cached=False, induced=wrapper is not None,
        )

    # -- the relational store (online ingest + /query) -----------------------

    @staticmethod
    def _run_degraded(run: SiteRun, expected_pages: int) -> bool:
        """Too broken to ingest: missing pages or quarantine-grade meta."""
        if len(run.pages) < expected_pages:
            return True
        return any(
            key in page_run.segmentation.meta
            for page_run in run.pages
            for key in DEGRADED_META
        )

    def _store_ingest(
        self,
        site_id: str,
        method: str,
        pages: list[dict[str, Any]],
        list_pages: list[Page],
        details: list[list[Page]],
        degraded: bool,
        obs: Observability,
    ) -> None:
        """Online ingest after a response; never breaks the response."""
        if self.store is None:
            return
        if degraded or not any(page.get("records") for page in pages):
            obs.counter("store.ingest.skipped").inc()
            return
        try:
            pipeline = SegmentationPipeline(method, obs=obs)
            details_by_url = {
                list_page.url: page_details
                for list_page, page_details in zip(list_pages, details)
                if page_details
            }
            ingest_pages(
                self.store,
                site_id,
                method,
                [page_entry(page["url"], page["records"]) for page in pages],
                source="serve",
                obs=obs,
                # Called only when the store writes.
                detail_fields=lambda url: (
                    pipeline.detail_fields(details_by_url[url])
                    if url in details_by_url
                    else None
                ),
            )
        except Exception:  # a broken store must not fail the request
            obs.counter("store.ingest.errors").inc()

    def query(
        self,
        keywords: list[str] | str,
        limit: int = 20,
        method: str | None = None,
    ) -> dict[str, Any]:
        """Answer ``GET /query`` from the configured store.

        Raises:
            ServeError: 404 without a store, 400 on an empty keyword
                list, 500 when the store refuses.
        """
        if self.store is None:
            raise ServeError(
                404, "no store configured (start with --store PATH)"
            )
        obs = self._request_obs()
        try:
            result = query_store(
                self.store, keywords, limit=limit, method=method, obs=obs
            )
        except ValueError as error:
            raise ServeError(400, str(error)) from error
        except StoreError as error:
            raise ServeError(500, f"store error: {error}") from error
        return result.as_dict()

    def _response(
        self,
        site_id: str,
        method: str,
        path: str,
        pages: list[dict[str, Any]],
        drift: DriftVerdict | None,
        cached: bool,
        induced: bool | None = None,
    ) -> dict[str, Any]:
        response: dict[str, Any] = {
            "site": site_id,
            "method": method,
            "path": path,
            "pages": pages,
            "record_count": sum(page["record_count"] for page in pages),
            "wrapper": {
                "cached": cached,
                "induced": bool(induced) if induced is not None else cached,
            },
        }
        if drift is not None:
            response["drift"] = drift.as_dict()
        return response

    # -- introspection endpoints ---------------------------------------------

    def health(self, **transport: Any) -> dict[str, Any]:
        """The ``/healthz`` body; the HTTP layer adds queue facts."""
        body = {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "sites_cached": len(self.registry),
            "method": self.config.method,
        }
        body.update(transport)
        return body

    def metrics_dict(self) -> dict[str, Any]:
        """The ``/metricz`` body: the shared registry's snapshot."""
        return self.metrics.as_dict()
