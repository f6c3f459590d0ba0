"""Stdlib HTTP front end for the segmentation service.

Zero extra dependencies: :class:`http.server.ThreadingHTTPServer`
accepts connections (one handler thread each), but handler threads do
**no segmentation work** — they parse the request, submit a job to a
bounded :class:`queue.Queue`, and wait on the job's event.  A fixed
pool of worker threads drains the queue.  That split is what gives the
server real capacity behavior instead of thread-per-request collapse:

* **admission control** — ``queue.put_nowait`` on a full queue is an
  instant ``429 Too Many Requests`` with a ``Retry-After`` hint; the
  server sheds load at the door instead of stacking it up;
* **deadlines** — every job carries an absolute deadline,
  ``ServiceConfig.deadline_s`` after admission.  A handler waiting
  past it answers ``504``; a worker that dequeues an already-expired
  or abandoned job drops it (``serve.deadline_drops``) rather than
  burning CPU on an answer nobody is waiting for;
* **a hung-handler watchdog** — a worker thread stuck inside a
  request (a wedged wrapper, an injected chaos hang) cannot shrink
  the pool: once a job sits past ``deadline + hung_grace_s`` the
  watchdog finalizes it as a 504 and starts a replacement worker
  thread, so capacity recovers instead of leaking one thread per
  hang (``serve.watchdog.*`` counters);
* **graceful shutdown** — SIGTERM/SIGINT flips the server to
  *draining*: new ``/v1/segment`` requests get ``503`` (``/healthz``
  keeps answering, reporting ``"draining"``), queued jobs finish,
  workers join, and ``run()`` returns 0.  ``shutdown()`` is
  idempotent — concurrent or repeated calls are safe.

Every job is finalized exactly once (:meth:`SegmentationServer._finalize`),
whether by the worker that ran it, the watchdog that gave up on it,
or the deadline drop — so the in-flight gauge can never leak and wedge
the drain loop.

Every ``repro serve`` process builds its server in
:func:`repro.serve.supervisor.run_worker`.  Supervised operation adds
two hooks: ``reuse_port=True`` binds with ``SO_REUSEPORT`` so N worker
processes share one port, and the supervisor's control pipe feeds
:attr:`~SegmentationServer.external_status` (``/healthz`` reports
``"degraded"`` when the parent says so) and
:attr:`~SegmentationServer.external_metrics` (the parent's
``serve.supervisor.*`` counters folded into ``/metricz``).  A
``request_hook`` callable, when set, runs before each dequeued job —
the chaos harness's injection point.

Endpoints::

    POST /v1/segment   segment a site payload (JSON in, JSON out)
    GET  /query        column-keyword query over the --store database
    GET  /healthz      liveness + queue depth + drain state
    GET  /metricz      the shared MetricsRegistry as JSON

Error codes: 400 malformed JSON/schema, 404 unknown path, 405 wrong
verb, 413 oversized body, 429 queue full, 500 internal error, 503
draining, 504 deadline exceeded.  Every response carries its
``X-Trace-Id``; segment responses repeat it in the body.
"""

from __future__ import annotations

import json
import queue
import signal
import socket
import threading
import time
import urllib.parse
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.core.exceptions import ConfigError
from repro.obs import Clock
from repro.serve.service import SegmentationService, ServeError

__all__ = ["SegmentationServer"]

#: How often the hung-handler watchdog scans the in-flight set.
_WATCHDOG_INTERVAL_S = 0.1


@dataclass(eq=False)
class _Job:
    """One queued segmentation request."""

    payload: Any
    trace_id: str
    deadline: float
    done: threading.Event = field(default_factory=threading.Event)
    response: dict[str, Any] | None = None
    error: ServeError | None = None
    abandoned: bool = False
    finalized: bool = False

    def expired(self, now: float) -> bool:
        return now >= self.deadline


class SegmentationServer:
    """The long-lived HTTP server around a :class:`SegmentationService`.

    Args:
        service: the request logic (owns registry, metrics, config).
        host: bind address.
        port: bind port (0 = ephemeral; see :attr:`port` after start).
        reuse_port: bind with ``SO_REUSEPORT`` so several worker
            processes (under :mod:`repro.serve.supervisor`) listen on
            one port.
        clock: injectable time source for deadlines and drain timing
            (default: ``time.monotonic``); tests use ``ManualClock``.
    """

    def __init__(
        self,
        service: SegmentationService,
        host: str = "127.0.0.1",
        port: int = 8080,
        reuse_port: bool = False,
        clock: Clock | None = None,
    ) -> None:
        self.service = service
        config = service.config
        self._now: Callable[[], float] = (
            clock.now if clock is not None else time.monotonic
        )
        self.queue: "queue.Queue[_Job]" = queue.Queue(maxsize=config.max_queue)
        self.draining = threading.Event()
        self.request_hook: Callable[[], None] | None = None
        self.external_status: str | None = None
        self.external_metrics: dict[str, Any] | None = None
        self._workers: list[threading.Thread] = []
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._active: set[_Job] = set()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False
        self._stop = threading.Event()
        self.httpd = ThreadingHTTPServer(
            (host, port), self._handler_class(), bind_and_activate=False
        )
        if reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise ConfigError(
                    "SO_REUSEPORT is not available on this platform"
                )
            self.httpd.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        try:
            self.httpd.server_bind()
            self.httpd.server_activate()
        except BaseException:
            self.httpd.server_close()
            raise
        self.httpd.daemon_threads = True

    # -- facts ---------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self.httpd.server_address[1]

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def queue_depth(self) -> int:
        return self.queue.qsize()

    def in_flight(self) -> int:
        with self._in_flight_lock:
            return self._in_flight

    # -- worker pool ---------------------------------------------------------

    def _worker_loop(self) -> None:
        drops = self.service.metrics.counter("serve.deadline_drops")
        while True:
            job = self.queue.get()
            if job is None:  # drain sentinel
                self.queue.task_done()
                return
            with self._in_flight_lock:
                self._in_flight += 1
                self._active.add(job)
            try:
                if job.abandoned or job.expired(self._now()):
                    drops.inc()
                    continue
                hook = self.request_hook
                if hook is not None:
                    hook()
                try:
                    job.response = self.service.segment(
                        job.payload, trace_id=job.trace_id
                    )
                except ServeError as error:
                    job.error = error
                except Exception as error:  # never kill the pool
                    job.error = ServeError(
                        500, f"{type(error).__name__}: {error}"
                    )
            finally:
                first = self._finalize(job)
                self.queue.task_done()
                if not first:
                    # The watchdog already 504'd this job and started a
                    # replacement thread; this one retires on waking.
                    return

    def _finalize(self, job: _Job, error: ServeError | None = None) -> bool:
        """Close out one job exactly once; False if already finalized.

        The single place the in-flight gauge decrements, shared by the
        worker that ran the job and the watchdog that gave up on it —
        double accounting here would leak the gauge and wedge drains.
        """
        with self._in_flight_lock:
            if job.finalized:
                return False
            job.finalized = True
            self._in_flight -= 1
            self._active.discard(job)
        if error is not None and job.response is None and job.error is None:
            job.error = error
        job.done.set()
        return True

    def _spawn_worker(self, replacement: bool = False) -> None:
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"serve-worker-{len(self._workers)}",
            daemon=True,
        )
        thread.start()
        self._workers.append(thread)
        if replacement:
            self.service.metrics.counter("serve.watchdog.replacements").inc()

    def _watchdog_loop(self) -> None:
        """Convert handler threads stuck past their deadline into 504s."""
        grace = self.service.config.hung_grace_s
        hung = self.service.metrics.counter("serve.watchdog.hung_requests")
        while not self.draining.is_set():
            now = self._now()
            with self._in_flight_lock:
                stuck = [
                    job for job in self._active if now >= job.deadline + grace
                ]
            for job in stuck:
                if self._finalize(
                    job, error=ServeError(504, "request hung past deadline")
                ):
                    hung.inc()
                    self._spawn_worker(replacement=True)
            time.sleep(_WATCHDOG_INTERVAL_S)

    def _start_workers(self) -> None:
        if self._workers:
            return
        for _ in range(self.service.config.workers):
            self._spawn_worker()
        threading.Thread(
            target=self._watchdog_loop, name="serve-watchdog", daemon=True
        ).start()

    # -- request paths -------------------------------------------------------

    def _submit(self, payload: Any, trace_id: str) -> _Job:
        """Admission control: enqueue or refuse with 429/503.

        Raises:
            ServeError: 503 while draining, 429 on a full queue.
        """
        if self.draining.is_set():
            raise ServeError(503, "server is draining")
        deadline = self._now() + self.service.config.deadline_s
        job = _Job(payload=payload, trace_id=trace_id, deadline=deadline)
        try:
            self.queue.put_nowait(job)
        except queue.Full:
            self.service.metrics.counter("serve.rejected").inc()
            raise ServeError(429, "request queue is full") from None
        return job

    def _await(self, job: _Job) -> dict[str, Any]:
        """Wait for the job within its deadline.

        Raises:
            ServeError: 504 when the deadline passes first.
        """
        if not job.done.wait(max(job.deadline - self._now(), 0.0)):
            job.abandoned = True
            self.service.metrics.counter("serve.deadline_hits").inc()
            raise ServeError(504, "deadline exceeded")
        if job.error is not None:
            raise job.error
        if job.response is None:
            # The worker dropped the job at the deadline edge.
            raise ServeError(504, "deadline exceeded")
        return job.response

    def _retry_after_s(self) -> int:
        """Honest Retry-After hint: mean request time x queue length."""
        latency = self.service.metrics.histogram("serve.request.seconds")
        mean = latency.mean if latency.count else 1.0
        return max(1, int(mean * (self.queue.qsize() + 1) + 0.5))

    def _health_body(self) -> dict[str, Any]:
        if self.draining.is_set():
            status = "draining"
        else:
            status = self.external_status or "ok"
        return self.service.health(
            status=status,
            queue_depth=self.queue_depth(),
            queue_limit=self.service.config.max_queue,
            workers=self.service.config.workers,
            in_flight=self.in_flight(),
        )

    def _query_body(self, query_string: str) -> dict[str, Any]:
        """Parse ``/query?kw=name&kw=charge`` (or ``?q=name,charge``).

        Raises:
            ServeError: propagated from the service (400/404/500).
        """
        params = urllib.parse.parse_qs(query_string)
        keywords = list(params.get("kw", []))
        for joined in params.get("q", []):
            keywords.extend(joined.split(","))
        limit = 20
        if params.get("limit"):
            try:
                limit = int(params["limit"][0])
            except ValueError as error:
                raise ServeError(400, "limit must be an integer") from error
        method = params["method"][0] if params.get("method") else None
        return self.service.query(keywords, limit=limit, method=method)

    def _metricz_body(self) -> dict[str, Any]:
        """The service registry, plus the supervisor's folded snapshot."""
        body = self.service.metrics_dict()
        extra = self.external_metrics
        if extra:
            for section in ("counters", "histograms"):
                merged = dict(body.get(section, {}))
                merged.update(extra.get(section, {}))
                body[section] = merged
        return body

    # -- HTTP plumbing -------------------------------------------------------

    def _handler_class(self) -> type[BaseHTTPRequestHandler]:
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            server_version = "repro-serve"

            def log_message(self, format: str, *args: Any) -> None:
                pass  # the metrics registry is the access log

            def _reply(
                self,
                status: int,
                body: dict[str, Any],
                trace_id: str,
                headers: dict[str, str] | None = None,
            ) -> None:
                data = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.send_header("X-Trace-Id", trace_id)
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def _error(
                self, error: ServeError, trace_id: str
            ) -> None:
                headers = {}
                if error.status == 429:
                    headers["Retry-After"] = str(server._retry_after_s())
                self._reply(
                    error.status,
                    {"error": str(error), "trace_id": trace_id},
                    trace_id,
                    headers,
                )

            def do_GET(self) -> None:
                trace_id = uuid.uuid4().hex[:16]
                path, _, query_string = self.path.partition("?")
                if path == "/healthz":
                    self._reply(200, server._health_body(), trace_id)
                elif path == "/metricz":
                    self._reply(200, server._metricz_body(), trace_id)
                elif path == "/query":
                    # Store queries are cheap sqlite reads; they are
                    # answered inline (like /healthz), never queued
                    # behind segmentation work.
                    try:
                        body = server._query_body(query_string)
                    except ServeError as error:
                        self._error(error, trace_id)
                        return
                    self._reply(200, body, trace_id)
                elif path == "/v1/segment":
                    self._error(ServeError(405, "use POST"), trace_id)
                else:
                    self._error(
                        ServeError(404, f"no route {self.path!r}"), trace_id
                    )

            def do_POST(self) -> None:
                trace_id = uuid.uuid4().hex[:16]
                if self.path != "/v1/segment":
                    self._error(
                        ServeError(404, f"no route {self.path!r}"), trace_id
                    )
                    return
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    if length > server.service.config.max_body_bytes:
                        raise ServeError(413, "request body too large")
                    raw = self.rfile.read(length)
                    try:
                        payload = json.loads(raw.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError) as err:
                        raise ServeError(400, f"bad JSON: {err}") from err
                    job = server._submit(payload, trace_id)
                    response = server._await(job)
                except ServeError as error:
                    self._error(error, trace_id)
                    return
                self._reply(200, response, trace_id)

        return Handler

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start workers + the accept loop in background threads.

        The in-process form the tests and benchmarks use; the CLI uses
        the blocking :meth:`run` instead.
        """
        self._start_workers()
        thread = threading.Thread(
            target=self.httpd.serve_forever, name="serve-accept", daemon=True
        )
        thread.start()
        self._accept_thread = thread

    def shutdown(self, drain_timeout_s: float = 30.0) -> None:
        """Graceful stop: refuse new work, finish queued work, join.

        Idempotent: repeated or concurrent calls after the first
        return immediately.
        """
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
        self.draining.set()
        deadline = self._now() + drain_timeout_s
        # Let queued jobs finish (workers skip expired ones anyway).
        while self.queue.qsize() > 0 and self._now() < deadline:
            time.sleep(0.01)
        while self.in_flight() > 0 and self._now() < deadline:
            time.sleep(0.01)
        for _ in self._workers:
            try:
                self.queue.put_nowait(None)  # type: ignore[arg-type]
            except queue.Full:
                break
        for worker in self._workers:
            worker.join(timeout=max(deadline - self._now(), 0.1))
        self.httpd.shutdown()
        self.httpd.server_close()

    def request_stop(self) -> None:
        """Ask a blocking :meth:`run` to drain and return (thread-safe)."""
        self._stop.set()

    def run(self, out=None, install_signals: bool = True) -> int:
        """Blocking CLI entry: serve until SIGTERM/SIGINT, drain, exit 0."""

        def _on_signal(signum: int, frame: Any) -> None:
            self._stop.set()

        if install_signals:
            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        self.start()
        if out is not None:
            print(f"listening on {self.address}", file=out, flush=True)
        try:
            self._stop.wait()
        except KeyboardInterrupt:
            pass
        if out is not None:
            print("draining...", file=out, flush=True)
        self.shutdown()
        if out is not None:
            print("stopped", file=out, flush=True)
        return 0
