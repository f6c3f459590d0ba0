"""The ``serve-mixed`` workload: a real ``repro serve`` process under load.

The server runs as ``python -m repro serve --procs 2 --store DB
--wrapper-cache-dir DIR`` (two worker processes on one port) and is
driven only over HTTP:

* phase 1, closed loop, one client: one full-site upload per sub-site
  of a seeded mixed crawl (bundled client-side by the ingest front
  door) — the cold path: ``prob`` pipeline plus wrapper induction;
* phase 2, open loop: a schedule fixed up front from the seed, sent by
  one generator process over at most ``nproc`` connections.  Warm
  single-list-page ``/v1/segment`` requests (each an online store
  write) alternate with ``GET /query`` keyword reads.  Blocks at
  :data:`NOMINAL_RPS` alternate with one block at each :data:`LADDER`
  rate.

Latency is timed from when a request was due, so a stall is charged to
every request it delays.  Refused (429/503), timed-out (504) and
transport-failed requests count as attempted and failed, and as
missing the latency limit.  A run where the generator itself fell
more than :data:`LATE_LIMIT_MS` behind its schedule is flagged
invalid (``correct`` false).
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from urllib.parse import urlencode, urlsplit

from perfbench.measure import (
    SpeedProbe,
    lateness,
    open_loop_schedule,
    percentile,
    tail_percentile,
)

#: Mixed crawl served: 20 slots = 24 sub-sites, one cold upload each.
SERVE_SPEC = {"sites": 20}
METHOD = "prob"
PROCS = 2
#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Open-loop rate (requests/s, segment and query alternating) of the
#: measured phase: about half the ``max_rps`` a loaded 2-core machine
#: reaches (55-65), a third of what an idle one does, so latency is
#: not dominated by queueing when the machine is busy.
NOMINAL_RPS = 30.0
#: Ladder rates probed for ``max_rps``, lowest first.
LADDER = (45.0, 60.0, 75.0, 90.0, 105.0, 120.0, 135.0, 150.0)
#: Shortest phase 2 run: below it a ladder rate gets too few requests
#: for a tail percentile, so a shorter ``--seconds`` is raised to this.
MIN_SECONDS = 20.0
#: Share of ``--seconds`` spent at the nominal rate, in one block before
#: each ladder rate; the ladder rates split the rest.
NOMINAL_SHARE = 0.7
#: Segment tail latency a ladder rate must stay under to count.
SEGMENT_LIMIT_MS = 250.0
#: Generator lateness (p99, ms) beyond which the run is invalid.
LATE_LIMIT_MS = 25.0
#: Sites that must answer a candidate keyword for it to be used.
KEYWORD_SITES = 6
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
#: Query keyword candidates; those with an answer after phase 1 are used.
KEYWORDS = (
    "owner", "name", "address", "value", "parcel", "charge", "facility",
    "status", "city", "inmate", "assessed value", "booking",
)


@dataclass
class Outcome:
    """One request as the generator saw it (times relative to phase start)."""

    kind: str
    index: int
    due: float
    dispatched: float = 0.0
    done: float = 0.0
    status: int = 0
    body: Any = None
    error: str | None = None
    #: ``perf_counter`` time of the phase start.
    origin: float = 0.0
    #: The machine's speed while the request was out (see ``SpeedProbe``).
    speed: float = 1.0

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.body is not None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def scaled_latency(self) -> float:
        """The latency the reference-speed machine would have shown."""
        return self.latency * self.speed


def _send(address: tuple[str, int], method: str, path: str, body: bytes | None):
    """One exchange on a fresh connection: (status, raw response body)."""
    connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _parse(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return None


def _request(address: tuple[str, int], method: str, path: str, body: bytes | None):
    """One exchange on a fresh connection: (status, parsed JSON body)."""
    status, raw = _send(address, method, path, body)
    return status, _parse(raw)


def _exchange(outcome: Outcome, address, method: str, path: str, body) -> None:
    """Fill ``outcome`` from one request; transport failures are recorded.

    The body is kept raw: parsing it would compete with the other
    connections for this process's interpreter while requests are in
    flight.  :func:`parse_bodies` decodes it afterwards.
    """
    try:
        outcome.status, outcome.body = _send(address, method, path, body)
    except (OSError, http.client.HTTPException) as error:
        outcome.error = f"{type(error).__name__}: {error}"


def parse_bodies(outcomes: list[Outcome]) -> None:
    for outcome in outcomes:
        if isinstance(outcome.body, bytes):
            outcome.body = _parse(outcome.body)


def drive(address, arrivals, build_request, connections: int) -> list[Outcome]:
    """Send ``arrivals`` on schedule over ``connections`` worker threads.

    The calling thread is the dispatcher: it sleeps until each arrival
    is due and hands it to the connection pool, never waiting for a
    reply, so a slow server grows the queue instead of slowing the
    schedule.  ``build_request(arrival) -> (method, path, body)``.
    """
    requests = [build_request(a) for a in arrivals]
    pending: queue.Queue[int | None] = queue.Queue()
    start = time.perf_counter() + 0.05
    outcomes = [Outcome(a.kind, a.index, a.due, origin=start) for a in arrivals]

    def clock() -> float:
        return time.perf_counter() - start

    def connection_loop() -> None:
        while (i := pending.get()) is not None:
            _exchange(outcomes[i], address, *requests[i])
            outcomes[i].done = clock()

    pool = [threading.Thread(target=connection_loop) for _ in range(connections)]
    for thread in pool:
        thread.start()
    try:
        for i, arrival in enumerate(arrivals):
            wait = arrival.due - clock()
            if wait > 0:
                time.sleep(wait)
            outcomes[i].dispatched = clock()
            pending.put(i)
    finally:
        for _ in pool:
            pending.put(None)
        for thread in pool:
            thread.join()
    return outcomes


def metricz_fleet(address, procs: int, probes: int = 64) -> list[dict]:
    """One ``/metricz`` snapshot per worker process.

    Workers share the port, so each fresh connection lands on one of
    them.  Probing until ``procs`` distinct snapshots were seen (told
    apart by their request counters) gives the whole fleet.
    """
    seen: dict[tuple, dict] = {}
    for _ in range(probes):
        status, body = _request(address, "GET", "/metricz", None)
        if status != 200 or body is None:
            continue
        counters = body.get("counters", {})
        histogram = body.get("histograms", {}).get("serve.request.seconds", {})
        key = (
            counters.get("serve.requests", 0),
            histogram.get("total", 0.0),
            counters.get("store.query.count", 0),
        )
        seen[key] = body
        if len(seen) == procs:
            break
    return list(seen.values())


def fleet_counter(snapshots: list[dict], name: str) -> float:
    return sum(s.get("counters", {}).get(name, 0) for s in snapshots)


def fleet_seconds(snapshots: list[dict], name: str) -> float:
    return sum(s.get("histograms", {}).get(name, {}).get("total", 0.0) for s in snapshots)


class Server:
    """A ``repro serve`` subprocess in its own session."""

    def __init__(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.lines: list[str] = []
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--port", "0",
                "--procs", str(PROCS),
                "--method", METHOD,
                "--store", str(work / "store.db"),
                "--wrapper-cache-dir", str(work / "wrappers"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))
            match = re.search(r"listening on (http://\S+)", line)
            if match and self.address is None:
                parts = urlsplit(match.group(1))
                self.address = (parts.hostname, parts.port)
                self._ready.set()

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers on several fresh connections."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        if not self._ready.wait(START_TIMEOUT_S):
            raise RuntimeError("server never reported its address:\n" + "\n".join(self.lines))
        healthy = 0
        while healthy < 4 * PROCS:
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("server did not become healthy:\n" + "\n".join(self.lines))
            try:
                status, _ = _request(self.address, "GET", "/healthz", None)
            except OSError:
                status = 0
            if status == 200:
                healthy += 1
            else:
                healthy = 0
                time.sleep(0.02)

    def stop(self) -> int:
        """SIGTERM and wait for the drain; kill the session if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            code = self.process.wait()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)  # stray workers
        except ProcessLookupError:
            pass
        self._reader.join(timeout=5)
        return code


class ServeMixed:
    """``serve-mixed``: cold uploads, then an open-loop warm/query mix."""

    name = "serve-mixed"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.server: Server | None = None
        self.starts = 0

    def _build_inputs(self, seed: int) -> None:
        import repro.ingest as ingest
        from repro.serve.client import payload_from_pages
        from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus

        self.corpus = build_mixed_corpus(MixedCorpusSpec(seed=seed, **SERVE_SPEC))
        self.bundles = ingest.ingest_pages(self.corpus.pages).bundles
        self.uploads = [
            json.dumps(
                payload_from_pages(b.name, b.list_pages, b.detail_pages_per_list)
            ).encode()
            for b in self.bundles
        ]
        self.singles = []  # (page url, encoded one-list-page payload)
        for b in self.bundles:
            for page, details in zip(b.list_pages, b.detail_pages_per_list):
                payload = payload_from_pages(b.name, [page], [details])
                self.singles.append((page.url, json.dumps(payload).encode()))

    def setup(self) -> float:
        """Build one input variant and start a fresh server until it is healthy."""
        from perfbench.batch import variant_seed

        started = time.perf_counter()
        self._build_inputs(variant_seed(self.seed, self.starts))
        self.server = Server(self.work / f"server{self.starts}")
        self.starts += 1
        self.server.wait_ready()
        return time.perf_counter() - started

    def stop(self) -> int:
        code = self.server.stop() if self.server else 0
        self.server = None
        return code

    def pages_uploaded(self) -> int:
        return sum(
            len(b.list_pages) + sum(len(d) for d in b.detail_pages_per_list)
            for b in self.bundles
        )

    def upload_all(self) -> list[Outcome]:
        """Phase 1: one closed-loop cold upload per sub-site."""
        outcomes = []
        started = time.perf_counter()
        for i, body in enumerate(self.uploads):
            outcome = Outcome("upload", i, time.perf_counter() - started, origin=started)
            _exchange(outcome, self.server.address, "POST", "/v1/segment", body)
            outcome.done = time.perf_counter() - started
            outcomes.append(outcome)
        return outcomes

    def pick_keywords(self) -> list[str]:
        """Candidates answered by at least :data:`KEYWORD_SITES` sites.

        Every warm request re-ingests its site from one page, so a
        column only some pages name can come and go; a keyword several
        sites answer always has an answer.
        """
        keywords = []
        for keyword in KEYWORDS:
            status, body = _request(
                self.server.address, "GET", "/query?" + urlencode({"kw": keyword}), None
            )
            if status == 200 and body and len(body.get("tables", ())) >= KEYWORD_SITES:
                keywords.append(keyword)
        return keywords

    def run_phase(self, rate: float, seconds: float, seed: int, keywords) -> list[Outcome]:
        arrivals = open_loop_schedule(
            rate, seconds, seed, {"segment": len(self.singles), "query": len(keywords)}
        )

        def build(arrival):
            if arrival.kind == "segment":
                return "POST", "/v1/segment", self.singles[arrival.index][1]
            return "GET", "/query?" + urlencode({"kw": keywords[arrival.index]}), None

        return drive(self.server.address, arrivals, build, os.cpu_count() or 1)

    def record_f1(self) -> float:
        """``score_page`` F-measure of the cold path's pipeline on the uploads."""
        from perfbench.batch import record_score
        from repro.core.pipeline import SegmentationPipeline

        samples = ((b.list_pages, b.detail_pages_per_list) for b in self.bundles)
        return record_score(samples, self.corpus, SegmentationPipeline(METHOD)).f_measure

    def bundle_f1(self) -> float:
        from perfbench.batch import bundle_f1

        return bundle_f1(self.corpus, [(b.name, b.page_urls()) for b in self.bundles])


def _page_records(body) -> dict[str, Any]:
    return {page["url"]: page["records"] for page in body.get("pages", [])}


def _session(workload: ServeMixed, seconds: float) -> dict[str, Any]:
    """Set up, run both phases and the ladder, stop; raw observations.

    Each of the :data:`SETUPS` fresh servers takes the cold uploads
    (phase 1) of its own input variant, so the cold path is sampled on
    three crawls per run; the last server also takes phase 2.  A
    :class:`SpeedProbe` samples the machine all through; each set-up
    and request is given the speed sampled while it ran.
    """
    seconds = max(seconds, MIN_SECONDS)
    with SpeedProbe(workload.work / "speed.log") as probe:
        raw = _phases(workload, seconds)
    raw["setups"] = [t * probe.speed(*w) for t, w in zip(raw["raw_setups"], raw["windows"])]
    for outcomes in raw["uploads"] + raw["nominal"] + raw["ladder"]:
        for o in outcomes:
            o.speed = probe.speed(o.origin + o.due, o.origin + o.done)
        parse_bodies(outcomes)
    pages = workload.pages_uploaded()
    raw["upload_rates"] = [pages / sum(o.scaled_latency for o in s) for s in raw["uploads"]]
    raw["raw_upload_rates"] = [pages / sum(o.latency for o in s) for s in raw["uploads"]]
    return raw


def _phases(workload: ServeMixed, seconds: float) -> dict[str, Any]:
    raw_setups, windows, uploads = [], [], []
    try:
        for i in range(SETUPS):
            started = time.perf_counter()
            raw_setups.append(workload.setup())
            windows.append((started, time.perf_counter()))
            uploads.append(workload.upload_all())
            if i < SETUPS - 1:
                workload.stop()
        keywords = workload.pick_keywords()
        if not keywords:
            raise RuntimeError("no canned keyword has an answer after the uploads")
        # Nominal blocks alternate with the ladder rates, so both sample
        # the whole run rather than one stretch of it.
        block_s = seconds * NOMINAL_SHARE / len(LADDER)
        step_s = seconds * (1 - NOMINAL_SHARE) / len(LADDER)
        nominal, ladder = [], []
        for i, rate in enumerate(LADDER):
            seed = workload.seed * 1000 + 2 * i
            nominal.append(workload.run_phase(NOMINAL_RPS, block_s, seed, keywords))
            ladder.append(workload.run_phase(rate, step_s, seed + 1, keywords))
        fleet = metricz_fleet(workload.server.address, PROCS)
    finally:
        exit_code = workload.stop()
    return {
        "raw_setups": raw_setups,
        "windows": windows,
        "uploads": uploads,
        "keywords": keywords,
        "nominal": nominal,
        "ladder": ladder,
        "fleet": fleet,
        "exit_code": exit_code,
    }


def _latencies(outcomes: list[Outcome], scaled: bool = True) -> list[float]:
    """From-due latencies, scaled to the reference speed unless
    ``scaled`` is false; a failed request misses every limit (inf)."""
    return [
        (o.scaled_latency if scaled else o.latency) if o.ok else float("inf")
        for o in outcomes
    ]


def _rung(blocks: list[list[Outcome]], rate: float, scaled: bool = True) -> dict[str, Any]:
    """Whether one rate met the limit without a growing backlog.

    ``blocks`` are the phases sent at that rate (each timed from its
    own start).  The backlog grows when the last quarter of a block
    already waits longer than the limit.
    """
    outcomes = [o for block in blocks for o in block]
    tail, quantile = tail_percentile(
        _latencies([o for o in outcomes if o.kind == "segment"], scaled), 0.99
    )
    growing = any(
        statistics.median(_latencies(block[-max(len(block) // 4, 1):], scaled)) * 1000
        > SEGMENT_LIMIT_MS
        for block in blocks
    )
    failed = sum(1 for o in outcomes if not o.ok)
    span = sum(
        (max(o.done for o in block) - block[0].due)
        * (statistics.median(o.speed for o in block) if scaled else 1.0)
        for block in blocks
    )
    return {
        "rate": rate,
        "requests": len(outcomes),
        "failed": failed,
        "segment_tail_ms": tail * 1000,
        "tail_quantile": quantile,
        "backlog_growing": growing,
        "achieved_rps": (len(outcomes) - failed) / span,
        "passed": failed == 0 and tail * 1000 <= SEGMENT_LIMIT_MS and not growing,
    }


def _phase_counts(outcomes: list[Outcome]) -> dict[str, int]:
    failed = sum(1 for o in outcomes if not o.ok)
    return {"sent": len(outcomes), "succeeded": len(outcomes) - failed, "failed": failed}


def _analyse(workload: ServeMixed, raw: dict[str, Any]) -> dict[str, Any]:
    nominal = [o for block in raw["nominal"] for o in block]
    ladder = raw["ladder"]
    uploads = [o for server in raw["uploads"] for o in server]
    checks = {
        "cold_uploads_ok": all(o.ok and o.body.get("path") == "pipeline" for o in uploads),
        "server_exit_clean": raw["exit_code"] == 0,
    }
    cold_records: dict[str, Any] = {}
    for o in raw["uploads"][-1]:  # the server phase 2 runs against
        if o.ok:
            cold_records.update(_page_records(o.body))

    everything = nominal + [o for step in ladder for o in step]
    warm_equal = True
    empty_answers: dict[str, int] = {}
    for o in everything:
        if not o.ok:
            continue
        if o.kind == "segment":
            url = workload.singles[o.index][0]
            warm_equal &= o.body.get("path") == "wrapper" and _page_records(
                o.body
            ).get(url) == cold_records.get(url)
        else:
            rows = o.body.get("rows") or []
            if not rows or not all(r.get("site") and r.get("page") for r in rows):
                keyword = raw["keywords"][o.index]
                empty_answers[keyword] = empty_answers.get(keyword, 0) + 1
    checks["warm_records_equal_cold"] = warm_equal
    checks["queries_answered_with_provenance"] = not empty_answers

    late = lateness([o.due for o in everything], [o.dispatched for o in everything])
    late_p99_ms = tail_percentile(late, 0.99)[0] * 1000
    checks["generator_kept_schedule"] = late_p99_ms <= LATE_LIMIT_MS

    def timed(scaled: bool):
        """The timed metrics, scaled to the reference speed or as seen."""
        # The nominal blocks are the lowest rung.  On a machine too
        # loaded for even that to meet the limit, max_rps is the nominal
        # rate achieved, and the run block says no rate met the limit.
        rungs = [_rung(raw["nominal"], NOMINAL_RPS, scaled)] + [
            _rung([step], rate, scaled) for step, rate in zip(ladder, LADDER)
        ]
        passing = [r for r in rungs if r["passed"]]
        max_rps = passing[-1]["achieved_rps"] if passing else rungs[0]["achieved_rps"]
        seg_lat = _latencies([o for o in nominal if o.kind == "segment"], scaled)
        qry_lat = _latencies([o for o in nominal if o.kind == "query"], scaled)
        cold_lat = _latencies(uploads, scaled)
        metrics = {
            "setup_s": (statistics.median(raw["setups" if scaled else "raw_setups"]), "s"),
            "pages_per_s": (
                statistics.median(raw["upload_rates" if scaled else "raw_upload_rates"]),
                "1/s",
            ),
            "cold_p50_ms": (percentile(cold_lat, 0.5) * 1000, "ms"),
            "segment_p50_ms": (percentile(seg_lat, 0.5) * 1000, "ms"),
            "query_p50_ms": (percentile(qry_lat, 0.5) * 1000, "ms"),
            "max_rps": (max_rps, "1/s"),
        }
        return metrics, rungs, passing, seg_lat, qry_lat, cold_lat

    metrics, rungs, passing, seg_lat, qry_lat, cold_lat = timed(scaled=True)
    metrics["bundle_f1"] = (workload.bundle_f1(), "ratio")
    unscaled = timed(scaled=False)[0]
    seg = [o for o in nominal if o.kind == "segment"]
    seg_p99, seg_q = tail_percentile(seg_lat, 0.99)
    qry_p99, qry_q = tail_percentile(qry_lat, 0.99)
    attempted = len(uploads) + len(everything)
    failed = sum(1 for o in uploads + everything if not o.ok) + sum(empty_answers.values())
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "late_p99_ms": late_p99_ms,
        "seg": seg,
        "metrics": metrics,
        "run": {
            "setup_seconds": [round(s, 4) for s in raw["raw_setups"]],
            "unscaled": {name: value for name, (value, _) in unscaled.items()},
            "machine_speed": {
                phase: [round(statistics.median(o.speed for o in b), 4) for b in raw[phase]]
                for phase in ("uploads", "nominal", "ladder")
            },
            "inputs": {
                "pages": workload.corpus.page_count,
                "bundles": len(workload.bundles),
                "pages_uploaded": workload.pages_uploaded(),
                "single_page_payloads": len(workload.singles),
                "keywords": raw["keywords"],
                "requests": attempted,
            },
            "nominal_rps": NOMINAL_RPS,
            "segment_limit_ms": SEGMENT_LIMIT_MS,
            "phases": {
                "uploads": _phase_counts(uploads),
                "nominal": _phase_counts(nominal),
                **{f"ladder_{r:g}": _phase_counts(s) for r, s in zip(LADDER, ladder)},
            },
            "samples": {
                "cold": len(cold_lat),
                "segment": len(seg_lat),
                "segment_tail_quantile": seg_q,
                "segment_tail_ms": seg_p99 * 1000,
                "query": len(qry_lat),
                "query_tail_quantile": qry_q,
                "query_tail_ms": qry_p99 * 1000,
            },
            "ladder": rungs,
            "rate_limit_met": bool(passing),
            "generator_late_p99_ms": late_p99_ms,
            "empty_query_answers": empty_answers,
            "checks": checks,
        },
    }


def measure(workload: ServeMixed, seconds: float) -> dict[str, Any]:
    result = _analyse(workload, _session(workload, seconds))
    metrics = dict(result["metrics"])
    metrics["record_f1"] = (workload.record_f1(), "ratio")
    return {
        "correct": all(result["checks"].values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "run": result["run"],
    }


def trace(workload: ServeMixed, seconds: float) -> dict[str, Any]:
    """Per-layer serving metrics from responses and fleet ``/metricz``.

    The server is another process, so its layers are read from its
    public surface: each response's ``elapsed_s`` (service time) and
    the counters and span histograms every worker exports.
    """
    raw = _session(workload, seconds)
    result = _analyse(workload, raw)
    fleet = raw["fleet"]
    served = [o for o in result["seg"] if o.ok]
    layers = {
        "serve.service_p50_ms": percentile([o.body["elapsed_s"] for o in served], 0.5)
        * 1000,
        "serve.wait_p50_ms": percentile(
            [o.latency - o.body["elapsed_s"] for o in served], 0.5
        )
        * 1000,
        "serve.apply_s": fleet_seconds(fleet, "span.serve.apply.seconds"),
        "serve.pipeline_s": fleet_seconds(fleet, "span.serve.pipeline.seconds"),
        "serve.induce_s": fleet_seconds(fleet, "span.serve.induce.seconds"),
        "serve.wrapper_hits": fleet_counter(fleet, "serve.wrapper_hits"),
        "serve.pipeline_runs": fleet_counter(fleet, "serve.pipeline_runs"),
        "serve.fallbacks": fleet_counter(fleet, "serve.fallbacks"),
        "serve.rejected": fleet_counter(fleet, "serve.rejected"),
        "serve.registry.disk_hits": fleet_counter(fleet, "serve.registry.disk_hits"),
        # Supervisor counters are folded into every worker's body.
        "serve.supervisor.restarts": max(
            (s.get("counters", {}).get("serve.supervisor.restarts", 0) for s in fleet),
            default=0,
        ),
        "serve.generator_late_ms": result["late_p99_ms"],
        "store.ingest_s": fleet_seconds(fleet, "store.ingest.seconds"),
        "store.query_s": fleet_seconds(fleet, "store.query.seconds"),
        "store.ingest_errors": fleet_counter(fleet, "store.ingest.errors"),
        "store.rows": fleet_counter(fleet, "store.ingest.rows"),
        "store.inserted": fleet_counter(fleet, "store.ingest.sites")
        - fleet_counter(fleet, "store.ingest.replaced"),
        "store.replaced": fleet_counter(fleet, "store.ingest.replaced"),
        "store.unchanged": fleet_counter(fleet, "store.ingest.unchanged"),
        "error_ratio": result["failed"] / result["attempted"],
    }
    checks = dict(result["checks"])
    checks["fleet_metricz_complete"] = len(fleet) == PROCS
    run = dict(result["run"], checks=checks, fleet_snapshots=len(fleet))
    return {
        "correct": all(checks.values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "layers": layers,
        "run": run,
    }
