"""End-to-end tests of the HTTP serving layer.

Drives a real in-process :class:`~repro.serve.http.SegmentationServer`
(ephemeral port) through :class:`~repro.serve.client.ServeClient` —
actual sockets, actual JSON.  Includes the issue's acceptance test:
same site twice (cold ``"pipeline"`` then warm ``"wrapper"`` with
identical records), a redesigned page triggering drift fallback and
re-induction, and ``/metricz`` reporting the matching counters.
"""

from __future__ import annotations

import dataclasses
import http.client
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path

import pytest

import repro
from repro.serve import (
    SegmentationServer,
    SegmentationService,
    ServeClient,
    ServiceConfig,
    Supervisor,
    SupervisorConfig,
    payload_from_pages,
    supports_reuse_port,
    worker_command,
)
from repro.sitegen.corpus import build_site
from repro.sitegen.site import GeneratedSite, RowLayout


def site_payload(site, name):
    return payload_from_pages(
        name,
        site.list_pages,
        [site.detail_pages(index) for index in range(len(site.list_pages))],
    )


@pytest.fixture()
def server_factory():
    """Build servers on ephemeral ports; tear them all down after."""
    servers = []

    def build(config: ServiceConfig) -> tuple[SegmentationServer, ServeClient]:
        server = SegmentationServer(SegmentationService(config), port=0)
        servers.append(server)
        server.start()
        return server, ServeClient(server.address, timeout_s=120.0)

    yield build
    for server in servers:
        server.service.sleep_released.set()
        server.shutdown(drain_timeout_s=5.0)


def wait_for(condition, timeout_s=30.0):
    """Poll ``condition`` until it holds or ``timeout_s`` passes."""
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


def test_acceptance_cold_warm_drift(server_factory):
    """The issue's end-to-end criterion, over real HTTP."""
    _, client = server_factory(ServiceConfig(method="prob"))
    site = build_site("ohio")
    payload = site_payload(site, "ohio")

    cold = client.segment(payload)
    assert cold.status == 200
    assert cold.body["path"] == "pipeline"
    assert cold.body["record_count"] > 0
    assert cold.headers.get("X-Trace-Id") == cold.body["trace_id"]

    warm = client.segment(payload)
    assert warm.status == 200
    assert warm.body["path"] == "wrapper"
    assert warm.body["pages"] == cold.body["pages"]

    # A site redesign: same site name, different row layout.
    redesigned = GeneratedSite(
        dataclasses.replace(site.spec, layout=RowLayout.BLOCKS)
    )
    drifted = client.segment(site_payload(redesigned, "ohio"))
    assert drifted.status == 200
    assert drifted.body["path"] == "pipeline"
    assert drifted.body["drift"]["drifted"]
    assert drifted.body["record_count"] > 0

    # Re-induction: the new layout is warm on the next request.
    healed = client.segment(site_payload(redesigned, "ohio"))
    assert healed.status == 200
    assert healed.body["path"] == "wrapper"

    metricz = client.metricz()
    assert metricz.status == 200
    counters = metricz.body["counters"]
    assert counters["serve.requests"] == 4
    assert counters["serve.wrapper_hits"] == 2
    assert counters["serve.fallbacks"] == 1
    assert counters["serve.pipeline_runs"] == 2
    assert counters["serve.reinductions"] == 1
    assert "serve.request.seconds" in metricz.body["histograms"]

    health = client.healthz()
    assert health.status == 200
    assert health.body["status"] == "ok"
    assert health.body["sites_cached"] == 1


def test_queue_saturation_answers_429(server_factory):
    server, client = server_factory(
        ServiceConfig(workers=1, max_queue=1)
    )
    statuses: list[int] = []
    lock = threading.Lock()

    def fire():
        # Held until released below, however slowly the others arrive.
        response = client.sleep(30.0)
        with lock:
            statuses.append(response.status)

    threads = [threading.Thread(target=fire) for _ in range(4)]
    for thread in threads:
        thread.start()
    wait_for(lambda: len(statuses) >= 2)
    server.service.sleep_released.set()
    for thread in threads:
        thread.join()
    # 1 in flight + 1 queued; the other two are shed at the door.
    assert sorted(statuses) == [200, 200, 429, 429]
    rejected = server.service.metrics.counter("serve.rejected")
    assert rejected.value == 2


def test_429_carries_retry_after(server_factory):
    _, client = server_factory(ServiceConfig(workers=1, max_queue=1))
    responses = []
    threads = [
        threading.Thread(target=lambda: responses.append(client.sleep(0.8)))
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rejected = [r for r in responses if r.status == 429]
    assert rejected
    for response in rejected:
        assert int(response.headers["Retry-After"]) >= 1


def test_deadline_answers_504(server_factory):
    config = ServiceConfig(workers=1, max_queue=2, deadline_s=0.2)
    server, client = server_factory(config)
    response = client.sleep(2.0)
    assert response.status == 504
    assert server.service.metrics.counter("serve.deadline_hits").value >= 1


def test_bad_json_answers_400(server_factory):
    server, client = server_factory(ServiceConfig())
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request(
        "POST",
        "/v1/segment",
        body=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    assert response.status == 400
    conn.close()


def test_malformed_payload_answers_400(server_factory):
    _, client = server_factory(ServiceConfig())
    response = client.segment({"site": "x"})
    assert response.status == 400
    assert "error" in response.body


def test_oversized_body_answers_413(server_factory):
    _, client = server_factory(
        ServiceConfig(max_body_bytes=64)
    )
    response = client.segment({"site": "x", "pages": [{"list": "y" * 200}]})
    assert response.status == 413


def test_unknown_routes(server_factory):
    _, client = server_factory(ServiceConfig())
    assert client._request("/nope").status == 404
    assert client._request("/v1/segment").status == 405  # GET on POST route


def test_graceful_shutdown_drains(server_factory):
    server, client = server_factory(ServiceConfig(workers=1, max_queue=4))
    results: list[int] = []

    def slow():
        results.append(client.sleep(0.5).status)

    thread = threading.Thread(target=slow)
    thread.start()
    # Let the job reach a worker before we start draining.
    for _ in range(100):
        if server.in_flight() or server.queue_depth():
            break
        time.sleep(0.01)
    server.shutdown(drain_timeout_s=10.0)
    thread.join()
    # The in-flight request finished despite shutdown...
    assert results == [200]
    # ...and the socket is closed afterwards.
    with pytest.raises(urllib.error.URLError):
        client.healthz()


def test_draining_server_refuses_new_segments(server_factory):
    server, client = server_factory(ServiceConfig())
    server.draining.set()
    refused = client.segment({"_sleep": 0.0})
    assert refused.status == 503
    health = client.healthz()
    assert health.status == 200
    assert health.body["status"] == "draining"


def test_shutdown_race_queued_finish_new_refused(server_factory):
    """SIGTERM with a full queue: queued jobs finish, new ones get 503."""
    server, client = server_factory(ServiceConfig(workers=1, max_queue=4))
    statuses: list[int] = []
    lock = threading.Lock()

    def held():
        response = client.sleep(0.4)
        with lock:
            statuses.append(response.status)

    threads = [threading.Thread(target=held) for _ in range(3)]
    for thread in threads:
        thread.start()
    # Wait until one runs and the rest sit in the queue.
    for _ in range(200):
        if server.in_flight() >= 1 and server.queue_depth() >= 2:
            break
        time.sleep(0.01)
    shutter = threading.Thread(
        target=lambda: server.shutdown(drain_timeout_s=10.0)
    )
    shutter.start()
    for _ in range(200):
        if server.draining.is_set():
            break
        time.sleep(0.01)
    # A request arriving mid-drain is refused at the door...
    assert client.sleep(0.0).status == 503
    shutter.join(timeout=15.0)
    for thread in threads:
        thread.join(timeout=15.0)
    # ...while everything already admitted completed.
    assert statuses == [200, 200, 200]


def test_double_shutdown_is_idempotent():
    from repro.obs import ManualClock

    clock = ManualClock(start=100.0)
    server = SegmentationServer(
        SegmentationService(ServiceConfig()), port=0, clock=clock
    )
    server.start()
    server.shutdown(drain_timeout_s=5.0)
    # Repeat and concurrent calls return immediately, no second close.
    server.shutdown(drain_timeout_s=5.0)
    racers = [
        threading.Thread(target=server.shutdown) for _ in range(4)
    ]
    for racer in racers:
        racer.start()
    for racer in racers:
        racer.join(timeout=5.0)
        assert not racer.is_alive()


def test_watchdog_converts_hung_request_to_504(server_factory):
    config = ServiceConfig(
        workers=1,
        max_queue=4,
        deadline_s=0.3,
        hung_grace_s=0.2,
    )
    server, client = server_factory(config)
    # Wedges the only worker thread until the fixture releases it.
    hung = client.sleep(30.0)
    assert hung.status == 504
    metrics = server.service.metrics
    wait_for(lambda: metrics.counter("serve.watchdog.hung_requests").value >= 1)
    assert metrics.counter("serve.watchdog.hung_requests").value >= 1
    assert metrics.counter("serve.watchdog.replacements").value >= 1
    # The replacement thread restored capacity: a fresh request works
    # even though the original worker is still asleep.
    assert client.sleep(0.0).status == 200
    assert server.in_flight() == 0  # the gauge did not leak


def test_external_status_and_metrics_surface(server_factory):
    server, client = server_factory(ServiceConfig())
    server.external_status = "degraded"
    server.external_metrics = {
        "counters": {"serve.supervisor.restarts": 7},
        "histograms": {},
    }
    health = client.healthz()
    assert health.body["status"] == "degraded"
    metricz = client.metricz()
    assert metricz.body["counters"]["serve.supervisor.restarts"] == 7
    server.external_status = None
    assert client.healthz().body["status"] == "ok"


@pytest.mark.skipif(not supports_reuse_port(), reason="needs SO_REUSEPORT")
def test_one_process_serve_runs_the_chaos_plan_on_its_cache(tmp_path):
    """``repro serve`` without ``--procs`` wires a plan like a worker does."""
    wrappers = tmp_path / "wrappers"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 1, "disk_full_rate": 1.0}))
    src = Path(repro.__file__).resolve().parents[1]
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
            "--wrapper-cache-dir", str(wrappers), "--chaos-plan", str(plan),
        ],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    try:
        match = re.search(
            r"listening on (http://(\S+):(\d+))", process.stdout.readline()
        )
        assert match, "server did not report its address"
        # One process binds its port alone: a SO_REUSEPORT socket
        # cannot share it.
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            with pytest.raises(OSError):
                probe.bind((match.group(2), int(match.group(3))))

        client = ServeClient(match.group(1), timeout_s=120.0)
        response = client.segment(site_payload(build_site("ohio"), "ohio"))
        assert response.status == 200
        counters = client.metricz().body["counters"]
        assert counters["serve.chaos.disk_full"] == 1
        assert counters["serve.registry.store_errors"] == 1
        assert not [path for path in wrappers.rglob("*") if path.is_file()]
        # No control pipe: stdin at EOF does not stop the server.
        assert client.healthz().status == 200
    finally:
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        process.stdout.close()


class TestSupervised:
    """Full-stack supervised serving: real workers, real SIGKILL."""

    pytestmark = pytest.mark.skipif(
        not supports_reuse_port(), reason="needs SO_REUSEPORT"
    )

    @pytest.fixture()
    def supervised(self, tmp_path):
        procs = []
        out = io.StringIO()

        config = ServiceConfig(
            workers=1,
            max_queue=8,
            wrapper_cache_dir=str(tmp_path / "wrappers"),
        )
        supervisor = Supervisor(
            worker_command(config, "127.0.0.1"),
            SupervisorConfig(
                procs=2,
                crash_budget=8,
                crash_window_s=60.0,
                backoff_base_s=0.05,
                backoff_max_s=0.5,
                heartbeat_interval_s=0.1,
                heartbeat_timeout_s=10.0,
                drain_grace_s=15.0,
            ),
            port=0,
            out=out,
        )
        codes: list[int] = []
        thread = threading.Thread(
            target=lambda: codes.append(
                supervisor.run(install_signals=False)
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if supervisor.live_workers() == 2:
                break
            time.sleep(0.05)
        client = ServeClient(
            supervisor.address,
            timeout_s=120.0,
            max_retries=6,
            retry_base_s=0.1,
        )
        # Wait until a worker actually answers (binding takes a beat).
        while time.monotonic() < deadline:
            try:
                if client.healthz().status == 200:
                    break
            except (urllib.error.URLError, ConnectionError):
                time.sleep(0.1)
        yield supervisor, client, codes
        supervisor.stop()
        thread.join(timeout=30.0)

    def test_sigkill_mid_load_recovers_byte_identical(self, supervised):
        supervisor, client, codes = supervised
        site = build_site("lee")
        payload = site_payload(site, "lee")
        cold = client.segment(payload)
        assert cold.status == 200
        warm = client.segment(payload)
        assert warm.status == 200

        victim = supervisor._slots[0].process
        victim.kill()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            slot = supervisor._slots[0]
            if slot.process is not None and slot.process.pid != victim.pid:
                break
            time.sleep(0.05)
        assert supervisor._slots[0].generation >= 1

        # The retrying client rides out the reset; the answer is
        # byte-identical because the replacement warms from the shared
        # disk registry rather than re-inducing.
        after = client.segment(payload)
        assert after.status == 200
        assert after.body["pages"] == warm.body["pages"]
        restarts = supervisor.metrics.counter("serve.supervisor.restarts")
        assert restarts.value >= 1


def test_query_endpoint_over_http(server_factory, tmp_path):
    """/query answers the store the same requests populated online."""
    _, client = server_factory(
        ServiceConfig(method="prob", store_path=str(tmp_path / "q.db"))
    )
    site = build_site("ohio")
    assert client.segment(site_payload(site, "ohio")).status == 200

    answer = client.query(["name", "offense"])
    assert answer.status == 200
    assert answer.body["tables"][0]["site"] == "ohio"
    assert answer.body["row_count"] > 0
    first = answer.body["rows"][0]
    assert first["site"] == "ohio" and "record" in first

    # Comma form and the limit parameter ride the query string too.
    comma = client.query("name,offense", limit=3)
    assert comma.status == 200
    assert comma.body["keywords"] == ["name", "offense"]
    assert comma.body["row_count"] == 3

    empty = client.query([" , "])
    assert empty.status == 400


def test_query_endpoint_without_store_404s(server_factory):
    _, client = server_factory(ServiceConfig(method="prob"))
    assert client.query(["name"]).status == 404
