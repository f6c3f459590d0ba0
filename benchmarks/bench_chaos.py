"""Chaos benchmark: supervised-serving availability under injected faults.

The supervisor's contract (``src/repro/serve/supervisor.py``,
docs/serving.md) is that process-level faults cost at most the dying
worker's in-flight requests — never the endpoint.  This bench
measures that contract end to end: for each fault mix a real
2-process supervised fleet is spawned (real ``python -m repro serve``
workers sharing one ``SO_REUSEPORT`` port and one disk wrapper
registry) and driven by the retrying
:class:`~repro.serve.client.ServeClient`; faults come from a seeded
:class:`~repro.serve.chaos.ChaosPlan` that
:func:`~repro.serve.supervisor.worker_command` ships to each worker
with the rest of its configuration, so every run replays the same
kill/hang/cache-fault schedule.

Reported per mix: availability (fraction of requests answering 200),
client-side p50/p99 wall latency, client retries, and the
supervisor's reap/restart counters.  The floors the serving design
promises:

* **baseline / cache-fault mixes**: availability >= 99% — corrupt or
  slow reads and full-disk writes are absorbed below the HTTP surface
  entirely;
* **the default kill mix**: availability >= 99% — SIGKILLed workers
  cost only their in-flight requests, which the client's bounded
  retries ride out while the supervisor restarts the worker;
* the kill mix must actually restart workers (the fleet healed, the
  faults didn't just miss).

The hang mix has no availability floor — a hung handler *is* a lost
request (504 after deadline + grace) — but its p99 must stay bounded
by the watchdog rather than the 60 s hang duration.

Headline numbers go to ``BENCH_chaos.json`` (directory override:
``BENCH_OUT_DIR``), the robustness analogue of ``BENCH_serving.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

from repro.serve import ServeClient, ServiceConfig, payload_from_pages
from repro.serve.chaos import ChaosPlan
from repro.serve.supervisor import (
    Supervisor,
    SupervisorConfig,
    supports_reuse_port,
    worker_command,
)

import pytest

pytestmark = pytest.mark.skipif(
    not supports_reuse_port(), reason="needs SO_REUSEPORT"
)

SITE = "ohio"
SEED = 42
PROCS = 2

#: (name, plan, timed requests, availability floor or None).
MIXES = (
    ("baseline", ChaosPlan(seed=SEED), 60, 0.99),
    ("kills", ChaosPlan(seed=SEED, kill_rate=0.04), 60, 0.99),
    ("hangs", ChaosPlan(seed=SEED, hang_rate=0.05, hang_s=60.0), 30, None),
    (
        "cache_faults",
        ChaosPlan(
            seed=SEED,
            cache_corrupt_rate=0.3,
            cache_slow_rate=0.3,
            cache_slow_s=0.05,
            disk_full_rate=0.3,
        ),
        60,
        0.99,
    ),
)

SUPERVISOR_CONFIG = SupervisorConfig(
    procs=PROCS,
    crash_budget=32,
    crash_window_s=60.0,
    backoff_base_s=0.05,
    backoff_max_s=0.5,
    heartbeat_interval_s=0.1,
    heartbeat_timeout_s=10.0,
    drain_grace_s=15.0,
)


def quantile(samples, q):
    ordered = sorted(samples)
    index = min(int(len(ordered) * q), len(ordered) - 1)
    return ordered[index]


def warm_payload(corpus):
    site = corpus.site(SITE)
    return payload_from_pages(
        SITE, site.list_pages[1:2], [site.detail_pages(1)]
    )


def full_payload(corpus):
    site = corpus.site(SITE)
    return payload_from_pages(
        SITE,
        site.list_pages,
        [site.detail_pages(i) for i in range(len(site.list_pages))],
    )


def run_mix(corpus, name, plan, requests):
    """One supervised fleet, one fault mix; returns the measurements."""
    workdir = Path(tempfile.mkdtemp(prefix=f"chaos-{name}-"))
    config = ServiceConfig(
        workers=1,
        max_queue=8,
        deadline_s=5.0,
        hung_grace_s=0.5,
        wrapper_cache_dir=str(workdir / "wrappers"),
    )
    supervisor = Supervisor(
        worker_command(config, "127.0.0.1", plan), SUPERVISOR_CONFIG, port=0
    )
    supervisor.bind()  # resolve port 0 before the client needs the address
    codes: list[int] = []
    thread = threading.Thread(
        target=lambda: codes.append(supervisor.run(install_signals=False)),
        daemon=True,
    )
    thread.start()
    client = ServeClient(
        supervisor.address, timeout_s=60.0, max_retries=8,
        retry_base_s=0.1, retry_seed=SEED,
    )
    try:
        # Wait for a worker to answer, then warm the shared registry.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                if client.healthz().status == 200:
                    break
            except Exception:
                time.sleep(0.1)
        assert client.segment(full_payload(corpus)).status == 200

        payload = warm_payload(corpus)
        statuses: list[int] = []
        latencies: list[float] = []
        for _ in range(requests):
            started = time.perf_counter()
            try:
                status = client.segment(payload).status
            except Exception:
                status = 0
            latencies.append(time.perf_counter() - started)
            statuses.append(status)

        ok = sum(1 for status in statuses if status == 200)
        counters = supervisor.metrics.as_dict()["counters"]
        return {
            "requests": requests,
            "availability": round(ok / requests, 4),
            "p50_s": round(statistics.median(latencies), 4),
            "p99_s": round(quantile(latencies, 0.99), 4),
            "client_retries": client.retries,
            "worker_reaps": counters.get("serve.supervisor.reaps", 0),
            "worker_restarts": counters.get("serve.supervisor.restarts", 0),
        }
    finally:
        supervisor.stop()
        thread.join(timeout=60.0)
        shutil.rmtree(workdir, ignore_errors=True)


def test_availability_under_chaos(corpus, benchmark, capsys):
    def run_all():
        return {
            name: run_mix(corpus, name, plan, requests)
            for name, plan, requests, _ in MIXES
        }

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)

    for name, _, _, floor in MIXES:
        row = results[name]
        if floor is not None:
            assert row["availability"] >= floor, (
                f"{name}: availability {row['availability']} "
                f"below the {floor} floor ({row})"
            )
    # The kill mix must have exercised the healing path, and a hang
    # must end at the watchdog's 504, not ride the 60 s sleep.
    assert results["kills"]["worker_restarts"] >= 1
    assert results["hangs"]["p99_s"] < 30.0

    summary = {
        "site": SITE,
        "seed": SEED,
        "procs": PROCS,
        "mixes": results,
    }
    out_dir = Path(os.environ.get("BENCH_OUT_DIR", "."))
    out_path = out_dir / "BENCH_chaos.json"
    out_path.write_text(json.dumps(summary, indent=2) + "\n")
    for name, row in results.items():
        benchmark.extra_info[f"availability_{name}"] = row["availability"]
        benchmark.extra_info[f"restarts_{name}"] = row["worker_restarts"]

    with capsys.disabled():
        print(f"\nsupervised serving under chaos ({PROCS} procs, seed {SEED}):")
        header = (
            f"  {'mix':<14} {'avail':>7} {'p50':>8} {'p99':>8} "
            f"{'retries':>8} {'reaps':>6} {'restarts':>9}"
        )
        print(header)
        for name, row in results.items():
            print(
                f"  {name:<14} {row['availability']:>7.4f} "
                f"{row['p50_s']:>7.3f}s {row['p99_s']:>7.3f}s "
                f"{row['client_retries']:>8} {row['worker_reaps']:>6} "
                f"{row['worker_restarts']:>9}"
            )
        print(f"  wrote {out_path}")
