"""Tests for multi-process supervision (serve/supervisor.py).

Unit-tests the pure bookkeeping (:class:`CrashBudget`,
:class:`RestartBackoff`, :class:`SupervisorConfig`) with manual time,
then drives a real :class:`Supervisor` over tiny stand-in worker
scripts (spawn fast, no service import) to exercise reaping,
restarts, heartbeat timeouts, the crash budget and the control pipe,
and checks that :func:`worker_command`'s spec reaches
:func:`run_worker` intact.
The full-stack path — real serving workers, SIGKILL mid-load,
byte-identical warm answers — lives in ``test_serve_http.py``'s
supervised tests and ``tools/serve_smoke.py --supervised``.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.core.exceptions import ConfigError
from repro.serve import supervisor as supervisor_module
from repro.serve.chaos import ChaosPlan
from repro.serve.service import ServiceConfig
from repro.serve.supervisor import (
    CrashBudget,
    RestartBackoff,
    Supervisor,
    SupervisorConfig,
    WorkerSpawn,
    apply_memory_limit,
    supports_reuse_port,
    worker_command,
)

pytestmark = pytest.mark.skipif(
    not supports_reuse_port(), reason="needs SO_REUSEPORT"
)

#: Worker that heartbeats forever and echoes control lines to a file.
BEAT_FOREVER = """
import os, sys, time
fd = int(sys.argv[1])
log = sys.argv[2] if len(sys.argv) > 2 else None
import threading
def beat():
    while True:
        os.write(fd, b".")
        time.sleep(0.05)
threading.Thread(target=beat, daemon=True).start()
for line in sys.stdin:
    if log:
        with open(log, "a") as handle:
            handle.write(line)
"""

#: Worker that exits immediately (a crash loop when restarted).
DIE_NOW = "import sys; sys.exit(3)"

#: Worker that stays alive but never heartbeats (a wedged process).
SILENT = "import time\nwhile True: time.sleep(1)"


def make_supervisor(script, config, extra_args=(), out=None):
    def worker_command(spawn):
        return [
            sys.executable,
            "-c",
            script,
            str(spawn.heartbeat_fd),
            *extra_args,
        ]

    return Supervisor(worker_command, config, port=0, out=out)


def run_in_thread(supervisor):
    codes = []
    thread = threading.Thread(
        # Signal handlers only install on the main thread.
        target=lambda: codes.append(supervisor.run(install_signals=False)),
        daemon=True,
    )
    thread.start()
    return thread, codes


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestCrashBudget:
    def test_within_budget(self):
        budget = CrashBudget(budget=2, window_s=60.0)
        budget.record(now=0.0)
        budget.record(now=1.0)
        assert not budget.exhausted(now=1.0)
        assert budget.count(now=1.0) == 2

    def test_one_past_budget_exhausts(self):
        budget = CrashBudget(budget=2, window_s=60.0)
        for moment in (0.0, 1.0, 2.0):
            budget.record(now=moment)
        assert budget.exhausted(now=2.0)

    def test_window_rolls(self):
        budget = CrashBudget(budget=1, window_s=10.0)
        budget.record(now=0.0)
        budget.record(now=5.0)
        assert budget.exhausted(now=5.0)
        # The first crash ages out of the window.
        assert not budget.exhausted(now=11.0)
        assert budget.count(now=11.0) == 1

    def test_zero_budget_tolerates_nothing(self):
        budget = CrashBudget(budget=0, window_s=60.0)
        assert not budget.exhausted(now=0.0)
        budget.record(now=0.0)
        assert budget.exhausted(now=0.0)


class TestRestartBackoff:
    def test_doubles_up_to_max(self):
        backoff = RestartBackoff(base_s=0.1, max_s=1.0, reset_s=30.0)
        delays = [backoff.next_delay(uptime_s=0.0) for _ in range(6)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_stable_uptime_resets_streak(self):
        backoff = RestartBackoff(base_s=0.1, max_s=5.0, reset_s=30.0)
        backoff.next_delay(uptime_s=0.0)
        backoff.next_delay(uptime_s=0.0)
        assert backoff.next_delay(uptime_s=0.0) == pytest.approx(0.4)
        # A worker that ran half a minute is forgiven its history.
        assert backoff.next_delay(uptime_s=45.0) == pytest.approx(0.1)


class TestSupervisorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"procs": 0},
            {"crash_budget": -1},
            {"crash_window_s": 0.0},
            {"heartbeat_timeout_s": 0.1, "heartbeat_interval_s": 0.25},
            {"drain_grace_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisorConfig(**kwargs)


class TestSupervisorLoop:
    CONFIG = SupervisorConfig(
        procs=2,
        crash_budget=8,
        crash_window_s=60.0,
        backoff_base_s=0.05,
        backoff_max_s=0.2,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.0,
        drain_grace_s=5.0,
    )

    def test_bind_resolves_ephemeral_port(self):
        supervisor = make_supervisor(BEAT_FOREVER, self.CONFIG)
        port = supervisor.bind()
        try:
            assert port > 0
            assert supervisor.address.endswith(f":{port}")
        finally:
            supervisor._close()

    def test_spawns_and_drains_cleanly(self):
        supervisor = make_supervisor(BEAT_FOREVER, self.CONFIG)
        thread, codes = run_in_thread(supervisor)
        assert wait_until(lambda: supervisor.live_workers() == 2)
        supervisor.stop()
        thread.join(timeout=15.0)
        assert codes == [0]
        assert supervisor.live_workers() == 0

    def test_dead_worker_restarts(self):
        supervisor = make_supervisor(BEAT_FOREVER, self.CONFIG)
        thread, codes = run_in_thread(supervisor)
        assert wait_until(lambda: supervisor.live_workers() == 2)
        victim = supervisor._slots[0].process
        victim.kill()
        assert wait_until(
            lambda: supervisor._slots[0].process is not None
            and supervisor._slots[0].process.pid != victim.pid
        )
        assert supervisor._slots[0].generation == 1
        restarts = supervisor.metrics.counter("serve.supervisor.restarts")
        assert restarts.value >= 1
        supervisor.stop()
        thread.join(timeout=15.0)
        assert codes == [0]

    def test_crash_loop_exhausts_budget_and_exits_nonzero(self):
        config = SupervisorConfig(
            procs=1,
            crash_budget=2,
            crash_window_s=60.0,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=1.0,
            degraded_grace_s=0.05,
            drain_grace_s=5.0,
        )
        supervisor = make_supervisor(DIE_NOW, config)
        thread, codes = run_in_thread(supervisor)
        thread.join(timeout=20.0)
        assert codes == [1]
        exhausted = supervisor.metrics.counter(
            "serve.supervisor.crash_budget_exhausted"
        )
        assert exhausted.value == 1
        # budget crashes tolerated + the one that broke it.
        assert supervisor.metrics.counter("serve.supervisor.reaps").value == 3

    def test_heartbeat_silence_is_a_crash(self):
        config = SupervisorConfig(
            procs=1,
            crash_budget=0,
            crash_window_s=60.0,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.5,
            degraded_grace_s=0.05,
            drain_grace_s=5.0,
        )
        supervisor = make_supervisor(SILENT, config)
        thread, codes = run_in_thread(supervisor)
        thread.join(timeout=20.0)
        # budget=0: the first heartbeat kill exhausts it right away.
        assert codes == [1]
        timeouts = supervisor.metrics.counter(
            "serve.supervisor.heartbeat_timeouts"
        )
        assert timeouts.value == 1

    def test_control_pipe_carries_metrics_and_degraded(self, tmp_path):
        log = tmp_path / "control.jsonl"
        config = SupervisorConfig(
            procs=1,
            crash_budget=0,
            crash_window_s=60.0,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=5.0,
            broadcast_interval_s=0.1,
            degraded_grace_s=0.2,
            drain_grace_s=5.0,
        )
        supervisor = make_supervisor(
            BEAT_FOREVER, config, extra_args=(str(log),)
        )
        thread, _ = run_in_thread(supervisor)
        assert wait_until(lambda: supervisor.live_workers() == 1)
        assert wait_until(lambda: log.exists() and log.read_text().strip())
        supervisor.stop()
        thread.join(timeout=15.0)
        messages = [
            json.loads(line)
            for line in log.read_text().splitlines()
            if line.strip()
        ]
        snapshots = [
            m for m in messages if m["type"] == "supervisor_metrics"
        ]
        assert snapshots
        assert (
            snapshots[0]["metrics"]["counters"]["serve.supervisor.spawns"]
            == 1
        )

    def test_degraded_broadcast_before_budget_exit(self, tmp_path):
        log = tmp_path / "control.jsonl"
        config = SupervisorConfig(
            procs=2,
            crash_budget=0,
            crash_window_s=60.0,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=5.0,
            degraded_grace_s=0.2,
            drain_grace_s=5.0,
        )
        supervisor = make_supervisor(
            BEAT_FOREVER, config, extra_args=(str(log),)
        )
        thread, codes = run_in_thread(supervisor)
        assert wait_until(lambda: supervisor.live_workers() == 2)
        supervisor._slots[0].process.kill()  # budget=0: one crash kills it
        thread.join(timeout=20.0)
        assert codes == [1]
        messages = [
            json.loads(line)
            for line in log.read_text().splitlines()
            if line.strip()
        ]
        # The surviving worker was told the fleet is degraded before
        # the drain took it down.
        assert {"type": "state", "status": "degraded"} in messages


class TestWorkerCommand:
    def test_worker_receives_its_whole_configuration(self, monkeypatch):
        config = ServiceConfig(
            method="csp", workers=1, deadline_s=5.0, wrapper_cache_dir="/w"
        )
        plan = ChaosPlan(seed=3, kill_rate=0.1, disk_full_rate=0.5)
        spawn = WorkerSpawn(
            index=1,
            generation=2,
            port=8081,
            heartbeat_fd=9,
            heartbeat_interval_s=0.1,
        )
        argv = worker_command(config, "0.0.0.0", plan, 512)(spawn)
        assert argv[:3] == [sys.executable, "-m", "repro.serve.supervisor"]

        started = {}
        monkeypatch.setattr(
            supervisor_module,
            "run_worker",
            lambda **kwargs: started.update(kwargs) or 0,
        )
        assert supervisor_module._worker_main(argv[3]) == 0
        assert started == {
            "service_config": config,
            "host": "0.0.0.0",
            "port": 8081,
            "heartbeat_fd": 9,
            "heartbeat_interval_s": 0.1,
            "worker_index": 1,
            "generation": 2,
            "chaos_plan": plan,
            "mem_limit_mb": 512,
        }


class TestMemoryLimit:
    def test_none_is_a_no_op(self):
        assert apply_memory_limit(None) is False
        assert apply_memory_limit(0) is False

    def test_limit_applies_in_subprocess(self):
        import subprocess

        script = (
            "from repro.serve.supervisor import apply_memory_limit\n"
            "assert apply_memory_limit(256)\n"
            "try:\n"
            "    block = bytearray(1024 * 1024 * 1024)\n"
            "except MemoryError:\n"
            "    print('capped')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "capped" in result.stdout
