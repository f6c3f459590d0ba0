"""Multi-process supervision for the serving layer.

One :class:`~repro.serve.http.SegmentationServer` process is a single
point of failure: a segfault, an OOM kill, or a wedged wrapper takes
every in-flight request and the whole endpoint with it.  The
:class:`Supervisor` is the crash-only answer — a small parent process
whose *only* jobs are holding the port and keeping N workers alive:

* **the port outlives any worker** — the parent binds the listening
  address with ``SO_REUSEPORT`` but never calls ``listen()``; it
  merely reserves (and, for port 0, resolves) the port.  Each worker
  process binds the same address with ``SO_REUSEPORT`` and listens,
  so the kernel spreads connections across live workers and a dead
  worker's share reroutes on its next SYN;
* **heartbeat pipes** — each worker inherits a pipe fd and writes a
  byte every ``heartbeat_interval_s``; a worker silent past
  ``heartbeat_timeout_s`` is presumed wedged, SIGKILLed and reaped
  (``serve.supervisor.heartbeat_timeouts``), exactly like one that
  exited on its own;
* **self-healing restarts** — a reaped worker is respawned with
  exponential backoff (:class:`RestartBackoff`; stable uptime resets
  the streak) under a rolling-window crash budget
  (:class:`CrashBudget`).  Exhausting the budget means the fleet is
  beyond saving: the supervisor broadcasts ``degraded`` (surviving
  workers report it on ``/healthz``), waits ``degraded_grace_s`` so
  load balancers can see it, drains everyone, and exits non-zero;
* **a control pipe per worker** — the worker's stdin carries JSON
  lines from the parent: periodic ``serve.supervisor.*`` metric
  snapshots (folded into the worker's ``/metricz``, so the fleet's
  restart history is observable from any worker) and state changes
  (``degraded``).  EOF on the pipe means the supervisor died — the
  worker drains itself rather than becoming an orphan;
* **rolling drain** — SIGTERM/SIGINT drains workers *one at a time*
  (each finishes its queue under PR 4's 429/504 semantics and exits
  0), so the endpoint keeps answering until the last worker is gone;
  the supervisor then exits 0.

This module is also the one place a serving worker is configured and
started.  :func:`worker_command` makes every worker's argv,
``python -m repro.serve.supervisor SPEC``, where ``SPEC`` is one JSON
object holding the worker's
:class:`~repro.serve.service.ServiceConfig`, chaos plan, memory cap
and :class:`WorkerSpawn` facts.  The child hands it to
:func:`run_worker`, which ``repro serve --procs 1`` also calls, in
process and without a heartbeat fd.

Worker-side hardening lives in :func:`run_worker`: the per-request
deadline and hung-handler watchdog from :mod:`repro.serve.http`, an
optional ``resource.setrlimit`` memory ceiling (an allocation beyond
it raises ``MemoryError`` in one request, or at worst kills the one
worker — never the fleet), and the seeded chaos harness
(:mod:`repro.serve.chaos`) when a plan is given.  The shared
crash-survivable state is the wrapper registry's *disk* tier: every
worker points at one ``--wrapper-cache-dir``, so a restarted worker
warms from its predecessors' induced wrappers and answers
byte-identically to a never-crashed run.

CLI: ``repro serve --procs 4 --crash-budget 8 --wrapper-cache-dir
./wrappers``; see ``docs/serving.md``.
"""

from __future__ import annotations

import io
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.exceptions import ConfigError
from repro.obs import MetricsRegistry

if TYPE_CHECKING:
    from repro.serve.chaos import ChaosPlan
    from repro.serve.service import ServiceConfig

__all__ = [
    "CrashBudget",
    "RestartBackoff",
    "Supervisor",
    "SupervisorConfig",
    "WorkerSpawn",
    "apply_memory_limit",
    "run_worker",
    "supports_reuse_port",
    "worker_command",
]


def supports_reuse_port() -> bool:
    """Whether this platform can share one port across processes."""
    return hasattr(socket, "SO_REUSEPORT")


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervision loop.

    Attributes:
        procs: worker-process count.
        crash_budget: crashes tolerated per rolling window; one more
            and the supervisor drains and exits non-zero.
        crash_window_s: the rolling window those crashes are counted
            over.
        backoff_base_s: first restart delay after a crash; doubles per
            consecutive crash up to ``backoff_max_s``.
        backoff_max_s: restart-delay ceiling.
        backoff_reset_s: a worker that stayed up this long resets its
            consecutive-crash streak.
        heartbeat_interval_s: how often workers write a heartbeat byte.
        heartbeat_timeout_s: silence past this means wedged: SIGKILL.
        poll_interval_s: supervision-loop tick (select timeout).
        broadcast_interval_s: how often the metrics snapshot is pushed
            down the control pipes.
        degraded_grace_s: how long workers advertise ``degraded`` on
            ``/healthz`` before the budget-exhausted drain begins.
        drain_grace_s: total budget for the rolling SIGTERM drain;
            stragglers past it are killed.
    """

    procs: int = 2
    crash_budget: int = 8
    crash_window_s: float = 60.0
    backoff_base_s: float = 0.1
    backoff_max_s: float = 5.0
    backoff_reset_s: float = 30.0
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 10.0
    poll_interval_s: float = 0.05
    broadcast_interval_s: float = 0.5
    degraded_grace_s: float = 1.0
    drain_grace_s: float = 15.0

    def __post_init__(self) -> None:
        if self.procs < 1:
            raise ConfigError(f"procs must be >= 1, got {self.procs}")
        if self.crash_budget < 0:
            raise ConfigError("crash_budget must be >= 0")
        positives = {
            "crash_window_s": self.crash_window_s,
            "backoff_base_s": self.backoff_base_s,
            "backoff_max_s": self.backoff_max_s,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "heartbeat_timeout_s": self.heartbeat_timeout_s,
            "poll_interval_s": self.poll_interval_s,
            "broadcast_interval_s": self.broadcast_interval_s,
            "drain_grace_s": self.drain_grace_s,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ConfigError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s"
            )
        if self.degraded_grace_s < 0 or self.backoff_reset_s < 0:
            raise ConfigError(
                "degraded_grace_s and backoff_reset_s must be >= 0"
            )


class RestartBackoff:
    """Exponential restart delays that reset after stable uptime.

    Pure bookkeeping over caller-supplied uptimes — no clock inside —
    so it is unit-testable without sleeping.
    """

    def __init__(self, base_s: float, max_s: float, reset_s: float) -> None:
        self.base_s = base_s
        self.max_s = max_s
        self.reset_s = reset_s
        self._consecutive = 0

    @property
    def consecutive(self) -> int:
        """Crashes in the current streak."""
        return self._consecutive

    def next_delay(self, uptime_s: float) -> float:
        """The delay before the next restart, given the crashed
        worker's uptime.  A long-enough uptime forgives the streak."""
        if uptime_s >= self.reset_s:
            self._consecutive = 0
        self._consecutive += 1
        return min(self.base_s * (2 ** (self._consecutive - 1)), self.max_s)


class CrashBudget:
    """K crashes per rolling window; one more means give up.

    Takes explicit ``now`` values (no clock inside) so tests drive it
    with manual time.
    """

    def __init__(self, budget: int, window_s: float) -> None:
        self.budget = budget
        self.window_s = window_s
        self._crashes: deque[float] = deque()

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        while self._crashes and self._crashes[0] <= horizon:
            self._crashes.popleft()

    def record(self, now: float) -> None:
        """Book one crash at time ``now``."""
        self._crashes.append(now)
        self._prune(now)

    def count(self, now: float) -> int:
        """Crashes currently inside the window."""
        self._prune(now)
        return len(self._crashes)

    def exhausted(self, now: float) -> bool:
        """Whether the window holds more crashes than the budget."""
        return self.count(now) > self.budget


@dataclass(frozen=True)
class WorkerSpawn:
    """What a worker-command builder needs to know about one spawn."""

    index: int
    generation: int
    port: int
    heartbeat_fd: int
    heartbeat_interval_s: float


class _Slot:
    """One worker position: a live process or a pending restart."""

    def __init__(self, index: int, config: SupervisorConfig) -> None:
        self.index = index
        self.generation = 0
        self.process: subprocess.Popen | None = None
        self.hb_fd: int | None = None
        self.last_beat = 0.0
        self.started_at = 0.0
        self.restart_at: float | None = None
        self.backoff = RestartBackoff(
            config.backoff_base_s,
            config.backoff_max_s,
            config.backoff_reset_s,
        )


class Supervisor:
    """Keep N serving workers alive behind one shared port.

    Args:
        worker_command: builds the argv for one worker from a
            :class:`WorkerSpawn` (:func:`worker_command` builds real
            serving workers; tests substitute tiny scripts).
        config: supervision knobs.
        host: bind address.
        port: bind port (0 = ephemeral; resolved at :meth:`bind`).
        metrics: the ``serve.supervisor.*`` registry (created if
            omitted); snapshots are broadcast to workers.
        out: progress stream (worker spawn/reap lines; None = silent).
    """

    def __init__(
        self,
        worker_command: Callable[[WorkerSpawn], list[str]],
        config: SupervisorConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        metrics: MetricsRegistry | None = None,
        out=None,
    ) -> None:
        self.worker_command = worker_command
        self.config = config or SupervisorConfig()
        self.host = host
        self._requested_port = port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.out = out
        self.port: int | None = None
        self._socket: socket.socket | None = None
        self._slots = [_Slot(i, self.config) for i in range(self.config.procs)]
        self._budget = CrashBudget(
            self.config.crash_budget, self.config.crash_window_s
        )
        self._stop = threading.Event()
        self._budget_exhausted = False

    # -- facts ---------------------------------------------------------------

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def live_workers(self) -> int:
        return sum(
            1
            for slot in self._slots
            if slot.process is not None and slot.process.poll() is None
        )

    def _say(self, message: str) -> None:
        if self.out is not None:
            print(message, file=self.out, flush=True)

    # -- socket --------------------------------------------------------------

    def bind(self) -> int:
        """Reserve (and resolve) the shared port; returns it.

        The socket is bound with ``SO_REUSEPORT`` but never listens:
        holding it keeps the port across every worker crash and lets
        the workers bind the same address.
        """
        if not supports_reuse_port():
            raise ConfigError(
                "multi-process serving needs SO_REUSEPORT, which this "
                "platform lacks; run with --procs 1"
            )
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self._requested_port))
        except BaseException:
            sock.close()
            raise
        self._socket = sock
        self.port = sock.getsockname()[1]
        return self.port

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        read_fd, write_fd = os.pipe()
        os.set_blocking(read_fd, False)
        spawn = WorkerSpawn(
            index=slot.index,
            generation=slot.generation,
            port=self.port,
            heartbeat_fd=write_fd,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
        )
        try:
            process = subprocess.Popen(
                self.worker_command(spawn),
                stdin=subprocess.PIPE,
                pass_fds=(write_fd,),
            )
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        os.close(write_fd)
        slot.process = process
        slot.hb_fd = read_fd
        slot.last_beat = slot.started_at = time.monotonic()
        slot.restart_at = None
        self.metrics.counter("serve.supervisor.spawns").inc()
        self._send(slot, self._metrics_message())
        self._say(
            f"worker {slot.index} spawned pid={process.pid} "
            f"generation={slot.generation}"
        )

    def _close_worker_fds(self, slot: _Slot) -> None:
        if slot.hb_fd is not None:
            try:
                os.close(slot.hb_fd)
            except OSError:
                pass
            slot.hb_fd = None
        process = slot.process
        if process is not None and process.stdin is not None:
            try:
                process.stdin.close()
            except OSError:
                pass

    def _reap(self, slot: _Slot, now: float, reason: str) -> None:
        self._close_worker_fds(slot)
        slot.process = None
        self.metrics.counter("serve.supervisor.reaps").inc()
        self._budget.record(now)
        if self._budget.exhausted(now):
            self._budget_exhausted = True
            self.metrics.counter(
                "serve.supervisor.crash_budget_exhausted"
            ).inc()
            self._say(
                f"worker {slot.index} {reason}; crash budget exhausted "
                f"({self._budget.count(now)} crashes in "
                f"{self.config.crash_window_s:.0f}s)"
            )
            return
        delay = slot.backoff.next_delay(uptime_s=now - slot.started_at)
        slot.restart_at = now + delay
        self._say(f"worker {slot.index} {reason}; restart in {delay:.2f}s")

    def _pump_heartbeats(self) -> None:
        fds = [slot.hb_fd for slot in self._slots if slot.hb_fd is not None]
        if not fds:
            time.sleep(self.config.poll_interval_s)
            return
        try:
            readable, _, _ = select.select(
                fds, [], [], self.config.poll_interval_s
            )
        except OSError:
            return
        if not readable:
            return
        now = time.monotonic()
        by_fd = {slot.hb_fd: slot for slot in self._slots}
        for fd in readable:
            try:
                data = os.read(fd, 4096)
            except (OSError, BlockingIOError):
                continue
            if data:
                by_fd[fd].last_beat = now
            # EOF means the worker died; _check_worker reaps it.

    def _check_worker(self, slot: _Slot, now: float) -> None:
        process = slot.process
        assert process is not None
        returncode = process.poll()
        if returncode is not None:
            self._reap(slot, now, f"exited with code {returncode}")
            return
        age = now - slot.last_beat
        self.metrics.histogram(
            "serve.supervisor.heartbeat_age.seconds"
        ).observe(age)
        if age >= self.config.heartbeat_timeout_s:
            self.metrics.counter("serve.supervisor.heartbeat_timeouts").inc()
            process.kill()
            process.wait()
            self._reap(slot, now, f"heartbeat silent for {age:.1f}s")

    # -- control pipe --------------------------------------------------------

    def _metrics_message(self) -> dict[str, Any]:
        return {"type": "supervisor_metrics", "metrics": self.metrics.as_dict()}

    def _send(self, slot: _Slot, message: dict[str, Any]) -> None:
        process = slot.process
        if process is None or process.stdin is None:
            return
        try:
            process.stdin.write(json.dumps(message).encode() + b"\n")
            process.stdin.flush()
        except (BrokenPipeError, OSError, ValueError):
            pass  # the worker died mid-write; the reap path handles it

    def _broadcast(self, message: dict[str, Any]) -> None:
        for slot in self._slots:
            self._send(slot, message)

    # -- the loop ------------------------------------------------------------

    def stop(self) -> None:
        """Ask :meth:`run` to drain and return (signal/thread-safe)."""
        self._stop.set()

    def run(self, install_signals: bool = True) -> int:
        """Supervise until SIGTERM/SIGINT (exit 0) or crash-budget
        exhaustion (exit 1)."""
        config = self.config
        if self.port is None:
            self.bind()
        if install_signals:

            def _on_signal(signum: int, frame: Any) -> None:
                self._stop.set()

            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        self._say(f"listening on {self.address}")
        self._say(f"supervising {config.procs} workers")
        exit_code = 0
        try:
            for slot in self._slots:
                self._spawn(slot)
            last_broadcast = time.monotonic()
            while not self._stop.is_set():
                self._pump_heartbeats()
                now = time.monotonic()
                for slot in self._slots:
                    if slot.process is not None:
                        self._check_worker(slot, now)
                    elif (
                        slot.restart_at is not None and now >= slot.restart_at
                    ):
                        slot.generation += 1
                        self.metrics.counter("serve.supervisor.restarts").inc()
                        self._spawn(slot)
                if self._budget_exhausted:
                    exit_code = 1
                    break
                if now - last_broadcast >= config.broadcast_interval_s:
                    self._broadcast(self._metrics_message())
                    last_broadcast = now
            if exit_code != 0:
                # Give load balancers a window to see the degradation
                # on /healthz before the fleet goes away.
                self._say("crash budget exhausted; degrading then draining")
                self._broadcast({"type": "state", "status": "degraded"})
                self._broadcast(self._metrics_message())
                time.sleep(config.degraded_grace_s)
        finally:
            self._drain()
            self._close()
        self._say("stopped")
        return exit_code

    # -- teardown ------------------------------------------------------------

    def _drain(self) -> None:
        """Rolling SIGTERM drain: one worker at a time, stragglers
        killed at the grace deadline."""
        deadline = time.monotonic() + self.config.drain_grace_s
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            if process.poll() is None:
                self._say(f"draining worker {slot.index}")
                try:
                    process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
                try:
                    process.wait(
                        timeout=max(deadline - time.monotonic(), 0.1)
                    )
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            self._close_worker_fds(slot)
            slot.process = None

    def _close(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None


# -- worker side -------------------------------------------------------------


def apply_memory_limit(mem_limit_mb: int | None) -> bool:
    """Cap this process's address space; returns whether it stuck.

    Uses ``resource.setrlimit(RLIMIT_AS)`` where available (Unix); a
    worker that allocates past the cap gets a ``MemoryError`` in one
    request — or at worst dies alone and is restarted — instead of
    dragging the host into swap.
    """
    if not mem_limit_mb:
        return False
    try:
        import resource
    except ImportError:  # non-Unix
        return False
    limit = int(mem_limit_mb) * 1024 * 1024
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):
        return False
    return True


def _heartbeat_loop(fd: int, interval_s: float) -> None:
    while True:
        try:
            os.write(fd, b".")
        except OSError:
            return  # the supervisor is gone; run()'s EOF path drains us
        time.sleep(interval_s)


def _control_lines(stream):
    """Yield lines from a raw (unbuffered) byte stream until EOF."""
    buffer = b""
    while True:
        try:
            chunk = stream.read(4096)
        except OSError:
            return
        if not chunk:
            if buffer:
                yield buffer
            return
        buffer += chunk
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            yield line


def _control_loop(server, stream) -> None:
    """Apply the supervisor's JSON-line control messages to ``server``."""
    for line in _control_lines(stream):
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
        kind = message.get("type") if isinstance(message, dict) else None
        if kind == "supervisor_metrics":
            server.external_metrics = message.get("metrics") or {}
        elif kind == "state":
            server.external_status = message.get("status")
    # EOF: the supervisor died or is draining us; never outlive it.
    server.request_stop()


def worker_command(
    service_config: "ServiceConfig",
    host: str,
    chaos_plan: "ChaosPlan | None" = None,
    mem_limit_mb: int | None = None,
) -> Callable[[WorkerSpawn], list[str]]:
    """The :class:`Supervisor`'s ``worker_command`` for serving workers.

    Each worker runs ``python -m repro.serve.supervisor SPEC``; ``SPEC``
    is one JSON object whose keys are :func:`run_worker`'s arguments.
    """
    settings = {
        "service_config": asdict(service_config),
        "host": host,
        "chaos_plan": None if chaos_plan is None else chaos_plan.as_dict(),
        "mem_limit_mb": mem_limit_mb,
    }

    def command(spawn: WorkerSpawn) -> list[str]:
        spec = dict(
            settings,
            port=spawn.port,
            heartbeat_fd=spawn.heartbeat_fd,
            heartbeat_interval_s=spawn.heartbeat_interval_s,
            worker_index=spawn.index,
            generation=spawn.generation,
        )
        return [
            sys.executable, "-m", "repro.serve.supervisor", json.dumps(spec)
        ]

    return command


def run_worker(
    service_config: "ServiceConfig",
    host: str,
    port: int,
    heartbeat_fd: int | None = None,
    heartbeat_interval_s: float = 0.25,
    worker_index: int = 0,
    generation: int = 0,
    chaos_plan: "ChaosPlan | None" = None,
    mem_limit_mb: int | None = None,
    out=None,
) -> int:
    """The main of every serving process ``repro serve`` starts.

    Applies the memory ceiling, builds the server, installs the chaos
    harness when a plan is given, and runs the ordinary
    :meth:`SegmentationServer.run` loop, so SIGTERM drain semantics
    are the same in every mode.  A supervised worker (``heartbeat_fd``
    set) binds the shared port with ``SO_REUSEPORT`` and starts the
    heartbeat and control-pipe threads.  Without a heartbeat fd
    (``--procs 1``) the server binds its port alone and starts
    neither, so it does not stop when its stdin is at EOF.
    """
    from repro.serve.http import SegmentationServer
    from repro.serve.service import SegmentationService

    supervised = heartbeat_fd is not None
    apply_memory_limit(mem_limit_mb)
    service = SegmentationService(service_config)
    server = SegmentationServer(
        service, host=host, port=port, reuse_port=supervised
    )
    if chaos_plan is not None:
        from repro.serve.chaos import ChaosInjector, ChaosStageCache

        injector = ChaosInjector(
            chaos_plan, worker_index, generation, metrics=service.metrics
        )
        server.request_hook = injector.on_request
        if service.registry.cache is not None:
            service.registry.cache = ChaosStageCache(
                service.registry.cache,
                chaos_plan,
                worker_index,
                generation,
                metrics=service.metrics,
            )
    if supervised:
        threading.Thread(
            target=_heartbeat_loop,
            args=(heartbeat_fd, heartbeat_interval_s),
            name="serve-heartbeat",
            daemon=True,
        ).start()
        # Read the control pipe *unbuffered*: a daemon thread blocked
        # inside sys.stdin.buffer would hold its lock at interpreter
        # shutdown and abort the whole process.
        control = io.FileIO(sys.stdin.fileno(), "r", closefd=False)
        threading.Thread(
            target=_control_loop,
            args=(server, control),
            name="serve-control",
            daemon=True,
        ).start()
    return server.run(out=out, install_signals=True)


def _worker_main(spec_json: str) -> int:
    """Start one supervised worker from :func:`worker_command`'s SPEC."""
    from repro.serve.service import ServiceConfig

    spec = json.loads(spec_json)
    spec["service_config"] = ServiceConfig(**spec["service_config"])
    if spec["chaos_plan"] is not None:
        from repro.serve.chaos import ChaosPlan

        spec["chaos_plan"] = ChaosPlan.from_dict(spec["chaos_plan"])
    return run_worker(**spec)


if __name__ == "__main__":
    sys.exit(_worker_main(sys.argv[1]))
