"""Seeded chaos harness for the serving layer.

The crawl layer got deterministic fault injection in PR 1
(:mod:`repro.sitegen.faults`); this module extends the same discipline
to the *process* level so the supervisor's claims — crash isolation,
self-healing restarts, crash-survivable wrapper state — are tested
against real faults instead of asserted.  A :class:`ChaosPlan` is a
frozen, seeded description of which events fail and how:

* **kill** — the worker SIGKILLs itself mid-request (the supervisor
  must reap and restart it; the client sees a connection reset);
* **hang** — the handler sleeps far past its deadline (the http
  layer's watchdog must convert it into a 504 and replace the wedged
  thread);
* **slow / corrupt cache reads** — the wrapper registry's disk tier
  stalls or returns garbage (a corrupt read must degrade to a miss);
* **disk-full writes** — storing a wrapper raises ``ENOSPC`` (the
  registry must keep serving from memory).

Determinism is the point: every decision is a pure function of
``(seed, worker_index, generation, event_index)`` via the same
SHA-256 draw (:func:`~repro.sitegen.faults.stable_unit`) the crawl
faults use, so a chaos run is exactly reproducible and any failure it
surfaces can be replayed.  The *generation* term matters: a restarted
worker draws a fresh schedule, so a deterministic kill at request
index *i* does not re-kill the replacement at the same index and spin
the supervisor's crash budget down — generations decorrelate, seeds
reproduce.

Plans travel as JSON files (``repro serve --chaos-plan plan.json``)
so the CLI, the smoke test and ``bench_chaos.py`` can share fault
mixes.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.core.exceptions import ConfigError
from repro.obs import MetricsRegistry
from repro.sitegen.faults import stable_unit

__all__ = [
    "ChaosInjector",
    "ChaosPlan",
    "ChaosStageCache",
    "load_chaos_plan",
]


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded description of serve-side faults (see module docstring).

    Rates are marginal probabilities per event; request faults (kill,
    hang) share one draw and may sum to at most 1, as do the cache
    read faults (corrupt, slow).

    Attributes:
        seed: master seed; equal plans make identical decisions.
        kill_rate: fraction of requests on which the worker SIGKILLs
            itself before answering.
        hang_rate: fraction of requests on which the handler hangs.
        hang_s: how long a hung handler sleeps (should dwarf the
            request deadline so the watchdog, not the sleep, ends it).
        cache_slow_rate: fraction of disk-tier reads that stall.
        cache_slow_s: how long a slow read stalls.
        cache_corrupt_rate: fraction of disk-tier reads that return
            a miss as if the entry were corrupt.
        disk_full_rate: fraction of disk-tier writes that raise
            ``OSError(ENOSPC)``.
    """

    seed: int = 0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    hang_s: float = 30.0
    cache_slow_rate: float = 0.0
    cache_slow_s: float = 0.2
    cache_corrupt_rate: float = 0.0
    disk_full_rate: float = 0.0

    def __post_init__(self) -> None:
        rates = (
            self.kill_rate,
            self.hang_rate,
            self.cache_slow_rate,
            self.cache_corrupt_rate,
            self.disk_full_rate,
        )
        if any(rate < 0.0 or rate > 1.0 for rate in rates):
            raise ConfigError(f"chaos rates must lie in [0, 1]: {rates}")
        if self.kill_rate + self.hang_rate > 1.0:
            raise ConfigError(
                "kill_rate + hang_rate must be <= 1; one request can "
                "only fail one way"
            )
        if self.cache_corrupt_rate + self.cache_slow_rate > 1.0:
            raise ConfigError(
                "cache_corrupt_rate + cache_slow_rate must be <= 1"
            )
        if self.hang_s < 0.0 or self.cache_slow_s < 0.0:
            raise ConfigError("hang_s and cache_slow_s must be >= 0")

    # -- decisions (pure functions of the key) -------------------------------

    def _draw(
        self, salt: str, worker_index: int, generation: int, index: int
    ) -> float:
        return stable_unit(
            f"{self.seed}:{salt}:{worker_index}:{generation}:{index}"
        )

    def request_fault(
        self, worker_index: int, generation: int, request_index: int
    ) -> str | None:
        """``"kill"``, ``"hang"`` or None for one handled request."""
        draw = self._draw("request", worker_index, generation, request_index)
        if draw < self.kill_rate:
            return "kill"
        if draw < self.kill_rate + self.hang_rate:
            return "hang"
        return None

    def read_fault(
        self, worker_index: int, generation: int, read_index: int
    ) -> str | None:
        """``"corrupt"``, ``"slow"`` or None for one disk-tier read."""
        draw = self._draw("read", worker_index, generation, read_index)
        if draw < self.cache_corrupt_rate:
            return "corrupt"
        if draw < self.cache_corrupt_rate + self.cache_slow_rate:
            return "slow"
        return None

    def write_fault(
        self, worker_index: int, generation: int, write_index: int
    ) -> bool:
        """Whether one disk-tier write hits the injected full disk."""
        draw = self._draw("write", worker_index, generation, write_index)
        return draw < self.disk_full_rate

    def schedule(
        self, worker_index: int, generation: int, requests: int
    ) -> tuple[tuple[int, str], ...]:
        """The ``(request_index, fault)`` pairs among the first N requests.

        The acceptance-test form of determinism: two plans with equal
        fields produce identical schedules.
        """
        events = []
        for index in range(requests):
            fault = self.request_fault(worker_index, generation, index)
            if fault is not None:
                events.append((index, fault))
        return tuple(events)

    # -- wire form -----------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChaosPlan":
        known = {field: data[field] for field in data if field in cls.__dataclass_fields__}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(f"unknown chaos plan fields: {sorted(unknown)}")
        return cls(**known)


def load_chaos_plan(path: str | Path) -> ChaosPlan:
    """Read a :class:`ChaosPlan` from a JSON file (CLI ``--chaos-plan``)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigError(f"cannot read chaos plan {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigError(f"chaos plan {path!r} is not JSON: {error}") from error
    if not isinstance(data, dict):
        raise ConfigError(f"chaos plan {path!r} must be a JSON object")
    return ChaosPlan.from_dict(data)


class ChaosInjector:
    """Executes a plan's request faults inside a serving worker.

    Installed as the :class:`~repro.serve.http.SegmentationServer`'s
    ``request_hook``: called once per dequeued job, it draws the fault
    for the running request index and either does nothing, hangs, or
    SIGKILLs the process (taking every in-flight request with it —
    exactly the blast radius the supervisor must contain).
    """

    def __init__(
        self,
        plan: ChaosPlan,
        worker_index: int = 0,
        generation: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.plan = plan
        self.worker_index = worker_index
        self.generation = generation
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._requests = 0

    def on_request(self) -> None:
        with self._lock:
            index = self._requests
            self._requests += 1
        fault = self.plan.request_fault(self.worker_index, self.generation, index)
        if fault is None:
            return
        self.metrics.counter(f"serve.chaos.{fault}").inc()
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault == "hang":
            time.sleep(self.plan.hang_s)


class ChaosStageCache:
    """A :class:`~repro.runner.cache.StageCache` wrapper injecting faults.

    Wraps any cache with ``load``/``store`` (the registry's disk
    tier): reads may stall or come back as misses, writes may raise
    ``OSError(ENOSPC)``.  Event indices count per kind, so the fault
    sequence is deterministic regardless of interleaving between
    reads and writes.
    """

    def __init__(
        self,
        inner: Any,
        plan: ChaosPlan,
        worker_index: int = 0,
        generation: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.worker_index = worker_index
        self.generation = generation
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._reads = 0
        self._writes = 0

    def load(self, stage: str, key: str) -> tuple[bool, Any]:
        with self._lock:
            index = self._reads
            self._reads += 1
        fault = self.plan.read_fault(self.worker_index, self.generation, index)
        if fault == "slow":
            self.metrics.counter("serve.chaos.cache_slow").inc()
            time.sleep(self.plan.cache_slow_s)
        elif fault == "corrupt":
            # A checksum-failed entry and an injected one look the
            # same from above: a miss, never a bad value.
            self.metrics.counter("serve.chaos.cache_corrupt").inc()
            return False, None
        return self.inner.load(stage, key)

    def store(self, stage: str, key: str, value: Any) -> None:
        with self._lock:
            index = self._writes
            self._writes += 1
        if self.plan.write_fault(self.worker_index, self.generation, index):
            self.metrics.counter("serve.chaos.disk_full").inc()
            raise OSError(errno.ENOSPC, "injected disk full")
        self.inner.store(stage, key, value)
