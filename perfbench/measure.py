"""Measurement helpers shared by every workload.

Everything here is pure and deterministic except :class:`RssSampler`
(which reads ``/proc``) and :class:`SpeedProbe` (which times a side
process), so the unit tests in ``perfbench/tests`` pin the rules the
benchmark reports by:

* :func:`percentile` / :func:`tail_percentile` — a percentile is only
  reported when at least :data:`MIN_BEYOND` samples lie beyond it;
* :func:`open_loop_schedule` / :func:`lateness` — the fixed, seeded
  arrival schedule of an open-loop load generator and how late the
  generator itself ran against it;
* :func:`self_times` — a span's self time is its duration minus the
  part its child spans cover;
* :func:`stretch_speed` — the machine speed a timed stretch is scaled by.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    Raises:
        ValueError: fewer than :data:`MIN_BEYOND` samples lie beyond
            the rank — the figure would be set by a handful of points.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    # The epsilon keeps q * n that is integral in exact arithmetic
    # (0.6 * 25) from rounding up a rank.
    rank = max(math.ceil(q * n - 1e-9), 1)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def supported_quantile(n: int, q: float) -> float:
    """The highest quantile <= ``q`` that ``n`` samples support."""
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples support no percentile")
    return min(q, (n - MIN_BEYOND) / n)


def tail_percentile(samples: Sequence[float], q: float) -> tuple[float, float]:
    """``(value, quantile)``: the ``q`` tail, or the highest one supported.

    When the sample is too small for ``q`` (say a p99 from 400
    points) the highest quantile with :data:`MIN_BEYOND` samples beyond
    it is reported instead; the caller records which one it got.
    """
    used = supported_quantile(len(samples), q)
    return percentile(samples, used), used


@dataclass(frozen=True)
class Arrival:
    """One request of an open-loop schedule.

    Attributes:
        due: seconds after the phase start the request must be sent.
        kind: which request family (``"segment"`` or ``"query"``).
        index: which input of that family to send.
    """

    due: float
    kind: str
    index: int


def open_loop_schedule(
    rate: float,
    duration: float,
    seed: int,
    inputs: dict[str, int],
) -> list[Arrival]:
    """A fixed schedule: ``rate`` requests/s for ``duration`` seconds.

    Arrivals are evenly spaced (``i / rate``); the request kinds in
    ``inputs`` alternate in their given order, and each kind walks a
    seeded permutation of its ``inputs[kind]`` choices, restarting the
    walk when it is used up.  The same arguments always give the same
    schedule, and nothing about it depends on how the server responds.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    kinds = list(inputs)
    orders = {kind: [] for kind in kinds}
    count = int(rate * duration)
    arrivals = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        if not orders[kind]:
            order = list(range(inputs[kind]))
            rng.shuffle(order)
            orders[kind] = order
        arrivals.append(Arrival(due=i / rate, kind=kind, index=orders[kind].pop()))
    return arrivals


def lateness(dues: Iterable[float], dispatched: Iterable[float]) -> list[float]:
    """Seconds each dispatch ran behind its due time (never negative)."""
    return [max(sent - due, 0.0) for due, sent in zip(dues, dispatched)]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: ``parent`` is an index into the span list."""

    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[SpanRecord]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap (spans are recorded on one
    thread), so their durations simply add.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[i] for i, span in enumerate(spans)]


#: CPU seconds :func:`reference_work` takes on a quiet 2-vCPU, 2.0 GHz
#: VM (its fast typical figure); a speed of 1.0 means that.
REFERENCE_S = 0.0036
#: Seconds between two speed samples of :class:`SpeedProbe`.
PROBE_INTERVAL_S = 0.1
#: A stretch shorter than this is given the samples of the
#: :data:`PROBE_WINDOW_S` around its middle.
PROBE_WINDOW_S = 0.5


def reference_work() -> int:
    """A fixed pure-Python computation with the program's instruction mix.

    Regex tokenising of table markup, dict counting, sorting, set and
    JSON round trips — stdlib only, so no change to the program under
    test changes its cost.
    """
    text = "".join(
        f"<tr><td class=c{i % 7}>{i * 7919 % 10007}</td><td>v{i % 13}</td></tr>"
        for i in range(1000)
    )
    tokens = re.findall(r"<[^>]+>|[^<]+", text)
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(json.loads(json.dumps(ordered))) + len({t.lower() for t in tokens})


def probe_loop(path: str) -> None:
    """The probe process: append ``<perf_counter> <speed>`` lines forever.

    Speed is :data:`REFERENCE_S` over the CPU time one
    :func:`reference_work` took, so time the probe spent waiting for a
    CPU the benchmarked program holds does not count; a slower vCPU
    (a busy host, a shared core) does.
    """
    with open(path, "a", encoding="ascii") as out:
        while True:
            started = time.thread_time()
            reference_work()
            used = time.thread_time() - started
            out.write(f"{time.perf_counter()} {REFERENCE_S / max(used, 1e-6)}\n")
            out.flush()
            time.sleep(PROBE_INTERVAL_S)


def stretch_speed(samples: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Median speed sampled in ``[start, end]`` (widened around its middle
    to :data:`PROBE_WINDOW_S`); 1.0 when no sample falls there."""
    middle = (start + end) / 2
    start = min(start, middle - PROBE_WINDOW_S / 2)
    end = max(end, middle + PROBE_WINDOW_S / 2)
    inside = [speed for at, speed in samples if start <= at <= end]
    return statistics.median(inside) if inside else 1.0


class SpeedProbe:
    """How fast the machine ran Python, sampled all through a run.

    The benchmark runs on a VM whose host is shared: the speed of a
    vCPU swings by up to 2x within seconds, with no steal time showing.
    A side process times :func:`reference_work` every
    :data:`PROBE_INTERVAL_S` (about 4 % of one vCPU), and a timed
    stretch's times are multiplied by the speed sampled over it, so a
    figure is what a reference-speed machine would have shown.
    """

    def __init__(self, log: Path) -> None:
        self.log = log
        self.samples: list[tuple[float, float]] = []
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        root = str(Path(__file__).resolve().parent.parent)
        self._process = subprocess.Popen(
            [
                sys.executable, "-c",
                f"import sys; sys.path.insert(0, {root!r}); "
                f"from perfbench.measure import probe_loop; probe_loop({str(self.log)!r})",
            ],
        )
        return self

    def __exit__(self, *exc) -> None:
        self._process.terminate()
        self._process.wait()
        if self.log.exists():
            for line in self.log.read_text(encoding="ascii").splitlines():
                fields = line.split()
                if len(fields) == 2:  # not a line cut short by terminate()
                    self.samples.append((float(fields[0]), float(fields[1])))

    def speed(self, start: float, end: float) -> float:
        """The speed over ``[start, end]`` (``perf_counter`` seconds)."""
        return stretch_speed(self.samples, start, end)


def cpu_seconds() -> dict[str, float]:
    """Machine-wide CPU time by state (``/proc/stat``), in seconds.

    The difference across a run shows how busy the machine was and
    how much time a hypervisor took away (``steal``): context for a
    figure that moved without a code change.
    """
    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()[1:]
    tick = os.sysconf("SC_CLK_TCK")
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return {name: int(value) / tick for name, value in zip(names, fields)}


def _rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def children(pid: int) -> list[int]:
    """Pids of the direct children of ``pid`` (``/proc``)."""
    kids: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as f:
                kids.extend(int(child) for child in f.read().split())
    except OSError:
        pass
    return kids


def tree_rss_mb(root: int | None = None) -> float:
    """Resident memory of ``root`` and all its descendants, in MB."""
    pending = [root if root is not None else os.getpid()]
    total_kb = 0
    while pending:
        pid = pending.pop()
        try:
            total_kb += _rss_kb(pid)
        except OSError:
            continue  # exited between listing and reading
        pending.extend(children(pid))
    return total_kb / 1024.0


class RssSampler:
    """Peak resident memory of this process tree, sampled on a thread."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_rss_mb())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_rss_mb())
