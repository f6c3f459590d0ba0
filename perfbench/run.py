"""The repository benchmark: one command, every metric, correctness checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload recrawl-incremental --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):
``recrawl-incremental`` and ``serve-mixed`` (the two ``BENCHMARK.json``
lists), and ``batch-cold`` (the cold hot path, for a quiet machine).  With
``--trace 0`` the last stdout line carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric.  The
line before it is the machine-and-run block: cores, Python, seed,
input sizes, sample counts, the correctness checks and, in a traced
run, the tracing overhead.

The program is imported from ``src/`` next to this directory and only
ever sees inputs generated here from ``--seed``.  Scratch files live
under ``.perfbench_work/`` in the repository root and are removed on
exit.  Without ``src/repro`` the command exits 2 and prints no result.
Every process the run starts is stopped and reaped before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("batch-cold", "recrawl-incremental", "serve-mixed")


def _workload(name: str, seed: int, work: Path):
    from perfbench import batch, serving

    if name == "serve-mixed":
        return serving, serving.ServeMixed(seed, work)
    return batch, batch.WORKLOADS[name](seed, work)


def _adopt_orphans() -> None:
    """Become the Linux child subreaper of everything this run starts.

    A descendant whose parent exits first (a pool worker, a server's
    worker or its resource tracker) is then re-parented to this process
    instead of to init, so :func:`_stop_children` can end and reap it.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: only direct children are stopped


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``spawn`` process pools leave multiprocessing's resource tracker
    running until the interpreter exits; it is stopped first, so it can
    clean up.  Anything still left (adopted orphans included) is killed
    and reaped.
    """
    from multiprocessing import resource_tracker

    from perfbench.measure import children

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    for _ in range(50):
        pids = children(os.getpid())
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metric_block(values: dict, declared: list[dict]) -> dict:
    """``{name: {value, unit}}`` in ``BENCHMARK.json`` order and units."""
    block = {}
    for entry in declared:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit!r} != {entry['unit']!r}")
        block[entry["name"]] = {"value": float(value), "unit": unit}
    return block


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    _adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)

    from perfbench.measure import RssSampler, cpu_seconds

    declared = _declared()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cpu_before = cpu_seconds()
    try:
        module, workload = _workload(args.workload, args.seed, work)
        with RssSampler() as rss:
            if args.trace:
                result = module.trace(workload, args.seconds)
            else:
                result = module.measure(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there

    if args.trace:
        layers = result["layers"]
        values = {
            entry["name"]: (layers.get(entry["name"], 0), entry["unit"])
            for entry in declared["per_layer"]
        }
        metrics = _metric_block(values, declared["per_layer"])
    else:
        values = dict(result["metrics"])
        values["peak_rss_mb"] = (rss.peak_mb, "MB")
        metrics = _metric_block(values, declared["end_to_end"])

    cpu_after = cpu_seconds()
    machine = {
        "cores": os.cpu_count(),
        "cpu_seconds_during_run": {
            name: round(cpu_after[name] - cpu_before[name], 2) for name in cpu_after
        },
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"machine": machine, "run": result["run"]}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
