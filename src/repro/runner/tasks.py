"""Task and result shapes for the batch-execution engine.

A :class:`SiteTask` names one unit of work — one site's pipeline run —
by *reference*, not by value: a worker process receives the sample
directory path or generated-site name and loads/builds the pages
itself, so nothing heavyweight crosses the pickle boundary on the way
in.  On the way back a :class:`TaskResult` carries only plain data
(per-page record strings, counters, a metrics snapshot), so results
are cheap to ship and to compare.

Task kinds understood by :mod:`repro.runner.worker`:

* ``sample_dir`` — ``spec`` is a directory with a ``sample.json``
  manifest (:func:`repro.webdoc.store.load_sample`);
* ``generated`` — ``spec`` is a simulated-corpus site name
  (:func:`repro.sitegen.corpus.build_site`);
* ``eval_generated`` — like ``generated`` but also scored against the
  site's ground truth (the Table 4 experiment path); the rows land in
  ``TaskResult.payload``;
* ``_sleep`` — test hook: sleep ``spec`` seconds (exercises the stall
  watchdog without a real site).

Every result carries a content ``digest`` — a SHA-256 fingerprint of
(url, record strings, unassigned strings) per page — which is what
"parallel run identical to serial run" is asserted on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.runner.cache import fingerprint
from repro.webdoc.store import MANIFEST_NAME, load_sample

__all__ = [
    "PageOutcome",
    "SiteTask",
    "TaskResult",
    "tasks_for_sites",
    "tasks_from_directory",
]


@dataclass(frozen=True)
class SiteTask:
    """One schedulable unit: one site through the pipeline.

    Attributes:
        task_id: stable identifier; manifest records and resume
            bookkeeping key on it.
        kind: task kind (see module docstring).
        spec: the kind-specific reference (path / site name / seconds).
        method: segmentation method to run.
        cost_hint: relative expected cost; the engine schedules
            largest-first so the pool's tail stays short.
    """

    task_id: str
    kind: str
    spec: str
    method: str = "prob"
    cost_hint: float = 0.0

    def fingerprint(self) -> str:
        """Identity of the task *definition* (not its result).

        A ``sample_dir`` task also covers its content, so a directory
        whose pages changed under the same path re-runs on resume.
        """
        parts = ["task", self.kind, self.spec, self.method]
        if self.kind == "sample_dir":
            parts.append(_page_digests(Path(self.spec)))
        return fingerprint(*parts)


def _page_digests(directory: Path) -> list | None:
    """Each list page with its details, as ``(file, sha256)`` pairs.

    ``repro.ingest.bundle.page_fingerprint``'s rule (SHA-256 of the
    UTF-8 bytes), inlined so the runner never imports ``repro.ingest``.
    ``None`` when the sample does not load: its task fails, and a
    failed task always re-runs.
    """
    try:
        sample = load_sample(directory)
    except Exception:
        return None
    return [
        [
            (page.url, hashlib.sha256(page.html.encode("utf-8")).hexdigest())
            for page in [head, *details]
        ]
        for head, details in zip(sample.list_pages, sample.detail_pages_per_list)
    ]


@dataclass
class PageOutcome:
    """One list page's result, reduced to plain comparable data.

    ``records`` holds display strings (what the digest and the text
    CLI show); ``wire`` — attached only under the runner's
    ``collect_wire`` flag (``segment-dir --store``) — holds the page's
    full wire entry (:func:`repro.store.ingest.page_entry`: structured
    records plus semantic column names) for store ingestion.  The
    digest never covers ``wire``, so collecting it cannot perturb the
    serial/parallel identity checks.
    """

    url: str
    records: list[str] = field(default_factory=list)
    unassigned: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    notes: dict[str, Any] = field(default_factory=dict)
    wire: dict[str, Any] | None = None

    @property
    def record_count(self) -> int:
        return len(self.records)


@dataclass
class TaskResult:
    """Everything a worker reports back for one task.

    ``metrics`` is the worker registry's plain-dict snapshot and
    ``trace`` (optional) its span trees in ``to_dict`` form; the
    engine merges both into the parent's bundle.  ``payload`` carries
    kind-specific extras (scored rows for ``eval_generated``).
    """

    task_id: str
    status: str
    duration_s: float = 0.0
    pages: list[PageOutcome] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)
    trace: list[dict[str, Any]] | None = None
    payload: Any = None
    error: str | None = None

    @property
    def record_count(self) -> int:
        return sum(page.record_count for page in self.pages)

    def digest(self) -> str:
        """Content fingerprint of the segmentation output."""
        return fingerprint(
            "result",
            [
                (page.url, page.records, page.unassigned)
                for page in self.pages
            ],
        )


def _directory_cost(path: Path) -> float:
    """Total page bytes in a sample directory (scheduling weight)."""
    return float(
        sum(
            entry.stat().st_size
            for entry in path.iterdir()
            if entry.is_file()
        )
    )


def tasks_from_directory(
    root: str | Path, method: str = "prob"
) -> list[SiteTask]:
    """Tasks for a sample directory *or* a corpus of sample directories.

    A directory holding ``sample.json`` is one task.  Otherwise every
    immediate subdirectory holding a ``sample.json`` becomes a task
    (the layout ``export-corpus`` writes).  Raises ``ValueError`` when
    neither shape is found.
    """
    root = Path(root)
    if (root / MANIFEST_NAME).is_file():
        return [
            SiteTask(
                task_id=root.name or "sample",
                kind="sample_dir",
                spec=str(root),
                method=method,
                cost_hint=_directory_cost(root),
            )
        ]
    tasks = [
        SiteTask(
            task_id=child.name,
            kind="sample_dir",
            spec=str(child),
            method=method,
            cost_hint=_directory_cost(child),
        )
        for child in sorted(root.iterdir())
        if child.is_dir() and (child / MANIFEST_NAME).is_file()
    ]
    if not tasks:
        raise ValueError(
            f"{root} holds neither a {MANIFEST_NAME} nor sample "
            "subdirectories (see `repro export-corpus`)"
        )
    return tasks


def tasks_for_sites(
    names: list[str], method: str = "prob", kind: str = "generated"
) -> list[SiteTask]:
    """One ``generated`` (or ``eval_generated``) task per site name."""
    return [
        SiteTask(task_id=f"{name}:{method}", kind=kind, spec=name, method=method)
        for name in names
    ]
