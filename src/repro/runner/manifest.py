"""The JSONL run manifest: per-task records, resumable runs.

A batch run appends one JSON object per line to its manifest as work
completes, so a run killed at any point leaves a readable ledger of
exactly what finished.  Three record types:

``header``
    written once when a run (or a resumed continuation) starts::

        {"type": "header", "run": {...engine config summary...},
         "tasks": 12, "resumed": false}

``task``
    one per finished task, appended the moment the engine learns its
    fate::

        {"type": "task", "task_id": "lee", "fingerprint": "ab12...",
         "status": "ok", "duration_s": 1.73, "cache_hits": 4,
         "cache_misses": 0, "records": 31, "digest": "9f3c...",
         "error": null}

    ``status`` is one of ``ok`` (clean), ``quarantined`` (the site
    completed but a page was degraded/unsegmentable), ``failed``
    (the worker raised), or ``timeout`` (the stall watchdog gave up
    on it).  ``fingerprint`` identifies the *task definition* (source
    + method), ``digest`` the *result content*.

``note``
    free-form engine annotations (e.g. an interrupt).

Resume semantics (``--resume``): the engine reloads the manifest,
keeps the **last** record per task id, and skips tasks whose last
status is ``ok`` or ``quarantined`` *and* whose fingerprint matches
the task it was about to run — a task whose definition changed (same
id, different pages or method) is re-run, not wrongly skipped.
Failed and timed-out tasks are always retried.  Appending to the same
file keeps the full history of every attempt.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

__all__ = ["TaskRecord", "RunManifest", "COMPLETED_STATUSES"]

#: Statuses a resume treats as "done, do not re-run".
COMPLETED_STATUSES = frozenset({"ok", "quarantined"})


@dataclass
class TaskRecord:
    """One task's outcome, as written to the manifest."""

    task_id: str
    fingerprint: str
    status: str
    duration_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    records: int = 0
    digest: str = ""
    error: str | None = None

    def as_line(self) -> str:
        payload: dict[str, Any] = {"type": "task", **asdict(self)}
        payload["duration_s"] = round(self.duration_s, 6)
        return json.dumps(payload, sort_keys=True)


class RunManifest:
    """Append-only JSONL ledger of one (possibly resumed) batch run."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # -- writing ----------------------------------------------------

    def _append(self, payload: dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Open/write/close per record: a killed run loses at most the
        # record being written, never buffered earlier ones.
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def write_header(
        self, run: dict[str, Any], tasks: int, resumed: bool
    ) -> None:
        self._append(
            {"type": "header", "run": run, "tasks": tasks, "resumed": resumed}
        )

    def append_task(self, record: TaskRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(record.as_line() + "\n")

    def write_note(self, message: str) -> None:
        self._append({"type": "note", "message": message})

    # -- reading ----------------------------------------------------

    def entries(self) -> list[dict[str, Any]]:
        """All parseable records, in file order.

        A trailing torn line (the run was killed mid-write) is
        skipped, not fatal — that is the expected shape of an
        interrupted run's manifest.
        """
        if not self.path.is_file():
            return []
        entries: list[dict[str, Any]] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return entries

    def latest_by_task(self) -> dict[str, dict[str, Any]]:
        """Last task record per task id (retries overwrite)."""
        latest: dict[str, dict[str, Any]] = {}
        for entry in self.entries():
            if entry.get("type") == "task" and "task_id" in entry:
                latest[entry["task_id"]] = entry
        return latest

    def completed(
        self, fingerprints: dict[str, str] | None = None
    ) -> set[str]:
        """Task ids a resume may skip.

        Args:
            fingerprints: current ``task_id -> fingerprint`` map; when
                given, a recorded completion only counts if its
                fingerprint still matches (the task definition did not
                change under the same id).
        """
        done: set[str] = set()
        for task_id, entry in self.latest_by_task().items():
            if entry.get("status") not in COMPLETED_STATUSES:
                continue
            if fingerprints is not None:
                expected = fingerprints.get(task_id)
                if expected is None or entry.get("fingerprint") != expected:
                    continue
            done.add(task_id)
        return done
