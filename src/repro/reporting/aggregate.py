"""Experiment aggregation: per-page results, totals, clean subsets.

The shapes here mirror the paper's reporting:

* one row per (site, list page, method) with Cor/InC/FN/FP and the
  Table 4 note letters;
* micro-aggregated precision/recall/F per method (Table 4's bottom
  rows);
* the *clean subset* — pages where the strict CSP found a solution —
  over which Section 6.3 reports the second set of numbers
  (CSP 0.99/0.92/0.95, probabilistic 0.78/1.0/0.88 on 17 pages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.evaluation import PageScore, score_page

__all__ = [
    "NOTE_LEGEND",
    "PageResult",
    "ExperimentResult",
    "notes_from_meta",
    "page_results",
]

#: Table 4's note legend.
NOTE_LEGEND = {
    "a": "Page template problem",
    "b": "Entire page used",
    "c": "No solution found",
    "d": "Relax constraints",
}


def notes_from_meta(meta: dict[str, Any]) -> str:
    """Derive the Table 4 note letters from a segmentation's meta."""
    notes = ""
    if meta.get("template_ok") is False:
        notes += "a"
    if meta.get("whole_page"):
        notes += "b"
    level = meta.get("level")
    relaxed = meta.get("relaxed", False)
    no_solution = meta.get("solution_found") is False
    if relaxed or no_solution or (level is not None and int(level) > 0):
        notes += "c"  # the strict problem had no solution
    if relaxed:
        notes += "d"
    return notes


@dataclass
class PageResult:
    """One (site, page, method) evaluation row."""

    site: str
    page_index: int
    method: str
    score: PageScore
    notes: str = ""
    elapsed: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def csp_strict_ok(self) -> bool:
        """Did the strict CSP solve this page (clean-subset membership)?

        Meaningful for CSP rows; probabilistic rows join the clean
        subset through their CSP sibling (see
        :meth:`ExperimentResult.clean_pages`).
        """
        return "c" not in self.notes and "d" not in self.notes


def page_results(site, method: str, run) -> list[PageResult]:
    """Table 4 rows of one run: one per list page, scored against the
    generated ``site``'s truth."""
    return [
        PageResult(
            site=site.spec.name,
            page_index=truth.page_index,
            method=method,
            score=score_page(page_run.segmentation, truth),
            notes=notes_from_meta(page_run.segmentation.meta),
            elapsed=page_run.elapsed,
            meta=dict(page_run.segmentation.meta),
        )
        for page_run, truth in zip(run.pages, site.truth)
    ]


@dataclass
class ExperimentResult:
    """All rows of one corpus-wide evaluation run."""

    pages: list[PageResult] = field(default_factory=list)

    def add(self, result: PageResult) -> None:
        self.pages.append(result)

    def methods(self) -> list[str]:
        seen: list[str] = []
        for page in self.pages:
            if page.method not in seen:
                seen.append(page.method)
        return seen

    def rows_for(self, method: str) -> list[PageResult]:
        return [page for page in self.pages if page.method == method]

    def totals(self, method: str) -> PageScore:
        """Micro totals over every page of a method."""
        total = PageScore()
        for page in self.rows_for(method):
            total = total + page.score
        return total

    def clean_pages(self) -> set[tuple[str, int]]:
        """(site, page) keys where the strict CSP found a solution.

        This is the paper's Section 6.3 subset ("If we excluded from
        consideration those Web pages for which the CSP algorithm
        could not find a solution").
        """
        keys: set[tuple[str, int]] = set()
        for page in self.rows_for("csp"):
            if page.csp_strict_ok:
                keys.add((page.site, page.page_index))
        return keys

    def clean_totals(self, method: str) -> PageScore:
        """Micro totals of a method over the clean subset."""
        clean = self.clean_pages()
        total = PageScore()
        for page in self.rows_for(method):
            if (page.site, page.page_index) in clean:
                total = total + page.score
        return total

    def total_elapsed(self, method: str) -> float:
        """Wall-clock seconds a method spent across all pages."""
        return sum(page.elapsed for page in self.rows_for(method))
