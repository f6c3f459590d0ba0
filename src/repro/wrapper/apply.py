"""Applying a learned wrapper to unseen list pages.

No detail pages are needed: the wrapper locates the table slot via the
stored page template, splits it into rows at the learned boundary
pattern, and labels each row's extracts with the column whose learned
type profile fits best (order-preserving).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extraction.extracts import Extract, extract_strings
from repro.tokens.tokenizer import Token
from repro.tokens.types import union_type_vector
from repro.webdoc.page import Page
from repro.wrapper.induce import RowWrapper

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sitegen.site import ListPageTruth

__all__ = ["WrappedRow", "apply_wrapper", "score_wrapped_rows"]


@dataclass
class WrappedRow:
    """One record extracted by the wrapper (no detail pages involved).

    Attributes:
        index: row position on the page.
        extracts: the row's extracts, in page order.
        columns: column label per extract (parallel to ``extracts``).
    """

    index: int
    extracts: list[Extract]
    columns: list[int]

    @property
    def texts(self) -> list[str]:
        return [extract.text for extract in self.extracts]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"row{self.index}: " + " | ".join(self.texts)


def _table_region(wrapper: RowWrapper, page: Page) -> list[Token]:
    """The unseen page's table region (template slot or whole page)."""
    tokens = page.tokens()
    if wrapper.table_slot_id is None or not wrapper.template.aligned:
        return list(tokens)
    positions = wrapper.template.locate(tokens)
    if positions is None:
        return list(tokens)
    slot = wrapper.table_slot_id
    start = 0 if slot == 0 else positions[slot - 1] + 1
    end = len(tokens) if slot >= len(positions) else positions[slot]
    return list(tokens[start:end])


def _boundary_positions(
    tokens: list[Token], boundary: tuple[str, ...]
) -> list[int]:
    """Indices (into ``tokens``) right after each boundary occurrence."""
    texts = [token.text for token in tokens]
    length = len(boundary)
    positions: list[int] = []
    for start in range(len(texts) - length + 1):
        if tuple(texts[start : start + length]) == boundary:
            positions.append(start + length)
    return positions


def _signature(extract: Extract) -> np.ndarray:
    return np.array(union_type_vector(extract.tokens), dtype=float)


def _label_columns(
    extracts: list[Extract], profiles: np.ndarray
) -> list[int]:
    """Order-preserving best-profile column labels for one row.

    Columns must increase along the row; each extract takes the best
    remaining column by profile distance (greedy, which is exact here
    because profiles are ordered like the schema).
    """
    k = len(profiles)
    columns: list[int] = []
    next_column = 0
    for position, extract in enumerate(extracts):
        remaining_needed = len(extracts) - position - 1
        high = max(next_column, k - 1 - remaining_needed)
        candidates = range(next_column, min(high, k - 1) + 1)
        signature = _signature(extract)
        best = min(
            candidates,
            key=lambda c: float(np.abs(signature - profiles[c]).mean()),
            default=min(next_column, k - 1),
        )
        columns.append(best)
        next_column = best + 1
    return columns


def apply_wrapper(wrapper: RowWrapper, page: Page) -> list[WrappedRow]:
    """Extract records from an unseen list page.

    Returns the wrapped rows in page order; an empty list when the
    boundary pattern does not occur (the page is probably not from
    this site's template).
    """
    region = _table_region(wrapper, page)
    if not region:
        return []
    starts = _boundary_positions(region, wrapper.boundary)
    if not starts:
        return []

    rows: list[WrappedRow] = []
    for row_index, start in enumerate(starts):
        if row_index + 1 < len(starts):
            # Stop before the next row's boundary tags.
            stop = starts[row_index + 1] - len(wrapper.boundary)
        else:
            stop = len(region)
        extracts = extract_strings(list(region[start:stop]))
        if not extracts:
            continue
        columns = _label_columns(extracts, wrapper.column_profiles)
        rows.append(
            WrappedRow(index=len(rows), extracts=extracts, columns=columns)
        )
    return rows


def score_wrapped_rows(
    rows: list[WrappedRow], truth: "ListPageTruth"
) -> tuple[int, int]:
    """(correct, total) wrapped rows against ground truth.

    A wrapped row is correct when every one of its extracts falls
    inside exactly one true record's character span (the extracts
    carry their source offsets) and the row's text covers all of that
    record's list-view field values.
    """
    correct = 0
    for row in rows:
        touched: set[int] = set()
        for extract in row.extracts:
            true_row = truth.row_of_offset(extract.tokens[0].start)
            if true_row is not None:
                touched.add(true_row.record_index)
        if len(touched) != 1:
            continue
        (record_index,) = touched
        joined = " | ".join(row.texts)
        values = truth.rows[record_index].values
        if all(value in joined for value in values.values()):
            correct += 1
    return correct, len(truth.rows)
