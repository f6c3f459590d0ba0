"""Inducing a row wrapper from one segmented list page.

A :class:`RowWrapper` captures what one successful detail-page-driven
segmentation teaches about a site's list layout:

* the **page template** (to locate the table slot on unseen pages);
* the **boundary pattern** — the sequence of tag tokens immediately
  preceding each record's first extract.  On template-generated pages
  this is identical for every row (``</tr><tr><td><a>``-style), so the
  most common pattern across the segmented records generalizes;
* **column profiles** — the token-type signature of each column,
  learned from the segmentation's column labels, used to label the
  extracts of wrapped rows.

Induction needs nothing beyond one :class:`SiteRun` page; application
(:mod:`repro.wrapper.apply`) needs no detail pages at all.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ExtractionError
from repro.core.pipeline import PageRun
from repro.template.finder import TemplateVerdict
from repro.template.model import PageTemplate
from repro.tokens.tokenizer import Token
from repro.tokens.types import NUM_TOKEN_TYPES, union_type_vector

__all__ = ["RowWrapper", "induce_wrapper"]


@dataclass(frozen=True)
class RowWrapper:
    """A learned list-page wrapper for one site.

    Attributes:
        template: the site's page template (may be empty when the
            sample used the whole-page fallback).
        table_slot_id: the template slot holding the table, or None.
        boundary: the tag-token texts that precede each record's first
            extract, innermost last.
        column_profiles: [k, 8] mean token-type signatures per column.
    """

    template: PageTemplate
    table_slot_id: int | None
    boundary: tuple[str, ...]
    column_profiles: np.ndarray

    @property
    def k(self) -> int:
        return len(self.column_profiles)


def _preceding_tags(
    tokens: list[Token], start_index: int, depth: int
) -> tuple[str, ...]:
    """Up to ``depth`` consecutive tag tokens right before a position."""
    tags: list[str] = []
    cursor = start_index - 1
    while cursor >= 0 and len(tags) < depth and tokens[cursor].is_html:
        tags.append(tokens[cursor].text)
        cursor -= 1
    tags.reverse()
    return tuple(tags)


def induce_wrapper(
    page_run: PageRun,
    verdict: TemplateVerdict,
    boundary_depth: int = 3,
) -> RowWrapper:
    """Learn a :class:`RowWrapper` from one segmented page.

    Args:
        page_run: a pipeline page result whose segmentation will be
            generalized.
        verdict: the template verdict of the pipeline run (carries the
            template and table slot).
        boundary_depth: how many preceding tag tokens form the
            boundary pattern.

    Raises:
        ExtractionError: the segmentation has no records to learn from.
    """
    segmentation = page_run.segmentation
    if not segmentation.records:
        raise ExtractionError("cannot induce a wrapper from zero records")

    tokens = page_run.page.tokens()

    # Boundary: majority preceding-tag pattern over record starts.
    patterns = Counter()
    for record in segmentation.records:
        first = record.observations[0]
        pattern = _preceding_tags(
            tokens, first.extract.start_token_index, boundary_depth
        )
        if pattern:
            patterns[pattern] += 1
    if not patterns:
        raise ExtractionError("no tag context before any record start")
    boundary = patterns.most_common(1)[0][0]

    # Column profiles from the segmentation's own labels (positional
    # fallback when the segmenter produced none).
    k = 0
    for record in segmentation.records:
        if record.columns:
            k = max(k, max(record.columns.values()) + 1)
        else:
            k = max(k, len(record.observations))
    sums = np.zeros((k, NUM_TOKEN_TYPES))
    counts = np.zeros(k)
    for record in segmentation.records:
        for position, observation in enumerate(record.observations):
            column = (
                record.columns.get(observation.seq, position)
                if record.columns
                else position
            )
            column = min(column, k - 1)
            sums[column] += union_type_vector(observation.extract.tokens)
            counts[column] += 1
    profiles = np.where(
        counts[:, None] > 0, sums / np.maximum(counts[:, None], 1), 0.5
    )

    return RowWrapper(
        template=verdict.template,
        table_slot_id=verdict.table_slot_id if verdict.ok else None,
        boundary=boundary,
        column_profiles=profiles,
    )
