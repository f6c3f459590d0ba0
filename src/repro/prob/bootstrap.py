"""Bootstrapping the model from detail-page evidence (Section 5.2.1).

    "The key way in which information from detail pages helps us is it
    gives us a guide to some of the initial R_i assignments. ...  We
    also make use of the D_i to infer values for S_i.  If
    D_{i-1} ∩ D_i = ∅, then P(S_i = true) = 1."

The bootstrap builds a *tentative* segmentation purely from the
``D_i`` sets — a record start wherever consecutive extracts share no
detail page, plus a start at any extract uniquely pinned to a new
record — assigns positional columns within each tentative record, and
seeds the model parameters (emissions, transitions, period) from the
resulting counts.  EM then refines from this informed starting point
instead of a flat one, which is what keeps the unsupervised learning
"on track".
"""

from __future__ import annotations

import numpy as np

from repro.extraction.observations import ObservationTable
from repro.prob.config import ProbConfig
from repro.prob.model import ModelParams
from repro.prob.period import fit_period
from repro.prob.lattice import observed_type_vectors
from repro.tokens.types import NUM_TOKEN_TYPES

__all__ = ["tentative_starts", "bootstrap_params"]


def tentative_starts(table: ObservationTable) -> list[bool]:
    """The paper's S_i bootstrap: start where D_{i-1} and D_i are disjoint.

    Additionally, an extract uniquely pinned (``|D_i| = 1``) to a
    *different* record than the unique pin of the previous extract is
    a start — the "extract i only appears on detail page j and extract
    i-1 only on page j-1" example from the paper.
    """
    starts: list[bool] = []
    observations = table.observations
    for position, observation in enumerate(observations):
        if position == 0:
            starts.append(True)
            continue
        previous = observations[position - 1]
        if not (previous.detail_pages & observation.detail_pages):
            starts.append(True)
            continue
        if (
            len(previous.detail_pages) == 1
            and len(observation.detail_pages) == 1
            and previous.detail_pages != observation.detail_pages
        ):
            starts.append(True)
            continue
        starts.append(False)
    return starts


def bootstrap_params(
    table: ObservationTable, config: ProbConfig, k: int
) -> ModelParams:
    """Seed :class:`ModelParams` from the tentative segmentation.

    Falls back to the uniform initialization for any block with no
    evidence (e.g. a single tentative record gives no transition
    counts).
    """
    params = ModelParams.uniform(k, seed=config.seed)
    starts = tentative_starts(table)
    type_vectors = observed_type_vectors(table)
    smoothing = config.smoothing

    # Assign positional columns within tentative records.
    columns: list[int] = []
    position_in_record = 0
    for start in starts:
        position_in_record = 0 if start else position_in_record + 1
        columns.append(min(position_in_record, k - 1))

    # Emissions.
    type_counts = np.full((k, NUM_TOKEN_TYPES), smoothing)
    total_counts = np.full(k, 2 * smoothing)
    for seq, column in enumerate(columns):
        type_counts[column] += type_vectors[seq]
        total_counts[column] += 1.0
    params.emit = np.clip(
        type_counts / total_counts[:, None], 1e-3, 1 - 1e-3
    )

    # Within-record transitions.
    trans = np.full((k, k), smoothing)
    for seq in range(1, len(columns)):
        if not starts[seq] and columns[seq] > columns[seq - 1]:
            trans[columns[seq - 1], columns[seq]] += 1.0
    params.trans = trans

    # Record-end probability per column (Figure-2 block).
    end_counts = np.full(k, smoothing)
    continue_counts = np.full(k, smoothing)
    for seq in range(1, len(columns)):
        if starts[seq]:
            end_counts[columns[seq - 1]] += 1.0
        else:
            continue_counts[columns[seq - 1]] += 1.0
    end_counts[columns[-1]] += 1.0  # the table's last record ends
    start_from = end_counts / (end_counts + continue_counts)
    start_from[k - 1] = 1.0
    params.start_from = start_from

    # Period (Figure-3 block): tentative record lengths.
    length_counts = np.zeros(k + 1)
    run_length = 0
    for start in starts:
        if start and run_length > 0:
            length_counts[min(run_length, k)] += 1.0
        run_length = 1 if start else run_length + 1
    if run_length > 0:
        length_counts[min(run_length, k)] += 1.0
    params.period = fit_period(length_counts, k, smoothing)

    return params
