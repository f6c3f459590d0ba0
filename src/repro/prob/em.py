"""The EM driver (paper Section 5.2.3).

Each iteration runs the scaled forward-backward E-step over the
lattice and re-estimates every parameter block from the posteriors:

1. the record period π from the expected record-end events (start
   edges and the end-of-sequence state), keyed by fields-so-far;
2. the within-record column transitions from the expected
   within-record edge traversals;
3. the record-end-by-column block (the Figure-2 model's start mass);
4. the token-type emissions from the expected column occupancies.

This is the paper's loop — "compute the initial distribution for the
global period π … update the column start probabilities … update
P(S_i|C_i) … update P(R_i|R_{i-1},D_i,S_i)" — with the deterministic
blocks (S given C, R given S and D) fixed by the lattice structure.
EM stops when the log-likelihood gain drops below ``tol`` or the
iteration cap is reached; the best-scoring parameters are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.prob.bootstrap import bootstrap_params
from repro.prob.config import ProbConfig
from repro.prob.forward_backward import ForwardBackwardResult, forward_backward
from repro.prob.lattice import START, WITHIN, Lattice
from repro.prob.model import ModelParams
from repro.prob.period import fit_period

__all__ = ["EmInfo", "run_em"]


@dataclass
class EmInfo:
    """Diagnostics from an EM run.

    Attributes:
        iterations: E/M cycles actually performed.
        log_likelihoods: log-likelihood after each E-step.
        converged: whether the tolerance criterion stopped the loop.
    """

    iterations: int
    log_likelihoods: list[float] = field(default_factory=list)
    converged: bool = False


def run_em(
    lattice: Lattice,
    config: ProbConfig,
    initial: ModelParams | None = None,
) -> tuple[ModelParams, EmInfo]:
    """Fit the model on ``lattice``'s observations.

    Args:
        lattice: the compiled problem.
        config: EM settings.
        initial: starting parameters; defaults to the detail-page
            bootstrap is not applied here (the segmenter passes it in),
            falling back to the uniform initialization.

    Returns:
        The best-scoring parameters and run diagnostics.
    """
    params = initial.copy() if initial else ModelParams.uniform(
        lattice.k, seed=config.seed
    )
    info = EmInfo(iterations=0)
    best_params = params.copy()
    best_log_likelihood = -np.inf

    for iteration in range(config.max_iterations):
        e_step = forward_backward(lattice, params)
        info.iterations = iteration + 1
        info.log_likelihoods.append(e_step.log_likelihood)

        if e_step.log_likelihood > best_log_likelihood:
            best_log_likelihood = e_step.log_likelihood
            best_params = params.copy()

        if iteration > 0:
            gain = e_step.log_likelihood - info.log_likelihoods[-2]
            if abs(gain) < config.tol * max(1, lattice.type_vectors.shape[0]):
                info.converged = True
                break

        params = _m_step(lattice, config, e_step)

    return best_params, info


def _m_step(
    lattice: Lattice, config: ProbConfig, e_step: ForwardBackwardResult
) -> ModelParams:
    """Re-estimate every parameter block from the E-step posteriors."""
    k = lattice.k
    smoothing = config.smoothing
    xi = e_step.xi_edge_totals
    gamma = e_step.gamma

    within_mask = lattice.edge_kind == WITHIN
    start_mask = lattice.edge_kind == START
    c_src = lattice.state_c[lattice.edge_src]
    c_dst = lattice.state_c[lattice.edge_dst]
    p_src = lattice.state_p[lattice.edge_src]

    # Column transitions.
    trans_counts = np.zeros((k, k))
    np.add.at(
        trans_counts,
        (c_src[within_mask], c_dst[within_mask]),
        xi[within_mask],
    )

    # Record-end events: start edges plus the final state.
    end_by_column = np.zeros(k)
    np.add.at(end_by_column, c_src[start_mask], xi[start_mask])
    np.add.at(end_by_column, lattice.state_c, e_step.end_gamma)

    continue_by_column = trans_counts.sum(axis=1)
    start_from = (end_by_column + smoothing) / (
        end_by_column + continue_by_column + 2 * smoothing
    )
    start_from[k - 1] = 1.0

    # Period: record length = fields-so-far at the end event.
    length_counts = np.zeros(k + 1)
    np.add.at(length_counts, p_src[start_mask], xi[start_mask])
    np.add.at(length_counts, lattice.state_p, e_step.end_gamma)
    period = fit_period(length_counts, k, smoothing)

    # Emissions: expected column occupancy x observed types.
    column_gamma = np.zeros((gamma.shape[0], k))
    np.add.at(column_gamma.T, lattice.state_c, gamma.T)
    type_counts = column_gamma.T @ lattice.type_vectors  # [k, 8]
    occupancy = column_gamma.sum(axis=0)  # [k]
    emit = (type_counts + smoothing) / (occupancy + 2 * smoothing)[:, None]
    emit = np.clip(emit, 1e-4, 1 - 1e-4)

    return ModelParams(
        k=k,
        emit=emit,
        trans=trans_counts + smoothing,
        start_from=start_from,
        period=period,
    )
