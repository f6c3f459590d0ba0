"""The probabilistic record segmenter (paper Section 5, end-to-end).

Pipeline: derive the column bound ``k`` from the detail pages, compile
the lattice, bootstrap parameters from the ``D_i`` evidence, fit with
EM, Viterbi-decode the MAP ``(R, C)`` assignment, and package it as a
:class:`~repro.core.results.Segmentation` — including the per-extract
column labels the paper highlights as the probabilistic approach's
extra deliverable (Section 3.4, "Column Extraction").
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import EmptyProblemError
from repro.core.results import Segmentation
from repro.extraction.observations import ObservationTable
from repro.prob.bootstrap import bootstrap_params
from repro.prob.config import ProbConfig
from repro.prob.decode import viterbi
from repro.prob.em import run_em
from repro.prob.lattice import Lattice, derive_column_count
from repro.prob.model import ModelParams
from repro.prob.period import expected_length, period_mode

__all__ = ["ProbabilisticSegmenter"]


class ProbabilisticSegmenter:
    """Segment records by factored-HMM inference."""

    method_name = "prob"

    def __init__(self, config: ProbConfig | None = None) -> None:
        self.config = config or ProbConfig()

    def segment(self, table: ObservationTable) -> Segmentation:
        """Segment one list page's observation table.

        Raises:
            EmptyProblemError: the table has no usable observations.
        """
        if not table.observations:
            raise EmptyProblemError("no observations to segment")

        k = derive_column_count(table, self.config)
        lattice = Lattice.build(table, self.config, k)
        initial = bootstrap_params(table, self.config, k)
        params, em_info = run_em(lattice, self.config, initial)
        decoded = viterbi(lattice, params)

        assignment: dict[int, int | None] = {}
        columns: dict[int, int] = {}
        d_violations = 0
        for observation in table.observations:
            record = int(decoded.records[observation.seq])
            assignment[observation.seq] = record
            columns[observation.seq] = int(decoded.columns[observation.seq])
            if record not in observation.detail_pages:
                d_violations += 1

        return Segmentation.from_assignment(
            method=self.method_name,
            table=table,
            assignment=assignment,
            columns=columns,
            meta={
                "k": k,
                "use_period": self.config.use_period,
                "em_iterations": em_info.iterations,
                "em_converged": em_info.converged,
                "log_likelihood": (
                    em_info.log_likelihoods[-1]
                    if em_info.log_likelihoods
                    else float("nan")
                ),
                "period": params.period.tolist(),
                "period_mode": period_mode(params.period),
                "expected_record_length": expected_length(params.period),
                "d_violations": d_violations,
                "lattice_states": lattice.n_states,
                "lattice_edges": lattice.n_edges,
            },
        )

    def fit(
        self, table: ObservationTable
    ) -> tuple[ModelParams, Lattice]:
        """Fit and return the model without decoding (for analyses)."""
        if not table.observations:
            raise EmptyProblemError("no observations to fit")
        k = derive_column_count(table, self.config)
        lattice = Lattice.build(table, self.config, k)
        initial = bootstrap_params(table, self.config, k)
        params, _ = run_em(lattice, self.config, initial)
        return params, lattice
