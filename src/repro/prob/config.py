""":class:`ProbConfig`, the probabilistic segmenter's settings.

Kept apart from :mod:`repro.prob.model` so that
:class:`~repro.core.config.PipelineConfig`, which every pipeline run
builds, does not load numpy: only ``prob`` and ``hybrid`` runs import
the model.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProbConfig"]


@dataclass(frozen=True)
class ProbConfig:
    """Configuration of the probabilistic segmenter.

    Attributes:
        max_iterations: EM iteration cap.
        tol: stop when the per-extract log-likelihood improves by less
            than this.
        use_period: enable the Figure-3 record-period model; off gives
            the plain Figure-2 model (ablation).
        max_record_skip: how many detail pages a record-start
            transition may skip (a record none of whose values matched
            anything contributes no extracts).
        skip_penalty: per-skipped-record probability penalty.
        d_epsilon: emission weight of pairing an extract with a record
            outside its ``D_i`` (robustness floor; 0 would make the
            model as brittle as the CSP).
        smoothing: Laplace smoothing for all M-step updates.
        max_columns: cap on the number of column labels ``k``; None
            derives k from the data (the paper's bound: the largest
            number of extracts found on a detail page).
        seed: seed for the symmetry-breaking jitter of the initial
            parameters.
    """

    max_iterations: int = 30
    tol: float = 1e-4
    use_period: bool = True
    max_record_skip: int = 3
    skip_penalty: float = 0.05
    d_epsilon: float = 1e-6
    smoothing: float = 0.5
    max_columns: int | None = 10
    seed: int = 0
