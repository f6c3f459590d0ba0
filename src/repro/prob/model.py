"""Parameters of the factored probabilistic model (paper Section 5.1).

The model's hidden variables per extract are the record number ``R_i``,
the column label ``C_i`` and the record-start flag ``S_i``; observed
are the token-type vector ``T_i`` and detail-page set ``D_i``.  The
paper's dependency structure (Figures 2 and 3) factorizes into the
parameter blocks held by :class:`ModelParams`:

* ``emit[c, t]`` — Bernoulli ``P(T_t = 1 | C = c)`` for each of the 8
  token types (the emission block ``P(T_i | C_i)``);
* ``trans[c, c']`` — within-record column transition scores
  (``P(C_i | C_{i-1})`` restricted to ``c' > c``; columns are strictly
  increasing inside a record because fields appear in schema order,
  possibly with gaps for missing fields);
* ``start_from[c]`` — probability that a record *ends* after a field
  in column ``c`` (the Figure-2 model's ``P(C_i = L_1 | C_{i-1})``
  mass; superseded by the period model when enabled);
* ``period[l]`` — the record-period distribution π over record lengths
  ``l = 1..k`` (the Figure-3 model).

``P(S_i | C_i)`` is deterministic per the paper's observation that the
first column is never missing: a record starts iff ``C_i = L_1``
(column 0 here), so record-start transitions always enter column 0.
``P(R_i | R_{i-1}, D_i, S_i)`` is likewise deterministic up to the
``D_i`` compatibility mask, which the lattice applies as an emission
factor with a small ``d_epsilon`` floor — the floor is what makes the
probabilistic approach "tolerant of inconsistencies" (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tokens.types import NUM_TOKEN_TYPES

__all__ = ["ModelParams"]


@dataclass
class ModelParams:
    """The learnable parameter blocks.

    All arrays are proper (normalized) probabilities; ``trans`` rows
    are normalized over their *valid* successors ``c' > c`` at use
    time, since the valid set depends on the source column.
    """

    k: int
    emit: np.ndarray = field(repr=False)  #: [k, 8] Bernoulli P(T_t=1|c)
    trans: np.ndarray = field(repr=False)  #: [k, k] within-record scores
    start_from: np.ndarray = field(repr=False)  #: [k] P(record ends | c)
    period: np.ndarray = field(repr=False)  #: [k+1] pi over lengths 1..k

    @classmethod
    def uniform(cls, k: int, seed: int = 0) -> "ModelParams":
        """The paper's bootstrap initialization (Section 5.2.1).

        Token-type Bernoullis start uninformative (the paper's
        "P(T_ij = true | C_i) = 1/8" prior on types), transitions and
        the period start uniform.  A small seeded jitter breaks the
        label symmetry between columns so EM can pull them apart.
        """
        if k < 1:
            raise ValueError(f"need at least one column, got k={k}")
        rng = np.random.default_rng(seed)
        emit = np.full((k, NUM_TOKEN_TYPES), 1.0 / NUM_TOKEN_TYPES)
        emit += rng.uniform(-0.01, 0.01, size=emit.shape)
        emit = np.clip(emit, 1e-3, 1 - 1e-3)

        trans = np.full((k, k), 1.0)
        trans += rng.uniform(0.0, 0.01, size=trans.shape)

        start_from = np.full(k, 0.5)
        # From the last column a record can only end.
        start_from[k - 1] = 1.0

        period = np.zeros(k + 1)
        period[1:] = 1.0 / k
        return cls(
            k=k, emit=emit, trans=trans, start_from=start_from, period=period
        )

    def log_emission_by_column(self, type_vectors: np.ndarray) -> np.ndarray:
        """Log P(T_i | c) for every observation and column.

        Args:
            type_vectors: [N, 8] 0/1 matrix of observed token types
                (an extract's vector is the union of its tokens' types).

        Returns:
            [N, k] matrix of log emission probabilities.
        """
        log_p = np.log(self.emit)  # [k, 8]
        log_q = np.log1p(-self.emit)
        # [N, k] = T @ log_p.T + (1-T) @ log_q.T
        return type_vectors @ log_p.T + (1.0 - type_vectors) @ log_q.T

    def within_record_matrix(self) -> np.ndarray:
        """[k, k] matrix of P(c -> c') over valid successors c' > c.

        Rows with no successor (the last column) are all zero.
        """
        matrix = np.triu(self.trans, k=1)
        sums = matrix.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            matrix = np.where(sums > 0, matrix / sums, 0.0)
        return matrix

    def hazard(self) -> np.ndarray:
        """[k+1] end-of-record hazard h(p) = P(len = p | len >= p).

        Index 0 is unused.  ``h(k) = 1`` by construction.
        """
        tail = np.cumsum(self.period[::-1])[::-1]  # tail[p] = P(len >= p)
        hazard = np.zeros_like(self.period)
        with np.errstate(invalid="ignore", divide="ignore"):
            valid = tail > 0
            hazard[valid] = self.period[valid] / tail[valid]
        hazard[-1] = 1.0
        return np.clip(hazard, 1e-9, 1.0)

    def copy(self) -> "ModelParams":
        """Deep copy (EM keeps the best-scoring parameters)."""
        return ModelParams(
            k=self.k,
            emit=self.emit.copy(),
            trans=self.trans.copy(),
            start_from=self.start_from.copy(),
            period=self.period.copy(),
        )
