"""The (record, column, length) state lattice.

Inference for the factored model runs over an explicit lattice whose
states are ``(r, c, p)``:

* ``r`` — the record (detail page) the extract belongs to,
* ``c`` — the extract's column label (0 = the never-missing first
  column ``L_1``),
* ``p`` — how many fields the current record has produced so far
  (tracked only under the Figure-3 period model; the record length
  π_j the paper learns is exactly the final ``p`` of record ``j``).

Deterministic structure from Section 5.1 is compiled into the edge
set:

* within a record columns strictly increase (fields appear in schema
  order; a skipped column is a missing field), so within-record edges
  go ``c -> c' > c`` and increment ``p``;
* a record-start edge always enters column 0 with ``p = 1``
  (``P(S_i = true | C_i = L_1) = 1``) and increments the record number
  (skipping up to ``max_record_skip`` records that contributed no
  extracts, at a per-skip ``skip_penalty``);
* the ``D_i`` constraint is applied as an emission mask with a
  ``d_epsilon`` floor, which is the robustness knob distinguishing the
  probabilistic approach from the CSP.

The lattice is static per problem; only edge *weights* and emissions
are recomputed from :class:`~repro.prob.model.ModelParams` each EM
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extraction.observations import ObservationTable
from repro.prob.config import ProbConfig
from repro.prob.model import ModelParams
from repro.tokens.types import NUM_TOKEN_TYPES, union_type_vector

__all__ = ["Lattice", "observed_type_vectors", "derive_column_count"]

#: Edge kinds.
WITHIN = 0
START = 1


def observed_type_vectors(table: ObservationTable) -> np.ndarray:
    """[N, 8] matrix of observed token-type vectors ``T_i``.

    An extract's vector is the union of its tokens' type flags: any
    type present anywhere in the extract is on.
    """
    vectors = np.zeros((len(table.observations), NUM_TOKEN_TYPES))
    for observation in table.observations:
        vectors[observation.seq] = union_type_vector(
            observation.extract.tokens
        )
    return vectors


def derive_column_count(table: ObservationTable, config: ProbConfig) -> int:
    """The paper's bound on ``k``: the largest number of extracts found
    on a detail page (capped by ``config.max_columns``)."""
    largest = 0
    for record in range(table.detail_count):
        largest = max(largest, len(table.candidates_for_record(record)))
    k = max(2, largest)
    if config.max_columns is not None:
        k = min(k, config.max_columns)
    return k


@dataclass
class Lattice:
    """Compiled state/edge arrays for one segmentation problem."""

    config: ProbConfig
    k: int
    n_records: int
    # State arrays.
    state_r: np.ndarray
    state_c: np.ndarray
    state_p: np.ndarray  #: zeros when the period model is off
    # Edge arrays (sorted by destination state).
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_kind: np.ndarray
    edge_skip: np.ndarray  #: records skipped by a START edge (0 for WITHIN)
    # Static initial distribution (record-skip prior into column 0).
    init_w: np.ndarray
    # Observation-dependent masks.
    d_compat: np.ndarray  #: [N, S] D_i compatibility (1 or d_epsilon)
    type_vectors: np.ndarray  #: [N, 8]

    @property
    def n_states(self) -> int:
        return len(self.state_r)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, table: ObservationTable, config: ProbConfig, k: int) -> "Lattice":
        """Compile the lattice for ``table`` with ``k`` columns."""
        n_records = table.detail_count
        use_period = config.use_period

        states: list[tuple[int, int, int]] = []
        state_id: dict[tuple[int, int, int], int] = {}
        for record in range(n_records):
            for column in range(k):
                lengths = range(1, column + 2) if use_period else (0,)
                for length in lengths:
                    state_id[(record, column, length)] = len(states)
                    states.append((record, column, length))

        edge_src: list[int] = []
        edge_dst: list[int] = []
        edge_kind: list[int] = []
        edge_skip: list[int] = []
        for (record, column, length), source in state_id.items():
            # Within-record: strictly increasing column, one more field.
            next_length = length + 1 if use_period else 0
            if not use_period or next_length <= k:
                for next_column in range(column + 1, k):
                    target = state_id.get((record, next_column, next_length))
                    if target is not None:
                        edge_src.append(source)
                        edge_dst.append(target)
                        edge_kind.append(WITHIN)
                        edge_skip.append(0)
            # Record start: enter column 0 of a later record.
            first_length = 1 if use_period else 0
            for next_record in range(
                record + 1,
                min(record + 2 + config.max_record_skip, n_records),
            ):
                target = state_id.get((next_record, 0, first_length))
                if target is not None:
                    edge_src.append(source)
                    edge_dst.append(target)
                    edge_kind.append(START)
                    edge_skip.append(next_record - record - 1)

        order = np.argsort(np.asarray(edge_dst), kind="stable")
        edge_src_arr = np.asarray(edge_src)[order]
        edge_dst_arr = np.asarray(edge_dst)[order]
        edge_kind_arr = np.asarray(edge_kind)[order]
        edge_skip_arr = np.asarray(edge_skip)[order]

        state_r = np.array([s[0] for s in states])
        state_c = np.array([s[1] for s in states])
        state_p = np.array([s[2] for s in states])

        # Initial distribution: any record's column-0 state, with the
        # skip penalty for records the table never mentions.
        init_w = np.zeros(len(states))
        first_length = 1 if use_period else 0
        for record in range(min(1 + config.max_record_skip, n_records)):
            source = state_id.get((record, 0, first_length))
            if source is not None:
                init_w[source] = config.skip_penalty**record
        total = init_w.sum()
        if total > 0:
            init_w /= total

        # D_i compatibility per observation and state.
        n_observations = len(table.observations)
        record_ok = np.full((n_observations, n_records), config.d_epsilon)
        for observation in table.observations:
            for record in observation.detail_pages:
                record_ok[observation.seq, record] = 1.0
        d_compat = record_ok[:, state_r]

        return cls(
            config=config,
            k=k,
            n_records=n_records,
            state_r=state_r,
            state_c=state_c,
            state_p=state_p,
            edge_src=edge_src_arr,
            edge_dst=edge_dst_arr,
            edge_kind=edge_kind_arr,
            edge_skip=edge_skip_arr,
            init_w=init_w,
            d_compat=d_compat,
            type_vectors=observed_type_vectors(table),
        )

    # -- parameter-dependent quantities -------------------------------------

    def edge_weights(self, params: ModelParams) -> np.ndarray:
        """[E] linear-space transition weights under ``params``."""
        within = params.within_record_matrix()  # [k, k]
        c_src = self.state_c[self.edge_src]
        c_dst = self.state_c[self.edge_dst]
        end_prob = self._end_probability(params)[self.edge_src]

        weights = np.zeros(self.n_edges)
        within_mask = self.edge_kind == WITHIN
        weights[within_mask] = (1.0 - end_prob[within_mask]) * within[
            c_src[within_mask], c_dst[within_mask]
        ]
        start_mask = ~within_mask
        weights[start_mask] = end_prob[start_mask] * (
            self.config.skip_penalty ** self.edge_skip[start_mask]
        )
        return weights

    def final_weights(self, params: ModelParams) -> np.ndarray:
        """[S] end-of-sequence weights: the last record simply ends."""
        return self._end_probability(params)

    def _end_probability(self, params: ModelParams) -> np.ndarray:
        """[S] probability that the record ends at each state."""
        if self.config.use_period:
            hazard = params.hazard()  # [k+1]
            return hazard[self.state_p]
        return params.start_from[self.state_c]

    def emissions(self, params: ModelParams) -> np.ndarray:
        """[N, S] linear-space emission matrix (types x D-mask)."""
        log_by_column = params.log_emission_by_column(self.type_vectors)
        by_column = np.exp(log_by_column)  # [N, k]
        return by_column[:, self.state_c] * self.d_compat
