"""Structural tests for the (record, column, length) lattice."""

from __future__ import annotations

import numpy as np
import pytest

from repro.prob.config import ProbConfig
from repro.prob.lattice import (
    Lattice,
    START,
    WITHIN,
    derive_column_count,
    observed_type_vectors,
)
from repro.prob.model import ModelParams
from tests.conftest import PAPER_TABLE1, build_observation_table


@pytest.fixture
def table():
    return build_observation_table(PAPER_TABLE1, detail_count=3)


def build(table, use_period=True, **kwargs):
    config = ProbConfig(use_period=use_period, **kwargs)
    k = derive_column_count(table, config)
    return Lattice.build(table, config, k), config


class TestStructure:
    def test_state_count_no_period(self, table):
        lattice, config = build(table, use_period=False)
        assert lattice.n_states == 3 * lattice.k

    def test_state_count_with_period(self, table):
        lattice, _ = build(table, use_period=True)
        k = lattice.k
        assert lattice.n_states == 3 * k * (k + 1) // 2

    def test_within_edges_increase_column_same_record(self, table):
        lattice, _ = build(table)
        within = lattice.edge_kind == WITHIN
        src, dst = lattice.edge_src[within], lattice.edge_dst[within]
        assert np.all(lattice.state_r[src] == lattice.state_r[dst])
        assert np.all(lattice.state_c[src] < lattice.state_c[dst])
        assert np.all(lattice.state_p[dst] == lattice.state_p[src] + 1)

    def test_start_edges_enter_column_zero(self, table):
        lattice, _ = build(table)
        start = lattice.edge_kind == START
        dst = lattice.edge_dst[start]
        assert np.all(lattice.state_c[dst] == 0)
        assert np.all(lattice.state_p[dst] == 1)
        src = lattice.edge_src[start]
        assert np.all(lattice.state_r[dst] > lattice.state_r[src])

    def test_record_skip_capped(self, table):
        lattice, config = build(table, max_record_skip=0)
        start = lattice.edge_kind == START
        jumps = (
            lattice.state_r[lattice.edge_dst[start]]
            - lattice.state_r[lattice.edge_src[start]]
        )
        assert np.all(jumps == 1)

    def test_init_only_column_zero(self, table):
        lattice, _ = build(table)
        positive = lattice.init_w > 0
        assert np.all(lattice.state_c[positive] == 0)
        assert lattice.init_w.sum() == pytest.approx(1.0)

    def test_d_compat_mask(self, table):
        lattice, config = build(table)
        # Observation 1 ("221 Washington") only on record 0.
        row = lattice.d_compat[1]
        ok = lattice.state_r == 0
        assert np.all(row[ok] == 1.0)
        assert np.all(row[~ok] == config.d_epsilon)

    def test_edges_sorted_by_destination(self, table):
        lattice, _ = build(table)
        assert np.all(np.diff(lattice.edge_dst) >= 0)


class TestWeights:
    def test_edge_weights_nonnegative_and_bounded(self, table):
        lattice, config = build(table)
        params = ModelParams.uniform(lattice.k)
        weights = lattice.edge_weights(params)
        assert np.all(weights >= 0)
        assert np.all(weights <= 1.0 + 1e-12)

    def test_outgoing_mass_at_most_one_modulo_skips(self, table):
        # Continue-vs-end is a proper choice; skip penalties add a
        # small documented excess only.
        lattice, config = build(table)
        params = ModelParams.uniform(lattice.k)
        weights = lattice.edge_weights(params)
        totals = np.zeros(lattice.n_states)
        np.add.at(totals, lattice.edge_src, weights)
        excess = sum(config.skip_penalty**d for d in range(1, 1 + config.max_record_skip))
        assert np.all(totals <= 1.0 + excess + 1e-9)

    def test_emissions_shape_and_positive(self, table):
        lattice, _ = build(table)
        params = ModelParams.uniform(lattice.k)
        emissions = lattice.emissions(params)
        assert emissions.shape == (len(PAPER_TABLE1), lattice.n_states)
        assert np.all(emissions > 0)


class TestHelpers:
    def test_derive_column_count_paper_bound(self, table):
        # Largest candidate set: r1 has 6 candidates.
        assert derive_column_count(table, ProbConfig()) == 6

    def test_derive_column_count_capped(self, table):
        assert derive_column_count(table, ProbConfig(max_columns=4)) == 4

    def test_observed_type_vectors_union(self, table):
        vectors = observed_type_vectors(table)
        assert vectors.shape == (len(PAPER_TABLE1), 8)
        # "(740) 335-5555": ALNUM + NUMERIC only.
        assert vectors[3].tolist() == [0, 0, 1, 1, 0, 0, 0, 0]
        # "Findlay, OH": capitalized + allcaps union across tokens.
        assert vectors[9][5] == 1 and vectors[9][7] == 1
