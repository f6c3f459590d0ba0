"""Inference correctness: forward-backward and Viterbi against exact
path enumeration on small lattices, plus EM behaviour."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.exceptions import InferenceError
from repro.prob.bootstrap import bootstrap_params, tentative_starts
from repro.prob.config import ProbConfig
from repro.prob.decode import viterbi
from repro.prob.em import run_em
from repro.prob.forward_backward import forward_backward
from repro.prob.lattice import Lattice, derive_column_count
from repro.prob.model import ModelParams
from tests.conftest import PAPER_TABLE1, PAPER_TABLE2, build_observation_table

SMALL_DATA = [
    ("Ada Lane", {0: (10,)}),
    ("88-321", {0: (20,)}),
    ("Bo Reyes", {1: (10,)}),
    ("77-654", {1: (20,)}),
]


def small_lattice(use_period=True, data=None, detail_count=2, **kwargs):
    table = build_observation_table(data or SMALL_DATA, detail_count=detail_count)
    config = ProbConfig(use_period=use_period, max_columns=3, **kwargs)
    k = derive_column_count(table, config)
    lattice = Lattice.build(table, config, k)
    return lattice, table, config


def enumerate_paths(lattice, params, n_steps):
    """All positive-probability state paths with their probabilities."""
    emissions = lattice.emissions(params)
    weights = lattice.edge_weights(params)
    final = lattice.final_weights(params)
    edge_w = {}
    for e in range(lattice.n_edges):
        edge_w[(lattice.edge_src[e], lattice.edge_dst[e])] = weights[e]

    paths = {}
    states = range(lattice.n_states)
    for path in itertools.product(states, repeat=n_steps):
        prob = lattice.init_w[path[0]] * emissions[0][path[0]]
        for i in range(1, n_steps):
            prob *= edge_w.get((path[i - 1], path[i]), 0.0) * emissions[i][path[i]]
        prob *= final[path[-1]]
        if prob > 0:
            paths[path] = prob
    return paths


class TestForwardBackwardExact:
    @pytest.mark.parametrize("use_period", [False, True])
    def test_log_likelihood_matches_enumeration(self, use_period):
        lattice, table, config = small_lattice(use_period)
        params = bootstrap_params(table, config, lattice.k)
        result = forward_backward(lattice, params)
        paths = enumerate_paths(lattice, params, len(table.observations))
        assert result.log_likelihood == pytest.approx(
            np.log(sum(paths.values())), rel=1e-9
        )

    @pytest.mark.parametrize("use_period", [False, True])
    def test_gamma_matches_enumeration(self, use_period):
        lattice, table, config = small_lattice(use_period)
        params = bootstrap_params(table, config, lattice.k)
        result = forward_backward(lattice, params)
        paths = enumerate_paths(lattice, params, len(table.observations))
        total = sum(paths.values())
        for step in range(len(table.observations)):
            expected = np.zeros(lattice.n_states)
            for path, prob in paths.items():
                expected[path[step]] += prob
            expected /= total
            assert np.allclose(result.gamma[step], expected, atol=1e-10)

    def test_gamma_rows_normalized(self):
        lattice, table, config = small_lattice()
        params = ModelParams.uniform(lattice.k)
        result = forward_backward(lattice, params)
        assert np.allclose(result.gamma.sum(axis=1), 1.0)

    def test_xi_totals_sum_to_steps(self):
        lattice, table, config = small_lattice()
        params = ModelParams.uniform(lattice.k)
        result = forward_backward(lattice, params)
        # One transition event per step after the first.
        assert result.xi_edge_totals.sum() == pytest.approx(
            len(table.observations) - 1
        )

    def test_empty_sequence_raises(self):
        lattice, table, config = small_lattice()
        lattice.type_vectors = np.zeros((0, 8))
        lattice.d_compat = np.zeros((0, lattice.n_states))
        params = ModelParams.uniform(lattice.k)
        with pytest.raises(InferenceError):
            forward_backward(lattice, params)


class TestViterbiExact:
    @pytest.mark.parametrize("use_period", [False, True])
    def test_map_path_matches_enumeration(self, use_period):
        lattice, table, config = small_lattice(use_period)
        params = bootstrap_params(table, config, lattice.k)
        decoded = viterbi(lattice, params)
        paths = enumerate_paths(lattice, params, len(table.observations))
        best_path = max(paths, key=paths.__getitem__)
        best_prob = paths[best_path]
        our_prob = paths[tuple(decoded.states)]
        assert our_prob == pytest.approx(best_prob, rel=1e-9)

    def test_records_monotone(self):
        lattice, table, config = small_lattice()
        params = ModelParams.uniform(lattice.k)
        decoded = viterbi(lattice, params)
        assert all(
            a <= b for a, b in zip(decoded.records, decoded.records[1:])
        )

    def test_small_example_correct_segmentation(self):
        lattice, table, config = small_lattice()
        params = bootstrap_params(table, config, lattice.k)
        decoded = viterbi(lattice, params)
        assert decoded.records.tolist() == [0, 0, 1, 1]
        assert decoded.columns[0] == 0 and decoded.columns[2] == 0


class TestEm:
    def test_log_likelihood_non_decreasing(self):
        lattice, table, config = small_lattice()
        params, info = run_em(lattice, config)
        gains = np.diff(info.log_likelihoods)
        assert np.all(gains >= -1e-6)

    def test_convergence_flag(self):
        lattice, table, config = small_lattice()
        _, info = run_em(lattice, ProbConfig(max_iterations=100, max_columns=3))
        assert info.converged
        assert info.iterations < 100

    def test_iteration_cap_respected(self):
        lattice, table, config = small_lattice()
        _, info = run_em(lattice, ProbConfig(max_iterations=2, max_columns=3))
        assert info.iterations <= 2

    def test_period_learned_on_paper_example(self):
        table = build_observation_table(PAPER_TABLE1, detail_count=3)
        config = ProbConfig()
        k = derive_column_count(table, config)
        lattice = Lattice.build(table, config, k)
        params, _ = run_em(lattice, config, bootstrap_params(table, config, k))
        # Records have 4, 4 and 3 fields: mode should be 4.
        assert int(np.argmax(params.period[1:]) + 1) == 4


class TestBootstrap:
    def test_tentative_starts_on_paper_example(self, paper_table):
        starts = tentative_starts(paper_table)
        # The paper's rule fires where D_{i-1} and D_i are disjoint:
        # E_9 (seq 8) starts r3.  E_5 shares pages with E_4, so the
        # disjointness rule alone cannot see that boundary.
        assert starts[0] is True
        assert starts[8] is True

    def test_unique_pin_rule(self):
        table = build_observation_table(SMALL_DATA, detail_count=2)
        starts = tentative_starts(table)
        assert starts == [True, False, True, False]

    def test_bootstrap_params_valid(self, paper_table):
        config = ProbConfig()
        k = derive_column_count(paper_table, config)
        params = bootstrap_params(paper_table, config, k)
        assert np.all(params.emit > 0) and np.all(params.emit < 1)
        assert params.period[1:].sum() == pytest.approx(1.0)
        assert params.start_from[k - 1] == 1.0

    def test_bootstrap_beats_uniform_initially(self, paper_table):
        config = ProbConfig()
        k = derive_column_count(paper_table, config)
        lattice = Lattice.build(paper_table, config, k)
        uniform_ll = forward_backward(
            lattice, ModelParams.uniform(k, seed=config.seed)
        ).log_likelihood
        boot_ll = forward_backward(
            lattice, bootstrap_params(paper_table, config, k)
        ).log_likelihood
        assert boot_ll > uniform_ll
