"""Tests for the probabilistic model parameters and period utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.prob.config import ProbConfig
from repro.prob.model import ModelParams
from repro.prob.period import expected_length, fit_period, period_mode


class TestModelParams:
    def test_uniform_shapes(self):
        params = ModelParams.uniform(k=5)
        assert params.emit.shape == (5, 8)
        assert params.trans.shape == (5, 5)
        assert params.start_from.shape == (5,)
        assert params.period.shape == (6,)

    def test_uniform_rejects_zero_columns(self):
        with pytest.raises(ValueError):
            ModelParams.uniform(k=0)

    def test_period_sums_to_one(self):
        params = ModelParams.uniform(k=4)
        assert params.period[0] == 0
        assert params.period[1:].sum() == pytest.approx(1.0)

    def test_last_column_always_ends(self):
        params = ModelParams.uniform(k=4)
        assert params.start_from[-1] == 1.0

    def test_jitter_breaks_symmetry_deterministically(self):
        first = ModelParams.uniform(k=3, seed=1)
        second = ModelParams.uniform(k=3, seed=1)
        third = ModelParams.uniform(k=3, seed=2)
        assert np.array_equal(first.emit, second.emit)
        assert not np.array_equal(first.emit, third.emit)

    def test_within_record_matrix_is_upper_triangular_stochastic(self):
        params = ModelParams.uniform(k=4)
        matrix = params.within_record_matrix()
        assert np.allclose(np.tril(matrix), 0.0)
        row_sums = matrix.sum(axis=1)
        assert np.allclose(row_sums[:-1], 1.0)
        assert row_sums[-1] == 0.0  # last column has no successor

    def test_hazard_reaches_one(self):
        params = ModelParams.uniform(k=4)
        hazard = params.hazard()
        assert hazard[-1] == 1.0
        assert np.all(hazard[1:] > 0)
        assert np.all(hazard <= 1.0)

    def test_hazard_of_point_mass(self):
        params = ModelParams.uniform(k=4)
        params.period = np.array([0, 0, 0, 1.0, 0])
        hazard = params.hazard()
        assert hazard[3] == pytest.approx(1.0)
        assert hazard[1] == pytest.approx(1e-9)  # clipped floor

    def test_log_emission_by_column(self):
        params = ModelParams.uniform(k=2)
        params.emit = np.array(
            [[0.9] + [0.5] * 7, [0.1] + [0.5] * 7]
        )
        vectors = np.zeros((1, 8))
        vectors[0, 0] = 1.0
        logs = params.log_emission_by_column(vectors)
        assert logs.shape == (1, 2)
        assert logs[0, 0] > logs[0, 1]

    def test_copy_is_deep(self):
        params = ModelParams.uniform(k=3)
        clone = params.copy()
        clone.emit[0, 0] = 0.123
        assert params.emit[0, 0] != 0.123


class TestPeriod:
    def test_fit_normalizes(self):
        period = fit_period(np.array([0, 2.0, 6.0, 2.0]), k=3, smoothing=0.0)
        assert period[1:].sum() == pytest.approx(1.0)
        assert period[2] == pytest.approx(0.6)

    def test_fit_with_smoothing_never_zero(self):
        period = fit_period(np.zeros(5), k=4, smoothing=0.5)
        assert np.all(period[1:] > 0)

    def test_fit_truncates_long_counts(self):
        period = fit_period(np.array([0, 1.0, 1.0, 1.0, 99.0]), k=2, smoothing=0.0)
        assert len(period) == 3

    def test_expected_length(self):
        period = np.array([0, 0.5, 0.5])
        assert expected_length(period) == pytest.approx(1.5)

    def test_period_mode(self):
        period = np.array([0, 0.2, 0.7, 0.1])
        assert period_mode(period) == 2


class TestProbConfig:
    def test_defaults(self):
        config = ProbConfig()
        assert config.use_period
        assert 0 < config.d_epsilon < 1
        assert config.max_record_skip >= 1
