import math
import warnings

import numpy as np
import pytest

from crtoptim import (CellMeanParams, CovarianceSpec, DesignCriterion,
                      ValidationError, design_coefficients,
                      optimal_switch_ordering, space_from_sequences,
                      stepped_wedge_weights, treatment_precision,
                      unidirectional_weights)


def matrix_variance(treat, tau2, omega2, sigma2, n):
    """Independent matrix-model criterion for an equal-cell design."""
    space = space_from_sequences([tuple(int(v) for v in row) for row in treat],
                                 cells_per_period=n)
    cov = CovarianceSpec("EXC2", tau2=tau2, omega2=omega2, sigma2=sigma2)
    return DesignCriterion(space, cov).value(np.ones(treat.shape[0], dtype=int))


class TestDesignCoefficients:
    def test_balanced_parallel(self):
        treat = np.array([[1, 1, 1], [1, 1, 1], [0, 0, 0], [0, 0, 0]])
        a, b = design_coefficients(treat)
        assert a == pytest.approx(0.25)
        assert b == pytest.approx(0.25)

    def test_all_control(self):
        a, b = design_coefficients(np.zeros((4, 3), dtype=int))
        assert a == b == 0.0

    def test_row_swap_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            treat = rng.integers(0, 2, size=(5, 4))
            swapped = treat.copy()
            swapped[[0, 3]] = swapped[[3, 0]]
            a1, b1 = design_coefficients(treat)
            a2, b2 = design_coefficients(swapped)
            assert a1 == pytest.approx(a2, abs=1e-14)
            assert b1 == pytest.approx(b2, abs=1e-14)

    def test_rejects_nonbinary(self):
        with pytest.raises(ValidationError):
            design_coefficients(np.array([[0.5, 1.0]]))

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ValidationError):
            design_coefficients([[0, 1], [1]])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_empty_matrix(self, shape):
        # an empty matrix gave (nan, nan), with numpy's mean-of-empty warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-empty"):
                design_coefficients(np.zeros(shape))

    def test_precision_rejects_one_dimensional_matrix(self):
        with pytest.raises(ValidationError):
            treatment_precision(CellMeanParams(2, 2, 1, 0.1), [0, 1])


class TestPrecision:
    def test_no_cluster_variance_reduces_to_a_term(self):
        treat = np.array([[0, 1], [1, 1], [0, 0]])
        params = CellMeanParams(3, 2, 5, tau2=0.0, omega2=0.1, sigma2=1.0)
        a, _ = design_coefficients(treat)
        expected = 3 * 2 * a / (0.1 + 1.0 / 5)
        assert treatment_precision(params, treat) == pytest.approx(expected)

    def test_all_control_gives_zero_precision(self):
        params = CellMeanParams(4, 3, 2, tau2=0.1, omega2=0.05)
        assert treatment_precision(params, np.zeros((4, 3), dtype=int)) == 0.0

    def test_matches_matrix_criterion_on_random_designs(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 50:
            m = int(rng.integers(2, 11))
            t = int(rng.integers(2, 7))
            treat = rng.integers(0, 2, size=(m, t))
            tau2 = rng.uniform(0.01, 0.5)
            omega2 = rng.uniform(0.0, 0.3)
            sigma2 = rng.uniform(0.5, 2.0)
            n = int(rng.integers(1, 11))
            variance = matrix_variance(treat, tau2, omega2, sigma2, n)
            if not math.isfinite(variance):
                continue
            params = CellMeanParams(m, t, n, tau2=tau2, omega2=omega2,
                                    sigma2=sigma2)
            precision = treatment_precision(params, treat)
            assert precision > 0
            assert abs(1.0 / variance - precision) / precision <= 1e-8
            checked += 1

    def test_degenerate_matches_infinite_matrix_variance(self):
        treat = np.ones((3, 2), dtype=int)  # no control observations
        params = CellMeanParams(3, 2, 4, tau2=0.1, omega2=0.02)
        assert treatment_precision(params, treat) == 0.0
        assert math.isinf(matrix_variance(treat, 0.1, 0.02, 1.0, 4))


class TestParams:
    def test_rho_bar_bounds(self):
        params = CellMeanParams(5, 4, 10, tau2=0.2, omega2=0.1)
        assert 0.0 <= params.rho_bar < 1.0

    def test_r_zero_iff_no_cluster_variance(self):
        assert CellMeanParams(5, 4, 10, tau2=0.0).cluster_mean_correlation == 0.0
        assert CellMeanParams(5, 4, 10, tau2=0.3).cluster_mean_correlation > 0.0

    @pytest.mark.parametrize("kwargs", [
        {"tau2": math.nan}, {"tau2": math.inf}, {"omega2": math.nan},
        {"sigma2": math.nan}, {"n_clusters": 2.5}, {"obs_per_cell": True},
        {"tau2": "x"}, {"omega2": None}, {"sigma2": "1"}])
    def test_rejects_non_finite_components_and_fractional_sizes(self, kwargs):
        with pytest.raises(ValidationError):
            CellMeanParams(**{"n_clusters": 5, "n_periods": 4, "obs_per_cell": 10,
                              "tau2": 0.1, **kwargs})


class TestSwitchOrdering:
    def test_zero_correlation_switches_in_cluster_order(self):
        treat = optimal_switch_ordering(4, 3, 0.0, 7)
        # whole clusters fill before the next one starts, later periods first
        assert treat.tolist() == [[1, 1, 1], [1, 1, 1], [0, 0, 1], [0, 0, 0]]

    def test_zero_budget_all_control(self):
        assert optimal_switch_ordering(3, 4, 0.5, 0).sum() == 0

    def test_full_budget_all_treated(self):
        assert optimal_switch_ordering(3, 4, 0.5, 12).min() == 1

    def test_rows_monotone_columns_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, t = int(rng.integers(2, 8)), int(rng.integers(2, 7))
            r = rng.uniform(0.0, 1.0)
            budget = int(rng.integers(0, m * t + 1))
            treat = optimal_switch_ordering(m, t, r, budget)
            assert treat.sum() == budget
            assert np.all(np.diff(treat, axis=1) >= 0)          # no reversal
            assert np.all(np.diff(treat.sum(axis=1)) <= 0)      # cluster order

    def test_budget_range_checked(self):
        with pytest.raises(ValidationError):
            optimal_switch_ordering(2, 2, 0.5, 5)

    @pytest.mark.parametrize("args", [
        (2.5, 3, 0.5, 1), (2, 3.0, 0.5, 1), (2, 3, 0.5, 1.5), (2, 3, 0.5, True),
        (0, 3, 0.5, 0), (2, 0, 0.5, 0), (2, 3, math.nan, 1), (2, 3, "0.5", 1),
        (2, 3, -0.1, 1), (2, 3, 1.5, 1)])
    def test_rejects_bad_sizes_and_correlations(self, args):
        with pytest.raises(ValidationError):
            optimal_switch_ordering(*args)


class TestClosedFormWeights:
    def test_stepped_wedge_independent_limit(self):
        phi = stepped_wedge_weights(6, 10, 0.0)
        assert phi[0] == phi[-1] == pytest.approx(0.5)
        assert np.allclose(phi[1:-1], 0.0)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = int(rng.integers(3, 9))
            r = int(rng.integers(1, 30))
            rho = rng.uniform(0.0, 0.95)
            assert stepped_wedge_weights(t, r, rho).sum() == pytest.approx(1.0, abs=1e-12)
            assert unidirectional_weights(t, r, rho).sum() == pytest.approx(1.0, abs=1e-12)

    def test_stepped_wedge_symmetry(self):
        phi = stepped_wedge_weights(7, 4, 0.12)
        assert np.allclose(phi, phi[::-1])

    def test_unidirectional_independent_limit_is_parallel(self):
        phi = unidirectional_weights(5, 8, 0.0)
        assert phi[0] == phi[-1] == pytest.approx(0.5)
        assert np.allclose(phi[1:-1], 0.0)

    def test_unidirectional_large_cell_limit(self):
        t = 5
        phi = unidirectional_weights(t, 10 ** 7, 0.3)
        assert np.allclose(phi[1:-1], 1.0 / t, atol=1e-5)
        assert phi[0] == pytest.approx(1.0 / (2 * t), abs=1e-5)

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            stepped_wedge_weights(2, 5, 0.1)
        with pytest.raises(ValidationError):
            unidirectional_weights(4, 5, 1.0)

    @pytest.mark.parametrize("solver", [stepped_wedge_weights, unidirectional_weights])
    @pytest.mark.parametrize("args", [
        (3.5, 1, 0.1), (4, 1.5, 0.1), (4, True, 0.1), (4, 1, "0.1")])
    def test_sizes_must_be_integers_and_icc_real(self, solver, args):
        with pytest.raises(ValidationError):
            solver(*args)
