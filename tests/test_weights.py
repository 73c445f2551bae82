import math

import numpy as np
import pytest

from crtoptim import (ConvergenceError, CovarianceSpec, DesignCriterion,
                      InfeasibleError, ModelClass, ModelEntry, ModelSpec, RobustCriterion,
                      ValidationError, best_rounding, mixed_model_weights,
                      project_to_simplex, sequence_patterns,
                      simplex_weight_descent, space_from_sequences,
                      standard_space, stepped_wedge_weights,
                      unidirectional_weights, unit_information_blocks,
                      WeightedDesign)
from crtoptim.covariance import iterated_weights
from crtoptim import weights
from crtoptim.glscore import contrast_variance, treatment_contrast
from crtoptim.weights import WEIGHT_FLOOR, _lockstep_weights


def exc1_from_icc(icc):
    return CovarianceSpec("EXC1", tau2=icc, sigma2=1.0 - icc)


def cell_space(sequences, count=1):
    return space_from_sequences(sequences, granularity="cluster-period",
                                cells_per_period=count)


class TestProjection:
    def test_interior_point_untouched(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(v), v)

    def test_projection_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(scale=3.0, size=rng.integers(2, 9))
            p = project_to_simplex(v)
            assert p.min() >= 0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            # projection is the nearest simplex point: check against random feasible points
            q = rng.dirichlet(np.ones(v.size))
            assert np.sum((p - v) ** 2) <= np.sum((q - v) ** 2) + 1e-12

    @pytest.mark.parametrize("v", [[], [np.nan, 1.0], [np.inf, 0.0], [[0.5, 0.5]],
                                   np.full((2, 2), 0.25), 0.5],
                             ids=["empty", "nan", "inf", "row", "matrix", "scalar"])
    def test_rejects_non_vectors_and_non_finite_entries(self, v):
        with pytest.raises(ValidationError):
            project_to_simplex(v)


class TestMixedModelWeights:
    def test_two_arm_single_period_symmetry(self):
        space = cell_space([(0,), (1,)])
        wd = mixed_model_weights(space, exc1_from_icc(0.05), total_obs=20.0,
                                 tolerance=1e-10)
        assert np.allclose(wd.weights, 0.5, atol=1e-8)

    def test_weights_form_probability_vector(self):
        space = cell_space(sequence_patterns(4)[1:4])
        wd = mixed_model_weights(space, exc1_from_icc(0.1), total_obs=60.0)
        assert wd.weights.min() >= 0
        assert wd.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_nan_weights_rejected(self):
        with pytest.raises(ValidationError):
            WeightedDesign(np.array([np.nan, 0.5, 0.5]), 1.0, 1)

    def test_sequence_weights_match_stepped_wedge_formula(self):
        # small slice of the cross-check grid; the full grid runs in acceptance
        for t, r, rho in [(4, 5, 0.05), (6, 10, 0.2)]:
            space = space_from_sequences(sequence_patterns(t)[1:t],
                                         cells_per_period=r)
            wd = mixed_model_weights(space, exc1_from_icc(rho),
                                     total_obs=(t - 1) * t * r,
                                     tolerance=1e-10, max_iter=100000)
            assert np.abs(wd.weights - stepped_wedge_weights(t, r, rho)).max() < 1e-6

    def test_cell_weights_beat_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            t = int(rng.integers(2, 5))
            seqs = sequence_patterns(t)
            space = cell_space(seqs)
            cov = CovarianceSpec("EXC2", tau2=rng.uniform(0.02, 0.3),
                                 omega2=rng.uniform(0.0, 0.1),
                                 sigma2=1.0)
            n = float(len(seqs) * t * 5)
            wd = mixed_model_weights(space, cov, total_obs=n, tolerance=1e-8,
                                     max_iter=50000)
            uniform = np.full(space.n_units, 1.0 / space.n_units)
            assert wd.value <= _cell_value(space, cov, uniform, n) + 1e-12

    @pytest.mark.parametrize("family", ["binomial-logit", "poisson-log"])
    def test_non_gaussian_cell_weights_converge(self, family):
        # the cell update must divide |a| by sqrt(w): with the GLM weight
        # left out the criterion rises and the iteration aborts
        space = standard_space(4, max_replication=10,
                               granularity="cluster-period")
        cov = CovarianceSpec.from_icc("EXC2", 0.1, cac=0.5)
        model = ModelSpec(family, beta=(-2, -1.5, -1, -0.5, 0.5))
        wd = mixed_model_weights(space, cov, model=model, total_obs=100.0)
        uniform = np.full(space.n_units, 1.0 / space.n_units)
        assert wd.value <= _cell_value(space, cov, uniform, 100.0, model)
        assert wd.value == pytest.approx(
            _cell_value(space, cov, wd.weights, 100.0, model), rel=1e-9)

    def test_total_obs_counts_unit_replicates(self):
        # five observations per cell: N * phi_j replicates of cell j hold
        # 5 N phi_j observations, as the criterion and the rounding count them
        space = standard_space(4, max_replication=10, cells_per_period=5,
                               granularity="cluster-period")
        cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5)
        wd = mixed_model_weights(space, cov, total_obs=60)
        crit = DesignCriterion(space, cov)
        assert wd.value == pytest.approx(crit.value(60 * wd.weights), rel=1e-12)
        rounded = best_rounding(space, cov, wd.weights, 60)
        assert rounded.value >= wd.value * (1 - 1e-9)

    def test_drops_uninformative_cells_at_independence(self):
        # with no cluster effects, cells in never-treated periods carry no
        # information; the safeguard must remove them, and the rank-aware
        # solve then ignores their empty period column
        t = 3
        space = cell_space(sequence_patterns(t)[1:t])
        cov = CovarianceSpec("EXC1", tau2=0.0, sigma2=1.0)
        wd = mixed_model_weights(space, cov, total_obs=30.0, tolerance=1e-9,
                                 max_iter=50000)
        periods = np.array([u.cells[0].period for u in space.units])
        assert wd.weights[periods == 1].sum() == pytest.approx(0.0, abs=1e-7)

    def test_requires_total_obs_for_cells(self):
        space = cell_space([(0,), (1,)])
        with pytest.raises(ValidationError):
            mixed_model_weights(space, exc1_from_icc(0.1))

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("total_obs", [float("nan"), float("inf"), -5.0, 0,
                                           True, "60"])
    def test_rejects_bad_total_obs(self, granularity, total_obs):
        space = standard_space(3, max_replication=2, granularity=granularity)
        with pytest.raises(ValidationError, match="total_obs"):
            mixed_model_weights(space, exc1_from_icc(0.1), total_obs=total_obs)

    def test_infeasible_space_raises(self):
        space = cell_space([(0, 0)])
        with pytest.raises(InfeasibleError):
            mixed_model_weights(space, exc1_from_icc(0.1), total_obs=10.0)

    def test_higher_cluster_autocorrelation_concentrates_near_switch(self):
        # with stronger within-cluster correlation over time, observation
        # mass moves onto the cells adjacent to each cluster's switch point
        seqs = sequence_patterns(6)
        space = space_from_sequences(seqs, granularity="observation",
                                     max_replication=10)
        periods = np.array([u.cells[0].period for u in space.units])
        clusters = np.array([u.cluster_id for u in space.units])
        switch = {}
        for k, s in enumerate(seqs):
            treated = [t + 1 for t, v in enumerate(s) if v]
            switch[k] = treated[0] if treated else len(s) + 1
        masses = []
        for cac in (0.2, 0.5, 0.8):
            cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=cac)
            wd = mixed_model_weights(space, cov, total_obs=80.0,
                                     tolerance=1e-8, max_iter=100000)
            near = sum(wd.weights[j] for j in range(space.n_units)
                       if min(abs(periods[j] - switch[clusters[j]]),
                              abs(periods[j] - switch[clusters[j]] + 1)) <= 1)
            masses.append(near)
        assert masses[0] < masses[1] < masses[2] + 1e-9

    def test_iteration_cap_carries_last_iterate(self):
        from crtoptim import ConvergenceError
        space = cell_space(sequence_patterns(4)[1:4])
        with pytest.raises(ConvergenceError) as err:
            mixed_model_weights(space, exc1_from_icc(0.1), total_obs=60.0,
                                tolerance=1e-15, max_iter=2)
        assert err.value.weights is not None
        assert err.value.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert err.value.iterations == 2

    @pytest.mark.parametrize("max_iter", [2.5, -1, 0, True, "10"])
    @pytest.mark.parametrize("solver", ["mixed", "simplex"])
    def test_max_iter_must_be_a_positive_integer(self, solver, max_iter):
        # the fixed point would never reach a fractional or negative cap
        space = standard_space(3, max_replication=2)
        run = mixed_model_weights if solver == "mixed" else simplex_weight_descent
        with pytest.raises(ValidationError, match="max_iter"):
            run(space, exc1_from_icc(0.1), max_iter=max_iter)


def _cell_value(space, cov, phi, total_obs, model=ModelSpec()):
    """Criterion of explicit cell weights (independent check path)."""
    x, w, sigma, keep = _cell_system(space, cov, phi, total_obs, model)
    m = x[keep].T @ np.linalg.solve(sigma, x[keep])
    return contrast_variance(m, treatment_contrast(space.n_periods + 1))


def _cell_system(space, cov, phi, total_obs, model):
    """Cell rows, GLM weights, and the covariance of the cell means of the
    cells that carry weight."""
    periods = np.array([u.cells[0].period for u in space.units])
    treated = np.array([u.cells[0].treated for u in space.units])
    clusters = np.array([u.cluster_id for u in space.units])
    x = np.zeros((space.n_units, space.n_periods + 1))
    x[np.arange(space.n_units), periods - 1] = 1.0
    x[:, space.n_periods] = treated
    if model.is_gaussian:
        w = np.full(space.n_units, 1.0 / cov.sigma2)
    else:
        w = iterated_weights(model, x @ model.beta_for(space.n_periods),
                             sigma2=cov.sigma2)
    keep = phi > 0  # cells without observations leave the model
    same = clusters[keep, None] == clusters[None, keep]
    lags = np.abs(periods[keep, None] - periods[None, keep])
    sigma = np.where(same, cov.within(lags), 0.0)
    sigma[np.diag_indices_from(sigma)] += 1.0 / (total_obs * w[keep] * phi[keep])
    return x, w, sigma, keep


def _plain_cell_fixed_point(space, cov, total_obs, model, tolerance):
    """The multiplicative map without acceleration (independent check path).

    With ``a = Sigma^-1 X M^+ c`` the GLS estimation weights of the cells,
    ``-grad_j = a_j^2 / (w_j (N phi_j)^2)``, so one step of
    ``phi ∝ phi sqrt(-grad)`` is ``phi ∝ |a| / sqrt(w)``. Dropped cells can
    empty a period column, hence the pseudo-inverse.
    """
    c = treatment_contrast(space.n_periods + 1)
    phi = np.full(space.n_units, 1.0 / space.n_units)
    while True:
        x, w, sigma, keep = _cell_system(space, cov, phi, total_obs, model)
        sx = np.linalg.solve(sigma, x[keep])
        y = np.linalg.pinv(x[keep].T @ sx, hermitian=True) @ c
        new = np.zeros_like(phi)
        new[keep] = np.abs(sx @ y) / np.sqrt(w[keep])
        new /= new.sum()
        low = keep & (new < WEIGHT_FLOOR)
        done = not low.any() and np.abs(new - phi).max() <= tolerance
        new[low] = 0.0
        phi = new / new.sum()
        if done:
            return phi


_CP4 = standard_space(4, max_replication=10, granularity="cluster-period")
_CP6 = standard_space(6, max_replication=10, granularity="cluster-period")
_README = standard_space(6, max_replication=5, cells_per_period=10)


class TestAcceleratedFixedPoint:
    """SQUAREM cycles cut the criterion evaluations of the multiplicative
    map; its fixed point and stop rule stay those of the plain map."""

    def test_cluster_period_grid_cell(self):
        cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5)
        wd = mixed_model_weights(_CP6, cov, total_obs=60)
        assert wd.iterations <= 60  # the plain map takes 511 steps, unbounded SQUAREM 92
        assert wd.value == DesignCriterion(_CP6, cov).value(60 * wd.weights)
        assert wd.value <= 0.0744144719  # where the plain map stops
        tight = mixed_model_weights(_CP6, cov, total_obs=60, tolerance=1e-10)
        assert wd.value == pytest.approx(tight.value, rel=1e-5)

    @pytest.mark.parametrize("family", ["gaussian-identity", "binomial-logit"])
    @pytest.mark.parametrize("kind,params", [("EXC1", {}), ("EXC2", {"cac": 0.5}),
                                             ("AR1", {"decay": 0.8})])
    def test_no_worse_than_plain_map(self, kind, params, family):
        cov = CovarianceSpec.from_icc(kind, 0.05, **params)
        model = ModelSpec(family, beta=(-2, -1.5, -1, -0.5, 0.5))
        wd = mixed_model_weights(_CP4, cov, model=model, total_obs=100.0)
        plain = _plain_cell_fixed_point(_CP4, cov, 100.0, model, 1e-6)
        plain_value = _cell_value(_CP4, cov, plain, 100.0, model)
        assert wd.value <= (1 + 1e-9) * plain_value
        assert np.abs(wd.weights - plain).max() < 1e-3

    LOGIT = ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5))

    @pytest.mark.parametrize("space,cov,model,total_obs,iterations,value", [
        (_CP4, CovarianceSpec.from_icc("EXC1", 0.05), ModelSpec(), 100.0,
         39, "0x1.72cbe70841221p-5"),
        (_CP4, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5), ModelSpec(), 100.0,
         23, "0x1.bd933c1d9c5cep-5"),
        (_README, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8), ModelSpec(), None,
         14, "0x1.47379c2ee9fd8p-3"),
        (_README, CovarianceSpec.from_icc("EXC2", 0.01, cac=0.5), ModelSpec(), None,
         32, "0x1.6a074b1ad0c83p-4"),
    ], ids=["EXC1-gaussian", "EXC2-gaussian", "readme-0.05-0.8", "readme-0.01-0.5"])
    def test_step_bound_idle_without_a_rejection(self, space, cov, model, total_obs,
                                                 iterations, value):
        # runs that never reject an extrapolation: the step bound stays
        # infinite, so they keep the unbounded step's path bit for bit
        wd = mixed_model_weights(space, cov, model=model, total_obs=total_obs)
        assert (wd.iterations, wd.value.hex()) == (iterations, value)

    @pytest.mark.parametrize("cov,model,iterations,value", [
        (CovarianceSpec.from_icc("AR1", 0.05, decay=0.8), ModelSpec(),
         24, "0x1.96b9c1d766550p-5"),
        (CovarianceSpec.from_icc("EXC1", 0.05), LOGIT, 52, "0x1.8b372654cb5b0p-3"),
        (CovarianceSpec.from_icc("AR1", 0.05, decay=0.8), LOGIT,
         59, "0x1.95f793c33e8ccp-3"),
    ], ids=["AR1-gaussian", "EXC1-logit", "AR1-logit"])
    def test_step_bound_after_fallbacks(self, cov, model, iterations, value):
        # runs that, unbounded, reject no extrapolation by its criterion
        # value but fall back from ones that leave an active weight
        # non-positive: each such fallback now bounds the next step
        wd = mixed_model_weights(_CP4, cov, model=model, total_obs=100.0)
        assert (wd.iterations, wd.value.hex()) == (iterations, value)

    def test_fallback_bounds_the_step(self):
        # with the step left unbounded after a fallback, this run fell back
        # 39 times in 98 evaluations; bounded, 11 times in 52
        cov = CovarianceSpec.from_icc("EXC1", 0.05)
        wd = mixed_model_weights(_CP4, cov, model=self.LOGIT, total_obs=100.0)
        assert wd.iterations <= 60
        tight = mixed_model_weights(_CP4, cov, model=self.LOGIT, total_obs=100.0,
                                    tolerance=1e-10)
        assert wd.value == pytest.approx(tight.value, rel=2e-6)

    def test_step_bound_after_rejections(self):
        # unbounded, 26 of 35 extrapolations here are rejected, in 136 evaluations
        wd = mixed_model_weights(_CP4, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5),
                                 model=self.LOGIT, total_obs=100.0)
        assert wd.iterations <= 100

    @pytest.mark.parametrize("icc", [0.0431, 0.0567])
    @pytest.mark.parametrize("cac", [0.4612, 0.5388])
    def test_grid_cell_gap_to_tight_solve(self, icc, cac):
        cov = CovarianceSpec.from_icc("EXC2", icc, cac=cac)
        wd = mixed_model_weights(_CP6, cov, total_obs=60)
        tight = mixed_model_weights(_CP6, cov, total_obs=60, tolerance=1e-10)
        assert wd.value == pytest.approx(tight.value, rel=5e-6)

    def test_log_average_class_converges(self):
        # log-average values are negative; the monotone check once read
        # -1.4413067884257664 -> -1.4413067888436026, a decrease, as an increase
        covs = [CovarianceSpec.from_icc("AR1", 0.2, decay=0.8),
                CovarianceSpec.from_icc("EXC1", 0.05)]
        crit = RobustCriterion(_README, ModelClass.equal_priors(covs, form="log-average"))
        wd, = _lockstep_weights(_README, [crit])
        assert isinstance(wd, WeightedDesign)
        assert wd.value == crit.value(wd.weights) < 0
        for cov in covs:  # no worse than either model's own optimum
            assert wd.value <= crit.value(mixed_model_weights(_README, cov).weights)


def _same_run(got, want):
    """Bit-identical solver outcomes: the same weights, value and count, or
    the same error with the same last iterate."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        assert got.iterations == want.iterations
        assert np.array_equal(got.weights, want.weights)
    else:
        assert np.array_equal(got.weights, want.weights)
        assert type(got.value) is float and got.value.hex() == want.value.hex()
        assert got.iterations == want.iterations


def _solo(space, cov, model, total_obs, **kwargs):
    try:
        return mixed_model_weights(space, cov, model=model, total_obs=total_obs,
                                   **kwargs)
    except ConvergenceError as exc:
        return exc


class TestLockstep:
    """Every cell's fixed point in lockstep, one stacked gradient call per
    step, ends exactly where the cell's own run does."""

    @pytest.mark.parametrize("space,model,covs,total_obs", [
        (standard_space(6, max_replication=10, granularity="cluster-period"), None,
         [CovarianceSpec.from_icc("EXC2", icc, cac=cac)
          for icc in (0.0431, 0.0567) for cac in (0.4612, 0.5388)], 60),
        (standard_space(4, max_replication=3), None,
         [CovarianceSpec.from_icc("AR1", icc, decay=decay)
          for icc in (0.02, 0.1) for decay in (0.5, 0.9)], None),
        (standard_space(4, max_replication=10, granularity="cluster-period"),
         ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5)),
         [CovarianceSpec.from_icc("EXC1", icc) for icc in (0.01, 0.05, 0.2)], 55),
    ], ids=["cluster-period-EXC2", "sequence-AR1", "binomial-logit"])
    def test_grid_matches_each_cell_alone(self, space, model, covs, total_obs):
        results = _lockstep_weights(
            space, [DesignCriterion(space, cov, model) for cov in covs], total_obs)
        assert len(results) == len(covs)
        # the cells stop at different steps, so the stack shrinks on the way
        assert len({r.iterations for r in results}) > 1
        for cov, got in zip(covs, results):
            _same_run(got, _solo(space, cov, model, total_obs))

    def test_one_cell_out_of_evaluations(self):
        space = standard_space(6, max_replication=10, granularity="cluster-period")
        covs = [CovarianceSpec.from_icc("EXC2", icc, cac=cac)
                for icc in (0.0431, 0.0567) for cac in (0.4612, 0.5388)]
        # one evaluation short of what the slowest cell needs
        cap = max(_solo(space, cov, None, 60).iterations for cov in covs) - 1
        results = _lockstep_weights(space, [DesignCriterion(space, cov) for cov in covs],
                                    total_obs=60, max_iter=cap)
        failed = [isinstance(r, ConvergenceError) for r in results]
        assert 0 < sum(failed) < len(covs)
        for cov, got in zip(covs, results):
            _same_run(got, _solo(space, cov, None, 60, max_iter=cap))

    def test_rejects_what_a_lone_call_rejects(self):
        space = standard_space(4, max_replication=3, granularity="cluster-period")
        with pytest.raises(ValidationError, match="total_obs"):
            _lockstep_weights(space, [DesignCriterion(space, exc1_from_icc(0.1))])


class TestStackedOnce:
    """A lockstep run stacks its cells' cluster blocks once per set of
    cells still running, not once per step, and a lone cell's criterion is
    its own stack."""

    def test_one_stack_per_live_set(self, monkeypatch):
        space = standard_space(6, max_replication=10, granularity="cluster-period")
        criteria = [DesignCriterion(space, CovarianceSpec.from_icc("EXC2", icc, cac=cac))
                    for icc in (0.0431, 0.0567) for cac in (0.4612, 0.5388)]
        stacked = weights._stacked_clusters
        sizes = []

        def counted(parts):
            stack = stacked(parts)
            if stack is not parts[0]._stack:  # a lone live set stacks nothing
                sizes.append(len(parts))
            return stack
        monkeypatch.setattr(weights, "_stacked_clusters", counted)
        iterations = [r.iterations for r in _lockstep_weights(space, criteria, 60)]
        # a cell is scored once per step until its last evaluation
        live = [len(criteria)] + [sum(n > k for n in iterations)
                                  for k in sorted(set(iterations))]
        assert len(set(iterations)) > 1
        assert sizes == [n for n in live if n > 1]


class TestSimplexDescent:
    def test_two_sequence_symmetry_at_independence(self):
        space = space_from_sequences([(0, 0), (1, 1)], cells_per_period=4)
        wd = simplex_weight_descent(space, exc1_from_icc(0.0))
        assert np.allclose(wd.weights, 0.5, atol=1e-8)

    def test_matches_unidirectional_formula(self):
        for t, r, rho in [(4, 5, 0.05), (6, 10, 0.01)]:
            space = standard_space(t, cells_per_period=r)
            wd = simplex_weight_descent(space, exc1_from_icc(rho),
                                        tolerance=1e-10)
            assert np.abs(wd.weights - unidirectional_weights(t, r, rho)).max() < 1e-6

    def test_descent_from_uniform_never_worse(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            t = int(rng.integers(2, 5))
            space = standard_space(t, cells_per_period=int(rng.integers(1, 8)))
            cov = CovarianceSpec("EXC2", tau2=rng.uniform(0.01, 0.3),
                                 omega2=rng.uniform(0.0, 0.1))
            wd = simplex_weight_descent(space, cov)
            blocks = unit_information_blocks(space, cov)
            uniform = np.full(space.n_units, 1.0 / space.n_units)
            f_uniform = contrast_variance(
                np.tensordot(uniform, blocks, axes=1),
                treatment_contrast(t + 1))
            assert wd.value <= f_uniform + 1e-12

    def test_untreated_space_is_infeasible(self):
        space = space_from_sequences([(0, 0), (0, 0)])
        with pytest.raises(InfeasibleError):
            simplex_weight_descent(space, exc1_from_icc(0.1))

    def test_meets_tolerance_below_criterion_rounding(self):
        # the Armijo decrease sinks below the rounding of the criterion at a
        # residual of about 2e-8, short of the tolerance
        space = standard_space(3, max_replication=10)
        cov = CovarianceSpec.from_icc("EXC1", 0.05)
        model = ModelSpec("binomial-logit", beta=(-2, -1.25, -0.5, 0.5))
        wd = simplex_weight_descent(space, cov, model=model, tolerance=1e-8)
        _, grad = DesignCriterion(space, cov, model).gradient(wd.weights)
        residual = np.abs(wd.weights - project_to_simplex(wd.weights - grad)).max()
        assert residual <= 1e-8

    def test_stall_raises_with_last_iterate(self):
        # no step can lower the residual to 1e-17 in double precision
        space = standard_space(3, max_replication=10)
        cov = CovarianceSpec.from_icc("EXC1", 0.05)
        model = ModelSpec("binomial-logit", beta=(-2, -1.25, -0.5, 0.5))
        with pytest.raises(ConvergenceError, match="stalled.*residual") as err:
            simplex_weight_descent(space, cov, model=model, tolerance=1e-17)
        assert err.value.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert err.value.iterations > 0

    def test_rejects_correlated_units(self):
        space = cell_space([(0, 1)])
        with pytest.raises(ValidationError):
            simplex_weight_descent(space, exc1_from_icc(0.1))


@pytest.mark.parametrize("solver", [mixed_model_weights, simplex_weight_descent])
@pytest.mark.parametrize("tolerance", [0.0, -1e-6, float("nan"), math.inf, "1e-6", True])
def test_tolerance_must_be_positive(solver, tolerance):
    # zero or NaN would stall the descent, and NaN would run the fixed
    # point to max_iter, before either reports a non-convergence; an
    # infinite tolerance would return after one or two evaluations
    space = standard_space(3, max_replication=10)
    with pytest.raises(ValidationError, match="tolerance"):
        solver(space, exc1_from_icc(0.1), tolerance=tolerance)


class TestFixedPointAgainstDescent:
    def test_sequence_fixed_point_agrees_with_descent(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = int(rng.integers(3, 6))
            r = int(rng.integers(1, 12))
            space = standard_space(t, cells_per_period=r)
            cov = CovarianceSpec("EXC2", tau2=rng.uniform(0.01, 0.4),
                                 omega2=rng.uniform(0.0, 0.2))
            wd_fp = mixed_model_weights(space, cov, tolerance=1e-11,
                                        max_iter=200000)
            wd_pg = simplex_weight_descent(space, cov, tolerance=1e-10)
            assert np.abs(wd_fp.weights - wd_pg.weights).max() < 1e-5
            assert wd_fp.value == pytest.approx(wd_pg.value, rel=1e-8)


def _one_model(space, cov, model=None):
    """The class of the one model ``(cov, model)``, in the linear form."""
    return RobustCriterion(space, ModelClass(
        (ModelEntry(cov, 1.0, model or ModelSpec()),)))


def _two_models(space, form):
    return RobustCriterion(space, ModelClass((
        ModelEntry(CovarianceSpec.from_icc("EXC2", 0.02, cac=0.7), 0.6),
        ModelEntry(CovarianceSpec.from_icc("AR1", 0.1, decay=0.6), 0.4,
                   ModelSpec("binomial-logit", beta=(-1, -1, -1, -1, 0.5)))),
        form=form))


def _bits(wd):
    return wd.iterations, wd.value.hex(), wd.weights.tobytes()


class TestCriterionGiven:
    """Both solvers take, in place of a covariance, any criterion on the
    space; a class of one model runs as the model's plain criterion."""

    @pytest.mark.parametrize("space,model,total_obs", [
        (standard_space(4, max_replication=3), None, None),
        (standard_space(4, max_replication=3),
         ModelSpec("binomial-logit", beta=(-1, -1, -1, -1, 0.5)), None),
        (standard_space(6, max_replication=10, granularity="cluster-period"), None, 60),
    ], ids=["sequence", "sequence-binomial-logit", "cluster-period"])
    def test_class_of_one_gives_plain_weights(self, space, model, total_obs):
        cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5)
        plain = mixed_model_weights(space, cov, model=model, total_obs=total_obs)
        for criterion in (DesignCriterion(space, cov, model),
                          _one_model(space, cov, model)):
            assert _bits(mixed_model_weights(space, criterion, total_obs=total_obs)) == (
                _bits(plain))

    def test_class_of_one_gives_plain_descent(self):
        space = standard_space(4, max_replication=3)
        cov = CovarianceSpec.from_icc("AR1", 0.1, decay=0.6)
        plain = simplex_weight_descent(space, cov)
        for criterion in (DesignCriterion(space, cov), _one_model(space, cov)):
            assert _bits(simplex_weight_descent(space, criterion)) == _bits(plain)

    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    def test_fixed_point_agrees_with_descent_on_a_class(self, form):
        space = standard_space(4, cells_per_period=5)
        criterion = _two_models(space, form)
        fixed_point = mixed_model_weights(space, criterion, tolerance=1e-11,
                                          max_iter=200000)
        descent = simplex_weight_descent(space, criterion, tolerance=1e-10)
        assert fixed_point.value == pytest.approx(descent.value, rel=1e-6)
        assert np.abs(fixed_point.weights - descent.weights).max() < 1e-5
        # each is the class's own optimum, not any one model's
        for entry in criterion.model_class.entries:
            alone = mixed_model_weights(space, entry.covariance, model=entry.model)
            assert np.abs(alone.weights - fixed_point.weights).max() > 1e-3

    @pytest.mark.parametrize("solver", [mixed_model_weights, simplex_weight_descent])
    def test_criterion_with_model_or_on_another_space_rejected(self, solver):
        space = standard_space(4, max_replication=3)
        cov = CovarianceSpec.from_icc("EXC1", 0.1)
        for criterion in (DesignCriterion(space, cov), _one_model(space, cov)):
            with pytest.raises(ValidationError, match="without a model"):
                solver(space, criterion, model=ModelSpec())
            with pytest.raises(ValidationError, match="on this space"):
                solver(standard_space(4, max_replication=4), criterion)
        with pytest.raises(ValidationError, match="CovarianceSpec"):
            solver(space, "EXC1")
