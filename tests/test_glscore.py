import math

import numpy as np
import pytest

from crtoptim import (CovarianceSpec, DesignCriterion, ModelClass, ModelSpec,
                      RobustCriterion, ValidationError,
                      aggregate_cluster_periods, build_d,
                      build_sigma, build_x, build_z, c_optimality,
                      glm_weight_diagonal, information_matrix,
                      space_from_sequences, standard_space,
                      treatment_contrast)


def manual_space(sequences, count=1, max_replication=1, granularity="sequence"):
    return space_from_sequences(sequences, cells_per_period=count,
                                max_replication=max_replication,
                                granularity=granularity)


def random_instance(rng, kind=None, granularity="sequence"):
    t = int(rng.integers(2, 6))
    n_seq = int(rng.integers(2, 6))
    seqs = [tuple(rng.integers(0, 2, size=t)) for _ in range(n_seq)]
    count = int(rng.integers(1, 4))
    space = manual_space(seqs, count=count, max_replication=3,
                         granularity=granularity)
    kind = kind or rng.choice(["EXC1", "EXC2", "AR1"])
    if kind == "EXC2":
        cov = CovarianceSpec("EXC2", tau2=rng.uniform(0.01, 0.4),
                             omega2=rng.uniform(0.0, 0.2),
                             sigma2=rng.uniform(0.5, 2.0))
    elif kind == "AR1":
        cov = CovarianceSpec("AR1", tau2=rng.uniform(0.01, 0.4),
                             decay=rng.uniform(0.3, 1.0),
                             sigma2=rng.uniform(0.5, 2.0))
    else:
        cov = CovarianceSpec("EXC1", tau2=rng.uniform(0.01, 0.4),
                             sigma2=rng.uniform(0.5, 2.0))
    counts = rng.integers(0, 4, size=space.n_units)
    while counts.sum() == 0:
        counts = rng.integers(0, 4, size=space.n_units)
    return space, cov, space.design_from_counts(counts)


class TestBuildSigma:
    def test_single_cluster_exchangeable(self):
        space = manual_space([(0,)], count=2)
        cov = CovarianceSpec("EXC1", tau2=0.1, sigma2=1.0)
        sigma = build_sigma(space, space.design_from_counts([1]), cov)
        assert np.allclose(sigma, [[1.1, 0.1], [0.1, 1.1]])

    def test_cross_cluster_entries_vanish(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            space, cov, design = random_instance(rng)
            sigma = build_sigma(space, design, cov)
            from crtoptim import expand_design
            lay = expand_design(space, design)
            across = lay.cluster[:, None] != lay.cluster[None, :]
            assert np.all(sigma[across] == 0.0)

    def test_exc2_off_diagonal_same_cluster(self):
        space = manual_space([(0, 1)])
        cov = CovarianceSpec("EXC2", tau2=0.16, omega2=0.04, sigma2=1.0)
        sigma = build_sigma(space, space.design_from_counts([1]), cov)
        assert sigma[0, 1] == pytest.approx(0.16)
        assert sigma[0, 0] == pytest.approx(1.20)


class TestGlmWeightDiagonal:
    def test_gaussian_identity(self):
        space = manual_space([(0, 1)])
        design = space.design_from_counts([1])
        cov = CovarianceSpec("EXC1", tau2=0.1, sigma2=1.0)
        x = build_x(space, design)
        z = build_z(space, design, cov)
        d = build_d(space, design, cov)
        w = glm_weight_diagonal(ModelSpec(), x, z, d, sigma2=1.0)
        assert np.allclose(w, 1.0)

    def test_logit_weight_at_half(self):
        space = manual_space([(0, 1)])
        design = space.design_from_counts([1])
        cov = CovarianceSpec("EXC1", tau2=0.1)
        x = build_x(space, design)
        z = build_z(space, design, cov)
        d = build_d(space, design, cov)
        model = ModelSpec(family="binomial-logit", beta=(0.0, 0.0, 0.0))
        w = glm_weight_diagonal(model, x, z, d)
        assert np.allclose(w, 0.25)

    def test_poisson_weight_is_mean(self):
        space = manual_space([(0,)])
        design = space.design_from_counts([1])
        cov = CovarianceSpec("EXC1", tau2=0.1)
        x = build_x(space, design)
        z = build_z(space, design, cov)
        d = build_d(space, design, cov)
        model = ModelSpec(family="poisson-log", beta=(math.log(2.0), 0.0))
        w = glm_weight_diagonal(model, x, z, d)
        assert np.allclose(w, 2.0)

    def test_attenuation_uses_random_effect_variance(self):
        from crtoptim.covariance import ATTENUATION_CONSTANT
        space = manual_space([(0, 1)])
        design = space.design_from_counts([1])
        cov = CovarianceSpec("EXC2", tau2=0.16, omega2=0.04)
        x = build_x(space, design)
        z = build_z(space, design, cov)
        d = build_d(space, design, cov)
        beta = (1.0, 1.5, -0.7)
        plain = glm_weight_diagonal(
            ModelSpec(family="binomial-logit", beta=beta), x, z, d)
        shrunk = glm_weight_diagonal(
            ModelSpec(family="binomial-logit", beta=beta, attenuate=True),
            x, z, d)
        factor = 1.0 / math.sqrt(1.0 + ATTENUATION_CONSTANT * 0.20)
        eta = x @ np.asarray(beta)
        mu = 1.0 / (1.0 + np.exp(-eta * factor))
        assert np.allclose(shrunk, mu * (1 - mu))
        assert not np.allclose(shrunk, plain)


class TestInformationMatrix:
    def test_ones_column_identity_sigma(self):
        x = np.ones((7, 1))
        assert information_matrix(x, np.eye(7))[0, 0] == pytest.approx(7.0)

    def test_block_additivity(self):
        rng = np.random.default_rng(2)
        x1, x2 = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        s1 = np.eye(4) + 0.3
        s2 = np.eye(5) * 2.0
        whole = information_matrix(
            np.vstack([x1, x2]),
            np.block([[s1, np.zeros((4, 5))], [np.zeros((5, 4)), s2]]))
        parts = information_matrix(x1, s1) + information_matrix(x2, s2)
        assert np.allclose(whole, parts)

    def test_two_sample_variance(self):
        space = manual_space([(0,), (1,)], count=10)
        design = space.design_from_counts([1, 1])
        cov = CovarianceSpec("EXC1", tau2=0.0, sigma2=1.0)
        m = information_matrix(build_x(space, design),
                               build_sigma(space, design, cov))
        assert c_optimality(m, treatment_contrast(2)) == pytest.approx(0.2)


class TestCOptimality:
    def test_untreated_design_is_infinite(self):
        space = standard_space(3)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        assert math.isinf(crit.value(np.array([1, 0, 0, 0])))

    def test_scaling_sigma_scales_criterion(self):
        rng = np.random.default_rng(9)
        space, cov, design = random_instance(rng, kind="EXC1")
        x = build_x(space, design)
        sigma = build_sigma(space, design, cov)
        c = treatment_contrast(x.shape[1])
        v1 = c_optimality(information_matrix(x, sigma), c)
        v2 = c_optimality(information_matrix(x, 3.0 * sigma), c)
        if math.isfinite(v1):
            assert v2 == pytest.approx(3.0 * v1)

    def test_contrast_length_checked(self):
        with pytest.raises(ValidationError):
            c_optimality(np.eye(3), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("m", [np.ones((3, 2)), np.ones(3), np.ones((1, 3, 3))])
    def test_non_square_matrix_rejected(self, m):
        with pytest.raises(ValidationError):
            c_optimality(m, np.array([0.0, 0.0, 1.0]))

    def test_nan_matrix_is_infinite(self):
        assert math.isinf(c_optimality(np.full((2, 2), np.nan), np.array([0.0, 1.0])))


class TestAggregation:
    def test_residual_variance_example(self):
        # omega2 + sigma2 / count for a 10-observation EXC2 cell
        space = manual_space([(0,)], count=10)
        cov = CovarianceSpec("EXC2", tau2=0.0, omega2=0.04, sigma2=1.0)
        _, sigbar = aggregate_cluster_periods(space, space.design_from_counts([1]), cov)
        assert sigbar[0, 0] == pytest.approx(0.14)

    def test_single_observation_cells_change_nothing(self):
        rng = np.random.default_rng(4)
        space, cov, design = random_instance(rng)
        xbar, sigbar = aggregate_cluster_periods(space, design, cov)
        x = build_x(space, design)
        sigma = build_sigma(space, design, cov)
        c = treatment_contrast(x.shape[1])
        v_ind = c_optimality(information_matrix(x, sigma), c)
        v_agg = c_optimality(information_matrix(xbar, sigbar), c)
        if math.isfinite(v_ind):
            assert v_agg == pytest.approx(v_ind, rel=1e-10)

    @pytest.mark.parametrize("kind", ["EXC1", "EXC2", "AR1"])
    def test_aggregated_criterion_matches_individual(self, kind):
        rng = np.random.default_rng(hash(kind) % 2 ** 31)
        checked = 0
        while checked < 50:
            space, cov, design = random_instance(rng, kind=kind)
            x = build_x(space, design)
            sigma = build_sigma(space, design, cov)
            c = treatment_contrast(x.shape[1])
            v_ind = c_optimality(information_matrix(x, sigma), c)
            if not math.isfinite(v_ind):
                continue
            xbar, sigbar = aggregate_cluster_periods(space, design, cov)
            v_agg = c_optimality(information_matrix(xbar, sigbar), c)
            assert abs(v_agg - v_ind) / v_ind <= 1e-10
            checked += 1

    def test_aggregation_exact_for_logit_model(self):
        rng = np.random.default_rng(88)
        model = ModelSpec(family="binomial-logit",
                          beta=(-1.0, -0.5, 0.2, -0.7))
        checked = 0
        while checked < 10:
            space, cov, design = random_instance(rng, kind="EXC2")
            if space.n_periods != 3:
                continue
            x = build_x(space, design)
            from crtoptim import build_z as bz, build_d as bd
            z = bz(space, design, cov)
            d = bd(space, design, cov)
            w = glm_weight_diagonal(model, x, z, d, sigma2=cov.sigma2)
            sigma = z @ d @ z.T + np.diag(1.0 / w)
            c = treatment_contrast(x.shape[1])
            v_ind = c_optimality(information_matrix(x, sigma), c)
            if not math.isfinite(v_ind):
                continue
            xbar, sigbar = aggregate_cluster_periods(space, design, cov, model)
            v_agg = c_optimality(information_matrix(xbar, sigbar), c)
            assert abs(v_agg - v_ind) / v_ind <= 1e-10
            checked += 1

    def test_empty_design_rejected(self):
        space = standard_space(2)
        design = space.design_from_counts([1, 0, 0])
        object.__setattr__(design, "counts", (0, 0, 0))
        with pytest.raises(ValidationError):
            aggregate_cluster_periods(space, design,
                                      CovarianceSpec("EXC1", tau2=0.1))


class TestCriterionEvaluator:
    def test_matches_explicit_matrices_sequence(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            space, cov, design = random_instance(rng)
            crit = DesignCriterion(space, cov)
            x = build_x(space, design)
            sigma = build_sigma(space, design, cov)
            v_ref = c_optimality(information_matrix(x, sigma),
                                 treatment_contrast(x.shape[1]))
            v_fast = crit.value_of(design)
            if math.isinf(v_ref):
                assert math.isinf(v_fast)
            else:
                assert v_fast == pytest.approx(v_ref, rel=1e-9)

    def test_matches_explicit_matrices_observation_granularity(self):
        rng = np.random.default_rng(22)
        seqs = [(0, 1, 1), (0, 0, 1), (0, 0, 0)]
        space = space_from_sequences(seqs, granularity="observation",
                                     max_replication=4)
        cov = CovarianceSpec("EXC2", tau2=0.2, omega2=0.05)
        crit = DesignCriterion(space, cov)
        for _ in range(20):
            counts = rng.integers(0, 5, size=space.n_units)
            if counts.sum() == 0:
                continue
            design = space.design_from_counts(counts)
            x = build_x(space, design)
            sigma = build_sigma(space, design, cov)
            v_ref = c_optimality(information_matrix(x, sigma),
                                 treatment_contrast(x.shape[1]))
            v_fast = crit.value_of(design)
            if math.isinf(v_ref):
                assert math.isinf(v_fast)
            else:
                assert v_fast == pytest.approx(v_ref, rel=1e-9)

    def test_full_decay_ar1_equals_exchangeable(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            space, _, design = random_instance(rng, kind="EXC1")
            tau2 = rng.uniform(0.05, 0.4)
            exc1 = DesignCriterion(space, CovarianceSpec("EXC1", tau2=tau2))
            ar1 = DesignCriterion(space, CovarianceSpec("AR1", tau2=tau2,
                                                        decay=1.0))
            counts = np.asarray(design.counts)
            v1, v2 = exc1.value(counts), ar1.value(counts)
            if math.isinf(v1):
                assert math.isinf(v2)
            else:
                assert v2 == pytest.approx(v1, rel=1e-10)

    def test_monotone_under_unit_addition(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            space, cov, design = random_instance(rng)
            crit = DesignCriterion(space, cov)
            counts = np.asarray(design.counts)
            before = crit.value(counts)
            addable = np.flatnonzero(counts < space.max_replication)
            if addable.size == 0:
                continue
            j = int(rng.choice(addable))
            counts[j] += 1
            after = crit.value(counts)
            if math.isfinite(before):
                assert after <= before + 1e-10


def _batch_with_infinite_rows(rng, space, k):
    """Random count rows, with the empty design and an all-control design
    (both leave the treatment unidentified) among them."""
    batch = rng.integers(0, 3, size=(k, space.n_units))
    batch[0] = 0
    batch[1] = 0
    batch[1, 0] = 1
    return batch


class TestBatchedValues:
    @pytest.mark.parametrize("granularity",
                             ["sequence", "cluster-period", "observation"])
    @pytest.mark.parametrize("kind", ["EXC1", "EXC2", "AR1"])
    def test_rows_bit_identical_to_value(self, granularity, kind):
        rng = np.random.default_rng(31)
        space = standard_space(4, max_replication=2, cells_per_period=2,
                               granularity=granularity)
        cov = {"EXC1": CovarianceSpec("EXC1", tau2=0.05),
               "EXC2": CovarianceSpec("EXC2", tau2=0.05, omega2=0.02),
               "AR1": CovarianceSpec("AR1", tau2=0.05, decay=0.6)}[kind]
        crit = DesignCriterion(space, cov)
        for k in (2, 9, 40):
            batch = _batch_with_infinite_rows(rng, space, k)
            values = crit.values(batch)
            assert values.shape == (k,)
            assert math.isinf(values[0]) and math.isinf(values[1])
            for row, got in zip(batch, values):
                assert float(got).hex() == crit.value(row).hex()

    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    def test_robust_rows_bit_identical_to_value(self, form):
        rng = np.random.default_rng(32)
        space = standard_space(4, max_replication=2, cells_per_period=3)
        specs = [CovarianceSpec.from_icc("EXC2", icc, cac=0.6) for icc in (0.02, 0.1)]
        specs.append(CovarianceSpec.from_icc("AR1", 0.05, decay=0.5))
        crit = RobustCriterion(space, ModelClass.equal_priors(specs, form=form))
        batch = _batch_with_infinite_rows(rng, space, 30)
        values = crit.values(batch)
        assert math.isinf(values[0]) and math.isinf(values[1])
        for row, got in zip(batch, values):
            assert float(got).hex() == crit.value(row).hex()

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 3)),
                                     np.ones((2, 5, 1)), np.ones(())])
    def test_batch_shape_checked(self, bad):
        space = standard_space(3)          # 4 units
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(ValidationError):
            crit.values(bad)

    def test_wrong_length_counts_rejected(self):
        space = standard_space(3)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(ValidationError):
            crit.value([1, 1, 1])
        with pytest.raises(ValidationError):
            crit.information([1, 1, 1, 1, 1])

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_multiplicity_rejected(self, granularity, bad):
        # unchecked, a negative count would subtract its block at sequence
        # granularity but act as zero at cluster-period granularity
        space = standard_space(3, max_replication=2, granularity=granularity)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        counts = np.ones(space.n_units)
        counts[1] = bad
        for call in (crit.value, crit.information, crit.gradient,
                     lambda row: crit.values(np.stack([np.ones_like(row), row]))):
            with pytest.raises(ValidationError):
                call(counts)

    def test_fractional_row_scores_weighted_design(self):
        # at sequence granularity M is linear in the counts
        space = standard_space(4, cells_per_period=3)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7))
        counts = np.arange(1, space.n_units + 1)
        assert crit.value(0.5 * counts) == pytest.approx(2 * crit.value(counts),
                                                         rel=1e-12)


class TestGradient:
    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("kind", ["EXC2", "AR1"])
    @pytest.mark.parametrize("family", ["gaussian-identity", "binomial-logit"])
    def test_matches_central_differences(self, granularity, kind, family):
        # two observations per cell, so the cluster form needs its n_per
        space = standard_space(4, max_replication=3, cells_per_period=2,
                               granularity=granularity)
        cov = (CovarianceSpec.from_icc("EXC2", 0.1, cac=0.6) if kind == "EXC2"
               else CovarianceSpec.from_icc("AR1", 0.1, decay=0.7))
        model = (ModelSpec(family, beta=(-1.5, -1.0, -0.5, 0.0, 0.8))
                 if family == "binomial-logit" else ModelSpec())
        crit = DesignCriterion(space, cov, model)
        counts = np.random.default_rng(4).uniform(0.5, 2.0, space.n_units)
        value, grad = crit.gradient(counts)
        assert value == crit.value(counts)
        h = 1e-5
        for j in range(space.n_units):
            step = np.zeros(space.n_units)
            step[j] = h
            fd = (crit.value(counts + step) - crit.value(counts - step)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9 * value)

    def test_finite_at_empty_cells(self):
        space = standard_space(3, max_replication=3, granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.1, cac=0.5))
        counts = np.ones(space.n_units)
        counts[[0, 5]] = 0.0
        value, grad = crit.gradient(counts)
        assert np.all(np.isfinite(grad))
        h = 1e-7
        for j in (0, 5):
            step = np.zeros(space.n_units)
            step[j] = h
            assert grad[j] == pytest.approx((crit.value(counts + step) - value) / h,
                                            rel=1e-5)

    def test_nan_where_value_is_infinite(self):
        space = standard_space(3)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        value, grad = crit.gradient([1, 0, 0, 0])   # all control
        assert math.isinf(value)
        assert np.all(np.isnan(grad))
