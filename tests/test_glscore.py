import math

import numpy as np
import pytest

from crtoptim import (Cell, CovarianceSpec, DesignCriterion, DesignSpace,
                      ExperimentalUnit, ModelClass, ModelEntry, ModelSpec,
                      RobustCriterion, ValidationError,
                      aggregate_cluster_periods, build_d,
                      build_sigma, build_x, build_z, c_optimality,
                      glm_weight_diagonal, information_matrix,
                      space_from_sequences, standard_space,
                      treatment_contrast, unit_information_blocks)
from crtoptim import apportion, glscore
from crtoptim.glscore import (CERTIFICATE_MARGIN, RANGE_TOL, RANK_TOL,
                              _contrast_kernel, _eigen_solve, contrast_variance)


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

    def test_matrix_with_a_nan_entry_is_infinite(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        assert math.isinf(c_optimality(m, np.array([0.0, 0.0, 1.0])))
        assert math.isinf(c_optimality(np.full((3, 3), np.nan),
                                       np.array([0.0, 0.0, 1.0])))

    @pytest.mark.parametrize("m, c", [
        (np.ones((2, 3)), np.array([0.0, 1.0])),
        (np.eye(2), np.array([np.nan, 1.0])),
        (np.eye(2).astype(complex), np.array([0.0, 1.0])),
        ([["a", "b"], ["c", "d"]], np.array([0.0, 1.0])),
    ])
    def test_contrast_variance_rejects_bad_input(self, m, c):
        with pytest.raises(ValidationError):
            contrast_variance(m, c)

    def test_indefinite_matrix_is_infinite(self):
        # e_P' M^-1 e_P = -0.5 is finite; only the failed Cholesky
        # factorisations show that M is not semi-definite
        m = np.diag([1.0, 100.0, -2.0])
        assert math.isinf(c_optimality(m, np.array([0.0, 0.0, 1.0])))


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


class TestUnitBlocks:
    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("family", ["gaussian-identity", "binomial-logit",
                                        "poisson-log"])
    def test_each_block_is_its_unit_alone(self, granularity, family):
        # the stacked cluster solve against the dense cluster-period model
        rng = np.random.default_rng(len(granularity) + len(family))
        for _ in range(10):
            space, cov, _ = random_instance(rng, granularity=granularity)
            model = ModelSpec()
            if family != "gaussian-identity":
                model = ModelSpec(family, beta=rng.uniform(-1.5, 0.5, space.n_periods + 1))
            blocks = unit_information_blocks(space, cov, model)
            assert blocks.shape == (space.n_units,) + (space.n_periods + 1,) * 2
            for j in range(space.n_units):
                alone = space.design_from_indices([j])
                dense = information_matrix(
                    *aggregate_cluster_periods(space, alone, cov, model))
                assert np.abs(blocks[j] - dense).max() <= 1e-12 * np.abs(dense).max()


class TestCriterionEvaluator:
    @pytest.mark.parametrize("args", [
        lambda space, cov: ("x", cov), lambda space, cov: (space, "x"),
        lambda space, cov: (space, cov, "x"), lambda space, cov: (cov, space),
        lambda space, cov: (space, cov, cov)],
        ids=["space", "covariance", "model", "swapped", "model-covariance"])
    def test_constructor_arguments_checked(self, args):
        space = standard_space(3, max_replication=2)
        with pytest.raises(ValidationError):
            DesignCriterion(*args(space, CovarianceSpec("EXC1", tau2=0.1)))

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

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    def test_rows_bit_identical_across_chunks(self, granularity):
        # batches around and across the chunk boundaries of the one loop
        space = standard_space(4, max_replication=2, cells_per_period=2,
                               granularity=granularity)
        crit = DesignCriterion(space, CovarianceSpec("EXC2", tau2=0.05, omega2=0.02))
        chunk = crit._chunk_rows
        rng = np.random.default_rng(34)
        for k in (0, chunk - 1, chunk, chunk + 1, int(2.5 * chunk)):
            batch = (_batch_with_infinite_rows(rng, space, k) if k
                     else np.zeros((0, space.n_units), dtype=int))
            values = crit.values(batch)
            assert values.shape == (k,) and values.dtype == np.float64
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

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    def test_integer_and_float_batches_agree(self, granularity):
        # an integer batch is cast to float before the block sum; the sums
        # and so the values keep every bit
        space = standard_space(4, max_replication=3, cells_per_period=5,
                               granularity=granularity)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.6))
        batch = _batch_with_infinite_rows(np.random.default_rng(33), space, 300)
        for dtype in (np.int32, np.uint8, np.float32):
            assert (crit.values(batch.astype(dtype)).tobytes()
                    == crit.values(batch.astype(float)).tobytes())
        assert (crit.information(batch[5]).tobytes()
                == crit.information(batch[5].astype(float)).tobytes())

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

    @pytest.mark.parametrize("dtype", [complex, str, object, bool])
    def test_non_numeric_batch_rejected(self, dtype):
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(ValidationError):
            crit.values(np.ones((1, space.n_units)).astype(dtype))

    def test_fractional_row_scores_weighted_design(self):
        # at sequence granularity M is linear in the counts
        space = standard_space(4, cells_per_period=3)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7))
        counts = np.arange(1, space.n_units + 1)
        assert crit.value(0.5 * counts) == pytest.approx(2 * crit.value(counts),
                                                         rel=1e-12)


def eigh_reference(m, c):
    """``c' M^+ c`` of one matrix by a rank-revealing eigendecomposition."""
    w, vecs = np.linalg.eigh(0.5 * (m + m.T))
    keep = w > RANK_TOL * max(w[-1], 0.0)
    coef = c @ vecs
    if (w[-1] <= 0.0 or w[0] < -RANK_TOL * w[-1]
            or np.sum(coef[~keep] ** 2) > RANGE_TOL ** 2 * (c @ c)):
        return math.inf
    return float(np.sum(coef[keep] ** 2 / w[keep]))


class TestContrastKernel:
    """The stacked Cholesky kernel against a rank-revealing eigen-solve."""

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("fractional", [False, True])
    def test_agrees_with_eigen_reference(self, granularity, fractional):
        rng = np.random.default_rng(41)
        space = standard_space(5, max_replication=3, cells_per_period=2,
                               granularity=granularity)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7))
        for k in (1, 7, 60):
            batch = (rng.uniform(0.0, 3.0, size=(k, space.n_units)) if fractional
                     else rng.integers(0, 3, size=(k, space.n_units)))
            for row, got in zip(batch, crit.values(batch)):
                ref = eigh_reference(crit.information(row), crit.contrast)
                if math.isinf(ref):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(ref, rel=1e-12)

    def test_rank_deficient_design_is_infinite_in_both(self):
        space = standard_space(3)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        only_unit_0 = np.array([1, 0, 0, 0])
        assert math.isinf(crit.value(only_unit_0))
        assert math.isinf(eigh_reference(crit.information(only_unit_0), crit.contrast))

    def test_singular_row_leaves_the_batch_alone(self):
        space = standard_space(4, max_replication=2, cells_per_period=2,
                               granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("AR1", 0.05, decay=0.6))
        batch = np.random.default_rng(42).integers(1, 3, size=(9, space.n_units))
        period = np.array([cell.period for unit in space.units for cell in unit.cells])
        batch[4, period == 2] = 0          # period 2 holds no observation
        singular = crit.information(batch[4])
        assert not singular[1].any()       # its fixed effect: an exact zero row
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.stack([crit.information(row) for row in batch]))
        values = crit.values(batch)
        # the period effect is lost, the treatment contrast is not
        assert values[4] == pytest.approx(eigh_reference(singular, crit.contrast),
                                          rel=1e-12)
        for row, got in zip(batch, values):
            assert float(got).hex() == crit.value(row).hex()
        rest = crit.values(np.delete(batch, 4, axis=0))
        assert [v.hex() for v in rest] == [float(v).hex() for v in np.delete(values, 4)]


def spectrum_matrix(rng, eigenvalues):
    """A symmetric matrix with the given eigenvalues whose first
    eigenvector is orthogonal to the treatment contrast ``e_P``."""
    p = len(eigenvalues)
    first = np.append(rng.normal(size=p - 1), 0.0)
    q = np.linalg.qr(np.column_stack([first, rng.normal(size=(p, p - 1))]))[0]
    return (q * eigenvalues) @ q.T


def bad_rows(crit):
    """Rows the kernel must score ``inf``: all NaN, one NaN pair, all
    ``+inf``, one infinite diagonal entry, and the singular information
    of a design with no treated cluster."""
    p = crit.contrast.size
    good = crit.information(np.ones(crit.space.n_units))
    partial = good.copy()
    partial[1, p - 1] = partial[p - 1, 1] = np.nan
    infinite_entry = good.copy()
    infinite_entry[0, 0] = np.inf
    untreated = [all(not cell.treated for cell in unit.cells) for unit in crit.space.units]
    return np.stack([np.full((p, p), np.nan), partial, np.full((p, p), np.inf),
                     infinite_entry, crit.information(np.array(untreated, dtype=float))])


class TestCertificate:
    """The shifted-Cholesky certificate of the kernel: a row factorised at
    ``M - delta I`` is solved by Cholesky, any other by an eigen-solve."""

    @pytest.mark.parametrize("factor", [1.001, 0.999])
    def test_rows_at_the_shift_take_the_named_path(self, factor):
        rng = np.random.default_rng(51)
        rest = np.array([1.0, 2.0, 3.0, 4.0])
        # lambda_min = factor * delta, delta = margin * RANK_TOL * tr M
        k = CERTIFICATE_MARGIN * RANK_TOL
        smallest = factor * k * rest.sum() / (1.0 - factor * k)
        m = spectrum_matrix(rng, np.append(smallest, rest))
        value, lower = _contrast_kernel(m[None])
        certified = bool(np.isfinite(lower).all())
        assert certified == (factor > 1.0)
        # the contrast is orthogonal to the small eigenvector, so the value
        # is well conditioned and both paths give it to rounding
        cholesky = 1.0 / np.linalg.cholesky(0.5 * (m + m.T))[-1, -1] ** 2
        eigen = _eigen_solve(0.5 * (m + m.T)[None])[0][0]
        assert value[0] == (cholesky if certified else eigen)
        assert abs(cholesky - eigen) <= 1e-14 * eigen

    @pytest.mark.parametrize("k", [1, 7, 223])
    def test_bad_rows_leave_the_stack_alone(self, k):
        # 222 rows is one chunk of values on this space
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7))
        batch = np.random.default_rng(52).integers(1, 4, size=(k, space.n_units))
        bad = bad_rows(crit)
        info = np.stack([crit.information(row) for row in batch])
        value = _contrast_kernel(np.insert(info, k // 2, bad, axis=0))[0]
        middle = np.arange(k // 2, k // 2 + len(bad))
        assert np.isinf(value[middle]).all() and (value[middle] > 0).all()
        alone = [crit.value(row).hex() for row in batch]
        assert [float(v).hex() for v in np.delete(value, middle)] == alone
        assert [float(v).hex() for v in crit.values(batch)] == alone

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    def test_values_invert_no_matrix(self, monkeypatch, granularity):
        space = standard_space(4, max_replication=2, cells_per_period=2,
                               granularity=granularity)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("AR1", 0.05, decay=0.6))
        batch = _batch_with_infinite_rows(np.random.default_rng(55), space, 20)
        expected = [float(v).hex() for v in crit.values(batch)]

        def inverse(*args, **kwargs):
            raise AssertionError("values inverted a matrix")

        monkeypatch.setattr(np.linalg, "inv", inverse)
        assert [float(v).hex() for v in crit.values(batch)] == expected

    def test_bad_rows_alone_are_infinite(self):
        crit = DesignCriterion(standard_space(4, cells_per_period=2),
                               CovarianceSpec.from_icc("AR1", 0.05, decay=0.6))
        for row in bad_rows(crit):
            assert _contrast_kernel(row[None])[0][0] == math.inf


def two_factorisation_reference(m):
    """``(value, lower)`` of the kernel computed row by row the long way:
    a row is certified when both ``M`` and ``M - delta I`` factorise."""
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    values, lowers = [], []
    for row in m:
        delta = CERTIFICATE_MARGIN * RANK_TOL * min(abs(np.trace(row)),
                                                   np.finfo(float).max)
        factors = []
        for a in (row, row - delta * np.eye(len(row))):
            try:
                factors.append(np.linalg.cholesky(a))
            except np.linalg.LinAlgError:
                factors.append(np.full(a.shape, np.nan))
        if all(0.0 < f[-1, -1] < math.inf for f in factors):
            values.append(1.0 / (factors[0][-1, -1] * factors[0][-1, -1]))
            lowers.append(factors[0])
        else:
            values.append(_eigen_solve(row[None])[0][0])
            lowers.append(np.full(row.shape, np.nan))
    return np.array(values), np.stack(lowers)


def cholesky_calls(monkeypatch):
    """Patch ``np.linalg.cholesky`` to record the size of every stack it
    factorises; returns the list it appends to."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(len(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


class TestDeterminantBound:
    """The kernel factorises ``M`` once and factorises ``M - delta I`` only
    on rows its determinant bound cannot vouch for, with the results of
    factorising both on every row."""

    RATIOS = (0.5, 0.999, 1.001, 2.0, 4.0, 1e3)   # lambda_min / delta

    @pytest.mark.parametrize("p", [2, 7, 12, 60])
    def test_equals_two_factorisations(self, p):
        rng = np.random.default_rng(56)
        k = CERTIFICATE_MARGIN * RANK_TOL
        rows = []
        # an even spectrum, where the bound is nearly tight, and a spread one
        for rest in (np.ones(p - 1), rng.uniform(1.0, 4.0, size=p - 1)):
            for ratio in self.RATIOS:
                smallest = ratio * k * rest.sum() / (1.0 - ratio * k)
                rows.append(spectrum_matrix(rng, np.append(smallest, rest)))
        rows.append(spectrum_matrix(rng, np.append(-1e-3, np.ones(p - 1))))
        m = np.stack(rows)
        value, lower = _contrast_kernel(m)
        ref_value, ref_lower = two_factorisation_reference(m)
        assert value.tobytes() == ref_value.tobytes()
        assert lower.tobytes() == ref_lower.tobytes()
        certified = np.isfinite(lower).all(axis=(-2, -1))
        assert certified.tolist() == 2 * [False, False, True, True, True, True] + [False]
        for row, v in zip(m, value):
            assert _contrast_kernel(row[None])[0][0].tobytes() == v.tobytes()

    @pytest.mark.parametrize("p", [2, 7, 12, 60])
    def test_shift_only_where_the_bound_cannot_vouch(self, monkeypatch, p):
        rng = np.random.default_rng(58)
        k = CERTIFICATE_MARGIN * RANK_TOL
        # on an even spectrum the bound is about lambda_min: it vouches at
        # 4 delta, not at 1.001 delta
        rows = [spectrum_matrix(rng, np.append(ratio * k * (p - 1) / (1.0 - ratio * k),
                                               np.ones(p - 1)))
                for ratio in (4.0, 1.001, 1e3, 1.001, 4.0)]
        calls = cholesky_calls(monkeypatch)
        lower = _contrast_kernel(np.stack(rows))[1]
        assert np.isfinite(lower).all()
        assert calls == [5, 2]

    def test_one_parameter_rows(self):
        m = np.array([1e-300, 0.3, 1.0, 1e300, 0.0, -1.0, np.nan, np.inf])[:, None, None]
        value, lower = _contrast_kernel(m)
        ref_value, ref_lower = two_factorisation_reference(m)
        assert value.tobytes() == ref_value.tobytes()
        assert lower.tobytes() == ref_lower.tobytes()
        assert np.isfinite(value[:4]).all() and np.isinf(value[4:]).all()

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    def test_well_conditioned_chunks_factorise_once(self, monkeypatch, granularity):
        # the README space, and at cluster-period granularity a smaller one
        space = (standard_space(6, max_replication=5, cells_per_period=10)
                 if granularity == "sequence" else
                 standard_space(4, max_replication=4, granularity=granularity))
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8))
        rows = int(2.5 * crit._chunk_rows)
        batch = np.random.default_rng(57).integers(1, 4, size=(rows, space.n_units))
        expected = crit.values(batch)
        calls = cholesky_calls(monkeypatch)
        assert crit.values(batch).tobytes() == expected.tobytes()
        assert calls == [crit._chunk_rows, crit._chunk_rows, rows - 2 * crit._chunk_rows]


class TestContrastVariance:
    """Any contrast is rotated onto ``e_P`` before the kernel."""

    @staticmethod
    def random_information(rng, p):
        a = rng.normal(size=(p, p))
        return a @ a.T + 0.1 * np.eye(p)

    def test_random_contrasts(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            p = int(rng.integers(2, 9))
            m, c = self.random_information(rng, p), rng.normal(size=p)
            assert contrast_variance(m, c) == pytest.approx(
                c @ np.linalg.solve(m, c), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_unit_and_scaled_contrasts(self, p):
        rng = np.random.default_rng(54)
        m = self.random_information(rng, p)
        contrasts = list(np.eye(p)) + [-2.5 * np.eye(p)[-1], 3 * np.eye(p)[0]]
        for c in contrasts:
            assert contrast_variance(m, c) == pytest.approx(
                c @ np.linalg.solve(m, c), rel=1e-12)

    def test_scaled_unit_contrasts_are_exact(self):
        # a = 7 put the reflection one ulp off a permutation
        rng = np.random.default_rng(59)
        for _ in range(60):
            m = self.random_information(rng, 5)
            for k in range(5):
                unit = contrast_variance(m, np.eye(5)[k])
                for a in (7.0, -7.0, 0.1, 3, -2.5e-3):
                    c = np.zeros(5)
                    c[k] = a
                    assert contrast_variance(m, c) == unit * abs(a) * abs(a)

    def test_general_contrasts_take_the_reflection(self):
        rng = np.random.default_rng(60)
        for _ in range(60):
            p = int(rng.integers(3, 9))
            m, c = self.random_information(rng, p), rng.normal(size=p)
            c[rng.integers(p)] = 0.0           # two or more entries stay
            v = c.copy()
            scale = float(np.linalg.norm(v))
            v[-1] += math.copysign(scale, v[-1])
            h = np.eye(p) - (2.0 / (v @ v)) * np.outer(v, v)
            reflected = float(_contrast_kernel((h @ m @ h)[None])[0][0]) * scale * scale
            assert contrast_variance(m, c) == reflected

    @pytest.mark.parametrize("n_params", [0, -1, 2.0, True])
    def test_treatment_contrast_needs_a_positive_integer(self, n_params):
        with pytest.raises(ValidationError):
            treatment_contrast(n_params)

    def test_treatment_contrast_is_the_kernel(self):
        space = standard_space(4, cells_per_period=2)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7))
        counts = np.arange(1, space.n_units + 1)
        assert (contrast_variance(crit.information(counts), crit.contrast)
                == crit.value(counts))

    def test_contrast_outside_the_range_is_infinite(self):
        m = np.diag([2.0, 3.0, 0.0])
        assert math.isinf(contrast_variance(m, np.array([0.0, 1.0, 1.0])))
        assert contrast_variance(m, np.array([1.0, 1.0, 0.0])) == pytest.approx(
            1 / 2 + 1 / 3, rel=1e-12)

    def test_zero_contrast_rejected(self):
        with pytest.raises(ValidationError):
            contrast_variance(np.eye(3), np.zeros(3))


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

    def test_certified_and_uncertified_rows(self, monkeypatch):
        # period 2 holds no observation in the second design: its fixed
        # effect is unidentified and the kernel takes the eigen path
        space = standard_space(4, max_replication=3, granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("AR1", 0.1, decay=0.7))
        counts = np.random.default_rng(5).uniform(0.5, 2.0, space.n_units)
        period = np.array([unit.cells[0].period for unit in space.units])
        empty = np.where(period == 2, 0.0, counts)
        eigen_rows = []

        def counted(m):
            eigen_rows.append(len(m))
            return _eigen_solve(m)

        monkeypatch.setattr(glscore, "_eigen_solve", counted)
        for row, certified in ((counts, True), (empty, False)):
            lower = _contrast_kernel(crit.information(row)[None])[1]
            assert bool(np.isfinite(lower).all()) == certified
            eigen_rows.clear()
            value, grad = crit.gradient(row)
            # the kernel's row, then the gradient's direction
            assert eigen_rows == ([] if certified else [1, 1])
            assert value.hex() == crit.value(row).hex()
            h = 1e-5
            for j in np.flatnonzero(row):
                step = np.zeros(space.n_units)
                step[j] = h
                fd = (crit.value(row + step) - crit.value(row - step)) / (2 * h)
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

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    def test_stacked_rows_match_each_part(self, granularity):
        # one row per criterion: certified rows, a row that leaves the last
        # period without observations (its fixed effect is unidentified, so
        # the kernel does not certify the row) and an all-zero row (infinite
        # value, NaN gradient)
        if granularity == "sequence":
            # only the third unit reaches period 3
            space = DesignSpace(3, (
                ExperimentalUnit(0, (Cell(1, 0), Cell(2, 1))),
                ExperimentalUnit(1, (Cell(1, 0), Cell(2, 0))),
                ExperimentalUnit(2, (Cell(1, 0), Cell(2, 0), Cell(3, 1)))),
                max_replication=3)
        else:
            space = standard_space(3, max_replication=3, granularity=granularity)
        last = np.array([unit.cells[-1].period == 3 for unit in space.units])
        logit = ModelSpec("binomial-logit", beta=(-1.5, -1.0, -0.5, 0.8))
        parts = [DesignCriterion(space, cov, model) for cov, model in (
            (CovarianceSpec.from_icc("EXC2", 0.1, cac=0.6), None),
            (CovarianceSpec.from_icc("AR1", 0.1, decay=0.7), logit),
            (CovarianceSpec.from_icc("AR1", 0.1, decay=0.7), None),
            (CovarianceSpec.from_icc("EXC1", 0.05), logit),
            (CovarianceSpec.from_icc("EXC2", 0.1, cac=0.6), None))]
        batch = np.random.default_rng(6).uniform(0.5, 2.0, (len(parts), space.n_units))
        batch[2, last] = 0.0
        batch[-1] = 0.0
        assert np.isnan(_contrast_kernel(parts[2].information(batch[2])[None])[1]).all()
        values, grads = glscore._gradients(parts, batch)
        for part, row, value, grad in zip(parts, batch, values, grads):
            want_value, want_grad = part.gradient(row)
            assert value.hex() == want_value.hex()
            assert np.array_equal(grad, want_grad, equal_nan=True)
        assert np.isfinite(values[:-1]).all() and np.isfinite(grads[:-1]).all()
        assert math.isinf(values[-1]) and np.isnan(grads[-1]).all()


class TestStackedScreen:
    """One rank-one screen over a stack of designs, each row under its own
    criterion, gives every row the screen of that row alone, bit for bit."""

    @staticmethod
    def assert_rows_match(parts, batch, units, step):
        stacked = glscore._single_moves(parts, batch, units, step)
        assert len(stacked) == len(parts)
        for part, row, own, got in zip(parts, batch, units, stacked):
            want = part.single_moves(row, own, step)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes()
        return stacked

    @pytest.mark.parametrize("step", [1, -1])
    def test_rows_match_each_part(self, step):
        space = standard_space(4, max_replication=4, cells_per_period=3,
                               granularity="cluster-period")
        logit = ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5))
        parts = [DesignCriterion(space, cov, model) for cov, model in (
            (CovarianceSpec.from_icc("EXC2", 0.1, cac=0.6), None),
            (CovarianceSpec.from_icc("AR1", 0.2, decay=0.6), logit),
            (CovarianceSpec.from_icc("EXC1", 0.1), None),
            (CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7), logit),
            (CovarianceSpec.from_icc("EXC2", 0.1, cac=0.6), None))]
        rng = np.random.default_rng(21)
        batch = rng.integers(1, 5, (len(parts), space.n_units))
        # row 2 holds no observation in period 4: the kernel does not
        # certify its information matrix, so the screen does not apply
        period = np.array([unit.cells[0].period for unit in space.units])
        batch[2, period == 4] = 0
        # in row 3 unit 5 holds the only treated observations, so its
        # removal is never vouched for
        batch[3] = 0
        batch[3, :4] = 2
        batch[3, 4:6] = 1
        movable = batch > 0 if step == -1 else batch < space.max_replication
        # each row screens its own units, a random share of its movable ones
        units = [np.flatnonzero(row & (rng.random(space.n_units) < 0.7)) for row in movable]
        units[3] = np.flatnonzero(movable[3])
        stacked = self.assert_rows_match(parts, batch, units, step)
        assert stacked[2] is None
        assert all(stacked[l] is not None for l in (0, 1, 3, 4))
        assert len({len(own) for own in units}) > 1
        if step == -1:
            assert np.isnan(stacked[3][units[3] == 5]).all()
            assert np.isfinite(stacked[3][units[3] != 5]).all()

    def test_multi_cell_unit_row(self):
        # unit 0 has two cells: a row screening it gets None, the others not
        two = DesignSpace(2, (ExperimentalUnit(0, (Cell(1, 0), Cell(2, 1))),
                              ExperimentalUnit(1, (Cell(1, 0),)),
                              ExperimentalUnit(1, (Cell(2, 0),)),
                              ExperimentalUnit(2, (Cell(2, 1),))),
                          max_replication=3, granularity="cluster-period")
        parts = [DesignCriterion(two, CovarianceSpec.from_icc("EXC2", icc, cac=0.7))
                 for icc in (0.05, 0.1, 0.2)]
        batch = np.ones((3, two.n_units), dtype=int)
        units = [np.array([1, 2, 3]), np.array([0, 1]), np.array([3])]
        stacked = self.assert_rows_match(parts, batch, units, 1)
        assert [s is None for s in stacked] == [False, True, False]

    def test_sequence_rows_are_none(self):
        space = standard_space(3, max_replication=2)
        parts = [DesignCriterion(space, CovarianceSpec.from_icc("EXC1", icc))
                 for icc in (0.05, 0.1)]
        units = [np.arange(space.n_units)] * 2
        assert glscore._single_moves(parts, np.ones((2, space.n_units)), units,
                                     1) == [None, None]


def mixed_stack(space):
    """Plain criteria and robust classes of both forms (one of them a class
    of one) on one space, in one stack."""
    exc2 = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.6)
    ar1 = CovarianceSpec.from_icc("AR1", 0.1, decay=0.7)
    exc1 = CovarianceSpec.from_icc("EXC1", 0.1)
    logit = ModelSpec("binomial-logit",
                      beta=tuple(np.linspace(-2.0, -0.5, space.n_periods)) + (0.5,))
    return [DesignCriterion(space, exc2),
            RobustCriterion(space, ModelClass((ModelEntry(exc2, 0.6),
                                               ModelEntry(ar1, 0.4, logit)))),
            DesignCriterion(space, ar1, logit),
            RobustCriterion(space, ModelClass.equal_priors([exc1, ar1, exc2], "log-average")),
            RobustCriterion(space, ModelClass.equal_priors([exc1])),
            DesignCriterion(space, exc1)]


class TestMixedStack:
    """A lockstep stack that mixes plain and robust rows gives each row, bit
    for bit, what its lone call gives."""

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    def test_gradients(self, granularity):
        space = standard_space(4, max_replication=3, granularity=granularity)
        criteria = mixed_stack(space)
        batch = np.random.default_rng(2).uniform(0.5, 2.0, (len(criteria), space.n_units))
        values, grads = glscore._gradients(criteria, batch)
        clusters = glscore._stacked_clusters(criteria)
        again = glscore._gradients(criteria, batch, clusters)
        assert values.tobytes() == again[0].tobytes() and grads.tobytes() == again[1].tobytes()
        for crit, row, value, grad in zip(criteria, batch, values, grads):
            want_value, want_grad = crit.gradient(row)
            assert value.hex() == want_value.hex()
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("step", [1, -1])
    def test_single_moves(self, step):
        space = standard_space(4, max_replication=4, granularity="cluster-period")
        criteria = mixed_stack(space)
        rng = np.random.default_rng(5)
        batch = rng.integers(1, 4, (len(criteria), space.n_units))
        units = [np.flatnonzero(rng.random(space.n_units) < 0.6) for _ in criteria]
        stacked = glscore._single_moves(criteria, batch, units, step)
        assert all(got is not None for got in stacked)
        for crit, row, own, got in zip(criteria, batch, units, stacked):
            assert got.tobytes() == crit.single_moves(row, own, step).tobytes()

    def test_lockstep_rounding(self):
        space = standard_space(4, max_replication=4, granularity="cluster-period")
        criteria = mixed_stack(space)
        weights = np.random.default_rng(9).dirichlet(np.ones(space.n_units), len(criteria))
        stacked = apportion._lockstep_rounding(space, criteria, weights, 30)
        for crit, w, got in zip(criteria, weights, stacked):
            want, = apportion._lockstep_rounding(space, [crit], [w], 30)
            assert got == want and got.value.hex() == want.value.hex()
