import math

import numpy as np
import pytest

from crtoptim import CovarianceSpec, ModelSpec, NumericDomainError, ValidationError
from crtoptim.covariance import ATTENUATION_CONSTANT, iterated_weights


class TestEntries:
    def test_exc2_same_cell(self):
        cov = CovarianceSpec("EXC2", tau2=0.16, omega2=0.04)
        assert cov.entry(0, 0) == pytest.approx(0.20)

    def test_exc2_same_cluster_other_period(self):
        cov = CovarianceSpec("EXC2", tau2=0.16, omega2=0.04)
        assert cov.entry(3, 0) == pytest.approx(0.16)

    @pytest.mark.parametrize("cov", [
        CovarianceSpec("EXC1", tau2=0.3),
        CovarianceSpec("EXC2", tau2=0.3, omega2=0.1),
        CovarianceSpec("AR1", tau2=0.3, decay=0.5),
    ])
    def test_between_clusters_is_zero(self, cov):
        assert cov.entry(0, 1) == 0.0
        assert cov.entry(2, 4) == 0.0

    def test_ar1_decay(self):
        cov = CovarianceSpec("AR1", tau2=0.2, decay=0.8)
        assert cov.entry(2, 0) == pytest.approx(0.128)

    def test_exc1_flat_within_cluster(self):
        cov = CovarianceSpec("EXC1", tau2=0.25)
        assert cov.entry(0, 0) == cov.entry(5, 0) == 0.25


class TestReparameterisation:
    def test_icc_cac_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            icc = rng.uniform(0.0, 0.95)
            cac = rng.uniform(0.0, 1.0)
            sigma2 = rng.uniform(0.2, 3.0)
            cov = CovarianceSpec.from_icc("EXC2", icc, cac=cac, sigma2=sigma2)
            assert abs(cov.icc - icc) <= 1e-12
            if icc > 0:
                assert abs(cov.cac - cac) <= 1e-12

    def test_icc_round_trip_exc1_ar1(self):
        rng = np.random.default_rng(1)
        for kind in ("EXC1", "AR1"):
            for _ in range(25):
                icc = rng.uniform(0.0, 0.95)
                cov = CovarianceSpec.from_icc(kind, icc, decay=0.7 if kind == "AR1" else 1.0)
                assert abs(cov.icc - icc) <= 1e-12

    def test_cac_undefined_outside_exc2(self):
        with pytest.raises(ValidationError):
            _ = CovarianceSpec("EXC1", tau2=0.1).cac


class TestValidation:
    def test_rejects_negative_tau2(self):
        with pytest.raises(ValidationError):
            CovarianceSpec("EXC1", tau2=-0.1)

    def test_rejects_omega2_outside_exc2(self):
        with pytest.raises(ValidationError):
            CovarianceSpec("EXC1", tau2=0.1, omega2=0.1)

    def test_rejects_decay_out_of_range(self):
        with pytest.raises(ValidationError):
            CovarianceSpec("AR1", tau2=0.1, decay=0.0)
        with pytest.raises(ValidationError):
            CovarianceSpec("AR1", tau2=0.1, decay=1.2)

    @pytest.mark.parametrize("kind, field", [
        ("EXC1", "tau2"), ("EXC2", "omega2"), ("EXC1", "sigma2")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_components(self, kind, field, bad):
        with pytest.raises(ValidationError, match=field):
            CovarianceSpec(kind, **{"tau2": 0.1, field: bad})

    def test_rejects_attenuated_gaussian(self):
        with pytest.raises(ValidationError):
            ModelSpec(attenuate=True)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError):
            ModelSpec(family="gamma-inverse")

    @pytest.mark.parametrize("attenuate", ["no", 1, None])
    def test_attenuate_must_be_a_bool(self, attenuate):
        # a truthy string used to switch attenuation on
        with pytest.raises(ValidationError, match="attenuate"):
            ModelSpec(family="binomial-logit", beta=(0.0, 0.5), attenuate=attenuate)

    @pytest.mark.parametrize("beta", ["ab", 5, [0.5, "1"], [[0.0, 0.5]], [True, 0.5]])
    def test_beta_must_be_a_vector_of_reals(self, beta):
        with pytest.raises(ValidationError, match="beta"):
            ModelSpec(family="binomial-logit", beta=beta)

    @pytest.mark.parametrize("field", ["tau2", "omega2", "decay", "sigma2"])
    def test_components_must_be_real_numbers(self, field):
        with pytest.raises(ValidationError, match=field):
            CovarianceSpec("EXC1", **{"tau2": 0.1, field: "0.1"})

    @pytest.mark.parametrize("kwargs", [
        {"kind": "EXC1", "icc": "0.1"}, {"kind": "EXC2", "icc": 0.1, "cac": "0.5"},
        {"kind": "EXC1", "icc": 0.1, "sigma2": "1"}])
    def test_from_icc_needs_real_numbers(self, kwargs):
        with pytest.raises(ValidationError):
            CovarianceSpec.from_icc(**kwargs)


class TestIteratedWeights:
    def test_gaussian_is_reciprocal_variance(self):
        w = iterated_weights(ModelSpec(), np.zeros(4), sigma2=2.5)
        assert np.allclose(w, 0.4)

    def test_logit_weight_at_half(self):
        model = ModelSpec(family="binomial-logit", beta=(0.0,))
        w = iterated_weights(model, np.array([0.0]))
        assert w[0] == pytest.approx(0.25)

    def test_poisson_weight_is_mean(self):
        model = ModelSpec(family="poisson-log", beta=(0.0,))
        w = iterated_weights(model, np.array([math.log(2.0)]))
        assert w[0] == pytest.approx(2.0)

    def test_attenuation_shrinks_towards_half(self):
        model = ModelSpec(family="binomial-logit", beta=(0.0,), attenuate=True)
        plain = iterated_weights(ModelSpec(family="binomial-logit", beta=(0.0,)),
                                 np.array([2.0]))
        shrunk = iterated_weights(model, np.array([2.0]), re_variance=0.5)
        expected = 2.0 / math.sqrt(1.0 + ATTENUATION_CONSTANT * 0.5)
        mu = 1.0 / (1.0 + math.exp(-expected))
        assert shrunk[0] == pytest.approx(mu * (1 - mu))
        assert shrunk[0] > plain[0]  # closer to 0.5 means larger weight

    def test_nonfinite_predictor_raises(self):
        model = ModelSpec(family="poisson-log", beta=(0.0,))
        with pytest.raises(NumericDomainError):
            iterated_weights(model, np.array([np.nan]))
        with pytest.raises(NumericDomainError):
            iterated_weights(model, np.array([1e4]))
