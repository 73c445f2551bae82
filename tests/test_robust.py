import math

import numpy as np
import pytest

from crtoptim import (CovarianceSpec, DesignCriterion, ModelClass, ModelEntry,
                      RobustCriterion, ValidationError, robust_criterion,
                      standard_space, supermodularity_probe)


def grid_class(form="linear-average"):
    specs = []
    for icc in (0.01, 0.05, 0.2):
        for cac in (0.2, 0.5, 0.8):
            specs.append(CovarianceSpec.from_icc("EXC2", icc, cac=cac))
        for decay in (0.2, 0.5, 0.8):
            specs.append(CovarianceSpec.from_icc("AR1", icc, decay=decay))
    return ModelClass.equal_priors(specs, form=form)


class TestModelClass:
    def test_priors_must_sum_to_one(self):
        cov = CovarianceSpec("EXC1", tau2=0.1)
        with pytest.raises(ValidationError):
            ModelClass((ModelEntry(cov, 0.6), ModelEntry(cov, 0.5)))

    def test_priors_must_be_nonnegative(self):
        cov = CovarianceSpec("EXC1", tau2=0.1)
        with pytest.raises(ValidationError):
            ModelClass((ModelEntry(cov, 1.5), ModelEntry(cov, -0.5)))
        with pytest.raises(ValidationError):
            ModelClass((ModelEntry(cov, math.nan), ModelEntry(cov, 1.0)))

    def test_needs_entries(self):
        with pytest.raises(ValidationError):
            ModelClass(())
        with pytest.raises(ValidationError):
            ModelClass.equal_priors([])

    def test_unknown_form_rejected(self):
        cov = CovarianceSpec("EXC1", tau2=0.1)
        with pytest.raises(ValidationError):
            ModelClass((ModelEntry(cov, 1.0),), form="maximin")

    @pytest.mark.parametrize("entries", [
        lambda cov: (cov,), lambda cov: (ModelEntry(cov, 1.0), "x"),
        lambda cov: ModelEntry(cov, 1.0), lambda cov: 5],
        ids=["covariance", "string", "bare-entry", "integer"])
    def test_entries_must_be_model_entries(self, entries):
        with pytest.raises(ValidationError):
            ModelClass(entries(CovarianceSpec("EXC1", tau2=0.1)))

    @pytest.mark.parametrize("args", [
        lambda cov: ("x", 1.0), lambda cov: (cov, "x"), lambda cov: (cov, True),
        lambda cov: (cov, 1.0, "x"), lambda cov: (cov, 1.0, cov)],
        ids=["covariance", "prior", "boolean-prior", "model", "model-covariance"])
    def test_entry_fields_checked(self, args):
        with pytest.raises(ValidationError):
            ModelEntry(*args(CovarianceSpec("EXC1", tau2=0.1)))

    def test_equal_priors_needs_covariances(self):
        with pytest.raises(ValidationError):
            ModelClass.equal_priors(["a"])

    def test_criterion_needs_a_model_class(self):
        space = standard_space(3, max_replication=2)
        cov = CovarianceSpec("EXC1", tau2=0.1)
        for bad in ("x", (ModelEntry(cov, 1.0),), None):
            with pytest.raises(ValidationError):
                RobustCriterion(space, bad)


class TestRobustCriterion:
    def test_single_entry_linear_equals_plain(self):
        space = standard_space(4, max_replication=3, cells_per_period=2)
        cov = CovarianceSpec("EXC2", tau2=0.1, omega2=0.03)
        plain = DesignCriterion(space, cov)
        robust = RobustCriterion(space, ModelClass((ModelEntry(cov, 1.0),)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = rng.integers(0, 4, size=space.n_units)
            if counts.sum() == 0:
                continue
            v, rv = plain.value(counts), robust.value(counts)
            if math.isinf(v):
                assert math.isinf(rv)
            else:
                assert rv == pytest.approx(v, rel=1e-12)

    def test_identical_entries_collapse(self):
        space = standard_space(3, max_replication=2)
        cov = CovarianceSpec("EXC1", tau2=0.15)
        plain = DesignCriterion(space, cov)
        entries = tuple(ModelEntry(cov, 0.25) for _ in range(4))
        linear = RobustCriterion(space, ModelClass(entries))
        logform = RobustCriterion(space, ModelClass(entries, form="log-average"))
        counts = np.array([1, 1, 0, 1])
        v = plain.value(counts)
        assert linear.value(counts) == pytest.approx(v, rel=1e-12)
        assert logform.value(counts) == pytest.approx(math.log(v), rel=1e-12)

    def test_linear_form_invariant_to_prior_splitting(self):
        space = standard_space(3, max_replication=2)
        cov_a = CovarianceSpec("EXC1", tau2=0.1)
        cov_b = CovarianceSpec("EXC2", tau2=0.1, omega2=0.05)
        merged = ModelClass((ModelEntry(cov_a, 0.5), ModelEntry(cov_b, 0.5)))
        split = ModelClass((ModelEntry(cov_a, 0.25), ModelEntry(cov_a, 0.25),
                            ModelEntry(cov_b, 0.5)))
        counts = np.array([1, 0, 1, 1])
        assert (RobustCriterion(space, merged).value(counts)
                == pytest.approx(RobustCriterion(space, split).value(counts),
                                 rel=1e-12))

    def test_infinite_when_any_entry_unidentified(self):
        space = standard_space(3, max_replication=2)
        cov = CovarianceSpec("EXC1", tau2=0.1)
        robust = RobustCriterion(space, ModelClass((ModelEntry(cov, 1.0),)))
        assert math.isinf(robust.value(np.array([2, 0, 0, 0])))

    def test_function_form(self):
        space = standard_space(3, max_replication=2)
        cov = CovarianceSpec("EXC1", tau2=0.1)
        design = space.design_from_counts([1, 1, 0, 1])
        mc = ModelClass((ModelEntry(cov, 1.0),))
        assert robust_criterion(space, design, mc) == pytest.approx(
            DesignCriterion(space, cov).value_of(design), rel=1e-12)


class TestRobustStructure:
    def test_linear_average_probe_finds_no_violations(self):
        space = standard_space(3, max_replication=2, cells_per_period=2)
        robust = RobustCriterion(space, grid_class())
        report = supermodularity_probe(space, robust, 60, seed=3)
        assert report.passed, report.violations[:3]

    def test_log_average_is_monotone(self):
        # the log form is monotone but fails strict multiset supermodularity
        # on real instances, so only the linear form feeds the swap searches
        space = standard_space(3, max_replication=2, cells_per_period=2)
        robust = RobustCriterion(space, grid_class("log-average"))
        report = supermodularity_probe(space, robust, 60, seed=3)
        assert not [v for v in report.violations if v.kind == "monotonicity"]
