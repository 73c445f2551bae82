import math

import numpy as np
import pytest

from crtoptim import (CovarianceSpec, DesignCriterion, ModelClass, ModelEntry,
                      ModelSpec, RobustCriterion, ValidationError,
                      robust_criterion, standard_space, supermodularity_probe)


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

    @pytest.mark.parametrize("covariances", [5, None, CovarianceSpec("EXC1", tau2=0.1)],
                             ids=["integer", "none", "bare-covariance"])
    def test_equal_priors_needs_an_iterable(self, covariances):
        with pytest.raises(ValidationError):
            ModelClass.equal_priors(covariances)

    def test_criterion_needs_a_model_class(self):
        space = standard_space(3, max_replication=2)
        cov = CovarianceSpec("EXC1", tau2=0.1)
        for bad in ("x", (ModelEntry(cov, 1.0),), None):
            with pytest.raises(ValidationError):
                RobustCriterion(space, bad)

    def test_criterion_needs_a_space(self):
        for bad in ("x", None, CovarianceSpec("EXC1", tau2=0.1)):
            with pytest.raises(ValidationError):
                RobustCriterion(bad, grid_class())


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


def mixed_class(form):
    """Four entries: a zero prior, a binomial outcome model and two
    Gaussian ones, none of them alike."""
    binomial = ModelSpec("binomial-logit", beta=(-1.0, -1.2, -0.8, -1.0, 0.5))
    return ModelClass((
        ModelEntry(CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5), 0.5),
        ModelEntry(CovarianceSpec.from_icc("AR1", 0.1, decay=0.6), 0.0),
        ModelEntry(CovarianceSpec.from_icc("EXC1", 0.1), 0.3, binomial),
        ModelEntry(CovarianceSpec.from_icc("AR1", 0.2, decay=0.3), 0.2)), form=form)


def per_model_reference(space, model_class, batch):
    """The prior-weighted sum, in model order, of each positive-prior
    model's own ``DesignCriterion.values``."""
    total = 0.0
    for entry in model_class.entries:
        if entry.prior > 0.0:
            v = DesignCriterion(space, entry.covariance, model=entry.model).values(batch)
            total = total + entry.prior * (
                np.log(v) if model_class.form == "log-average" else v)
    return total


def chunk_rows(space, model_class):
    """Rows per chunk of a robust criterion: a plain criterion's, and at
    sequence granularity, where one kernel call scores a chunk under each
    of the ``L`` positive-prior models, ``1 / L`` of them."""
    rows = DesignCriterion(space, model_class.entries[0].covariance)._chunk_rows
    if space.granularity != "sequence":
        return rows
    return max(1, rows // sum(entry.prior > 0.0 for entry in model_class.entries))


class TestStackedValues:
    """At sequence granularity one block sum and one kernel call score a
    chunk under every model, with the values of scoring model by model."""

    SPACES = {"sequence": dict(max_replication=3, cells_per_period=2),
              "cluster-period": dict(max_replication=3, granularity="cluster-period")}

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    @pytest.mark.parametrize("classes", ["mixed", "grid"])
    def test_equals_per_model_loop(self, granularity, form, classes):
        space = standard_space(4, **self.SPACES[granularity])
        model_class = mixed_class(form) if classes == "mixed" else grid_class(form)
        crit = RobustCriterion(space, model_class)
        chunk = chunk_rows(space, model_class)
        rng = np.random.default_rng(71)
        for k in sorted({0, 1, chunk - 1, chunk, chunk + 1, int(2.5 * chunk)}):
            batch = rng.integers(0, 4, size=(k, space.n_units))
            if k > 2:
                batch[:2] = 0            # the empty design, which is inf
                batch[1, 0] = 1
            got = crit.values(batch)
            assert got.shape == (k,) and got.dtype == np.float64
            assert got.tobytes() == per_model_reference(space, model_class, batch).tobytes()
            fractional = rng.uniform(0.0, 3.0, size=(k, space.n_units))
            assert (crit.values(fractional).tobytes()
                    == per_model_reference(space, model_class, fractional).tobytes())

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    def test_rows_equal_value_and_integer_equals_float(self, granularity, form):
        space = standard_space(4, **self.SPACES[granularity])
        crit = RobustCriterion(space, mixed_class(form))
        batch = np.random.default_rng(72).integers(
            0, 4, size=(int(1.5 * chunk_rows(space, crit.model_class)), space.n_units))
        got = crit.values(batch)
        assert got.tobytes() == crit.values(batch.astype(float)).tobytes()
        for row, v in zip(batch, got):
            assert float(v).hex() == crit.value(row).hex()

    def test_bad_batch_rejected(self):
        space = standard_space(3, max_replication=2)
        crit = RobustCriterion(space, grid_class())
        for bad in (np.ones(space.n_units), np.ones((2, space.n_units + 1)),
                    -np.ones((2, space.n_units)), np.full((1, space.n_units), np.nan),
                    np.ones((1, space.n_units), dtype=complex)):
            with pytest.raises(ValidationError):
                crit.values(bad)

    def test_one_factorisation_per_chunk(self, monkeypatch):
        # the README space under the 18-model class: every row is well
        # conditioned, so each chunk takes one stacked Cholesky call
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = RobustCriterion(space, grid_class())
        n_models, chunk = len(crit.model_class.entries), chunk_rows(space, crit.model_class)
        assert (n_models, chunk) == (18, 12)
        rows = int(2.5 * chunk)
        batch = np.random.default_rng(73).integers(1, 4, size=(rows, space.n_units))
        expected = crit.values(batch)
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(len(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        assert crit.values(batch).tobytes() == expected.tobytes()
        assert calls == [n_models * chunk, n_models * chunk,
                         n_models * (rows - 2 * chunk)]
