import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from crtoptim import (CovarianceSpec, DesignCriterion, ModelClass, ModelEntry,
                      ModelSpec, RobustCriterion, ValidationError,
                      local_search, reverse_greedy, robust_criterion, standard_space,
                      supermodularity_probe)
from crtoptim import glscore


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
    """A plain criterion's rows per chunk, and at sequence granularity
    ``1 / L`` of them, ``L`` the positive-prior models: a robust
    criterion's chunk at sequence granularity. (A class chunks at ``1 /
    L`` at every granularity; the cluster-period boundary has its own
    case below.)"""
    rows = DesignCriterion(space, model_class.entries[0].covariance)._chunk_rows
    if space.granularity != "sequence":
        return rows
    return max(1, rows // sum(entry.prior > 0.0 for entry in model_class.entries))


class TestStackedValues:
    """At every granularity one information step and one kernel call score
    a chunk under every model, with the values of scoring model by model."""

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

    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    @pytest.mark.parametrize("classes", ["mixed", "grid"])
    def test_equals_per_model_loop_on_class_chunk_boundary(self, form, classes):
        # at cluster-period granularity a class's chunk is 1 / L of a plain
        # chunk's rows, as at sequence granularity
        space = standard_space(4, **self.SPACES["cluster-period"])
        model_class = mixed_class(form) if classes == "mixed" else grid_class(form)
        crit = RobustCriterion(space, model_class)
        plain = DesignCriterion(space, model_class.entries[0].covariance)
        chunk = plain._chunk_rows // sum(entry.prior > 0.0 for entry in model_class.entries)
        assert chunk > 1
        rng = np.random.default_rng(75)
        for k in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            batch = rng.integers(0, 4, size=(k, space.n_units))
            batch[0] = 0                 # the empty design, which is inf
            assert (crit.values(batch).tobytes()
                    == per_model_reference(space, model_class, batch).tobytes())
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

    def test_one_cluster_solve_per_chunk(self, monkeypatch):
        # at cluster-period granularity a chunk of 1 / L of a plain chunk's
        # rows solves its clusters under all L models in one stacked call
        space = standard_space(4, **self.SPACES["cluster-period"])
        crit = RobustCriterion(space, grid_class())
        n_models = len(crit.model_class.entries)
        plain = DesignCriterion(space, crit.model_class.entries[0].covariance)
        chunk = plain._chunk_rows // n_models
        assert chunk > 1
        rows = int(2.5 * chunk)
        batch = np.random.default_rng(74).integers(1, 4, size=(rows, space.n_units))
        expected = per_model_reference(space, crit.model_class, batch)
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(a.shape[:2])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        assert crit.values(batch).tobytes() == expected.tobytes()
        assert calls == [(chunk, n_models), (chunk, n_models),
                         (rows - 2 * chunk, n_models)]


def one_entry_cases():
    """A sequence, a cluster-period and an observation space, each with a
    plain criterion and the one-entry class of its setting."""
    cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7)
    logit = ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5))
    for granularity, cap, count in (("sequence", 3, 2), ("cluster-period", 4, 3),
                                    ("observation", 3, 1)):
        space = standard_space(4, max_replication=cap, cells_per_period=count,
                               granularity=granularity)
        for model in (ModelSpec(), logit):
            yield pytest.param(space, DesignCriterion(space, cov, model),
                               RobustCriterion(space, ModelClass((ModelEntry(cov, 1.0, model),))),
                               id=f"{granularity}-{model.family}")


def trail(run):
    """A search's design, value and ``progress`` trail, values as hex."""
    seen = []
    result = run(lambda i, v: seen.append((i, v.hex())))
    return result.design.counts, result.value.hex(), seen


class TestClassOfOne:
    """A class of one model in the linear form is its plain criterion, bit
    for bit, through every method and both searches."""

    @pytest.mark.parametrize("space, plain, robust", one_entry_cases())
    def test_methods_match_bit_for_bit(self, space, plain, robust):
        rng = np.random.default_rng(4)
        cap = space.max_replication
        batch = rng.integers(0, cap + 1, (40, space.n_units))
        batch[0] = 0
        assert plain.values(batch).tobytes() == robust.values(batch).tobytes()
        terms, robust_terms = plain.bound_terms(batch), robust.bound_terms(batch)
        assert terms is not None and robust_terms is not None
        assert [t.tobytes() for t in terms] == [t.tobytes() for t in robust_terms]
        screened = 0
        for row in batch[:10]:
            assert plain.information(row).tobytes() == robust.information(row).tobytes()
            value, grad = plain.gradient(row)
            got = robust.gradient(row)
            assert value.hex() == got[0].hex() and grad.tobytes() == got[1].tobytes()
            for step, movable in ((1, row < cap), (-1, row > 0)):
                units = np.flatnonzero(movable)
                want = plain.single_moves(row, units, step)
                got = robust.single_moves(row, units, step)
                assert (want is None) == (got is None)
                if want is not None:
                    screened += 1
                    assert want.tobytes() == got.tobytes()
        assert screened > 0 or space.granularity == "sequence"

    @pytest.mark.parametrize("space, plain, robust", one_entry_cases())
    def test_searches_match_bit_for_bit(self, space, plain, robust):
        def runs(crit):
            return (trail(lambda p: reverse_greedy(space, crit, 8, progress=p)),
                    trail(lambda p: local_search(space, crit, 8, restarts=4, seed=5,
                                                 progress=p)))

        assert runs(plain) == runs(robust)


def loop_prior_sum(priors, log_form, terms, values=None):
    """``_prior_sum`` as the loop over the parts it replaces."""
    if log_form:
        terms = np.log(terms) if values is None else terms / values[..., None]
    total = 0.0
    for prior, term in zip(priors, terms):
        total = total + prior * term
    return total


class TestPriorSum:
    """The prior sum over the parts is the loop that adds them one by one,
    bit for bit: on one-row batches, on signed zeros and on non-finite
    terms."""

    @pytest.mark.parametrize("parts", [1, 3, 18])
    @pytest.mark.parametrize("shape", [(), (1,), (5,), (1, 7), (5, 7)])
    def test_matches_the_loop(self, parts, shape):
        rng = np.random.default_rng(9)
        priors = tuple(rng.dirichlet(np.ones(parts)))
        size = (parts,) + shape
        terms = rng.lognormal(size=size) * rng.choice([-1.0, 1.0], size)
        signed = terms.copy()
        signed.reshape(parts, -1)[:, 0] = -0.0
        special = terms.copy()
        special.reshape(parts, -1)[0, -1] = np.inf
        # the parts' values of gradient terms, one per row
        values = rng.lognormal(size=(parts,) + shape[:-1])
        for log_form in (False, True):
            criterion = SimpleNamespace(_priors=priors, _log_form=log_form)
            cases = [(terms, None), (signed, None), (special, None)]
            if log_form:
                # the log of a term needs it positive
                cases = [(abs(terms), None), (abs(special), None)]
                if shape:
                    cases += [(signed, values), (special, values)]
            for t, v in cases:
                want = loop_prior_sum(priors, log_form, t, v)
                got = glscore._prior_sum(criterion, t, v)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert np.shape(got) == np.shape(want)

    def test_list_of_screens(self):
        rng = np.random.default_rng(10)
        priors = (0.2, 0.5, 0.3)
        screens = [rng.normal(size=4) for _ in priors]
        criterion = SimpleNamespace(_priors=priors, _log_form=False)
        assert (glscore._prior_sum(criterion, screens).tobytes()
                == loop_prior_sum(priors, False, screens).tobytes())


class ValuesOnly:
    """A criterion seen through ``values`` alone: a greedy walk scores
    every move in full."""

    def __init__(self, criterion):
        self.values = criterion.values


def scaled(cov, scale):
    """``cov`` with every variance multiplied by ``scale``: each criterion
    value scales by ``scale``."""
    return replace(cov, tau2=cov.tau2 * scale, omega2=cov.omega2 * scale,
                   sigma2=cov.sigma2 * scale)


class TestRobustScreen:
    """A robust class screens its greedy moves, to the designs, values and
    progress trails of scoring every move in full."""

    space = standard_space(5, max_replication=4, granularity="cluster-period")

    @staticmethod
    def models():
        return [CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5),
                CovarianceSpec.from_icc("AR1", 0.1, decay=0.6),
                CovarianceSpec.from_icc("EXC1", 0.2),
                CovarianceSpec.from_icc("EXC2", 0.01, cac=0.9)]

    def run(self, crit):
        return trail(lambda p: reverse_greedy(self.space, crit, 30, progress=p))

    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    def test_reverse_greedy_matches_full_scoring(self, monkeypatch, form):
        crit = RobustCriterion(self.space, ModelClass(tuple(
            ModelEntry(cov, prior)
            for cov, prior in zip(self.models(), (0.4, 0.3, 0.2, 0.1))), form=form))
        rows = []
        values = DesignCriterion.values
        monkeypatch.setattr(DesignCriterion, "values",
                            lambda self, batch: rows.append(len(batch)) or values(self, batch))
        screened = self.run(crit)
        scored = sum(rows)
        assert screened == self.run(ValuesOnly(crit))
        # 90 removals: every move scored in full against the front-runners
        assert scored < (sum(rows) - scored) / 10

    def test_log_average_near_zero(self):
        # every variance scaled so that the walk ends at a log-average of
        # about zero, where the screen's relative band collapses
        models = self.models()
        end = RobustCriterion(self.space, ModelClass.equal_priors(models, "log-average"))
        scale = math.exp(-reverse_greedy(self.space, end, 30).value)
        crit = RobustCriterion(self.space, ModelClass.equal_priors(
            [scaled(cov, scale) for cov in models], "log-average"))
        screened = self.run(crit)
        assert abs(float.fromhex(screened[1])) <= 1e-15
        assert screened == self.run(ValuesOnly(crit))


def three_model_class(form):
    """Three entries, one of them a binomial outcome model."""
    return ModelClass((
        ModelEntry(CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7), 0.5),
        ModelEntry(CovarianceSpec.from_icc("AR1", 0.2, decay=0.6), 0.3,
                   ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5))),
        ModelEntry(CovarianceSpec.from_icc("EXC1", 0.1), 0.2)), form=form)


class TestClassGradient:
    """The class gradient is the derivative of the class value."""

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    def test_matches_central_differences(self, granularity, form):
        space = standard_space(4, max_replication=3, granularity=granularity)
        crit = RobustCriterion(space, ModelClass((
            ModelEntry(CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7), 0.5),
            ModelEntry(CovarianceSpec.from_icc("AR1", 0.2, decay=0.6), 0.3,
                       ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5))),
            ModelEntry(CovarianceSpec.from_icc("EXC1", 0.1), 0.2)), form=form))
        counts = np.random.default_rng(8).uniform(1.0, 3.0, space.n_units)
        value, grad = crit.gradient(counts)
        assert value.hex() == crit.value(counts).hex()
        h = 1e-4
        steps = h * np.eye(space.n_units)
        central = (crit.values(counts + steps) - crit.values(counts - steps)) / (2 * h)
        assert np.abs(central - grad).max() <= 7e-9 * np.abs(grad).max()

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    def test_bound_rows_equal_gradient_rows(self, granularity, form):
        space = standard_space(4, max_replication=3, granularity=granularity)
        crit = RobustCriterion(space, three_model_class(form))
        rng = np.random.default_rng(9)
        for batch in (rng.integers(1, 4, size=(30, space.n_units)),
                      rng.uniform(0.5, 3.0, size=(10, space.n_units))):
            for row, grad in zip(batch, crit.bound_terms(batch)[0]):
                assert grad.tobytes() == crit.gradient(row)[1].tobytes()


class TestClassInformation:
    def test_information_needs_a_class_of_one(self):
        space = standard_space(3, max_replication=2)
        covs = [CovarianceSpec.from_icc("EXC1", 0.1), CovarianceSpec.from_icc("AR1", 0.1,
                                                                              decay=0.5)]
        crit = RobustCriterion(space, ModelClass.equal_priors(covs))
        with pytest.raises(ValidationError, match="several models"):
            crit.information([1] * space.n_units)
