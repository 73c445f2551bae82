import math

import numpy as np
import pytest

from crtoptim import (CovarianceSpec, DesignCriterion, InfeasibleError, ModelClass,
                      ModelEntry, ModelSpec, RobustCriterion, ValidationError,
                      adams_round, best_rounding,
                      hamilton_round, mixed_model_weights,
                      space_from_sequences, standard_space,
                      unidirectional_weights)
from crtoptim.apportion import _lockstep_rounding


class TestHamilton:
    def test_worked_example(self):
        assert hamilton_round([0.4, 0.35, 0.25], 10).tolist() == [4, 4, 2]

    def test_one_hot(self):
        assert hamilton_round([1.0, 0.0], 5).tolist() == [5, 0]

    def test_uniform(self):
        assert hamilton_round([0.2] * 5, 5).tolist() == [1, 1, 1, 1, 1]

    def test_quota_property_on_random_vectors(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            w = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
            m = int(rng.integers(1, 60))
            alloc = hamilton_round(w, m)
            assert alloc.sum() == m
            quota = m * w
            assert np.all(alloc >= np.floor(quota))
            assert np.all(alloc <= np.ceil(quota))

    def test_remainder_tie_breaks_to_lower_index(self):
        assert hamilton_round([0.25, 0.25, 0.25, 0.25], 2).tolist() == [1, 1, 0, 0]

    def test_rejects_non_probability(self):
        with pytest.raises(ValidationError):
            hamilton_round([0.7, 0.7], 3)
        for round_ in (hamilton_round, adams_round):
            with pytest.raises(ValidationError):
                round_([math.nan, 0.5, 0.5], 10)


class TestAdams:
    def test_minimum_one_property(self):
        assert adams_round([0.9, 0.1], 2).tolist() == [1, 1]

    def test_uniform(self):
        assert adams_round([0.25] * 4, 8).tolist() == [2, 2, 2, 2]

    def test_zero_weight_excluded(self):
        assert adams_round([0.5, 0.5, 0.0], 4).tolist() == [2, 2, 0]

    def test_infeasible_when_total_below_positive_count(self):
        with pytest.raises(InfeasibleError):
            adams_round([0.4, 0.3, 0.3], 2)

    def test_total_and_floor_one_on_random_vectors(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            k = int(rng.integers(2, 10))
            w = rng.dirichlet(np.ones(k))
            m = int(rng.integers(k, 50))
            alloc = adams_round(w, m)
            assert alloc.sum() == m
            assert np.all(alloc[w > 0] >= 1)

    def test_matches_sequential_divisor_method(self):
        # oracle: award seats one at a time by the votes/allocation priority
        rng = np.random.default_rng(14)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            w = rng.dirichlet(np.ones(k))
            m = int(rng.integers(k, 30))
            votes = m * w
            seats = np.ones(k, dtype=int)
            for _ in range(m - k):
                seats[int(np.argmax(votes / seats))] += 1
            assert adams_round(w, m).tolist() == seats.tolist()

    def test_divisor_method_property_on_random_vectors(self):
        # a divisor q with ceil(votes / q) == alloc exists exactly when no
        # votes/alloc exceeds any votes/(alloc - 1)
        rng = np.random.default_rng(15)
        for _ in range(500):
            k = int(rng.integers(2, 10))
            w = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
            m = int(rng.integers(k, 80))
            alloc = adams_round(w, m)
            votes = (m * w)[alloc > 0]
            seats = alloc[alloc > 0]
            more = seats > 1
            assert (votes / seats).max() <= (votes[more] / (seats[more] - 1)).min(
                initial=np.inf)

    def test_exact_priority_tie_goes_to_lower_index(self):
        # votes 19.25 and 57.75 tie at 19 and 57 allocations
        assert adams_round([0.25, 0.75], 77).tolist() == [20, 57]


@pytest.mark.parametrize("total", [2.5, 6.5, True])
@pytest.mark.parametrize("round_", [
    hamilton_round, adams_round,
    lambda w, total: best_rounding(standard_space(2, max_replication=8),
                                   CovarianceSpec("EXC1", tau2=0.05), w, total),
], ids=["hamilton", "adams", "best"])
def test_total_must_be_an_integer(round_, total):
    with pytest.raises(ValidationError, match="integer"):
        round_([0.25, 0.25, 0.5], total)


@pytest.mark.parametrize("round_", [hamilton_round, adams_round])
def test_total_must_be_positive(round_):
    with pytest.raises(ValidationError, match="at least 1"):
        round_([0.25, 0.25, 0.5], 0)


@pytest.mark.parametrize("round_", [hamilton_round, adams_round])
def test_weights_must_be_a_vector(round_):
    with pytest.raises(ValidationError, match="vector"):
        round_([[0.25, 0.25], [0.25, 0.25]], 4)


def test_best_rounding_needs_one_weight_per_unit():
    space = standard_space(2, max_replication=8)
    with pytest.raises(ValidationError, match="2 weights for a space of 3 units"):
        best_rounding(space, CovarianceSpec("EXC1", tau2=0.05), [0.5, 0.5], 4)


class TestBestRounding:
    def setup_method(self):
        self.space = standard_space(4, max_replication=8, cells_per_period=5)
        self.cov = CovarianceSpec("EXC1", tau2=0.05, sigma2=0.95)

    def test_parallel_weights_round_to_balanced_parallel(self):
        weights = unidirectional_weights(4, 5, 0.0)
        result = best_rounding(self.space, self.cov, weights, 10)
        assert result.design.counts[0] == 5
        assert result.design.counts[-1] == 5
        assert result.design.size == 10

    def test_one_hot_respects_cap_or_errors(self):
        # the whole budget of 5 exceeds the cap of the one weighted unit:
        # Hamilton breaks the cap, and the greedy fill tops its clipped
        # floor up with other units
        space = standard_space(4, max_replication=3)
        weights = np.zeros(space.n_units)
        weights[-1] = 1.0
        result = best_rounding(space, self.cov, weights, 5)
        assert math.isinf(result.candidates["hamilton"][1])
        assert result.scheme == "floor-greedy"
        assert result.design.size == 5
        assert result.design.counts[-1] == 3
        assert max(result.design.counts) <= 3

    def test_uninformative_roundings_error(self):
        space = space_from_sequences([(0, 0), (0, 0)], max_replication=3)
        with pytest.raises(InfeasibleError):
            best_rounding(space, self.cov, [0.5, 0.5], 4)

    def test_best_never_worse_than_each_scheme(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            icc = rng.uniform(0.0, 0.3)
            cov = CovarianceSpec("EXC1", tau2=icc, sigma2=1.0 - icc)
            weights = rng.dirichlet(np.ones(self.space.n_units))
            m = int(rng.integers(2, 14))
            result = best_rounding(self.space, cov, weights, m)
            finite = [v for _, v in result.candidates.values() if math.isfinite(v)]
            assert finite, "at least one candidate must be feasible"
            assert result.value <= min(finite) + 1e-15
            assert result.design.size == m

    def test_reports_all_candidates(self):
        weights = unidirectional_weights(4, 5, 0.1)
        result = best_rounding(self.space, self.cov, weights, 10)
        assert list(result.candidates) == ["hamilton", "floor-greedy"]

    def test_adams_tie_goes_to_the_greedy_fill(self):
        # Adams's rounding ties the greedy fill here, on the same design, and
        # Hamilton breaks the cap: the greedy fill reports that design and
        # the value Adams's rounding scores
        space = standard_space(4, max_replication=4, cells_per_period=5)
        cov = CovarianceSpec.from_icc("EXC2", 0.2, cac=0.5)
        weights = mixed_model_weights(space, cov).weights
        result = best_rounding(space, cov, weights, 17)
        adams = adams_round(weights, 17)
        assert adams.tolist() == [4, 3, 3, 3, 4]
        assert result.scheme == "floor-greedy"
        assert result.design.counts == (4, 3, 3, 3, 4)
        assert result.value.hex() == DesignCriterion(space, cov).value(adams).hex()
        assert math.isinf(result.candidates["hamilton"][1])

    def test_greedy_fill_clips_floors_at_the_cap(self):
        # the weights put 23-28 replicates on units capped at 10, so every
        # unclipped rounding breaks the cap although 20 units x 10 >= 100
        space = standard_space(4, max_replication=10, granularity="cluster-period")
        cov = CovarianceSpec.from_icc("AR1", 0.05, decay=0.8)
        model = ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5))
        weights = mixed_model_weights(space, cov, model=model, total_obs=100).weights
        assert (100 * weights).max() > space.max_replication
        result = best_rounding(space, cov, weights, 100, model=model)
        assert result.scheme == "floor-greedy"
        assert result.design.size == 100
        assert max(result.design.counts) <= space.max_replication
        assert result.value == pytest.approx(0.26396, rel=1e-4)

    def test_budget_beyond_capacity_rejected(self):
        with pytest.raises(InfeasibleError):
            best_rounding(self.space, self.cov,
                          np.full(self.space.n_units, 1 / self.space.n_units),
                          self.space.total_capacity + 1)

    @pytest.mark.parametrize("space,model,total", [
        (standard_space(4, max_replication=8, cells_per_period=5), None, 10),
        (standard_space(4, max_replication=10, granularity="cluster-period"),
         ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5)), 100),
    ], ids=["sequence", "cluster-period-binomial-logit"])
    def test_criterion_given_rounds_as_covariance_and_model(self, space, model, total):
        cov = CovarianceSpec.from_icc("AR1", 0.05, decay=0.8)
        weights = np.random.default_rng(4).dirichlet(np.ones(space.n_units))
        plain = best_rounding(space, cov, weights, total, model=model)
        one_model = RobustCriterion(space, ModelClass(
            (ModelEntry(cov, 1.0, model or ModelSpec()),)))
        for criterion in (DesignCriterion(space, cov, model), one_model):
            result = best_rounding(space, criterion, weights, total)
            assert result == plain
            assert result.value.hex() == plain.value.hex()

    def test_criterion_with_model_or_on_another_space_rejected(self):
        criterion = DesignCriterion(self.space, self.cov)
        weights = np.full(self.space.n_units, 1 / self.space.n_units)
        with pytest.raises(ValidationError, match="without a model"):
            best_rounding(self.space, criterion, weights, 10, model=ModelSpec())
        other = standard_space(4, max_replication=8, cells_per_period=4)
        with pytest.raises(ValidationError, match="on this space"):
            best_rounding(other, criterion, weights, 10)


def _fill_length(weights, total, cap):
    """Steps of the floor-greedy fill: the units its clipped floors lack."""
    return total - int(np.minimum(np.floor(total * np.asarray(weights)), cap).sum())


class TestLockstepRounding:
    """Every cell's rounding in lockstep, one stacked screen per fill step,
    ends exactly where the cell's own ``best_rounding`` does."""

    @pytest.mark.parametrize("space,model,covs,total", [
        (standard_space(6, max_replication=10, granularity="cluster-period"), None,
         [CovarianceSpec.from_icc("EXC2", icc, cac=cac)
          for icc in (0.0431, 0.0567) for cac in (0.4612, 0.5388)], 60),
        (standard_space(4, max_replication=8, granularity="cluster-period"), None,
         [CovarianceSpec.from_icc("AR1", icc, decay=decay)
          for icc in (0.02, 0.1) for decay in (0.5, 0.9)], 40),
        (standard_space(4, max_replication=10, granularity="cluster-period"),
         ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5)),
         [CovarianceSpec.from_icc("EXC1", icc) for icc in (0.01, 0.05, 0.2)], 55),
    ], ids=["cluster-period-EXC2", "AR1", "binomial-logit"])
    def test_grid_matches_each_cell_alone(self, space, model, covs, total):
        weights = [mixed_model_weights(space, cov, model=model, total_obs=total).weights
                   for cov in covs]
        # the fills stop at different steps, so the stack shrinks on the way
        assert len({_fill_length(w, total, space.max_replication)
                    for w in weights}) > 1
        results = _lockstep_rounding(space, [DesignCriterion(space, cov, model)
                                             for cov in covs], weights, total)
        assert len(results) == len(covs)
        for cov, w, got in zip(covs, weights, results):
            assert got == best_rounding(space, cov, w, total, model=model)

    def test_one_cell_infeasible(self):
        space = standard_space(4, max_replication=10, granularity="cluster-period")
        covs = [CovarianceSpec.from_icc("EXC2", icc, cac=0.5) for icc in (0.05, 0.1, 0.2)]
        weights = [mixed_model_weights(space, cov, total_obs=40).weights for cov in covs]
        # the middle cell puts all 40 observations on four control cells at
        # the cap: its floors fill the budget, and no rounding is treated
        control = [j for j, unit in enumerate(space.units) if not unit.cells[0].treated]
        weights[1] = np.zeros(space.n_units)
        weights[1][control[:4]] = 0.25
        assert _fill_length(weights[1], 40, 10) == 0
        assert _fill_length(weights[0], 40, 10) > 0
        results = _lockstep_rounding(space, [DesignCriterion(space, cov) for cov in covs],
                                     weights, 40)
        with pytest.raises(InfeasibleError) as lone:
            best_rounding(space, covs[1], weights[1], 40)
        assert isinstance(results[1], InfeasibleError)
        assert str(results[1]) == str(lone.value)
        for l in (0, 2):
            assert results[l] == best_rounding(space, covs[l], weights[l], 40)

    def test_rejects_what_a_lone_call_rejects(self):
        space = standard_space(4, max_replication=4, granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC1", 0.1))
        uniform = np.full(space.n_units, 1 / space.n_units)
        with pytest.raises(InfeasibleError, match="exceeds the space capacity 80"):
            _lockstep_rounding(space, [crit, crit], [uniform, uniform], 1000)
        with pytest.raises(ValidationError, match="3 weights"):
            _lockstep_rounding(space, [crit, crit], [uniform, [0.5, 0.25, 0.25]], 40)

    def test_near_tie_goes_to_the_first_scheme(self):
        # each later row of a batch scores one ulp below the row before, so
        # the greedy fill beats hamilton by one ulp: a tie within
        # CRITERION_ROUNDING, which goes to the first scheme
        class DescendingUlps:
            def values(self, batch):
                return 1.0 - np.spacing(1.0) * np.arange(len(batch))

        space = standard_space(3, max_replication=4)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        result, = _lockstep_rounding(space, [DescendingUlps()], [w], 10)
        values = [value for _, value in result.candidates.values()]
        assert list(result.candidates) == ["hamilton", "floor-greedy"]
        assert values == sorted(values, reverse=True) and len(set(values)) == 2
        assert result.scheme == "hamilton" and result.value == 1.0
        assert result.design.counts == tuple(hamilton_round(w, 10))
