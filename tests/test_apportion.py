import math

import numpy as np
import pytest

from crtoptim import (CovarianceSpec, InfeasibleError, ModelSpec,
                      ValidationError, adams_round, best_rounding,
                      hamilton_round, mixed_model_weights,
                      space_from_sequences, standard_space,
                      unidirectional_weights)


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
        # the divisor schemes break the cap, and the greedy fill tops its
        # clipped floor up with other units
        space = standard_space(4, max_replication=3)
        weights = np.zeros(space.n_units)
        weights[-1] = 1.0
        result = best_rounding(space, self.cov, weights, 5)
        assert math.isinf(result.candidates["hamilton"][1])
        assert math.isinf(result.candidates["adams"][1])
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
        assert set(result.candidates) == {"hamilton", "adams", "floor-greedy"}

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
