import math

import numpy as np
import pytest

from crtoptim import (CovarianceSpec, DesignCriterion, EnumerationLimitError,
                      InfeasibleError, ValidationError, aggregate_cluster_periods,
                      brute_force_optimum, build_sigma, build_x, local_search,
                      monte_carlo_variance, space_from_sequences, standard_space,
                      supermodularity_probe, swap_delta, unit_information_blocks,
                      write_simulation_csv)
from crtoptim.validate import _count_multisets


class TestBruteForce:
    def test_single_pick_cannot_identify_treatment(self):
        # with period indicators in X, one cluster never separates the
        # treatment effect from time; the exact optimiser must say so
        space = space_from_sequences([(0, 1), (0, 0), (1, 1)],
                                     cells_per_period=4)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        assert all(math.isinf(crit.value(np.eye(3, dtype=int)[j]))
                   for j in range(3))
        with pytest.raises(InfeasibleError):
            brute_force_optimum(space, crit, 1)

    def test_smallest_pair_is_found(self):
        space = space_from_sequences([(0, 1), (0, 0), (1, 1)],
                                     cells_per_period=4)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        result = brute_force_optimum(space, crit, 2)
        pair_values = {}
        for i in range(3):
            for j in range(i, 3):
                counts = np.zeros(3, dtype=int)
                counts[i] += 1
                counts[j] += 1
                if counts.max() <= space.max_replication:
                    pair_values[(i, j)] = crit.value(counts)
        assert result.value == min(v for v in pair_values.values())

    def test_seven_sequence_two_pick_is_parallel(self):
        space = standard_space(6, cells_per_period=10)
        cov = CovarianceSpec.from_icc("EXC2", 0.001, cac=0.5)
        result = brute_force_optimum(space, DesignCriterion(space, cov), 2)
        assert result.design.counts[0] == 1
        assert result.design.counts[-1] == 1

    def test_never_above_local_search(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            t = int(rng.integers(2, 5))
            seqs = [tuple(rng.integers(0, 2, size=t)) for _ in range(5)]
            space = space_from_sequences(seqs, max_replication=2)
            icc = rng.uniform(0.01, 0.3)
            crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=icc,
                                                         sigma2=1 - icc))
            m = int(rng.integers(2, 6))
            try:
                brute = brute_force_optimum(space, crit, m)
            except InfeasibleError:
                continue
            ls = local_search(space, crit, m, restarts=3, seed=1)
            assert brute.value <= ls.value + 1e-12

    @pytest.mark.parametrize("batch", [2, 3, 4096])
    def test_first_minimum_in_enumeration_order_wins(self, monkeypatch, batch):
        # units 0/1 and 2/3 are duplicates, so the optimum is tied across
        # designs; the first one enumerated must win however they are batched
        from crtoptim import validate
        monkeypatch.setattr(validate, "BRUTE_FORCE_BATCH", batch, raising=False)
        space = space_from_sequences([(0, 1), (0, 1), (0, 0), (0, 0)],
                                     max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        assert brute_force_optimum(space, crit, 2).design.counts == (0, 1, 0, 1)
        assert brute_force_optimum(space, crit, 3).design.counts == (0, 1, 0, 2)

    def test_enumeration_guard(self):
        space = standard_space(6, max_replication=10, cells_per_period=1)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(EnumerationLimitError):
            brute_force_optimum(space, crit, 30, limit=1000)

    def test_multiset_counter(self):
        # oracle: direct enumeration for small cases
        def direct(n, cap, m):
            from itertools import product
            return sum(1 for c in product(range(cap + 1), repeat=n)
                       if sum(c) == m)
        for n, cap, m in [(3, 2, 4), (4, 1, 2), (5, 3, 7)]:
            assert _count_multisets(n, cap, m) == direct(n, cap, m)


class TestMonteCarlo:
    def test_two_sample_variance(self):
        space = space_from_sequences([(0,), (1,)], cells_per_period=10)
        cov = CovarianceSpec("EXC1", tau2=0.0, sigma2=1.0)
        design = space.design_from_counts([1, 1])
        res = monte_carlo_variance(space, design, cov, beta=[0.3, 1.0],
                                   n_sims=10000, seed=2024)
        assert res.model_variance == pytest.approx(0.2)
        assert res.empirical_variance == pytest.approx(0.2, rel=0.05)

    def test_matches_model_variance_within_three_se(self):
        rng = np.random.default_rng(44)
        space = standard_space(3, max_replication=2, cells_per_period=3)
        for seed in range(3):
            counts = rng.integers(0, 3, size=space.n_units)
            counts[0] = max(counts[0], 1)
            counts[-1] = max(counts[-1], 1)
            design = space.design_from_counts(counts)
            cov = CovarianceSpec("EXC2", tau2=rng.uniform(0.01, 0.2),
                                 omega2=rng.uniform(0.0, 0.1))
            beta = rng.normal(size=space.n_periods + 1)
            res = monte_carlo_variance(space, design, cov, beta=beta,
                                       n_sims=4000, seed=seed)
            assert abs(res.z_score) < 3.0

    def test_ar1_design_agrees_with_criterion(self):
        # exercises the temporally decaying random-effect covariance through
        # the simulation route, independent of the aggregated evaluator
        space = standard_space(4, max_replication=2, cells_per_period=4)
        design = space.design_from_counts([1, 2, 0, 1, 1])
        cov = CovarianceSpec("AR1", tau2=0.2, decay=0.6)
        res = monte_carlo_variance(space, design, cov,
                                   beta=[0.1, -0.2, 0.4, 0.0, 0.7],
                                   n_sims=6000, seed=41)
        assert abs(res.z_score) < 3.0

    def test_doubling_counts_halves_variance_without_clustering(self):
        cov = CovarianceSpec("EXC1", tau2=0.0, sigma2=1.0)
        results = []
        for count in (5, 10):
            space = space_from_sequences([(0, 0), (1, 1)],
                                         cells_per_period=count)
            design = space.design_from_counts([1, 1])
            results.append(monte_carlo_variance(space, design, cov,
                                                beta=[0.0, 0.0, 0.5],
                                                n_sims=6000, seed=9))
        ratio = results[0].empirical_variance / results[1].empirical_variance
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_reproducible_with_seed(self):
        space = space_from_sequences([(0,), (1,)], cells_per_period=5)
        cov = CovarianceSpec("EXC1", tau2=0.05)
        design = space.design_from_counts([1, 1])
        a = monte_carlo_variance(space, design, cov, beta=[0.0, 1.0],
                                 n_sims=2000, seed=7)
        b = monte_carlo_variance(space, design, cov, beta=[0.0, 1.0],
                                 n_sims=2000, seed=7)
        assert a.empirical_variance == b.empirical_variance
        assert a.mean_estimate == b.mean_estimate

    def test_rejects_non_gaussian_and_tiny_runs(self):
        space = space_from_sequences([(0,), (1,)])
        cov = CovarianceSpec("EXC1", tau2=0.05)
        design = space.design_from_counts([1, 1])
        from crtoptim import ModelSpec
        with pytest.raises(ValidationError):
            monte_carlo_variance(space, design, cov, beta=[0, 1],
                                 model=ModelSpec(family="poisson-log",
                                                 beta=(0.0, 0.0)),
                                 n_sims=2000)
        with pytest.raises(ValidationError):
            monte_carlo_variance(space, design, cov, beta=[0, 1], n_sims=10)

    def test_csv_summary(self, tmp_path):
        space = space_from_sequences([(0,), (1,)], cells_per_period=5)
        cov = CovarianceSpec("EXC1", tau2=0.0)
        design = space.design_from_counts([1, 1])
        res = monte_carlo_variance(space, design, cov, beta=[0.0, 0.5],
                                   n_sims=1000, seed=1)
        out = tmp_path / "sims.csv"
        write_simulation_csv(out, {"two-sample": res})
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["label", "mean_estimate",
                                           "empirical_variance"]
        assert lines[1].startswith("two-sample,")


class TestSupermodularityProbe:
    def test_plain_criteria_have_no_violations(self):
        space = standard_space(3, max_replication=2, cells_per_period=2)
        for cov in [CovarianceSpec("EXC1", tau2=0.1),
                    CovarianceSpec("EXC2", tau2=0.1, omega2=0.05),
                    CovarianceSpec("AR1", tau2=0.1, decay=0.6)]:
            crit = DesignCriterion(space, cov)
            report = supermodularity_probe(space, crit, 100, seed=5)
            assert report.passed, report.violations[:3]

    def test_negated_criterion_is_caught(self):
        space = standard_space(3, max_replication=2, cells_per_period=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))

        class Negated:
            def values(self, batch):
                v = crit.values(batch)
                return np.where(np.isfinite(v), -v, v)

        report = supermodularity_probe(space, Negated(), 100, seed=5)
        assert not report.passed

    @pytest.mark.parametrize("slack", [math.nan, -1e-12, math.inf, "0", True])
    def test_slack_must_be_finite_and_non_negative(self, slack):
        # a NaN slack fails every comparison, so no violation could be found
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(ValidationError, match="slack"):
            supermodularity_probe(space, crit, 5, seed=1, slack=slack)

    def test_needs_at_least_one_triple(self):
        space = standard_space(3)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(ValidationError):
            supermodularity_probe(space, crit, 0)


@pytest.mark.parametrize("call", [
    lambda space, crit: brute_force_optimum(space, crit, 2.5),
    lambda space, crit: brute_force_optimum(space, crit, True),
    lambda space, crit: brute_force_optimum(space, crit, 2, limit="x"),
    lambda space, crit: brute_force_optimum(space, crit, 2, limit=1e6),
    lambda space, crit: supermodularity_probe(space, crit, 2.5, seed=1),
    lambda space, crit: supermodularity_probe(space, crit, True, seed=1),
    lambda space, crit: monte_carlo_variance(
        space, space.design_from_counts([1, 1, 1, 1]), crit.covariance,
        np.zeros(4), n_sims=1000.5),
], ids=["brute-force-m-2.5", "brute-force-m-True", "brute-force-limit-x",
        "brute-force-limit-1e6", "probe-n_triples-2.5",
        "probe-n_triples-True", "monte-carlo-n_sims-1000.5"])
def test_sizes_must_be_integers(call):
    space = standard_space(3, max_replication=2)
    crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
    with pytest.raises(ValidationError, match="integer"):
        call(space, crit)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
@pytest.mark.parametrize("call", [
    lambda space, crit, seed: supermodularity_probe(space, crit, 5, seed=seed),
    lambda space, crit, seed: monte_carlo_variance(
        space, space.design_from_counts([1, 1, 1, 1]), crit.covariance,
        np.zeros(4), n_sims=1000, seed=seed),
], ids=["probe", "monte-carlo"])
def test_seed_must_be_a_non_negative_integer(call, seed):
    space = standard_space(3, max_replication=2)
    crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
    with pytest.raises(ValidationError, match="seed"):
        call(space, crit, seed)


@pytest.mark.parametrize("call,name", [
    (lambda space, crit, design: swap_delta("x", crit, design, 0, 1), "space"),
    (lambda space, crit, design: build_x("x", design), "space"),
    (lambda space, crit, design: build_sigma("x", design, crit.covariance), "space"),
    (lambda space, crit, design: aggregate_cluster_periods(
        "x", design, crit.covariance), "space"),
    (lambda space, crit, design: unit_information_blocks("x", crit.covariance), "space"),
    (lambda space, crit, design: monte_carlo_variance(
        "x", design, crit.covariance, np.zeros(4), n_sims=1000), "space"),
    (lambda space, crit, design: monte_carlo_variance(
        space, design, crit.covariance, np.zeros(4), model="x", n_sims=1000), "model"),
    (lambda space, crit, design: swap_delta(space, crit, "x", 0, 1), "design"),
    (lambda space, crit, design: crit.value_of("x"), "design"),
], ids=["swap_delta-space", "build_x-space", "build_sigma-space",
        "aggregate_cluster_periods-space", "unit_information_blocks-space",
        "monte_carlo_variance-space", "monte_carlo_variance-model",
        "swap_delta-design", "value_of-design"])
def test_argument_of_wrong_kind_rejected(call, name):
    # each ended in a raw AttributeError on the string
    space = standard_space(3, max_replication=2)
    crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
    design = space.design_from_counts([1, 1, 1, 1])
    with pytest.raises(ValidationError, match=f"{name} must be a"):
        call(space, crit, design)
