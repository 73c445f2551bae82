import math

import numpy as np
import pytest

from crtoptim import (CovarianceSpec, DesignCriterion, EnumerationLimitError,
                      InfeasibleError, ValidationError, brute_force_optimum,
                      local_search, monte_carlo_variance, space_from_sequences,
                      standard_space, supermodularity_probe,
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

    def test_plain_callable_criterion(self):
        space = space_from_sequences([(0, 1), (0, 0), (1, 1)], max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        via_callable = brute_force_optimum(space, lambda counts: crit.value(counts), 3)
        assert via_callable == brute_force_optimum(space, crit, 3)

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

        def negated(counts):
            v = crit.value(counts)
            return -v if math.isfinite(v) else v

        report = supermodularity_probe(space, negated, 100, seed=5)
        assert not report.passed

    def test_needs_at_least_one_triple(self):
        space = standard_space(3)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(ValidationError):
            supermodularity_probe(space, crit, 0)


@pytest.mark.parametrize("call", [
    lambda space, crit: brute_force_optimum(space, crit, 2.5),
    lambda space, crit: brute_force_optimum(space, crit, True),
    lambda space, crit: supermodularity_probe(space, crit, 2.5, seed=1),
    lambda space, crit: supermodularity_probe(space, crit, True, seed=1),
], ids=["brute-force-m-2.5", "brute-force-m-True", "probe-n_triples-2.5",
        "probe-n_triples-True"])
def test_sizes_must_be_integers(call):
    space = standard_space(3, max_replication=2)
    crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
    with pytest.raises(ValidationError, match="integer"):
        call(space, crit)
