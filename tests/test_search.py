import math
import tracemalloc

import numpy as np
import pytest

from crtoptim import (Cell, CovarianceSpec, DesignCriterion, DesignSpace,
                      ExperimentalUnit, InfeasibleError, ModelClass, ModelEntry, ModelSpec,
                      RobustCriterion, ValidationError, WeightedDesign, adams_round,
                      aggregate_cluster_periods, best_rounding, brute_force_optimum,
                      build_d, build_sigma, build_z, glm_weight_diagonal, hamilton_round,
                      information_matrix, local_search, reverse_greedy,
                      mixed_model_weights, monte_carlo_variance, project_to_simplex,
                      simplex_weight_descent, space_from_sequences, standard_space,
                      supermodularity_probe, swap_delta, treatment_precision)
from crtoptim import apportion, glscore, search
from crtoptim.glscore import CRITERION_ROUNDING


def small_instance(rng):
    t = int(rng.integers(2, 5))
    n_seq = int(rng.integers(3, 8))
    seqs = [tuple(rng.integers(0, 2, size=t)) for _ in range(n_seq)]
    space = space_from_sequences(seqs, cells_per_period=int(rng.integers(1, 3)),
                                 max_replication=int(rng.integers(1, 3)))
    icc = rng.uniform(0.005, 0.3)
    cov = CovarianceSpec("EXC1", tau2=icc, sigma2=1.0 - icc)
    return space, DesignCriterion(space, cov)


class TestLocalSearch:
    def test_full_selection_needs_no_swaps(self):
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        result = local_search(space, crit, space.total_capacity, restarts=1, seed=0)
        assert result.design.counts == tuple([2] * space.n_units)

    def test_two_pick_at_near_independence_is_parallel(self):
        space = standard_space(6, cells_per_period=10)
        cov = CovarianceSpec.from_icc("EXC2", 0.001, cac=0.5)
        crit = DesignCriterion(space, cov)
        result = local_search(space, crit, 2, restarts=20, seed=1)
        brute = brute_force_optimum(space, crit, 2)
        assert result.design.counts == brute.design.counts
        counts = result.design.counts
        assert counts[0] == 1 and counts[-1] == 1  # all-control + all-treated

    def test_no_improving_swap_remains(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            space, crit = small_instance(rng)
            m = int(rng.integers(1, min(5, space.total_capacity) + 1))
            try:
                result = local_search(space, crit, m, restarts=5, seed=3)
            except InfeasibleError:
                continue
            counts = np.asarray(result.design.counts)
            for r in np.flatnonzero(counts > 0):
                for a in range(space.n_units):
                    if a == r or counts[a] >= space.max_replication:
                        continue
                    counts[r] -= 1
                    counts[a] += 1
                    assert crit.value(counts) >= result.value - 1e-12
                    counts[r] += 1
                    counts[a] -= 1

    def test_seed_determinism(self):
        space = standard_space(4, max_replication=3, cells_per_period=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC2", tau2=0.1, omega2=0.02))
        a = local_search(space, crit, 6, restarts=10, seed=99)
        b = local_search(space, crit, 6, restarts=10, seed=99)
        assert a.design.counts == b.design.counts
        assert a.value == b.value

    def test_infeasible_budget_rejected(self):
        space = standard_space(3)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(InfeasibleError):
            local_search(space, crit, space.total_capacity + 1)

    def test_progress_hook_sees_monotone_best(self):
        space = standard_space(4, max_replication=3, cells_per_period=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        seen = []
        local_search(space, crit, 5, restarts=6, seed=11,
                     progress=lambda i, v: seen.append((i, v)))
        assert [i for i, _ in seen] == list(range(6))
        values = [v for _, v in seen]
        assert values == sorted(values, reverse=True) or \
            all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def ties(value, low):
    """``value`` is within the rounding band above ``low``."""
    return value <= low * (1.0 + CRITERION_ROUNDING)


def documented_starts(space, values, m, restarts, seed):
    """The starts of a local search by its documented rule, written out
    again: one generator per search; each round draws a ``(pending, J
    cap)`` block of uniform keys, row by row; each pending restart takes
    the ``m`` replicate slots with the lowest keys (slot ``s`` a replicate
    of unit ``s // cap``); the starts that ``values`` scores infinite are
    redrawn. Returns ``(R, J)`` counts and their ``R`` values."""
    cap, n = space.max_replication, space.n_units
    rng = np.random.default_rng(seed)
    counts = np.zeros((restarts, n), dtype=int)
    current = np.full(restarts, math.inf)
    pending = np.arange(restarts)
    while pending.size:
        keys = rng.random((pending.size, n * cap))
        counts[pending] = 0
        for i, row in zip(pending, keys):
            np.add.at(counts[i], np.argsort(row)[:m] // cap, 1)
        current[pending] = values(counts[pending])
        pending = pending[~np.isfinite(current[pending])]
    return counts, current


def serial_local_search(space, crit, m, restarts, seed):
    """One restart after another, one ``value`` call per design: the
    restarts' ``(counts, value)`` and the running best after each."""
    cap, n = space.max_replication, space.n_units
    starts, start_values = documented_starts(
        space, lambda batch: np.array([crit.value(row) for row in batch]), m, restarts,
        seed)
    runs = []
    for counts, current in zip(starts, start_values.tolist()):
        while True:
            moves = [(r, a) for r in range(n) if counts[r] > 0
                     for a in range(n) if a != r and counts[a] < cap]
            if not moves:
                break
            values = []
            for r, a in moves:
                trial = counts.copy()
                trial[r] -= 1
                trial[a] += 1
                values.append(crit.value(trial))
            i = next(i for i, v in enumerate(values) if ties(v, min(values)))
            if ties(current, values[i]):
                break
            r, a = moves[i]
            counts[r] -= 1
            counts[a] += 1
            current = values[i]
        runs.append((tuple(int(v) for v in counts), current))
    best, trail = 0, []
    for idx, (_, value) in enumerate(runs):
        if not ties(runs[best][1], value):
            best = idx
        trail.append((idx, runs[best][1]))
    return runs[best], trail


class TestLockstepRestarts:
    """Restarts run side by side, scored together, yet each one walks as
    it would alone and the merge keeps the earlier of two tied restarts."""

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("m", [2, 5])
    def test_matches_serial_restarts(self, granularity, m):
        # at m=2 many random starts are unidentified and are redrawn
        space = standard_space(3, max_replication=2, cells_per_period=2,
                               granularity=granularity)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7))
        for seed in range(3):
            seen = []
            result = local_search(space, crit, m, restarts=6, seed=seed,
                                  progress=lambda i, v: seen.append((i, v)))
            (counts, value), trail = serial_local_search(space, crit, m, 6, seed)
            assert result.design.counts == counts
            assert result.value.hex() == value.hex()
            assert [(i, v.hex()) for i, v in seen] == [(i, v.hex()) for i, v in trail]


class Flat:
    """A criterion that is zero on every design."""

    def values(self, batch):
        return np.zeros(len(batch))


class TestRandomStarts:
    """One generator per search draws every start: each a uniform
    ``m``-subset of the replicate slots, chosen by rank of uniform keys
    drawn row by row."""

    @pytest.mark.parametrize("space, m", [
        pytest.param(standard_space(3, max_replication=2), 8, id="full-capacity"),
        pytest.param(standard_space(3, max_replication=2, cells_per_period=2,
                                    granularity="cluster-period"), 2,
                     id="cluster-period-m2"),
        pytest.param(standard_space(6, max_replication=5, cells_per_period=10), 10,
                     id="readme")])
    def test_starts_have_size_m_within_the_cap(self, space, m):
        crit = Recording(DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05,
                                                                        cac=0.7)))
        counts, values = search._random_starts(space, crit, m, 50,
                                               np.random.default_rng(0))
        assert counts.shape == (50, space.n_units)
        assert (counts.sum(axis=1) == m).all()
        assert ((counts >= 0) & (counts <= space.max_replication)).all()
        assert np.isfinite(values).all()
        assert values.tolist() == crit.criterion.values(counts).tolist()
        if m == 2:
            # most starts of two cluster-periods are unidentified and redrawn
            assert len(crit.rows) > 2 * 50

    @pytest.mark.parametrize("seed", range(5))
    def test_fewer_restarts_give_a_prefix_of_the_progress(self, seed):
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8))
        trails = {}
        for restarts in (3, 10):
            trails[restarts] = []
            local_search(space, crit, 10, restarts=restarts, seed=seed,
                         progress=lambda i, v: trails[restarts].append((i, v.hex())))
        assert trails[3] == trails[10][:3]

    def test_start_frequencies_are_hypergeometric(self):
        # 3 units of 2 replicates: a start of 3 of the 6 slots holds units
        # n with probability prod_j C(2, n_j) / C(6, 3)
        space = standard_space(2, max_replication=2)
        cap, m, draws = space.max_replication, 3, 20000
        counts, _ = search._random_starts(space, Flat(), m, draws,
                                          np.random.default_rng(0))
        designs, seen = np.unique(counts, axis=0, return_counts=True)
        exact = [math.prod(math.comb(cap, int(c)) for c in row)
                 / math.comb(cap * space.n_units, m) for row in designs]
        assert len(designs) == 7
        assert math.isclose(sum(exact), 1.0)
        assert np.abs(seen / draws - exact).max() < 0.01

    def test_one_generator_and_no_spawn(self, monkeypatch):
        calls = []
        default_rng = np.random.default_rng

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                calls.append("spawn")
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: calls.append("default_rng")
                            or default_rng(*args))
        space = standard_space(4, max_replication=3, cells_per_period=2)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7))
        local_search(space, crit, 6, restarts=20, seed=5)
        assert calls == ["default_rng"]


class Recording:
    """A criterion that keeps every row it scores."""

    def __init__(self, criterion):
        self.criterion = criterion
        self.rows = []

    def values(self, batch):
        self.rows.extend(tuple(int(c) for c in row) for row in batch)
        return self.criterion.values(batch)


def memo_cases():
    """A small sequence space and a wide cluster-period one."""
    cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7)
    seq = standard_space(4, max_replication=3, cells_per_period=2)
    wide = standard_space(4, max_replication=8, granularity="cluster-period")
    return [pytest.param(seq, DesignCriterion(seq, cov), 6, 8, id="sequence"),
            pytest.param(wide, DesignCriterion(wide, cov), 12, 3, id="cluster-period")]


class TestScoreMemo:
    """Local search scores each distinct design once per call, and only
    once per call: reusing stored values changes no result."""

    @pytest.mark.parametrize("space, crit, m, restarts", memo_cases())
    def test_no_row_is_scored_twice_in_one_call(self, space, crit, m, restarts):
        recording = Recording(crit)
        local_search(space, recording, m, restarts=restarts, seed=4)
        assert len(recording.rows) == len(set(recording.rows))

    @pytest.mark.parametrize("space, crit, m, restarts", memo_cases())
    def test_nothing_is_kept_across_calls(self, space, crit, m, restarts):
        recording = Recording(crit)
        local_search(space, recording, m, restarts=restarts, seed=4)
        first = list(recording.rows)
        local_search(space, recording, m, restarts=restarts, seed=4)
        assert recording.rows[len(first):] == first

    @pytest.mark.parametrize("space, crit, m, restarts", memo_cases())
    def test_clearing_a_full_memo_changes_no_result(self, monkeypatch, space, crit, m,
                                                     restarts):
        def run():
            recording = Recording(crit)
            trail = []
            result = local_search(space, recording, m, restarts=restarts, seed=4,
                                  progress=lambda i, v: trail.append((i, v.hex())))
            return (result.design.counts, result.value.hex(), trail), recording.rows

        monkeypatch.setattr(search, "MEMO_BYTES", 1 << 40)
        unbounded, rows = run()
        # room for a few rows: the memo is cleared on almost every call
        monkeypatch.setattr(search, "MEMO_BYTES", 4 * (space.n_units + 8))
        bounded, bounded_rows = run()
        assert bounded == unbounded
        assert len(bounded_rows) > len(rows)
        assert set(bounded_rows) == set(rows)


SWAP_SWEEP = search._swap_sweep


def unmerged_local_search(space, crit, m, restarts, seed):
    """The lockstep local search in which every restart sweeps until it
    stops, from starts drawn by :func:`documented_starts`: the
    ``(counts, value)`` of the best restart, the running best after each
    restart, each restart's designs before each of its sweeps, and the
    number of restart-sweeps."""
    memo = search._ScoreMemo(crit, space.n_units, space.max_replication)
    counts, current = documented_starts(space, memo.values, m, restarts, seed)
    histories = [[] for _ in range(restarts)]
    active, sweeps = np.arange(restarts), 0
    while active.size:
        for r in active.tolist():
            histories[r].append(tuple(counts[r].tolist()))
        sweeps += active.size
        active = SWAP_SWEEP(space, memo, counts, current, active)
    best, trail = 0, []
    for idx in range(restarts):
        if current[best] > search._tie_edge(current[idx]):
            best = idx
        trail.append((idx, float(current[best]).hex()))
    return ((tuple(counts[best].tolist()), float(current[best]).hex()), trail,
            histories, sweeps)


def follow_chains(histories):
    """Per restart, how many restarts it follows in turn to the one whose
    walk it ends on: a restart follows the first restart (in sweep order,
    then restart order) to hold the first design it reaches that another
    restart held before it."""
    holder = {}
    for sweep in range(max(map(len, histories))):
        for r, history in enumerate(histories):
            if sweep < len(history):
                holder.setdefault(history[sweep], r)
    follows = [next((holder[d] for d in history if holder[d] != r), r)
               for r, history in enumerate(histories)]
    chains = []
    for r in range(len(histories)):
        length = 0
        while follows[r] != r:
            r, length = follows[r], length + 1
        chains.append(length)
    return chains


def count_sweeps(monkeypatch):
    """The size of each group of restarts that ``search._swap_sweep``
    sweeps from now on."""
    sweeps = []
    monkeypatch.setattr(search, "_swap_sweep", lambda space, crit, counts, current,
                        active: sweeps.append(active.size)
                        or SWAP_SWEEP(space, crit, counts, current, active))
    return sweeps


def merge_cases():
    readme = standard_space(6, max_replication=5, cells_per_period=10)
    cp = standard_space(5, max_replication=4, granularity="cluster-period")
    exc2 = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8)
    models = [CovarianceSpec.from_icc(kind, icc, **{key: v})
              for icc in (0.01, 0.05, 0.2)
              for kind, key in (("EXC2", "cac"), ("AR1", "decay"))
              for v in (0.2, 0.5, 0.8)]
    robust = RobustCriterion(readme, ModelClass.equal_priors(models))
    full = standard_space(3, max_replication=2)
    return [
        *(pytest.param(readme, DesignCriterion(readme, exc2), 10, 100, seed,
                       id=f"readme-seed{seed}") for seed in range(5)),
        pytest.param(cp, DesignCriterion(cp, exc2), 25, 3, 1, id="cluster-period"),
        pytest.param(readme, robust, 10, 5, 2, id="robust-18"),
        pytest.param(full, DesignCriterion(full, exc2), full.total_capacity, 6, 0,
                     id="full-capacity"),
    ]


class TestMergedRestarts:
    """A restart that reaches a design another restart held before it
    stops there and ends where that restart ends: the result, its value
    and the running best are those of sweeping every restart to its end,
    over fewer restart-sweeps and the same scored rows."""

    @pytest.mark.parametrize("space, crit, m, restarts, seed", merge_cases())
    def test_matches_unmerged_search(self, space, crit, m, restarts, seed):
        trail = []
        result = local_search(space, crit, m, restarts=restarts, seed=seed,
                              progress=lambda i, v: trail.append((i, v.hex())))
        best, unmerged_trail, _, _ = unmerged_local_search(space, crit, m, restarts,
                                                           seed)
        assert (result.design.counts, result.value.hex()) == best
        assert trail == unmerged_trail

    def test_identical_starts_sweep_once(self, monkeypatch):
        # at full capacity every restart draws the same start
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC1", 0.05))
        _, _, histories, unmerged_sweeps = unmerged_local_search(
            space, crit, space.total_capacity, 6, 0)
        assert follow_chains(histories) == [0] + [1] * 5
        assert unmerged_sweeps == 6
        sweeps = count_sweeps(monkeypatch)
        local_search(space, crit, space.total_capacity, restarts=6, seed=0)
        assert sweeps == [1]

    def test_follows_a_chain_to_its_end(self):
        # at this seed a restart that took the design of the restart it
        # follows, not that of the end of the chain, would change the trail
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8))
        best, unmerged_trail, histories, _ = unmerged_local_search(space, crit, 10,
                                                                   100, 16)
        assert max(follow_chains(histories)) >= 2
        trail = []
        result = local_search(space, crit, 10, restarts=100, seed=16,
                              progress=lambda i, v: trail.append((i, v.hex())))
        assert (result.design.counts, result.value.hex()) == best
        assert trail == unmerged_trail

    def test_fewer_sweeps_same_scored_rows(self, monkeypatch):
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8))
        unmerged = Recording(crit)
        _, _, _, unmerged_sweeps = unmerged_local_search(space, unmerged, 10, 100, 0)
        sweeps = count_sweeps(monkeypatch)
        merged = Recording(crit)
        local_search(space, merged, 10, restarts=100, seed=0)
        assert sum(sweeps) < unmerged_sweeps / 2
        assert merged.rows == unmerged.rows


def cluster_period_moves(cov, step):
    """``single_moves`` of a design on a cluster-period space, where the
    screen applies."""
    space = standard_space(3, max_replication=2, granularity="cluster-period")
    return DesignCriterion(space, cov).single_moves([1] * space.n_units, [0], step)


class TestInputChecks:
    space = standard_space(3, max_replication=2)
    crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))

    @pytest.mark.parametrize("m", [3.5, True, "3"])
    def test_reverse_greedy_needs_integer_m(self, m):
        with pytest.raises(ValidationError):
            reverse_greedy(self.space, self.crit, m)

    @pytest.mark.parametrize("kwargs", [
        {"m": 3.5}, {"m": True}, {"restarts": 2.5}, {"restarts": True},
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"restarts": 0}])
    def test_local_search_rejects(self, kwargs):
        args = {"m": 3, "restarts": 2, "seed": 0, **kwargs}
        with pytest.raises(ValidationError):
            local_search(self.space, self.crit, **args)

    @pytest.mark.parametrize("call", [
        "mixed_model_weights", "simplex_weight_descent", "best_rounding",
        "local_search space", "reverse_greedy space", "local_search criterion",
        "brute_force_optimum criterion", "supermodularity_probe criterion"])
    def test_argument_of_wrong_kind_rejected(self, call):
        # a string for the space, or a criterion without values
        cov, no_values = CovarianceSpec("EXC1", tau2=0.1), object()
        run = {
            "mixed_model_weights": lambda: mixed_model_weights("x", cov),
            "simplex_weight_descent": lambda: simplex_weight_descent("x", cov),
            "best_rounding": lambda: best_rounding("x", cov, [0.5, 0.5], 2),
            "local_search space": lambda: local_search("x", self.crit, 2),
            "reverse_greedy space": lambda: reverse_greedy("x", self.crit, 2),
            "local_search criterion": lambda: local_search(self.space, no_values, 2),
            "brute_force_optimum criterion":
                lambda: brute_force_optimum(self.space, no_values, 2),
            "supermodularity_probe criterion":
                lambda: supermodularity_probe(self.space, no_values, 3),
        }[call]
        with pytest.raises(ValidationError, match="space|criterion"):
            run()

    # one argument that numpy cannot read as floats, or of the wrong kind,
    # in each public entry point
    WRONG_KIND = {
        "hamilton_round weights": lambda s, cov, d: hamilton_round("x", 3),
        "adams_round weights": lambda s, cov, d: adams_round("x", 3),
        "best_rounding weights": lambda s, cov, d: best_rounding(s, cov, "x", 3),
        "WeightedDesign weights": lambda s, cov, d: WeightedDesign("x", 1.0, 1),
        "project_to_simplex": lambda s, cov, d: project_to_simplex("x"),
        "information_matrix": lambda s, cov, d: information_matrix("x", "y"),
        "monte_carlo_variance string beta":
            lambda s, cov, d: monte_carlo_variance(s, d, cov, beta="x", n_sims=1000),
        "monte_carlo_variance dict beta":
            lambda s, cov, d: monte_carlo_variance(s, d, cov, beta={}, n_sims=1000),
        "build_sigma": lambda s, cov, d: build_sigma(s, d, "x"),
        "build_z": lambda s, cov, d: build_z(s, d, None),
        "build_d": lambda s, cov, d: build_d(s, d, 5),
        "aggregate_cluster_periods": lambda s, cov, d: aggregate_cluster_periods(s, d, "x"),
        "treatment_precision": lambda s, cov, d: treatment_precision(None, [[0, 1], [1, 1]]),
        "glm_weight_diagonal": lambda s, cov, d: glm_weight_diagonal(
            None, np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 1))),
        "design_from_counts": lambda s, cov, d: s.design_from_counts(5),
        "design_from_indices": lambda s, cov, d: s.design_from_indices(5),
        "from_icc kind": lambda s, cov, d: CovarianceSpec.from_icc(
            np.array(["EXC2", "AR1"]), 0.05, cac=0.5),
        "standard_space granularity": lambda s, cov, d: standard_space(
            3, granularity=np.array(["sequence", "cluster-period"])),
        "single_moves step": lambda s, cov, d: cluster_period_moves(cov, np.array([1, 1])),
    }

    @pytest.mark.parametrize("call", list(WRONG_KIND))
    def test_entry_point_raises_package_error(self, call):
        design = self.space.design_from_counts([1] * self.space.n_units)
        with pytest.raises(ValidationError):
            self.WRONG_KIND[call](self.space, self.crit.covariance, design)

    @pytest.mark.parametrize("call", [
        "reverse_greedy", "local_search", "swap_delta", "brute_force_optimum",
        "supermodularity_probe"])
    def test_criterion_of_another_space_rejected(self, call):
        # the same units with 10 observations per cell, not 2: the counts
        # would be scored on the wrong space
        cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7)
        crit = DesignCriterion(standard_space(4, max_replication=3, cells_per_period=10), cov)
        space = standard_space(4, max_replication=3, cells_per_period=2)
        design = space.design_from_counts([1] * space.n_units)
        run = {
            "reverse_greedy": lambda: reverse_greedy(space, crit, 4),
            "local_search": lambda: local_search(space, crit, 4, restarts=2, seed=0),
            "swap_delta": lambda: swap_delta(space, crit, design, 0, 1),
            "brute_force_optimum": lambda: brute_force_optimum(space, crit, 4),
            "supermodularity_probe": lambda: supermodularity_probe(space, crit, 3, seed=0),
        }[call]
        with pytest.raises(ValidationError, match="another design space"):
            run()
        # an equal space built apart is the same space
        assert math.isfinite(reverse_greedy(
            space, DesignCriterion(standard_space(4, max_replication=3, cells_per_period=2),
                                   cov), 4).value)

    def test_swap_delta_checks_its_criterion(self):
        design = self.space.design_from_counts([1, 1, 1, 1])
        with pytest.raises(ValidationError, match="criterion"):
            swap_delta(self.space, "x", design, 0, 1)

    @pytest.mark.parametrize("progress", [5, "log"])
    @pytest.mark.parametrize("search_kind", ["local", "reverse-greedy"])
    def test_progress_must_be_callable(self, progress, search_kind):
        recording = Recording(self.crit)
        run = {"local": lambda: local_search(self.space, recording, 3, restarts=2,
                                             seed=0, progress=progress),
               "reverse-greedy": lambda: reverse_greedy(self.space, recording, 3,
                                                        progress=progress)}[search_kind]
        with pytest.raises(ValidationError, match="progress must be callable"):
            run()
        # rejected before any design is scored
        assert recording.rows == []

    def test_reverse_greedy_ending_unidentified_is_infeasible(self):
        # no single sequence identifies the treatment effect
        space = standard_space(4, max_replication=3)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        with pytest.raises(InfeasibleError, match="infinite"):
            reverse_greedy(space, crit, 1)

    def test_nan_values_rank_last(self):
        crit = self.crit

        class NanAtTwo:
            def values(self, batch):
                return np.where(batch[:, 0] == 2, math.nan, crit.values(batch))

        result = local_search(self.space, NanAtTwo(), 3, restarts=4, seed=0)
        assert result.design.counts[0] < 2
        assert math.isfinite(result.value)

    def test_numpy_integers_accepted(self):
        result = local_search(self.space, self.crit, np.int64(3),
                              restarts=np.int64(2), seed=np.int64(4))
        assert result.design.size == 3
        assert reverse_greedy(self.space, self.crit, np.int64(3)).design.size == 3


class TestReverseGreedy:
    def test_no_removals_returns_full_space(self):
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        result = reverse_greedy(space, crit, space.total_capacity)
        assert result.design.counts == tuple([2] * space.n_units)

    def test_intermediate_values_non_decreasing(self):
        space = standard_space(4, max_replication=3, cells_per_period=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC2", tau2=0.2, omega2=0.05))
        seen = []
        reverse_greedy(space, crit, 3, progress=lambda i, v: seen.append(v))
        assert all(b >= a - 1e-12 for a, b in zip(seen, seen[1:]))

    def test_keeps_identifiability_while_possible(self):
        # plenty of all-control units: they must go before the design loses
        # its only treated unit
        space = space_from_sequences([(0, 0), (0, 0), (0, 0), (0, 1)])
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        result = reverse_greedy(space, crit, 2)
        assert result.design.counts[3] == 1
        assert math.isfinite(result.value)

    def test_deterministic(self):
        space = standard_space(4, max_replication=2, cells_per_period=3)
        crit = DesignCriterion(space, CovarianceSpec("AR1", tau2=0.1, decay=0.7))
        a = reverse_greedy(space, crit, 4)
        b = reverse_greedy(space, crit, 4)
        assert a.design.counts == b.design.counts


class TestTieRule:
    """Units 0/1 and 2/3 are duplicates, so every single-unit move has an
    exact tie; and the design is symmetric in treated and control units,
    so mirror-image designs (two treated and one control unit, or one
    treated and two control) tie in exact arithmetic, although the kernel
    rounds them apart in the last bits. Each sweep must settle both kinds
    toward the lowest unit index; the expected designs are the same
    whether the criterion is solved by Cholesky or by eigendecomposition.
    """

    space = space_from_sequences([(0, 1), (0, 1), (0, 0), (0, 0)],
                                 max_replication=2)
    cov = CovarianceSpec("EXC1", tau2=0.1)

    @pytest.mark.parametrize("m, expected", [
        (2, (0, 1, 0, 1)), (3, (0, 1, 0, 2)), (5, (0, 2, 1, 2))])
    def test_reverse_greedy_removes_lowest_index_first(self, m, expected):
        crit = DesignCriterion(self.space, self.cov)
        assert reverse_greedy(self.space, crit, m).design.counts == expected

    @pytest.mark.parametrize("m, expected", [
        (2, (1, 0, 1, 0)), (3, (2, 0, 1, 0)), (5, (2, 1, 1, 1))])
    def test_greedy_fill_adds_lowest_index_first(self, m, expected):
        result = best_rounding(self.space, self.cov, np.full(4, 0.25), m)
        assert result.candidates["floor-greedy"][0] == expected

    @pytest.mark.parametrize("m, expected", [
        (2, [(1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)]),
        (3, [(2, 0, 0, 1), (0, 1, 1, 1), (0, 1, 0, 2), (1, 0, 1, 1)]),
        (5, [(1, 2, 1, 1), (1, 1, 2, 1), (2, 1, 0, 2), (2, 0, 2, 1)])])
    def test_local_search_never_swaps_between_tied_units(self, m, expected):
        crit = DesignCriterion(self.space, self.cov)
        found = [local_search(self.space, crit, m, restarts=3, seed=s).design.counts
                 for s in range(4)]
        assert found == expected

    @pytest.mark.parametrize("m, removed, filled, searched", [
        (5, (0, 1, 0, 1, 0, 1, 0, 2), (2, 1, 0, 1, 0, 1, 0, 0),
         2 * [(0, 2, 0, 1, 0, 1, 0, 1)] + [(0, 1, 0, 2, 0, 1, 0, 1)]
         + [(0, 2, 0, 1, 0, 1, 0, 1)]),
        (9, (0, 2, 0, 2, 0, 2, 1, 2), (1, 2, 1, 1, 1, 1, 1, 1),
         4 * [(0, 2, 0, 2, 0, 2, 1, 2)]),
        (13, (1, 2, 1, 2, 1, 2, 2, 2), (2, 2, 1, 2, 1, 2, 1, 2),
         [(2, 2, 1, 2, 1, 2, 1, 2), (1, 2, 1, 2, 1, 2, 2, 2),
          (1, 2, 1, 2, 2, 2, 1, 2), (1, 2, 1, 2, 1, 2, 2, 2)])])
    def test_cluster_period_moves(self, m, removed, filled, searched):
        # the cells of clusters 0/1 (units 0-3) and 2/3 (units 4-7) are
        # duplicates, and these designs hold under noise within the band
        space = space_from_sequences(
            [(0, 1), (0, 1), (0, 0), (0, 0)], max_replication=2,
            granularity="cluster-period")
        crit = DesignCriterion(space, self.cov)
        assert reverse_greedy(space, crit, m).design.counts == removed
        fill = best_rounding(space, self.cov, np.full(8, 0.125), m)
        assert fill.candidates["floor-greedy"][0] == filled
        assert [local_search(space, crit, m, restarts=3, seed=s).design.counts
                for s in range(4)] == searched


class TestReportedValue:
    """The value a search reports is the criterion of the design it returns,
    bit for bit, although the search scored that design inside a batch."""

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    def test_plain_criterion(self, granularity):
        space = standard_space(4, max_replication=2, cells_per_period=3,
                               granularity=granularity)
        crit = DesignCriterion(space, CovarianceSpec("AR1", tau2=0.05, decay=0.6))
        for result in (local_search(space, crit, 5, restarts=4, seed=5),
                       reverse_greedy(space, crit, 5)):
            assert result.value.hex() == crit.value(result.design.counts).hex()

    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    def test_robust_criterion(self, form):
        space = standard_space(4, max_replication=3, cells_per_period=5)
        specs = [CovarianceSpec.from_icc("EXC2", icc, cac=0.7) for icc in (0.02, 0.1)]
        crit = RobustCriterion(space, ModelClass.equal_priors(specs, form=form))
        for result in (local_search(space, crit, 6, restarts=4, seed=6),
                       reverse_greedy(space, crit, 6)):
            assert result.value.hex() == crit.value(result.design.counts).hex()


class TestSwapDelta:
    def test_identity_swap_is_zero(self):
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        design = space.design_from_counts([1, 1, 0, 0])
        assert swap_delta(space, crit, design, 0, 0) == 0.0

    def test_consistent_with_full_reevaluation(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            space, crit = small_instance(rng)
            counts = rng.integers(0, space.max_replication + 1, size=space.n_units)
            if counts.sum() < 2:
                continue
            removable = np.flatnonzero(counts > 0)
            addable = np.flatnonzero(counts < space.max_replication)
            if removable.size == 0 or addable.size == 0:
                continue
            r = int(rng.choice(removable))
            a = int(rng.choice(addable))
            if r == a:
                continue
            design = space.design_from_counts(counts)
            delta = swap_delta(space, crit, design, r, a)
            before = crit.value(counts)
            counts[r] -= 1
            counts[a] += 1
            after = crit.value(counts)
            if math.isinf(before) or math.isinf(after):
                continue
            full = after - before
            assert delta == pytest.approx(full, rel=1e-9, abs=1e-12)
            checked += 1

    def test_removing_only_treated_unit_is_infinite(self):
        space = space_from_sequences([(0, 0), (0, 1)], max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        design = space.design_from_counts([1, 1])
        assert swap_delta(space, crit, design, 1, 0) == math.inf

    def test_swap_needs_a_held_unit_and_room_below_the_cap(self):
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        design = space.design_from_counts([0, 2, 1, 1])
        with pytest.raises(ValidationError, match="not in the design"):
            swap_delta(space, crit, design, 0, 2)
        with pytest.raises(ValidationError, match="cap"):
            swap_delta(space, crit, design, 2, 1)

    @pytest.mark.parametrize("remove, add", [
        (-1, 0), (0, -1), (99, 0), (0, 4), (1.0, 0), (0, 1.0), (True, 0),
        (np.int64(-1), 0)])
    def test_units_must_be_unit_indices(self, remove, add):
        # a negative index would wrap around to the last unit
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec("EXC1", tau2=0.1))
        design = space.design_from_counts([1, 1, 1, 1])
        with pytest.raises(ValidationError):
            swap_delta(space, crit, design, remove, add)
        assert swap_delta(space, crit, design, np.int64(3), 0) == pytest.approx(
            crit.value([2, 1, 1, 0]) - crit.value([1, 1, 1, 1]), rel=1e-12)


class TestAgainstBruteForce:
    def test_local_search_matches_small_optima(self):
        rng = np.random.default_rng(17)
        matched = 0
        for _ in range(15):
            space, crit = small_instance(rng)
            m = int(rng.integers(2, min(5, space.total_capacity) + 1))
            try:
                brute = brute_force_optimum(space, crit, m)
            except InfeasibleError:
                continue
            result = local_search(space, crit, m, restarts=20, seed=5)
            assert result.value <= 1.5 * brute.value + 1e-12
            if result.value == pytest.approx(brute.value, rel=1e-10):
                matched += 1
        assert matched >= 10


class ValuesOnly:
    """A criterion seen through ``values`` alone (and ``value``, which
    ``best_rounding`` reports): every greedy move is scored in full."""

    def __init__(self, criterion):
        self.criterion = criterion

    def values(self, batch):
        return self.criterion.values(batch)

    def value(self, counts):
        return self.criterion.value(counts)


def screen_cases():
    """{cluster-period, observation} x {EXC1, EXC2, AR1} x {Gaussian,
    binomial-logit}, on the 20 single-cell units of the T=4 standard space."""
    covs = [CovarianceSpec.from_icc("EXC1", 0.1),
            CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7),
            CovarianceSpec.from_icc("AR1", 0.2, decay=0.6)]
    models = [ModelSpec(), ModelSpec("binomial-logit", beta=(-2, -1.5, -1, -0.5, 0.5))]
    for granularity, cap, count in (("cluster-period", 4, 3), ("observation", 3, 1)):
        space = standard_space(4, max_replication=cap, cells_per_period=count,
                               granularity=granularity)
        for cov in covs:
            for model in models:
                yield pytest.param(space, DesignCriterion(space, cov, model),
                                   id=f"{granularity}-{cov.kind}-{model.family}")


def walk(criterion, counts, target, cap):
    """``_greedy_walk`` of a stack of one, from a copy of ``counts``: the
    end design and the progress trail, values as hex."""
    counts = np.array(counts)[None]
    trail = []
    search._greedy_walk([criterion], counts, target, cap,
                        lambda i, v: trail.append((i, v.hex())))
    return counts[0].tolist(), trail


def neighbours(counts, units, step):
    batch = np.repeat(np.asarray(counts)[None], len(units), axis=0)
    batch[np.arange(len(units)), units] += step
    return batch


def scored_rows(monkeypatch):
    """Every row that ``DesignCriterion.values`` (plain or robust) scores
    from now on, as tuples."""
    rows = []
    values = DesignCriterion.values

    def recording(self, batch):
        rows.extend(tuple(int(c) for c in row) for row in np.asarray(batch))
        return values(self, batch)

    monkeypatch.setattr(DesignCriterion, "values", recording)
    return rows


class TestSingleMoveScreen:
    """Greedy walks screen their single-unit moves by a rank-one update and
    score only the front-runners through ``values``: the designs, values
    and progress trails are those of scoring every move in full."""

    @pytest.mark.parametrize("space, crit", screen_cases())
    def test_reverse_greedy_matches_full_scoring(self, space, crit):
        runs = []
        for criterion in (crit, ValuesOnly(crit)):
            trail = []
            result = reverse_greedy(space, criterion, 12,
                                    progress=lambda i, v: trail.append((i, v.hex())))
            runs.append((result.design.counts, result.value.hex(), trail))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("space, crit", screen_cases())
    def test_walks_both_ways_match_full_scoring(self, space, crit):
        cap = space.max_replication
        start = np.random.default_rng(7).integers(1, cap + 1, space.n_units)
        for target in (8, 50):
            assert walk(crit, start, target, cap) == walk(ValuesOnly(crit), start,
                                                          target, cap)

    @pytest.mark.parametrize("space, crit", screen_cases())
    def test_best_rounding_matches_full_scoring(self, monkeypatch, space, crit):
        weights = np.random.default_rng(3).dirichlet(np.ones(space.n_units))
        args = (space, crit.covariance, weights, 30, crit.model)
        screened = best_rounding(*args)
        monkeypatch.setattr(apportion, "DesignCriterion",
                            lambda *a, **k: ValuesOnly(DesignCriterion(*a, **k)))
        assert best_rounding(*args) == screened

    @pytest.mark.parametrize("space, crit", screen_cases())
    def test_screen_agrees_with_values(self, space, crit):
        rng = np.random.default_rng(11)
        cap = space.max_replication
        screened = 0
        for _ in range(20):
            counts = rng.integers(0, cap + 1, space.n_units)
            for step, movable in ((1, counts < cap), (-1, counts > 0)):
                units = np.flatnonzero(movable)
                approx = crit.single_moves(counts, units, step)
                if approx is None:
                    continue
                screened += 1
                full = crit.values(neighbours(counts, units, step))
                # a row the screen gives a number is one values scores finite
                assert np.isfinite(full[np.isfinite(approx)]).all()
                both = np.isfinite(approx) & np.isfinite(full)
                assert np.abs(approx[both] - full[both]).max() <= 1e-12 * full[both].min()
        assert screened >= 30

    def test_screen_scores_few_rows(self, monkeypatch):
        space = standard_space(6, max_replication=10, granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5))
        full = Recording(crit)
        expected = reverse_greedy(space, full, 60)
        screened = scored_rows(monkeypatch)
        assert reverse_greedy(space, crit, 60) == expected
        # 360 removals: every move scored in full against the front-runners
        assert len(screened) < len(full.rows) / 10

    def test_reverse_greedy_matches_disabled_screen(self, monkeypatch):
        space = standard_space(5, max_replication=6, granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.6))
        screened = reverse_greedy(space, crit, 40)
        calls = []
        monkeypatch.setattr(search, "_single_moves",
                            lambda parts, *args: calls.append(len(parts))
                            or [None] * len(parts))
        unscreened = reverse_greedy(space, crit, 40)
        # one stack of one per removal, none of them screened
        assert calls == [1] * (space.total_capacity - 40)
        assert unscreened.design == screened.design
        assert unscreened.value.hex() == screened.value.hex()

    def test_lone_front_runner_is_taken_unscored(self, monkeypatch):
        space = standard_space(6, max_replication=10, granularity="cluster-period")
        cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5)
        weights = mixed_model_weights(space, cov, total_obs=60).weights
        expected = best_rounding(space, cov, weights, 60)
        rows = scored_rows(monkeypatch)
        assert best_rounding(space, cov, weights, 60) == expected
        # the fill's 14 additions: 3 steps send 6 front-runners, the 11 with
        # one front-runner send none; then the 3 candidates are scored
        assert len(rows) == 9

    def test_rank_deficient_start_falls_back(self):
        # no observation in period 4: its effect is unidentified, the
        # treatment effect is not
        space = standard_space(4, max_replication=4, cells_per_period=3,
                               granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC1", 0.1))
        counts = [0 if unit.cells[0].period == 4 else 1 for unit in space.units]
        assert math.isfinite(crit.value(counts))
        assert crit.single_moves(counts, np.arange(space.n_units), 1) is None
        assert walk(crit, counts, 30, 4) == walk(ValuesOnly(crit), counts, 30, 4)

    def test_unidentifying_removal_is_never_vouched_for(self):
        # unit 5 holds the only treated observations
        space = standard_space(4, max_replication=4, cells_per_period=3,
                               granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.1, cac=0.6))
        counts = np.zeros(space.n_units, dtype=int)
        counts[:4] = 2
        counts[4:6] = 1
        units = np.flatnonzero(counts)
        approx = crit.single_moves(counts, units, -1)
        full = crit.values(neighbours(counts, units, -1))
        assert full[units == 5] == math.inf
        assert np.isnan(approx[units == 5]).all()
        assert np.isfinite(approx[units != 5]).all()
        assert walk(crit, counts, 3, 4) == walk(ValuesOnly(crit), counts, 3, 4)

    def test_screen_does_not_apply(self, monkeypatch):
        cov = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7)
        seq = standard_space(3, max_replication=2)
        assert DesignCriterion(seq, cov).single_moves([1] * 4, [0, 1], 1) is None
        # a unit of two cells
        two = DesignSpace(2, (ExperimentalUnit(0, (Cell(1, 0), Cell(2, 1))),
                              ExperimentalUnit(1, (Cell(1, 0),)),
                              ExperimentalUnit(1, (Cell(2, 0),))),
                          max_replication=3, granularity="cluster-period")
        crit = DesignCriterion(two, cov)
        assert crit.single_moves([1, 1, 1], [0, 1], 1) is None
        assert crit.single_moves([1, 1, 1], [1, 2], 1) is not None
        # a design past the conditioning bound
        space = standard_space(3, max_replication=2, granularity="cluster-period")
        crit = DesignCriterion(space, cov)
        counts = [1] * space.n_units
        assert crit.single_moves(counts, [0], 1) is not None
        monkeypatch.setattr(glscore, "SCREEN_CONDITION", 1.0)
        assert crit.single_moves(counts, [0], 1) is None

    @pytest.mark.parametrize("counts, units, step", [
        ([1] * 12, [0, 12], 1), ([1] * 12, [-1], 1), ([1] * 12, [0.5], 1),
        ([1] * 12, [[0]], 1), ([1] * 12, [0], 2), ([1] * 12, [0], True),
        ([0] + [1] * 11, [0], -1), ([1] * 11, [0], 1), ([-1] + [1] * 11, [1], 1)])
    def test_screen_rejects(self, counts, units, step):
        space = standard_space(3, max_replication=2, granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC1", 0.1))
        with pytest.raises(ValidationError):
            crit.single_moves(counts, units, step)

    @pytest.mark.parametrize("counts, units, step", [
        ([-1, 1, 1, 1], [1], 1), ([1] * 4, [0], 7), ([1] * 4, [4], 1),
        ([0, 1, 1, 1], [0], -1), ([1] * 3, [0], 1)])
    def test_sequence_screen_checks_its_input(self, counts, units, step):
        # a sequence space has no screen, but bad input is still an error
        space = standard_space(3, max_replication=2)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC1", 0.1))
        with pytest.raises(ValidationError):
            crit.single_moves(counts, units, step)

    def test_unvouched_screen_keeps_every_unit(self):
        units = np.array([2, 5, 7])
        kept = search._front_runners(np.full(3, np.nan), units)
        assert kept.tolist() == [2, 5, 7]

    def test_walk_scores_every_move_the_screen_cannot_vouch_for(self, monkeypatch):
        space = standard_space(4, max_replication=3, granularity="cluster-period")
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7))
        # a criterion that is not a DesignCriterion scores every move of
        # every step
        plain = Recording(crit)
        counts = [3] * space.n_units
        expected = walk(plain, counts, 30, 3)
        monkeypatch.setattr(search, "_single_moves", lambda criteria, batch, units, step: [
            np.full(len(own), np.nan) for own in units])
        unvouched = scored_rows(monkeypatch)
        assert walk(crit, counts, 30, 3) == expected
        assert unvouched == plain.rows

    @pytest.mark.parametrize("form", ["linear-average", "log-average"])
    def test_robust_criterion_screens(self, form):
        space = standard_space(3, max_replication=2, granularity="cluster-period")
        crit = RobustCriterion(space, ModelClass.equal_priors(
            [CovarianceSpec.from_icc("EXC1", 0.1),
             CovarianceSpec.from_icc("AR1", 0.2, decay=0.6)], form=form))
        counts = np.ones(space.n_units, dtype=int)
        units = np.arange(space.n_units)
        approx = crit.single_moves(counts, units, 1)
        full = crit.values(neighbours(counts, units, 1))
        assert np.isfinite(approx).all()
        assert np.abs(approx - full).max() <= 1e-12 * np.abs(full).max()


class Bounded(Recording):
    """A recording criterion that keeps the bound terms, so that local
    search prunes its swap sweeps."""

    def bound_terms(self, batch):
        return self.criterion.bound_terms(batch)


def swap_grid(space, counts):
    """The swaps of each design in ``counts`` on a sweep's ``(K, J J)``
    grid, entry ``r J + a`` of row ``k`` moving one replicate of design
    ``k`` from unit ``r`` to unit ``a``: ``(valid, owner, pair, batch)``,
    the grid's mask of swaps and, per swap in row-major order, its design,
    its entry and its row of counts."""
    n = space.n_units
    pairs = ((counts > 0)[:, :, None] & (counts < space.max_replication)[:, None, :]
             & ~np.eye(n, dtype=bool))
    owner, remove, add = np.nonzero(pairs)
    batch = counts[owner]
    rows = np.arange(owner.size)
    batch[rows, remove] -= 1
    batch[rows, add] += 1
    return pairs.reshape(len(counts), n * n), owner, remove * n + add, batch


def random_designs(space, rng, k):
    """``k`` random designs of random sizes from 2 to one below capacity.
    Off sequence granularity, where a unit is one cell, every third design
    also leaves one random period without observations."""
    pool = np.repeat(np.arange(space.n_units), space.max_replication)
    designs = np.stack([np.bincount(rng.choice(pool, size=int(rng.integers(2, pool.size)),
                                               replace=False), minlength=space.n_units)
                        for _ in range(k)])
    if space.granularity != "sequence":
        period = np.array([unit.cells[0].period for unit in space.units])
        for row in designs[::3]:
            row[period == rng.integers(1, space.n_periods + 1)] = 0
    return designs


def eighteen_models():
    return [CovarianceSpec.from_icc(kind, icc, **{key: v})
            for icc in (0.01, 0.05, 0.2)
            for kind, key in (("EXC2", "cac"), ("AR1", "decay"))
            for v in (0.2, 0.5, 0.8)]


def binomial(n_periods):
    return ModelSpec("binomial-logit",
                     beta=tuple(np.linspace(-2.0, -0.5, n_periods)) + (0.5,))


def bound_cases():
    """Two sequence spaces, and cluster-period and observation spaces of
    T=4 and T=5, x {EXC1, EXC2, AR1} x {Gaussian, binomial-logit}; classes
    on the README space, and of both forms on a cluster-period space."""
    covs = [CovarianceSpec.from_icc("EXC1", 0.1),
            CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7),
            CovarianceSpec.from_icc("AR1", 0.2, decay=0.6)]
    readme = standard_space(6, max_replication=5, cells_per_period=10)
    small = standard_space(4, max_replication=3, cells_per_period=2)
    spaces = [("small", small), ("readme", readme)] + [
        (f"{granularity}-T{t}", standard_space(t, max_replication=3, cells_per_period=2,
                                               granularity=granularity))
        for granularity in ("cluster-period", "observation") for t in (4, 5)]
    for name, space in spaces:
        for cov in covs:
            for model in (ModelSpec(), binomial(space.n_periods)):
                yield pytest.param(space, DesignCriterion(space, cov, model),
                                   id=f"{name}-{cov.kind}-{model.family}")
    # a swap between two copies of a unit leaves the value unchanged, and
    # the bound meets it up to rounding
    twins = space_from_sequences([(0, 0, 1), (0, 1, 1), (0, 1, 1), (1, 1, 1)],
                                 max_replication=3)
    yield pytest.param(twins, DesignCriterion(twins, covs[1]), id="twin-units")
    yield pytest.param(readme, RobustCriterion(readme, ModelClass.equal_priors(
        eighteen_models())), id="readme-robust-18")
    yield pytest.param(readme, RobustCriterion(readme, ModelClass.equal_priors(
        eighteen_models(), form="log-average")), id="readme-robust-log-18")
    yield pytest.param(readme, RobustCriterion(readme, ModelClass((
        ModelEntry(covs[1], 0.3), ModelEntry(covs[2], 0.7, binomial(6))))),
        id="readme-robust-binomial")
    cp = spaces[3][1]
    for form in ("linear-average", "log-average"):
        yield pytest.param(cp, RobustCriterion(cp, ModelClass((
            ModelEntry(covs[0], 0.5), ModelEntry(covs[1], 0.2),
            ModelEntry(covs[2], 0.3, binomial(5))), form=form)),
            id=f"cluster-period-T5-robust-{form}")


def condition(criteria, counts):
    """Per design, whether the kernel certifies its information matrix
    under every criterion, and the largest ``tr M tr M^-1`` over them."""
    certified = np.ones(len(counts), dtype=bool)
    worst = np.zeros(len(counts))
    for crit in criteria:
        m = np.stack([crit.information(row) for row in counts])
        certified &= np.isfinite(glscore._contrast_kernel(m)[1][:, -1, -1])
        with np.errstate(all="ignore"):
            measure = np.array([np.trace(mk) * np.trace(np.linalg.pinv(mk)) for mk in m])
        worst = np.maximum(worst, measure)
    return certified, worst


class TestSwapBound:
    """``bound_terms`` gives first-order terms from which every swap's
    value is bounded from below, on the designs it vouches for."""

    @pytest.mark.parametrize("space, crit", bound_cases())
    def test_vouched_bounds_hold(self, space, crit):
        # a cluster-period design has about ten times the swaps of a
        # sequence one
        designs = 60 if space.granularity == "sequence" else 12
        counts = random_designs(space, np.random.default_rng(0), designs)
        current = crit.values(counts)
        terms = crit.bound_terms(counts)
        valid, owner, pair, batch = swap_grid(space, counts)
        grid = search._swap_bounds(terms, current, valid)
        assert (grid[~valid] == math.inf).all()
        bound = grid[owner, pair]
        vouched = terms[1][owner]
        assert vouched.mean() > 0.5
        values = crit.values(batch)
        assert (bound[vouched] <= values[vouched]).all()
        assert (bound[~vouched] == -math.inf).all()

    @pytest.mark.parametrize("space, crit", [
        case for case in bound_cases()
        if case.id in ("readme-EXC2-gaussian-identity", "readme-robust-18")])
    def test_vouches_only_within_screen_condition(self, monkeypatch, space, crit):
        counts = random_designs(space, np.random.default_rng(1), 60)
        parts = getattr(crit, "_parts", [crit])
        certified, measure = condition(parts, counts)
        threshold = float(np.median(measure[certified]))
        monkeypatch.setattr(glscore, "SCREEN_CONDITION", threshold)
        vouched = crit.bound_terms(counts)[1]
        expected = certified & (measure <= threshold)
        # pinv and the kernel's factor round differently at the threshold
        clear = np.abs(measure / threshold - 1.0) > 1e-6
        assert (vouched[clear] == expected[clear]).all()
        assert vouched.any() and not vouched.all()

    def test_uncertified_design_is_not_vouched_for(self):
        # no design of units 0 and 1 alone observes period 3, so its
        # information matrix is singular, yet the treatment is identified
        units = (ExperimentalUnit(0, (Cell(1, 0, 2), Cell(2, 1, 2))),
                 ExperimentalUnit(1, (Cell(1, 0, 2), Cell(2, 0, 2))),
                 ExperimentalUnit(2, (Cell(1, 0, 2), Cell(2, 1, 2), Cell(3, 1, 2))))
        space = DesignSpace(3, units, max_replication=3)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC1", 0.1))
        counts = np.array([[2, 1, 0], [1, 1, 1], [3, 0, 0]])
        values = crit.values(counts)
        assert math.isfinite(values[0]) and math.isinf(values[2])
        certified, _ = condition([crit], counts)
        assert certified.tolist() == [False, True, False]
        assert crit.bound_terms(counts)[1].tolist() == [False, True, False]

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period", "observation"])
    def test_every_granularity_gives_terms(self, granularity):
        # the criterion and its logarithm are convex in the multiplicities
        # at every granularity, so every criterion, of either form, has terms
        space = standard_space(4, max_replication=3, granularity=granularity)
        covs = [CovarianceSpec.from_icc("EXC2", 0.05, cac=0.7),
                CovarianceSpec.from_icc("AR1", 0.2, decay=0.6)]
        counts = np.ones((2, space.n_units), dtype=int)
        for crit in (DesignCriterion(space, covs[0]),
                     *(RobustCriterion(space, ModelClass.equal_priors(covs, form=form))
                       for form in ("linear-average", "log-average"))):
            grad, vouched, scale = crit.bound_terms(counts)
            assert grad.shape == counts.shape and vouched.all()
            assert np.isfinite(grad).all() and np.isfinite(scale).all()

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    @pytest.mark.parametrize("form", [None, "linear-average", "log-average"])
    def test_bad_batch_rejected(self, granularity, form):
        space = standard_space(4, max_replication=3, granularity=granularity)
        cov = CovarianceSpec.from_icc("EXC1", 0.1)
        crit = (DesignCriterion(space, cov) if form is None else
                RobustCriterion(space, ModelClass.equal_priors([cov], form=form)))
        for batch in (np.ones((2, space.n_units + 1)), -np.ones((1, space.n_units))):
            with pytest.raises(ValidationError):
                crit.bound_terms(batch)

    def test_memo_forwards_the_terms(self):
        space = standard_space(4, max_replication=3, cells_per_period=2)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC1", 0.1))
        counts = np.ones((2, space.n_units), dtype=int)
        terms = search._ScoreMemo(crit, space.n_units, 3).bound_terms(counts)
        expected = crit.bound_terms(counts)
        assert [t.tolist() for t in terms] == [t.tolist() for t in expected]
        assert search._ScoreMemo(Recording(crit), space.n_units, 3).bound_terms(
            counts) is None

    def test_gradient_matches_the_criterion_gradient(self):
        for space in (standard_space(6, max_replication=5, cells_per_period=10),
                      standard_space(5, max_replication=3, granularity="cluster-period")):
            crit = DesignCriterion(space, CovarianceSpec.from_icc("AR1", 0.2, decay=0.6))
            counts = random_designs(space, np.random.default_rng(2), 10)
            grad, vouched, scale = crit.bound_terms(counts)
            assert vouched.sum() >= 5
            for row, g in zip(counts, grad):
                assert g.tobytes() == crit.gradient(row)[1].tobytes()
            # a plain criterion's value is its own scale
            assert scale.tobytes() == crit.values(counts).tobytes()

    def test_log_average_terms(self):
        space = standard_space(6, max_replication=5, cells_per_period=10)
        models = eighteen_models()
        crit = RobustCriterion(space, ModelClass.equal_priors(models, form="log-average"))
        counts = random_designs(space, np.random.default_rng(2), 10)
        grad, vouched, scale = crit.bound_terms(counts)
        assert vouched.sum() >= 5
        logs = np.log([DesignCriterion(space, cov).values(counts) for cov in models])
        np.testing.assert_allclose(scale[vouched], np.abs(logs).mean(axis=0)[vouched],
                                   rtol=1e-12)
        for row, g, ok in zip(counts, grad, vouched):
            if ok:
                np.testing.assert_allclose(g, crit.gradient(row)[1], rtol=1e-12)


def prune_cases():
    readme = standard_space(6, max_replication=5, cells_per_period=10)
    exc2 = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8)
    # swaps between the two copies of a unit tie with the design they leave
    twins = space_from_sequences([(0, 0, 1), (0, 1, 1), (0, 1, 1), (1, 1, 1)],
                                 max_replication=3)
    cp5 = standard_space(5, max_replication=5, granularity="cluster-period")
    cp6 = standard_space(6, max_replication=10, granularity="cluster-period")
    obs = standard_space(4, max_replication=3, granularity="observation")
    exc2_cp = CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5)
    return [
        *(pytest.param(readme, DesignCriterion(readme, exc2), 10, 100, seed, True,
                       id=f"readme-seed{seed}") for seed in range(5)),
        pytest.param(readme, RobustCriterion(readme, ModelClass.equal_priors(
            eighteen_models())), 10, 5, 2, True, id="robust-18"),
        pytest.param(readme, DesignCriterion(readme, exc2, binomial(6)), 10, 20, 1, True,
                     id="binomial-logit"),
        pytest.param(readme, RobustCriterion(readme, ModelClass.equal_priors(
            eighteen_models(), form="log-average")), 10, 5, 2, True, id="log-average"),
        pytest.param(twins, DesignCriterion(twins, exc2), 5, 20, 0, True,
                     id="twin-units"),
        pytest.param(cp5, DesignCriterion(cp5, exc2_cp), 30, 3, 0, True,
                     id="cluster-period-T5"),
        pytest.param(cp6, DesignCriterion(cp6, exc2_cp), 60, 1, 0, True,
                     id="cluster-period-T6"),
        pytest.param(obs, DesignCriterion(obs, exc2), 20, 3, 1, True, id="observation"),
        pytest.param(cp5, RobustCriterion(cp5, ModelClass.equal_priors(
            [exc2_cp, CovarianceSpec.from_icc("AR1", 0.1, decay=0.6)], form="log-average")),
            30, 2, 0, True, id="cluster-period-log-average"),
    ]


def search_outcome(space, criterion, m, restarts, seed):
    """The design, value and progress trail of a local search."""
    trail = []
    result = local_search(space, criterion, m, restarts=restarts, seed=seed,
                          progress=lambda i, v: trail.append((i, v.hex())))
    return result.design.counts, result.value.hex(), trail


class TestPrunedSweep:
    """Local search scores only the swaps whose bound can still win, with
    the results of scoring every swap, over fewer rows."""

    @pytest.mark.parametrize("space, crit, m, restarts, seed, pruned", prune_cases())
    def test_matches_full_scoring(self, space, crit, m, restarts, seed, pruned):
        bounded, full = Bounded(crit), Recording(crit)
        assert (search_outcome(space, bounded, m, restarts, seed)
                == search_outcome(space, full, m, restarts, seed))
        if pruned:
            assert len(bounded.rows) < len(full.rows)
            assert set(bounded.rows) < set(full.rows)
        else:
            assert bounded.rows == full.rows

    def test_unvouched_designs_score_every_swap(self):
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8))

        class Unvouched(Recording):
            def bound_terms(self, batch):
                grad, vouched, scale = self.criterion.bound_terms(batch)
                return grad, np.zeros_like(vouched), scale

        unvouched, full = Unvouched(crit), Recording(crit)
        assert (search_outcome(space, unvouched, 10, 20, 3)
                == search_outcome(space, full, 10, 20, 3))
        assert sorted(unvouched.rows) == sorted(full.rows)

    def test_scores_only_the_swaps_that_can_win(self):
        # a design's lowest-bound swap is scored if its bound is within the
        # tie band of the design's value, and then every swap whose bound
        # is within the tie bands of both values
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8))
        designs = random_designs(space, np.random.default_rng(3), 30)
        designs = np.concatenate([designs, [local_search(space, crit, 10, restarts=20,
                                                         seed=0).design.counts]])
        stopped = scored = rows = 0
        for counts in designs:
            counts, current = counts[None].copy(), crit.values(counts[None])
            if not math.isfinite(current[0]):
                continue
            valid, _, pair, batch = swap_grid(space, counts)
            bound = search._swap_bounds(crit.bound_terms(counts), current, valid)[0, pair]
            edge = search._tie_edge(current[0])
            lowest = int(np.argmin(bound))
            expected = set()
            if bound[lowest] <= edge:
                reach = min(edge, search._tie_edge(crit.values(batch[lowest:lowest + 1])[0]))
                expected = {tuple(batch[lowest].tolist()),
                            *(tuple(row.tolist()) for row in batch[bound <= reach])}
            bounded = Bounded(crit)
            moved = search._swap_sweep(space, bounded, counts, current, np.arange(1))
            assert set(bounded.rows) == expected
            assert len(bounded.rows) == len(expected)
            stopped += moved.size == 0
            scored, rows = scored + len(expected), rows + len(batch)
        assert stopped >= 1
        assert scored < rows / 2


class TestSweepGrid:
    """A sweep lays every restart's swaps on one grid and builds rows of
    counts only for the swaps it sends to the criterion."""

    def test_builds_rows_only_for_the_swaps_it_scores(self, monkeypatch):
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8))
        counts = random_designs(space, np.random.default_rng(4), 20)
        current = crit.values(counts)
        swaps = int(swap_grid(space, counts)[0].sum())
        built = []
        swapped = search._swapped
        monkeypatch.setattr(search, "_swapped", lambda own, k, pair: built.append(k.size)
                            or swapped(own, k, pair))
        bounded = Bounded(crit)
        search._swap_sweep(space, bounded, counts, current, np.arange(len(counts)))
        assert sum(built) == len(bounded.rows)
        assert sum(built) < swaps / 2

    def test_readme_sweep_holds_little_beyond_one_chunk(self):
        # building every swap's row of counts took about 450 KB more
        space = standard_space(6, max_replication=5, cells_per_period=10)
        crit = DesignCriterion(space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.8))
        memo = search._ScoreMemo(crit, space.n_units, space.max_replication)
        counts, current = search._random_starts(space, memo, 10, 100,
                                                np.random.default_rng(0))
        rows = np.repeat(counts, 10, axis=0)
        assert len(rows) > crit._chunk_rows
        tracemalloc.start()
        try:
            crit.values(rows)
            chunk = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            search._swap_sweep(space, memo, counts, current, np.arange(100))
            sweep = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweep <= chunk + (256 << 10)


class TestGreedyStep:
    """A greedy step and the merge of restarts pick by Python floats as
    the sweeps do by arrays, bit for bit."""

    @pytest.mark.parametrize("values", [
        [3.0], [2.0, 1.0, 1.0], [1.0, 1.0 + 1e-16, 0.5 + 0.5],
        [math.nan, 2.0, 1.0], [math.nan, math.nan], [math.inf, math.inf, 4.0],
        [-1.0, -1.0 - 1e-16, 0.0], [0.0, -0.0], [5e-324, 0.0]])
    def test_first_minimum_matches_first_minima(self, values):
        assert search._first_minimum(values) == search._first_minima(
            np.array([values]))[0]

    @pytest.mark.parametrize("low", [1.0, 0.1, -2.5, 0.0, -0.0, math.inf, -math.inf,
                                     5e-324, 1e308])
    def test_scalar_tie_edge_matches_tie_edge(self, low):
        assert search._scalar_tie_edge(low).hex() == float(search._tie_edge(low)).hex()

    def test_scalar_tie_edge_of_nan(self):
        assert math.isnan(search._scalar_tie_edge(math.nan))
