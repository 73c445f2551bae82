import numpy as np
import pytest

from crtoptim import (Cell, CovarianceSpec, DesignSpace,
                      ExperimentalUnit, ValidationError, build_d, build_x,
                      build_z, expand_design, sequence_patterns,
                      space_from_sequences, standard_space)


def manual_space(sequences, count=1, max_replication=1):
    return space_from_sequences(sequences, cells_per_period=count,
                                max_replication=max_replication)


class TestStandardSpace:
    def test_six_periods_has_seven_sequences(self):
        space = standard_space(6, max_replication=5)
        assert space.n_units == 7
        assert all(len(u.cells) == 6 for u in space.units)

    def test_two_periods_enumerates_monotone_strings(self):
        space = standard_space(2)
        seqs = [tuple(c.treated for c in u.cells) for u in space.units]
        assert seqs == [(0, 0), (0, 1), (1, 1)]

    def test_three_periods_counts_monotone_strings(self):
        # oracle: direct enumeration of monotone 0/1 strings of length 3
        brute = [s for s in
                 [tuple((b >> i) & 1 for i in range(3)) for b in range(8)]
                 if all(s[i] <= s[i + 1] for i in range(2))]
        assert standard_space(3).n_units == len(brute) == 4

    def test_no_reversibility_rows_are_monotone(self):
        for t in (2, 4, 6):
            for unit in standard_space(t).units:
                seq = [c.treated for c in sorted(unit.cells, key=lambda c: c.period)]
                assert all(a <= b for a, b in zip(seq, seq[1:]))

    def test_reversible_adds_removal_sequences(self):
        rows = sequence_patterns(3, "reversible")
        assert (1, 0, 0) in rows and (0, 1, 0) in rows and (1, 1, 0) in rows
        assert len(rows) == 4 + 3  # monotone plus blocks ending early

    def test_rejects_single_period(self):
        with pytest.raises(ValidationError):
            standard_space(1)


class TestValidation:
    def test_rejects_period_out_of_range(self):
        with pytest.raises(ValidationError):
            DesignSpace(2, (ExperimentalUnit(0, (Cell(3, 0, 1),)),))

    def test_rejects_nonbinary_treatment(self):
        with pytest.raises(ValidationError):
            DesignSpace(2, (ExperimentalUnit(0, (Cell(1, 2, 1),)),))

    def test_rejects_zero_count_cell(self):
        with pytest.raises(ValidationError):
            DesignSpace(2, (ExperimentalUnit(0, (Cell(1, 0, 0),)),))

    def test_rejects_duplicate_period_within_unit(self):
        with pytest.raises(ValidationError):
            DesignSpace(2, (ExperimentalUnit(0, (Cell(1, 0, 1), Cell(1, 1, 1))),))

    def test_design_respects_replication_cap(self):
        space = standard_space(2, max_replication=2)
        with pytest.raises(ValidationError):
            space.design_from_counts([3, 0, 0])

    def test_design_must_be_nonempty(self):
        space = standard_space(2)
        with pytest.raises(ValidationError):
            space.design_from_counts([0, 0, 0])

    @pytest.mark.parametrize("build", [
        lambda: standard_space(2.5),
        lambda: standard_space(3, max_replication=1.5),
        lambda: standard_space(3, max_replication=True),
        lambda: standard_space(3, cells_per_period=1.5),
        lambda: DesignSpace(2, (ExperimentalUnit(0, (Cell(1.5, 0, 1),)),)),
        lambda: standard_space(3).design_from_counts([1.5, 0, 0, 0]),
        lambda: standard_space(3).design_from_counts([float("nan"), 1, 0, 0]),
        lambda: standard_space(3).design_from_indices([True]),
        lambda: standard_space(3).design_from_indices([1.5]),
    ])
    def test_sizes_must_be_integers(self, build):
        with pytest.raises(ValidationError, match="integer"):
            build()

    @pytest.mark.parametrize("sequences", [
        ["ab"], ["01"], [(0, 1.0)], [(0, True)], 5, [5]])
    def test_sequences_must_hold_integer_indicators(self, sequences):
        with pytest.raises(ValidationError):
            space_from_sequences(sequences)


class TestBuildX:
    def test_parallel_two_cluster(self):
        space = manual_space([(0, 0), (1, 1)])
        x = build_x(space, space.design_from_counts([1, 1]))
        assert x.shape == (4, 3)
        assert x[:, 2].tolist() == [0, 0, 1, 1]
        assert np.all(x[:, :2].sum(axis=1) == 1)

    def test_untreated_design_zero_column(self):
        space = standard_space(3)
        x = build_x(space, space.design_from_counts([1, 0, 0, 0]))
        assert np.all(x[:, 3] == 0)

    def test_stepped_wedge_single_cluster_repeated_cells(self):
        space = manual_space([(0, 1)], count=2)
        x = build_x(space, space.design_from_counts([1]))
        assert x[:, 2].tolist() == [0, 0, 1, 1]
        assert x[:, 0].tolist() == [1, 1, 0, 0]

    def test_row_count_matches_cell_totals(self):
        rng = np.random.default_rng(3)
        space = standard_space(4, max_replication=3, cells_per_period=2)
        for _ in range(10):
            counts = rng.integers(0, 4, size=space.n_units)
            if counts.sum() == 0:
                continue
            design = space.design_from_counts(counts)
            expected = sum(int(c) * sum(cell.count for cell in u.cells)
                           for c, u in zip(counts, space.units))
            assert build_x(space, design).shape[0] == expected


class TestBuildZ:
    def test_exc1_identity(self):
        space = manual_space([(0,), (1,)])
        z = build_z(space, space.design_from_counts([1, 1]),
                    CovarianceSpec("EXC1", tau2=0.1))
        assert np.array_equal(z, np.eye(2))

    def test_exc2_cluster_and_cell_columns(self):
        space = manual_space([(0, 1)])
        cov = CovarianceSpec("EXC2", tau2=0.1, omega2=0.05)
        design = space.design_from_counts([1])
        z = build_z(space, design, cov)
        assert z.shape == (2, 3)
        assert np.all(z[:, 0] == 1)
        assert np.array_equal(z[:, 1:], np.eye(2))
        d = build_d(space, design, cov)
        assert np.allclose(np.diag(d), [0.1, 0.05, 0.05])

    def test_ar1_cell_columns_and_decay_blocks(self):
        space = manual_space([(0, 1, 1)], count=2)
        cov = CovarianceSpec("AR1", tau2=0.2, decay=0.8)
        design = space.design_from_counts([1])
        z = build_z(space, design, cov)
        assert z.shape == (6, 3)
        assert np.all(z.sum(axis=1) == 1)
        d = build_d(space, design, cov)
        assert d[0, 2] == pytest.approx(0.2 * 0.8 ** 2)

    def test_replicated_sequences_get_fresh_clusters(self):
        space = standard_space(2, max_replication=3)
        lay = expand_design(space, space.design_from_counts([2, 0, 1]))
        assert sorted(set(lay.cluster.tolist())) == [0, 1, 2]

    def test_observation_units_share_their_cluster(self):
        space = space_from_sequences([(0, 1)], granularity="observation",
                                     max_replication=4)
        lay = expand_design(space, space.design_from_counts([3, 2]))
        assert set(lay.cluster.tolist()) == {0}
        assert lay.n_obs == 5


def test_permuting_units_changes_no_criterion_value():
    from crtoptim import DesignCriterion
    rng = np.random.default_rng(11)
    seqs = sequence_patterns(4)
    cov = CovarianceSpec("EXC2", tau2=0.1, omega2=0.04)
    space = space_from_sequences(seqs, max_replication=2)
    perm = rng.permutation(len(seqs))
    space_p = space_from_sequences([seqs[i] for i in perm], max_replication=2)
    crit = DesignCriterion(space, cov)
    crit_p = DesignCriterion(space_p, cov)
    for _ in range(20):
        counts = rng.integers(0, 3, size=len(seqs))
        if counts.sum() == 0:
            continue
        v = crit.value(counts)
        v_p = crit_p.value(counts[perm])  # unit i of space_p is unit perm[i]
        if np.isinf(v):
            assert np.isinf(v_p)
        else:
            assert v_p == pytest.approx(v, rel=1e-12)
