"""Design spaces and candidate designs for cluster randomised trials.

An *experimental unit* is the smallest selectable block of observations:
a whole cluster sequence, a single cluster-period, or one observation.
A :class:`DesignSpace` enumerates the candidate units together with a
replication cap; a :class:`Design` selects units from the space with
multiplicities. Replication is stored as multiplicity on unique units and
expanded only when design matrices are built: replicated sequence units
receive fresh cluster labels so their random-effect blocks are distinct,
while replicated cluster-period or observation units add observations to
the cell of their (fixed) parent cluster.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .covariance import CovarianceSpec
from .errors import ValidationError

GRANULARITIES = ("sequence", "cluster-period", "observation")
STYLES = ("no-reversibility", "reversible")


@dataclass(frozen=True)
class Cell:
    """One cluster-period holding ``count`` observations, all treated or
    all control. Cells with no observations are simply absent."""

    period: int
    treated: int
    count: int = 1


@dataclass(frozen=True)
class ExperimentalUnit:
    cluster_id: int
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class DesignSpace:
    n_periods: int
    units: tuple[ExperimentalUnit, ...]
    max_replication: int = 1
    granularity: str = "sequence"

    def __post_init__(self):
        if self.n_periods < 1:
            raise ValidationError("n_periods must be at least 1")
        if self.granularity not in GRANULARITIES:
            raise ValidationError(f"unknown granularity {self.granularity!r}")
        if self.max_replication < 1:
            raise ValidationError("max_replication must be at least 1")
        if not self.units:
            raise ValidationError("design space has no experimental units")
        object.__setattr__(self, "units", tuple(self.units))
        seen_cells = set()
        for u in self.units:
            if not u.cells:
                raise ValidationError(f"unit {u.cluster_id} has no cells")
            periods = set()
            for cell in u.cells:
                if not 1 <= cell.period <= self.n_periods:
                    raise ValidationError(
                        f"cell period {cell.period} outside [1, {self.n_periods}]")
                if cell.treated not in (0, 1):
                    raise ValidationError("treatment indicators must be 0 or 1")
                if cell.count < 1:
                    raise ValidationError("cell counts must be positive")
                if cell.period in periods:
                    raise ValidationError(
                        f"duplicate period {cell.period} in unit {u.cluster_id}")
                periods.add(cell.period)
                if self.granularity != "sequence":
                    key = (u.cluster_id, cell.period)
                    if key in seen_cells:
                        raise ValidationError(
                            f"two units share cluster-period {key}")
                    seen_cells.add(key)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def total_capacity(self) -> int:
        return self.n_units * self.max_replication

    def design_from_counts(self, counts: Sequence[int]) -> "Design":
        design = Design(tuple(int(c) for c in counts))
        design.validate(self)
        return design

    def design_from_indices(self, indices: Iterable[int]) -> "Design":
        counts = [0] * self.n_units
        for idx in indices:
            if not 0 <= idx < self.n_units:
                raise ValidationError(f"unit index {idx} out of range")
            counts[idx] += 1
        return self.design_from_counts(counts)


@dataclass(frozen=True)
class Design:
    """A multiset of experimental units, stored as per-unit multiplicities."""

    counts: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.counts)

    def validate(self, space: DesignSpace) -> None:
        if len(self.counts) != space.n_units:
            raise ValidationError(
                f"design has {len(self.counts)} entries for {space.n_units} units")
        if any(c < 0 for c in self.counts):
            raise ValidationError("multiplicities must be non-negative")
        if any(c > space.max_replication for c in self.counts):
            raise ValidationError(
                f"multiplicity exceeds the replication cap {space.max_replication}")
        if self.size < 1:
            raise ValidationError("design selects no units")


def sequence_patterns(n_periods: int, style: str = "no-reversibility") -> list[tuple[int, ...]]:
    """Treatment sequences of the standard design spaces.

    ``no-reversibility`` gives the monotone switch sequences ordered as
    all-control, switch after period 1 through switch after period T-1,
    then all-intervention. ``reversible`` appends the sequences with a
    single treated block that ends before the final period, i.e. the
    intervention can also be removed.
    """
    if n_periods < 2:
        raise ValidationError("standard spaces need at least 2 periods")
    if style not in STYLES:
        raise ValidationError(f"unknown style {style!r}")
    zeros = (0,) * n_periods
    rows = [zeros]
    for p in range(1, n_periods):
        rows.append((0,) * p + (1,) * (n_periods - p))
    rows.append((1,) * n_periods)
    if style == "reversible":
        for start in range(1, n_periods + 1):
            for end in range(start, n_periods):
                row = tuple(1 if start <= t <= end else 0
                            for t in range(1, n_periods + 1))
                if row not in rows:
                    rows.append(row)
    return rows


def space_from_sequences(sequences, n_periods=None, cells_per_period=1,
                         max_replication=1, granularity="sequence") -> DesignSpace:
    """Build a design space from explicit cluster treatment sequences.

    With ``sequence`` granularity each sequence becomes one unit; with
    ``cluster-period`` or ``observation`` granularity every cell of every
    sequence becomes its own unit (``observation`` forces one observation
    per unit so the replication cap bounds the per-cell count).
    """
    sequences = [tuple(int(v) for v in s) for s in sequences]
    if not sequences:
        raise ValidationError("no sequences supplied")
    if n_periods is None:
        n_periods = len(sequences[0])
    if any(len(s) != n_periods for s in sequences):
        raise ValidationError("sequences must all cover the same periods")
    units = []
    if granularity == "sequence":
        for cid, seq in enumerate(sequences):
            cells = tuple(Cell(t + 1, seq[t], cells_per_period)
                          for t in range(n_periods))
            units.append(ExperimentalUnit(cid, cells))
    else:
        count = 1 if granularity == "observation" else cells_per_period
        for cid, seq in enumerate(sequences):
            for t in range(n_periods):
                units.append(ExperimentalUnit(
                    cid, (Cell(t + 1, seq[t], count),)))
    return DesignSpace(n_periods, tuple(units), max_replication, granularity)


def standard_space(n_periods, style="no-reversibility", max_replication=1,
                   cells_per_period=1, granularity="sequence") -> DesignSpace:
    """The standard cluster-trial design space over ``n_periods`` periods.

    For ``no-reversibility`` this holds the T+1 monotone switch sequences;
    ``reversible`` additionally allows removal of the intervention.
    """
    return space_from_sequences(
        sequence_patterns(n_periods, style), n_periods,
        cells_per_period=cells_per_period, max_replication=max_replication,
        granularity=granularity)


@dataclass(frozen=True)
class DesignLayout:
    """Expanded observation- and cell-level view of a design.

    Observation arrays run over single observations; cell arrays run over
    the distinct (cluster, period) cells, with ``cell_unit`` pointing back
    at the originating unit index in the space.
    """

    cluster: np.ndarray
    period: np.ndarray
    treated: np.ndarray
    cell_cluster: np.ndarray
    cell_period: np.ndarray
    cell_treated: np.ndarray
    cell_n: np.ndarray
    cell_unit: np.ndarray

    @property
    def n_obs(self) -> int:
        return self.cluster.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cell_cluster.shape[0]


def expand_design(space: DesignSpace, design: Design) -> DesignLayout:
    """Expand a design into per-observation and per-cell arrays.

    Sequence units are expanded copy by copy with fresh sequential cluster
    ids; cluster-period and observation units keep their parent cluster id
    and multiplicity scales the cell count.
    """
    design.validate(space)
    cells = []  # (cluster, period, treated, n_obs, unit_index)
    if space.granularity == "sequence":
        next_cluster = 0
        for j, mult in enumerate(design.counts):
            unit = space.units[j]
            for _ in range(mult):
                for cell in unit.cells:
                    cells.append((next_cluster, cell.period, cell.treated,
                                  cell.count, j))
                next_cluster += 1
    else:
        for j, mult in enumerate(design.counts):
            if mult == 0:
                continue
            unit = space.units[j]
            for cell in unit.cells:
                cells.append((unit.cluster_id, cell.period, cell.treated,
                              mult * cell.count, j))

    cell_cluster = np.array([c[0] for c in cells], dtype=int)
    cell_period = np.array([c[1] for c in cells], dtype=int)
    cell_treated = np.array([c[2] for c in cells], dtype=int)
    cell_n = np.array([c[3] for c in cells], dtype=int)
    cell_unit = np.array([c[4] for c in cells], dtype=int)

    cluster = np.repeat(cell_cluster, cell_n)
    period = np.repeat(cell_period, cell_n)
    treated = np.repeat(cell_treated, cell_n)
    return DesignLayout(cluster, period, treated, cell_cluster, cell_period,
                        cell_treated, cell_n, cell_unit)


def build_x(space: DesignSpace, design: Design) -> np.ndarray:
    """Fixed-effects matrix: one row per observation, T period indicator
    columns followed by the treatment indicator column."""
    lay = expand_design(space, design)
    n = lay.n_obs
    x = np.zeros((n, space.n_periods + 1))
    x[np.arange(n), lay.period - 1] = 1.0
    x[:, space.n_periods] = lay.treated
    return x


def _random_effects(lay: DesignLayout, cov: CovarianceSpec) -> tuple[np.ndarray, np.ndarray]:
    clusters = list(dict.fromkeys(lay.cell_cluster.tolist()))
    cluster_col = {c: i for i, c in enumerate(clusters)}
    n_cells = lay.n_cells
    obs_cell = np.repeat(np.arange(n_cells), lay.cell_n)

    if cov.kind == "EXC1":
        z = np.zeros((lay.n_obs, len(clusters)))
        z[np.arange(lay.n_obs), [cluster_col[c] for c in lay.cluster]] = 1.0
        d = cov.tau2 * np.eye(len(clusters))
        return z, d

    if cov.kind == "EXC2":
        k = len(clusters)
        z = np.zeros((lay.n_obs, k + n_cells))
        z[np.arange(lay.n_obs), [cluster_col[c] for c in lay.cluster]] = 1.0
        z[np.arange(lay.n_obs), k + obs_cell] = 1.0
        d = np.diag(np.concatenate([np.full(k, cov.tau2),
                                    np.full(n_cells, cov.omega2)]))
        return z, d

    # AR1: one column per cell, block covariance within each cluster
    z = np.zeros((lay.n_obs, n_cells))
    z[np.arange(lay.n_obs), obs_cell] = 1.0
    d = np.zeros((n_cells, n_cells))
    for c in clusters:
        idx = np.flatnonzero(lay.cell_cluster == c)
        lags = np.abs(lay.cell_period[idx][:, None] - lay.cell_period[idx][None, :])
        d[np.ix_(idx, idx)] = cov.tau2 * cov.decay ** lags
    return z, d


def build_z(space: DesignSpace, design: Design, cov: CovarianceSpec) -> np.ndarray:
    """Random-effects incidence matrix for the given covariance kind."""
    return _random_effects(expand_design(space, design), cov)[0]


def build_d(space: DesignSpace, design: Design, cov: CovarianceSpec) -> np.ndarray:
    """Random-effects covariance matrix matching the columns of ``build_z``."""
    return _random_effects(expand_design(space, design), cov)[1]
