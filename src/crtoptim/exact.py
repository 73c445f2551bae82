"""Closed-form precision and optimal-weight formulas for linear mixed models.

These serve two purposes: fast solvers for the model classes they cover
(nested-exchangeable designs with equal cluster-period sizes), and
independent oracles for the matrix-based machinery. The precision formula
works at the level of cluster-period means, where the cell variance is
``omega2 + sigma2/n`` and the cluster-mean reliability

    R = T * rho_bar / (1 + (T - 1) * rho_bar)

with ``rho_bar`` the intra-class correlation of a cell mean.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count, check_instance, check_real


@dataclass(frozen=True)
class CellMeanParams:
    """Parameters of the cluster-period mean model with equal cell sizes."""

    n_clusters: int
    n_periods: int
    obs_per_cell: int
    tau2: float
    omega2: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        for name in ("n_clusters", "n_periods", "obs_per_cell"):
            check_count(name, getattr(self, name))
        for name in ("tau2", "omega2", "sigma2"):
            check_real(name, getattr(self, name))
        if self.n_clusters < 1 or self.n_periods < 1 or self.obs_per_cell < 1:
            raise ValidationError("cluster, period, and cell counts must be positive")
        # written so that a NaN component fails
        if not (0 <= self.tau2 < np.inf and 0 <= self.omega2 < np.inf
                and 0 < self.sigma2 < np.inf):
            raise ValidationError("variance components out of range")

    @property
    def cell_variance(self) -> float:
        """Residual variance of one cluster-period mean."""
        return self.omega2 + self.sigma2 / self.obs_per_cell

    @property
    def rho_bar(self) -> float:
        """Intra-class correlation at the cluster-period mean level."""
        return self.tau2 / (self.tau2 + self.cell_variance)

    @property
    def cluster_mean_correlation(self) -> float:
        """Reliability R of a whole-cluster mean over the study periods."""
        rb = self.rho_bar
        return self.n_periods * rb / (1.0 + (self.n_periods - 1.0) * rb)


def _treatment_matrix(treat_matrix) -> np.ndarray:
    """``treat_matrix`` as a 2-dimensional float array of 0/1 entries, with
    at least one cluster row and one period."""
    try:
        treat = np.asarray(treat_matrix, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("treatment matrix must be a numeric array") from exc
    if treat.ndim != 2 or 0 in treat.shape:
        raise ValidationError("treatment matrix must be 2-dimensional and non-empty")
    if not np.isin(treat, (0.0, 1.0)).all():
        raise ValidationError("treatment matrix entries must be 0 or 1")
    return treat


def design_coefficients(treat_matrix: np.ndarray) -> tuple[float, float]:
    """Design-dependent coefficients of the precision formula.

    ``a`` is the mean squared deviation of the treatment indicators from
    their period means; ``b`` is the variance of the per-cluster mean
    treatment exposure. Both are invariant to permuting cluster rows.
    """
    treat = _treatment_matrix(treat_matrix)
    period_means = treat.mean(axis=0)
    a = float(((treat - period_means) ** 2).mean())
    cluster_means = treat.mean(axis=1)
    b = float(((cluster_means - treat.mean()) ** 2).mean())
    return a, b


def treatment_precision(params: CellMeanParams, treat_matrix: np.ndarray) -> float:
    """Precision (1/variance) of the treatment-effect estimator.

    Exact for the nested-exchangeable model with every cluster observed in
    every period at equal cell size:

        precision = m * T * (a - R * b) / (omega2 + sigma2 / n)

    A non-positive value signals a degenerate design whose treatment
    variance is infinite.
    """
    check_instance("params", params, CellMeanParams)
    treat = _treatment_matrix(treat_matrix)
    m, t = treat.shape
    if (m, t) != (params.n_clusters, params.n_periods):
        raise ValidationError(
            f"treatment matrix is {treat.shape}, parameters describe "
            f"({params.n_clusters}, {params.n_periods})")
    a, b = design_coefficients(treat)
    r = params.cluster_mean_correlation
    precision = m * t * (a - r * b) / params.cell_variance
    return max(precision, 0.0)


def optimal_switch_ordering(n_clusters: int, n_periods: int,
                            cluster_mean_correlation: float,
                            treated_cells: int) -> np.ndarray:
    """Best no-reversibility treatment matrix with a given treated-cell count.

    Clusters and periods are mapped to evenly spaced midpoints of
    [-1/2, 1/2]; starting from the all-control matrix, cells switch to
    treated in decreasing order of ``R * x_period - x_cluster`` until the
    budget is met. Ties break towards the lower cluster index, then the
    later period, so the output is deterministic; each cluster row is
    non-decreasing over time. Raises :class:`ValidationError` unless the
    sizes are positive integers, the correlation a real number in [0, 1]
    and the budget an integer in [0, ``n_clusters * n_periods``].
    """
    m, t = n_clusters, n_periods
    for name, value in (("n_clusters", m), ("n_periods", t),
                        ("treated_cells", treated_cells)):
        check_count(name, value)
    if m < 1 or t < 1:
        raise ValidationError("n_clusters and n_periods must be at least 1")
    check_real("cluster_mean_correlation", cluster_mean_correlation)
    # written so that a NaN correlation fails
    if not 0.0 <= cluster_mean_correlation <= 1.0:
        raise ValidationError("cluster_mean_correlation must lie in [0, 1]")
    if not 0 <= treated_cells <= m * t:
        raise ValidationError(f"treated cell budget must lie in [0, {m * t}]")
    x_cluster = (2.0 * np.arange(1, m + 1) - 1.0 - m) / (2.0 * m)
    x_period = (2.0 * np.arange(1, t + 1) - 1.0 - t) / (2.0 * t)
    score = cluster_mean_correlation * x_period[None, :] - x_cluster[:, None]
    order = sorted(((j, k) for j in range(m) for k in range(t)),
                   key=lambda jk: (-score[jk], jk[0], -jk[1]))
    treat = np.zeros((m, t), dtype=int)
    for j, k in order[:treated_cells]:
        treat[j, k] = 1
    return treat


def _weight_domain(n_periods, obs_per_cell, icc, min_periods):
    check_count("n_periods", n_periods)
    check_count("obs_per_cell", obs_per_cell)
    check_real("icc", icc)
    if n_periods < min_periods:
        raise ValidationError(f"needs at least {min_periods} periods")
    if obs_per_cell < 1:
        raise ValidationError("obs_per_cell must be at least 1")
    if not 0.0 <= icc < 1.0:
        raise ValidationError("icc must lie in [0, 1)")


def stepped_wedge_weights(n_periods: int, obs_per_cell: int, icc: float) -> np.ndarray:
    """Optimal cluster proportions across the T-1 stepped-wedge sequences.

    Closed form for the cluster-exchangeable linear model: the two extreme
    sequences share ``(1 + icc(3r - 1)) / (2(1 + icc(rT - 1)))`` and every
    interior sequence gets ``r * icc / (1 + icc(rT - 1))``.
    """
    _weight_domain(n_periods, obs_per_cell, icc, min_periods=3)
    t, r = n_periods, obs_per_cell
    den = 1.0 + icc * (r * t - 1.0)
    phi = np.full(t - 1, r * icc / den)
    phi[0] = phi[-1] = (1.0 + icc * (3.0 * r - 1.0)) / (2.0 * den)
    return phi


def unidirectional_weights(n_periods: int, obs_per_cell: int, icc: float) -> np.ndarray:
    """Optimal cluster proportions across all T+1 monotone switch sequences.

    Extends the stepped-wedge weights with the all-control and
    all-intervention sequences, which share
    ``(1 + icc(r - 1)) / (2(1 + icc(rT - 1)))``; the T-1 switch sequences
    each get ``r * icc / (1 + icc(rT - 1))``. At ``icc = 0`` the weights
    collapse to a parallel design.
    """
    _weight_domain(n_periods, obs_per_cell, icc, min_periods=2)
    t, r = n_periods, obs_per_cell
    den = 1.0 + icc * (r * t - 1.0)
    phi = np.full(t + 1, r * icc / den)
    phi[0] = phi[-1] = (1.0 + icc * (r - 1.0)) / (2.0 * den)
    return phi
