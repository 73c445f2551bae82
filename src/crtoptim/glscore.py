"""Covariance assembly, information matrices, and the design criterion.

The criterion for a design is the variance of the generalised least
squares treatment-effect estimator: ``c' M^-1 c`` with ``M = X' Sigma^-1 X``
and ``c`` selecting the treatment coefficient. Designs whose information
matrix cannot identify the contrast are assigned an infinite criterion.

Evaluation never forms a dense ``Sigma^-1``: observations are aggregated
to cluster-period means (an exact reduction, since fixed effects are
constant within a cell) and each cluster contributes an independent small
block. :class:`DesignCriterion` caches those blocks so that optimisers can
score thousands of candidate designs cheaply.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec, iterated_weights
from .designspace import Design, DesignSpace, build_x, expand_design, _random_effects
from .errors import NumericDomainError, ValidationError

# Relative eigenvalue cutoff for rank decisions, and the tolerance on the
# residual of the contrast after projection onto the range of M.
RANK_TOL = 1e-10
RANGE_TOL = 1e-8


def treatment_contrast(n_params: int) -> np.ndarray:
    """Contrast selecting the treatment coefficient (the last column)."""
    c = np.zeros(n_params)
    c[-1] = 1.0
    return c


def _contrast_kernel(m: np.ndarray, c: np.ndarray):
    """Rank-aware eigen-solve behind every criterion value.

    Returns ``(value, coef, lam, vecs)`` with ``value = c' M^+ c``; callers
    that need the estimation direction form ``M^+ c = vecs @ (coef / lam)``.
    ``value`` is ``inf`` and the rest ``None`` when the contrast is outside
    the range of ``M`` or ``M`` is not positive semi-definite to tolerance.
    """
    m = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(m)
    wmax = w[-1] if w.size else 0.0
    if wmax <= 0.0 or w[0] < -RANK_TOL * wmax:
        return math.inf, None, None, None
    keep = w > RANK_TOL * wmax
    vecs, lam = v[:, keep], w[keep]
    coef = vecs.T @ c
    if np.linalg.norm(c - vecs @ coef) > RANGE_TOL * np.linalg.norm(c):
        return math.inf, None, None, None
    return float(np.sum(coef ** 2 / lam)), coef, lam, vecs


def contrast_variance(m: np.ndarray, c: np.ndarray) -> float:
    """``c' M^+ c`` through a rank-revealing eigendecomposition.

    Returns ``inf`` when the contrast is outside the range of ``M`` (the
    design carries no information on it) or when ``M`` is not positive
    semi-definite to tolerance.
    """
    return _contrast_kernel(m, c)[0]


def c_optimality(m: np.ndarray, c: np.ndarray) -> float:
    """Design criterion value for an information matrix and contrast."""
    m = np.asarray(m, dtype=float)
    c = np.asarray(c, dtype=float)
    if c.shape != (m.shape[0],):
        raise ValidationError("contrast length does not match the information matrix")
    return contrast_variance(m, c)


def information_matrix(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``X' Sigma^-1 X`` for an explicit observation covariance."""
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    try:
        solved = np.linalg.solve(sigma, x)
    except np.linalg.LinAlgError as exc:
        raise NumericDomainError("singular observation covariance") from exc
    m = x.T @ solved
    return 0.5 * (m + m.T)


def glm_weight_diagonal(model: ModelSpec, x: np.ndarray, z: np.ndarray,
                        d: np.ndarray, sigma2: float = 1.0) -> np.ndarray:
    """Per-observation iterated weights at the marginal mean ``X beta``.

    Gaussian-identity models return ``1/sigma2`` so that the implied
    observation-level variance is ``sigma2``. Attenuation (when enabled on
    the model) shrinks the predictor using the total random-effect
    variance of each observation.
    """
    x = np.asarray(x, dtype=float)
    if model.is_gaussian:
        return np.full(x.shape[0], 1.0 / sigma2)
    beta = model.beta_for(x.shape[1] - 1)
    eta = x @ beta
    re_var = float(np.max(np.einsum("ij,jk,ik->i", z, d, z))) if model.attenuate else 0.0
    return iterated_weights(model, eta, re_variance=re_var, sigma2=sigma2)


def build_sigma(space: DesignSpace, design: Design, cov: CovarianceSpec,
                model: ModelSpec | None = None) -> np.ndarray:
    """Observation covariance ``W^-1 + Z D Z'`` (exact in the Gaussian case)."""
    model = model or ModelSpec()
    lay = expand_design(space, design)
    z, d = _random_effects(lay, cov)
    x = build_x(space, design)
    w = glm_weight_diagonal(model, x, z, d, sigma2=cov.sigma2)
    sigma = z @ d @ z.T
    sigma[np.diag_indices_from(sigma)] += 1.0 / w
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericDomainError("assembled covariance is not positive definite") from exc
    return sigma


def _cell_block(model: ModelSpec, cov: CovarianceSpec, periods: np.ndarray,
                treated: np.ndarray, n_periods: int):
    """Cell-level pieces of the aggregated model: ``(x, base, w)``.

    ``x`` holds the fixed-effect row of each cell, ``base`` the within-cluster
    random-effect covariance between the cells, and ``w`` the iterated
    weight of one observation per cell. A cell holding ``n`` observations
    adds ``1 / (w n)`` to the diagonal of ``base``.
    """
    x = np.zeros((periods.size, n_periods + 1))
    x[np.arange(periods.size), periods - 1] = 1.0
    x[:, n_periods] = treated
    base = cov.within(np.abs(periods[:, None] - periods[None, :]))
    if model.is_gaussian:
        return x, base, np.full(periods.size, 1.0 / cov.sigma2)
    beta = model.beta_for(n_periods)
    eta = beta[periods - 1] + beta[n_periods] * treated
    return x, base, iterated_weights(model, eta, re_variance=cov.entry(0, 0),
                                     sigma2=cov.sigma2)


def aggregate_cluster_periods(space: DesignSpace, design: Design,
                              cov: CovarianceSpec,
                              model: ModelSpec | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-period mean model ``(Xbar, Sigmabar)`` for a design.

    One row per non-empty cell. The residual variance of a cell mean is
    the observation variance divided by the cell count, and the cell-level
    random-effect covariance is taken directly from the covariance
    function, so the criterion of the aggregated model equals the
    criterion of the observation-level model.
    """
    model = model or ModelSpec()
    lay = expand_design(space, design)
    if lay.n_cells == 0:
        raise ValidationError("design has no observations to aggregate")
    xbar, base, w = _cell_block(model, cov, lay.cell_period, lay.cell_treated,
                                space.n_periods)
    same_cluster = lay.cell_cluster[:, None] == lay.cell_cluster[None, :]
    sigbar = np.where(same_cluster, base, 0.0)
    sigbar[np.diag_indices_from(sigbar)] += 1.0 / (w * lay.cell_n)
    return xbar, sigbar


def unit_information_blocks(space: DesignSpace, cov: CovarianceSpec,
                            model: ModelSpec | None = None) -> np.ndarray:
    """Information contribution of one replicate of each unit, stacked
    (J, P, P). Valid whenever units occupy distinct clusters, so a
    design's information is the multiplicity-weighted sum of blocks."""
    model = model or ModelSpec()
    p = space.n_periods + 1
    blocks = np.zeros((space.n_units, p, p))
    for j, unit in enumerate(space.units):
        periods = np.array([c.period for c in unit.cells])
        treated = np.array([c.treated for c in unit.cells])
        counts = np.array([c.count for c in unit.cells])
        x, base, w = _cell_block(model, cov, periods, treated, space.n_periods)
        blocks[j] = x.T @ np.linalg.solve(base + np.diag(1.0 / (w * counts)), x)
    return blocks


@dataclass
class _ClusterBlock:
    unit_idx: np.ndarray     # owning unit index for each cell
    x: np.ndarray            # cell rows of the fixed-effects matrix
    base: np.ndarray         # cell-level random-effect covariance
    weight: np.ndarray       # iterated weight of one observation per cell
    n_per: np.ndarray        # observations added per unit replicate

    def solve(self, n_obs: np.ndarray):
        """``(sel, X_a, Sigma_a^-1 X_a)`` over the cells ``sel`` holding a
        positive number of observations ``n_obs``; ``None`` when none do."""
        sel = n_obs > 0
        if not sel.any():
            return None
        xa = self.x[sel]
        block = self.base[np.ix_(sel, sel)] + np.diag(
            1.0 / (self.weight[sel] * n_obs[sel]))
        return sel, xa, np.linalg.solve(block, xa)


def _cluster_blocks(space: DesignSpace, cov: CovarianceSpec,
                    model: ModelSpec) -> list[_ClusterBlock]:
    """One block per cluster, over the cells of all units in it."""
    by_cluster: dict[int, list[int]] = {}
    for j, unit in enumerate(space.units):
        by_cluster.setdefault(unit.cluster_id, []).append(j)
    clusters = []
    for cid in sorted(by_cluster):
        cells = [(j, cell) for j in by_cluster[cid] for cell in space.units[j].cells]
        x, base, w = _cell_block(model, cov,
                                 np.array([cell.period for _, cell in cells]),
                                 np.array([cell.treated for _, cell in cells]),
                                 space.n_periods)
        clusters.append(_ClusterBlock(
            unit_idx=np.array([j for j, _ in cells], dtype=int), x=x, base=base,
            weight=w, n_per=np.array([cell.count for _, cell in cells])))
    return clusters


class DesignCriterion:
    """Treatment-variance criterion for one covariance/model setting.

    Instances are immutable after construction; ``value`` maps a vector
    of per-unit multiplicities to the criterion. For sequence-granularity
    spaces the per-unit information blocks are precomputed once and
    summed, which makes repeated evaluation inside combinatorial searches
    cheap.
    """

    def __init__(self, space: DesignSpace, covariance: CovarianceSpec,
                 model: ModelSpec | None = None,
                 contrast: np.ndarray | None = None):
        self.space = space
        self.covariance = covariance
        self.model = model or ModelSpec()
        p = space.n_periods + 1
        self.contrast = (np.asarray(contrast, dtype=float)
                         if contrast is not None else treatment_contrast(p))
        if self.contrast.shape != (p,):
            raise ValidationError(f"contrast must have length {p}")
        self._n_params = p
        if space.granularity == "sequence":
            self._unit_blocks = unit_information_blocks(space, covariance, self.model)
            self._clusters = None
        else:
            self._unit_blocks = None
            self._clusters = _cluster_blocks(space, covariance, self.model)

    # -- evaluation ----------------------------------------------------

    def information(self, counts: np.ndarray) -> np.ndarray:
        """Information matrix of the design given per-unit multiplicities."""
        counts = np.asarray(counts)
        if self._unit_blocks is not None:
            return np.tensordot(counts.astype(float), self._unit_blocks, axes=1)
        m = np.zeros((self._n_params, self._n_params))
        for cl in self._clusters:
            part = cl.solve(counts[cl.unit_idx] * cl.n_per)
            if part is not None:
                _, xa, solved = part
                m += xa.T @ solved
        return m

    def value(self, counts) -> float:
        """Criterion value (treatment variance; ``inf`` when unidentified)."""
        return contrast_variance(self.information(counts), self.contrast)

    def value_of(self, design: Design) -> float:
        design.validate(self.space)
        return self.value(np.asarray(design.counts))
