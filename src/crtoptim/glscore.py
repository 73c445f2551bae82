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

Scoring is batched: :meth:`DesignCriterion.values` maps a ``(K, J)`` matrix
of per-unit counts to ``K`` criteria through one stacked rank-aware
eigen-solve over ``(K, P, P)`` information matrices, and every other
criterion value (``value``, ``contrast_variance``, the weight solvers) is
that kernel on a stack of one. Each row's information matrix is
accumulated in a fixed order over units or clusters, never by one BLAS
product across rows whose kernel (and rounding) could change with ``K``,
so a row's value is bit-identical whichever batch it is scored in.
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
# Working-array budget of one stacked evaluation; ``values`` scores larger
# batches in chunks, so a big neighbourhood never builds a
# ``(K, clusters, cells, cells)`` array beyond this size.
CHUNK_BYTES = 1 << 24


def treatment_contrast(n_params: int) -> np.ndarray:
    """Contrast selecting the treatment coefficient (the last column)."""
    c = np.zeros(n_params)
    c[-1] = 1.0
    return c


def _contrast_kernel(m: np.ndarray, c: np.ndarray):
    """Rank-aware eigen-solve behind every criterion value.

    ``m`` is a stack ``(..., P, P)`` of information matrices. Returns
    ``(value, h, vecs)`` with ``value[...] = c' M^+ c``; callers that need
    the estimation direction form ``M^+ c = vecs @ h``. ``value`` is ``inf``
    where the contrast is outside the range of ``M`` or ``M`` is not
    positive semi-definite to tolerance. Every matrix is decided and solved
    on its own, so its results do not depend on the rest of the stack.
    """
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    w, vecs = np.linalg.eigh(m)
    wmax = w[..., -1:]
    keep = w > RANK_TOL * np.maximum(wmax, 0.0)
    coef = c @ vecs
    lam = np.where(keep, w, np.inf)
    # np.add.reduce is what np.sum calls, without its per-call wrapper
    value = np.add.reduce(coef ** 2 / lam, axis=-1)
    # the part of c outside the range of M lies along the dropped
    # eigenvectors; written so that a NaN matrix also counts as bad
    outside = np.add.reduce(np.where(keep, 0.0, coef) ** 2, axis=-1)
    bad = ((wmax[..., 0] <= 0.0) | (w[..., 0] < -RANK_TOL * wmax[..., 0])
           | ~(outside <= RANGE_TOL ** 2 * (c @ c)))
    value[bad] = np.inf
    return value, coef / lam, vecs


def contrast_variance(m: np.ndarray, c: np.ndarray) -> float:
    """``c' M^+ c`` through a rank-revealing eigendecomposition.

    Returns ``inf`` when the contrast is outside the range of ``M`` (the
    design carries no information on it) or when ``M`` is not positive
    semi-definite to tolerance.
    """
    return float(_contrast_kernel(np.asarray(m, dtype=float)[None], c)[0][0])


def c_optimality(m: np.ndarray, c: np.ndarray) -> float:
    """Design criterion value for an information matrix and contrast."""
    m = np.asarray(m, dtype=float)
    c = np.asarray(c, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("information matrix must be square")
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
class _ClusterBlocks:
    """Cell-level pieces of every cluster, stacked over clusters and padded
    to a common cell count: ``(C, c, ...)``. A padding cell has a zero row
    in ``x``, never holds observations and so adds zero wherever it goes."""

    unit_idx: np.ndarray     # (C, c) owning unit of each cell
    x: np.ndarray            # (C, c, P) cell rows of the fixed-effects matrix
    base: np.ndarray         # (C, c, c) cell-level random-effect covariance
    weight: np.ndarray       # (C, c) iterated weight of one observation per cell
    n_per: np.ndarray        # (C, c) observations added per unit replicate

    def __post_init__(self):
        # per-cell constants of every solve and gradient
        self._eye = np.eye(self.unit_idx.shape[-1])
        self._cell_unit = self.unit_idx.ravel()
        self._cell_slope = -(self.n_per * self.weight).ravel()

    def solve(self, n_obs: np.ndarray):
        """``(s, t, info)`` for observation counts ``n_obs`` (``(..., C, c)``).

        With ``S = diag(s)``, ``s = sqrt(w n_obs)``, the covariance of a
        cluster's cell means is ``B + S^-2``, so the cluster adds ``sx' t``
        to the information, with ``sx = S X`` and ``t = (I + S B S)^-1 S X``,
        and its GLS weights are ``Sigma^-1 X = S t``. Cells holding no
        observations get zero rows and drop out. ``info`` sums the clusters
        in order: ``(..., P, P)``.
        """
        s = np.sqrt(self.weight * n_obs)
        sx = s[..., None] * self.x
        a = self.base * (s[..., :, None] * s[..., None, :]) + self._eye
        t = np.linalg.solve(a, sx)
        per_cluster = np.swapaxes(sx, -1, -2) @ t
        # a reduction over an outer axis adds the clusters one after another;
        # starting from -0.0 keeps every bit, signed zeros included, of
        # summing them in a loop
        return s, t, np.add.reduce(per_cluster, axis=-3, initial=-0.0)

    def gradient(self, s: np.ndarray, t: np.ndarray, y: np.ndarray,
                 n_units: int) -> np.ndarray:
        """Cluster-granularity ``grad`` of :meth:`DesignCriterion.gradient`
        from one design's ``(s, t)`` (``(C, c)``, ``(C, c, P)``) and
        ``y = M^+ c``."""
        a = s * (t @ y)
        v = self.x @ y - (self.base @ a[..., None])[..., 0]
        return np.bincount(self._cell_unit, weights=self._cell_slope * (v * v).ravel(),
                           minlength=n_units)


def _cluster_blocks(space: DesignSpace, cov: CovarianceSpec,
                    model: ModelSpec) -> _ClusterBlocks:
    """One block per cluster, over the cells of all units in it."""
    by_cluster: dict[int, list[int]] = {}
    for j, unit in enumerate(space.units):
        by_cluster.setdefault(unit.cluster_id, []).append(j)
    cells = [[(j, cell) for j in by_cluster[cid] for cell in space.units[j].cells]
             for cid in sorted(by_cluster)]
    shape = (len(cells), max(len(cl) for cl in cells))
    unit_idx = np.zeros(shape, dtype=int)
    x = np.zeros(shape + (space.n_periods + 1,))
    base = np.zeros(shape + shape[-1:])
    weight = np.ones(shape)
    n_per = np.zeros(shape, dtype=int)
    for k, cl in enumerate(cells):
        n = len(cl)
        x[k, :n], base[k, :n, :n], weight[k, :n] = _cell_block(
            model, cov, np.array([cell.period for _, cell in cl]),
            np.array([cell.treated for _, cell in cl]), space.n_periods)
        unit_idx[k, :n] = [j for j, _ in cl]
        n_per[k, :n] = [cell.count for _, cell in cl]
    return _ClusterBlocks(unit_idx, x, base, weight, n_per)


class DesignCriterion:
    """Treatment-variance criterion for one covariance/model setting.

    Instances are immutable after construction; ``value`` maps a vector
    of per-unit multiplicities to the criterion and ``values`` maps a
    ``(K, J)`` batch of them to ``K`` criteria in one call, which is how
    the combinatorial searches score a whole neighbourhood; ``gradient``
    adds the derivative in each multiplicity, which the weight solvers
    follow. For sequence-granularity spaces the per-unit information
    blocks are precomputed once and summed; otherwise the padded cell
    blocks of all clusters are solved in one stacked call for the whole
    batch.
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
            row_bytes = 8 * p * p
        else:
            self._unit_blocks = None
            self._clusters = _cluster_blocks(space, covariance, self.model)
            n_clusters, n_cells = self._clusters.unit_idx.shape
            row_bytes = 8 * n_clusters * n_cells * (n_cells + 2 * p)
        self._chunk_rows = max(1, CHUNK_BYTES // row_bytes)

    # -- evaluation ----------------------------------------------------

    def _batch(self, batch) -> np.ndarray:
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != self.space.n_units:
            raise ValidationError(
                f"counts must be a (K, {self.space.n_units}) batch of "
                f"per-unit multiplicities, got shape {batch.shape}")
        # one pass catches negative, NaN and infinite entries alike
        if not ((batch >= 0) & (batch < np.inf)).all():
            raise ValidationError(
                "multiplicities must be finite and non-negative")
        return batch

    def _information(self, batch: np.ndarray) -> np.ndarray:
        """Information matrices ``(K, P, P)`` of a checked ``(K, J)`` batch.

        Sums run in a fixed order over units (or clusters) whatever ``K``
        is, so a row's matrix does not depend on the rest of the batch.
        """
        if self._unit_blocks is not None:
            # einsum accumulates over units in order for every row; a BLAS
            # product would switch kernels (and rounding) with K
            return np.einsum("kj,jab->kab", batch, self._unit_blocks)
        cl = self._clusters
        return cl.solve(batch[:, cl.unit_idx] * cl.n_per)[2]

    def information(self, counts) -> np.ndarray:
        """Information matrix of the design given per-unit multiplicities."""
        return self._information(self._batch(np.asarray(counts)[None]))[0]

    def values(self, batch) -> np.ndarray:
        """Criterion values of a ``(K, J)`` batch of per-unit multiplicities,
        one per row; row ``i`` equals ``value(batch[i])`` bit for bit.

        Multiplicities must be finite and non-negative; a fractional row is
        legal and scores the weighted design it describes (the weight
        solvers evaluate ``N * phi``). Raises :class:`ValidationError`
        otherwise.
        """
        batch = self._batch(batch)
        if len(batch) <= self._chunk_rows:
            return _contrast_kernel(self._information(batch), self.contrast)[0]
        return np.concatenate([self.values(batch[i:i + self._chunk_rows])
                               for i in range(0, len(batch), self._chunk_rows)])

    def value(self, counts) -> float:
        """Criterion value (treatment variance; ``inf`` when unidentified)."""
        return float(self.values(np.asarray(counts)[None])[0])

    def gradient(self, counts) -> tuple[float, np.ndarray]:
        """``(value, grad)`` of one row of multiplicities, with ``grad[j]``
        the derivative of the value in ``counts[j]``.

        With ``y = M^+ c``, unit ``j`` gives ``-y' B_j y`` at sequence
        granularity, ``B_j`` its information block. At cluster granularity,
        from the same stacked solve as the value, a cell holding ``n``
        observations adds ``-n_per w v^2`` to its unit, where
        ``v = X y - B a = a / (w n)`` is the residual part of the GLS
        weights ``a = S t y``; unlike ``a / (w n)`` it stays finite at
        empty cells. ``grad`` is NaN where the value is infinite.
        """
        batch = self._batch(np.asarray(counts)[None])
        cl = self._clusters
        if cl is None:
            m = self._information(batch)
        else:
            s, t, m = cl.solve(batch[:, cl.unit_idx] * cl.n_per)
        value, h, vecs = _contrast_kernel(m, self.contrast)
        value = float(value[0])
        if value == math.inf:
            return value, np.full(self.space.n_units, np.nan)
        y = vecs[0] @ h[0]
        if cl is None:
            return value, -np.einsum("i,kij,j->k", y, self._unit_blocks, y)
        return value, cl.gradient(s[0], t[0], y, self.space.n_units)

    def value_of(self, design: Design) -> float:
        design.validate(self.space)
        return self.value(np.asarray(design.counts))
