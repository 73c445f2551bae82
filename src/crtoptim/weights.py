"""Continuous design weights over experimental units.

Two solvers are provided. :func:`mixed_model_weights` is a fixed-point
iteration on the generalised-least-squares estimation weights: the
current weights define the observation covariance, the covariance defines
the estimation weights of the best linear unbiased estimator, and the
Cauchy-Schwarz inequality turns those back into design weights. At
cluster-period (or observation) granularity only the residual part of the
covariance is weight-dependent and the update is ``phi ∝ |a| / sqrt(w)``,
with ``a`` the estimation weight and ``w`` the iterated weight of one
observation in each cell; at sequence granularity whole independent unit
blocks scale with their weight and the update becomes
``phi ∝ phi * sqrt(y' A_k y)``.

:func:`simplex_weight_descent` minimises the same criterion for mutually
uncorrelated units by projected gradient descent over the probability
simplex, serving as a generic cross-check on the fixed point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import DesignSpace
from .errors import ConvergenceError, InfeasibleError, ValidationError
from .glscore import (_cluster_blocks, _contrast_kernel, treatment_contrast,
                      unit_information_blocks)

# Cells whose weight falls below this bound are dropped for good.
WEIGHT_FLOOR = 1e-7
# A full update may not increase the criterion by more than this
# (relative); larger increases indicate a broken fixed point.
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class WeightedDesign:
    """A probability measure over the units of a design space."""

    weights: np.ndarray
    value: float
    iterations: int
    total_budget: float | None = None

    def __post_init__(self):
        s = float(np.sum(self.weights))
        if abs(s - 1.0) > 1e-10 or np.any(np.asarray(self.weights) < 0):
            raise ValidationError("weights must form a probability vector")


def _solve_one(m: np.ndarray, c: np.ndarray):
    """``(c' M^+ c, M^+ c)`` for one information matrix (a stack of one)."""
    f, h, vecs = _contrast_kernel(m[None], c)
    return float(f[0]), vecs[0] @ h[0]


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    holds = u + (1.0 - css) / idx > 0
    rho = idx[holds][-1]
    lam = (1.0 - css[rho - 1]) / rho
    return np.maximum(v + lam, 0.0)


def mixed_model_weights(space: DesignSpace, cov: CovarianceSpec,
                        model: ModelSpec | None = None,
                        contrast: np.ndarray | None = None,
                        total_obs: float | None = None,
                        tolerance: float = 1e-6,
                        max_iter: int = 10000) -> WeightedDesign:
    """Optimal design weights by fixed-point iteration.

    At cluster-period or observation granularity ``total_obs`` sets the
    target number of observations ``N`` and the covariance of a cell mean
    is its random-effect part plus ``1 / (N w phi)``, so each update sets
    ``phi ∝ |a| / sqrt(w)`` from the estimation weights ``a``. Cells
    dropping below ``1e-7`` weight are removed permanently; the rank-aware
    solve ignores period columns left without cells. At sequence
    granularity the weights are cluster proportions and ``total_obs`` only
    annotates the result.

    Raises :class:`ConvergenceError` past ``max_iter`` iterations (the
    error carries the last iterate) or if an update increases the
    criterion beyond tolerance, and :class:`InfeasibleError` when the
    contrast is not identified by the full space.
    """
    model = model or ModelSpec()
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    p = space.n_periods + 1
    c = (np.asarray(contrast, dtype=float) if contrast is not None
         else treatment_contrast(p))
    if c.shape != (p,):
        raise ValidationError(f"contrast must have length {p}")
    if space.granularity == "sequence":
        return _block_fixed_point(space, cov, model, c, total_obs,
                                  tolerance, max_iter)
    if total_obs is None or total_obs <= 0:
        raise ValidationError("cluster-period weights need a positive total_obs")
    return _cell_fixed_point(space, cov, model, c, float(total_obs),
                             tolerance, max_iter)


def _block_fixed_point(space, cov, model, c, total_obs, tolerance, max_iter):
    blocks = unit_information_blocks(space, cov, model)
    j = space.n_units
    phi = np.full(j, 1.0 / j)
    active = np.ones(j, dtype=bool)
    f_prev = math.inf
    converged = False
    for it in range(1, max_iter + 2):
        f, y = _solve_one(np.tensordot(phi, blocks, axes=1), c)
        if not math.isfinite(f):
            raise InfeasibleError("contrast is not identified by the design space")
        if converged:
            # one extra pass so the reported value belongs to the final weights
            return WeightedDesign(phi, f, it - 1, total_budget=total_obs)
        if it > max_iter:
            break
        if f > f_prev * (1.0 + MONOTONE_SLACK):
            raise ConvergenceError(
                f"criterion increased at iteration {it}: {f_prev} -> {f}",
                weights=phi.copy(), iterations=it)
        f_prev = f
        gain = np.einsum("i,kij,j->k", y, blocks, y)
        gain[~active] = 0.0
        q = phi * np.sqrt(np.maximum(gain, 0.0))
        total = q.sum()
        if total <= 0:
            raise InfeasibleError("all units carry zero estimation weight")
        phi_new = q / total
        delta = np.abs(phi - phi_new).max()
        phi = phi_new
        dropped = active & (phi < WEIGHT_FLOOR)
        if dropped.any():
            active &= ~dropped
            phi[dropped] = 0.0
            phi /= phi.sum()
            f_prev = math.inf  # dropping re-baselines the monitor
        elif delta <= tolerance:
            converged = True
    raise ConvergenceError(f"no convergence in {max_iter} iterations",
                           weights=phi, iterations=max_iter)


def _cell_fixed_point(space, cov, model, c, total_obs, tolerance, max_iter):
    for unit in space.units:
        if len(unit.cells) != 1:
            raise ValidationError(
                "cluster-period weights need single-cell experimental units")
    clusters = _cluster_blocks(space, cov, model)
    sqrt_w = np.sqrt(clusters.weight)
    j = space.n_units
    phi = np.full(j, 1.0 / j)
    active = np.ones(j, dtype=bool)
    f_prev = math.inf
    converged = False

    for it in range(1, max_iter + 2):
        s, t, m = clusters.solve(total_obs * phi[clusters.unit_idx])
        f, y = _solve_one(m, c)
        if not math.isfinite(f):
            raise InfeasibleError("contrast is not identified by the design space")
        if converged:
            # one extra pass so the reported value belongs to the final weights
            return WeightedDesign(phi, f, it - 1, total_budget=total_obs)
        if it > max_iter:
            break
        if f > f_prev * (1.0 + MONOTONE_SLACK):
            raise ConvergenceError(
                f"criterion increased at iteration {it}: {f_prev} -> {f}",
                weights=phi.copy(), iterations=it)
        f_prev = f

        # the residual part of the criterion is sum a^2 / (N w phi), which
        # the simplex minimises at phi proportional to |a| / sqrt(w), with
        # the estimation weights a = Sigma^-1 X y = S t y
        q = np.bincount(clusters.unit_idx.ravel(), minlength=j,
                        weights=(np.abs(s * (t @ y)) / sqrt_w).ravel())
        total = q.sum()
        if total <= 0:
            raise InfeasibleError("all cells carry zero estimation weight")
        phi_new = q / total
        delta = np.abs(phi - phi_new).max()
        phi = phi_new

        dropped = active & (phi < WEIGHT_FLOOR)
        if dropped.any():
            active &= ~dropped
            if not active.any():
                raise InfeasibleError("all cells were dropped")
            phi[dropped] = 0.0
            phi /= phi.sum()
            f_prev = math.inf  # dropping re-baselines the monitor
        elif delta <= tolerance:
            converged = True
    raise ConvergenceError(f"no convergence in {max_iter} iterations",
                           weights=phi, iterations=max_iter)


def simplex_weight_descent(space: DesignSpace, cov: CovarianceSpec,
                           model: ModelSpec | None = None,
                           contrast: np.ndarray | None = None,
                           tolerance: float = 1e-8,
                           max_iter: int = 100000) -> WeightedDesign:
    """Minimise the weighted-design criterion by projected gradient descent.

    Requires mutually uncorrelated units (sequence granularity), for which
    the information matrix is the weight-combination of per-unit blocks.
    Backtracking with step doubling keeps every accepted move a descent
    step; convergence is declared when the unit-step projected-gradient
    residual falls below ``tolerance``.
    """
    model = model or ModelSpec()
    if space.granularity != "sequence":
        raise ValidationError(
            "simplex descent requires mutually uncorrelated (sequence) units")
    p = space.n_periods + 1
    c = (np.asarray(contrast, dtype=float) if contrast is not None
         else treatment_contrast(p))
    if c.shape != (p,):
        raise ValidationError(f"contrast must have length {p}")
    blocks = unit_information_blocks(space, cov, model)
    j = space.n_units
    phi = np.full(j, 1.0 / j)

    def f_grad(pvec):
        f, y = _solve_one(np.tensordot(pvec, blocks, axes=1), c)
        if not math.isfinite(f):
            return math.inf, None
        return f, -np.einsum("i,kij,j->k", y, blocks, y)

    fval, grad = f_grad(phi)
    if not math.isfinite(fval):
        raise InfeasibleError(
            "criterion is infinite for every weighting of this space")
    step = 1.0
    prev_phi = prev_grad = None
    for it in range(1, max_iter + 1):
        residual = np.abs(phi - project_to_simplex(phi - grad)).max()
        if residual <= tolerance:
            return WeightedDesign(phi, fval, it)
        if prev_phi is not None:
            # Barzilai-Borwein step, safeguarded by the backtracking below
            dphi = phi - prev_phi
            dgrad = grad - prev_grad
            denom = float(dphi @ dgrad)
            if denom > 0:
                step = min(max(float(dphi @ dphi) / denom, 1e-12), 1e12)
        cand = project_to_simplex(phi - step * grad)
        fc, gc = f_grad(cand)
        while (not math.isfinite(fc)
               or fc > fval - 1e-4 * float(grad @ (phi - cand))) and step > 1e-16:
            step *= 0.5
            cand = project_to_simplex(phi - step * grad)
            fc, gc = f_grad(cand)
        if np.abs(cand - phi).max() == 0.0:
            # descent has hit numerical precision; the iterate is stationary
            # to the accuracy the arithmetic supports
            return WeightedDesign(phi, fval, it)
        prev_phi, prev_grad = phi, grad
        phi, fval, grad = cand, fc, gc
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations", weights=phi,
        iterations=max_iter)
