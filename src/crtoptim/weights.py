"""Continuous design weights over experimental units.

A weighted design gives unit ``j`` the share ``phi_j`` of a total unit
multiplicity ``N``, so ``N * phi_j`` are its (fractional) replicates and
its criterion is ``DesignCriterion.value(N * phi)``. When every cell holds
one observation, ``N`` is the number of observations.

Two solvers minimise that criterion over the probability simplex, both
on :meth:`DesignCriterion.gradient`. :func:`mixed_model_weights` is the
multiplicative fixed point ``phi ∝ phi * sqrt(-grad(N * phi))``. At
sequence granularity ``-grad_j = y' B_j y`` for the unit blocks ``B_j``
and ``y = M^-1 c``; at cluster-period (or observation) granularity it is
``n_per w v^2 = a^2 / (w n_per (N phi)^2)``, so the update is the
Cauchy-Schwarz optimum ``phi ∝ |a| / sqrt(w n_per)`` of the residual part
``sum a^2 / (N w n_per phi)`` of the criterion, with ``a`` the GLS
estimation weight of a cell and ``w`` the iterated weight of one of its
observations. :func:`simplex_weight_descent` minimises the same criterion
for mutually uncorrelated units by projected gradient descent, serving as
a generic cross-check on the fixed point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import DesignSpace
from .errors import ConvergenceError, InfeasibleError, ValidationError
from .glscore import DesignCriterion

# Units whose weight falls below this bound are dropped for good.
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
    """Optimal design weights by the multiplicative fixed point.

    Each iteration sets ``phi ∝ phi * sqrt(-grad)`` from the criterion's
    gradient at ``N * phi``. At cluster-period or observation granularity
    ``total_obs`` is the total unit multiplicity ``N`` (the number of
    observations when every cell holds one) and is required; at sequence
    granularity the weights are cluster proportions, the criterion is
    scored at ``phi`` itself and ``total_obs`` only annotates the result.
    Units dropping below ``1e-7`` weight are removed permanently; the
    rank-aware solve ignores period columns left without cells.

    Raises :class:`ConvergenceError` past ``max_iter`` iterations (the
    error carries the last iterate) or if an update increases the
    criterion beyond tolerance, and :class:`InfeasibleError` when the
    contrast is not identified by the full space.
    """
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    scale = 1.0
    if space.granularity != "sequence":
        if total_obs is None or total_obs <= 0:
            raise ValidationError("cluster-period weights need a positive total_obs")
        if any(len(unit.cells) != 1 for unit in space.units):
            raise ValidationError(
                "cluster-period weights need single-cell experimental units")
        scale = float(total_obs)
    crit = DesignCriterion(space, cov, model, contrast)
    phi = np.full(space.n_units, 1.0 / space.n_units)
    active = np.ones(space.n_units, dtype=bool)
    f_prev = math.inf
    converged = False
    for it in range(1, max_iter + 2):
        f, grad = crit.gradient(scale * phi)
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
        q = phi * np.sqrt(np.maximum(-grad, 0.0))
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
    if space.granularity != "sequence":
        raise ValidationError(
            "simplex descent requires mutually uncorrelated (sequence) units")
    f_grad = DesignCriterion(space, cov, model, contrast).gradient
    phi = np.full(space.n_units, 1.0 / space.n_units)

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
