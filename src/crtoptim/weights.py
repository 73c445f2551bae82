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
observations. The map runs in SQUAREM cycles (Varadhan & Roland, Scand.
J. Statist. 35, 2008), which extrapolate between two plain steps and fall
back to them; the fixed point, its stop rule and the monotone descent of
every plain step are those of the plain map, and only the number of
criterion evaluations drops. :func:`simplex_weight_descent` minimises the
same criterion at sequence granularity by projected gradient descent,
serving as a generic cross-check on the fixed point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import DesignSpace
from .errors import ConvergenceError, InfeasibleError, ValidationError
from .glscore import CRITERION_ROUNDING, DesignCriterion

# Units whose weight falls below this bound are dropped for good.
WEIGHT_FLOOR = 1e-7
# A plain step of the map may not increase the criterion by more than this
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


def _residual(phi: np.ndarray, grad: np.ndarray) -> float:
    """Unit-step projected-gradient residual: zero exactly at a minimiser."""
    return float(np.abs(phi - project_to_simplex(phi - grad)).max())


def mixed_model_weights(space: DesignSpace, cov: CovarianceSpec,
                        model: ModelSpec | None = None,
                        contrast: np.ndarray | None = None,
                        total_obs: float | None = None,
                        tolerance: float = 1e-6,
                        max_iter: int = 10000) -> WeightedDesign:
    """Optimal design weights by the multiplicative fixed point.

    The map sets ``phi ∝ phi * sqrt(-grad)`` from the criterion's
    gradient at ``N * phi``. At cluster-period or observation granularity
    ``total_obs`` is the total unit multiplicity ``N`` (the number of
    observations when every cell holds one) and is required; at sequence
    granularity the weights are cluster proportions, the criterion is
    scored at ``phi`` itself and ``total_obs`` only annotates the result.

    The map runs in SQUAREM cycles (Varadhan & Roland, Scand. J. Statist.
    35, 2008): from two plain steps ``p1 = F(phi)`` and ``p2 = F(p1)`` the
    cycle tries the extrapolation ``phi - 2 alpha r + alpha^2 v`` with
    ``r = p1 - phi``, ``v = p2 - 2 p1 + phi`` and
    ``alpha = min(-|r|/|v|, -1)``. It accepts the point only if every
    active weight stays positive and its criterion does not exceed that of
    ``p1``; otherwise ``alpha`` is halved until it reaches -1, which is the
    plain double step ``p2``. The fixed point is that of the plain map, and
    the run stops once a plain step moves no weight by more than
    ``tolerance``, returning that step's weights and their criterion.
    Units dropping below ``1e-7`` weight on a plain step are removed
    permanently; the rank-aware solve ignores period columns left without
    cells.

    ``iterations`` counts criterion evaluations, the final one at the
    returned weights included, and ``max_iter`` bounds them.

    Raises :class:`ConvergenceError` when ``max_iter`` evaluations do not
    suffice (the error carries the last iterate) or if a plain step
    increases the criterion beyond tolerance, and :class:`InfeasibleError`
    when the contrast is not identified by the full space.
    """
    if not tolerance > 0:
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
    calls = 0

    def evaluate(point):
        nonlocal calls
        if calls == max_iter:
            raise ConvergenceError(
                f"no convergence in {max_iter} criterion evaluations",
                weights=phi, iterations=max_iter)
        calls += 1
        return crit.gradient(scale * point)

    f, grad = evaluate(phi)
    if not math.isfinite(f):
        raise InfeasibleError("contrast is not identified by the design space")
    start = None  # the cycle's first point while phi is its first plain step
    while True:
        q = phi * np.sqrt(np.maximum(-grad, 0.0))
        total = q.sum()
        if total <= 0:
            raise InfeasibleError("all units carry zero estimation weight")
        mapped = q / total
        delta = np.abs(phi - mapped).max()
        dropped = active & (mapped < WEIGHT_FLOOR)
        drop = bool(dropped.any())
        if drop:
            active &= ~dropped
            mapped[dropped] = 0.0
            mapped /= mapped.sum()
            start = None  # dropping restarts the cycle and re-baselines the monitor
        elif delta <= tolerance:
            # one extra evaluation so the reported value belongs to the weights
            return WeightedDesign(mapped, evaluate(mapped)[0], calls,
                                  total_budget=total_obs)
        elif start is not None:
            # phi = F(start) and mapped = F(phi): try the SQUAREM extrapolation
            r = phi - start
            v = mapped - 2.0 * phi + start
            v_norm = np.linalg.norm(v)
            alpha = min(-np.linalg.norm(r) / v_norm, -1.0) if v_norm > 0 else -1.0
            while alpha < -1.0:
                trial = start - 2.0 * alpha * r + alpha * alpha * v
                if (trial[active] > 0).all():
                    trial /= trial.sum()
                    f_trial, grad_trial = evaluate(trial)
                    if f_trial <= f:
                        break
                alpha = max(0.5 * alpha, -1.0)
            if alpha < -1.0:
                phi, f, grad, start = trial, f_trial, grad_trial, None
                continue
        # a plain step of the map: alpha = -1 ends the cycle at F(F(start))
        f_mapped, grad_mapped = evaluate(mapped)
        if not math.isfinite(f_mapped):
            raise InfeasibleError("contrast is not identified by the design space")
        if not drop and f_mapped > f * (1.0 + MONOTONE_SLACK):
            raise ConvergenceError(
                f"criterion increased at evaluation {calls}: {f} -> {f_mapped}",
                weights=phi.copy(), iterations=calls)
        start = phi if start is None and not drop else None
        phi, f, grad = mapped, f_mapped, grad_mapped


def simplex_weight_descent(space: DesignSpace, cov: CovarianceSpec,
                           model: ModelSpec | None = None,
                           contrast: np.ndarray | None = None,
                           tolerance: float = 1e-8,
                           max_iter: int = 100000) -> WeightedDesign:
    """Minimise the weighted-design criterion by projected gradient descent.

    Requires sequence granularity: at cluster-period or observation
    granularity ``DesignCriterion.gradient`` is not the one-sided
    derivative for units whose period holds (almost) no observations, and
    descent stalls there far from the optimum. Barzilai-Borwein steps are
    backtracked until they pass the Armijo test, or, once the decrease is
    below the rounding of the criterion, until they keep its value within
    that rounding and lower the residual.
    Convergence is declared when the unit-step projected-gradient residual
    falls below ``tolerance``. Raises :class:`ConvergenceError`, carrying
    the last iterate, past ``max_iter`` iterations or when no step passes
    while the residual still exceeds ``tolerance`` (the message gives it).
    """
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
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
        residual = _residual(phi, grad)
        if residual <= tolerance:
            return WeightedDesign(phi, fval, it)
        if prev_phi is not None:
            # Barzilai-Borwein step, safeguarded by the backtracking below
            dphi = phi - prev_phi
            dgrad = grad - prev_grad
            denom = float(dphi @ dgrad)
            if denom > 0:
                step = min(max(float(dphi @ dphi) / denom, 1e-12), 1e12)
        while True:
            cand = project_to_simplex(phi - step * grad)
            if np.abs(cand - phi).max() == 0.0 or step < 1e-16:
                raise ConvergenceError(
                    f"descent stalled at iteration {it}: no step lowers the "
                    f"criterion or its residual, residual {residual:.3g} > "
                    f"tolerance {tolerance:g}", weights=phi, iterations=it)
            fc, gc = f_grad(cand)
            if math.isfinite(fc) and (
                    fc <= fval - 1e-4 * float(grad @ (phi - cand))
                    # near the optimum the decrease sinks below the rounding
                    # of the criterion; there a step counts if it keeps the
                    # value within that rounding and lowers the residual
                    or (fc <= fval + CRITERION_ROUNDING * abs(fval)
                        and _residual(cand, gc) < residual)):
                break
            step *= 0.5
        prev_phi, prev_grad = phi, grad
        phi, fval, grad = cand, fc, gc
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations", weights=phi,
        iterations=max_iter)
