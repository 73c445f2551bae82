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
back to them, with a step length bounded after a rejected extrapolation;
the fixed point, its stop rule and the monotone descent of every plain
step are those of the plain map, and only the number of criterion
evaluations drops. :func:`simplex_weight_descent` minimises the
same criterion at sequence granularity by projected gradient descent,
serving as a generic cross-check on the fixed point.

Both solvers take the criterion as every optimiser does: a
:class:`CovarianceSpec`, with an optional model, builds the plain
:class:`DesignCriterion`, and any criterion on the space, a robust model
class included, is taken as it is (:func:`glscore._as_criterion`). A class's
gradient is the prior sum of its models' (in the log form, of ``g_l /
f_l``), so both solvers run it unchanged and a class of one model in the
linear form gives that model's weights bit for bit. The fixed point's
monotone descent is proved for one information matrix (Yu, Ann. Statist.
38, 2010); under a class of several a plain step that raises the
criterion ends the run with :class:`ConvergenceError`, as it would for one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import DesignSpace
from .errors import (ConvergenceError, InfeasibleError, ValidationError, as_floats,
                     check_count, check_instance, check_probabilities, check_real)
from .glscore import (CRITERION_ROUNDING, DesignCriterion, _as_criterion, _gradients,
                      _stacked_clusters)

# Units whose weight falls below this bound are dropped for good.
WEIGHT_FLOOR = 1e-7
# A plain step of the map may not increase the criterion by more than this
# times its magnitude (log-average values are negative); larger increases
# indicate a broken fixed point.
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class WeightedDesign:
    """A probability measure over the units of a design space."""

    weights: np.ndarray
    value: float
    iterations: int

    def __post_init__(self):
        check_probabilities("weights", self.weights, 1e-10)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex. Raises
    :class:`ValidationError` unless ``v`` is a non-empty finite vector."""
    v = as_floats("v", v)
    if v.ndim != 1 or v.size == 0 or not np.isfinite(v).all():
        raise ValidationError("projection needs a non-empty finite vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    holds = u + (1.0 - css) / idx > 0
    rho = idx[holds][-1]
    lam = (1.0 - css[rho - 1]) / rho
    return np.maximum(v + lam, 0.0)


def _check_positive(name: str, value) -> None:
    """Reject anything but a finite positive real number."""
    check_real(name, value)
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def _check_stopping(tolerance, max_iter) -> None:
    """Reject a ``tolerance`` that is not finite and positive, or a
    ``max_iter`` that is not an integer of at least 1."""
    _check_positive("tolerance", tolerance)
    check_count("max_iter", max_iter)
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")


def _residual(phi: np.ndarray, grad: np.ndarray) -> float:
    """Unit-step projected-gradient residual: zero exactly at a minimiser."""
    return float(np.abs(phi - project_to_simplex(phi - grad)).max())


def mixed_model_weights(space: DesignSpace, cov: CovarianceSpec | DesignCriterion,
                        model: ModelSpec | None = None,
                        total_obs: float | None = None,
                        tolerance: float = 1e-6,
                        max_iter: int = 10000) -> WeightedDesign:
    """Optimal design weights by the multiplicative fixed point.

    The criterion is the plain :class:`DesignCriterion` of ``cov`` and
    ``model`` when ``cov`` is a :class:`CovarianceSpec`; otherwise ``cov``
    is the criterion itself, built on ``space`` and given without
    ``model``, such as a :class:`crtoptim.robust.RobustCriterion`
    (anything else raises :class:`ValidationError`).

    The map sets ``phi ∝ phi * sqrt(-grad)`` from the criterion's
    gradient at ``N * phi``. At cluster-period or observation granularity
    ``total_obs`` is the total unit multiplicity ``N`` (the number of
    observations when every cell holds one) and is required; at sequence
    granularity the weights are cluster proportions, the criterion is
    scored at ``phi`` itself and ``total_obs`` is unused. When given, at
    any granularity, it must be a finite positive number.

    The map runs in SQUAREM cycles (Varadhan & Roland, Scand. J. Statist.
    35, 2008): from two plain steps ``p1 = F(phi)`` and ``p2 = F(p1)`` the
    cycle tries the extrapolation ``phi - 2 alpha r + alpha^2 v`` with
    ``r = p1 - phi``, ``v = p2 - 2 p1 + phi`` and
    ``alpha = max(min(-|r|/|v|, -1), -reach)``. It accepts the point only
    if every active weight stays positive and its criterion does not exceed
    that of ``p1``; otherwise the cycle ends at the plain double step ``p2``
    (``alpha = -1``). The step bound ``reach`` starts infinite, becomes
    ``max(1, -alpha / 2)`` when an extrapolation is rejected (its criterion
    too high, or an active weight non-positive) and infinite again once one
    is accepted, so a run that rejects none takes the unbounded steps. The
    fixed point is that of the plain map, and
    the run stops once a plain step moves no weight by more than
    ``tolerance``, returning that step's weights and their criterion.
    Units dropping below ``1e-7`` weight on a plain step are removed
    permanently; the rank-aware solve ignores period columns left without
    cells.

    ``iterations`` counts criterion evaluations, the final one at the
    returned weights included, and ``max_iter``, a positive integer,
    bounds them. ``tolerance`` must be a finite positive number.

    Raises :class:`ConvergenceError` when ``max_iter`` evaluations do not
    suffice (the error carries the last iterate) or if a plain step
    increases the criterion beyond tolerance, and :class:`InfeasibleError`
    when the contrast is not identified by the full space.
    :func:`_lockstep_weights` on a stack of one.
    """
    result, = _lockstep_weights(space, [_as_criterion(space, cov, model)],
                                total_obs, tolerance, max_iter)
    if isinstance(result, Exception):
        raise result
    return result


def _weight_scale(space, total_obs, tolerance, max_iter) -> float:
    """Check the arguments of :func:`mixed_model_weights` other than the
    covariance and model, and return the multiplicity ``N`` that scales
    the weights (1 at sequence granularity)."""
    check_instance("space", space, DesignSpace)
    _check_stopping(tolerance, max_iter)
    if total_obs is not None:
        _check_positive("total_obs", total_obs)
    if space.granularity == "sequence":
        return 1.0
    if total_obs is None:
        raise ValidationError("cluster-period weights need a positive total_obs")
    if any(len(unit.cells) != 1 for unit in space.units):
        raise ValidationError(
            "cluster-period weights need single-cell experimental units")
    return float(total_obs)


def _lockstep_weights(space: DesignSpace, criteria, total_obs: float | None = None,
                      tolerance: float = 1e-6, max_iter: int = 10000) -> list:
    """:func:`mixed_model_weights` under each :class:`DesignCriterion` in
    ``criteria``, all on ``space``, run in lockstep: one
    :func:`glscore._gradients` call per step scores the next point of every
    run still going, on the runs' blocks stacked once per set of runs still
    going (:func:`glscore._stacked_clusters`). Returns, per criterion, the
    :class:`WeightedDesign`, :class:`ConvergenceError` or
    :class:`InfeasibleError` of its own run, bit for bit the same whatever
    else runs in the stack; an argument :func:`mixed_model_weights` would
    reject raises here, before any run starts."""
    scale = _weight_scale(space, total_obs, tolerance, max_iter)
    cores = [_squarem(space.n_units, scale, tolerance, max_iter) for _ in criteria]
    results: list = [None] * len(cores)
    live = list(range(len(cores)))
    points = [next(core) for core in cores]
    parts = None
    while live:
        if parts is None:  # the first step, or a run ended at the last one
            parts = [criteria[i] for i in live]
            stack = _stacked_clusters(parts)
        values, grads = _gradients(parts, np.stack(points), stack)
        running, points = [], []
        for i, value, grad in zip(live, values.tolist(), grads):
            try:
                points.append(cores[i].send((value, grad)))
                running.append(i)
            except StopIteration as stop:
                results[i] = stop.value
            except (ConvergenceError, InfeasibleError) as exc:
                results[i] = exc
        if len(running) < len(live):
            parts = None
        live = running
    return results


def _spend(calls: int, max_iter: int, phi: np.ndarray) -> int:
    """``calls + 1``, or :class:`ConvergenceError` carrying ``phi`` when
    ``max_iter`` criterion evaluations are spent."""
    if calls == max_iter:
        raise ConvergenceError(
            f"no convergence in {max_iter} criterion evaluations",
            weights=phi, iterations=max_iter)
    return calls + 1


def _squarem(n_units: int, scale: float, tolerance: float, max_iter: int):
    """The SQUAREM fixed point of :func:`mixed_model_weights` as a
    generator: it yields each point to score as multiplicities ``scale *
    phi``, is sent back its ``(value, grad)``, and returns the
    :class:`WeightedDesign` (or raises) when the run ends."""
    phi = np.full(n_units, 1.0 / n_units)
    active = np.ones(n_units, dtype=bool)
    f, grad = yield scale * phi
    calls = 1
    if not math.isfinite(f):
        raise InfeasibleError("contrast is not identified by the design space")
    start = None  # the cycle's first point while phi is its first plain step
    reach = math.inf  # bound on -alpha, set by a rejected extrapolation
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
            calls = _spend(calls, max_iter, phi)
            f_mapped, _ = yield scale * mapped
            return WeightedDesign(mapped, f_mapped, calls)
        elif start is not None:
            # phi = F(start) and mapped = F(phi): try the SQUAREM extrapolation
            r = phi - start
            v = mapped - 2.0 * phi + start
            v_norm = math.sqrt(v @ v)
            alpha = min(-math.sqrt(r @ r) / v_norm, -1.0) if v_norm > 0 else -1.0
            alpha = max(alpha, -reach)
            trial = start - 2.0 * alpha * r + alpha * alpha * v
            if alpha < -1.0:
                if (trial[active] > 0).all():
                    trial /= trial.sum()
                    calls = _spend(calls, max_iter, phi)
                    f_trial, grad_trial = yield scale * trial
                    if f_trial <= f:
                        phi, f, grad, start = trial, f_trial, grad_trial, None
                        reach = math.inf
                        continue
                # rejected: its value rose, or it left an active weight
                # non-positive
                reach = max(1.0, -alpha / 2.0)
        # a plain step of the map: alpha = -1 ends the cycle at F(F(start))
        calls = _spend(calls, max_iter, phi)
        f_mapped, grad_mapped = yield scale * mapped
        if not math.isfinite(f_mapped):
            raise InfeasibleError("contrast is not identified by the design space")
        if not drop and f_mapped > f + MONOTONE_SLACK * abs(f):
            raise ConvergenceError(
                f"criterion increased at evaluation {calls}: {f} -> {f_mapped}",
                weights=phi.copy(), iterations=calls)
        start = phi if start is None and not drop else None
        phi, f, grad = mapped, f_mapped, grad_mapped


def simplex_weight_descent(space: DesignSpace, cov: CovarianceSpec | DesignCriterion,
                           model: ModelSpec | None = None,
                           tolerance: float = 1e-8,
                           max_iter: int = 100000) -> WeightedDesign:
    """Minimise the weighted-design criterion by projected gradient descent.

    ``cov`` and ``model`` give the criterion as in
    :func:`mixed_model_weights`. Requires sequence granularity: at
    cluster-period or observation granularity
    ``DesignCriterion.gradient`` is not the one-sided
    derivative for units whose period holds (almost) no observations, and
    descent stalls there far from the optimum. Barzilai-Borwein steps are
    backtracked until they pass the Armijo test, or, once the decrease is
    below the rounding of the criterion, until they keep its value within
    that rounding and lower the residual.
    Convergence is declared when the unit-step projected-gradient residual
    falls below ``tolerance``, a finite positive number. Raises
    :class:`ConvergenceError`, carrying the last iterate, past ``max_iter``
    (a positive integer) iterations or when no step passes while the
    residual still exceeds ``tolerance`` (the message gives it).
    """
    _check_stopping(tolerance, max_iter)
    f_grad = _as_criterion(space, cov, model).gradient
    if space.granularity != "sequence":
        raise ValidationError(
            "simplex descent requires mutually uncorrelated (sequence) units")
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
