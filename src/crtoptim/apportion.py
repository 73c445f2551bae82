"""Rounding continuous design weights into integer unit allocations.

Largest-remainder (Hamilton) and ceiling-divisor (Adams) apportionment,
plus a criterion-greedy floor fill; :func:`best_rounding` evaluates every
candidate allocation and keeps the one with the smallest treatment
variance. Adams guarantees at least one unit of every positive-weight
type, which suits designs that must stagger their roll-out; Hamilton and
the greedy fill allow weights to round to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import Design, DesignSpace
from .errors import InfeasibleError, ValidationError
from .glscore import DesignCriterion
from .search import _best_step, _check_count


def _check_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a non-empty vector")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-8:
        raise ValidationError("weights must be a probability vector")
    return w


def hamilton_round(weights, total: int) -> np.ndarray:
    """Largest-remainder rounding: floors first, then one unit to each of
    the largest remainders (ties to the lower index) until ``total``."""
    w = _check_weights(weights)
    _check_count("total", total)
    if total < 1:
        raise ValidationError("total must be at least 1")
    quota = total * w
    alloc = np.floor(quota).astype(int)
    remainder = quota - alloc
    short = total - alloc.sum()
    order = np.argsort(-remainder, kind="stable")
    alloc[order[:short]] += 1
    return alloc


def adams_round(weights, total: int) -> np.ndarray:
    """Ceiling-divisor (Adams) rounding over the positive-weight units, as
    a highest-averages method: every positive-weight unit starts with one
    allocation, and each further one goes to the largest ``total * w_j /
    allocation_j`` (ties to the lower index). So ``total`` must reach the
    number of positive weights.
    """
    w = _check_weights(weights)
    _check_count("total", total)
    if total < 1:
        raise ValidationError("total must be at least 1")
    positive = np.flatnonzero(w > 0)
    if total < positive.size:
        raise InfeasibleError(
            f"total {total} cannot give every one of {positive.size} "
            "positive-weight units at least one allocation")
    votes = total * w[positive]
    seats = np.ones(positive.size, dtype=int)
    for _ in range(total - positive.size):
        seats[int(np.argmax(votes / seats))] += 1
    alloc = np.zeros(w.size, dtype=int)
    alloc[positive] = seats
    return alloc


@dataclass(frozen=True)
class RoundingResult:
    design: Design
    value: float
    scheme: str
    candidates: dict[str, tuple[tuple[int, ...], float]]


def _greedy_fill(criterion: DesignCriterion, weights: np.ndarray,
                 total: int, cap: int) -> np.ndarray:
    """Floors clipped at the cap, then add units one at a time choosing
    the smallest resulting criterion among those below the cap."""
    alloc = np.minimum(np.floor(total * weights), cap).astype(int)
    while alloc.sum() < total:
        best = _best_step(criterion.values, alloc, np.flatnonzero(alloc < cap), +1)
        if best is None:
            raise InfeasibleError("replication caps leave the total unreachable")
        alloc[best[1]] += 1
    return alloc


def best_rounding(space: DesignSpace, cov: CovarianceSpec, weights, total: int,
                  model: ModelSpec | None = None,
                  contrast: np.ndarray | None = None) -> RoundingResult:
    """Round weights with every scheme and keep the variance-minimising one.

    Candidates violating the replication cap are reported with an infinite
    value. The greedy fill clips its floors at the cap, so it stays within
    the cap even when the weights ask more of a unit than the cap allows
    (for instance one-hot weights whose whole budget exceeds it); an error
    is raised only if every candidate leaves the contrast unidentified.
    """
    w = _check_weights(weights)
    if w.size != space.n_units:
        raise ValidationError(
            f"{w.size} weights for a space of {space.n_units} units")
    _check_count("total", total)
    if total > space.total_capacity:
        raise InfeasibleError(
            f"total {total} exceeds the space capacity {space.total_capacity}")
    criterion = DesignCriterion(space, cov, model=model, contrast=contrast)

    candidates: dict[str, np.ndarray] = {"hamilton": hamilton_round(w, total)}
    try:
        candidates["adams"] = adams_round(w, total)
    except InfeasibleError:
        pass
    candidates["floor-greedy"] = _greedy_fill(criterion, w, total,
                                              space.max_replication)

    report: dict[str, tuple[tuple[int, ...], float]] = {}
    best: tuple[float, str, np.ndarray] | None = None
    for name, alloc in candidates.items():
        if np.any(alloc > space.max_replication):
            report[name] = (tuple(int(v) for v in alloc), math.inf)
            continue
        value = criterion.value(alloc)
        report[name] = (tuple(int(v) for v in alloc), value)
        if best is None or value < best[0]:
            best = (value, name, alloc)
    if best is None or not math.isfinite(best[0]):
        raise InfeasibleError(
            "every rounding of these weights is infeasible or uninformative")
    value, name, alloc = best
    design = space.design_from_counts(alloc)
    return RoundingResult(design=design, value=value, scheme=name,
                          candidates=report)
