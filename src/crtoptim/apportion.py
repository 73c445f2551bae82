"""Rounding continuous design weights into integer unit allocations.

Largest-remainder (Hamilton) and ceiling-divisor (Adams) apportionment,
plus a criterion-greedy floor fill; :func:`best_rounding` evaluates every
candidate allocation and keeps the one with the smallest treatment
variance. Values within ``CRITERION_ROUNDING`` of the smallest tie, and the
first of Hamilton, Adams and the greedy fill wins the tie. Adams
guarantees at least one unit of every positive-weight type, which suits
designs that must stagger their roll-out; Hamilton and the greedy fill
allow weights to round to zero.

Like every optimiser, :func:`best_rounding` takes a
:class:`CovarianceSpec` (with an optional model), which builds the plain
:class:`DesignCriterion`, or in its place any criterion on the space, a
robust model class included.

The cells of a weight grid round in lockstep (:func:`_lockstep_rounding`):
their greedy fills walk as one stack, each step screening the moves of
every cell still filling in one stacked rank-one call, and each cell
scores its candidates in one ``values`` call. Every cell gets the result
its own :func:`best_rounding` gives, which is the lockstep on a stack of
one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import Design, DesignSpace
from .errors import InfeasibleError, ValidationError, check_count, check_probabilities
from .glscore import DesignCriterion, _as_criterion
from .search import _first_minimum, _greedy_walk


def _check_weights(weights) -> np.ndarray:
    w = check_probabilities("weights", weights, 1e-8)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a non-empty vector")
    return w


def hamilton_round(weights, total: int) -> np.ndarray:
    """Largest-remainder rounding: floors first, then one unit to each of
    the largest remainders (ties to the lower index) until ``total``."""
    w = _check_weights(weights)
    check_count("total", total)
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
    check_count("total", total)
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


def _check_total(space: DesignSpace, total) -> None:
    """Reject a ``total`` that is not an integer or exceeds the capacity of
    ``space``: the checks of a rounding that need no weights."""
    check_count("total", total)
    if total > space.total_capacity:
        raise InfeasibleError(
            f"total {total} exceeds the space capacity {space.total_capacity}")


def best_rounding(space: DesignSpace, cov: CovarianceSpec | DesignCriterion, weights,
                  total: int, model: ModelSpec | None = None) -> RoundingResult:
    """Round weights with every scheme and keep the variance-minimising one.

    ``cov`` and ``model`` give the criterion as in
    :func:`crtoptim.weights.mixed_model_weights`: a :class:`CovarianceSpec`
    builds the plain :class:`DesignCriterion`, and anything else must be a
    criterion on ``space`` given without ``model``.

    Candidates violating the replication cap are reported with an infinite
    value. The greedy fill clips its floors at the cap, so it stays within
    the cap even when the weights ask more of a unit than the cap allows
    (for instance one-hot weights whose whole budget exceeds it); an error
    is raised only if every candidate leaves the contrast unidentified.
    :func:`_lockstep_rounding` on a stack of one.
    """
    # a plain criterion is built through this module's DesignCriterion name,
    # so that replacing apportion.DesignCriterion takes effect here
    criterion = _as_criterion(space, cov, model, DesignCriterion)
    result, = _lockstep_rounding(space, [criterion], [weights], total)
    if isinstance(result, InfeasibleError):
        raise result
    return result


def _lockstep_rounding(space: DesignSpace, criteria, weights, total: int) -> list:
    """:func:`best_rounding` of each cell's ``weights`` under its criterion
    in ``criteria``, all on ``space``, to one ``total``: per cell, the
    :class:`RoundingResult` or :class:`InfeasibleError` of its own call, bit
    for bit. The cells' floor-greedy fills walk in lockstep
    (:func:`search._greedy_walk`), and each cell scores its candidates in
    one ``values`` call. An argument the lone call would reject raises
    here, before any fill starts."""
    checked = []
    for w in weights:
        w = _check_weights(w)
        if w.size != space.n_units:
            raise ValidationError(
                f"{w.size} weights for a space of {space.n_units} units")
        checked.append(w)
    _check_total(space, total)
    cap = space.max_replication
    candidates = []
    for w in checked:
        allocs = {"hamilton": hamilton_round(w, total)}
        try:
            allocs["adams"] = adams_round(w, total)
        except InfeasibleError:
            pass
        candidates.append(allocs)
    # floors clipped at the cap, then units added one at a time choosing
    # the smallest resulting criterion among those below the cap
    fills = np.minimum(np.floor(total * np.stack(checked)), cap).astype(int)
    _greedy_walk(criteria, fills, total, cap)
    results: list = []
    for criterion, allocs, fill in zip(criteria, candidates, fills):
        allocs["floor-greedy"] = fill
        batch = np.stack(list(allocs.values()))
        within = (batch <= cap).all(axis=1)
        values = np.full(len(batch), math.inf)
        values[within] = criterion.values(batch[within])
        report = {name: (tuple(int(v) for v in alloc), value)
                  for (name, alloc), value in zip(allocs.items(), values.tolist())}
        # values within CRITERION_ROUNDING are ties, which go to the first
        # candidate, as in every other selection of the searches
        scheme = list(report)[_first_minimum(values.tolist())]
        counts, value = report[scheme]
        if not math.isfinite(value):
            results.append(InfeasibleError(
                "every rounding of these weights is infeasible or uninformative"))
            continue
        results.append(RoundingResult(design=space.design_from_counts(counts),
                                      value=value, scheme=scheme, candidates=report))
    return results
