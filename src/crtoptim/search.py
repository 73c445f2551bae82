"""Combinatorial subset selection over a design space.

Both optimisers treat the criterion as a black-box set function over unit
multisets, so they work unchanged for plain and robust criteria (any
monotone supermodular function of the design). Local search repeatedly
applies the best value-improving single swap from random feasible starts;
reverse greedy strips the full space down to the target size, removing
whichever unit costs the least variance. Each sweep builds its whole
neighbourhood (every swap, or every single-unit removal) as one ``(K, J)``
count matrix and scores it with one batched criterion call (``values``);
a plain callable on one count vector is scored row by row instead. Ties
always break toward the lowest unit index (the first minimum of the
batch), which keeps runs with equal seeds identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .designspace import Design, DesignSpace
from .errors import InfeasibleError, ValidationError

# How many random starts may come up infeasible before local search gives up.
MAX_START_DRAWS = 1000


@dataclass(frozen=True)
class SearchResult:
    design: Design
    value: float
    restarts: int = 1


def _as_batch(criterion) -> Callable[[np.ndarray], np.ndarray]:
    """Batch form of a criterion: a ``(K, J)`` count matrix in, ``K``
    values out. A criterion object contributes its ``values``; a plain
    callable on one count vector is scored row by row."""
    if callable(criterion):
        return lambda batch: np.array([criterion(row) for row in batch], dtype=float)
    return criterion.values


def _score(crit, counts) -> float:
    """Value of one design under a batch criterion."""
    return float(crit(counts[None])[0])


def swap_delta(space: DesignSpace, criterion, design: Design,
               remove: int, add: int) -> float:
    """Criterion change from swapping one replicate of ``remove`` for one
    of ``add``; consistent with full re-evaluation."""
    counts = np.asarray(design.counts, dtype=int)
    if remove == add:
        return 0.0
    if counts[remove] < 1:
        raise ValidationError(f"unit {remove} is not in the design")
    if counts[add] >= space.max_replication:
        raise ValidationError(f"unit {add} is already at the replication cap")
    swapped = counts.copy()
    swapped[remove] -= 1
    swapped[add] += 1
    before, after = _as_batch(criterion)(np.stack([counts, swapped]))
    if math.isinf(after) and math.isinf(before):
        return 0.0
    return float(after - before)


def _random_start(space: DesignSpace, crit, m: int, rng):
    """A random size-``m`` design with a finite criterion, and its value."""
    pool = np.repeat(np.arange(space.n_units), space.max_replication)
    for _ in range(MAX_START_DRAWS):
        counts = np.zeros(space.n_units, dtype=int)
        picked = rng.choice(pool.size, size=m, replace=False)
        np.add.at(counts, pool[picked], 1)
        value = _score(crit, counts)
        if math.isfinite(value):
            return counts, value
    raise InfeasibleError(
        f"no finite-criterion start of size {m} found in {MAX_START_DRAWS} draws")


def _best_step(crit, counts, units, step):
    """Lowest ``(value, u)`` over ``counts + step * e_u`` for ``u`` in
    ``units``, scored in one batch, ties to the first ``u``; ``None`` when
    ``units`` is empty."""
    if len(units) == 0:
        return None
    batch = np.repeat(counts[None], len(units), axis=0)
    batch[np.arange(len(units)), units] += step
    values = crit(batch)
    i = int(np.argmin(values))
    return float(values[i]), int(units[i])


def _best_swap(space, crit, counts, current):
    """Best strictly improving single swap ``(value, remove, add)``.

    Every ``(remove, add)`` pair is scored in one batch in row-major
    order, so the first minimum is the lowest ``(remove, add)``."""
    removable = np.flatnonzero(counts > 0)
    addable = np.flatnonzero(counts < space.max_replication)
    r, a = np.nonzero(removable[:, None] != addable[None, :])
    remove, add = removable[r], addable[a]
    if remove.size == 0:
        return None
    batch = np.repeat(counts[None], remove.size, axis=0)
    rows = np.arange(remove.size)
    batch[rows, remove] -= 1
    batch[rows, add] += 1
    values = crit(batch)
    i = int(np.argmin(values))
    if values[i] < current:
        return float(values[i]), int(remove[i]), int(add[i])
    return None


def _single_local_run(space, crit, m, rng):
    counts, current = _random_start(space, crit, m, rng)
    while True:
        best = _best_swap(space, crit, counts, current)
        if best is None:
            return counts, current
        current, r, a = best
        counts[r] -= 1
        counts[a] += 1


def local_search(space: DesignSpace, criterion, m: int, restarts: int = 100,
                 seed: int | None = None,
                 progress: Callable[[int, float], None] | None = None
                 ) -> SearchResult:
    """Best design of size ``m`` over independent local-search restarts.

    Each restart walks from a random feasible start to a local optimum in
    the single-swap neighbourhood. Identical seeds yield identical
    results; restarts merge by smallest value with earlier restarts
    winning ties, and ``progress(idx, best)`` follows each restart.
    """
    if m < 1 or m > space.total_capacity:
        raise InfeasibleError(
            f"m={m} outside [1, {space.total_capacity}] for this space")
    if restarts < 1:
        raise ValidationError("restarts must be at least 1")
    crit = _as_batch(criterion)
    best_counts, best_value = None, math.inf
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        counts, value = _single_local_run(space, crit, m,
                                          np.random.default_rng(child))
        if value < best_value:  # restarts end finite, so the first one wins
            best_counts, best_value = counts, value
        if progress is not None:
            progress(idx, best_value)
    return SearchResult(space.design_from_counts(best_counts), best_value,
                        restarts=restarts)


def reverse_greedy(space: DesignSpace, criterion, m: int,
                   progress: Callable[[int, float], None] | None = None
                   ) -> SearchResult:
    """Strip the full design space down to ``m`` units, each step removing
    the unit whose removal increases the criterion least. Deterministic."""
    if m < 1 or m > space.total_capacity:
        raise InfeasibleError(
            f"m={m} outside [1, {space.total_capacity}] for this space")
    crit = _as_batch(criterion)
    counts = np.full(space.n_units, space.max_replication, dtype=int)
    size = int(counts.sum())
    step = 0
    while size > m:
        best = _best_step(crit, counts, np.flatnonzero(counts > 0), -1)
        counts[best[1]] -= 1
        size -= 1
        step += 1
        if progress is not None:
            progress(step, best[0])
    value = _score(crit, counts)
    if not math.isfinite(value):
        raise InfeasibleError(
            f"reverse greedy reached size {m} with an infinite criterion")
    return SearchResult(space.design_from_counts(counts), value)
