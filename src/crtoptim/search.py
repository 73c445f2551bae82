"""Combinatorial subset selection over a design space.

Both optimisers treat the criterion as a black-box set function over unit
multisets, so they work unchanged for plain and robust criteria (any
monotone supermodular function of the design). Local search repeatedly
applies the best value-improving single swap from random feasible starts;
reverse greedy strips the full space down to the target size, removing
whichever unit costs the least variance. Each sweep builds its whole
neighbourhood (every swap, or every single-unit removal) as one ``(K, J)``
count matrix and scores it with one batched criterion call (``values``);
a plain callable on one count vector is scored row by row instead. Local
search runs its restarts in lockstep, so one call scores the swaps of
every restart that is still moving.

Values within ``CRITERION_ROUNDING`` (relative) of each other are ties: the
order of two such values is the rounding of the criterion kernel, not a
property of the designs. A sweep takes the first row within that band of
its minimum, so ties break toward the lowest unit index, and a swap (or a
later restart) counts as better only when it improves by more than the
band. That keeps runs with equal seeds identical, and the designs chosen
independent of how the kernel rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .designspace import Design, DesignSpace
from .errors import InfeasibleError, ValidationError
from .glscore import CHUNK_BYTES, CRITERION_ROUNDING

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


def _tie_edge(low):
    """Largest value that ties with ``low``: ``low + CRITERION_ROUNDING *
    |low|``, written so that an infinite ``low`` is its own edge."""
    return np.where(low > 0, low * (1.0 + CRITERION_ROUNDING),
                    low * (1.0 - CRITERION_ROUNDING))


def _first_minima(values: np.ndarray, starts) -> np.ndarray:
    """For each segment ``values[starts[i]:starts[i + 1]]`` (the last runs
    to the end), the index of its first value within
    ``CRITERION_ROUNDING`` of the segment minimum.

    Values that close are ties whose order is the kernel's rounding, so
    they settle toward the first row, whatever the kernel rounds.
    """
    starts = np.asarray(starts)
    # a NaN value ranks last, like an unidentified design
    values = np.where(np.isnan(values), np.inf, values)
    edge = _tie_edge(np.minimum.reduceat(values, starts))
    sizes = np.diff(starts, append=len(values))
    near = np.flatnonzero(values <= np.repeat(edge, sizes))
    return near[np.searchsorted(near, starts)]


def _first_min(values: np.ndarray) -> int:
    """:func:`_first_minima` of one segment."""
    return int(_first_minima(values, [0])[0])


def _best_step(crit, counts, units, step):
    """Lowest ``(value, u)`` over ``counts + step * e_u`` for ``u`` in
    ``units``, scored in one batch, ties to the first ``u``; ``None`` when
    ``units`` is empty."""
    if len(units) == 0:
        return None
    batch = np.repeat(counts[None], len(units), axis=0)
    batch[np.arange(len(units)), units] += step
    values = crit(batch)
    i = _first_min(values)
    return float(values[i]), int(units[i])


def _random_starts(space: DesignSpace, crit, m: int, rngs):
    """A random size-``m`` design with a finite criterion for each
    generator, and its value: ``(R, J)`` counts and ``R`` values.

    Draws run in rounds, each scored in one batch, and only the starts that
    are still infinite are redrawn, so every generator makes the draws it
    would make alone.
    """
    pool = np.repeat(np.arange(space.n_units), space.max_replication)
    counts = np.zeros((len(rngs), space.n_units), dtype=int)
    values = np.full(len(rngs), math.inf)
    pending = np.arange(len(rngs))
    for _ in range(MAX_START_DRAWS):
        counts[pending] = 0
        for i in pending:
            np.add.at(counts[i], pool[rngs[i].choice(pool.size, size=m, replace=False)], 1)
        values[pending] = crit(counts[pending])
        pending = pending[~np.isfinite(values[pending])]
        if pending.size == 0:
            return counts, values
    raise InfeasibleError(
        f"no finite-criterion start of size {m} found in {MAX_START_DRAWS} draws")


def _swap_sweep(space: DesignSpace, crit, counts, current, active):
    """Move every restart in ``active`` to its best single swap, if that
    improves on ``current`` by more than ``CRITERION_ROUNDING``; updates
    ``counts`` and ``current`` in place and returns the restarts that moved.

    The neighbourhoods of all of them are scored in one batch. Each
    restart's rows are its ``(remove, add)`` pairs in row-major order, so
    its first minimum is the lowest ``(remove, add)``.
    """
    own = counts[active]
    pairs = ((own > 0)[:, :, None] & (own < space.max_replication)[:, None, :]
             & ~np.eye(space.n_units, dtype=bool))
    owner, remove, add = np.nonzero(pairs)
    if owner.size == 0:
        return active[:0]
    batch = own[owner]
    rows = np.arange(owner.size)
    batch[rows, remove] -= 1
    batch[rows, add] += 1
    values = crit(batch)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    best = _first_minima(values, starts)
    restart = active[owner[best]]
    improved = current[restart] > _tie_edge(values[best])
    best, restart = best[improved], restart[improved]
    counts[restart, remove[best]] -= 1
    counts[restart, add[best]] += 1
    current[restart] = values[best]
    return restart


def _check_count(name: str, value) -> None:
    """Reject anything but an integer (a boolean is not one)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def local_search(space: DesignSpace, criterion, m: int, restarts: int = 100,
                 seed: int | None = None,
                 progress: Callable[[int, float], None] | None = None
                 ) -> SearchResult:
    """Best design of size ``m`` over independent local-search restarts.

    Each restart walks from a random feasible start to a local optimum in
    the single-swap neighbourhood, drawing from its own child of
    ``SeedSequence(seed)``. The restarts run in lockstep: every sweep
    scores the neighbourhoods of all restarts that still move in one
    batch, and a restart stops when no swap improves it. Identical seeds
    yield identical results; restarts merge by smallest value with earlier
    restarts winning ties, and ``progress(idx, best)`` is called in
    restart order with the best value over restarts ``0..idx``.
    """
    _check_count("m", m)
    _check_count("restarts", restarts)
    if seed is not None:
        _check_count("seed", seed)
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
    if m < 1 or m > space.total_capacity:
        raise InfeasibleError(
            f"m={m} outside [1, {space.total_capacity}] for this space")
    if restarts < 1:
        raise ValidationError("restarts must be at least 1")
    crit = _as_batch(criterion)
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(restarts)]
    counts, current = _random_starts(space, crit, m, rngs)
    # a restart adds at most J (J - 1) rows of J counts to a sweep batch;
    # cap the restarts per batch so that it stays within one evaluation's
    # working-array budget
    row_bytes = counts.itemsize * space.n_units
    group = max(1, CHUNK_BYTES // max(1, row_bytes * space.n_units * (space.n_units - 1)))
    active = np.arange(restarts)
    while active.size:
        active = np.concatenate([
            _swap_sweep(space, crit, counts, current, active[i:i + group])
            for i in range(0, active.size, group)])
    best = 0
    for idx in range(restarts):
        if current[best] > _tie_edge(current[idx]):
            best = idx
        if progress is not None:
            progress(idx, float(current[best]))
    return SearchResult(space.design_from_counts(counts[best]),
                        float(current[best]), restarts=restarts)


def reverse_greedy(space: DesignSpace, criterion, m: int,
                   progress: Callable[[int, float], None] | None = None
                   ) -> SearchResult:
    """Strip the full design space down to ``m`` units, each step removing
    the unit whose removal increases the criterion least. Deterministic."""
    _check_count("m", m)
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
