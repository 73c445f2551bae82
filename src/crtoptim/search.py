"""Combinatorial subset selection over a design space.

Both optimisers treat the criterion as a black-box set function over unit
multisets, so they work unchanged for plain and robust criteria (any
monotone supermodular function of the design): a criterion is any object
whose ``values`` maps a ``(K, J)`` count matrix to ``K`` values. Local
search repeatedly applies the best value-improving single swap from
random feasible starts; reverse greedy strips the full space down to the
target size, removing whichever unit costs the least variance. A sweep
builds its neighbourhood (the swaps of every restart still moving, or a
greedy step's front-runners, below) as one count matrix and scores it
through ``values``: local search runs its restarts in lockstep, so one
batch holds the swaps of all of them.

One generator, ``default_rng(seed)``, draws every start of a local
search, in rounds: a round draws, row by row, a row of ``J cap`` uniform
keys per start still to draw; a start is the ``m`` replicate slots (slot
``s`` of unit ``s // cap``) of lowest key, chosen by rank, so a uniform
``m``-subset; and only infinite starts are redrawn. So restart ``i``'s
first draw does not depend on the number of restarts.

The restarts of one local search keep landing on the same designs, so it
scores each distinct design once per call: a memo in front of the
criterion, a dict from a row's bytes to its value, sends only rows it has
not seen to ``values`` and reuses the stored values of the rest. That
relies on one more part of the protocol: ``values`` scores each row on its
own, so row ``i`` of a batch equals the value of that row alone, bit for
bit, as :class:`DesignCriterion` and :class:`RobustCriterion` guarantee.
The memo lives for one call and is cleared when it holds more than
``MEMO_BYTES`` (128 KiB) of raw keys and values.

Restarts also meet on the same designs, and from there walk the same way:
a restart's next move depends only on its design, since each row is
scored on its own, ties break by row order within one restart's
neighbourhood, and a restart's current value is always the value of its
design. So local search sweeps each design once: before each sweep, a
restart that has reached a design another restart held before it (an
identical start included) stops and follows that restart, and at the end
every follower takes the design and value at the end of its chain. Every
restart ends as it would alone, with the same value bit for bit.

A criterion may also offer ``bound_terms(batch)``: per design, a gradient
``g`` in the multiplicities and whether it vouches for it, or ``None``.
:class:`DesignCriterion` and the linear-average :class:`RobustCriterion`
offer it at sequence granularity, where ``M`` is linear in the
multiplicities and ``c' M^-1 c`` is convex in ``M``, so a swap of unit
``r`` for unit ``a`` in a design of value ``f`` scores at least ``f + g_a
- g_r``; each bound is lowered by ``SCREEN_RTOL (|f| + |g_a| + |g_r|)``
for rounding, and a design whose terms are not vouched for (its ``M`` not
certified by the kernel, or ``tr M tr M^-1`` above ``SCREEN_CONDITION``)
bounds its swaps by ``-inf``. A sweep then scores in two rounds: each
design's lowest-bound swap, where that bound ties with or beats ``f``
(value ``U``), then only the swaps whose bound ties with or beats both
``f`` and ``U``; the rest count as infinite. If some swap improves on
``f``, every swap tied with the best one has a bound under both edges, so
it is scored and the sweep takes the row and value that scoring every
swap would; if none does, the restart stops either way. Designs, values
and ``progress`` trails are unchanged, and on the README space about a
third of the swaps are scored. Cluster-period and observation
granularity (where an empty cell makes the criterion non-smooth) and the
log-average form (not convex) score every swap.

Greedy walks (reverse greedy and the rounding fill) move one unit at a
time. A criterion may also offer ``single_moves(counts, units, step)``,
approximate values of all of a step's moves from one solve of the current
design, NaN for a move it cannot vouch for, or ``None`` where it does not
apply; :class:`DesignCriterion` does so by a rank-one update wherever every
unit is one cell (cluster-period and observation granularity) and the
design's information matrix is well conditioned. A walk then scores through
``values`` only the moves within ``SCREEN_RTOL`` of the best screened value
and the moves screened NaN; a lone candidate is taken unscored unless its
value is to be reported. ``values`` alone picks between candidates and
gives every reported value, so while the screen errs by less than
``SCREEN_RTOL / 2`` (it errs by about 1e-13) a walk takes the moves and
reports the values of scoring every move in full. Sequence spaces and
robust criteria score every move of a greedy step. A step scores its
front-runners in one ``values`` call and takes the first within
``CRITERION_ROUNDING`` of their minimum, comparing Python floats. A walk
moves a stack of designs in lockstep, each under its own criterion: the
rounding fills of a weight grid's cells share one stacked screen per step
(:func:`glscore._single_moves`), each scoring its front-runners through
its own ``values``, and end where each fill alone would; reverse greedy
walks a stack of one.

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
from .errors import (InfeasibleError, ValidationError, check_count, check_instance,
                     check_seed)
from .glscore import CHUNK_BYTES, CRITERION_ROUNDING, DesignCriterion, _single_moves

# How many random starts may come up infeasible before local search gives up.
MAX_START_DRAWS = 1000
# Budget of the score memo of one local search, counted as the raw bytes
# of its row keys and 8-byte values; the dict's own overhead comes on top.
# On large spaces rows seldom repeat, so the memo is cleared when full
# rather than grow with every sweep.
MEMO_BYTES = 1 << 17
# Relative band above the smallest screened move value within which a
# greedy step still scores a move through ``values``, and the relative
# margin by which a swap's first-order bound is lowered: far above the
# criterion's rounding (``CRITERION_ROUNDING``) and the screen's own error.
SCREEN_RTOL = 1e-9
# The factors that take a positive or a negative value to the top of its
# tie band, as Python floats.
_TIE_UP = float(1.0 + CRITERION_ROUNDING)
_TIE_DOWN = float(1.0 - CRITERION_ROUNDING)


class _ScoreMemo:
    """``criterion`` with each distinct row of counts scored once.

    ``values`` sends the distinct rows of a batch not scored before to
    ``criterion.values`` in one call and gives every row its value. That is
    exact because a criterion's ``values`` scores each row on its own, bit
    for bit. The scores sit in a dict keyed by a row's bytes in the
    narrowest unsigned dtype that holds ``cap``. It is cleared once it
    holds more than ``MEMO_BYTES`` of those keys and their 8-byte values,
    which changes only how often a row is scored.
    """

    def __init__(self, criterion, n_units: int, cap: int):
        self.criterion = criterion
        self._dtype = np.min_scalar_type(cap)
        self._key = np.dtype((np.void, n_units * self._dtype.itemsize))
        self._scores: dict[bytes, float] = {}
        self._capacity = MEMO_BYTES // (self._key.itemsize + 8)

    def keys(self, batch) -> list[bytes]:
        """Each row's key: its bytes in the memo's narrow dtype."""
        rows = np.ascontiguousarray(batch, dtype=self._dtype)
        return rows.view(self._key).ravel().tolist()

    def values(self, batch) -> np.ndarray:
        keys = self.keys(batch)
        scores = self._scores
        fresh = {key: i for i, key in enumerate(keys) if key not in scores}
        if fresh:
            scored = self.criterion.values(batch[list(fresh.values())])
            scores.update(zip(fresh, scored.tolist()))
        values = np.fromiter(map(scores.__getitem__, keys), float, len(keys))
        if len(scores) > self._capacity:
            scores.clear()
        return values

    def bound_terms(self, batch):
        """The wrapped criterion's ``bound_terms(batch)``, or ``None`` if it
        offers none."""
        terms = getattr(self.criterion, "bound_terms", None)
        return None if terms is None else terms(batch)


@dataclass(frozen=True)
class SearchResult:
    design: Design
    value: float
    restarts: int = 1


def swap_delta(space: DesignSpace, criterion, design: Design,
               remove: int, add: int) -> float:
    """Criterion change from swapping one replicate of ``remove`` for one
    of ``add``; consistent with full re-evaluation. Raises
    :class:`ValidationError` unless ``space`` is a :class:`DesignSpace`,
    ``design`` a :class:`Design` and both units integer unit indices."""
    check_instance("space", space, DesignSpace)
    check_instance("design", design, Design)
    for name, unit in (("remove", remove), ("add", add)):
        check_count(name, unit)
        if not 0 <= unit < space.n_units:
            raise ValidationError(
                f"{name} must be a unit index in [0, {space.n_units}), got {unit}")
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
    before, after = criterion.values(np.stack([counts, swapped]))
    if math.isinf(after) and math.isinf(before):
        return 0.0
    return float(after - before)


def _check_criterion(criterion) -> None:
    """Reject a criterion without a ``values`` method."""
    if not callable(getattr(criterion, "values", None)):
        raise ValidationError(f"criterion must have a values method, got {criterion!r}")


def _check_progress(progress) -> None:
    """Reject a ``progress`` hook that is neither ``None`` nor callable."""
    if progress is not None and not callable(progress):
        raise ValidationError(f"progress must be callable or None, got {progress!r}")


def _check_size(space: DesignSpace, m) -> None:
    """Reject a space that is not a DesignSpace, and a size not in ``[1, capacity]``."""
    check_instance("space", space, DesignSpace)
    check_count("m", m)
    if m < 1 or m > space.total_capacity:
        raise InfeasibleError(
            f"m={m} outside [1, {space.total_capacity}] for this space")


def _tie_edge(low):
    """Largest value that ties with ``low``: ``low + CRITERION_ROUNDING *
    |low|``, written so that an infinite ``low`` is its own edge."""
    return np.where(low > 0, low * _TIE_UP, low * _TIE_DOWN)


def _scalar_tie_edge(low: float) -> float:
    """:func:`_tie_edge` of one Python float, bit for bit."""
    return low * (_TIE_UP if low > 0 else _TIE_DOWN)


def _first_minimum(values: list) -> int:
    """Index of the first of ``values`` (Python floats) within
    ``CRITERION_ROUNDING`` of their minimum, a NaN ranking last: the one
    segment of :func:`_first_minima`, bit for bit."""
    edge = _scalar_tie_edge(min((v for v in values if not math.isnan(v)),
                                default=math.inf))
    return next((i for i, v in enumerate(values) if v <= edge), 0)


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


def _front_runners(screened, units):
    """The units whose screened move values (NaN where the screen cannot
    vouch) lie within ``SCREEN_RTOL`` of the smallest, or cannot be
    vouched for; all of ``units`` when nothing was screened."""
    if screened is None:
        return units
    finite = screened[np.isfinite(screened)]
    if finite.size == 0:
        return units
    low = finite.min()
    edge = low + SCREEN_RTOL * abs(low)
    # a NaN row fails the comparison and is kept
    return units[~(screened > edge)]


def _screens(criteria, counts, units, move):
    """Each row's screened move values (see :func:`_front_runners`), or
    ``None``: one stacked :func:`glscore._single_moves` over a stack of
    :class:`DesignCriterion` rows, and otherwise each criterion's own
    ``single_moves``, where it offers one."""
    if all(isinstance(criterion, DesignCriterion) for criterion in criteria):
        return _single_moves(criteria, counts, units, move)
    screens = [getattr(criterion, "single_moves", None) for criterion in criteria]
    return [None if screen is None else screen(row, own, move)
            for screen, row, own in zip(screens, counts, units)]


def _greedy_walk(criteria, counts, target: int, cap: int, progress=None):
    """Walk each row of the ``(L, J)`` stack ``counts`` in place to size
    ``target`` (reachable under ``cap``; every row on one side of it) under
    its own criterion ``criteria[l]``, one unit at a time: each step removes
    (above the target) or adds (below it) the unit whose move gives the
    lowest criterion, ties to the lowest unit, and is reported as
    ``progress(step, value)``.

    The rows walk in lockstep, and a row leaves the stack once it reaches
    the target. Every step screens the moves of all rows still walking at
    once (:func:`_screens`), and only each row's front-runners (see
    :func:`_front_runners`) are scored, by that row's own ``values``, which
    alone decides the move and the value. A row left with one candidate
    and no ``progress`` to report takes it without scoring it."""
    sizes = counts.sum(axis=1)
    down = bool((sizes > target).any())
    move = -1 if down else 1
    # every walking row moves one unit per step
    lengths = np.abs(sizes - target).tolist()
    # row j: the move of unit j alone
    moves = move * np.eye(counts.shape[1], dtype=counts.dtype)
    for step in range(1, max(lengths, default=0) + 1):
        live = [l for l, length in enumerate(lengths) if length >= step]
        rows = counts if len(live) == len(counts) else counts[live]
        units = [np.flatnonzero(row > 0 if down else row < cap) for row in rows]
        screened = _screens([criteria[l] for l in live], rows, units, move)
        for l, own, values in zip(live, units, screened):
            own = _front_runners(values, own)
            if own.size == 1 and progress is None:
                # one candidate: values could not change the move
                counts[l, own[0]] += move
                continue
            values = criteria[l].values(counts[l] + moves[own]).tolist()
            best = _first_minimum(values)
            counts[l, own[best]] += move
            if progress is not None:
                progress(step, values[best])


def _random_starts(space: DesignSpace, criterion, m: int, restarts: int, rng):
    """``restarts`` random size-``m`` designs with a finite criterion, drawn
    from ``rng``, and their values: ``(R, J)`` counts and ``R`` values.

    Each round draws one ``(pending, J cap)`` block of keys, takes each
    row's ``m`` lowest-key slots as its start (see the module docstring),
    scores the starts in one batch and redraws only the infinite ones.
    """
    n, cap = space.n_units, space.max_replication
    counts = np.zeros((restarts, n), dtype=int)
    values = np.full(restarts, math.inf)
    pending = np.arange(restarts)
    for _ in range(MAX_START_DRAWS):
        slots = np.argpartition(rng.random((pending.size, n * cap)), m - 1, axis=1)[:, :m]
        units = slots // cap + n * np.arange(pending.size)[:, None]
        counts[pending] = np.bincount(units.ravel(), minlength=pending.size * n).reshape(-1, n)
        values[pending] = criterion.values(counts[pending])
        pending = pending[~np.isfinite(values[pending])]
        if pending.size == 0:
            return counts, values
    raise InfeasibleError(
        f"no finite-criterion start of size {m} found in {MAX_START_DRAWS} draws")


def _swap_sweep(space: DesignSpace, criterion, counts, current, active):
    """Move every restart in ``active`` to its best single swap, if that
    improves on ``current`` by more than ``CRITERION_ROUNDING``; updates
    ``counts`` and ``current`` in place and returns the restarts that moved.

    The neighbourhoods of all of them are scored together
    (:func:`_swap_values`). Each restart's rows are its ``(remove, add)``
    pairs in row-major order, so its first minimum is the lowest ``(remove,
    add)``.
    """
    own = counts[active]
    pairs = ((own > 0)[:, :, None] & (own < space.max_replication)[:, None, :]
             & ~np.eye(space.n_units, dtype=bool))
    owner, remove, add = np.nonzero(pairs)
    if owner.size == 0:
        return active[:0]
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    values = _swap_values(criterion, own, current[active], owner, remove, add, starts)
    best = _first_minima(values, starts)
    restart, values = active[owner[best]], values[best]
    improved = current[restart] > _tie_edge(values)
    best, restart = best[improved], restart[improved]
    counts[restart, remove[best]] -= 1
    counts[restart, add[best]] += 1
    current[restart] = values[improved]
    return restart


def _swap_bounds(terms, current, owner, remove, add):
    """Lower bounds of swap rows (laid out as in :func:`_swap_values`)
    from ``(grad, vouched) = criterion.bound_terms(own)``: ``f + g_a -
    g_r - SCREEN_RTOL (|f| + |g_a| + |g_r|)`` for a row swapping ``r`` for
    ``a`` in a design of value ``f``, ``-inf`` on every row of a design
    the terms do not vouch for (or whose bound is NaN)."""
    grad, vouched = terms
    f, g_add, g_remove = current[owner], grad[owner, add], grad[owner, remove]
    bound = f + g_add - g_remove - SCREEN_RTOL * (abs(f) + abs(g_add) + abs(g_remove))
    bound[~vouched[owner] | np.isnan(bound)] = -math.inf
    return bound


def _swap_values(criterion, own, current, owner, remove, add, starts):
    """Values of the swap rows (row ``i`` is design ``own[owner[i]]``, of
    value ``current[owner[i]]``, with one replicate moved from
    ``remove[i]`` to ``add[i]``; ``owner`` sorted, each owner's rows
    starting at ``starts``), ``inf`` on the rows left unscored.

    Without ``criterion.bound_terms`` every row is scored in one ``values``
    call. With it, a row swapping ``r`` for ``a`` in a design of value
    ``f`` scores at least ``f + g_a - g_r``, by convexity, and each row is
    bounded by that less a rounding margin (:func:`_swap_bounds`). The rows
    are then scored in two rounds: the lowest-bound row of each design
    whose lowest bound is within the tie band of ``f`` (value ``U``), then
    the rows whose bound is within the tie bands of both ``f`` and ``U``.
    Where some swap improves on ``f``, every row within
    ``CRITERION_ROUNDING`` of the best swap's value is scored, so the sweep
    takes the row and value it would take scoring all of them; where none
    does, the design stops either way.
    """
    batch = own[owner]
    rows = np.arange(owner.size)
    batch[rows, remove] -= 1
    batch[rows, add] += 1
    terms = getattr(criterion, "bound_terms", None)
    terms = None if terms is None else terms(own)
    if terms is None:
        return criterion.values(batch)
    bound = _swap_bounds(terms, current, owner, remove, add)
    sizes = np.diff(starts, append=owner.size)
    lowest = np.minimum.reduceat(bound, starts)
    first = np.flatnonzero(bound == np.repeat(lowest, sizes))
    first = first[np.searchsorted(first, starts)]
    edge = _tie_edge(current[owner[starts]])
    reached = np.flatnonzero(lowest <= edge)
    values = np.full(owner.size, math.inf)
    if reached.size == 0:
        return values
    first = first[reached]
    values[first] = criterion.values(batch[first])
    low = np.full(starts.size, math.inf)
    low[reached] = values[first]
    # a NaN value ranks last, like an unidentified design
    reach = np.fmin(edge, _tie_edge(low))
    pending = bound <= np.repeat(reach, sizes)
    pending[first] = False
    second = np.flatnonzero(pending)
    if second.size:
        values[second] = criterion.values(batch[second])
    return values


def local_search(space: DesignSpace, criterion, m: int, restarts: int = 100,
                 seed: int | None = None,
                 progress: Callable[[int, float], None] | None = None
                 ) -> SearchResult:
    """Best design of size ``m`` over independent local-search restarts.

    Each restart walks from a random feasible start to a local optimum in
    the single-swap neighbourhood. One ``default_rng(seed)`` draws all the
    starts, restart ``i``'s first draw independent of ``restarts`` (see
    the module docstring). The restarts run in lockstep: every sweep
    scores the neighbourhoods of all restarts that still move in one
    batch, and a restart stops when no swap improves it. Identical seeds
    yield identical results; restarts merge by smallest value with earlier
    restarts winning ties, and ``progress(idx, best)`` is called in
    restart order with the best value over restarts ``0..idx``.

    Each distinct design is scored once per call: the starts and sweeps go
    through a dict of the values scored so far, keyed by the design's
    bytes, which is cleared when it holds more than ``MEMO_BYTES`` of raw
    keys and values. That needs ``criterion.values`` to score each row on
    its own, as :class:`DesignCriterion` and :class:`RobustCriterion` do;
    no state outlives the call.

    Each design is also swept once per call. A second dict, keyed the same
    way, maps every design a restart has held to the first restart that
    held it; a restart that reaches a design in it (an identical start
    included) stops there, and ends with the design and value that the
    restart it follows, in turn, ends with. That is exact because a
    restart's walk from a design depends on nothing but the design, so
    every restart's end, the result and the ``progress`` calls are those of
    walking each restart to its own end.

    Where ``criterion.bound_terms`` applies, a sweep scores only the swaps
    whose first-order lower bound can still reach a design's value and its
    best swap's (see the module docstring); every swap that could be taken
    is among them, so the result is that of scoring every swap.
    """
    _check_size(space, m)
    _check_criterion(criterion)
    check_count("restarts", restarts)
    check_seed(seed)
    _check_progress(progress)
    if restarts < 1:
        raise ValidationError("restarts must be at least 1")
    criterion = _ScoreMemo(criterion, space.n_units, space.max_replication)
    counts, current = _random_starts(space, criterion, m, restarts,
                                     np.random.default_rng(seed))
    # a restart adds at most J (J - 1) rows of J counts to a sweep batch;
    # cap the restarts per batch so that it stays within one evaluation's
    # working-array budget
    row_bytes = counts.itemsize * space.n_units
    group = max(1, CHUNK_BYTES // max(1, row_bytes * space.n_units * (space.n_units - 1)))
    # the first restart to hold each design, and the restart each one follows
    held: dict[bytes, int] = {}
    follows = np.arange(restarts)
    active = follows.copy()
    while active.size:
        for r, key in zip(active.tolist(), criterion.keys(counts[active])):
            follows[r] = held.setdefault(key, r)
        active = active[follows[active] == active]
        active = np.concatenate([active[:0], *(
            _swap_sweep(space, criterion, counts, current, active[i:i + group])
            for i in range(0, active.size, group))])
    # a follower ends where the end of its chain ends
    while (follows[follows] != follows).any():
        follows = follows[follows]
    values = current[follows].tolist()
    best = 0
    for idx, value in enumerate(values):
        if values[best] > _scalar_tie_edge(value):
            best = idx
        if progress is not None:
            progress(idx, values[best])
    return SearchResult(space.design_from_counts(counts[follows[best]]),
                        values[best], restarts=restarts)


def reverse_greedy(space: DesignSpace, criterion, m: int,
                   progress: Callable[[int, float], None] | None = None
                   ) -> SearchResult:
    """Strip the full design space down to ``m`` units, each step removing
    the unit whose removal increases the criterion least. Deterministic."""
    _check_size(space, m)
    _check_criterion(criterion)
    _check_progress(progress)
    counts = np.full((1, space.n_units), space.max_replication, dtype=int)
    _greedy_walk([criterion], counts, m, space.max_replication, progress)
    value = float(criterion.values(counts)[0])
    counts = counts[0]
    if not math.isfinite(value):
        raise InfeasibleError(
            f"reverse greedy reached size {m} with an infinite criterion")
    return SearchResult(space.design_from_counts(counts), value)
