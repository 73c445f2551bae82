"""Covariance assembly, information matrices, and the design criterion.

The criterion for a design is the variance of the generalised least
squares treatment-effect estimator: ``c' M^-1 c`` with ``M = X' Sigma^-1 X``
and ``c`` selecting the treatment coefficient. Designs whose information
matrix cannot identify the contrast are assigned an infinite criterion.

Evaluation never forms a dense ``Sigma^-1``: observations are aggregated
to cluster-period means (an exact reduction, since fixed effects are
constant within a cell) and each cluster contributes an independent small
block, all of them from one stacked solve over the clusters' padded cells.
At sequence granularity each replicate of a unit is a cluster of its own:
:class:`DesignCriterion` runs that solve once, at one replicate per unit,
and sums the cached unit blocks.

Every criterion is a prior-weighted class of models in one stack: the
models' blocks with a model axis of length ``L`` (:func:`_stacked_clusters`:
their unit blocks side by side at sequence granularity, ``(J, L, P, P)``,
their cluster blocks stacked elsewhere, ``(L, C, c, ...)``), their priors
and their form. A plain :class:`DesignCriterion` is one model in its
stack, with prior 1 in the linear form, and
:class:`crtoptim.robust.RobustCriterion` a class of several, built once
into one stack. Each method is written once, over the stack, and
:func:`_prior_sum` weighs a class's models' results with the priors, in
the linear or the log form; a class of one gives its model's results bit
for bit. Counts become information matrices in one place,
:func:`_information`: a block sum over the stacked unit blocks at sequence
granularity, one solve of the stacked cluster blocks elsewhere, every row
under every model at once. Scoring is batched, in one loop
(:meth:`DesignCriterion.values`): it checks a ``(K, J)`` matrix of
per-unit counts once and scores it chunk by chunk, at every granularity,
each chunk in one information step and one stacked rank-aware solve over
the information matrices of its rows under the ``L`` models. Values and
gradients in the multiplicities come from one first-order core,
:func:`_first_order`, on a stack, whose batch broadcasts against its
models: one information step, one kernel call, one back substitution on
the certified factors (:func:`_factor_solve`) and one contraction, a
three-operand ``einsum`` over the unit blocks or one ``bincount`` over
the cells. Several criteria of one space stack as one, each criterion's
models laid end to end along the model axis, and a lone criterion is its
own stack. The gradients the weight solvers follow come from
:func:`_gradients`, which scores one row per criterion, ``(L, J)``, under
every model of each; :meth:`DesignCriterion.gradient` is its stack of
one, and a weight grid solved in lockstep scores all its cells at once.
The first-order terms by which local search bounds swaps from below
(:meth:`DesignCriterion.bound_terms`) score each row of a batch under
every model of one criterion, chunk by chunk, at every granularity, and
sum a class's models by :func:`_prior_sum` too, so that they are its
gradient rows bit for bit. The rank-one screen of the greedy walks
(:func:`_single_moves`) is stacked the same way: one solve over the
stacked covariances and one kernel call screen one row per criterion, so
a weight grid's rounding fills share one call per step, and
:meth:`DesignCriterion.single_moves` is its stack of one. A stack of plain
criteria takes no extra step.
``contrast_variance`` is the kernel on a stack of one.
The kernel factorises the whole stack once by Cholesky, ``M = L
L'``, in one LAPACK call. A row is certified full-rank when its smallest
eigenvalue exceeds ``delta = CERTIFICATE_MARGIN * RANK_TOL * tr M``: a
determinant bound read off the diagonal of ``L`` vouches for that on
well-conditioned rows, and only the rows it cannot vouch for are factorised
again, at ``M - delta I``. A certified row scores the treatment contrast
``e_P`` as ``1 / L_PP^2``. ``values`` inverts no matrix; nor do the
gradient and the swap bounds on well-conditioned rows: they take ``y =
M^-1 e_P`` by one back substitution on that same factor
(:func:`_factor_solve`) and vouch for its conditioning from the
determinant bound (:func:`_conditioned`). Only the rank-one screen, which
needs ``L^-1 u`` for every cell, inverts the factor. Rows that
fail the certificate (rank-deficient, indefinite, NaN or infinite) take a
rank-revealing eigen-solve instead. A contrast other than ``e_P`` is first
mapped onto it, by a permutation for a scaled unit contrast and a
reflection otherwise. A stack that LAPACK refuses because of one singular
row is bisected until that row is alone.
Each row's information matrix is accumulated in a fixed order over units
or clusters, never by one BLAS product across rows whose kernel (and
rounding) could change with ``K``, and each row is decided on its own, so
a row's value is bit-identical whichever batch it is scored in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .covariance import CovarianceSpec, ModelSpec, iterated_weights
from .designspace import Design, DesignSpace, build_x, expand_design, _random_effects
from .errors import (NumericDomainError, ValidationError, as_floats, check_count,
                     check_instance)

# Relative eigenvalue cutoff for rank decisions, and the tolerance on the
# residual of the contrast after projection onto the range of M.
RANK_TOL = 1e-10
RANGE_TOL = 1e-8
# The Cholesky path certifies a row full-rank when ``lambda_min > delta``
# with ``delta = CERTIFICATE_MARGIN * RANK_TOL * tr M``: either a
# determinant bound from the factor of ``M`` exceeds ``2 delta``, or ``M -
# delta I`` still factorises. The margin above RANK_TOL absorbs the
# backward error of either factorisation.
CERTIFICATE_MARGIN = 10.0
# Cap on ``|tr M|`` in that shift, so that it stays finite.
_LARGEST = np.finfo(float).max
# Relative rounding of a criterion value: two values closer than this say
# nothing about which design or weighting is better.
CRITERION_ROUNDING = 16 * np.finfo(float).eps
# Working-array budget of one stacked evaluation; ``values`` scores larger
# batches in chunks, so a big neighbourhood never builds its
# ``(K, clusters, cells, cells)`` arrays, or the kernel its copies of the
# ``(K, P, P)`` stack, beyond this size.
CHUNK_BYTES = 1 << 19
# :meth:`DesignCriterion.single_moves` screens only designs whose
# information matrix has ``tr M tr M^-1`` (at least the condition number)
# up to SCREEN_CONDITION (as :meth:`DesignCriterion.bound_terms` vouches
# only for such designs), and vouches only for rows whose two rank-one
# denominators exceed SCREEN_DENOMINATOR: rounding in a denominator near
# zero is amplified without bound, as where a removal leaves a direction of
# ``M`` (almost) unidentified.
SCREEN_CONDITION = 1e5
SCREEN_DENOMINATOR = 1e-3


def treatment_contrast(n_params: int) -> np.ndarray:
    """Contrast selecting the treatment coefficient (the last column)."""
    check_count("n_params", n_params)
    if n_params < 1:
        raise ValidationError("n_params must be at least 1")
    c = np.zeros(n_params)
    c[-1] = 1.0
    return c


def _symmetrised(m: np.ndarray) -> np.ndarray:
    """``(M + M') / 2`` of a ``(..., P, P)`` stack, as a new array."""
    m = m + m.swapaxes(-1, -2)
    m *= 0.5
    return m


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Stacked Cholesky factors, NaN on every row that LAPACK refuses.

    A stacked call raises ``LinAlgError`` for the whole stack when one row
    cannot be factorised; the stack is then halved until the failure is
    pinned to single rows. A row LAPACK does factorise may still hold NaN
    (numpy 2 factorises a NaN matrix without raising), which reaches the
    last diagonal entry of its factor.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if len(m) == 1:
            return np.full(m.shape, np.nan)
        half = len(m) // 2
        return np.concatenate([_cholesky(m[:half]), _cholesky(m[half:])])


def _factorised(lower: np.ndarray) -> np.ndarray:
    """Rows of a stack of Cholesky factors with a finite, positive last
    diagonal entry; written so that a NaN pivot fails."""
    pivots = lower[:, -1, -1]
    return (pivots > 0.0) & (pivots < math.inf)


def _contrast_kernel(m: np.ndarray):
    """Rank-aware solve behind every criterion value.

    ``m`` is a stack ``(K, P, P)`` of information matrices and the contrast
    is ``e_P``, the treatment coefficient. Returns ``(value, lower)`` with
    ``value[k] = e_P' M^+ e_P``, ``inf`` where the contrast is outside the
    range of ``M`` or ``M`` is not positive semi-definite to tolerance, and
    ``lower[k]`` the Cholesky factor of the symmetrised ``M`` on a row the
    certificate below passes, NaN on every other row.

    The stack is symmetrised and factorised in one stacked call, ``M = L
    L'``. A row is certified full-rank when its factor has a finite,
    positive last diagonal entry and ``lambda_min > delta`` with ``delta =
    CERTIFICATE_MARGIN * RANK_TOL * tr M``: then ``lambda_min >=
    CERTIFICATE_MARGIN * RANK_TOL * lambda_max`` and a rank-revealing
    eigen-solve would keep every eigenvalue. A certified row scores ``1 /
    L_PP^2``: ``L^-1 e_P = e_P / L_PP`` since ``L`` is lower triangular.

    The factor itself bounds ``lambda_min``. For a positive semi-definite
    ``M`` with ``P > 1``, the other ``P - 1`` eigenvalues have a product of
    at most ``(tr M / (P - 1))^(P - 1)`` by the AM-GM inequality, and ``det
    M = prod_i L_ii^2``, so ``lambda_min >= det M ((P - 1) / tr M)^(P -
    1)``. A row is vouched for when that bound exceeds ``2 delta``, that
    is, when ``prod_i ((P - 1) L_ii^2 / tr M) / (P - 1) > 2
    CERTIFICATE_MARGIN * RANK_TOL`` holds and is finite. The product is
    taken factor by factor: its first ``j`` factors multiply to at most
    ``((P - 1) / j)^j <= exp((P - 1) / e)``, so it overflows only beyond
    ``P`` of about 1,900, and a row whose bound overflows is merely not
    vouched for. The factor 2 absorbs the backward error of the
    factorisation, about ``P eps tr M`` against ``delta = 1e-9 tr M``, so
    ``M - delta I`` would factorise on every row the bound vouches for.
    Every other factorised row is factorised again at ``M - delta I``, in
    one stacked call over those rows alone, and is certified if that
    succeeds; so the certified rows are exactly those on which both ``M``
    and ``M - delta I`` factorise. A ``1 x 1`` ``M`` that factorises is
    certified. Every row left (rank-deficient, indefinite, NaN or infinite)
    is solved on its own by :func:`_eigen_solve`. Each row is decided and
    solved on its own, so its results do not depend on the rest of the
    stack.
    """
    m = _symmetrised(m)
    k, p = m.shape[:2]
    lower = _cholesky(m)
    value = 1.0 / np.square(lower[:, -1, -1])
    # |tr M| capped at the largest float: an infinite entry on the diagonal
    # then never meets an infinite shift (inf - inf)
    trace = np.minimum(np.abs(np.add.reduce(m.reshape(k, p * p)[:, ::p + 1], axis=-1)),
                       _LARGEST)
    if p == 1:
        certified = _factorised(lower)
    else:
        bound = _determinant_bound(lower, trace)
        # a finite bound above the threshold also vouches that every pivot
        # is finite and positive
        certified = ((bound > 2.0 * (p - 1) * CERTIFICATE_MARGIN * RANK_TOL)
                     & (bound < math.inf))
    if np.count_nonzero(certified) < k:
        doubtful = np.flatnonzero(~certified & _factorised(lower))
        if doubtful.size:
            shifted = m[doubtful]
            shifted.reshape(-1, p * p)[:, ::p + 1] -= (
                CERTIFICATE_MARGIN * RANK_TOL * trace[doubtful])[:, None]
            certified[doubtful] = _factorised(_cholesky(shifted))
        uncertified = ~certified
        if uncertified.any():
            lower[uncertified] = np.nan
            value[uncertified] = _eigen_solve(m[uncertified])[0]
    return value, lower


def _determinant_bound(lower: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """``prod_i ((P - 1) L_ii^2 / tr M)`` per row of a ``(K, P, P)`` stack of
    Cholesky factors, ``tr M`` read from ``trace``, taken factor by factor
    (see :func:`_contrast_kernel`). A row whose trace is zero has a NaN
    factor, and NaN / 0 does not warn."""
    k, p = lower.shape[:2]
    pivots = lower.reshape(k, p * p)[:, ::p + 1]
    factors = pivots * pivots
    factors /= trace[:, None]
    factors *= p - 1
    return np.multiply.reduce(factors, axis=-1)


def _eigen_solve(m: np.ndarray):
    """``(value, y)`` of :func:`_contrast_kernel` through a rank-revealing
    eigendecomposition of a symmetric stack: eigenvalues below ``RANK_TOL``
    of the largest are dropped, and the row is ``inf`` if ``e_P`` has more
    than ``RANGE_TOL`` of its length along the dropped eigenvectors. A row
    with a non-finite entry, which LAPACK would refuse, is solved as the
    zero matrix and so is ``inf``."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        m = np.where(finite[:, None, None], m, 0.0)
    w, vecs = np.linalg.eigh(m)
    wmax = w[..., -1:]
    keep = w > RANK_TOL * np.maximum(wmax, 0.0)
    coef = vecs[..., -1, :]  # e_P' vecs
    lam = np.where(keep, w, np.inf)
    value = np.add.reduce(coef ** 2 / lam, axis=-1)
    # the part of e_P outside the range of M lies along the dropped
    # eigenvectors; written so that a NaN matrix also counts as bad
    outside = np.add.reduce(np.where(keep, 0.0, coef) ** 2, axis=-1)
    bad = ((wmax[..., 0] <= 0.0) | (w[..., 0] < -RANK_TOL * wmax[..., 0])
           | ~(outside <= RANGE_TOL ** 2))
    value[bad] = np.inf
    return value, (vecs @ (coef / lam)[..., None])[..., 0]


def _factor_solve(m: np.ndarray):
    """``(value, y, lower)`` of a ``(K, P, P)`` stack of information
    matrices: the kernel's values and Cholesky factors
    (:func:`_contrast_kernel`) and ``y = M^+ e_P`` (``(K, P)``). On the
    rows the kernel certifies, ``L^-1 e_P = e_P / L_PP``, so ``y = L^-T
    (e_P / L_PP)`` is one stacked back substitution on the kernel's own
    factor: no second factorisation and no inverse. Every other row of
    finite value takes ``y`` from one stacked :func:`_eigen_solve` over
    those rows alone, and its factor is NaN. Where the value is infinite,
    ``y`` is NaN."""
    value, lower = _contrast_kernel(m)
    # value * L_PP is 1 / L_PP on a certified row of finite value, NaN on a
    # row the kernel does not certify (its factor is NaN) and inf where the
    # value is; their sum is finite only when every row is of the first
    # kind (an overflow merely takes the masked path)
    pivots = lower[:, -1, -1]
    every = math.isfinite(value @ pivots)
    solved = slice(None) if every else np.isfinite(value * pivots)
    upper = lower[solved].swapaxes(-1, -2)
    rhs = np.zeros(upper.shape[:-1] + (1,))
    rhs[:, -1, 0] = 1.0 / pivots[solved]
    # an LU of the upper-triangular L' exchanges no rows, so this is a plain
    # back substitution; b is (K, P, 1) because numpy 1 reads a (K, P) b as
    # K vectors and numpy 2 as one matrix
    solved_y = np.linalg.solve(upper, rhs)[..., 0]
    if every:
        return value, solved_y, lower
    y = np.full(m.shape[:2], np.nan)
    y[solved] = solved_y
    rest = ~solved & (value < math.inf)
    if rest.any():
        y[rest] = _eigen_solve(_symmetrised(m[rest]))[1]
    return value, y, lower


def contrast_variance(m: np.ndarray, c: np.ndarray) -> float:
    """``c' M^+ c`` of one information matrix, through the rank-aware
    kernel every criterion value uses.

    The kernel scores the contrast ``e_P``, so ``c`` is first mapped onto
    ``+-|c| e_P`` by an orthogonal ``H``: ``H M H'`` has the same ``c' M^+
    c``, eigenvalues and trace, and so the same rank decisions under the
    kernel's certificate. A scaled unit contrast ``c = a e_k`` takes the
    symmetric permutation ``k <-> P``, which is exact, so its value is that
    of ``e_k`` times ``|a| |a|`` bit for bit; any other contrast takes the
    Householder reflection taking ``c`` to ``-sign(c_P) |c| e_P``.

    Returns ``inf`` when the contrast is outside the range of ``M`` (the
    design carries no information on it), when ``M`` is not positive
    semi-definite to tolerance, or when ``M`` has a non-finite entry.
    Raises :class:`ValidationError` unless ``M`` is a real square matrix
    and ``c`` a finite, non-zero real vector of matching length.
    """
    m, c = np.asarray(m), np.asarray(c)
    if m.dtype.kind not in "iuf" or c.dtype.kind not in "iuf":
        raise ValidationError("information matrix and contrast must be real")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("information matrix must be square")
    if c.shape != (m.shape[0],):
        raise ValidationError("contrast length does not match the information matrix")
    if not np.isfinite(c).all():
        raise ValidationError("contrast must be finite")
    if not c.any():
        raise ValidationError("contrast must be non-zero")
    if not np.isfinite(m).all():
        return math.inf
    nonzero = np.flatnonzero(c)
    if nonzero.size == 1:
        k = nonzero[0]
        scale = abs(float(c[k]))
        order = np.arange(c.size)
        order[[k, -1]] = order[[-1, k]]
        mapped = m[np.ix_(order, order)].astype(float)
    else:
        # H = I - 2 v v' / v'v maps c onto -sign(c_P) |c| e_P; adding to c_P
        # a term of its own sign avoids cancellation in v
        v = c.astype(float)
        scale = float(np.linalg.norm(v))
        v[-1] += math.copysign(scale, v[-1])
        h = np.eye(c.size) - (2.0 / (v @ v)) * np.outer(v, v)
        mapped = h @ m @ h
    return float(_contrast_kernel(mapped[None])[0][0]) * scale * scale


def c_optimality(m: np.ndarray, c: np.ndarray) -> float:
    """Design criterion value for an information matrix and contrast; see
    :func:`contrast_variance`."""
    return contrast_variance(m, c)


def information_matrix(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``X' Sigma^-1 X`` for an explicit observation covariance."""
    x, sigma = as_floats("x", x), as_floats("sigma", sigma)
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
    check_instance("model", model, ModelSpec)
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
    check_instance("covariance", cov, CovarianceSpec)
    model = model or ModelSpec()
    lay = expand_design(space, design)
    xbar, base, w = _cell_block(model, cov, lay.cell_period, lay.cell_treated,
                                space.n_periods)
    same_cluster = lay.cell_cluster[:, None] == lay.cell_cluster[None, :]
    sigbar = np.where(same_cluster, base, 0.0)
    sigbar[np.diag_indices_from(sigbar)] += 1.0 / (w * lay.cell_n)
    return xbar, sigbar


def _cluster_sum(blocks: np.ndarray) -> np.ndarray:
    """The sum over clusters, in cluster order, of their information terms
    ``blocks`` (``(..., C, P, P)``): the one cluster sum, which
    :func:`_information` and :meth:`_ClusterBlocks.rank_one_terms` share:
    both sum the blocks of one assembly of the cluster system
    (:meth:`_ClusterBlocks._system`), so their information matrices agree
    bit for bit."""
    # a reduction over an outer axis adds the clusters one after another;
    # starting from -0.0 keeps every bit, signed zeros included, of summing
    # them in a loop, where a plain reduction turns a sum of -0.0 into 0.0
    return np.add.reduce(blocks, axis=-3, initial=-0.0)


@dataclass
class _ClusterBlocks:
    """Cell-level pieces of every cluster under ``L`` models (covariance and
    outcome model) on one space, stacked over clusters and padded to a
    common cell count: ``(C, c, ...)``, the models' covariances and weights
    on a leading model axis, ``(L, C, c, ...)``. A padding cell has a zero
    row in ``x``, never holds observations and so adds zero wherever it
    goes. :meth:`solve` and :meth:`gradient` take row ``l`` of a ``(...,
    L, J)`` batch under model ``l``, and a ``(..., 1, J)`` batch's rows
    under every one."""

    unit_idx: np.ndarray     # (C, c) owning unit of each cell
    x: np.ndarray            # (C, c, P) cell rows of the fixed-effects matrix
    base: np.ndarray         # (L, C, c, c) cell-level random-effect covariance
    weight: np.ndarray       # (L, C, c) iterated weight of one observation per cell
    n_per: np.ndarray        # (C, c) observations added per unit replicate
    unit_cell: np.ndarray    # (J,) each unit's cell among the flattened cells,
                             # -1 for a unit of several cells

    def __post_init__(self):
        # per-cell constants of every solve and gradient
        self._eye = np.eye(self.unit_idx.shape[-1])
        self._cell_unit = self.unit_idx.ravel()
        # precision one unit replicate adds to each cell, (L, C, c); zero at
        # padding
        self.cell_precision = self.n_per * self.weight

    def _system(self, counts: np.ndarray):
        """``(s, sx, a)`` of per-unit multiplicities ``counts`` (``(...,
        J)``): ``s = sqrt(w n_obs)`` (``(..., C, c)``), with ``n_obs = n_per
        counts[unit_idx]``, ``sx = S X`` and ``a = I + S B S`` with ``S =
        diag(s)``. The one assembly of the cluster system, which
        :meth:`solve` and :meth:`rank_one_terms` solve; the same ``a`` and
        ``sx``, and so the same ``t``, whatever else is solved with them."""
        s = np.sqrt(self.weight * (counts[..., self.unit_idx] * self.n_per))
        return (s, s[..., None] * self.x,
                self.base * (s[..., :, None] * s[..., None, :]) + self._eye)

    def solve(self, counts: np.ndarray):
        """``(s, t, blocks)`` for per-unit multiplicities ``counts`` (``(...,
        J)``).

        With ``S = diag(s)`` from :meth:`_system`, the covariance of a
        cluster's cell means is ``B + S^-2``, so the cluster adds ``sx' t``
        to the information, with ``sx = S X`` and ``t = (I + S B S)^-1 S X``,
        and its GLS weights are ``Sigma^-1 X = S t``. Cells holding no
        observations get zero rows and drop out. ``blocks`` holds each
        cluster's term ``sx' t``, ``(..., C, P, P)``; :func:`_cluster_sum`
        sums them.
        """
        s, sx, a = self._system(counts)
        t = np.linalg.solve(a, sx)
        return s, t, sx.swapaxes(-1, -2) @ t

    def gradient(self, s: np.ndarray, t: np.ndarray, y: np.ndarray,
                 n_units: int) -> np.ndarray:
        """Cluster-granularity ``grad`` (``(..., J)``) of
        :meth:`DesignCriterion.gradient` from designs' ``(s, t)`` of
        :meth:`solve` (``(..., C, c)``, ``(..., C, c, P)``) and ``y = M^+ c``
        (``(..., P)``), summed per unit by one ``bincount`` that offsets the
        ``k``-th design by ``k J``."""
        lead = y.shape[:-1]
        k = math.prod(lead)
        y = y[..., None, :, None]
        a = s * (t @ y)[..., 0]
        v = (self.x @ y - self.base @ a[..., None])[..., 0]
        bins = self._cell_unit
        if k > 1:
            bins = (bins + n_units * np.arange(k)[:, None]).ravel()
        return np.bincount(bins, weights=(-self.cell_precision * (v * v)).ravel(),
                           minlength=k * n_units).reshape(lead + (n_units,))

    def rank_one_terms(self, counts: np.ndarray):
        """``(info, u, var)`` of ``K`` designs' multiplicities ``counts``
        (``(K, J)``): their information matrices (``(K, P, P)``), and per
        cell (flattened over clusters, ``(K, C c, P)`` and ``(K, C c)``) the
        row ``u = X - B S t`` and the conditional variance ``var = (B - B S
        A^-1 S B)_ii`` of the cell's random effect given the observed
        cells, with ``A = I + S B S``.

        Adding precision ``delta`` to cell ``i`` adds ``delta / (1 + delta
        var_i) u_i u_i'`` to the information. One stacked solve of the
        system :meth:`solve` solves, ``A`` from the one assembly
        (:meth:`_system`), against ``[S X, S B]`` gives both, and its ``t``
        columns are :meth:`solve`'s: ``info`` adds their cluster blocks with
        :func:`_cluster_sum`, so it is :func:`_information`'s bit for bit.
        With ``H = A^-1 S B``, both are
        ``(I + B S^2)^-1 [X, B] = S^-1 [t, H]``, so an observed cell takes
        ``u = t / s`` and ``var = H_ii / s``, free of the cancellation in the
        differences. An empty cell (``s = 0``) takes the differences, which
        stay finite there.
        """
        s, sx, a = self._system(counts)
        sb = s[..., :, None] * self.base
        p = sx.shape[-1]
        solved = np.linalg.solve(a, np.concatenate([sx, sb], axis=-1))
        t, h = solved[..., :p], solved[..., p:]
        info = _cluster_sum(sx.swapaxes(-1, -2) @ t)
        observed = s > 0
        scale = 1.0 / np.where(observed, s, 1.0)
        u = np.where(observed[..., None], t * scale[..., None],
                     self.x - self.base @ (s[..., None] * t))
        # (B S A^-1 S B)_ii = sum_j (S B)_ji H_ji, B being symmetric; a
        # reduction over an outer axis adds in j order whatever the stack
        var = np.where(observed, np.diagonal(h, axis1=-2, axis2=-1) * scale,
                       np.diagonal(self.base, axis1=-2, axis2=-1)
                       - np.add.reduce(sb * h, axis=-2))
        k = len(counts)
        return info, u.reshape(k, -1, p), var.reshape(k, -1)


def _cluster_blocks(space: DesignSpace, cov: CovarianceSpec,
                    model: ModelSpec, per_unit: bool = False) -> _ClusterBlocks:
    """One block per cluster, over the cells of all units in it, under the
    one model ``(cov, model)`` (``L = 1``); with ``per_unit``, one block per
    unit, each unit a cluster of its own."""
    by_cluster: dict[int, list[int]] = {}
    for j, unit in enumerate(space.units):
        by_cluster.setdefault(j if per_unit else unit.cluster_id, []).append(j)
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
    # padding cells hold no observations
    real = np.flatnonzero(n_per.ravel() > 0)
    owner = unit_idx.ravel()[real]
    unit_cell = np.full(space.n_units, -1)
    unit_cell[owner] = real
    unit_cell[np.bincount(owner, minlength=space.n_units) != 1] = -1
    return _ClusterBlocks(unit_idx, x, base[None], weight[None], n_per, unit_cell)


def unit_information_blocks(space: DesignSpace, cov: CovarianceSpec,
                            model: ModelSpec | None = None) -> np.ndarray:
    """Information contribution of one replicate of each unit, stacked
    (J, P, P). Valid whenever units occupy distinct clusters, so a
    design's information is the multiplicity-weighted sum of blocks. Each
    unit is a cluster of its own, whose block is its term ``(S X)' t``
    from one stacked :meth:`_ClusterBlocks.solve` at one replicate per
    unit.
    Raises :class:`ValidationError` unless ``space`` is a
    :class:`DesignSpace`, ``cov`` a :class:`CovarianceSpec` and ``model`` a
    :class:`ModelSpec` or None."""
    check_instance("space", space, DesignSpace)
    check_instance("covariance", cov, CovarianceSpec)
    if model is not None:
        check_instance("model", model, ModelSpec)
    cl = _cluster_blocks(space, cov, model or ModelSpec(), per_unit=True)
    return cl.solve(np.ones(space.n_units))[2][0]


class DesignCriterion:
    """Treatment-variance criterion for one covariance/model setting.

    Instances are immutable after construction; ``value`` maps a vector
    of per-unit multiplicities to the criterion and ``values`` maps a
    ``(K, J)`` batch of them to ``K`` criteria in one call, which is how
    the combinatorial searches score a whole neighbourhood; ``gradient``
    adds the derivative in each multiplicity, which the weight solvers
    follow. Every block comes from one stacked cluster solve: for
    sequence-granularity spaces it runs once, at one replicate per unit
    (:func:`unit_information_blocks`), and the unit blocks are summed;
    otherwise it runs on the whole batch. Where every unit is one cell,
    ``single_moves`` screens all the single-unit moves from one design by
    rank-one updates, which the greedy walks of :mod:`crtoptim.search` use
    to pick the moves worth scoring; ``bound_terms`` gives the first-order
    terms by which local search bounds a design's swaps from below and
    scores only those that can win.

    Every criterion is data of one shape: one stack of its models' blocks
    (:func:`_stacked_clusters`), with a model axis of length ``L``, their
    priors and their form. A plain criterion is one model, with prior 1 in
    the linear form, and takes its one model's results as they are; a
    subclass that sets a stack of several models, their priors and form,
    and ``_summed``, inherits every method, as
    :class:`crtoptim.robust.RobustCriterion` does.
    Raises :class:`ValidationError` unless ``space`` is a
    :class:`DesignSpace`, ``covariance`` a :class:`CovarianceSpec` and
    ``model`` a :class:`ModelSpec` or None.
    """

    # one model, prior 1, the linear form; its results are that model's,
    # with no prior sum (_summed)
    _priors, _log_form, _summed = (1.0,), False, False

    def __init__(self, space: DesignSpace, covariance: CovarianceSpec,
                 model: ModelSpec | None = None):
        check_instance("space", space, DesignSpace)
        check_instance("covariance", covariance, CovarianceSpec)
        if model is not None:
            check_instance("model", model, ModelSpec)
        self.space = space
        self.covariance = covariance
        self.model = model or ModelSpec()
        p = space.n_periods + 1
        self.contrast = treatment_contrast(p)
        # a row's information matrix and the kernel's copies of it
        row_bytes = 6 * 8 * p * p
        # its stack of one model (see _stacked_clusters): its unit blocks,
        # (J, 1, P, P), or its cluster blocks, (1, C, c, ...)
        if space.granularity == "sequence":
            self._stack = unit_information_blocks(space, covariance, self.model)[:, None]
        else:
            self._stack = cl = _cluster_blocks(space, covariance, self.model)
            n_clusters, n_cells = cl.unit_idx.shape
            row_bytes += 8 * n_clusters * n_cells * (n_cells + 2 * p)
        # rows of one chunk under one model
        self._chunk_rows = max(1, CHUNK_BYTES // row_bytes)

    # -- evaluation ----------------------------------------------------

    def _batch(self, batch) -> np.ndarray:
        batch = np.asarray(batch)
        if batch.dtype.kind not in "iuf":
            raise ValidationError(
                f"multiplicities must be integers or floats, got {batch.dtype}")
        if batch.ndim != 2 or batch.shape[1] != self.space.n_units:
            raise ValidationError(
                f"counts must be a (K, {self.space.n_units}) batch of "
                f"per-unit multiplicities, got shape {batch.shape}")
        # one pass catches negative, NaN and infinite entries alike; an
        # integer is finite, so its smallest entry decides
        valid = (batch.min(initial=0) >= 0 if batch.dtype.kind in "iu"
                 else ((batch >= 0) & (batch < np.inf)).all())
        if not valid:
            raise ValidationError(
                "multiplicities must be finite and non-negative")
        # as floats: einsum casts an integer batch 3x slower, to the same sums
        return batch.astype(float, copy=False)

    def information(self, counts) -> np.ndarray:
        """Information matrix of the design given per-unit multiplicities.
        Raises :class:`ValidationError` for a class of several models,
        which has one per model."""
        if len(self._priors) > 1:
            raise ValidationError("a class of several models has no one information matrix")
        return self._model_information(counts)[0]

    def _model_information(self, counts) -> np.ndarray:
        """The information matrix of the design under each model of the
        stack, ``(L, P, P)``."""
        return _information(self._stack, self._batch(np.asarray(counts)[None])[:, None])[0][0]

    def values(self, batch) -> np.ndarray:
        """Criterion values of a ``(K, J)`` batch of per-unit multiplicities,
        one per row: the prior sum (:func:`_prior_sum`) of the rows' kernel
        values under each model in the stack. Row ``i`` equals
        ``value(batch[i])`` bit for bit.

        It scores a batch chunk by chunk, at every granularity: a chunk of
        ``1 / L`` of a plain chunk's rows takes one information step
        (:func:`_information`, every row under every model: one block sum
        over the stacked unit blocks, or one solve of the stacked cluster
        blocks) and one kernel call.

        Multiplicities must be finite and non-negative; a fractional row is
        legal and scores the weighted design it describes (the weight
        solvers evaluate ``N * phi``). Raises :class:`ValidationError`
        otherwise.
        """
        batch, n_models = self._batch(batch), len(self._priors)
        rows = max(1, self._chunk_rows // n_models)
        out = np.empty((n_models, len(batch)))
        for i in range(0, len(batch), rows):
            m = _information(self._stack, batch[i:i + rows, None])[0]
            out[:, i:i + rows] = _contrast_kernel(m.reshape(-1, *m.shape[2:]))[0].reshape(
                m.shape[:2]).T
        return _prior_sum(self, out) if self._summed else out[0]

    def value(self, counts) -> float:
        """Criterion value of one row of counts (``inf`` when unidentified)."""
        return float(self.values(np.asarray(counts)[None])[0])

    def gradient(self, counts) -> tuple[float, np.ndarray]:
        """``(value, grad)`` of one row of multiplicities, with ``grad[j]``
        the derivative of the value in ``counts[j]``: :func:`_gradients` on a
        stack of one.

        With ``y = M^+ c``, by one back substitution on the kernel's
        Cholesky factor (:func:`_factor_solve`), unit ``j`` gives ``-y' B_j
        y`` at sequence granularity, ``B_j`` its information block. At cluster granularity,
        from the same stacked solve as the value, a cell holding ``n``
        observations adds ``-n_per w v^2`` to its unit, where
        ``v = X y - B a = a / (w n)`` is the residual part of the GLS
        weights ``a = S t y``; unlike ``a / (w n)`` it stays finite at
        empty cells. ``grad`` is NaN where the value is infinite. For a
        class of models both are the prior sums of the models' (in the log
        form, of ``log f_l`` and of ``g_l / f_l``), so ``grad`` is the
        derivative of :meth:`values`.
        """
        value, grad = _gradients((self,), np.asarray(counts)[None])
        return float(value[0]), grad[0]

    def single_moves(self, counts, units, step: int):
        """Screened criterion values of the design ``counts`` with one
        replicate of each unit in ``units`` added (``step`` 1) or removed
        (``step`` -1), one per unit, from one solve of ``counts`` alone; or
        ``None`` where the screen does not apply.

        Adding precision ``delta = step w n_per`` to a cell changes ``M``
        by ``rho u u'`` with ``rho = delta / (1 + delta var)`` and ``(u,
        var)`` from :meth:`_ClusterBlocks.rank_one_terms`, so with the
        kernel's ``f = c' M^-1 c``, ``y = M^-1 c`` and ``M = L L'`` the moved
        design scores ``f - rho (y'u)^2 / (1 + rho |L^-1 u|^2)``. That agrees
        with :meth:`values` to rounding, which grows with the conditioning
        of ``M`` and as the denominators approach zero. A row is NaN where
        either denominator is at most ``SCREEN_DENOMINATOR``: the screen
        cannot vouch for it. ``None`` at sequence granularity, for a unit
        of more than one cell, and for a design whose ``M`` the kernel
        does not certify full-rank or whose ``tr M tr M^-1`` exceeds
        ``SCREEN_CONDITION``. At every granularity, raises
        :class:`ValidationError` for counts that ``values`` rejects, for
        ``units`` that are not unit indices, for a ``step`` other than 1 or
        -1, and for a removal from a unit the design does not hold.

        Once the arguments pass, this is :func:`_single_moves` on a stack
        of one: the greedy fills of a weight grid's cells screen their moves
        in one stacked call per step, each row bit for bit its lone screen.
        For a class of models the screen is the prior sum of the models'
        screens, as :meth:`values` is of their values, and ``None`` where
        any model's is.
        """
        batch = self._batch(np.asarray(counts)[None])
        units = np.asarray(units)
        if (units.dtype.kind not in "iu" or units.ndim != 1
                or not ((units >= 0) & (units < self.space.n_units)).all()):
            raise ValidationError("units must be a vector of unit indices")
        check_count("step", step)
        if step not in (1, -1):
            raise ValidationError("step must be 1 or -1")
        if step == -1 and (batch[0, units] < 1).any():
            raise ValidationError("a removal from a unit the design does not hold")
        return _single_moves((self,), batch, [units], step)[0]

    def bound_terms(self, batch):
        """First-order terms of a ``(K, J)`` batch of multiplicities,
        ``(grad, vouched, scale)``, from which local search bounds every
        swap from below.

        ``1 / (c' M^-1 c)`` is the c-information, concave and increasing in
        ``M`` (Pukelsheim 1993, ch. 3). At sequence granularity ``M`` is
        linear in the multiplicities; elsewhere each cluster adds ``X' (B +
        D^-1)^-1 X``, a parallel sum with ``D`` linear in them, and so
        concave in them (Anderson & Duffin 1969), empty cells included. So
        the value and its logarithm are convex in the multiplicities at
        every granularity: a design ``n'`` scores at least ``f(n) + grad .
        (n' - n)``, with ``grad`` the derivative of :meth:`gradient` (for a
        plain criterion, its rows bit for bit). ``vouched[k]`` says that the
        kernel certifies row ``k``'s ``M`` and that its ``tr M tr M^-1`` is
        at most ``SCREEN_CONDITION``, so that ``grad`` is accurate far beyond
        ``SCREEN_RTOL``; a row it does not vouch for may hold NaN. The
        kernel's determinant bound vouches for most rows without an inverse
        (:func:`_conditioned`).
        ``scale[k]`` is the size of row ``k``'s value that its rounding
        grows with, ``sum_l prior_l |t_l|`` over the models' terms: the
        value itself for a plain criterion. Raises :class:`ValidationError`
        for a batch that :meth:`values` rejects.

        For a class of models ``grad`` is the prior sum of the models'
        gradients (:func:`_prior_sum`), as :meth:`gradient` takes it, and so
        its rows bit for bit; a row is vouched for only
        where every model's is: a linear average of convex criteria is
        convex, and so is a log average, ``sum_l prior_l log f_l``, whose
        gradient is ``sum_l prior_l g_l / f_l`` and whose scale ``sum_l
        prior_l |log f_l|`` covers the rounding of terms that cancel in the
        sum. Each chunk takes one :func:`_first_order` call on the
        criterion's stack, every row under every model, and so inverts no
        matrix on its well-conditioned rows.
        """
        batch, priors = self._batch(batch), np.asarray(self._priors, dtype=float)
        rows = max(1, self._chunk_rows // len(priors))
        grad = np.empty(batch.shape)
        vouched = np.empty(len(batch), dtype=bool)
        scale = np.empty(len(batch))
        for i in range(0, len(batch), rows):
            # row k under model l: (K, L) values and (K, L, J) gradients
            value, g, m, lower = _first_order(self._stack, batch[i:i + rows, None])
            vouched[i:i + rows] = _conditioned(m, lower).reshape(len(value), -1).all(axis=1)
            terms = np.log(value) if self._log_form else value
            scale[i:i + rows] = np.add.reduce(priors * abs(terms), axis=-1)
            grad[i:i + rows] = (_prior_sum(self, g.swapaxes(0, 1), value.T) if self._summed
                                else g[:, 0])
        return grad, vouched, scale

    def value_of(self, design: Design) -> float:
        """Criterion value of a :class:`Design`, which must be valid for
        the space; raises :class:`ValidationError` otherwise."""
        check_instance("design", design, Design)
        design.validate(self.space)
        return self.value(np.asarray(design.counts))


def _as_criterion(space, cov, model=None, plain=DesignCriterion) -> DesignCriterion:
    """The criterion that an optimiser given ``cov`` on ``space`` runs, the
    one rule of every optimiser: the plain ``plain(space, cov,
    model=model)`` for a :class:`CovarianceSpec`, else ``cov`` itself,
    which must be a criterion (a model class included) built on ``space``
    and given without ``model``, since it carries its own models;
    :class:`ValidationError` otherwise."""
    check_instance("space", space, DesignSpace)
    if isinstance(cov, CovarianceSpec):
        return plain(space, cov, model=model)
    if not isinstance(cov, DesignCriterion) or model is not None or cov.space != space:
        raise ValidationError("cov must be a CovarianceSpec, or a DesignCriterion built "
                              "on this space and given without a model")
    return cov


def _prior_sum(criterion, terms, values=None):
    """``sum_l prior_l t_l`` over the models of ``criterion``, in stack
    order, with ``t_l`` from ``terms[l]``: the term itself in the linear
    form; in the log form its logarithm, or, given the models' ``values``,
    ``terms[l] / values[l]``, the derivative of ``log f_l`` from that of
    ``f_l``. One strictly sequential pass, ``np.add.accumulate`` along the
    model axis, from ``0.0 + prior_0 t_0``: the sums of adding the models
    one by one, bit for bit (a pairwise ``np.add.reduce`` would change their
    last bits). A class of one in the linear form gives ``0.0 + 1.0 t_0``,
    which is ``t_0`` bit for bit."""
    terms = np.asarray(terms)
    if criterion._log_form:
        terms = np.log(terms) if values is None else terms / values[..., None]
    priors = np.asarray(criterion._priors).reshape((-1,) + (1,) * (terms.ndim - 1))
    weighted = priors * terms
    # 0.0 + x is x, but for a -0.0 term, which it makes 0.0
    weighted[0] += 0.0
    return np.add.accumulate(weighted, axis=0)[-1]


def _expand(criteria):
    """The row of each model's criterion in the stack of ``criteria``
    (:func:`_stacked_clusters`), or ``None`` when no criterion sums its
    models, so that a stack of plain criteria takes no extra step."""
    if not any(criterion._summed for criterion in criteria):
        return None
    return np.repeat(np.arange(len(criteria)), [len(c._priors) for c in criteria])


def _by_class(criteria, rows):
    """``rows``, one per model of ``criteria`` in stack order, cut into each
    criterion's."""
    return np.split(rows, np.cumsum([len(criterion._priors) for criterion in criteria])[:-1])


def _stacked_clusters(criteria):
    """The stacks of ``criteria`` (all on one space) as one, each
    criterion's models laid end to end along the model axis: at sequence
    granularity, where each unit replicate is a cluster of its own, their
    unit blocks side by side, ``(J, L, P, P)``; elsewhere their cluster
    blocks, ``(L, C, c, ...)``, with the cells' unit map carried over. A
    lone criterion's own stack."""
    if len(criteria) == 1:
        return criteria[0]._stack
    stacks = [criterion._stack for criterion in criteria]
    if isinstance(stacks[0], np.ndarray):
        return np.concatenate(stacks, axis=1)
    return replace(stacks[0], base=np.concatenate([s.base for s in stacks]),
                   weight=np.concatenate([s.weight for s in stacks]))


def _information(stack, counts):
    """``(m, solved)`` of per-unit multiplicities ``counts`` (``(..., J)``)
    under a stack of models (:func:`_stacked_clusters`), against whose ``L``
    models the leading axes of ``counts`` broadcast as in
    :func:`_first_order`: ``m`` (``(..., L, P, P)``) holds each row's
    information matrix, and ``solved`` the ``(s, t)`` of its cluster solve,
    or ``None`` at sequence granularity. The one step from counts to
    information matrices, for every criterion quantity: the rank-one
    screen's matrices (:meth:`_ClusterBlocks.rank_one_terms`) are these bit
    for bit.

    At sequence granularity ``m`` is one broadcast ``einsum`` over the
    ``(J, L, P, P)`` unit blocks, summed in unit order, whatever the batch.
    Elsewhere it is one :meth:`_ClusterBlocks.solve`, whose cluster blocks
    :func:`_cluster_sum` adds in cluster order. Never a BLAS product across
    rows, whose kernel (and rounding) could change with ``K``: a row's
    matrix does not depend on the rest of the batch."""
    if isinstance(stack, _ClusterBlocks):
        s, t, blocks = stack.solve(counts)
        return _cluster_sum(blocks), (s, t)
    m = np.einsum("...lj,jlx->...lx", counts, stack.reshape(*stack.shape[:2], -1))
    return m.reshape(m.shape[:-1] + stack.shape[2:]), None


def _first_order(stack, counts):
    """``(value, grad, m, lower)`` of per-unit multiplicities ``counts``
    (``(..., J)``) under a stack of models (:func:`_stacked_clusters`),
    against whose ``L`` models the leading axes of ``counts`` broadcast: a
    ``(L, J)`` batch scores row ``l`` under model ``l``, a ``(K, 1, J)``
    batch every row under every model. ``value`` (``(...)``) and ``grad`` (``(...,
    J)``) are each row's kernel value and its derivative in each
    multiplicity, as :meth:`DesignCriterion.gradient` defines them; ``m``
    and ``lower`` (``(N, P, P)``, rows in order) its information matrix
    and the kernel's Cholesky factor of it, from :func:`_factor_solve`.

    One information step (:func:`_information`), one :func:`_factor_solve`
    (a back substitution, no inverse) and one contraction: ``-y' B_j y`` as
    one three-operand ``einsum`` over the ``(J, L, P, P)`` unit blocks,
    which reduces every row in the order of a lone model's, or
    :meth:`_ClusterBlocks.gradient`."""
    m, solved = _information(stack, counts)
    lead, p = m.shape[:-2], m.shape[-1]
    m = m.reshape(-1, p, p)
    value, y, lower = _factor_solve(m)
    y = y.reshape(lead + (p,))
    # the NaN y of a row of infinite value makes its whole gradient NaN
    grad = (-np.einsum("...li,jlim,...lm->...lj", y, stack, y) if solved is None
            else stack.gradient(*solved, y, counts.shape[-1]))
    return value.reshape(lead), grad, m, lower


def _gradients(criteria, batch, stack=None):
    """``(value, grad)`` (``(L,)``, ``(L, J)``) of a ``(L, J)`` batch, row
    ``l`` scored under ``criteria[l]``, all on one space; row ``l`` equals
    ``criteria[l].gradient(batch[l])`` bit for bit, which is this on a stack
    of one. Each row is scored under every model of its criterion, in one
    :func:`_first_order` call on the criteria's stack, ``stack`` when given
    (``_stacked_clusters(criteria)``, kept by a caller that scores one
    stack again and again), and :func:`_prior_sum` sums the models' results
    per criterion."""
    batch, owner = criteria[0]._batch(batch), _expand(criteria)
    value, grad = _first_order(_stacked_clusters(criteria) if stack is None else stack,
                               batch if owner is None else batch[owner])[:2]
    if owner is None:
        return value, grad
    value, grad = _by_class(criteria, value), _by_class(criteria, grad)
    return (np.array([_prior_sum(c, f) for c, f in zip(criteria, value)]),
            np.stack([_prior_sum(c, g, f) for c, f, g in zip(criteria, value, grad)]))


def _conditioned(m: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Rows of a ``(K, P, P)`` stack of information matrices, with their
    Cholesky factors from :func:`_factor_solve`, that the kernel certifies
    and whose ``tr M tr M^-1`` (at least the condition number) is at most
    ``SCREEN_CONDITION``: exactly the rows whose ``tr M |L^-1|_F^2`` is.

    The kernel's determinant bound vouches for most rows without an
    inverse.
    ``tr M^-1 <= P / lambda_min`` and ``lambda_min >= det M ((P - 1) / tr
    M)^(P - 1)`` (:func:`_contrast_kernel`), so ``tr M tr M^-1 <= P (P -
    1) / prod_i ((P - 1) L_ii^2 / tr M)``. By Maclaurin's inequality that
    bound is at least ``(P / (P - 1))^(P - 1) >= 2`` times ``tr M tr
    M^-1``, far beyond rounding, so a row it vouches for passes the exact
    test too. Only the certified rows it cannot vouch for (and every
    certified row when ``P = 1``) take ``tr M^-1 = |L^-1|_F^2``, from an
    inverse of their factors alone; a row the kernel does not certify has
    a NaN factor and fails."""
    k, p = m.shape[:2]
    trace = np.add.reduce(m.reshape(k, -1)[:, ::p + 1], axis=-1)
    if p == 1:
        conditioned = np.zeros(k, dtype=bool)
    else:
        # compared without dividing, so that a product that underflows to 0
        # does not warn; one that overflows (P beyond about 1,900) or is NaN
        # is merely not vouched for
        product = _determinant_bound(lower, trace)
        conditioned = ((product >= p * (p - 1) / SCREEN_CONDITION)
                       & (product < math.inf))
    if not conditioned.all():
        doubtful = np.flatnonzero(~conditioned & _factorised(lower))
        flat = np.linalg.inv(lower[doubtful]).reshape(len(doubtful), p * p)
        conditioned[doubtful] = (np.add.reduce(flat * flat, axis=-1) * trace[doubtful]
                                 <= SCREEN_CONDITION)
    return conditioned


def _single_moves(criteria, batch, units, step: int) -> list:
    """Screened move values of a ``(L, J)`` batch of counts, row ``l``
    under ``criteria[l]`` (all on one space) with one replicate of each
    unit in ``units[l]`` added (``step`` 1) or removed (``step`` -1): per
    row, ``criteria[l].single_moves(batch[l], units[l], step)`` bit for bit,
    so an array or ``None``. That method checks its arguments and is this on
    a stack of one; here they are taken as checked. The criteria the screen
    applies to (every unit of ``units[l]`` one cell) are stacked, and each
    row is screened under every model of its criterion: one
    :meth:`_ClusterBlocks.rank_one_terms` solve over the stacked
    covariances, one :func:`_factor_solve`, one inverse of the factors of
    the rows the condition check vouches for and the screened values of
    every cell, of which each criterion then takes its own units'. A row's
    screen is the prior sum (:func:`_prior_sum`) of its models' screens,
    ``None`` where any of them is."""
    screened = [None] * len(criteria)
    cells = ([] if criteria[0].space.granularity == "sequence" else
             [criterion._stack.unit_cell[own] for criterion, own in zip(criteria, units)])
    rows = [l for l, own in enumerate(cells) if (own >= 0).all()]
    if not rows:
        return screened
    kept = [criteria[l] for l in rows]
    owner = _expand(kept)
    cl = _stacked_clusters(kept)
    info, u, var = cl.rank_one_terms(batch[rows] if owner is None else batch[rows][owner])
    value, y, lower = _factor_solve(info)
    conditioned = _conditioned(info, lower)
    # L^-1 u for every cell needs L^-1, on the rows the screen serves
    # alone: the one inverse on the first-order path
    lower_inv = np.full_like(lower, np.nan)
    lower_inv[conditioned] = np.linalg.inv(lower[conditioned])
    k = len(info)
    # every cell of every row, each row's matrix products of one shape
    delta = step * cl.cell_precision.reshape(k, -1)
    shrink = 1.0 + delta * var
    trusted = shrink > SCREEN_DENOMINATOR
    # rho = delta / shrink, without dividing by a denominator near zero
    rho = np.where(trusted, delta, 0.0) / np.where(trusted, shrink, 1.0)
    solved = u @ lower_inv.swapaxes(-1, -2)
    denominator = 1.0 + rho * np.add.reduce(solved * solved, axis=-1)
    trusted &= denominator > SCREEN_DENOMINATOR
    moved = value[:, None] - rho * (u @ y[:, :, None])[..., 0] ** 2 / np.where(
        trusted, denominator, 1.0)
    moved[~trusted] = np.nan
    for l, criterion, own, ok in zip(rows, kept, _by_class(kept, moved),
                                     _by_class(kept, conditioned)):
        if ok.all():
            own = own[:, cells[l]]
            screened[l] = own[0] if owner is None else _prior_sum(criterion, own)
    return screened
