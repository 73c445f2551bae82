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

Every criterion is a prior-weighted class of models, its parts: a plain
:class:`DesignCriterion` is the class of one, itself with prior 1 in the
linear form, and :class:`crtoptim.robust.RobustCriterion` a class of
several. Each method is written once, over the parts, and
:func:`_prior_sum` weighs the parts' results with the priors, in the
linear or the log form; a class of one gives its part's results bit for
bit. Scoring is batched, in one loop (:meth:`DesignCriterion.values`): it
checks a ``(K, J)`` matrix of per-unit counts once and scores it chunk by
chunk, each chunk in one block sum (or cluster solve) and one stacked
rank-aware solve over the information matrices of its rows under the
``L`` parts. The gradients the weight solvers follow come from
:func:`_gradients`, which scores one row per criterion of one space, ``(L,
J)``, under every part of each, in one cluster solve over the parts'
stacked covariances (or each part's unit-block sum at sequence
granularity), one kernel call, one ``inv`` of the certified factors
(:func:`_factor_solve`) and one ``bincount``;
:meth:`DesignCriterion.gradient` is its stack of one, and a weight grid
solved in lockstep scores all its cells at once. The rank-one screen of
the greedy walks (:func:`_single_moves`) is stacked the same way: one
solve over the parts' stacked covariances and one kernel call screen one
row per criterion, so a weight grid's rounding fills share one call per
step, and :meth:`DesignCriterion.single_moves` is its stack of one. A
stack of plain criteria is its own stack of parts and takes no extra
step. The first-order terms by which local search bounds swaps from below
(:meth:`DesignCriterion.bound_terms`) take, per chunk, the same block sum
as the values, one :func:`_factor_solve` and one ``einsum`` against the
unit blocks.
``contrast_variance`` is the kernel on a stack of one.
The kernel factorises the whole stack once by Cholesky, ``M = L
L'``, in one LAPACK call. A row is certified full-rank when its smallest
eigenvalue exceeds ``delta = CERTIFICATE_MARGIN * RANK_TOL * tr M``: a
determinant bound read off the diagonal of ``L`` vouches for that on
well-conditioned rows, and only the rows it cannot vouch for are factorised
again, at ``M - delta I``. A certified row scores the treatment contrast
``e_P`` as ``1 / L_PP^2``; ``values`` inverts no matrix, and the gradient
and the screen invert that same factor (:func:`_factor_solve`). Rows that
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
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec, iterated_weights
from .designspace import Design, DesignSpace, build_x, expand_design, _random_effects
from .errors import NumericDomainError, ValidationError, check_count, check_instance

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
    pivots = lower.reshape(k, p * p)[:, ::p + 1]
    factors = pivots * pivots
    value = 1.0 / factors[:, -1]
    # |tr M| capped at the largest float: an infinite entry on the diagonal
    # then never meets an infinite shift (inf - inf)
    trace = np.minimum(np.abs(np.add.reduce(m.reshape(k, p * p)[:, ::p + 1], axis=-1)),
                       _LARGEST)
    if p == 1:
        certified = _factorised(lower)
    else:
        # a row whose trace is zero has a NaN factor: NaN / 0 does not warn
        factors /= trace[:, None]
        factors *= p - 1
        bound = np.multiply.reduce(factors, axis=-1)
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
    """``(value, y, L^-1)`` of a ``(K, P, P)`` stack of information
    matrices: the kernel's values, ``y = M^+ e_P = L^-T L^-1 e_P`` (``(K,
    P)``) and ``L^-1`` (``(K, P, P)``). On the rows the kernel certifies,
    both come from one stacked ``inv`` of its Cholesky factors (no second
    factorisation); every other row takes ``y`` from :func:`_eigen_solve`
    on its own, and its ``L^-1`` is NaN. Where the value is infinite, ``y``
    and ``L^-1`` are NaN."""
    value, lower = _contrast_kernel(m)
    # value * L_PP is 1 / L_PP on a certified row of finite value, NaN on a
    # row the kernel does not certify (its factor is NaN) and inf where the
    # value is; their sum is finite only when every row is of the first
    # kind (an overflow merely takes the row-by-row path)
    pivots = lower[:, -1, -1]
    every = math.isfinite(value @ pivots)
    if every:
        lower_inv = np.linalg.inv(lower)
    else:
        solved = np.isfinite(value * pivots)
        lower_inv = np.full_like(lower, np.nan)
        lower_inv[solved] = np.linalg.inv(lower[solved])
    y = ((lower_inv @ treatment_contrast(m.shape[-1]))[:, None, :] @ lower_inv)[:, 0]
    if not every:
        for k in np.flatnonzero(~solved):
            y[k] = (_eigen_solve(_symmetrised(m[k:k + 1]))[1][0]
                    if value[k] < math.inf else np.nan)
    return value, y, lower_inv


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
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
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
    model = model or ModelSpec()
    lay = expand_design(space, design)
    xbar, base, w = _cell_block(model, cov, lay.cell_period, lay.cell_treated,
                                space.n_periods)
    same_cluster = lay.cell_cluster[:, None] == lay.cell_cluster[None, :]
    sigbar = np.where(same_cluster, base, 0.0)
    sigbar[np.diag_indices_from(sigbar)] += 1.0 / (w * lay.cell_n)
    return xbar, sigbar


@dataclass
class _ClusterBlocks:
    """Cell-level pieces of every cluster, stacked over clusters and padded
    to a common cell count: ``(C, c, ...)``. A padding cell has a zero row
    in ``x``, never holds observations and so adds zero wherever it goes.
    The blocks of ``L`` settings on one space (:meth:`stacked`) hold
    ``(L, C, c, ...)`` covariances and weights."""

    unit_idx: np.ndarray     # (C, c) owning unit of each cell
    x: np.ndarray            # (C, c, P) cell rows of the fixed-effects matrix
    base: np.ndarray         # ([L,] C, c, c) cell-level random-effect covariance
    weight: np.ndarray       # ([L,] C, c) iterated weight of one observation per cell
    n_per: np.ndarray        # (C, c) observations added per unit replicate

    def __post_init__(self):
        # per-cell constants of every solve and gradient
        self._eye = np.eye(self.unit_idx.shape[-1])
        self._cell_unit = self.unit_idx.ravel()
        # precision one unit replicate adds to each cell; zero at padding
        self.cell_precision = (self.n_per * self.weight).ravel()

    @staticmethod
    def stacked(blocks) -> _ClusterBlocks:
        """The blocks of ``L`` settings (covariance and model) on one
        space as one set, whose :meth:`solve` and :meth:`gradient` take row
        ``l`` of a ``(L, J)`` batch under ``blocks[l]``."""
        first = blocks[0]
        return _ClusterBlocks(first.unit_idx, first.x,
                              np.stack([b.base for b in blocks]),
                              np.stack([b.weight for b in blocks]), first.n_per)

    def _scale(self, counts: np.ndarray) -> np.ndarray:
        """``s = sqrt(w n_obs)`` (``(..., C, c)``) of per-unit multiplicities
        ``counts`` (``(..., J)``), with ``n_obs = n_per counts[unit_idx]``."""
        return np.sqrt(self.weight * (counts[..., self.unit_idx] * self.n_per))

    def solve(self, counts: np.ndarray):
        """``(s, t, info)`` for per-unit multiplicities ``counts`` (``(..., J)``).

        With ``S = diag(s)`` from :meth:`_scale`, the covariance of a
        cluster's cell means is ``B + S^-2``, so the cluster adds ``sx' t``
        to the information, with ``sx = S X`` and ``t = (I + S B S)^-1 S X``,
        and its GLS weights are ``Sigma^-1 X = S t``. Cells holding no
        observations get zero rows and drop out. ``info`` sums the clusters
        in order: ``(..., P, P)``.
        """
        s = self._scale(counts)
        sx = s[..., None] * self.x
        a = self.base * (s[..., :, None] * s[..., None, :]) + self._eye
        t = np.linalg.solve(a, sx)
        per_cluster = sx.swapaxes(-1, -2) @ t
        # a reduction over an outer axis adds the clusters one after another;
        # starting from -0.0 keeps every bit, signed zeros included, of
        # summing them in a loop
        return s, t, np.add.reduce(per_cluster, axis=-3, initial=-0.0)

    def gradient(self, s: np.ndarray, t: np.ndarray, y: np.ndarray,
                 n_units: int) -> np.ndarray:
        """Cluster-granularity ``grad`` (``(K, J)``) of
        :meth:`DesignCriterion.gradient` from ``K`` designs' ``(s, t)``
        (``(K, C, c)``, ``(K, C, c, P)``) and ``y = M^+ c`` (``(K, P)``),
        summed per unit by one ``bincount`` that offsets row ``k`` by ``k
        J``."""
        k = len(y)
        y = y[:, None, :, None]
        a = s * (t @ y)[..., 0]
        v = (self.x @ y - self.base @ a[..., None])[..., 0]
        bins = self._cell_unit
        if k > 1:
            bins = (bins + n_units * np.arange(k)[:, None]).ravel()
        return np.bincount(bins, weights=-self.cell_precision * (v * v).ravel(),
                           minlength=k * n_units).reshape(k, n_units)

    def rank_one_terms(self, counts: np.ndarray):
        """``(info, u, var)`` of ``K`` designs' multiplicities ``counts``
        (``(K, J)``): their information matrices (``(K, P, P)``), and per
        cell (flattened over clusters, ``(K, C c, P)`` and ``(K, C c)``) the
        row ``u = X - B S t`` and the conditional variance ``var = (B - B S
        A^-1 S B)_ii`` of the cell's random effect given the observed
        cells, with ``A = I + S B S`` as in :meth:`solve`.

        Adding precision ``delta`` to cell ``i`` adds ``delta / (1 + delta
        var_i) u_i u_i'`` to the information. One stacked solve of ``A``
        against ``[S X, S B]`` gives both. With ``H = A^-1 S B``, both are
        ``(I + B S^2)^-1 [X, B] = S^-1 [t, H]``, so an observed cell takes
        ``u = t / s`` and ``var = H_ii / s``, free of the cancellation in the
        differences. An empty cell (``s = 0``) takes the differences, which
        stay finite there.
        """
        s = self._scale(counts)
        sx = s[..., None] * self.x
        sb = s[..., :, None] * self.base
        p = sx.shape[-1]
        solved = np.linalg.solve(sb * s[..., None, :] + self._eye,
                                 np.concatenate([sx, sb], axis=-1))
        t, h = solved[..., :p], solved[..., p:]
        info = np.add.reduce(sx.swapaxes(-1, -2) @ t, axis=-3)
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
    """One block per cluster, over the cells of all units in it; with
    ``per_unit``, one block per unit, each unit a cluster of its own."""
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
    return _ClusterBlocks(unit_idx, x, base, weight, n_per)


def unit_information_blocks(space: DesignSpace, cov: CovarianceSpec,
                            model: ModelSpec | None = None) -> np.ndarray:
    """Information contribution of one replicate of each unit, stacked
    (J, P, P). Valid whenever units occupy distinct clusters, so a
    design's information is the multiplicity-weighted sum of blocks. Each
    unit is a cluster of its own, whose block is its term ``(S X)' t`` of
    one stacked :meth:`_ClusterBlocks.solve` at one replicate per unit.
    Raises :class:`ValidationError` unless ``space`` is a
    :class:`DesignSpace`, ``cov`` a :class:`CovarianceSpec` and ``model`` a
    :class:`ModelSpec` or None."""
    check_instance("space", space, DesignSpace)
    check_instance("covariance", cov, CovarianceSpec)
    if model is not None:
        check_instance("model", model, ModelSpec)
    cl = _cluster_blocks(space, cov, model or ModelSpec(), per_unit=True)
    s, t, _ = cl.solve(np.ones(space.n_units))
    return (s[..., None] * cl.x).swapaxes(-1, -2) @ t


class _ClassOfOne:
    """The parts of a plain criterion, ``(criterion,)``. A descriptor, not an
    attribute, so that a criterion holds no reference to itself (and is
    freed as soon as it is dropped), and a non-data one, so that a model
    class's own ``_parts`` take precedence."""

    def __get__(self, criterion, owner=None):
        return (criterion,)


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
    to pick the moves worth scoring; at sequence granularity
    ``bound_terms`` gives the first-order terms by which local search
    bounds a design's swaps from below and scores only those that can win.

    It is also the model class of one that every criterion generalises:
    its parts are ``(self,)``, with prior 1 in the linear form. A
    subclass that sets other parts, priors and form (and, at sequence
    granularity, the parts' unit blocks side by side) inherits every
    method, as :class:`crtoptim.robust.RobustCriterion` does.
    Raises :class:`ValidationError` unless ``space`` is a
    :class:`DesignSpace`, ``covariance`` a :class:`CovarianceSpec` and
    ``model`` a :class:`ModelSpec` or None.
    """

    # a model class of one: itself, prior 1, the linear form
    _parts, _priors, _log_form = _ClassOfOne(), (1.0,), False

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
        self._unit_blocks = self._clusters = None
        if space.granularity == "sequence":
            # flat, (J, P P), so that several parts' blocks stack side by side
            blocks = unit_information_blocks(space, covariance, self.model)
            self._unit_blocks = blocks.reshape(space.n_units, -1)
        else:
            self._clusters = cl = _cluster_blocks(space, covariance, self.model)
            n_clusters, n_cells = cl.unit_idx.shape
            # each unit's cell among the flattened cells, -1 for a unit of
            # several cells (padding cells hold no observations)
            real = np.flatnonzero(cl.n_per.ravel() > 0)
            owner = cl.unit_idx.ravel()[real]
            self._unit_cell = np.full(space.n_units, -1)
            self._unit_cell[owner] = real
            self._unit_cell[np.bincount(owner, minlength=space.n_units) != 1] = -1
            row_bytes += 8 * n_clusters * n_cells * (n_cells + 2 * p)
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
        # one pass catches negative, NaN and infinite entries alike
        if not ((batch >= 0) & (batch < np.inf)).all():
            raise ValidationError(
                "multiplicities must be finite and non-negative")
        # as floats: einsum casts an integer batch 3x slower, to the same sums
        return batch.astype(float, copy=False)

    def _information(self, batch: np.ndarray) -> np.ndarray:
        """Information matrices ``(K, P, P)`` of a checked ``(K, J)`` batch,
        summed in a fixed order over units (einsum; a BLAS product would
        switch kernels, and rounding, with ``K``) or clusters, so a row's
        matrix does not depend on the rest of the batch."""
        if self._unit_blocks is None:
            return self._clusters.solve(batch)[2]
        p = self.space.n_periods + 1
        return np.einsum("kj,jx->kx", batch, self._unit_blocks).reshape(-1, p, p)

    def information(self, counts) -> np.ndarray:
        """Information matrix of the design given per-unit multiplicities.
        Raises :class:`ValidationError` for a class of several models,
        which has one per model."""
        if len(self._parts) > 1:
            raise ValidationError("a class of several models has no one information matrix")
        return self._parts[0]._information(self._batch(np.asarray(counts)[None]))[0]

    def values(self, batch) -> np.ndarray:
        """Criterion values of a ``(K, J)`` batch of per-unit multiplicities,
        one per row: the prior sum (:func:`_prior_sum`) of the rows' kernel
        values under each part. Row ``i`` equals ``value(batch[i])`` bit for
        bit.

        This is the one loop that splits a batch into chunks. At sequence
        granularity the parts' flat unit blocks lie side by side, ``(J, L P
        P)``, so a chunk of ``1 / L`` of a plain chunk's rows takes one block
        sum and one kernel call; elsewhere each part solves the chunk's
        clusters and calls the kernel in turn.

        Multiplicities must be finite and non-negative; a fractional row is
        legal and scores the weighted design it describes (the weight
        solvers evaluate ``N * phi``). Raises :class:`ValidationError`
        otherwise.
        """
        parts, blocks = self._parts, self._unit_blocks
        batch, p = self._batch(batch), self.space.n_periods + 1
        rows = max(1, parts[0]._chunk_rows // (1 if blocks is None else len(parts)))
        out = np.empty((len(parts), len(batch)))
        for i in range(0, len(batch), rows):
            chunk = batch[i:i + rows]
            if blocks is None:
                for l, part in enumerate(parts):
                    out[l, i:i + rows] = _contrast_kernel(part._information(chunk))[0]
            else:
                m = np.einsum("kj,jx->kx", chunk, blocks).reshape(-1, p, p)
                out[:, i:i + rows] = _contrast_kernel(m)[0].reshape(len(chunk), -1).T
        # a class of one is its own part: its values need no sum
        return out[0] if parts[0] is self else _prior_sum(self, out)

    def value(self, counts) -> float:
        """Criterion value of one row of counts (``inf`` when unidentified)."""
        return float(self.values(np.asarray(counts)[None])[0])

    def gradient(self, counts) -> tuple[float, np.ndarray]:
        """``(value, grad)`` of one row of multiplicities, with ``grad[j]``
        the derivative of the value in ``counts[j]``: :func:`_gradients` on a
        stack of one.

        With ``y = M^+ c`` from the kernel's factorisation
        (:func:`_factor_solve`), unit ``j`` gives ``-y' B_j y`` at sequence
        granularity, ``B_j`` its information block. At cluster granularity,
        from the same stacked solve as the value, a cell holding ``n``
        observations adds ``-n_per w v^2`` to its unit, where
        ``v = X y - B a = a / (w n)`` is the residual part of the GLS
        weights ``a = S t y``; unlike ``a / (w n)`` it stays finite at
        empty cells. ``grad`` is NaN where the value is infinite. For a
        class of models both are the prior sums of the parts' (in the log
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
        For a class of models the screen is the prior sum of the parts'
        screens, as :meth:`values` is of their values, and ``None`` where
        any part's is.
        """
        batch = self._batch(np.asarray(counts)[None])
        units = np.asarray(units)
        if (units.dtype.kind not in "iu" or units.ndim != 1
                or not ((units >= 0) & (units < self.space.n_units)).all()):
            raise ValidationError("units must be a vector of unit indices")
        if step not in (1, -1) or isinstance(step, bool):
            raise ValidationError("step must be 1 or -1")
        if step == -1 and (batch[0, units] < 1).any():
            raise ValidationError("a removal from a unit the design does not hold")
        return _single_moves((self,), batch, [units], step)[0]

    def bound_terms(self, batch):
        """First-order terms of a ``(K, J)`` batch of multiplicities,
        ``(grad, vouched)``, from which local search bounds every swap from
        below; or ``None`` where they do not apply.

        ``c' M^-1 c`` is convex in ``M`` (the matrix-fractional function),
        and at sequence granularity ``M`` is linear in the multiplicities,
        so the value is convex in them: a design ``n'`` scores at least
        ``f(n) + grad . (n' - n)``, with ``grad[k, j] = -y' B_j y`` the
        derivative of :meth:`gradient` (``y = M^-1 c``, ``B_j`` unit
        ``j``'s block). ``vouched[k]`` says that the kernel certifies row
        ``k``'s ``M`` and that its ``tr M tr M^-1`` is at most
        ``SCREEN_CONDITION``, so that ``grad`` is accurate far beyond
        ``SCREEN_RTOL``; a row it does not vouch for may hold NaN.
        ``None`` at cluster-period and observation granularity, where an
        empty cell makes the criterion non-smooth in a unit's multiplicity.
        Raises :class:`ValidationError` for a batch that :meth:`values`
        rejects.

        For a class of models ``grad`` is the prior-weighted sum of the
        parts' gradients, and a row is vouched for only where every part's
        is: a linear average of convex criteria is convex. Per chunk that
        takes one block sum over the parts' unit blocks side by side, one
        :func:`_factor_solve` over the ``(K L, P, P)`` stack and one
        ``einsum`` of the prior-weighted ``y y'`` against the blocks. The
        log-average form, whose logarithms are not convex, gives ``None``.
        """
        batch, blocks = self._batch(batch), self._unit_blocks
        if blocks is None or self._log_form:
            return None
        p, n = self.space.n_periods + 1, len(self._parts)
        rows = max(1, self._parts[0]._chunk_rows // n)
        weights = np.asarray(self._priors, dtype=float)[:, None]
        grad = np.empty(batch.shape)
        vouched = np.empty(len(batch), dtype=bool)
        for i in range(0, len(batch), rows):
            chunk = batch[i:i + rows]
            m = np.einsum("kj,jx->kx", chunk, blocks).reshape(-1, p, p)
            _, y, lower_inv = _factor_solve(m)
            vouched[i:i + rows] = _conditioned(m, lower_inv).reshape(-1, n).all(axis=1)
            # row k, part l: prior_l y y', flattened as the blocks are
            outer = (y[:, :, None] * y[:, None, :]).reshape(len(chunk), n, p * p)
            grad[i:i + rows] = -np.einsum("kx,jx->kj",
                                          (weights * outer).reshape(len(chunk), -1), blocks)
        return grad, vouched

    def value_of(self, design: Design) -> float:
        """Criterion value of a :class:`Design`, which must be valid for
        the space; raises :class:`ValidationError` otherwise."""
        check_instance("design", design, Design)
        design.validate(self.space)
        return self.value(np.asarray(design.counts))


def _prior_sum(criterion, terms, values=None):
    """``sum_l prior_l t_l`` over the parts of ``criterion``, in part order,
    with ``t_l`` from ``terms[l]``: the term itself in the linear form; in
    the log form its logarithm, or, given the parts' ``values``,
    ``terms[l] / values[l]``, the derivative of ``log f_l`` from that of
    ``f_l``. A class of one in the linear form gives ``0.0 + 1.0 t_0``,
    which is ``t_0`` bit for bit."""
    if criterion._log_form:
        terms = np.log(terms) if values is None else terms / values[:, None]
    total = 0.0
    for prior, term in zip(criterion._priors, terms):
        total = total + prior * term
    return total


def _expand(criteria):
    """``(parts, owner)``: the parts of ``criteria`` in order, and the row of
    each part's criterion; ``owner`` is ``None`` when every criterion is its
    own one part, so that a stack of plain criteria takes no extra step."""
    if all(criterion._parts[0] is criterion for criterion in criteria):
        return criteria, None
    return ([part for criterion in criteria for part in criterion._parts],
            np.repeat(np.arange(len(criteria)), [len(c._parts) for c in criteria]))


def _by_class(criteria, rows):
    """``rows``, one per part of ``criteria`` in order, cut into each
    criterion's."""
    ends = np.cumsum([len(criterion._parts) for criterion in criteria]).tolist()
    return [rows[end - len(criterion._parts):end] for criterion, end in zip(criteria, ends)]


def _stacked_clusters(criteria):
    """The cluster blocks of the parts of ``criteria`` (all on one space)
    as one set, row ``l`` under part ``l``; a lone part's own blocks, and
    ``None`` at sequence granularity."""
    parts = _expand(criteria)[0]
    if len(parts) == 1 or parts[0]._clusters is None:
        return parts[0]._clusters
    return _ClusterBlocks.stacked([part._clusters for part in parts])


def _gradients(criteria, batch, clusters=None):
    """``(value, grad)`` (``(L,)``, ``(L, J)``) of a ``(L, J)`` batch, row
    ``l`` scored under ``criteria[l]``, all on one space; row ``l`` equals
    ``criteria[l].gradient(batch[l])`` bit for bit, which is this on a stack
    of one. Each row is scored under every part of its criterion: at
    sequence granularity each part sums its unit blocks; elsewhere one
    cluster solve runs over the parts' stacked covariances, ``clusters``
    when given (``_stacked_clusters(criteria)``, kept by a caller that
    scores one stack again and again). One :func:`_factor_solve` then
    serves every part, and one ``bincount`` (or each part's block
    contraction) the gradients, which :func:`_prior_sum` sums per
    criterion."""
    parts, owner = _expand(criteria)
    first = parts[0]
    batch = first._batch(batch)
    if owner is not None:
        batch = batch[owner]
    if first._clusters is None:
        m = np.concatenate([part._information(batch[l:l + 1])
                            for l, part in enumerate(parts)])
        value, y, _ = _factor_solve(m)
        p = y.shape[-1]
        grad = np.stack([-np.einsum("i,kij,j->k", y[l],
                                    part._unit_blocks.reshape(-1, p, p), y[l])
                         for l, part in enumerate(parts)])
    else:
        cl = clusters if clusters is not None else _stacked_clusters(parts)
        s, t, m = cl.solve(batch)
        value, y, _ = _factor_solve(m)
        grad = cl.gradient(s, t, y, first.space.n_units)
    # the NaN y of a row of infinite value makes its whole gradient NaN
    if owner is None:
        return value, grad
    value, grad = _by_class(criteria, value), _by_class(criteria, grad)
    return (np.array([_prior_sum(c, f) for c, f in zip(criteria, value)]),
            np.stack([_prior_sum(c, g, f) for c, f, g in zip(criteria, value, grad)]))


def _conditioned(m: np.ndarray, lower_inv: np.ndarray) -> np.ndarray:
    """Rows of a ``(K, P, P)`` stack of information matrices, with ``L^-1``
    from :func:`_factor_solve`, that the kernel certifies and whose ``tr M
    tr M^-1`` (at least the condition number) is at most
    ``SCREEN_CONDITION``."""
    k, p = m.shape[:2]
    # tr M^-1 = |L^-1|_F^2; written so that the NaN L^-1 of a row the
    # kernel does not certify, or of an infinite value, fails
    flat = lower_inv.reshape(k, -1)
    return (np.add.reduce(flat * flat, axis=-1)
            * np.add.reduce(m.reshape(k, -1)[:, ::p + 1], axis=-1)
            <= SCREEN_CONDITION)


def _single_moves(criteria, batch, units, step: int) -> list:
    """Screened move values of a ``(L, J)`` batch of counts, row ``l``
    under ``criteria[l]`` (all on one space) with one replicate of each
    unit in ``units[l]`` added (``step`` 1) or removed (``step`` -1): per
    row, ``criteria[l].single_moves(batch[l], units[l], step)`` bit for bit,
    so an array or ``None``. That method checks its arguments and is this on
    a stack of one; here they are taken as checked. Each row is screened
    under every part of its criterion: the parts the screen applies to
    share one :meth:`_ClusterBlocks.rank_one_terms` solve over their
    stacked covariances, one :func:`_factor_solve` and the screened values
    of every cell, and each part then takes its own condition check and
    its own units' values. A row's screen is the prior sum
    (:func:`_prior_sum`) of its parts' screens, ``None`` where any of them
    is."""
    parts, owner = _expand(criteria)
    if owner is not None:
        batch, units = batch[owner], [units[l] for l in owner]
    screened = [None] * len(parts)
    cells = [] if parts[0]._clusters is None else [parts[0]._unit_cell[own] for own in units]
    rows = [l for l, own in enumerate(cells) if (own >= 0).all()]
    if rows:
        cl = _stacked_clusters([parts[l] for l in rows])
        info, u, var = cl.rank_one_terms(batch if len(rows) == len(batch) else batch[rows])
        value, y, lower_inv = _factor_solve(info)
        conditioned = _conditioned(info, lower_inv)
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
        for i, (l, ok) in enumerate(zip(rows, conditioned.tolist())):
            if ok:
                screened[l] = moved[i, cells[l]]
    if owner is None:
        return screened
    return [None if any(s is None for s in own) else _prior_sum(c, own)
            for c, own in zip(criteria, _by_class(criteria, screened))]
