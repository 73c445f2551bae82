"""Independent oracles: exhaustive enumeration, Monte Carlo simulation,
and structural probes of the criterion.

Nothing here shares a computational path with the optimisers beyond the
criterion's ``values``, so agreement between an optimiser and these
oracles is meaningful evidence of correctness.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import Design, DesignSpace, build_d, build_x, build_z
from .errors import (EnumerationLimitError, InfeasibleError, ValidationError, as_floats,
                     check_count, check_instance, check_real, check_seed)
from .glscore import treatment_contrast
from .search import SearchResult, _check_criterion, _check_size, _first_minima, _tie_edge


# Enumerated designs scored per batched criterion call.
BRUTE_FORCE_BATCH = 4096
# Replicates simulated per independently seeded Monte Carlo block.
MONTE_CARLO_BLOCK = 1000


def _count_multisets(n_units: int, cap: int, m: int) -> int:
    """Number of size-m multisets over n_units types with per-type cap."""
    coeffs = np.zeros(m + 1, dtype=object)
    coeffs[0] = 1
    unit_poly = np.ones(min(cap, m) + 1, dtype=object)
    for _ in range(n_units):
        coeffs = np.convolve(coeffs, unit_poly)[:m + 1]
    return int(coeffs[m])


def _multisets(n_units: int, cap: int, m: int):
    """Every size-m count vector over n_units types with entries in
    ``[0, cap]``, in lexicographic order (``m <= n_units * cap``)."""
    if n_units == 1:
        yield (m,)
        return
    for k in range(max(0, m - (n_units - 1) * cap), min(cap, m) + 1):
        for rest in _multisets(n_units - 1, cap, m - k):
            yield (k,) + rest


def brute_force_optimum(space: DesignSpace, criterion, m: int,
                        limit: int = 1_000_000) -> SearchResult:
    """Exact minimiser over all size-m multisets respecting the cap.

    Refuses to run when the enumeration would exceed ``limit`` (an
    integer) candidates; the error message carries the count so callers
    can shrink the problem.
    Candidates are scored in batches of ``BRUTE_FORCE_BATCH`` in enumeration
    order, and the first minimum in that order wins, where values within
    ``CRITERION_ROUNDING`` of each other tie as in the searches.
    """
    _check_size(space, m)
    _check_criterion(criterion, space)
    check_count("limit", limit)
    n_designs = _count_multisets(space.n_units, space.max_replication, m)
    if n_designs > limit:
        raise EnumerationLimitError(
            f"enumeration of {n_designs} designs exceeds the limit {limit}")
    best_value, best_counts = math.inf, None
    designs = _multisets(space.n_units, space.max_replication, m)
    # the first minimum of a batch is the first in enumeration order; a
    # later batch wins only beyond the tie band
    while batch := list(itertools.islice(designs, BRUTE_FORCE_BATCH)):
        values = criterion.values(np.array(batch))
        i = _first_minima(values[None])[0]
        if best_counts is None or best_value > _tie_edge(values[i]):
            best_value, best_counts = float(values[i]), batch[i]
    if best_counts is None or not math.isfinite(best_value):
        raise InfeasibleError(f"every design of size {m} has infinite criterion")
    return SearchResult(space.design_from_counts(best_counts), best_value)


@dataclass(frozen=True)
class MonteCarloResult:
    empirical_variance: float
    std_error: float
    model_variance: float
    mean_estimate: float
    n_sims: int

    @property
    def z_score(self) -> float:
        """Standardised gap between the empirical and model variances."""
        return (self.empirical_variance - self.model_variance) / self.std_error


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def monte_carlo_variance(space: DesignSpace, design: Design,
                         cov: CovarianceSpec, beta,
                         model: ModelSpec | None = None,
                         n_sims: int = 10000, seed: int | None = None
                         ) -> MonteCarloResult:
    """Empirical variance of the GLS treatment-effect estimator.

    Simulates Gaussian outcomes from the mixed model with the given fixed
    effects, fits each replicate by generalised least squares at the true
    covariance parameters, and returns the sample variance of the
    estimates with its standard error. Simulation happens in blocks of
    ``MONTE_CARLO_BLOCK`` replicates, each seeded from its own child of
    ``SeedSequence(seed)``, so results are reproducible.
    """
    check_instance("space", space, DesignSpace)
    check_instance("design", design, Design)
    check_instance("covariance", cov, CovarianceSpec)
    model = model or ModelSpec()
    check_instance("model", model, ModelSpec)
    if not model.is_gaussian:
        raise ValidationError("simulation validation requires gaussian-identity")
    check_count("n_sims", n_sims)
    check_seed(seed)
    if n_sims < 1000:
        raise ValidationError("need at least 1000 simulations")
    beta = as_floats("beta", beta)
    if beta.shape != (space.n_periods + 1,):
        raise ValidationError(f"beta must have length {space.n_periods + 1}")

    x = build_x(space, design)
    z = build_z(space, design, cov)
    d = build_d(space, design, cov)
    sigma = z @ d @ z.T
    sigma[np.diag_indices_from(sigma)] += cov.sigma2
    m = x.T @ np.linalg.solve(sigma, x)
    c = treatment_contrast(x.shape[1])
    try:
        h = np.linalg.solve(m, c)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleError("design does not identify the treatment effect") from exc
    model_variance = float(c @ h)
    # delta_hat = a'y for every replicate
    a = np.linalg.solve(sigma, x @ h)
    mean_vec = x @ beta
    root_d = _psd_sqrt(d)
    sd_obs = math.sqrt(cov.sigma2)

    estimates = []
    seeds = np.random.SeedSequence(seed).spawn(math.ceil(n_sims / MONTE_CARLO_BLOCK))
    done = 0
    for ss in seeds:
        rng = np.random.default_rng(ss)
        nb = min(MONTE_CARLO_BLOCK, n_sims - done)
        u = root_d @ rng.standard_normal((d.shape[0], nb))
        eps = sd_obs * rng.standard_normal((x.shape[0], nb))
        y = mean_vec[:, None] + z @ u + eps
        estimates.append(a @ y)
        done += nb
    est = np.concatenate(estimates)
    emp_var = float(np.var(est, ddof=1))
    std_error = emp_var * math.sqrt(2.0 / (n_sims - 1))
    return MonteCarloResult(empirical_variance=emp_var, std_error=std_error,
                            model_variance=model_variance,
                            mean_estimate=float(est.mean()), n_sims=n_sims)


def write_simulation_csv(path, results: dict[str, MonteCarloResult]) -> None:
    """One summary row per labelled simulation run."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", "mean_estimate", "empirical_variance",
                         "model_variance", "z_score", "n_sims"])
        for label, res in results.items():
            writer.writerow([label, repr(res.mean_estimate),
                             repr(res.empirical_variance),
                             repr(res.model_variance),
                             repr(res.z_score), res.n_sims])


@dataclass(frozen=True)
class ProbeViolation:
    kind: str
    base: tuple[int, ...]
    subset: tuple[int, ...]
    unit: int
    gap: float


@dataclass(frozen=True)
class ProbeReport:
    n_triples: int
    violations: tuple[ProbeViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def supermodularity_probe(space: DesignSpace, criterion, n_triples: int,
                          seed: int | None = None,
                          slack: float = 1e-10) -> ProbeReport:
    """Randomised check of monotonicity and supermodularity.

    Samples nested designs ``subset <= base`` and a unit addable to both,
    then requires (up to ``slack``) that removing units never decreases
    the criterion and that the marginal change from adding the unit is
    largest on the bigger design. Triples are redrawn until the subset
    has a finite criterion, which makes all four evaluations finite.
    ``slack`` must be a finite non-negative number.
    """
    check_instance("space", space, DesignSpace)
    _check_criterion(criterion, space)
    check_count("n_triples", n_triples)
    if n_triples < 1:
        raise ValidationError("need at least one probe triple")
    # a NaN slack would make every comparison below false
    check_real("slack", slack)
    if not 0 <= slack < math.inf:
        raise ValidationError(f"slack must be a finite non-negative number, got {slack!r}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    cap = space.max_replication
    violations = []
    drawn = 0
    attempts = 0
    while drawn < n_triples:
        attempts += 1
        if attempts > 100 * n_triples:
            raise InfeasibleError("could not sample finite-criterion triples")
        base = rng.integers(0, cap + 1, size=space.n_units)
        if base.sum() < 2:
            continue
        keep = rng.random(space.n_units)
        subset = np.minimum(base, np.floor(keep * (base + 1)).astype(int))
        if subset.sum() < 1 or (subset == base).all():
            continue
        addable = np.flatnonzero(base < cap)
        if addable.size == 0:
            continue
        unit = int(rng.choice(addable))
        f_subset = float(criterion.values(subset[None])[0])
        if not math.isfinite(f_subset):
            continue
        drawn += 1
        plus = np.zeros(space.n_units, dtype=int)
        plus[unit] = 1
        f_base, f_subset_plus, f_base_plus = map(float, criterion.values(
            np.stack([base, subset + plus, base + plus])))

        if f_base > f_subset + slack:
            violations.append(ProbeViolation(
                "monotonicity", tuple(map(int, base)), tuple(map(int, subset)),
                unit, f_base - f_subset))
        gap = (f_base_plus - f_base) - (f_subset_plus - f_subset)
        if gap < -slack:
            violations.append(ProbeViolation(
                "supermodularity", tuple(map(int, base)), tuple(map(int, subset)),
                unit, gap))
    return ProbeReport(n_triples=n_triples, violations=tuple(violations))
