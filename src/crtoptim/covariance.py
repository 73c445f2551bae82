"""Covariance structures and outcome-model settings for cluster trial designs.

Three covariance functions over the pair (time lag, cluster lag) are
supported, all of them zero between clusters:

* ``EXC1`` -- a single exchangeable cluster effect,
* ``EXC2`` -- a cluster effect plus independent cluster-period effects,
* ``AR1``  -- cluster-period effects whose correlation decays
  exponentially with the time lag.

Outcome models are Gaussian-identity, binomial-logit, or Poisson-log.
For the non-Gaussian families the observation covariance is approximated
by ``W^-1 + Z D Z^T`` where ``W`` holds the iterated weights of the
generalised linear model evaluated at the marginal linear predictor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, ValidationError

COVARIANCE_KINDS = ("EXC1", "EXC2", "AR1")
FAMILIES = ("gaussian-identity", "binomial-logit", "poisson-log")

# Shrinkage constant used when marginalising the linear predictor of a
# logistic mixed model.
ATTENUATION_CONSTANT = 16.0 * math.sqrt(3.0) / (15.0 * math.pi)


@dataclass(frozen=True)
class CovarianceSpec:
    """Random-effect structure of a cluster trial model.

    Parameters
    ----------
    kind : one of ``EXC1``, ``EXC2``, ``AR1``.
    tau2 : between-cluster variance.
    omega2 : within-cluster between-period variance (EXC2 only).
    decay : temporal decay rate in (0, 1] (AR1 only).
    sigma2 : observation-level variance (Gaussian-identity models).
    """

    kind: str
    tau2: float
    omega2: float = 0.0
    decay: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        if self.kind not in COVARIANCE_KINDS:
            raise ValidationError(f"unknown covariance kind {self.kind!r}")
        for name in ("sigma2", "tau2", "omega2", "decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.tau2 < 0:
            raise ValidationError("tau2 must be non-negative")
        if self.omega2 < 0:
            raise ValidationError("omega2 must be non-negative")
        if self.kind != "EXC2" and self.omega2 != 0.0:
            raise ValidationError(f"omega2 is only defined for EXC2, not {self.kind}")
        if self.kind == "AR1" and not 0.0 < self.decay <= 1.0:
            raise ValidationError("decay must lie in (0, 1]")
        if self.kind != "AR1" and self.decay != 1.0:
            raise ValidationError(f"decay is only defined for AR1, not {self.kind}")
        if self.sigma2 <= 0:
            raise ValidationError("sigma2 must be positive")

    def entry(self, time_lag: int, cluster_lag: int) -> float:
        """Random-effect covariance between two observations at the given
        absolute time lag and cluster lag."""
        if time_lag < 0 or cluster_lag < 0:
            raise ValidationError("lags must be non-negative")
        if cluster_lag > 0:
            return 0.0
        return float(self.within(np.asarray(time_lag)))

    def within(self, lags: np.ndarray) -> np.ndarray:
        """Random-effect covariance within one cluster over an array of
        absolute time lags."""
        if self.kind == "EXC1":
            return np.full(lags.shape, self.tau2)
        if self.kind == "EXC2":
            return np.where(lags == 0, self.tau2 + self.omega2, self.tau2)
        return self.tau2 * self.decay ** lags

    @property
    def icc(self) -> float:
        """Intra-class correlation implied by the variance components."""
        if self.kind == "EXC2":
            total = self.tau2 + self.omega2
            return total / (total + self.sigma2)
        return self.tau2 / (self.tau2 + self.sigma2)

    @property
    def cac(self) -> float:
        """Cluster autocorrelation tau2 / (tau2 + omega2). EXC2 only."""
        if self.kind != "EXC2":
            raise ValidationError(f"CAC is not defined for {self.kind}")
        if self.tau2 + self.omega2 == 0:
            raise ValidationError("CAC is undefined when tau2 + omega2 = 0")
        return self.tau2 / (self.tau2 + self.omega2)

    @classmethod
    def from_icc(cls, kind, icc, cac=None, decay=1.0, sigma2=1.0):
        """Build a spec from ICC (and CAC for EXC2, decay for AR1) at a
        given sigma2.

        The mapping round-trips with the ``icc``/``cac`` properties.
        """
        if not 0.0 <= icc < 1.0:
            raise ValidationError("icc must lie in [0, 1)")
        tau2 = sigma2 * icc / (1.0 - icc)
        omega2 = 0.0
        if kind == "EXC2":
            if cac is None:
                raise ValidationError("EXC2 requires a CAC value")
            if not 0.0 <= cac <= 1.0:
                raise ValidationError("cac must lie in [0, 1]")
            tau2, omega2 = cac * tau2, (1.0 - cac) * tau2
        elif cac is not None:
            raise ValidationError(f"CAC is not defined for {kind}")
        # decay reaches the constructor for every kind, which rejects it
        # outside AR1
        return cls(kind, tau2=tau2, omega2=omega2, decay=decay, sigma2=sigma2)


@dataclass(frozen=True)
class ModelSpec:
    """Outcome family, link, and fixed-effect values.

    ``beta`` holds the period effects followed by the treatment effect on
    the linear-predictor scale; it is only required for non-Gaussian
    families, where the iterated weights depend on the predictor.
    ``attenuate`` shrinks the predictor towards zero to approximate the
    marginal (rather than conditional) mean.
    """

    family: str = "gaussian-identity"
    beta: tuple[float, ...] | None = None
    attenuate: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.family == "gaussian-identity" and self.attenuate:
            raise ValidationError("attenuation only applies to non-Gaussian families")
        if self.beta is not None:
            object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))

    @property
    def is_gaussian(self) -> bool:
        return self.family == "gaussian-identity"

    def beta_for(self, n_periods: int) -> np.ndarray:
        if self.beta is None:
            raise ValidationError(f"{self.family} requires beta values")
        if len(self.beta) != n_periods + 1:
            raise ValidationError(
                f"beta has length {len(self.beta)}, expected {n_periods + 1}")
        return np.asarray(self.beta, dtype=float)


def iterated_weights(model: ModelSpec, eta: np.ndarray,
                     re_variance: float = 0.0, sigma2: float = 1.0) -> np.ndarray:
    """Diagonal GLM iterated weights at the linear predictor ``eta``.

    The weight is ``(d mu / d eta)^2 / Var(y | u)``, so its reciprocal is
    the observation-level variance and the Gaussian-identity case returns
    ``1 / sigma2``. When ``model.attenuate`` is set, the predictor is
    first scaled by ``(1 + a * re_variance)^(-1/2)``.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise NumericDomainError("non-finite linear predictor")
    if model.family == "gaussian-identity":
        return np.full(eta.shape, 1.0 / sigma2)
    if model.attenuate:
        eta = eta / math.sqrt(1.0 + ATTENUATION_CONSTANT * re_variance)
    with np.errstate(over="ignore"):
        if model.family == "binomial-logit":
            # weight mu(1-mu); expit is stable at extreme eta
            mu = 1.0 / (1.0 + np.exp(-eta))
            w = mu * (1.0 - mu)
        else:  # poisson-log
            w = np.exp(eta)
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise NumericDomainError("iterated weight underflowed or overflowed")
    return w
