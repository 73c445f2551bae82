"""Exception types shared across the package, and the input checks that
raise them from more than one module."""
import numbers

import numpy as np


class ValidationError(ValueError):
    """Invalid input: malformed design space, design, or parameter set."""


class NumericDomainError(ValueError):
    """A numeric quantity left its valid domain (non-finite predictor,
    singular covariance, non-positive-definite assembly)."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap or violated a descent
    guarantee. Carries the last iterate when one is available."""

    def __init__(self, message, weights=None, iterations=None):
        super().__init__(message)
        self.weights = weights
        self.iterations = iterations


class InfeasibleError(RuntimeError):
    """No feasible design exists for the requested budget or the criterion
    is infinite everywhere on the requested set."""


class EnumerationLimitError(RuntimeError):
    """Exhaustive enumeration would exceed the configured guard."""


def check_count(name: str, value) -> None:
    """Reject anything but an integer (a boolean is not one)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_instance(name: str, value, kind) -> None:
    """Reject anything but an instance of ``kind``."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r}")


def check_real(name: str, value) -> None:
    """Reject anything but a real number (a boolean is not one)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


def check_seed(seed) -> None:
    """Reject a seed that is neither ``None`` nor a non-negative integer."""
    if seed is not None:
        check_count("seed", seed)
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")


def as_floats(name: str, values) -> np.ndarray:
    """``values`` as a float array; rejects what numpy cannot convert."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be real numbers, got {values!r}") from exc


def check_probabilities(name: str, values, tol: float) -> np.ndarray:
    """``values`` as a float vector of finite non-negative entries that sum
    to one within ``tol``."""
    p = as_floats(name, values)
    # written so that a NaN entry or sum fails
    if not ((p >= 0) & (p < np.inf)).all() or not abs(p.sum() - 1.0) <= tol:
        raise ValidationError(f"{name} must form a probability vector")
    return p
