"""Robust design criteria over a class of candidate models.

When the covariance structure or its parameters are uncertain, a design
can be chosen against a prior-weighted set of candidate models instead of
a single one. Two aggregations of the per-model treatment variances are
supported: their prior-weighted average and the prior-weighted average of
their logarithms. Both preserve the monotone supermodularity that the
combinatorial optimisers rely on, so a :class:`RobustCriterion` plugs in
wherever a plain criterion does.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import Design, DesignSpace
from .errors import ValidationError, check_probabilities, check_real
from .glscore import DesignCriterion

CRITERION_FORMS = ("linear-average", "log-average")


@dataclass(frozen=True)
class ModelEntry:
    """One candidate model: covariance, outcome model, prior. Raises
    :class:`ValidationError` unless ``covariance`` is a
    :class:`CovarianceSpec`, ``prior`` a real number and ``model`` a
    :class:`ModelSpec`; :class:`ModelClass` checks the priors together."""

    covariance: CovarianceSpec
    prior: float
    model: ModelSpec = field(default_factory=ModelSpec)

    def __post_init__(self):
        if not isinstance(self.covariance, CovarianceSpec):
            raise ValidationError(
                f"covariance must be a CovarianceSpec, got {self.covariance!r}")
        check_real("prior", self.prior)
        if not isinstance(self.model, ModelSpec):
            raise ValidationError(f"model must be a ModelSpec, got {self.model!r}")


@dataclass(frozen=True)
class ModelClass:
    entries: tuple[ModelEntry, ...]
    form: str = "linear-average"

    def __post_init__(self):
        if (not isinstance(self.entries, (tuple, list))
                or not all(isinstance(e, ModelEntry) for e in self.entries)):
            raise ValidationError("model class entries must be a sequence of ModelEntry")
        if not self.entries:
            raise ValidationError("model class needs at least one entry")
        if self.form not in CRITERION_FORMS:
            raise ValidationError(f"unknown criterion form {self.form!r}")
        check_probabilities("priors", [e.prior for e in self.entries], 1e-12)
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def equal_priors(cls, covariances, form="linear-average"):
        """Equal-prior class over covariances, each with the default model."""
        covariances = list(covariances)
        return cls(tuple(ModelEntry(covariance=cov, prior=1.0 / len(covariances))
                         for cov in covariances), form=form)


class RobustCriterion:
    """Prior-weighted criterion over a model class, same evaluation
    interface as :class:`DesignCriterion`."""

    def __init__(self, space: DesignSpace, model_class: ModelClass):
        if not isinstance(model_class, ModelClass):
            raise ValidationError(f"model_class must be a ModelClass, got {model_class!r}")
        self.space = space
        self.model_class = model_class
        self._parts = [
            (entry.prior, DesignCriterion(space, entry.covariance, model=entry.model))
            for entry in model_class.entries
        ]

    def values(self, batch) -> np.ndarray:
        """Robust criteria of a ``(K, J)`` batch of per-unit multiplicities:
        each part scores the whole batch once, and a row that any part
        cannot identify is ``inf``. Each row is scored on its own: row ``i``
        equals ``value(batch[i])`` bit for bit."""
        log_form = self.model_class.form == "log-average"
        total = 0.0
        for prior, crit in self._parts:
            if prior > 0.0:
                v = crit.values(batch)
                total = total + prior * (np.log(v) if log_form else v)
        return total

    def value(self, counts) -> float:
        return float(self.values(np.asarray(counts)[None])[0])

    def value_of(self, design: Design) -> float:
        design.validate(self.space)
        return self.value(np.asarray(design.counts))


def robust_criterion(space: DesignSpace, design: Design,
                     model_class: ModelClass) -> float:
    """Robust criterion value of one design under a model class."""
    return RobustCriterion(space, model_class).value_of(design)
