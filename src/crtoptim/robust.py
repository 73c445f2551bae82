"""Robust design criteria over a class of candidate models.

When the covariance structure or its parameters are uncertain, a design
can be chosen against a prior-weighted set of candidate models instead of
a single one. Two aggregations of the per-model treatment variances are
supported: their prior-weighted average and the prior-weighted average of
their logarithms. Both preserve the monotone supermodularity that the
combinatorial optimisers rely on, so a :class:`RobustCriterion` plugs in
wherever a plain criterion does.

Every value goes through the one batch pipeline of :mod:`crtoptim.glscore`:
a batch is checked once and scored chunk by chunk, each chunk giving the
kernel values of its rows under every model with a positive prior, which
are then summed with the priors, in model order, once per batch. At
sequence granularity the models' unit blocks lie side by side, so a chunk
takes one block sum and one kernel call; at cluster-period and observation
granularity each model solves the chunk's clusters in turn. A
linear-average class at sequence granularity also gives the first-order
terms by which local search bounds swaps from below, in one block sum and
one kernel call per chunk as well.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import Design, DesignSpace
from .errors import ValidationError, check_instance, check_probabilities, check_real
from .glscore import DesignCriterion, _bound_terms, _model_values

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
        check_instance("covariance", self.covariance, CovarianceSpec)
        check_real("prior", self.prior)
        check_instance("model", self.model, ModelSpec)


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
        """Equal-prior class over covariances, each with the default model.
        Raises :class:`ValidationError` unless ``covariances`` is a
        non-empty iterable of :class:`CovarianceSpec`."""
        if not isinstance(covariances, Iterable):
            raise ValidationError(
                f"covariances must be an iterable of CovarianceSpec, got {covariances!r}")
        covariances = list(covariances)
        return cls(tuple(ModelEntry(covariance=cov, prior=1.0 / len(covariances))
                         for cov in covariances), form=form)


class RobustCriterion:
    """Prior-weighted criterion over a model class, same evaluation
    interface as :class:`DesignCriterion`. Raises :class:`ValidationError`
    unless ``model_class`` is a :class:`ModelClass` and the space and every
    entry make a :class:`DesignCriterion`."""

    def __init__(self, space: DesignSpace, model_class: ModelClass):
        check_instance("model_class", model_class, ModelClass)
        self.space = space
        self.model_class = model_class
        self._log_form = model_class.form == "log-average"
        # every entry is built, and so checked; only those with a positive
        # prior are scored
        parts = [(entry.prior, DesignCriterion(space, entry.covariance, model=entry.model))
                 for entry in model_class.entries]
        self._priors, self._parts = zip(*[(prior, crit) for prior, crit in parts
                                          if prior > 0.0])
        # (J, L P P): each unit's blocks under the L models, in order; none
        # at cluster granularity, where each model solves its own clusters
        self._blocks = (np.concatenate([crit._unit_blocks for crit in self._parts], axis=1)
                        if space.granularity == "sequence" else None)

    def values(self, batch) -> np.ndarray:
        """Robust criteria of a ``(K, J)`` batch of per-unit multiplicities;
        a row that any model with a positive prior cannot identify is
        ``inf``. Row ``i`` equals ``value(batch[i])`` bit for bit, and equals
        the prior-weighted sum, in model order, of each model's
        :meth:`DesignCriterion.values`.

        The batch is checked once and scored in the one chunk loop of
        :mod:`crtoptim.glscore`, which gives each row's value under every
        model; the priors then weigh those, once per batch. Raises
        :class:`ValidationError` for a batch that
        :meth:`DesignCriterion.values` rejects.
        """
        total = 0.0
        for prior, v in zip(self._priors, _model_values(self._parts, batch, self._blocks).T):
            total = total + prior * (np.log(v) if self._log_form else v)
        return total

    def bound_terms(self, batch):
        """:meth:`DesignCriterion.bound_terms` of the class: ``grad`` is the
        prior-weighted sum of the models' gradients, from one block sum
        over the models' unit blocks side by side, one kernel call and one
        ``einsum`` per chunk, and a row is vouched for only where every
        model's is. A linear average of convex criteria is convex, so the
        bound holds. ``None`` at cluster-period and observation
        granularity, and for the log-average form, whose logarithms are
        not convex."""
        if self._blocks is None or self._log_form:
            self._parts[0]._batch(batch)
            return None
        return _bound_terms(self._parts, self._priors, batch, self._blocks)

    value = DesignCriterion.value
    value_of = DesignCriterion.value_of


def robust_criterion(space: DesignSpace, design: Design,
                     model_class: ModelClass) -> float:
    """Robust criterion value of one design under a model class."""
    return RobustCriterion(space, model_class).value_of(design)
