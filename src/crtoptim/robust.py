"""Robust design criteria over a class of candidate models.

When the covariance structure or its parameters are uncertain, a design
can be chosen against a prior-weighted set of candidate models instead of
a single one. Two aggregations of the per-model treatment variances are
supported: their prior-weighted average and the prior-weighted average of
their logarithms. Both preserve the monotone supermodularity that the
combinatorial optimisers rely on, so a :class:`RobustCriterion` plugs in
wherever a plain criterion does.

At sequence granularity a design's information under each model is a
count-weighted sum of that model's unit blocks, so the blocks of every
model with a positive prior are laid side by side once, per unit. A batch
is then scored chunk by chunk, each chunk in one block sum over the units
and one call of the criterion kernel on the ``(K L, P, P)`` stack of its
``K`` rows under the ``L`` models. Chunks hold ``1 / L`` of a plain
criterion's rows, so the kernel's stack stays within the same working-array
budget. At cluster-period and observation granularity each model scores
the batch on its own: there the block sum is a cluster solve per row, and
stacking those solves over the models measured slower.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .covariance import CovarianceSpec, ModelSpec
from .designspace import Design, DesignSpace
from .errors import ValidationError, check_probabilities, check_real
from .glscore import DesignCriterion, _contrast_kernel

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
        if not isinstance(model_class, ModelClass):
            raise ValidationError(f"model_class must be a ModelClass, got {model_class!r}")
        self.space = space
        self.model_class = model_class
        self._log_form = model_class.form == "log-average"
        # every entry is built, and so checked; only those with a positive
        # prior are scored
        parts = [(entry.prior, DesignCriterion(space, entry.covariance, model=entry.model))
                 for entry in model_class.entries]
        self._parts = [(prior, crit) for prior, crit in parts if prior > 0.0]
        first = self._parts[0][1]
        self._blocks = None
        if first._unit_blocks is not None:
            # (J, L P P): each unit's blocks under the L models, in order
            self._blocks = np.stack([crit._unit_blocks for _, crit in self._parts],
                                    axis=1).reshape(space.n_units, -1)
            # a chunk of K rows puts K L matrices into the kernel
            self._chunk_rows = max(1, first._chunk_rows // len(self._parts))

    def _combine(self, per_model) -> np.ndarray:
        """Prior-weighted sum, in model order, of one value array per model."""
        total = 0.0
        for (prior, _), v in zip(self._parts, per_model):
            total = total + prior * (np.log(v) if self._log_form else v)
        return total

    def values(self, batch) -> np.ndarray:
        """Robust criteria of a ``(K, J)`` batch of per-unit multiplicities;
        a row that any model with a positive prior cannot identify is
        ``inf``. Row ``i`` equals ``value(batch[i])`` bit for bit, and equals
        the prior-weighted sum, in model order, of each model's
        :meth:`DesignCriterion.values`.

        At sequence granularity the batch is checked and cast to float once,
        then scored a chunk at a time: one block sum gives the chunk's
        information matrices under every model, and one kernel call scores
        them all. Elsewhere each model scores the whole batch. Raises
        :class:`ValidationError` for a batch that
        :meth:`DesignCriterion.values` rejects.
        """
        if self._blocks is None:
            return self._combine(crit.values(batch) for _, crit in self._parts)
        batch = self._parts[0][1]._batch(batch).astype(float, copy=False)
        p = self.space.n_periods + 1
        out = np.empty(len(batch))
        for i in range(0, len(batch), self._chunk_rows):
            chunk = batch[i:i + self._chunk_rows]
            # the same sums, unit by unit, as each model's own block sum
            info = np.einsum("kj,jx->kx", chunk, self._blocks)
            v = _contrast_kernel(info.reshape(-1, p, p))[0]
            out[i:i + len(chunk)] = self._combine(v.reshape(len(chunk), -1).T)
        return out

    def value(self, counts) -> float:
        return float(self.values(np.asarray(counts)[None])[0])

    def value_of(self, design: Design) -> float:
        design.validate(self.space)
        return self.value(np.asarray(design.counts))


def robust_criterion(space: DesignSpace, design: Design,
                     model_class: ModelClass) -> float:
    """Robust criterion value of one design under a model class."""
    return RobustCriterion(space, model_class).value_of(design)
