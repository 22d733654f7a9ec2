"""Dialect mean models, interpolation, cosine scoring and the argmax rule.

A dialect model is the unit-normalized mean of the (already whitened and
length-normalized) vectors of one dialect. Two model sets fit on an
out-of-domain and an in-domain split can be blended per dialect with a
weight gamma in [0, 1]; both the averaged and the blended vectors are
re-normalized so cosine scoring reduces to a dot product.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import DEFAULT_LABELS, IVectorSet, ScoreTable, _freeze
from .errors import NumericError, ValidationError

DEFAULT_GAMMA = 0.91


@dataclass(frozen=True)
class DialectModelSet:
    """One unit-norm model vector per dialect label."""

    labels: tuple[str, ...]
    models: np.ndarray = field(repr=False)  # (K, d), unit rows

    def __post_init__(self):
        object.__setattr__(self, "models", _freeze(self.models))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.models.ndim != 2 or self.models.shape[0] != len(self.labels):
            raise ValidationError("model matrix shape %r does not match %d labels"
                                  % (self.models.shape, len(self.labels)))
        norms = np.linalg.norm(self.models, axis=1)
        if self.models.size and not np.allclose(norms, 1.0, atol=1e-9):
            raise ValidationError("dialect models must be unit-normalized")

    @property
    def dim(self) -> int:
        return self.models.shape[1]


def fit_dialect_means(
    data: IVectorSet,
    labels: Sequence[str] = DEFAULT_LABELS,
) -> DialectModelSet:
    """Average each dialect's vectors and unit-normalize the result.

    Every label in `labels` must be present in `data`; the caller is
    expected to have post-processed (whitened + length-normalized) the
    vectors already.
    """
    models = []
    for label in labels:
        idx = data.indices_for_label(label)
        if idx.size == 0:
            raise ValidationError("no utterances for dialect %r" % label)
        mean = data.vectors[idx].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm == 0.0:
            raise NumericError("dialect %r has a zero mean vector" % label)
        models.append(mean / norm)
    return DialectModelSet(labels=tuple(labels), models=np.array(models))


def check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError("gamma must lie in [0, 1], got %g" % gamma)


def interpolate_models(
    trn: DialectModelSet, dev: DialectModelSet, gamma: float = DEFAULT_GAMMA
) -> DialectModelSet:
    """Blend per dialect: (1 - gamma) * trn + gamma * dev, then re-normalize."""
    if trn.labels != dev.labels:
        raise ValidationError("label sets differ: %r vs %r" % (trn.labels, dev.labels))
    if trn.dim != dev.dim:
        raise ValidationError("model dims differ: %d vs %d" % (trn.dim, dev.dim))
    check_gamma(gamma)
    mixed = (1.0 - gamma) * trn.models + gamma * dev.models
    norms = np.linalg.norm(mixed, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError("interpolation produced a zero model vector")
    return DialectModelSet(labels=trn.labels, models=mixed / norms)


def cds_score(models: DialectModelSet, v: np.ndarray) -> np.ndarray:
    """Cosine similarity of v against every model; (K,) for one vector, (n, K) for a batch."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != models.dim:
        raise ValidationError("vector dim %d does not match model dim %d"
                              % (v.shape[-1], models.dim))
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError("cannot score a zero vector")
    return (v / norms) @ models.models.T


def classify_rows(table: ScoreTable) -> dict[str, str]:
    """utt_id -> argmax label per row; exact ties go to the earliest label."""
    best = table.scores.argmax(axis=1)
    return {utt: table.labels[k] for utt, k in zip(table.utt_ids, best)}
