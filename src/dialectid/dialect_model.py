"""Dialect mean models, interpolation, cosine scoring and the argmax rule.

A dialect model is the unit-normalized mean of the (already whitened and
length-normalized) vectors of one dialect. Two model sets fit on an
out-of-domain and an in-domain split can be blended per dialect with a
weight gamma in [0, 1]; both the averaged and the blended vectors are
re-normalized so cosine scoring reduces to a dot product.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import DEFAULT_LABELS, IVectorSet, ScoreTable
from .errors import NumericError, ValidationError

DEFAULT_GAMMA = 0.91


@dataclass(frozen=True)
class ModelProvenance:
    kind: str  # "averaged" | "interpolated"
    domain: Optional[str] = None
    gamma: Optional[float] = None


@dataclass(frozen=True)
class DialectModelSet:
    """One unit-norm model vector per dialect label."""

    labels: tuple[str, ...]
    models: np.ndarray = field(repr=False)  # (K, d), unit rows
    provenance: ModelProvenance = ModelProvenance("averaged")
    n_per_dialect: tuple[int, ...] = ()

    def __post_init__(self):
        models = np.ascontiguousarray(np.atleast_2d(self.models), dtype=np.float64)
        models.flags.writeable = False
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "n_per_dialect", tuple(self.n_per_dialect))
        if models.shape[0] != len(self.labels):
            raise ValidationError("model count %d does not match %d labels"
                                  % (models.shape[0], len(self.labels)))
        norms = np.linalg.norm(models, axis=1)
        if models.size and not np.allclose(norms, 1.0, atol=1e-9):
            raise ValidationError("dialect models must be unit-normalized")
        g = self.provenance.gamma
        if g is not None and not 0.0 <= g <= 1.0:
            raise ValidationError("gamma must lie in [0, 1], got %g" % g)

    @property
    def dim(self) -> int:
        return self.models.shape[1]


def fit_dialect_means(
    data: IVectorSet,
    labels: Sequence[str] = DEFAULT_LABELS,
    domain_desc: str = "",
) -> DialectModelSet:
    """Average each dialect's vectors and unit-normalize the result.

    Every label in `labels` must be present in `data`; the caller is
    expected to have post-processed (whitened + length-normalized) the
    vectors already.
    """
    models = []
    counts = []
    for label in labels:
        idx = data.indices_for_label(label)
        if idx.size == 0:
            raise ValidationError("no utterances for dialect %r" % label)
        mean = data.vectors[idx].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm == 0.0:
            raise NumericError("dialect %r has a zero mean vector" % label)
        models.append(mean / norm)
        counts.append(int(idx.size))
    return DialectModelSet(
        labels=tuple(labels),
        models=np.array(models),
        provenance=ModelProvenance("averaged", domain=domain_desc or None),
        n_per_dialect=tuple(counts),
    )


def interpolate_models(
    trn: DialectModelSet, dev: DialectModelSet, gamma: float = DEFAULT_GAMMA
) -> DialectModelSet:
    """Blend per dialect: (1 - gamma) * trn + gamma * dev, then re-normalize."""
    if trn.labels != dev.labels:
        raise ValidationError("label sets differ: %r vs %r" % (trn.labels, dev.labels))
    if trn.dim != dev.dim:
        raise ValidationError("model dims differ: %d vs %d" % (trn.dim, dev.dim))
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError("gamma must lie in [0, 1], got %g" % gamma)
    mixed = (1.0 - gamma) * trn.models + gamma * dev.models
    norms = np.linalg.norm(mixed, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError("interpolation produced a zero model vector")
    return DialectModelSet(
        labels=trn.labels,
        models=mixed / norms,
        provenance=ModelProvenance("interpolated", gamma=float(gamma)),
        n_per_dialect=tuple(a + b for a, b in zip(trn.n_per_dialect, dev.n_per_dialect))
        if trn.n_per_dialect and dev.n_per_dialect else (),
    )


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
