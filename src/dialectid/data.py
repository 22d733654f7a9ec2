"""Shared data model: dialect labels, utterances, vector sets, sparse rows, score tables.

Every container is a frozen dataclass that takes each array through `_freeze`,
so instances never alias a caller's array and can be shared across threads.
An `IVectorSet` checks shapes only: the file readers in `fileio` refuse a
repeated id or a non-finite value, naming its line, before a set is built.
`CsrRows`, the sparse rows of the text features, checks its whole form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ValidationError

DEFAULT_LABELS = ("EGY", "LEV", "GLF", "NOR", "MSA")


class Domain(Enum):
    """Which split an utterance belongs to."""

    TRN = "TRN"
    DEV = "DEV"
    TST = "TST"


def _freeze(arr, dtype=np.float64) -> np.ndarray:
    """Read-only `dtype` array for a container field: a copy of `arr` in its memory order
    (products round by it), unless converting made a new array the caller cannot reach."""
    out = np.asarray(arr, dtype=dtype)
    if out is arr or out.base is not None:
        out = out.copy(order="K")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Utterance:
    """One utterance: unique id, split membership, optional dialect label."""

    id: str
    domain: Domain
    label: Optional[str] = None


@dataclass(frozen=True)
class IVectorSet:
    """Labeled collection of fixed-dimension embedding vectors.

    `vectors` is an (n, dim) float64 matrix aligned row-for-row with
    `utterances`; `dim` is its width. The matrix is read-only; derive new
    sets with :meth:`with_vectors` or :meth:`subset` instead of mutating.
    """

    utterances: tuple[Utterance, ...]
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _freeze(np.atleast_2d(self.vectors))
        object.__setattr__(self, "vectors", arr)
        object.__setattr__(self, "utterances", tuple(self.utterances))
        if arr.ndim != 2:
            raise ValidationError("vectors must be a 2-D matrix")
        if arr.shape[0] != len(self.utterances):
            raise ValidationError(
                "vector count %d does not match utterance count %d"
                % (arr.shape[0], len(self.utterances))
            )
        if self.dim <= 0:
            raise ValidationError("dim must be positive")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.utterances)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(u.id for u in self.utterances)

    def with_vectors(self, vectors: np.ndarray) -> "IVectorSet":
        """Same utterances, new vectors (dimension may change)."""
        return IVectorSet(self.utterances, vectors)

    def subset(self, indices) -> "IVectorSet":
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        utts = tuple(self.utterances[i] for i in indices)
        return IVectorSet(utts, self.vectors[indices])

    def indices_for_label(self, label: str) -> np.ndarray:
        return np.array([i for i, u in enumerate(self.utterances) if u.label == label], dtype=int)

    def concat(self, other: "IVectorSet") -> "IVectorSet":
        if other.dim != self.dim:
            raise ValidationError("cannot concatenate sets of dim %d and %d" % (self.dim, other.dim))
        return IVectorSet(self.utterances + other.utterances,
                          np.vstack([self.vectors, other.vectors]))


@dataclass(frozen=True)
class CsrRows:
    """The rows of a sparse (n, dim) matrix in canonical CSR form.

    Row i holds the values ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices`` over the same range, strictly increasing and below dim, so a
    row with dim entries is full. len() is the row count.
    """

    data: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    shape: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data))
        object.__setattr__(self, "indices", _freeze(self.indices, np.int64))
        object.__setattr__(self, "indptr", _freeze(self.indptr, np.int64))
        object.__setattr__(self, "shape", tuple(self.shape))
        if len(self.shape) != 2 or not all(type(x) is int and x >= 0 for x in self.shape):
            raise ValidationError("CSR shape must be two non-negative ints, got %r" % (self.shape,))
        (n, dim), nnz, indptr = self.shape, self.data.size, self.indptr
        if self.data.ndim != 1 or self.indices.shape != (nnz,):
            raise ValidationError("CSR data and indices must be aligned 1-D arrays")
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != nnz
                or np.any(np.diff(indptr) < 0)):
            raise ValidationError("CSR indptr must rise from 0 to %d over %d rows" % (nnz, n))
        if nnz and not 0 <= self.indices.min() <= self.indices.max() < dim:
            raise ValidationError("CSR column index out of range for dim %d" % dim)
        # in row-major order the cells rows * dim + columns rise strictly
        if np.any(np.diff(np.repeat(np.arange(n), np.diff(indptr)) * dim + self.indices) <= 0):
            raise ValidationError("CSR columns must strictly increase within each row")
        if not np.all(np.isfinite(self.data)):
            raise ValidationError("CSR values must be finite")

    def __len__(self):
        return self.shape[0]


@dataclass(frozen=True)
class ScoreTable:
    """Utterances x dialects matrix of real scores for one system.

    When `calibrated` is true every cell must already lie in [0, 1].
    """

    system_id: str
    labels: tuple[str, ...]
    utt_ids: tuple[str, ...]
    scores: np.ndarray = field(repr=False)
    calibrated: bool = False

    def __post_init__(self):
        arr = _freeze(np.atleast_2d(self.scores))
        object.__setattr__(self, "scores", arr)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "utt_ids", tuple(self.utt_ids))
        if not self.labels:
            raise ValidationError("score table needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("score table labels contain duplicates")
        if len(set(self.utt_ids)) != len(self.utt_ids):
            raise ValidationError("score table utterance ids contain duplicates")
        if arr.shape != (len(self.utt_ids), len(self.labels)):
            raise ValidationError(
                "score matrix shape %r does not match %d utterances x %d labels"
                % (arr.shape, len(self.utt_ids), len(self.labels))
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError("score table contains non-finite scores")
        if self.calibrated and arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValidationError("calibrated score table has scores outside [0, 1]")

    def __len__(self):
        return len(self.utt_ids)
