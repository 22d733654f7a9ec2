"""Multi-class linear discriminant projection.

Solves the generalized eigenproblem S_b u = lambda (S_w + ridge*I) u with
class-count-weighted scatter matrices and keeps the top directions, at most
(number of classes - 1) of them. With M = (S_w + ridge*I)^(-1/2), the
whitening stage's inverse square root, it is the symmetric problem
(M S_b M) y = lambda y, and u = M y; so u^T (S_w + ridge*I) u = 1.
Eigenvector signs follow a fixed convention (largest-magnitude entry
positive) so fits serialize reproducibly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import whitening
from .data import IVectorSet, _freeze
from .errors import ValidationError


@dataclass(frozen=True)
class LdaProjection:
    mean: np.ndarray
    basis: np.ndarray = field(repr=False)  # (d, k) columns = discriminant directions

    def __post_init__(self):
        object.__setattr__(self, "mean", _freeze(self.mean))
        object.__setattr__(self, "basis", _freeze(self.basis))
        if self.mean.ndim != 1 or self.basis.ndim != 2 or self.basis.shape[0] != self.mean.size:
            raise ValidationError("basis shape %r does not match mean shape %r"
                                  % (self.basis.shape, self.mean.shape))

    @property
    def out_dim(self) -> int:
        return self.basis.shape[1]


def fit_lda(data: IVectorSet, out_dim: Optional[int] = None,
            ridge: Optional[float] = None) -> LdaProjection:
    """Fit the projection on labeled vectors.

    out_dim defaults to (classes - 1) and may not exceed it. Each class
    needs at least 2 samples so the within-class scatter is meaningful.
    `ridge` is as for `whitening.inverse_sqrt`.
    """
    labels = [u.label for u in data.utterances]
    if any(lab is None for lab in labels):
        raise ValidationError("LDA needs labels on every utterance")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValidationError("LDA needs at least 2 classes, got %d" % len(classes))
    max_dim = len(classes) - 1
    if out_dim is None:
        out_dim = max_dim
    if not 1 <= out_dim <= max_dim:
        raise ValidationError(
            "out_dim must be in 1..%d for %d classes, got %d" % (max_dim, len(classes), out_dim)
        )

    X = data.vectors
    n, d = X.shape
    mean = X.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for lab in classes:
        idx = data.indices_for_label(lab)
        if idx.size < 2:
            raise ValidationError("class %r has fewer than 2 samples" % lab)
        Xc = X[idx]
        mc = Xc.mean(axis=0)
        centered = Xc - mc
        s_w += centered.T @ centered
        diff = mc - mean
        s_b += idx.size * np.outer(diff, diff)
    s_w /= n
    s_b /= n
    M = whitening.inverse_sqrt(s_w, ridge)
    eigvals, eigvecs = np.linalg.eigh(M @ s_b @ M)
    order = np.argsort(eigvals)[::-1][:out_dim]
    basis = M @ eigvecs[:, order]
    # sign convention: largest-magnitude entry of each column positive
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]
    return LdaProjection(mean=mean, basis=basis)


def apply_lda(projection: LdaProjection, v: np.ndarray) -> np.ndarray:
    """basis^T (v - mean); v may be (d,) or a batch (n, d)."""
    v = np.asarray(v, dtype=np.float64)
    d = projection.mean.shape[0]
    if v.shape[-1] != d:
        raise ValidationError("vector dim %d does not match projection dim %d"
                              % (v.shape[-1], d))
    return (v - projection.mean) @ projection.basis
