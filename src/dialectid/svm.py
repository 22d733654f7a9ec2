"""Linear one-vs-rest SVM trained by a deterministic subgradient sweep.

Per label, minimizes 0.5*||w||^2 + C * sum_i hinge(y_i (w.x_i + b)) with
the classic 1/(lambda*t) step schedule (lambda = 1/(C*N)), visiting samples
in seeded shuffled order; retraining with the same seed is bitwise
reproducible. Features may be dense arrays or scipy sparse matrices; all K
labels share the shuffle, so one CSR sweep (`_kernels.svm_epochs`) trains them.
A dense array enters that sweep as full rows over its own buffer, not as a
CSR copy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse

from . import _kernels
from .data import _freeze
from .errors import ValidationError

DEFAULT_C = 0.01
DEFAULT_EPOCHS = 100
MAX_STEPS = 10**8  # epochs x rows cap; the order table takes 8 B a step (800 MB)


@dataclass(frozen=True)
class LinearSvmModel:
    labels: tuple[str, ...]
    weights: np.ndarray = field(repr=False)  # (K, d)
    biases: np.ndarray = field(repr=False)  # (K,)

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights))
        object.__setattr__(self, "biases", _freeze(self.biases))
        object.__setattr__(self, "labels", tuple(self.labels))
        K = len(self.labels)
        if self.weights.ndim != 2 or self.weights.shape[0] != K or self.biases.shape != (K,):
            raise ValidationError("weight shape %r and bias shape %r do not match %d labels"
                                  % (self.weights.shape, self.biases.shape, K))
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValidationError("SVM parameters must be finite")

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def train_linear_svm(
    features,
    labels: Sequence[str],
    C: float = DEFAULT_C,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    class_labels: Optional[Sequence[str]] = None,
) -> LinearSvmModel:
    """Train one binary hinge model per label (one-vs-rest), all in one sweep.

    `class_labels` fixes the label order; by default labels are taken in
    order of first appearance. All binary problems share the same seeded
    shuffle sequence. C must be finite and positive and epochs x rows at most
    MAX_STEPS; both are checked before the order table is allocated.
    """
    if scipy.sparse.issparse(features):
        X = scipy.sparse.csr_matrix(features, dtype=np.float64, copy=True)
        X.sum_duplicates()  # canonical CSR: the sweep takes nnz == dim as a full row
        data, indices, indptr = X.data, X.indices, X.indptr
    else:  # every row is full, so the sweep never reads indices
        X = np.atleast_2d(np.ascontiguousarray(features, dtype=np.float64))
        if X.ndim != 2:
            raise ValidationError("features must be 1-D or 2-D, got %d-D" % X.ndim)
        data, indices = X.reshape(-1), np.empty(0, dtype=np.int32)
        indptr = np.arange(X.shape[0] + 1, dtype=np.int64) * X.shape[1]
    labels = list(labels)
    if X.shape[0] != len(labels):
        raise ValidationError("feature rows %d != label count %d" % (X.shape[0], len(labels)))
    class_labels = tuple(dict.fromkeys(labels) if class_labels is None else class_labels)
    if len(class_labels) < 2:
        raise ValidationError("need at least 2 distinct labels, got %r" % (class_labels,))
    unknown = set(labels) - set(class_labels)
    if unknown:
        raise ValidationError("labels %r missing from class set" % (sorted(unknown),))
    n, dim = X.shape
    lam = 1.0 / (C * n) if 0 < C < np.inf and n else 0.0  # the sweep's lambda
    if not 0 < lam < np.inf:
        raise ValidationError("C=%r for %d rows: C must be finite and positive" % (C, n))
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    if epochs * n > MAX_STEPS:
        raise ValidationError("epochs x rows = %d x %d exceeds %d steps" % (epochs, n, MAX_STEPS))

    rng = np.random.default_rng(seed)
    order = np.empty((epochs, n), dtype=np.int64)
    for e in range(epochs):
        order[e] = rng.permutation(n)
    Y = np.where(np.array(labels)[None, :] == np.array(class_labels)[:, None], 1.0, -1.0)
    weights, biases = _kernels.svm_epochs(data, indices, indptr, dim, Y, order, float(C))
    return LinearSvmModel(labels=class_labels, weights=weights, biases=biases)


def svm_decision(model: LinearSvmModel, x) -> np.ndarray:
    """Per-label decision values w_k . x + b_k; (K,) for one vector, (n, K) for a batch."""
    if not scipy.sparse.issparse(x):  # CSR is scored as is, never densified
        x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.dim:
        raise ValidationError("feature dim %d does not match model dim %d"
                              % (x.shape[-1], model.dim))
    return x @ model.weights.T + model.biases
