"""Linear one-vs-rest SVM trained by a deterministic subgradient sweep.

Per label, minimizes 0.5*||w||^2 + C * sum_i hinge(y_i (w.x_i + b)) with
the classic 1/(lambda*t) step schedule (lambda = 1/(C*N)), visiting samples
in seeded shuffled order; retraining with the same seed is bitwise
reproducible. Features may be dense arrays or scipy CSR matrices; the
sweep itself runs on CSR arrays in `_kernels.svm_epochs`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse

from . import _kernels
from .errors import ValidationError

DEFAULT_C = 0.01
DEFAULT_EPOCHS = 100


@dataclass(frozen=True)
class LinearSvmModel:
    labels: tuple[str, ...]
    weights: np.ndarray = field(repr=False)  # (K, d)
    biases: np.ndarray = field(repr=False)  # (K,)
    C: float = DEFAULT_C

    def __post_init__(self):
        weights = np.atleast_2d(np.asarray(self.weights, dtype=np.float64))
        biases = np.asarray(self.biases, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "labels", tuple(self.labels))
        if weights.shape[0] != len(self.labels) or biases.shape != (len(self.labels),):
            raise ValidationError("per-label weight/bias count mismatch")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
            raise ValidationError("SVM parameters must be finite")
        if self.C <= 0:
            raise ValidationError("C must be positive")

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def _as_csr(features) -> scipy.sparse.csr_matrix:
    if scipy.sparse.issparse(features):
        return features.tocsr().astype(np.float64)
    arr = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return scipy.sparse.csr_matrix(arr)


def train_linear_svm(
    features,
    labels: Sequence[str],
    C: float = DEFAULT_C,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    class_labels: Optional[Sequence[str]] = None,
) -> LinearSvmModel:
    """Train one binary hinge model per label (one-vs-rest).

    `class_labels` fixes the label order; by default labels are taken in
    order of first appearance. All binary problems share the same seeded
    shuffle sequence.
    """
    X = _as_csr(features)
    labels = list(labels)
    if X.shape[0] != len(labels):
        raise ValidationError("feature rows %d != label count %d" % (X.shape[0], len(labels)))
    if class_labels is None:
        class_labels = list(dict.fromkeys(labels))
    class_labels = tuple(class_labels)
    if len(class_labels) < 2:
        raise ValidationError("need at least 2 distinct labels, got %r" % (class_labels,))
    unknown = set(labels) - set(class_labels)
    if unknown:
        raise ValidationError("labels %r missing from class set" % (sorted(unknown),))
    if C <= 0:
        raise ValidationError("C must be positive")
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")

    n, dim = X.shape
    rng = np.random.default_rng(seed)
    order = np.empty((epochs, n), dtype=np.int64)
    for e in range(epochs):
        order[e] = rng.permutation(n)

    data = np.ascontiguousarray(X.data, dtype=np.float64)
    indices = np.ascontiguousarray(X.indices, dtype=np.int64)
    indptr = np.ascontiguousarray(X.indptr, dtype=np.int64)
    lab_arr = np.array(labels)
    weights = np.empty((len(class_labels), dim))
    biases = np.empty(len(class_labels))
    for k, lab in enumerate(class_labels):
        y = np.where(lab_arr == lab, 1.0, -1.0)
        w, b = _kernels.svm_epochs(data, indices, indptr, dim, y, order, float(C))
        weights[k] = w
        biases[k] = b
    return LinearSvmModel(labels=class_labels, weights=weights, biases=biases, C=float(C))


def svm_decision(model: LinearSvmModel, x) -> np.ndarray:
    """Per-label decision values w_k . x + b_k; (K,) for one vector, (n, K) for a batch."""
    if scipy.sparse.issparse(x):
        x = np.asarray(x.todense())
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.dim:
        raise ValidationError("feature dim %d does not match model dim %d"
                              % (x.shape[-1], model.dim))
    return x @ model.weights.T + model.biases
