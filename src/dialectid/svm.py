"""Linear one-vs-rest SVM trained by a deterministic subgradient sweep.

Per label, minimizes 0.5*||w||^2 + C * sum_i hinge(y_i (w.x_i + b)) with
the classic 1/(lambda*t) step schedule (lambda = 1/(C*N)), visiting samples
in seeded shuffled order; retraining with the same seed is bitwise
reproducible. Features are a numeric array or `data.CsrRows`; all K labels
share the shuffle, so one CSR sweep (`_kernels.svm_epochs`) trains them.
`CsrRows` enter that sweep as they are, and a dense array as full rows over
its own buffer, not as a CSR copy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .data import CsrRows, _freeze
from .errors import ValidationError

DEFAULT_C = 0.01
DEFAULT_EPOCHS = 100
MAX_STEPS = 10**8  # epochs x rows cap; the order table takes 8 B a step (800 MB)


def _rows(x):
    """`x` if it is `CsrRows`, else `x` as a 1-D or 2-D float64 array; other input is refused."""
    if isinstance(x, CsrRows):
        return x
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ValidationError("features must be a numeric array or CsrRows, not %s"
                              % type(x).__name__) from err
    if x.ndim not in (1, 2):
        raise ValidationError("features must be 1-D or 2-D, got %d-D" % x.ndim)
    return x


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


def check_options(C: float, epochs: int, n: int = 1) -> None:
    """C and epochs for a sweep over `n` rows; n = 1 leaves the checks any rows need."""
    lam = 1.0 / (C * n) if 0 < C < np.inf and n else 0.0  # the sweep's lambda
    if not 0 < lam < np.inf:
        raise ValidationError("C must be finite and positive (C=%r, rows=%d)" % (C, n))
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    if epochs * n > MAX_STEPS:
        raise ValidationError("epochs x rows = %d x %d exceeds %d steps" % (epochs, n, MAX_STEPS))


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
    shuffle sequence. `check_options` checks C and epochs for the rows before
    the order table is allocated.
    """
    X = _rows(features)
    if isinstance(X, CsrRows):  # canonical, so the sweep takes nnz == dim as a full row
        data, indices, indptr = X.data, X.indices, X.indptr
    else:  # every row is full, so the sweep never reads indices
        X = np.atleast_2d(np.ascontiguousarray(X))
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
    check_options(C, epochs, n)

    rng = np.random.default_rng(seed)
    order = np.empty((epochs, n), dtype=np.int64)
    for e in range(epochs):
        order[e] = rng.permutation(n)
    Y = np.where(np.array(labels)[None, :] == np.array(class_labels)[:, None], 1.0, -1.0)
    weights, biases = _kernels.svm_epochs(data, indices, indptr, dim, Y, order, float(C))
    return LinearSvmModel(labels=class_labels, weights=weights, biases=biases)


def svm_decision(model: LinearSvmModel, x) -> np.ndarray:
    """Per-label decision values w_k . x + b_k; (K,) for one vector, (n, K) for a batch.

    `CsrRows` are scored as they are, never densified.
    """
    x = _rows(x)
    if x.shape[-1] != model.dim:
        raise ValidationError("feature dim %d does not match model dim %d"
                              % (x.shape[-1], model.dim))
    if not isinstance(x, CsrRows):
        return x @ model.weights.T + model.biases
    terms = np.take(model.weights, x.indices, axis=1)  # (K, nnz)
    terms *= x.data
    out = np.zeros((len(x), model.weights.shape[0]))
    filled = np.flatnonzero(np.diff(x.indptr))  # reduceat gives an empty row a term, not 0
    out[filled] = np.add.reduceat(terms, x.indptr[filled], axis=1).T
    return out + model.biases
