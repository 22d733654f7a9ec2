"""Whitening transforms with length normalization, single and recursive.

A stage maps v to M (v - mean) where M = (C + ridge*I)^(-1/2) and C is the
divide-by-N sample covariance of the fitting data; M is the unique
symmetric positive-definite inverse square root, so fitting is
deterministic. Because projecting onto the unit sphere afterwards is a
nonlinear, non-whitening step, the data is no longer white after
normalization; a recursive chain refits the next stage on the normalized
output of a matched data subset to shave off the residual.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import IVectorSet, _freeze
from .errors import NumericError, ValidationError

DEFAULT_MAX_DEPTH = 3

# relative ridge applied when none is given: 1e-6 * trace(C) / d
DEFAULT_RIDGE_FACTOR = 1e-6


@dataclass(frozen=True)
class WhiteningStage:
    """One affine whitening step: v -> matrix @ (v - mean)."""

    mean: np.ndarray
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", _freeze(self.mean))
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        if self.mean.ndim != 1 or self.matrix.shape != (self.mean.size, self.mean.size):
            raise ValidationError("whitening matrix shape %r does not match mean shape %r"
                                  % (self.matrix.shape, self.mean.shape))


@dataclass(frozen=True)
class WhiteningChain:
    """Ordered whitening stages, each followed by length normalization; stage 1
    is fit on the primary subset and every deeper stage on the matched one."""

    stages: tuple[WhiteningStage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValidationError("whitening chain needs at least one stage")

    @property
    def depth(self) -> int:
        return len(self.stages)


def inverse_sqrt(cov: np.ndarray, ridge: Optional[float] = None) -> np.ndarray:
    """(cov + ridge*I)^(-1/2), the symmetric positive-definite inverse square root.

    `ridge` None selects 1e-6 * trace(cov)/d and 0 adds none; a matrix that
    is not positive definite after the ridge is a NumericError.
    """
    d = cov.shape[0]
    if ridge is None:
        ridge = DEFAULT_RIDGE_FACTOR * float(np.trace(cov)) / d
    if ridge < 0:
        raise ValidationError("ridge must be nonnegative, got %g" % ridge)
    if ridge > 0:
        cov = cov + ridge * np.eye(d)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if np.any(eigvals <= 0.0):
        raise NumericError(
            "covariance not positive definite after ridge %g (min eigenvalue %g); "
            "increase the ridge" % (ridge, float(eigvals.min()))
        )
    return (eigvecs * (1.0 / np.sqrt(eigvals))) @ eigvecs.T


def _fit_array(X: np.ndarray, ridge: Optional[float]) -> WhiteningStage:
    n, _ = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    return WhiteningStage(mean=mean, matrix=inverse_sqrt(centered.T @ centered / n, ridge))


def fit_whitener(data: IVectorSet, ridge: Optional[float] = None) -> WhiteningStage:
    """Fit a whitening stage on `data`.

    `ridge` is the absolute regularizer added to the covariance diagonal;
    None selects the default 1e-6 * trace(C)/d, and 0 requests none (an
    error is raised if the covariance is then singular).
    """
    if len(data) < 2:
        raise ValidationError("whitening needs at least 2 vectors, got %d" % len(data))
    return _fit_array(data.vectors, ridge)


def apply_stage(stage: WhiteningStage, v: np.ndarray) -> np.ndarray:
    """Apply matrix @ (v - mean); v may be one vector (d,) or a batch (n, d)."""
    v = np.asarray(v, dtype=np.float64)
    d = stage.mean.shape[0]
    if v.shape[-1] != d:
        raise ValidationError("vector dim %d does not match stage dim %d" % (v.shape[-1], d))
    return (v - stage.mean) @ stage.matrix.T


def length_normalize(v: np.ndarray) -> np.ndarray:
    """Project onto the unit sphere; zero vectors have no direction and raise."""
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError("cannot length-normalize a zero vector")
    return v / norms


def fit_recursive_chain(
    primary: IVectorSet,
    matched: IVectorSet,
    depth: int = 1,
    ridge: Optional[float] = None,
) -> WhiteningChain:
    """Fit a recursive whitening chain.

    Stage 1 is fit on `primary`; every deeper stage is fit on `matched`
    after pushing it through all previous stages (each followed by length
    normalization), so the subset that matches the evaluation domain
    drives the residual cleanup.
    """
    if not 1 <= depth <= DEFAULT_MAX_DEPTH:
        raise ValidationError("depth must be in 1..%d, got %d" % (DEFAULT_MAX_DEPTH, depth))
    if len(primary) == 0 or len(matched) == 0:
        raise ValidationError("both data subsets must be non-empty")
    if primary.dim != matched.dim:
        raise ValidationError("primary dim %d != matched dim %d" % (primary.dim, matched.dim))

    stages = [fit_whitener(primary, ridge)]
    current = matched.vectors
    for _ in range(1, depth):
        current = length_normalize(apply_stage(stages[-1], current))
        if current.shape[0] < 2:
            raise ValidationError("matched subset too small to refit whitening")
        stages.append(_fit_array(current, ridge))
    return WhiteningChain(stages=tuple(stages))


def apply_chain(chain: WhiteningChain, v: np.ndarray) -> np.ndarray:
    """Alternate stage application and length normalization; output is unit norm."""
    out = v
    for stage in chain.stages:
        out = length_normalize(apply_stage(stage, out))
    return out
