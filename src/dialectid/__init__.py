"""Dialect identification backend.

Post-processing (whitening and length normalization, recursive chains),
dialect mean models with cosine scoring and interpolation, a twin-network
embedding trained with a contrastive cosine loss, LDA and linear SVM
classifiers, n-gram text featurizers, score calibration and fusion, plus a
synthetic domain-mismatch generator and a CLI tying them together.
"""

from .data import (
    DEFAULT_LABELS,
    Domain,
    IVectorSet,
    ScoreTable,
    Utterance,
)
from .errors import DialectIdError, FormatError, NumericError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LABELS",
    "Domain",
    "IVectorSet",
    "ScoreTable",
    "Utterance",
    "DialectIdError",
    "FormatError",
    "NumericError",
    "ValidationError",
    "__version__",
]
