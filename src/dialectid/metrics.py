"""Confusion matrices and the three challenge indices.

Accuracy is trace/total; per-class precision divides the diagonal by the
predicted column (0 when the class was never predicted) and recall by the
true row. The macro averages are unweighted means over the classes that
actually occur in the truth. All three are reported in percent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import _freeze
from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray = field(repr=False)  # (K, K) int, rows = truth, cols = predicted

    def __post_init__(self):
        object.__setattr__(self, "counts", _freeze(self.counts, np.int64))
        object.__setattr__(self, "labels", tuple(self.labels))
        k = len(self.labels)
        if self.counts.shape != (k, k):
            raise ValidationError("counts shape %r does not match %d labels"
                                  % (self.counts.shape, k))
        if np.any(self.counts < 0):
            raise ValidationError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float


def confusion(truth: Mapping[str, str], pred: Mapping[str, str],
              labels: Sequence[str]) -> ConfusionMatrix:
    """Tally counts[i][j] = #utterances with truth label_i predicted label_j."""
    if set(truth) != set(pred):
        raise ValidationError("truth and prediction cover different utterances")
    labels = tuple(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for utt, t in truth.items():
        p = pred[utt]
        if t not in pos:
            raise ValidationError("truth label %r not in label set" % t)
        if p not in pos:
            raise ValidationError("predicted label %r not in label set" % p)
        counts[pos[t], pos[p]] += 1
    return ConfusionMatrix(labels=labels, counts=counts)


def _evaluate(cm: ConfusionMatrix):
    """(the MetricsReport, n_true, n_pred, precision %, recall %), the last four per
    class in label order."""
    if cm.total == 0:
        raise ValidationError("cannot evaluate an empty confusion matrix")
    diag = np.diag(cm.counts)
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    # a class never predicted (or never true) has a 0 diagonal, so 0 precision (recall)
    precision = 100.0 * diag / np.maximum(cols, 1)
    recall = 100.0 * diag / np.maximum(rows, 1)
    present = rows > 0
    report = MetricsReport(
        accuracy=100.0 * float(diag.sum() / cm.total),
        macro_precision=float(precision[present].mean()),
        macro_recall=float(recall[present].mean()),
    )
    return report, rows, cols, precision, recall


def evaluate(cm: ConfusionMatrix) -> MetricsReport:
    """Overall accuracy plus macro precision/recall, in percent."""
    return _evaluate(cm)[0]


def render_report(cm: ConfusionMatrix, system_id: str = "") -> str:
    """Aligned plain-text report followed by machine-readable key=value lines."""
    rep, rows, cols, precision, recall = _evaluate(cm)
    lines = []
    if system_id:
        lines.append("system: %s" % system_id)
    lines.append("utterances: %d" % cm.total)
    width = max(5, max(len(lab) for lab in cm.labels))
    lines.append("%-*s %10s %10s %8s %8s"
                 % (width, "label", "prec(%)", "recall(%)", "n_true", "n_pred"))
    for row in zip(cm.labels, precision, recall, rows, cols):
        lines.append("%-*s %10.2f %10.2f %8d %8d" % (width, *row))
    lines.append("")
    lines.append("accuracy=%.6f" % rep.accuracy)
    lines.append("macro_precision=%.6f" % rep.macro_precision)
    lines.append("macro_recall=%.6f" % rep.macro_recall)
    return "\n".join(lines) + "\n"
