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


def evaluate(cm: ConfusionMatrix) -> MetricsReport:
    """Overall accuracy plus macro precision/recall, in percent."""
    if cm.total == 0:
        raise ValidationError("cannot evaluate an empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    diag = np.diag(counts)
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    present = rows > 0
    precision = np.where(cols > 0, diag / np.where(cols > 0, cols, 1.0), 0.0)
    recall = np.where(present, diag / np.where(present, rows, 1.0), 0.0)
    return MetricsReport(
        accuracy=100.0 * float(diag.sum() / counts.sum()),
        macro_precision=100.0 * float(precision[present].mean()),
        macro_recall=100.0 * float(recall[present].mean()),
    )


def render_report(cm: ConfusionMatrix, system_id: str = "") -> str:
    """Aligned plain-text report followed by machine-readable key=value lines."""
    rep = evaluate(cm)
    lines = []
    if system_id:
        lines.append("system: %s" % system_id)
    lines.append("utterances: %d" % cm.total)
    counts = cm.counts
    diag = np.diag(counts)
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    width = max(5, max(len(lab) for lab in cm.labels))
    lines.append("%-*s %10s %10s %8s %8s"
                 % (width, "label", "prec(%)", "recall(%)", "n_true", "n_pred"))
    for i, lab in enumerate(cm.labels):
        prec = 100.0 * diag[i] / cols[i] if cols[i] else 0.0
        rec = 100.0 * diag[i] / rows[i] if rows[i] else 0.0
        lines.append("%-*s %10.2f %10.2f %8d %8d"
                     % (width, lab, prec, rec, rows[i], cols[i]))
    lines.append("")
    lines.append("accuracy=%.6f" % rep.accuracy)
    lines.append("macro_precision=%.6f" % rep.macro_precision)
    lines.append("macro_recall=%.6f" % rep.macro_recall)
    return "\n".join(lines) + "\n"
