"""Linear score calibration into [0, 1] and fixed-weight linear fusion.

Calibration fits one global affine map per system by least squares against
one-hot targets over all (utterance, dialect) cells, forces the slope
positive so ordering is preserved, and clamps applied scores to [0, 1].
Fusion is a cell-wise convex combination of calibrated tables matched by
system id, so it is invariant to the order the (table, weight) pairs are
given in.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

import numpy as np

from .data import ScoreTable
from .errors import NumericError, ValidationError

MIN_SLOPE = 1e-12
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class CalibrationParams:
    system_id: str
    scale: float  # a > 0
    offset: float  # b
    fit_domain: str = ""

    def __post_init__(self):
        if not self.scale > 0:
            raise ValidationError("calibration scale must be positive")


@dataclass(frozen=True)
class FusionWeights:
    entries: tuple[tuple[str, float], ...]  # (system id, weight >= 0)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((s, float(w)) for s, w in self.entries))
        if not self.entries:
            raise ValidationError("fusion needs at least one system")
        ids = [s for s, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate system ids in fusion weights")
        if any(w < 0 for _, w in self.entries):
            raise ValidationError("fusion weights must be nonnegative")
        total = sum(w for _, w in self.entries)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError("fusion weights must sum to 1, got %.12g" % total)


def _one_hot_targets(table: ScoreTable, truth: Mapping[str, str]) -> np.ndarray:
    targets = np.zeros_like(table.scores)
    for i, utt in enumerate(table.utt_ids):
        if utt not in truth:
            raise ValidationError("no label for utterance %r" % utt)
        label = truth[utt]
        if label not in table.labels:
            raise ValidationError("label %r not in table labels %r" % (label, table.labels))
        targets[i, table.labels.index(label)] = 1.0
    return targets


def fit_calibration(table: ScoreTable, truth: Mapping[str, str],
                    fit_domain: str = "") -> CalibrationParams:
    """Least-squares affine fit of scores to one-hot targets over all cells.

    The slope is clamped positive afterwards (offset refit for the clamped
    slope), keeping the map order-preserving even for anti-correlated
    scores.
    """
    if len(table) == 0:
        raise ValidationError("cannot calibrate an empty score table")
    s = table.scores.ravel()
    t = _one_hot_targets(table, truth).ravel()
    var = float(np.var(s))
    if var == 0.0:
        raise NumericError("zero score variance; calibration undefined")
    a = float(np.cov(s, t, bias=True)[0, 1] / var)
    if a <= 0:
        a = MIN_SLOPE
    b = float(t.mean() - a * s.mean())
    return CalibrationParams(system_id=table.system_id, scale=a, offset=b,
                             fit_domain=fit_domain)


def apply_calibration(params: CalibrationParams, table: ScoreTable) -> ScoreTable:
    """clamp(a*s + b, 0, 1) cell-wise; the result is flagged calibrated.

    With a > 0 the map is monotone, so each row's maximal score stays
    maximal (clamping can only merge scores at the boundaries).
    """
    if params.system_id != table.system_id:
        raise ValidationError("calibration fit for %r, table is %r"
                              % (params.system_id, table.system_id))
    mapped = np.clip(params.scale * table.scores + params.offset, 0.0, 1.0)
    return ScoreTable(system_id=table.system_id, labels=table.labels,
                      utt_ids=table.utt_ids, scores=mapped, calibrated=True)


def _aligned(tables: Sequence[ScoreTable]):
    """Check that calibrated tables can be fused and stack them.

    Returns (system ids, utterance ids, labels, (S, N, K) scores) with the
    tables in system-id order and every table's rows in utterance-id order.
    """
    if not tables:
        raise ValidationError("fusion needs at least one table")
    by_id = {}
    for t in tables:
        if not t.calibrated:
            raise ValidationError("table %r is not calibrated" % t.system_id)
        if t.system_id in by_id:
            raise ValidationError("duplicate table for system %r" % t.system_id)
        by_id[t.system_id] = t
    ids = tuple(sorted(by_id))
    first = by_id[ids[0]]
    utt_ids = tuple(sorted(first.utt_ids))
    stack = []
    for system_id in ids:
        t = by_id[system_id]
        if t.labels != first.labels:
            raise ValidationError("label mismatch between %r and %r"
                                  % (first.system_id, t.system_id))
        order = sorted(range(len(t)), key=t.utt_ids.__getitem__)
        if tuple(t.utt_ids[i] for i in order) != utt_ids:
            raise ValidationError("utterance mismatch between %r and %r"
                                  % (first.system_id, t.system_id))
        stack.append(t.scores[order])
    return ids, utt_ids, first.labels, np.stack(stack)


def _combine(stack: np.ndarray, w) -> np.ndarray:
    """sum_s w[s] * stack[s], accumulated in system-id order, clipped to [0, 1].

    The fixed order means permuting the inputs cannot change even the
    floating-point rounding of the result.
    """
    total = np.zeros(stack.shape[1:])
    for w_s, scores in zip(w, stack):
        total += w_s * scores
    return np.clip(total, 0.0, 1.0, out=total)


def fuse(tables: Sequence[ScoreTable], weights: FusionWeights) -> ScoreTable:
    """Cell-wise weighted sum of calibrated tables, aligned by utterance id.

    All tables must be calibrated and cover the same utterances and labels;
    weights are matched to tables by system id.
    """
    ids, utt_ids, labels, stack = _aligned(tables)
    by_id = dict(weights.entries)
    if set(by_id) != set(ids):
        raise ValidationError("weights cover %r but tables are %r" % (sorted(by_id), list(ids)))
    return ScoreTable(system_id="fusion(%s)" % "+".join(ids), labels=labels, utt_ids=utt_ids,
                      scores=_combine(stack, [by_id[s] for s in ids]), calibrated=True)


def fit_fusion_weights(
    tables: Sequence[ScoreTable], truth: Mapping[str, str], resolution: float = 0.1
) -> FusionWeights:
    """Grid-search the weight simplex (default 0.1 steps) for best fused accuracy.

    Ties resolve to the lexicographically first weight tuple in system-id
    order, so the search is deterministic.
    """
    if not tables:
        raise ValidationError("need at least one table")
    if not resolution > 0:
        raise ValidationError("resolution must be positive, got %r" % (resolution,))
    steps = int(round(1.0 / resolution))
    if abs(steps * resolution - 1.0) > 1e-9 or steps < 1:
        raise ValidationError("resolution must divide 1 evenly")
    ids, utt_ids, labels, stack = _aligned(tables)
    # each row's true label column; -1 (never predicted) when unlabeled or unknown
    column = {label: k for k, label in enumerate(labels)}
    truth_col = np.array([column.get(truth.get(u), -1) for u in utt_ids], dtype=np.int64)
    best = None
    for combo in combinations_with_replacement(range(len(ids)), steps):
        counts = [0] * len(ids)
        for c in combo:
            counts[c] += 1
        w = tuple(c / steps for c in counts)
        correct = int(np.count_nonzero(_combine(stack, w).argmax(axis=1) == truth_col))
        key = (-correct, w)
        if best is None or key < best[0]:
            best = (key, w)
    return FusionWeights(tuple(zip(ids, best[1])))
