import numpy as np
import pytest

from dialectid.data import (
    DEFAULT_LABELS,
    Domain,
    IVectorSet,
    ScoreTable,
    Utterance,
    validate_dataset,
)
from dialectid.errors import ValidationError

from helpers import make_set


class TestIVectorSet:
    def test_build_and_access(self):
        s = make_set(np.eye(3), labels=["A", "B", "A"])
        assert s.dim == 3
        assert len(s) == 3
        assert s.ids == ("u0000", "u0001", "u0002")
        assert list(s.indices_for_label("A")) == [0, 2]

    def test_vectors_read_only(self):
        s = make_set(np.eye(2))
        with pytest.raises(ValueError):
            s.vectors[0, 0] = 5.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            IVectorSet(dim=3, utterances=(Utterance("a", Domain.TRN),), vectors=np.zeros((2, 3)))

    def test_subset_and_concat(self):
        s = make_set(np.arange(12.0).reshape(4, 3), labels=["A", "B", "A", "B"])
        sub = s.subset([0, 2])
        assert sub.ids == ("u0000", "u0002")
        both = sub.concat(s.subset([1, 3]))
        assert len(both) == 4


class TestValidateDataset:
    def test_well_formed_ok(self):
        s = make_set(np.random.default_rng(0).normal(size=(2, 400)))
        assert validate_dataset(s).ok

    def test_dim_mismatch_reported_with_id(self):
        utts = (Utterance("short", Domain.TRN),)
        s = IVectorSet(dim=400, utterances=utts, vectors=np.zeros((1, 399)))
        report = validate_dataset(s)
        assert not report.ok
        assert any(v.startswith("dim mismatch: short") for v in report.violations)

    def test_duplicate_id_reported(self):
        utts = (Utterance("same", Domain.TRN), Utterance("same", Domain.TRN))
        s = IVectorSet(dim=3, utterances=utts, vectors=np.zeros((2, 3)))
        report = validate_dataset(s)
        assert any("duplicate id: same" in v for v in report.violations)

    def test_nan_entry_reported(self):
        X = np.zeros((2, 4))
        X[1, 2] = np.nan
        s = make_set(X)
        report = validate_dataset(s)
        assert any(v == "non-finite entry: u0001" for v in report.violations)

    def test_idempotent(self):
        X = np.zeros((2, 4))
        X[0, 0] = np.inf
        s = make_set(X)
        assert validate_dataset(s) == validate_dataset(s)


class TestScoreTable:
    def test_row_shape_enforced(self):
        with pytest.raises(ValidationError):
            ScoreTable("sys", ("A", "B"), ("u1",), np.zeros((1, 3)))

    def test_calibrated_range_enforced(self):
        with pytest.raises(ValidationError):
            ScoreTable("sys", ("A",), ("u1",), np.array([[1.5]]), calibrated=True)
        t = ScoreTable("sys", ("A",), ("u1",), np.array([[0.5]]), calibrated=True)
        assert t.calibrated

    def test_duplicate_utt_rejected(self):
        with pytest.raises(ValidationError):
            ScoreTable("sys", ("A",), ("u1", "u1"), np.zeros((2, 1)))
