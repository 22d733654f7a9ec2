import numpy as np
import pytest

from dialectid.data import (
    DEFAULT_LABELS,
    CsrRows,
    Domain,
    IVectorSet,
    ScoreTable,
    Utterance,
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
            IVectorSet((Utterance("a", Domain.TRN),), np.zeros((2, 3)))

    def test_dim_is_matrix_width(self):
        utts = (Utterance("a", Domain.TRN),)
        assert IVectorSet(utts, np.zeros((1, 7))).dim == 7
        assert make_set(np.zeros((0, 5))).dim == 5
        with pytest.raises(ValidationError, match="dim must be positive"):
            IVectorSet(utts, np.zeros((1, 0)))

    def test_subset_and_concat(self):
        s = make_set(np.arange(12.0).reshape(4, 3), labels=["A", "B", "A", "B"])
        sub = s.subset([0, 2])
        assert sub.ids == ("u0000", "u0002")
        both = sub.concat(s.subset([1, 3]))
        assert len(both) == 4


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


# four rows over two columns; row 2 is empty
CSR = dict(data=[1.0, 2.0, -1.0, 0.5, 3.0], indices=[0, 1, 1, 0, 1], indptr=[0, 2, 3, 3, 5],
           shape=(4, 2))


class TestCsrRows:
    def test_len_is_the_row_count(self):
        rows = CsrRows(**CSR)
        assert len(rows) == 4 and rows.shape == (4, 2)
        assert len(CsrRows([], [], [0], (0, 3))) == 0
        assert len(CsrRows([], [], [0, 0, 0], (2, 3))) == 2  # every row empty

    @pytest.mark.parametrize("edit, match", [
        # row 0 stores column 0 twice: 2 entries over dim 2, yet not a full row
        (dict(indices=[0, 0, 1, 0, 1]), "strictly increase"),
        (dict(indices=[1, 0, 1, 0, 1]), "strictly increase"),
        (dict(indices=[0, 1, 1, 0, 2]), "out of range"),
        (dict(indices=[0, 1, -1, 0, 1]), "out of range"),
        (dict(indptr=[0, 2, 3, 5]), "indptr"),
        (dict(indptr=[0, 3, 2, 3, 5]), "indptr"),
        (dict(indptr=[1, 2, 3, 3, 5]), "indptr"),
        (dict(indptr=[0, 2, 3, 3, 4]), "indptr"),
        (dict(indices=[0, 1, 1, 0]), "aligned"),
        (dict(data=[1.0, 2.0, np.nan, 0.5, 3.0]), "finite"),
        (dict(data=[1.0, 2.0, -1.0, 0.5, np.inf]), "finite"),
        (dict(shape=(4, 2, 1)), "shape"),
        (dict(shape=(4, -2)), "shape"),
        (dict(shape=(4.0, 2)), "shape"),
    ], ids=["repeated-column", "columns-backwards", "column-above-dim", "column-negative",
            "indptr-short", "indptr-falls", "indptr-not-from-0", "indptr-not-to-nnz",
            "indices-not-aligned", "nan-value", "inf-value", "three-axes", "negative-dim",
            "float-rows"])
    def test_refuses_noncanonical_form(self, edit, match):
        # the SVM sweep takes a row of dim entries as full, so only canonical CSR gets in
        with pytest.raises(ValidationError, match=match):
            CsrRows(**{**CSR, **edit})
