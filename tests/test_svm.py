import tracemalloc

import numpy as np
import pytest
import scipy.sparse  # a test-only oracle: it builds the CSR form of a dense matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid import svm
from dialectid.data import CsrRows
from dialectid.errors import ValidationError
from dialectid.svm import DEFAULT_C, LinearSvmModel, svm_decision, train_linear_svm


def csr(X):
    """CsrRows of the nonzeros of a dense matrix (one row for a 1-D input)."""
    m = scipy.sparse.csr_matrix(X)
    return CsrRows(m.data, m.indices, m.indptr, m.shape)


def toy_separable(n=20, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    Xa = rng.normal(size=(n, 2)) + np.array([-gap, 0.0])
    Xb = rng.normal(size=(n, 2)) + np.array([gap, 0.0])
    X = np.vstack([Xa, Xb])
    labels = ["neg"] * n + ["pos"] * n
    return X, labels


class TestTrainLinearSvm:
    def test_default_c(self):
        assert DEFAULT_C == 0.01

    def test_separable_toy_reaches_full_training_accuracy(self):
        X, labels = toy_separable()
        model = train_linear_svm(X, labels, C=0.01, epochs=200, seed=0)
        pred = np.argmax(svm_decision(model, X), axis=1)
        got = [model.labels[p] for p in pred]
        assert got == labels

    def test_identical_features_predict_majority(self):
        X = np.ones((5, 3))
        labels = ["big", "big", "big", "small", "small"]
        model = train_linear_svm(X, labels, epochs=50, seed=1)
        scores = svm_decision(model, X[0])
        assert model.labels[int(np.argmax(scores))] == "big"

    def test_bitwise_reproducible(self):
        X, labels = toy_separable(seed=2)
        m1 = train_linear_svm(X, labels, epochs=30, seed=7)
        m2 = train_linear_svm(X, labels, epochs=30, seed=7)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.biases, m2.biases)

    def test_seed_changes_trajectory(self):
        X, labels = toy_separable(seed=2)
        m1 = train_linear_svm(X, labels, epochs=5, seed=1)
        m2 = train_linear_svm(X, labels, epochs=5, seed=2)
        assert not np.array_equal(m1.weights, m2.weights)

    def test_sparse_input_matches_dense(self):
        X, labels = toy_separable(seed=3)
        m_dense = train_linear_svm(X, labels, epochs=20, seed=0)
        m_sparse = train_linear_svm(csr(X), labels, epochs=20, seed=0)
        np.testing.assert_allclose(m_dense.weights, m_sparse.weights, atol=1e-12)

    def test_dense_rows_with_zeros_match_csr_bitwise(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.4)
        labels = [["a", "b", "c"][i % 3] for i in range(30)]
        m_dense = train_linear_svm(X, labels, epochs=9, seed=2)
        m_sparse = train_linear_svm(csr(X), labels, epochs=9, seed=2)
        np.testing.assert_array_equal(m_dense.weights, m_sparse.weights)
        np.testing.assert_array_equal(m_dense.biases, m_sparse.biases)

    def test_dense_input_is_not_copied(self):
        # 2000 x 400 float64 is 6.4 MB; a CSR copy would add that and more
        X = np.random.default_rng(0).normal(size=(2000, 400))
        labels = ["a", "b"] * 1000
        tracemalloc.start()
        try:
            train_linear_svm(X, labels, epochs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    def test_one_dimensional_input_is_one_row(self):
        x = np.array([1.0, -2.0, 0.0])
        model = train_linear_svm(x, ["a"], epochs=3, class_labels=["a", "b"])
        ref = train_linear_svm(csr(x), ["a"], epochs=3, class_labels=["a", "b"])
        assert model.weights.shape == (2, 3)
        np.testing.assert_array_equal(model.weights, ref.weights)

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValidationError, match="1-D or 2-D"):
            train_linear_svm(np.zeros((2, 2, 2)), ["a", "b"])

    @pytest.mark.parametrize("C", [0.0, -1.0, float("inf"), float("nan"), 1e308, 1e-320],
                             ids=["zero", "negative", "inf", "nan", "c-times-rows-overflows",
                                  "inverse-overflows"])
    def test_c_out_of_range_rejected(self, C):
        X, labels = toy_separable()
        with pytest.raises(ValidationError, match="C must be finite and positive"):
            train_linear_svm(X, labels, C=C, epochs=1)

    def test_steps_above_cap_rejected(self, monkeypatch):
        X, labels = toy_separable(n=10)  # 20 rows
        with pytest.raises(ValidationError, match="exceeds"):
            train_linear_svm(X, labels, epochs=10**20)
        monkeypatch.setattr(svm, "MAX_STEPS", 100)
        train_linear_svm(X, labels, epochs=5)  # 100 steps: at the cap
        with pytest.raises(ValidationError, match="exceeds 100 steps"):
            train_linear_svm(X, labels, epochs=6)

    def test_single_label_rejected(self):
        with pytest.raises(ValidationError):
            train_linear_svm(np.eye(3), ["A", "A", "A"])

    def test_class_label_order_respected(self):
        X, labels = toy_separable(seed=4)
        model = train_linear_svm(X, labels, epochs=10, seed=0,
                                 class_labels=["pos", "neg"])
        assert model.labels == ("pos", "neg")

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 6.0], [6.0, -3.0], [-6.0, -3.0]])
        X = np.vstack([c + rng.normal(size=(15, 2)) for c in centers])
        labels = [lab for lab in "ABC" for _ in range(15)]
        model = train_linear_svm(X, labels, epochs=150, seed=0)
        pred = [model.labels[i] for i in np.argmax(svm_decision(model, X), axis=1)]
        agreement = np.mean([p == t for p, t in zip(pred, labels)])
        assert agreement == 1.0


class TestSvmDecision:
    def test_zero_model_scores_zero(self):
        model = LinearSvmModel(labels=("A", "B"), weights=np.zeros((2, 3)),
                               biases=np.zeros(2))
        np.testing.assert_array_equal(svm_decision(model, np.ones(3)), [0.0, 0.0])

    def test_hand_computed_value(self):
        model = LinearSvmModel(labels=("A",), weights=np.array([[1.0, 0.0]]),
                               biases=np.array([1.0]))
        assert svm_decision(model, np.array([2.0, 3.0]))[0] == pytest.approx(3.0)

    def test_linearity_in_x(self):
        rng = np.random.default_rng(6)
        model = LinearSvmModel(labels=("A", "B"), weights=rng.normal(size=(2, 4)),
                               biases=np.zeros(2))
        x = rng.normal(size=4)
        np.testing.assert_allclose(svm_decision(model, 0.7 * x),
                                   0.7 * svm_decision(model, x), atol=1e-12)

    def test_batch_shape(self):
        model = LinearSvmModel(labels=("A", "B"), weights=np.zeros((2, 3)),
                               biases=np.array([1.0, -1.0]))
        out = svm_decision(model, np.zeros((5, 3)))
        assert out.shape == (5, 2)
        np.testing.assert_array_equal(out[:, 0], 1.0)

    def test_sparse_input_matches_dense(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 50)) * (rng.random((30, 50)) < 0.1)
        model = LinearSvmModel(labels=("A", "B", "C"), weights=rng.normal(size=(3, 50)),
                               biases=rng.normal(size=3))
        got = svm_decision(model, csr(X))
        assert type(got) is np.ndarray and got.shape == (30, 3)
        np.testing.assert_allclose(got, svm_decision(model, X), rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_csr_decision_matches_dense(self, data):
        # zero rows, all-empty matrices and empty (all-OOV) rows among full ones
        n = data.draw(st.integers(0, 8), label="rows")
        dim = data.draw(st.integers(1, 6), label="dim")
        K = data.draw(st.integers(1, 4), label="labels")
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=n * dim, max_size=n * dim),
                                  label="keep"), dtype=bool).reshape(n, dim)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        X = np.where(keep, rng.normal(size=(n, dim)), 0.0)
        model = LinearSvmModel(labels=tuple("ABCD"[:K]), weights=rng.normal(size=(K, dim)),
                               biases=rng.normal(size=K))
        got = svm_decision(model, csr(X))
        want = svm_decision(model, X)
        assert got.shape == want.shape == (n, K)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got[~keep.any(axis=1)], want[~keep.any(axis=1)])

    def test_dim_mismatch(self):
        model = LinearSvmModel(labels=("A", "B"), weights=np.zeros((2, 3)),
                               biases=np.zeros(2))
        with pytest.raises(ValidationError):
            svm_decision(model, np.zeros(4))

    @pytest.mark.parametrize("x", [None, 1.0, np.zeros((2, 2, 3))],
                             ids=["none", "scalar", "three-d"])
    def test_input_not_one_or_two_d_rejected(self, x):
        model = LinearSvmModel(labels=("A", "B"), weights=np.zeros((2, 3)),
                               biases=np.zeros(2))
        with pytest.raises(ValidationError, match="1-D or 2-D"):
            svm_decision(model, x)

    def test_scores_feed_classify_with_tie_rule(self):
        from dialectid.data import ScoreTable
        from dialectid.dialect_model import classify_rows

        model = LinearSvmModel(labels=("A", "B", "C"), weights=np.zeros((3, 2)),
                               biases=np.array([0.5, 0.5, 0.1]))
        table = ScoreTable("svm", model.labels, ("u1",), svm_decision(model, np.zeros((1, 2))))
        # exact tie between A and B resolves to the earlier label
        assert classify_rows(table) == {"u1": "A"}


def _input_forms(X):
    """The same rows in the sparse form and in every dense form the SVM accepts."""
    fortran = np.asfortranarray(X)
    fortran.setflags(write=False)
    sparse = {"csr_rows": csr(X)}
    dense = {"c_array": np.ascontiguousarray(X), "fortran_readonly": fortran,
             "nested_list": X.tolist()}
    return sparse, dense


class TestInputTypes:
    """`CsrRows` take the sparse branch and every dense form the dense one; any
    other input, a scipy sparse matrix too, is a ValidationError."""

    def _rows(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.4)
        return X, [["a", "b", "c"][i % 3] for i in range(30)]

    def test_training_bits_equal_across_input_types(self):
        X, labels = self._rows()
        sparse, dense = _input_forms(X)
        ref = train_linear_svm(X, labels, epochs=9, seed=2)
        for name, rows in {**sparse, **dense}.items():
            got = train_linear_svm(rows, labels, epochs=9, seed=2)
            np.testing.assert_array_equal(got.weights, ref.weights, err_msg=name)
            np.testing.assert_array_equal(got.biases, ref.biases, err_msg=name)

    def test_decision_bits_equal_within_sparse_and_dense(self):
        X, labels = self._rows()
        model = train_linear_svm(X, labels, epochs=9, seed=2)
        sparse, dense = _input_forms(X)
        for group in (sparse, dense):
            got = {name: svm_decision(model, rows) for name, rows in group.items()}
            first = next(iter(got.values()))
            for name, dec in got.items():
                assert type(dec) is np.ndarray and dec.shape == (30, 3), name
                np.testing.assert_array_equal(dec, first, err_msg=name)
        # a sparse product sums in another order than BLAS, so across groups
        # the decisions agree to rounding only
        np.testing.assert_allclose(svm_decision(model, sparse["csr_rows"]),
                                   svm_decision(model, X), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("form", [scipy.sparse.csr_matrix, scipy.sparse.csr_array,
                                      scipy.sparse.coo_matrix, lambda X: [[1.0, 2.0], [3.0]],
                                      lambda X: "rows"],
                             ids=["csr_matrix", "csr_array", "coo_matrix", "ragged", "str"])
    def test_other_inputs_are_refused(self, form):
        X, labels = self._rows()
        model = train_linear_svm(X, labels, epochs=1)
        rows = form(X)
        with pytest.raises(ValidationError, match="numeric array or CsrRows"):
            train_linear_svm(rows, labels, epochs=1)
        with pytest.raises(ValidationError, match="numeric array or CsrRows"):
            svm_decision(model, rows)
