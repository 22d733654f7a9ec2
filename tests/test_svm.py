import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from dialectid import svm
from dialectid.errors import ValidationError
from dialectid.svm import DEFAULT_C, LinearSvmModel, svm_decision, train_linear_svm


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
        m_sparse = train_linear_svm(scipy.sparse.csr_matrix(X), labels, epochs=20, seed=0)
        np.testing.assert_allclose(m_dense.weights, m_sparse.weights, atol=1e-12)

    def test_noncanonical_sparse_input_matches_dense(self):
        # row 0 stores column 0 twice (1.0 + 2.0) and column 1 not at all, so it
        # has nnz == dim without being full; row 2 lists its columns backwards
        X = np.array([[3.0, 0.0], [1.0, -1.0], [0.5, 2.0], [-2.0, 1.0]])
        csr = scipy.sparse.csr_matrix(
            (np.array([1.0, 2.0, 1.0, -1.0, 2.0, 0.5, -2.0, 1.0]),
             np.array([0, 0, 0, 1, 1, 0, 0, 1]), np.array([0, 2, 4, 6, 8])), shape=(4, 2))
        labels = ["a", "b", "a", "b"]
        m_sparse = train_linear_svm(csr, labels, epochs=7, seed=3)
        m_dense = train_linear_svm(X, labels, epochs=7, seed=3)
        np.testing.assert_allclose(m_sparse.weights, m_dense.weights, rtol=1e-12)
        np.testing.assert_array_equal(m_sparse.biases, m_dense.biases)
        assert csr.indices.tolist() == [0, 0, 0, 1, 1, 0, 0, 1]  # the input is not modified

    def test_dense_rows_with_zeros_match_csr_bitwise(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.4)
        labels = [["a", "b", "c"][i % 3] for i in range(30)]
        m_dense = train_linear_svm(X, labels, epochs=9, seed=2)
        m_sparse = train_linear_svm(scipy.sparse.csr_matrix(X), labels, epochs=9, seed=2)
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
        ref = train_linear_svm(scipy.sparse.csr_matrix(x), ["a"], epochs=3,
                               class_labels=["a", "b"])
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
        got = svm_decision(model, scipy.sparse.csr_matrix(X))
        assert type(got) is np.ndarray and got.shape == (30, 3)
        np.testing.assert_allclose(got, svm_decision(model, X), rtol=0, atol=1e-12)

    def test_dim_mismatch(self):
        model = LinearSvmModel(labels=("A", "B"), weights=np.zeros((2, 3)),
                               biases=np.zeros(2))
        with pytest.raises(ValidationError):
            svm_decision(model, np.zeros(4))

    def test_scores_feed_classify_with_tie_rule(self):
        from dialectid.data import ScoreTable
        from dialectid.dialect_model import classify_rows

        model = LinearSvmModel(labels=("A", "B", "C"), weights=np.zeros((3, 2)),
                               biases=np.array([0.5, 0.5, 0.1]))
        table = ScoreTable("svm", model.labels, ("u1",), svm_decision(model, np.zeros((1, 2))))
        # exact tie between A and B resolves to the earlier label
        assert classify_rows(table) == {"u1": "A"}


def _input_forms(X):
    """The same rows as every sparse type and dense form the SVM accepts."""
    fortran = np.asfortranarray(X)
    fortran.setflags(write=False)
    sparse = {"csr_matrix": scipy.sparse.csr_matrix(X), "csr_array": scipy.sparse.csr_array(X),
              "coo_matrix": scipy.sparse.coo_matrix(X)}
    dense = {"c_array": np.ascontiguousarray(X), "fortran_readonly": fortran,
             "nested_list": X.tolist()}
    return sparse, dense


class TestInputTypes:
    """Every sparse type must take the sparse branch and every dense form the
    dense one; the sparse check only asks scipy.sparse once it is loaded."""

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
        np.testing.assert_allclose(svm_decision(model, sparse["csr_array"]),
                                   svm_decision(model, X), rtol=0, atol=1e-12)
