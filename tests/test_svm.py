import numpy as np
import pytest
import scipy.sparse

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
