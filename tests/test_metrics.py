import numpy as np
import pytest

from dialectid.errors import ValidationError
from dialectid.metrics import ConfusionMatrix, confusion, evaluate, render_report


class TestConfusion:
    def test_all_correct_is_diagonal(self):
        truth = {"u1": "A", "u2": "B", "u3": "A"}
        cm = confusion(truth, truth, ["A", "B"])
        np.testing.assert_array_equal(cm.counts, [[2, 0], [0, 1]])

    def test_swapped_predictions_antidiagonal(self):
        cm = confusion({"u1": "A", "u2": "B"}, {"u1": "B", "u2": "A"}, ["A", "B"])
        np.testing.assert_array_equal(cm.counts, [[0, 1], [1, 0]])

    def test_hand_tally_six_utterances(self):
        truth = {"u%d" % i: lab for i, lab in enumerate("AABBCC")}
        pred = {"u0": "A", "u1": "B", "u2": "B", "u3": "C", "u4": "C", "u5": "A"}
        cm = confusion(truth, pred, ["A", "B", "C"])
        np.testing.assert_array_equal(cm.counts, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert cm.total == 6

    def test_utterance_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            confusion({"u1": "A"}, {"u2": "A"}, ["A"])


class TestEvaluate:
    def test_perfect_predictions(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[3, 0], [0, 2]]))
        rep = evaluate(cm)
        assert (rep.accuracy, rep.macro_precision, rep.macro_recall) == (100.0, 100.0, 100.0)

    def test_worked_three_utterance_example(self):
        truth = {"u1": "A", "u2": "A", "u3": "B"}
        pred = {"u1": "A", "u2": "B", "u3": "B"}
        rep = evaluate(confusion(truth, pred, ["A", "B"]))
        assert round(rep.accuracy, 2) == 66.67
        assert round(rep.macro_precision, 2) == 75.0
        assert round(rep.macro_recall, 2) == 75.0

    def test_three_indices_move_independently(self):
        # an asymmetric matrix yields three distinct values, the shape the
        # challenge reports take (e.g. 75.00 / 75.46 / 75.03)
        cm = ConfusionMatrix(
            ("A", "B", "C"), np.array([[9, 1, 0], [3, 6, 1], [0, 2, 4]])
        )
        rep = evaluate(cm)
        assert len({round(rep.accuracy, 2), round(rep.macro_precision, 2),
                    round(rep.macro_recall, 2)}) == 3

    def test_label_permutation_leaves_accuracy(self):
        counts = np.array([[5, 2], [1, 4]])
        a = evaluate(ConfusionMatrix(("A", "B"), counts))
        b = evaluate(ConfusionMatrix(("B", "A"), counts[::-1, ::-1]))
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.macro_precision == pytest.approx(b.macro_precision)

    def test_symmetric_matrix_precision_equals_recall(self):
        counts = np.array([[5, 2, 1], [2, 6, 2], [1, 2, 7]])
        rep = evaluate(ConfusionMatrix(("A", "B", "C"), counts))
        assert rep.macro_precision == pytest.approx(rep.macro_recall)

    def test_never_predicted_class_contributes_zero_precision(self):
        # truth has B but predictions never say B
        cm = ConfusionMatrix(("A", "B"), np.array([[2, 0], [2, 0]]))
        rep = evaluate(cm)
        assert rep.macro_precision == pytest.approx(100.0 * (0.5 + 0.0) / 2)

    def test_absent_truth_class_excluded_from_macro(self):
        cm = ConfusionMatrix(("A", "B", "C"), np.array([[2, 0, 0], [1, 1, 0], [0, 0, 0]]))
        rep = evaluate(cm)
        # only A and B occur in truth: recall = (1.0 + 0.5) / 2
        assert rep.macro_recall == pytest.approx(75.0)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(0, 9, size=(3, 3))
            if counts.sum() == 0:
                continue
            rep = evaluate(ConfusionMatrix(("A", "B", "C"), counts))
            for v in (rep.accuracy, rep.macro_precision, rep.macro_recall):
                assert 0.0 <= v <= 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(ConfusionMatrix(("A",), np.array([[0]])))


class TestRenderReport:
    def test_contains_kv_lines_and_table(self):
        cm = confusion({"u1": "A", "u2": "B"}, {"u1": "A", "u2": "B"}, ["A", "B"])
        text = render_report(cm, system_id="demo")
        assert "system: demo" in text
        assert "accuracy=100.000000" in text
        assert "macro_precision=100.000000" in text
        kv = dict(
            line.split("=") for line in text.strip().splitlines() if "=" in line
        )
        assert float(kv["macro_recall"]) == 100.0

    def test_multi_class_report_is_pinned_byte_for_byte(self):
        # EGY's precision is 100 x 23 / 160 = 14.375 exactly, which prints as 14.38;
        # 100 x (23 / 160) would round below it and print 14.37. MSA is never
        # predicted and NOR never true, so NOR stays out of the macro averages.
        counts = np.array([[23, 10, 5, 0, 2], [100, 40, 7, 0, 0], [37, 0, 0, 0, 1],
                           [0, 3, 0, 0, 0], [0, 0, 0, 0, 0]])
        cm = ConfusionMatrix(("EGY", "GLF", "LAV", "MSA", "NOR"), counts)
        assert render_report(cm, system_id="demo") == (
            "system: demo\n"
            "utterances: 228\n"
            "label    prec(%)  recall(%)   n_true   n_pred\n"
            "EGY        14.38      57.50       40      160\n"
            "GLF        75.47      27.21      147       53\n"
            "LAV         0.00       0.00       38       12\n"
            "MSA         0.00       0.00        3        0\n"
            "NOR         0.00       0.00        0        3\n"
            "\n"
            "accuracy=27.631579\n"
            "macro_precision=22.461675\n"
            "macro_recall=21.177721\n")
