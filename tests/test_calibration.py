from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid.calibration import (
    CalibrationParams,
    FusionWeights,
    apply_calibration,
    fit_calibration,
    fit_fusion_weights,
    fuse,
)
from dialectid.data import ScoreTable
from dialectid.dialect_model import classify_rows
from dialectid.errors import NumericError, ValidationError

LABELS = ("A", "B", "C")


def table(scores, system_id="sys", utts=None, calibrated=False, labels=LABELS):
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if utts is None:
        utts = tuple("u%03d" % i for i in range(scores.shape[0]))
    return ScoreTable(system_id=system_id, labels=labels, utt_ids=tuple(utts),
                      scores=scores, calibrated=calibrated)


def one_hot_truth(n, seed=0):
    rng = np.random.default_rng(seed)
    truth = {"u%03d" % i: LABELS[rng.integers(0, len(LABELS))] for i in range(n)}
    return truth


class TestFitCalibration:
    def test_perfect_scores_identity_map(self):
        truth = {"u000": "A", "u001": "B"}
        scores = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        params = fit_calibration(table(scores), truth)
        assert params.scale == pytest.approx(1.0)
        assert params.offset == pytest.approx(0.0)

    def test_doubled_scores_halved_slope(self):
        truth = {"u000": "A", "u001": "B"}
        scores = 2.0 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        params = fit_calibration(table(scores), truth)
        assert params.scale == pytest.approx(0.5)
        assert params.offset == pytest.approx(0.0)

    def test_hand_four_cell_least_squares(self):
        # 2 utterances x 2 labels; normal-equations arithmetic done by hand:
        # s = [2, 0, 0, 2], t = [1, 0, 0, 1] -> a = cov/var = 0.5, b = 0
        truth = {"u000": "A", "u001": "B"}
        scores = np.array([[2.0, 0.0], [0.0, 2.0]])
        params = fit_calibration(table(scores, labels=("A", "B")), truth)
        assert params.scale == pytest.approx(0.5)
        assert params.offset == pytest.approx(0.0)

    def test_anticorrelated_scores_forced_positive(self):
        truth = {"u000": "A", "u001": "B"}
        scores = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])  # inverted
        params = fit_calibration(table(scores), truth)
        assert params.scale > 0

    def test_zero_variance_errors(self):
        truth = {"u000": "A"}
        with pytest.raises(NumericError):
            fit_calibration(table(np.array([[0.5, 0.5, 0.5]])), truth)

    def test_missing_label_errors(self):
        with pytest.raises(ValidationError):
            fit_calibration(table(np.array([[1.0, 0.0, 0.0]])), {})


class TestApplyCalibration:
    def test_identity_map(self):
        params = CalibrationParams("sys", 1.0, 0.0)
        out = apply_calibration(params, table(np.array([[0.5, 0.2, 0.1]])))
        assert out.scores[0, 0] == 0.5
        assert out.calibrated

    def test_clamps_to_unit_interval(self):
        params = CalibrationParams("sys", 1.0, 0.0)
        out = apply_calibration(params, table(np.array([[1.7, -0.4, 0.3]])))
        np.testing.assert_array_equal(out.scores[0], [1.0, 0.0, 0.3])

    def test_system_id_must_match(self):
        params = CalibrationParams("other", 1.0, 0.0)
        with pytest.raises(ValidationError):
            apply_calibration(params, table(np.array([[0.5, 0.2, 0.1]])))

    def test_fitted_calibration_preserves_argmax_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            scores = rng.normal(size=(n, len(LABELS)))
            t = table(scores, utts=["u%03d" % i for i in range(n)])
            truth = {u: LABELS[rng.integers(0, len(LABELS))] for u in t.utt_ids}
            out = apply_calibration(fit_calibration(t, truth), t)
            np.testing.assert_array_equal(out.scores.argmax(axis=1),
                                          scores.argmax(axis=1))

    def test_winning_score_stays_maximal_for_any_params(self):
        # clamping can merge scores at the boundaries, but the original
        # winner always keeps the maximal mapped score
        rng = np.random.default_rng(1)
        for _ in range(200):
            scores = rng.normal(size=(3, len(LABELS))) * rng.uniform(0.1, 5)
            params = CalibrationParams("sys", float(rng.uniform(0.01, 10)),
                                       float(rng.normal()))
            out = apply_calibration(params, table(scores))
            for i in range(scores.shape[0]):
                winner = scores[i].argmax()
                assert out.scores[i, winner] == out.scores[i].max()


class TestFusionWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            FusionWeights((("a", 0.5), ("b", 0.6)))

    def test_nonnegative(self):
        with pytest.raises(ValidationError):
            FusionWeights((("a", 1.5), ("b", -0.5)))

    def test_paper_default_weights_valid(self):
        w = FusionWeights((("ivec", 0.7), ("char", 0.2), ("phone", 0.1)))
        assert sum(v for _, v in w.entries) == pytest.approx(1.0)


class TestFuse:
    def _calibrated(self, scores, system_id, utts=None):
        return table(scores, system_id=system_id, utts=utts, calibrated=True)

    def test_single_system_identity(self):
        t = self._calibrated(np.array([[0.2, 0.5, 0.3]]), "solo")
        fused = fuse([t], FusionWeights((("solo", 1.0),)))
        np.testing.assert_allclose(fused.scores, t.scores)
        assert fused.calibrated

    def test_degenerate_weight_selects_first_system(self):
        t1 = self._calibrated(np.array([[1.0, 0.0, 0.0]]), "one")
        t2 = self._calibrated(np.array([[0.0, 1.0, 0.0]]), "two")
        fused = fuse([t1, t2], FusionWeights((("one", 1.0), ("two", 0.0))))
        assert fused.scores[0].argmax() == 0

    def test_outputs_stay_in_unit_interval(self):
        rng = np.random.default_rng(2)
        tables = [
            self._calibrated(rng.uniform(size=(4, 3)), "s%d" % k) for k in range(3)
        ]
        fused = fuse(tables, FusionWeights((("s0", 0.7), ("s1", 0.2), ("s2", 0.1))))
        assert fused.scores.min() >= 0.0 and fused.scores.max() <= 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        tables = [
            self._calibrated(rng.uniform(size=(5, 3)), "s%d" % k) for k in range(3)
        ]
        w = FusionWeights((("s0", 0.7), ("s1", 0.2), ("s2", 0.1)))
        w_rev = FusionWeights((("s2", 0.1), ("s0", 0.7), ("s1", 0.2)))
        f1 = fuse(tables, w)
        f2 = fuse(tables[::-1], w_rev)
        assert f1.system_id == f2.system_id
        np.testing.assert_array_equal(f1.scores, f2.scores)

    def test_row_order_aligned_by_utt_id(self):
        t1 = self._calibrated(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "a",
                              utts=("u1", "u2"))
        t2 = self._calibrated(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]), "b",
                              utts=("u2", "u1"))
        fused = fuse([t1, t2], FusionWeights((("a", 0.5), ("b", 0.5))))
        np.testing.assert_allclose(fused.scores, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_uncalibrated_rejected(self):
        t1 = table(np.array([[0.2, 0.5, 0.3]]), "raw")
        with pytest.raises(ValidationError):
            fuse([t1], FusionWeights((("raw", 1.0),)))

    def test_utterance_mismatch_rejected(self):
        t1 = self._calibrated(np.array([[0.1, 0.2, 0.3]]), "a", utts=("u1",))
        t2 = self._calibrated(np.array([[0.1, 0.2, 0.3]]), "b", utts=("u9",))
        with pytest.raises(ValidationError):
            fuse([t1, t2], FusionWeights((("a", 0.5), ("b", 0.5))))


class TestFitFusionWeights:
    def test_prefers_the_informative_system(self):
        truth = {"u000": "A", "u001": "B", "u002": "C"}
        good = table(np.eye(3), "good", calibrated=True)
        noise = table(np.full((3, 3), 1.0 / 3), "noise", calibrated=True)
        w = fit_fusion_weights([good, noise], truth, resolution=0.5)
        weights = dict(w.entries)
        assert weights["good"] >= 0.5

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_point_fuse_oracle(self, data):
        # scores on a 0.25 grid make ties common; truth has missing and unknown labels
        labels = LABELS[:data.draw(st.integers(2, 3), label="n_labels")]
        utts = ["u%d" % i for i in range(data.draw(st.integers(1, 6), label="n_rows"))]
        cell = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        row = st.lists(cell, min_size=len(labels), max_size=len(labels))
        tables = [table(data.draw(st.lists(row, min_size=len(utts), max_size=len(utts))),
                        system_id="s%d" % k, utts=data.draw(st.permutations(utts)),
                        calibrated=True, labels=labels)
                  for k in range(data.draw(st.integers(1, 3), label="n_systems"))]
        truth = {}
        for u in utts:
            lab = data.draw(st.sampled_from(labels + ("ZZZ", None)))
            if lab is not None:
                truth[u] = lab
        resolution = data.draw(st.sampled_from([0.5, 0.25, 0.1]), label="resolution")

        # oracle: fuse and count at every grid point, first best key wins
        ids = sorted(t.system_id for t in tables)
        steps = int(round(1.0 / resolution))
        best = None
        for combo in combinations_with_replacement(range(len(ids)), steps):
            w = tuple(combo.count(k) / steps for k in range(len(ids)))
            fused = fuse(tables, FusionWeights(tuple(zip(ids, w))))
            pred = classify_rows(fused)
            acc = sum(truth.get(u) == lab for u, lab in pred.items()) / len(fused.utt_ids)
            if best is None or (-acc, w) < best[0]:
                best = ((-acc, w), w)
        shuffled = data.draw(st.permutations(tables), label="input order")
        fitted = fit_fusion_weights(shuffled, truth, resolution=resolution)
        assert fitted.entries == tuple(zip(ids, best[1]))

        raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(ids),
                                          max_size=len(ids)), label="weights"))
        weights = FusionWeights(tuple(zip(ids, raw / raw.sum())))
        assert (fuse(shuffled, weights).scores.tobytes()
                == fuse(tables, weights).scores.tobytes())


class TestFusionTrendOnSyntheticSystems:
    def test_fused_accuracy_at_least_min_input_most_seeds(self):
        # three systems per seed (cds, lda+cds, svm decisions), reference
        # weights 0.7/0.2/0.1; fused accuracy should not fall below the
        # weakest input on at least 8 of 10 seeds
        from dialectid import dialect_model, lda, svm, whitening
        from dialectid.synth import SynthConfig, generate

        def accuracy(t, truth):
            pred = [t.labels[i] for i in t.scores.argmax(axis=1)]
            return float(np.mean([p == truth[u] for p, u in zip(pred, t.utt_ids)]))

        hits = 0
        for seed in range(10):
            ds = generate(SynthConfig(seed=seed, n_trn=20, n_dev=8, n_tst=15))
            chain = whitening.fit_recursive_chain(ds.trn, ds.dev, depth=1)
            ptrn = ds.trn.with_vectors(whitening.apply_chain(chain, ds.trn.vectors))
            ptst = whitening.apply_chain(chain, ds.tst.vectors)
            truth = {u.id: u.label for u in ds.tst.utterances}
            utts = ds.tst.ids

            models = dialect_model.fit_dialect_means(ptrn, ds.labels)
            sys_cds = ScoreTable("cds", ds.labels, utts,
                                 dialect_model.cds_score(models, ptst))
            proj = lda.fit_lda(ptrn)
            lmod = dialect_model.fit_dialect_means(
                ptrn.with_vectors(whitening.length_normalize(lda.apply_lda(proj, ptrn.vectors))),
                ds.labels,
            )
            sys_lda = ScoreTable(
                "lda", ds.labels, utts,
                dialect_model.cds_score(
                    lmod, whitening.length_normalize(lda.apply_lda(proj, ptst))
                ),
            )
            clf = svm.train_linear_svm(ptrn.vectors,
                                       [u.label for u in ptrn.utterances],
                                       epochs=40, seed=seed, class_labels=ds.labels)
            sys_svm = ScoreTable("svm", ds.labels, utts, svm.svm_decision(clf, ptst))

            truth_all = {u.id: u.label for u in ds.tst.utterances}
            cal = [
                apply_calibration(fit_calibration(t, truth_all), t)
                for t in (sys_cds, sys_lda, sys_svm)
            ]
            fused = fuse(cal, FusionWeights((("cds", 0.7), ("lda", 0.2), ("svm", 0.1))))
            accs = [accuracy(t, truth) for t in cal]
            hits += accuracy(fused, truth) >= min(accs) - 1e-12
        assert hits >= 8, hits
