import numpy as np
import pytest

from dialectid.data import ScoreTable
from dialectid.dialect_model import (
    DEFAULT_GAMMA,
    DialectModelSet,
    cds_score,
    classify_rows,
    fit_dialect_means,
    interpolate_models,
)
from dialectid.errors import NumericError, ValidationError
from dialectid.synth import SynthConfig, generate
from dialectid.whitening import apply_chain, fit_recursive_chain

from helpers import make_set


def unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


class TestFitDialectMeans:
    def test_single_utterance_mean_is_normalized_vector(self):
        v = np.array([3.0, 4.0])
        models = fit_dialect_means(make_set([v], labels=["A"]), labels=["A"])
        np.testing.assert_allclose(models.models[0], [0.6, 0.8])

    def test_two_orthogonal_vectors_average_symmetrically(self):
        s = make_set([[1.0, 0.0], [0.0, 1.0]], labels=["A", "A"])
        models = fit_dialect_means(s, labels=["A"])
        np.testing.assert_allclose(models.models[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_missing_dialect_errors(self):
        s = make_set([[1.0, 0.0]], labels=["A"])
        with pytest.raises(ValidationError):
            fit_dialect_means(s, labels=["A", "B"])

    def test_recovers_generator_means_within_angle(self):
        # oracle: the generator's ground-truth cluster means
        ds = generate(SynthConfig(seed=11, within_std=0.4, channel_std=0.0))
        models = fit_dialect_means(ds.trn, ds.labels)
        for k in range(len(ds.labels)):
            truth = unit(ds.dialect_means[k])
            cos = float(models.models[k] @ truth)
            angle = np.degrees(np.arccos(np.clip(cos, -1, 1)))
            assert angle < 10.0, (k, angle)


class TestInterpolateModels:
    def _pair(self):
        trn = fit_dialect_means(
            make_set([[1.0, 0.0], [0.0, 1.0]], labels=["A", "B"]), labels=["A", "B"]
        )
        dev = fit_dialect_means(
            make_set([[0.0, 1.0], [1.0, 0.0]], labels=["A", "B"]), labels=["A", "B"]
        )
        return trn, dev

    def test_gamma_zero_is_trn(self):
        trn, dev = self._pair()
        out = interpolate_models(trn, dev, 0.0)
        np.testing.assert_array_equal(out.models, trn.models)

    def test_gamma_one_is_dev(self):
        trn, dev = self._pair()
        out = interpolate_models(trn, dev, 1.0)
        np.testing.assert_array_equal(out.models, dev.models)

    def test_default_gamma_is_091(self):
        assert DEFAULT_GAMMA == 0.91
        trn, dev = self._pair()
        np.testing.assert_array_equal(interpolate_models(trn, dev).models,
                                      interpolate_models(trn, dev, gamma=0.91).models)

    def test_result_unit_norm(self):
        trn, dev = self._pair()
        out = interpolate_models(trn, dev, 0.3)
        np.testing.assert_allclose(np.linalg.norm(out.models, axis=1), 1.0)

    def test_label_mismatch_errors(self):
        trn, _ = self._pair()
        other = fit_dialect_means(make_set([[1.0, 0.0]], labels=["C"]), labels=["C"])
        with pytest.raises(ValidationError):
            interpolate_models(trn, other, 0.5)

    def test_gamma_out_of_range(self):
        trn, dev = self._pair()
        with pytest.raises(ValidationError):
            interpolate_models(trn, dev, 1.5)


class TestCdsScore:
    def _models(self):
        return DialectModelSet(
            labels=("A", "B"),
            models=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )

    def test_identical_direction_scores_one(self):
        s = cds_score(self._models(), np.array([2.0, 0.0]))
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-15)

    def test_antipodal_scores_minus_one(self):
        s = cds_score(self._models(), np.array([-1.0, 0.0]))
        assert s[0] == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        m = fit_dialect_means(
            make_set(rng.normal(size=(6, 4)), labels=list("AABBCC")), labels=["A", "B", "C"]
        )
        v = rng.normal(size=4)
        s1 = cds_score(m, v)
        s2 = cds_score(m, 37.5 * v)
        np.testing.assert_allclose(s1, s2, atol=1e-12)
        assert np.argmax(s1) == np.argmax(s2)

    def test_zero_vector_errors(self):
        with pytest.raises(NumericError):
            cds_score(self._models(), np.zeros(2))

    def test_each_model_classified_as_itself(self):
        rng = np.random.default_rng(1)
        m = fit_dialect_means(
            make_set(rng.normal(size=(10, 6)), labels=list("AABBCCDDEE")),
            labels=["A", "B", "C", "D", "E"],
        )
        table = ScoreTable("sys", m.labels, m.labels, cds_score(m, m.models))
        assert classify_rows(table) == {lab: lab for lab in m.labels}


def _one_row(scores, labels):
    return ScoreTable("sys", labels, ("u1",), np.array([scores], dtype=np.float64))


class TestClassify:
    def test_unique_max(self):
        labels = ("A", "B", "C", "D", "E")
        assert classify_rows(_one_row([0.9, 0.1, 0.1, 0.1, 0.1], labels)) == {"u1": "A"}

    def test_tie_goes_to_earlier_label(self):
        labels = ("A", "B", "C", "D", "E")
        assert classify_rows(_one_row([0.1, 0.7, 0.1, 0.7, 0.1], labels)) == {"u1": "B"}

    def test_all_equal_gives_first(self):
        assert classify_rows(_one_row([0.0, 0.0, 0.0], ("X", "Y", "Z"))) == {"u1": "X"}

    def test_rows_decided_independently(self):
        table = ScoreTable("sys", ("A", "B"), ("u1", "u2", "u3"),
                           np.array([[0.2, 0.8], [0.5, 0.5], [0.9, -0.9]]))
        assert classify_rows(table) == {"u1": "B", "u2": "A", "u3": "A"}

    def test_empty_errors(self):
        # no labels is refused by the table; no rows gives no decisions
        with pytest.raises(ValidationError):
            ScoreTable("sys", (), (), np.empty((0, 0)))
        assert classify_rows(ScoreTable("sys", ("A", "B"), (), np.empty((0, 2)))) == {}

    def test_score_label_count_mismatch_errors(self):
        with pytest.raises(ValidationError):
            _one_row([0.1, 0.2, 0.3], ("A", "B"))


class TestGammaSweepTrend:
    def test_interior_or_dev_optimum_not_at_zero(self):
        # mean held-out accuracy over gamma must not peak at gamma=0
        gammas = np.arange(0.0, 1.01, 0.1)
        acc = np.zeros_like(gammas)
        seeds = range(10)
        for seed in seeds:
            ds = generate(SynthConfig(seed=seed))
            chain = fit_recursive_chain(ds.trn, ds.dev, depth=1)
            ptrn = ds.trn.with_vectors(apply_chain(chain, ds.trn.vectors))
            pdev = ds.dev.with_vectors(apply_chain(chain, ds.dev.vectors))
            ptst = apply_chain(chain, ds.tst.vectors)
            truth = np.array([ds.labels.index(u.label) for u in ds.tst.utterances])
            mt = fit_dialect_means(ptrn, ds.labels)
            md = fit_dialect_means(pdev, ds.labels)
            for gi, g in enumerate(gammas):
                mi = interpolate_models(mt, md, float(g))
                pred = cds_score(mi, ptst).argmax(axis=1)
                acc[gi] += (pred == truth).mean() / len(list(seeds))
        assert int(np.argmax(acc)) > 0
