"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured quantity at the criterion's tolerance."""
import time

import numpy as np
import pytest

from dialectid import calibration, dialect_model, lda, siamese, svm, whitening
from dialectid.cli import main as cli_main
from dialectid.data import ScoreTable
from dialectid.errors import ValidationError
from dialectid.metrics import ConfusionMatrix, confusion, evaluate
from dialectid.synth import SynthConfig, generate
from dialectid.text_features import (
    BOUNDARY_TOKEN,
    UNK_TOKEN,
    PhoneSequence,
    Transcript,
    count_ngrams,
    normalize_for_chars,
    phone_duration_stats,
)

from helpers import make_set, sample_cov


def report(num, name, ok, detail=""):
    print("[%s] criterion %d: %s%s" % ("PASS" if ok else "FAIL", num, name,
                                       (" — " + detail) if detail else ""))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


class TestCriterion1WhiteningCorrectness:
    def test_gaussian_whitening(self):
        rng = np.random.default_rng(20)
        root = rng.normal(size=(20, 20))
        X = rng.normal(size=(500, 20)) @ root + rng.normal(size=20)
        start = time.perf_counter()
        stage = whitening.fit_whitener(make_set(X), ridge=0.0)
        Z = whitening.apply_stage(stage, X)
        elapsed = time.perf_counter() - start
        cov_err = float(np.linalg.norm(sample_cov(Z) - np.eye(20)))
        mean_err = float(np.abs(Z.mean(axis=0)).max())
        ok = cov_err < 1e-6 and mean_err < 1e-8 and elapsed < 1.0
        report(1, "whitening correctness", ok,
               "cov err %.2e, mean err %.2e, %.3fs" % (cov_err, mean_err, elapsed))


class TestCriterion2RecursiveResidual:
    def test_monotone_over_ten_seeds(self):
        cfg0 = SynthConfig()
        assert cfg0.channel_std == pytest.approx(2.0 * cfg0.within_std)
        good = 0
        worst = None
        for seed in range(10):
            ds = generate(SynthConfig(seed=seed))
            chain = whitening.fit_recursive_chain(ds.trn, ds.dev, depth=3)
            residuals = []
            cur = ds.dev.vectors
            for stage in chain.stages:
                cur = whitening.length_normalize(whitening.apply_stage(stage, cur))
                residuals.append(
                    float(np.linalg.norm(sample_cov(cur) - np.eye(ds.trn.dim)))
                )
            mono = all(residuals[i] >= residuals[i + 1] - 1e-9 for i in range(2))
            good += mono
            if worst is None or not mono:
                worst = residuals
        report(2, "recursive whitening residual non-increasing", good == 10,
               "%d/10 seeds, e.g. %s" % (good, ["%.4f" % r for r in worst]))


class TestCriterion3InterpolationTrend:
    def test_gamma_sweep_gain(self):
        start = time.perf_counter()
        gammas = np.arange(0.0, 1.01, 0.1)
        acc = np.zeros(len(gammas))
        for seed in range(10):
            ds = generate(SynthConfig(seed=seed))
            chain = whitening.fit_recursive_chain(ds.trn, ds.dev, depth=1)
            ptrn = ds.trn.with_vectors(whitening.apply_chain(chain, ds.trn.vectors))
            pdev = ds.dev.with_vectors(whitening.apply_chain(chain, ds.dev.vectors))
            ptst = whitening.apply_chain(chain, ds.tst.vectors)
            truth = np.array([ds.labels.index(u.label) for u in ds.tst.utterances])
            mt = dialect_model.fit_dialect_means(ptrn, ds.labels)
            md = dialect_model.fit_dialect_means(pdev, ds.labels)
            for gi, g in enumerate(gammas):
                mi = dialect_model.interpolate_models(mt, md, float(g))
                pred = dialect_model.cds_score(mi, ptst).argmax(axis=1)
                acc[gi] += 100.0 * float((pred == truth).mean()) / 10.0
        elapsed = time.perf_counter() - start
        best = int(np.argmax(acc))
        gain = acc[best] - acc[0]
        ok = best > 0 and gain >= 5.0 and elapsed < 30.0
        report(3, "interpolation trend", ok,
               "best gamma %.1f (%.1f%%), gamma=0 %.1f%%, gain %.1f pts, %.1fs"
               % (gammas[best], acc[best], acc[0], gain, elapsed))


class TestCriterion4GradientCheck:
    def test_twenty_random_draws(self):
        # the stack at its least input dim, 22, so every parameter can be perturbed
        rng = np.random.default_rng(99)
        step, rtol, afloor = 1e-5, 1e-4, 1e-7
        worst = worst_abs = 0.0
        for draw in range(20):
            params = siamese.init_params(22, 4, seed=1000 + draw)
            a = rng.normal(size=(1, 22))
            b = rng.normal(size=(1, 22))
            y = np.array([int(rng.choice([1, -1]))])
            gw, gb, _ = siamese.grad(params, a, b, y)
            weights = [w.copy() for w in params.weights]
            biases = [b.copy() for b in params.biases]

            def loss_at():
                p = params.replace_arrays([w.copy() for w in weights],
                                          [b.copy() for b in biases])
                return siamese.grad(p, a, b, y)[2]

            for arrays, grads in ((weights, gw), (biases, gb)):
                for arr, g in zip(arrays, grads):
                    flat, gflat = arr.reshape(-1), g.reshape(-1)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + step
                        up = loss_at()
                        flat[i] = orig - step
                        down = loss_at()
                        flat[i] = orig
                        fd = (up - down) / (2 * step)
                        diff = abs(gflat[i] - fd)
                        worst_abs = max(worst_abs, diff)
                        if diff > afloor:
                            worst = max(worst, diff / max(abs(gflat[i]), abs(fd)))
        ok = worst < rtol
        report(4, "siamese gradient check", ok,
               "worst relative error %.2e over differences above %.0e, worst absolute "
               "difference %.2e" % (worst, afloor, worst_abs))


class TestCriterion5SiameseEfficacy:
    def test_beats_raw_cds_on_mismatched_test(self):
        start = time.perf_counter()
        raw_accs, siam_accs = [], []
        for seed in range(10):
            ds = generate(SynthConfig(dim=40, seed=seed, n_trn=60, n_dev=15, n_tst=50,
                                      within_std=1.0, channel_std=2.4))
            chain = whitening.fit_recursive_chain(ds.trn, ds.dev, depth=1)
            ptrn = ds.trn.with_vectors(whitening.apply_chain(chain, ds.trn.vectors))
            pdev = ds.dev.with_vectors(whitening.apply_chain(chain, ds.dev.vectors))
            ptst = whitening.apply_chain(chain, ds.tst.vectors)
            truth = np.array([ds.labels.index(u.label) for u in ds.tst.utterances])

            def accuracy(train_set, tst_vectors):
                models = dialect_model.fit_dialect_means(train_set, ds.labels)
                pred = dialect_model.cds_score(models, tst_vectors).argmax(axis=1)
                return 100.0 * float((pred == truth).mean())

            raw_accs.append(accuracy(ptrn, ptst))

            params = siamese.init_params(40, 8, seed=seed)
            config = siamese.TrainConfig(epochs=15, n_pairs=3000, dev_emphasis=2.0,
                                         seed=seed)
            params, _ = siamese.train(params, ptrn.concat(pdev), config)
            etrn = ptrn.with_vectors(siamese.forward_batch(params, ptrn.vectors))
            etst = siamese.forward_batch(params, ptst)
            siam_accs.append(accuracy(etrn, etst))
        elapsed = time.perf_counter() - start
        mean_raw, mean_siam = float(np.mean(raw_accs)), float(np.mean(siam_accs))
        ok = mean_siam > mean_raw and elapsed < 120.0
        report(5, "siamese training efficacy", ok,
               "mean raw %.1f%% vs siamese %.1f%% over 10 seeds, %.0fs"
               % (mean_raw, mean_siam, elapsed))


class TestCriterion6LdaDimensionRule:
    def test_five_labels_cap_at_four(self):
        rng = np.random.default_rng(0)
        labels = [lab for lab in "ABCDE" for _ in range(8)]
        data = make_set(rng.normal(size=(40, 12)), labels=labels)
        proj = lda.fit_lda(data)
        capped = proj.out_dim == 4
        errored = False
        try:
            lda.fit_lda(data, out_dim=5)
        except ValidationError:
            errored = True
        ok = capped and errored
        report(6, "LDA dimension rule", ok,
               "default out_dim %d, out_dim=5 rejected: %s" % (proj.out_dim, errored))


class TestCriterion7SvmSeparability:
    def test_separable_toy(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(size=(25, 2)) - [4, 0], rng.normal(size=(25, 2)) + [4, 0]])
        labels = ["L"] * 25 + ["R"] * 25
        model = svm.train_linear_svm(X, labels, C=0.01, epochs=200, seed=0)
        pred = [model.labels[i] for i in np.argmax(svm.svm_decision(model, X), axis=1)]
        accuracy = float(np.mean([p == t for p, t in zip(pred, labels)]))
        ok = accuracy == 1.0
        report(7, "SVM separability", ok, "training accuracy %.1f%%" % (100 * accuracy))


class TestCriterion8CalibrationFusionContracts:
    def test_contracts(self):
        rng = np.random.default_rng(8)
        labels = ("A", "B", "C", "D", "E")
        argmax_ok = True
        range_ok = True
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            scores = rng.normal(loc=rng.normal(), scale=rng.uniform(0.2, 3.0),
                                size=(n, 5))
            utts = tuple("u%03d" % i for i in range(n))
            table = ScoreTable("sys", labels, utts, scores)
            truth = {u: labels[rng.integers(0, 5)] for u in utts}
            out = calibration.apply_calibration(
                calibration.fit_calibration(table, truth), table
            )
            range_ok &= bool(out.scores.min() >= 0.0 and out.scores.max() <= 1.0)
            argmax_ok &= bool(
                np.array_equal(out.scores.argmax(axis=1), scores.argmax(axis=1))
            )

        tables = [
            ScoreTable("s%d" % k, labels, tuple("u%03d" % i for i in range(6)),
                       rng.uniform(size=(6, 5)), calibrated=True)
            for k in range(3)
        ]
        weights = calibration.FusionWeights((("s0", 0.7), ("s1", 0.2), ("s2", 0.1)))
        fused = calibration.fuse(tables, weights)
        fuse_range_ok = bool(fused.scores.min() >= 0.0 and fused.scores.max() <= 1.0)
        permuted = calibration.fuse(
            tables[::-1],
            calibration.FusionWeights((("s2", 0.1), ("s1", 0.2), ("s0", 0.7))),
        )
        perm_ok = bool(np.array_equal(fused.scores, permuted.scores))
        ok = argmax_ok and range_ok and fuse_range_ok and perm_ok
        report(8, "calibration/fusion contracts", ok,
               "argmax preserved %s, ranges %s, fusion permutation-invariant %s"
               % (argmax_ok, range_ok and fuse_range_ok, perm_ok))


def normalize_oracle(tokens, oov="<UNK>"):
    """Character-rule reference built from string joins, not the library path."""
    toks = [UNK_TOKEN if t == oov else t for t in tokens]
    if all(len(t) == 1 or t in (UNK_TOKEN, BOUNDARY_TOKEN) for t in toks):
        return list(toks)
    out = []
    prev_boundary = True  # suppress a leading separator
    for t in toks:
        if t == BOUNDARY_TOKEN:
            out.append(t)
            prev_boundary = True
            continue
        if not prev_boundary:
            out.append(BOUNDARY_TOKEN)
        out.extend([t] if t == UNK_TOKEN else list(t))
        prev_boundary = False
    return out


class TestCriterion9FeaturizerOracles:
    def test_ngrams_chars_durations(self):
        rng = np.random.default_rng(9)

        ngram_ok = True
        for _ in range(100):
            toks = ["t%d" % c for c in rng.integers(0, 5, size=rng.integers(0, 14))]
            n = int(rng.integers(1, 4))
            naive = {}
            for i in range(max(len(toks) - n + 1, 0)):
                key = tuple(toks[i:i + n])
                naive[key] = naive.get(key, 0) + 1
            ngram_ok &= dict(count_ngrams(toks, n)) == naive

        chars_ok = True
        alphabet = "abcde"
        for _ in range(100):
            words = []
            for _ in range(rng.integers(1, 6)):
                if rng.random() < 0.2:
                    words.append("<UNK>")
                else:
                    words.append("".join(rng.choice(list(alphabet),
                                                    size=rng.integers(1, 5))))
            got = normalize_for_chars(Transcript("u", tuple(words)))
            chars_ok &= got == normalize_oracle(words)

        dur_ok = True
        inventory = ["p%d" % i for i in range(4)]
        for _ in range(100):
            phones = tuple(
                (inventory[rng.integers(0, 4)], float(rng.uniform(0.05, 1.5)))
                for _ in range(rng.integers(1, 12))
            )
            dense = phone_duration_stats(PhoneSequence("u", phones), inventory)
            total = sum(d for _, d in phones)
            for j, p in enumerate(inventory):
                ds = [d for q, d in phones if q == p]
                share = sum(ds) / total if ds else 0.0
                mean = sum(ds) / len(ds) if ds else 0.0
                rate = len(ds) / len(phones) if ds else 0.0
                dur_ok &= abs(dense[3 * j] - share) < 1e-12
                dur_ok &= abs(dense[3 * j + 1] - mean) < 1e-12
                dur_ok &= abs(dense[3 * j + 2] - rate) < 1e-12

        ok = ngram_ok and chars_ok and dur_ok
        report(9, "featurizer oracle equivalence", ok,
               "ngrams %s, char rules %s, durations %s" % (ngram_ok, chars_ok, dur_ok))


class TestCriterion10Metrics:
    def test_worked_example_and_perfect(self):
        truth = {"u1": "A", "u2": "A", "u3": "B"}
        pred = {"u1": "A", "u2": "B", "u3": "B"}
        rep = evaluate(confusion(truth, pred, ["A", "B"]))
        worked = (round(rep.accuracy, 2), round(rep.macro_precision, 2),
                  round(rep.macro_recall, 2)) == (66.67, 75.0, 75.0)
        perfect_rep = evaluate(ConfusionMatrix(("A", "B"), np.array([[2, 0], [0, 1]])))
        perfect = (perfect_rep.accuracy, perfect_rep.macro_precision,
                   perfect_rep.macro_recall) == (100.0, 100.0, 100.0)
        ok = worked and perfect
        report(10, "metrics exactness", ok,
               "3-utterance example %s, perfect case %s" % (worked, perfect))


class TestCriterion11EndToEndDeterminism:
    def test_system2_recipe_byte_identical(self, tmp_path):
        outputs = []
        for run_dir in (tmp_path / "run1", tmp_path / "run2"):
            data = run_dir / "data"
            model = run_dir / "model"
            fused = run_dir / "fused"
            assert cli_main(["synth", "--out-dir", str(data), "--seed", "11"]) == 0
            assert cli_main([
                "train", "--recipe", "cds", "--data-dir", str(data),
                "--model-dir", str(model), "--whiten-depth", "3",
                "--use-dev", "--gamma", "0.91", "--seed", "11",
            ]) == 0
            scores = run_dir / "tst.scores"
            assert cli_main(["score", "--model-dir", str(model),
                             "--data", str(data / "tst.ivec"), "--out", str(scores)]) == 0
            assert cli_main([
                "calibrate-fuse", "--scores", str(scores),
                "--labels", str(data / "tst.ivec"), "--weights", "1.0",
                "--out-dir", str(fused),
            ]) == 0
            outputs.append({
                "scores": scores.read_bytes(),
                "fused": (fused / "fused.scores").read_bytes(),
                "report": (fused / "report.txt").read_bytes(),
                "trn": (data / "trn.ivec").read_bytes(),
            })
        same = {k: outputs[0][k] == outputs[1][k] for k in outputs[0]}
        ok = all(same.values())
        report(11, "end-to-end determinism", ok,
               ", ".join("%s %s" % (k, v) for k, v in sorted(same.items())))
