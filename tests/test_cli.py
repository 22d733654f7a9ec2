import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dialectid.cli import main
from dialectid.data import Domain, ScoreTable
from dialectid.fileio import load_ivector_set, load_labels, load_score_table
from dialectid.synth import SynthConfig, generate


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert run("synth", "--out-dir", out, "--seed", 5) == 0
    return out


def _synth_tiny(root):
    data = root / "data"
    cfg = root / "synth.cfg"
    cfg.write_text("dim=32\nn_trn=12\nn_dev=6\nn_tst=6\nseed=2\n")
    assert run("synth", "--config", cfg, "--out-dir", data) == 0
    return data


@pytest.fixture()
def tiny_data(tmp_path):
    return _synth_tiny(tmp_path)


# train flags of a quick dim-32 model per recipe
RECIPE_FLAGS = {
    "cds": (),
    "lda_cds": ("--use-dev", "--whiten-depth", 2),
    "baseline_svm": ("--use-dev", "--svm-epochs", 30),
    "siam_cds": ("--use-dev", "--siam-epochs", 2, "--siam-pairs", 200),
}


class TestSynthCommand:
    def test_writes_three_valid_splits(self, data_dir):
        from dialectid.data import validate_dataset

        for name, domain in (("trn", Domain.TRN), ("dev", Domain.DEV), ("tst", Domain.TST)):
            ds = load_ivector_set(data_dir / ("%s.ivec" % name), domain=domain)
            assert validate_dataset(ds).ok
            assert len(ds) > 0
        truth = json.loads((data_dir / "ground_truth.json").read_text())
        assert truth["payload"]["labels"] == ["EGY", "LEV", "GLF", "NOR", "MSA"]

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--out-dir", a, "--seed", 9)
        run("synth", "--out-dir", b, "--seed", 9)
        for name in ("trn.ivec", "dev.ivec", "tst.ivec", "ground_truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_file_and_unknown_key(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("dim=8\nn_trn=5\nn_dev=4\nn_tst=3\nseed=1\n")
        assert run("synth", "--config", cfg, "--out-dir", tmp_path / "out") == 0
        ds = load_ivector_set(tmp_path / "out" / "trn.ivec", domain=Domain.TRN)
        assert ds.dim == 8 and len(ds) == 25
        bad = tmp_path / "bad.cfg"
        bad.write_text("dim=8\nwibble=1\n")
        assert run("synth", "--config", bad, "--out-dir", tmp_path / "out2") == 4

    def test_unwritable_path_fails(self, tmp_path):
        marker = tmp_path / "not-a-dir"
        marker.write_text("x")
        assert run("synth", "--out-dir", marker / "sub") == 4


class TestTrainCommand:
    def test_gamma_without_use_dev_rejected(self, data_dir, tmp_path):
        code = run("train", "--recipe", "cds", "--data-dir", data_dir,
                   "--model-dir", tmp_path / "m", "--gamma", 0.91)
        assert code == 2

    def test_depth_without_use_dev_rejected(self, data_dir, tmp_path):
        code = run("train", "--recipe", "cds", "--data-dir", data_dir,
                   "--model-dir", tmp_path / "m", "--whiten-depth", 3)
        assert code == 2

    def test_gamma_with_svm_recipe_rejected(self, data_dir, tmp_path):
        code = run("train", "--recipe", "baseline_svm", "--data-dir", data_dir,
                   "--model-dir", tmp_path / "m", "--use-dev", "--gamma", 0.5)
        assert code == 2

    def test_system2_style_recipe_trains(self, data_dir, tmp_path):
        code = run("train", "--recipe", "cds", "--data-dir", data_dir,
                   "--model-dir", tmp_path / "m", "--whiten-depth", 3,
                   "--use-dev", "--gamma", 0.91)
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["model.f64", "model.json"]
        model = json.loads((tmp_path / "m" / "model.json").read_text())
        assert model["format_version"] == 4 and model["kind"] == "model"
        assert model["arrays"]["bytes"] == (tmp_path / "m" / "model.f64").stat().st_size
        payload = model["payload"]
        assert payload["flags"]["gamma"] == 0.91
        assert sorted(payload) == ["chain", "flags", "models"]
        # the payload holds arrays only; the first in sorted-key order starts the sidecar
        assert payload["chain"][0] == {"matrix": {"f64": 0, "shape": [20, 20]},
                                       "mean": {"f64": 400, "shape": [20]}}
        assert len(payload["chain"]) == 3
        assert payload["models"] == {"f64": 3 * 420, "shape": [5, 20]}
        assert model["arrays"]["bytes"] == 8 * (3 * 420 + 5 * 20)


class TestScoreCommand:
    def _train(self, data_dir, model_dir, *extra):
        assert run("train", "--recipe", "cds", "--data-dir", data_dir,
                   "--model-dir", model_dir, *extra) == 0

    def test_scores_sorted_and_deterministic(self, data_dir, tmp_path):
        m = tmp_path / "m"
        self._train(data_dir, m)
        out1, out2 = tmp_path / "a.scores", tmp_path / "b.scores"
        assert run("score", "--model-dir", m, "--data", data_dir / "tst.ivec",
                   "--out", out1) == 0
        assert run("score", "--model-dir", m, "--data", data_dir / "tst.ivec",
                   "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        table = load_score_table(out1)
        assert list(table.utt_ids) == sorted(table.utt_ids)

    def test_training_set_scores_its_own_dialects(self, data_dir, tmp_path):
        # sanity against the generator: self-scoring should be near-perfect
        m = tmp_path / "m"
        self._train(data_dir, m)
        out = tmp_path / "trn.scores"
        assert run("score", "--model-dir", m, "--data", data_dir / "trn.ivec",
                   "--out", out) == 0
        table = load_score_table(out)
        truth = load_labels(data_dir / "trn.ivec")
        correct = sum(
            table.labels[int(np.argmax(table.scores[i]))] == truth[u]
            for i, u in enumerate(table.utt_ids)
        )
        assert correct / len(table) > 0.5  # top-1 majority per dialect overall

    def test_empty_data_file_gives_empty_table(self, data_dir, tmp_path):
        m = tmp_path / "m"
        self._train(data_dir, m)
        empty = tmp_path / "empty.ivec"
        empty.write_text("dim=%d\n" % load_ivector_set(data_dir / "tst.ivec").dim)
        out = tmp_path / "empty.scores"
        assert run("score", "--model-dir", m, "--data", empty, "--out", out) == 0
        assert len(load_score_table(out)) == 0

    def test_dim_mismatch_rejected(self, data_dir, tmp_path):
        m = tmp_path / "m"
        self._train(data_dir, m)
        wrong = tmp_path / "wrong.ivec"
        wrong.write_text("dim=3\nu1\tEGY\t0.1 0.2 0.3\n")
        assert run("score", "--model-dir", m, "--data", wrong,
                   "--out", tmp_path / "x.scores") == 2

    def test_tampered_fingerprint_rejected(self, data_dir, tmp_path):
        m = tmp_path / "m"
        self._train(data_dir, m)
        model = json.loads((m / "model.json").read_text())
        model["payload"]["flags"]["seed"] = 12345  # no longer matches fingerprint
        (m / "model.json").write_text(json.dumps(model))
        assert run("score", "--model-dir", m, "--data", data_dir / "tst.ivec",
                   "--out", tmp_path / "x.scores") == 4

    def test_version_1_model_dir_rejected(self, data_dir, tmp_path, capsys):
        # a version-1 model directory has one file per stage and no model.json
        m = tmp_path / "m"
        m.mkdir()
        for name in ("chain.json", "models.json"):
            (m / name).write_text('{"format_version": 1, "payload": {}}\n')
        capsys.readouterr()
        assert run("score", "--model-dir", m, "--data", data_dir / "tst.ivec",
                   "--out", tmp_path / "x.scores") == 4
        assert only_stderr_line(capsys).startswith("i/o error:")
        assert not (tmp_path / "x.scores").exists()

    def test_siamese_and_lda_and_svm_recipes_score(self, tiny_data, tmp_path):
        empty = tmp_path / "empty.ivec"
        empty.write_text("dim=32\n")
        for recipe, extra in (
            ("lda_cds", ()),
            ("baseline_svm", ("--svm-epochs", 30)),
            ("siam_cds", ("--siam-epochs", 2, "--siam-pairs", 200)),
        ):
            m = tmp_path / ("m_" + recipe)
            assert run("train", "--recipe", recipe, "--data-dir", tiny_data,
                       "--model-dir", m, *extra) == 0
            out = tmp_path / (recipe + ".scores")
            assert run("score", "--model-dir", m, "--data", tiny_data / "tst.ivec",
                       "--out", out) == 0
            assert len(load_score_table(out)) == 30
            assert run("score", "--model-dir", m, "--data", empty, "--out", out) == 0
            assert len(load_score_table(out)) == 0


class TestCalibrateFuseAndEvaluate:
    @pytest.fixture()
    def scored(self, data_dir, tmp_path):
        m = tmp_path / "m"
        assert run("train", "--recipe", "cds", "--data-dir", data_dir,
                   "--model-dir", m, "--whiten-depth", 3, "--use-dev",
                   "--gamma", 0.91) == 0
        out = tmp_path / "tst.scores"
        assert run("score", "--model-dir", m, "--data", data_dir / "tst.ivec",
                   "--out", out) == 0
        return out

    def test_single_system_weight_one(self, data_dir, tmp_path, scored, capsys):
        fused_dir = tmp_path / "fused"
        assert run("calibrate-fuse", "--scores", scored, "--labels",
                   data_dir / "tst.ivec", "--weights", "1.0",
                   "--out-dir", fused_dir) == 0
        text = capsys.readouterr().out
        assert "accuracy=" in text
        loaded = load_score_table(fused_dir / "fused.scores")
        fused = ScoreTable(loaded.system_id, loaded.labels, loaded.utt_ids, loaded.scores,
                           calibrated=True)
        assert fused.scores.min() >= 0.0 and fused.scores.max() <= 1.0
        # single-system fusion must not change the decisions
        raw = load_score_table(scored)
        np.testing.assert_array_equal(
            fused.scores.argmax(axis=1),
            raw.scores[np.argsort(np.array(raw.utt_ids))].argmax(axis=1),
        )

    def test_weights_must_sum_to_one(self, data_dir, tmp_path, scored):
        assert run("calibrate-fuse", "--scores", scored, "--labels",
                   data_dir / "tst.ivec", "--weights", "0.7",
                   "--out-dir", tmp_path / "f") == 2

    def test_weight_count_must_match(self, data_dir, tmp_path, scored):
        assert run("calibrate-fuse", "--scores", scored, "--labels",
                   data_dir / "tst.ivec", "--weights", "0.7,0.3",
                   "--out-dir", tmp_path / "f") == 2

    def test_fit_weights_gridsearch(self, data_dir, tmp_path, scored):
        assert run("calibrate-fuse", "--scores", scored, "--labels",
                   data_dir / "tst.ivec", "--fit-weights",
                   "--out-dir", tmp_path / "f") == 0

    def test_report_names_the_fit_labels(self, data_dir, tmp_path, scored, capsys):
        assert run("calibrate-fuse", "--scores", scored, "--labels",
                   data_dir / "tst.ivec", "--fit-weights", "--out-dir", tmp_path / "f") == 0
        report = (tmp_path / "f" / "report.txt").read_text()
        assert report.splitlines()[-1] == "fitted_on=tst.ivec"
        assert report in capsys.readouterr().out

    def test_evaluate_report(self, data_dir, tmp_path, scored, capsys):
        assert run("evaluate", "--scores", scored, "--labels",
                   data_dir / "tst.ivec", "--out", tmp_path / "report.txt") == 0
        text = (tmp_path / "report.txt").read_text()
        assert "accuracy=" in text and "macro_precision=" in text
        assert text == capsys.readouterr().out

    def test_evaluate_perfect_scores(self, tmp_path, capsys):
        labels = tmp_path / "labels.tsv"
        labels.write_text("u1\tA\nu2\tB\n")
        scores = tmp_path / "perfect.scores"
        scores.write_text("sys\tA\tB\nu1\t1.0\t0.0\nu2\t0.0\t1.0\n")
        assert run("evaluate", "--scores", scores, "--labels", labels) == 0
        out = capsys.readouterr().out
        assert "accuracy=100.000000" in out
        assert "macro_precision=100.000000" in out
        assert "macro_recall=100.000000" in out

    @pytest.mark.parametrize("name, text, line", [
        ("labels.tsv", "u1\tA\nu2\tB\n\nu1\tB\n", 4),
        ("labels.ivec", "dim=1\nu1\tA\t0.5\nu2\tB\t1.5\n\nu1\tB\t2.5\n", 5),
    ], ids=["tsv", "ivec"])
    def test_duplicate_label_id_exits_2(self, tmp_path, capsys, name, text, line):
        labels = tmp_path / name
        labels.write_text(text)
        scores = tmp_path / "s.scores"
        scores.write_text("sys\tA\tB\nu1\t1.0\t0.0\nu2\t0.0\t1.0\n")
        capsys.readouterr()
        assert run("evaluate", "--scores", scores, "--labels", labels) == 2
        assert only_stderr_line(capsys) == (
            "validation error: %s:%d: duplicate utterance id 'u1'" % (labels, line))

    def test_missing_labels_rejected(self, tmp_path):
        labels = tmp_path / "labels.tsv"
        labels.write_text("u1\tA\n")
        scores = tmp_path / "s.scores"
        scores.write_text("sys\tA\tB\nu1\t1.0\t0.0\nu2\t0.0\t1.0\n")
        assert run("evaluate", "--scores", scores, "--labels", labels) == 2


def only_stderr_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return lines[0]


class TestRerunDeterminism:
    @pytest.mark.parametrize("recipe, extra", list(RECIPE_FLAGS.items()))
    def test_model_dir_and_scores_byte_identical(self, tiny_data, tmp_path, recipe, extra):
        from dialectid.backend import Backend

        def files(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("train", "--recipe", recipe, "--data-dir", tiny_data,
                       "--model-dir", out / "model", *extra) == 0
            assert run("score", "--model-dir", out / "model", "--data", tiny_data / "tst.ivec",
                       "--out", out / "tst.scores") == 0
            runs.append(files(out))
        assert runs[0] == runs[1]
        assert sorted(str(p) for p in runs[0]) == [
            "model/model.f64", "model/model.json", "tst.scores"]
        # loading and saving again rewrites both model files byte for byte
        backend, flags, _ = Backend.load(tmp_path / "a" / "model")
        backend.save(tmp_path / "resaved", flags)
        assert files(tmp_path / "resaved") == files(tmp_path / "a" / "model")


class TestBackendFitFlags:
    @pytest.mark.parametrize("edit", [
        lambda f: f.update(labels=f["labels"][::-1]),
        lambda f: f.update(labels=f["labels"] + f["labels"][-1:]),
        lambda f: f.update(dim=f["dim"] + 1),
    ], ids=["unsorted-labels", "duplicate-label", "other-dim"])
    def test_fit_refuses_flags_that_load_would_reject(self, edit):
        from dialectid.backend import Backend
        from dialectid.errors import ValidationError

        ds = generate(SynthConfig(dim=8, n_trn=5, n_dev=4, n_tst=3, seed=1))
        flags = {"recipe": "cds", "whiten_depth": 1, "gamma": None, "use_dev": False,
                 "seed": 0, "dim": ds.trn.dim, "labels": sorted(ds.labels)}
        edit(flags)
        with pytest.raises(ValidationError):
            Backend.fit(ds.trn, None, flags)

    @pytest.mark.parametrize("edit, message", [
        (dict(gamma=0.5), "--gamma requires --use-dev"),
        (dict(recipe="baseline_svm", gamma=0.5, use_dev=True), "--gamma does not apply"),
        (dict(whiten_depth=2), "--whiten-depth > 1 requires --use-dev"),
    ], ids=["gamma-without-dev", "gamma-with-svm", "depth-without-dev"])
    def test_fit_refuses_the_flag_combinations_train_refuses(self, edit, message):
        from dialectid.backend import Backend
        from dialectid.errors import ValidationError

        ds = generate(SynthConfig(dim=8, n_trn=5, n_dev=4, n_tst=3, seed=1))
        flags = {"recipe": "cds", "whiten_depth": 1, "gamma": None, "use_dev": False,
                 "seed": 0, "dim": ds.trn.dim, "labels": sorted(ds.labels),
                 "svm_c": 0.01, "svm_epochs": 2}
        flags.update(edit)
        with pytest.raises(ValidationError, match=message):
            Backend.fit(ds.trn, ds.dev if flags["use_dev"] else None, flags)


def _edit_payload(edit):
    def mutate(blob):
        edit(blob["payload"])
        return blob
    return mutate


class TestMalformedModelDir:
    @pytest.mark.parametrize("mutate", [
        # the version-3 layouts of the scorer and of the chain
        _edit_payload(lambda p: p.update(models={"labels": p["flags"]["labels"],
                                                 "models": p["models"]})),
        _edit_payload(lambda p: p.update(chain={"stages": p["chain"],
                                                "fit_subsets": ["primary"]})),
        _edit_payload(lambda p: p.pop("chain")),
        _edit_payload(lambda p: p.update(models="not a matrix")),
        _edit_payload(lambda p: p["chain"][0]["matrix"].update(shape=[1, 1])),
        _edit_payload(lambda p: p["chain"][0]["mean"].update(shape=[])),
        lambda blob: dict(blob, payload=[]),
        lambda blob: [blob],
    ], ids=["dict-models", "dict-chain", "missing-chain", "string-models",
            "wrong-shape-matrix", "scalar-mean", "list-payload", "list-artifact"])
    def test_exits_4_with_one_line(self, data_dir, tmp_path, capsys, mutate):
        m = tmp_path / "m"
        assert run("train", "--recipe", "cds", "--data-dir", data_dir, "--model-dir", m) == 0
        path = m / "model.json"
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        capsys.readouterr()
        assert run("score", "--model-dir", m, "--data", data_dir / "tst.ivec",
                   "--out", tmp_path / "x.scores") == 4
        assert only_stderr_line(capsys).startswith("i/o error:")
        assert not (tmp_path / "x.scores").exists()


class TestNonUtf8Inputs:
    @pytest.mark.parametrize("bad", ["ivec", "scores", "labels"])
    def test_undecodable_byte_exits_4(self, tmp_path, capsys, bad):
        texts = {"ivec": "dim=2\nu1\tA\t0.1 0.2\nu2\tB\t0.3 0.1\n",
                 "scores": "sys\tA\tB\nu1\t1.0\t0.0\nu2\t0.0\t1.0\n",
                 "labels": "u1\tA\nu2\tB\n"}
        paths = {}
        for name, text in texts.items():
            raw = text.encode("utf-8")
            if name == bad:
                raw = raw.replace(b"u2", b"u\xff2")
            paths[name] = tmp_path / ("trn.ivec" if name == "ivec" else name)
            paths[name].write_bytes(raw)
        if bad == "ivec":
            argv = ("train", "--recipe", "cds", "--data-dir", tmp_path,
                    "--model-dir", tmp_path / "m")
        else:
            argv = ("evaluate", "--scores", paths["scores"], "--labels", paths["labels"])
        assert run(*argv) == 4
        assert only_stderr_line(capsys).startswith("i/o error:")


class TestFusionFlags:
    @pytest.mark.parametrize("flags", [
        ("--weights", "abc"),
        ("--weights", "0.5,x"),
        ("--fit-weights", "--resolution", "0"),
        ("--fit-weights", "--resolution", "-0.5"),
        ("--fit-weights", "--resolution", "1e-320"),
    ])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, flags):
        labels = tmp_path / "labels.tsv"
        labels.write_text("u1\tA\nu2\tB\n")
        scores = tmp_path / "s.scores"
        scores.write_text("sys\tA\tB\nu1\t1.0\t0.0\nu2\t0.0\t1.0\n")
        assert run("calibrate-fuse", "--scores", scores, "--labels", labels,
                   "--out-dir", tmp_path / "f", *flags) == 2
        assert only_stderr_line(capsys).startswith("validation error:")
        assert not (tmp_path / "f").exists()

    def test_grid_above_cap_exits_2_naming_its_size(self, tmp_path, capsys):
        # two systems at resolution 1e-6 make a grid of 1000001 points
        labels = tmp_path / "labels.tsv"
        labels.write_text("u1\tA\nu2\tB\n")
        scores = []
        for name, row in (("a", "0.9\t0.1"), ("b", "0.3\t0.6")):
            scores.append(tmp_path / (name + ".scores"))
            scores[-1].write_text("%s\tA\tB\nu1\t%s\nu2\t0.2\t0.8\n" % (name, row))
        capsys.readouterr()
        assert run("calibrate-fuse", "--scores", *scores, "--labels", labels,
                   "--out-dir", tmp_path / "f", "--fit-weights", "--resolution", "1e-6") == 2
        line = only_stderr_line(capsys)
        assert line.startswith("validation error:") and "1000001" in line
        assert not (tmp_path / "f").exists()


SIAM_TRAIN = ("train", "--recipe", "siam_cds", "--siam-epochs", 1, "--siam-pairs", 20)
SVM_TRAIN = ("train", "--recipe", "baseline_svm")
# synth config files that TestOutOfRangeFlagValues refers to by name
SYNTH_CONFIGS = {
    "negative-seed.cfg": "dim=8\nseed=-1\n",
    "nan-within-std.cfg": "within_std=nan\n",
    "inf-channel-std.cfg": "channel_std=inf\n",
    # finite, but the draws overflow to inf
    "huge-dialect-std.cfg": "dialect_std=1e308\n",
    # without a cap, numpy refuses its 4 TB means array at once, so no memory is taken
    "huge-dim.cfg": "dim=100000000000\n",
}


class TestOutOfRangeFlagValues:
    @pytest.mark.parametrize("argv", [
        SIAM_TRAIN + ("--siam-out-dim", -1),
        SIAM_TRAIN + ("--siam-out-dim", 0),
        SIAM_TRAIN + ("--use-dev", "--dev-emphasis", "nan"),
        SIAM_TRAIN + ("--use-dev", "--dev-emphasis", "inf"),
        ("synth", "--seed", -1),
        ("synth", "--config", "negative-seed.cfg"),
        SVM_TRAIN + ("--svm-c", "inf"),
        SVM_TRAIN + ("--svm-c", "nan"),
        SVM_TRAIN + ("--svm-epochs", "100000000000000000000"),
        SVM_TRAIN + ("--seed", -1),
        SIAM_TRAIN + ("--seed", -1),
        ("train", "--recipe", "cds", "--seed", -1),
        SIAM_TRAIN + ("--use-dev", "--dev-emphasis", "1e308"),
        ("train", "--recipe", "siam_cds", "--siam-pairs", 10000000000000),
        ("train", "--recipe", "siam_cds", "--siam-epochs", 3334, "--siam-pairs", 3000),
        ("train", "--recipe", "siam_cds", "--siam-epochs", 0, "--siam-pairs", 10000001),
        SIAM_TRAIN + ("--siam-out-dim", 100000000000),
        ("synth", "--config", "nan-within-std.cfg"),
        ("synth", "--config", "inf-channel-std.cfg"),
        ("synth", "--config", "huge-dialect-std.cfg"),
        ("synth", "--config", "huge-dim.cfg"),
    ], ids=["siam-out-dim-negative", "siam-out-dim-zero", "dev-emphasis-nan",
            "dev-emphasis-inf", "synth-seed-flag", "synth-seed-config", "svm-c-inf",
            "svm-c-nan", "svm-epochs-huge", "svm-seed-negative", "siam-seed-negative",
            "cds-seed-negative", "dev-emphasis-overflows", "siam-pairs-huge",
            "siam-epochs-times-pairs-over-cap", "siam-pairs-over-cap-zero-epochs",
            "siam-out-dim-above-input-dim", "synth-within-std-nan", "synth-channel-std-inf",
            "synth-draws-overflow", "synth-draws-over-cap"])
    def test_exits_2_with_one_line(self, tiny_data, tmp_path, capsys, argv):
        for name, text in SYNTH_CONFIGS.items():
            (tmp_path / name).write_text(text)
        argv = [tmp_path / a if a in SYNTH_CONFIGS else a for a in argv]
        out = tmp_path / "out"
        if argv[0] == "train":
            argv += ["--data-dir", tiny_data, "--model-dir", out]
        else:
            argv += ["--out-dir", out]
        capsys.readouterr()
        assert run(*argv) == 2
        assert only_stderr_line(capsys).startswith("validation error:")
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """tiny data plus one model directory per recipe, named after the recipe"""
    root = tmp_path_factory.mktemp("trained")
    data = _synth_tiny(root)
    for recipe, extra in RECIPE_FLAGS.items():
        assert run("train", "--recipe", recipe, "--data-dir", data,
                   "--model-dir", root / recipe, *extra) == 0
    return root


# the top-level payload keys each recipe's model.json needs
RECIPE_KEYS = {
    "cds": ("flags", "chain", "models"),
    "lda_cds": ("flags", "chain", "lda", "models"),
    "baseline_svm": ("flags", "chain", "svm"),
    "siam_cds": ("flags", "chain", "siamese", "models"),
}


def model_files(trained, recipe):
    """(model.json bytes, model.f64 bytes) of the trained `recipe` model."""
    return tuple((trained / recipe / name).read_bytes() for name in ("model.json", "model.f64"))


def with_sidecar(blob, sidecar):
    """model.json bytes of `blob` with its arrays entry describing `sidecar`."""
    arrays = {"bytes": len(sidecar), "sha256": hashlib.sha256(sidecar).hexdigest()}
    return json.dumps(dict(blob, arrays=arrays)).encode()


def score_with_model(root, text, sidecar):
    """Score tiny TST with a model dir holding `text` as model.json and
    `sidecar` as model.f64 (no sidecar when None).

    Returns (exit code, stderr lines, whether a score file was written).
    """
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        model_dir = os.path.join(tmp, "model")
        os.mkdir(model_dir)
        with open(os.path.join(model_dir, "model.json"), "wb") as f:
            f.write(text)
        if sidecar is not None:
            with open(os.path.join(model_dir, "model.f64"), "wb") as f:
                f.write(sidecar)
        out = os.path.join(tmp, "x.scores")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("score", "--model-dir", model_dir, "--data", root / "data" / "tst.ivec",
                       "--out", out)
        return code, err.getvalue().splitlines(), os.path.exists(out)


def assert_exit_4(result, names=""):
    """One ``i/o error:`` line (holding `names`), exit 4 and no score table."""
    code, err, wrote = result
    assert code == 4 and len(err) == 1 and err[0].startswith("i/o error:"), (code, err)
    assert names in err[0]
    assert not wrote


ANY_RECIPE = st.sampled_from(sorted(RECIPE_FLAGS))


class TestModelFileProperties:
    def test_intact_model_scores(self, trained):
        for recipe in RECIPE_FLAGS:
            assert score_with_model(trained, *model_files(trained, recipe)) == (0, [], True)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_model_exits_4(self, trained, data):
        text, sidecar = model_files(trained, data.draw(ANY_RECIPE))
        cut = data.draw(st.integers(0, text.rindex(b"}")))
        assert_exit_4(score_with_model(trained, text[:cut], sidecar))

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from([(r, k) for r, keys in sorted(RECIPE_KEYS.items())
                                 for k in keys]))
    def test_missing_stage_exits_4(self, trained, case):
        recipe, key = case
        text, sidecar = model_files(trained, recipe)
        blob = json.loads(text)
        assert sorted(blob["payload"]) == sorted(RECIPE_KEYS[recipe])
        del blob["payload"][key]
        assert_exit_4(score_with_model(trained, json.dumps(blob).encode(), sidecar))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flipped_sidecar_byte_exits_4(self, trained, data):
        text, sidecar = model_files(trained, data.draw(ANY_RECIPE))
        at = data.draw(st.integers(0, len(sidecar) - 1))
        flipped = bytes([sidecar[at] ^ data.draw(st.integers(1, 255))])
        assert_exit_4(score_with_model(trained, text, sidecar[:at] + flipped + sidecar[at + 1:]),
                      "model.f64")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_truncated_sidecar_exits_4(self, trained, data):
        text, sidecar = model_files(trained, data.draw(ANY_RECIPE))
        cut = data.draw(st.integers(0, len(sidecar) - 1))
        assert_exit_4(score_with_model(trained, text, sidecar[:cut]), "model.f64")

    @pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
    def test_missing_sidecar_exits_4(self, trained, recipe):
        text, _ = model_files(trained, recipe)
        assert_exit_4(score_with_model(trained, text, None), "model.f64")

    @settings(max_examples=8, deadline=None)
    @given(recipe=ANY_RECIPE, keep_sidecar=st.booleans())
    def test_version_2_model_exits_4(self, trained, recipe, keep_sidecar):
        # version 2 kept the arrays as JSON lists and had no sidecar
        from dialectid.fileio import load_artifact

        payload, fingerprint = load_artifact(trained / recipe / "model.json", "model")

        def as_lists(value):
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, dict):
                return {k: as_lists(v) for k, v in value.items()}
            if isinstance(value, list):
                return [as_lists(v) for v in value]
            return value

        blob = {"format_version": 2, "kind": "model", "fingerprint": fingerprint,
                "payload": as_lists(payload)}
        sidecar = model_files(trained, recipe)[1] if keep_sidecar else None
        assert_exit_4(score_with_model(trained, json.dumps(blob).encode(), sidecar),
                      "version 2")
        # version 3 had the same sidecar, but stored fields the flags derive beside the arrays
        text, sidecar = model_files(trained, recipe)
        blob = dict(json.loads(text), format_version=3)
        assert_exit_4(score_with_model(trained, json.dumps(blob).encode(), sidecar), "version 3")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_non_finite_array_value_exits_4(self, trained, data):
        text, sidecar = model_files(trained, data.draw(ANY_RECIPE))
        values = np.frombuffer(sidecar, dtype="<f8").copy()
        values[data.draw(st.integers(0, values.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        sidecar = values.tobytes()
        assert_exit_4(score_with_model(trained, with_sidecar(json.loads(text), sidecar), sidecar),
                      "non-finite")

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_flag_labels_out_of_order_exit_4(self, trained, data):
        # the scorer's columns follow flags.labels, which train writes sorted
        from dialectid.fileio import config_fingerprint

        text, sidecar = model_files(trained, data.draw(ANY_RECIPE))
        blob = json.loads(text)
        flags = blob["payload"]["flags"]
        flags["labels"] = data.draw(st.permutations(flags["labels"]).filter(
            lambda p: p != sorted(p)))
        blob["fingerprint"] = config_fingerprint(flags)  # consistent with the edited flags
        assert_exit_4(score_with_model(trained, json.dumps(blob).encode(), sidecar), "labels")

    @pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
    def test_stage_count_other_than_whiten_depth_exits_4(self, trained, recipe):
        text, sidecar = model_files(trained, recipe)
        blob = json.loads(text)
        chain = blob["payload"]["chain"]
        edits = [chain + chain[-1:]] + ([chain[:-1]] if len(chain) > 1 else [])
        for edited in edits:
            blob["payload"]["chain"] = edited
            assert_exit_4(score_with_model(trained, json.dumps(blob).encode(), sidecar),
                          "whiten_depth")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_array_shape_edit_exits_4(self, trained, data):
        text, sidecar = model_files(trained, data.draw(ANY_RECIPE))
        blob = json.loads(text)
        refs = []

        def collect(value):
            if isinstance(value, dict) and value.keys() == {"f64", "shape"}:
                refs.append(value)
            elif isinstance(value, (dict, list)):
                for v in value.values() if isinstance(value, dict) else value:
                    collect(v)

        collect(blob["payload"])
        ref = data.draw(st.sampled_from(refs))
        shape = ref["shape"]
        # swap the axes, add a 1, drop an axis, or change one axis by 1
        edits = [shape[::-1]] + [shape[:i] + [1] + shape[i:] for i in range(len(shape) + 1)]
        for i in range(len(shape)):
            edits += [shape[:i] + rest + shape[i + 1:]
                      for rest in ([], [shape[i] - 1], [shape[i] + 1])]
        # only shapes that stay inside the sidecar, so the shape checks must catch them
        edits = [e for e in edits if e != shape and ref["f64"] + math.prod(e) <= len(sidecar) // 8]
        assume(edits)
        ref["shape"] = data.draw(st.sampled_from(edits))
        assert_exit_4(score_with_model(trained, json.dumps(blob).encode(), sidecar))

    @pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
    def test_flags_dim_other_than_whitening_dim_exits_4(self, trained, recipe):
        from dialectid.fileio import config_fingerprint

        text, sidecar = model_files(trained, recipe)
        blob = json.loads(text)
        flags = blob["payload"]["flags"]
        for dim in (flags["dim"] - 1, float(flags["dim"])):  # train writes an int
            flags["dim"] = dim
            blob["fingerprint"] = config_fingerprint(flags)  # consistent with the edited flags
            assert_exit_4(score_with_model(trained, json.dumps(blob).encode(), sidecar), "dim")


class TestWholeFileWrites:
    @pytest.mark.parametrize("command", ["train", "score", "calibrate-fuse", "evaluate"])
    def test_failed_rename_leaves_target_as_it_was(self, tiny_data, tmp_path, capsys,
                                                   monkeypatch, command):
        m, scores, labels = tmp_path / "m", tmp_path / "tst.scores", tiny_data / "tst.ivec"
        assert run("train", "--recipe", "cds", "--data-dir", tiny_data, "--model-dir", m) == 0
        assert run("score", "--model-dir", m, "--data", labels, "--out", scores) == 0
        (tmp_path / "f").mkdir()
        argv, target = {
            "train": (("train", "--recipe", "cds", "--data-dir", tiny_data, "--model-dir", m),
                      m / "model.json"),
            "score": (("score", "--model-dir", m, "--data", labels, "--out", scores), scores),
            "calibrate-fuse": (("calibrate-fuse", "--scores", scores, "--labels", labels,
                                "--weights", "1.0", "--out-dir", tmp_path / "f"),
                               tmp_path / "f" / "fused.scores"),
            "evaluate": (("evaluate", "--scores", scores, "--labels", labels,
                          "--out", tmp_path / "report.txt"), tmp_path / "report.txt"),
        }[command]
        target.write_text("old\n")
        before = sorted(target.parent.iterdir())

        def refuse(src, dst):
            raise PermissionError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        capsys.readouterr()
        assert run(*argv) == 4
        assert only_stderr_line(capsys).startswith("i/o error:")
        assert target.read_text() == "old\n"
        assert sorted(target.parent.iterdir()) == before
