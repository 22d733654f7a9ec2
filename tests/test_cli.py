import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
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
    "lda_cds": ("--use-dev",),
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
        assert [p.name for p in (tmp_path / "m").iterdir()] == ["model.json"]
        model = json.loads((tmp_path / "m" / "model.json").read_text())
        assert model["format_version"] == 2 and model["kind"] == "model"
        assert model["payload"]["flags"]["gamma"] == 0.91
        assert sorted(model["payload"]) == ["chain", "flags", "models"]
        assert len(model["payload"]["chain"]["stages"]) == 3


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
        assert sorted(str(p) for p in runs[0]) == ["model/model.json", "tst.scores"]
        # loading and saving again reproduces the model directory
        backend, flags, _ = Backend.load(tmp_path / "a" / "model")
        backend.save(tmp_path / "resaved", flags)
        assert files(tmp_path / "resaved") == files(tmp_path / "a" / "model")


def _edit_payload(edit):
    def mutate(blob):
        edit(blob["payload"])
        return blob
    return mutate


class TestMalformedModelDir:
    @pytest.mark.parametrize("mutate", [
        _edit_payload(lambda p: p["models"].pop("provenance")),
        _edit_payload(lambda p: p.pop("chain")),
        _edit_payload(lambda p: p["models"].update(models="not a matrix")),
        _edit_payload(lambda p: p["models"].update(provenance=["interpolated"])),
        _edit_payload(lambda p: p["chain"]["stages"][0].update(matrix=[[1.0]])),
        lambda blob: dict(blob, payload=[]),
        lambda blob: [blob],
    ], ids=["missing-provenance", "missing-chain", "string-models", "list-provenance",
            "wrong-shape-matrix", "list-payload", "list-artifact"])
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
    ], ids=["siam-out-dim-negative", "siam-out-dim-zero", "dev-emphasis-nan",
            "dev-emphasis-inf", "synth-seed-flag", "synth-seed-config", "svm-c-inf",
            "svm-c-nan", "svm-epochs-huge", "svm-seed-negative", "siam-seed-negative",
            "cds-seed-negative", "dev-emphasis-overflows"])
    def test_exits_2_with_one_line(self, tiny_data, tmp_path, capsys, argv):
        (tmp_path / "negative-seed.cfg").write_text("dim=8\nseed=-1\n")
        argv = [tmp_path / a if a == "negative-seed.cfg" else a for a in argv]
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


def score_with_model_text(root, text):
    """Score tiny TST with a model dir holding `text` as model.json.

    Returns (exit code, stderr lines, whether a score file was written).
    """
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        model_dir = os.path.join(tmp, "model")
        os.mkdir(model_dir)
        with open(os.path.join(model_dir, "model.json"), "wb") as f:
            f.write(text)
        out = os.path.join(tmp, "x.scores")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("score", "--model-dir", model_dir, "--data", root / "data" / "tst.ivec",
                       "--out", out)
        return code, err.getvalue().splitlines(), os.path.exists(out)


class TestModelFileProperties:
    def test_intact_model_scores(self, trained):
        for recipe in RECIPE_FLAGS:
            text = (trained / recipe / "model.json").read_bytes()
            assert score_with_model_text(trained, text) == (0, [], True)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_model_exits_4(self, trained, data):
        recipe = data.draw(st.sampled_from(sorted(RECIPE_FLAGS)))
        text = (trained / recipe / "model.json").read_bytes()
        cut = data.draw(st.integers(0, text.rindex(b"}")))
        code, err, wrote = score_with_model_text(trained, text[:cut])
        assert code == 4 and len(err) == 1 and err[0].startswith("i/o error:")
        assert not wrote

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from([(r, k) for r, keys in sorted(RECIPE_KEYS.items())
                                 for k in keys]))
    def test_missing_stage_exits_4(self, trained, case):
        recipe, key = case
        blob = json.loads((trained / recipe / "model.json").read_text())
        assert sorted(blob["payload"]) == sorted(RECIPE_KEYS[recipe])
        del blob["payload"][key]
        code, err, wrote = score_with_model_text(trained, json.dumps(blob).encode())
        assert code == 4 and len(err) == 1 and err[0].startswith("i/o error:")
        assert not wrote


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
