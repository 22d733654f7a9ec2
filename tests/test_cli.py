import json

import numpy as np
import pytest

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


@pytest.fixture()
def tiny_data(tmp_path):
    data = tmp_path / "data"
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("dim=32\nn_trn=12\nn_dev=6\nn_tst=6\nseed=2\n")
    assert run("synth", "--config", cfg, "--out-dir", data) == 0
    return data


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
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["payload"]["flags"]["gamma"] == 0.91
        assert (tmp_path / "m" / "chain.json").exists()
        assert (tmp_path / "m" / "models.json").exists()


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
        manifest = json.loads((m / "manifest.json").read_text())
        manifest["payload"]["flags"]["seed"] = 12345  # no longer matches fingerprint
        (m / "manifest.json").write_text(json.dumps(manifest))
        assert run("score", "--model-dir", m, "--data", data_dir / "tst.ivec",
                   "--out", tmp_path / "x.scores") == 4

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
    @pytest.mark.parametrize("recipe, extra", [
        ("cds", ()),
        ("lda_cds", ("--use-dev",)),
        ("baseline_svm", ("--use-dev", "--svm-epochs", 30)),
        ("siam_cds", ("--use-dev", "--siam-epochs", 2, "--siam-pairs", 200)),
    ])
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
    @pytest.mark.parametrize("artifact, mutate", [
        ("models.json", _edit_payload(lambda p: p.pop("provenance"))),
        ("manifest.json", _edit_payload(lambda p: p["artifacts"].pop("chain"))),
        ("models.json", _edit_payload(lambda p: p.update(models="not a matrix"))),
        ("models.json", _edit_payload(lambda p: p.update(provenance=["interpolated"]))),
        ("chain.json", _edit_payload(lambda p: p["stages"][0].update(matrix=[[1.0]]))),
        ("manifest.json", lambda blob: dict(blob, payload=[])),
        ("chain.json", lambda blob: [blob]),
    ], ids=["missing-provenance", "missing-chain", "string-models", "list-provenance",
            "wrong-shape-matrix", "list-payload", "list-artifact"])
    def test_exits_4_with_one_line(self, data_dir, tmp_path, capsys, artifact, mutate):
        m = tmp_path / "m"
        assert run("train", "--recipe", "cds", "--data-dir", data_dir, "--model-dir", m) == 0
        path = m / artifact
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


SIAM_TRAIN = ("train", "--recipe", "siam_cds", "--siam-epochs", 1, "--siam-pairs", 20)


class TestOutOfRangeFlagValues:
    @pytest.mark.parametrize("argv", [
        SIAM_TRAIN + ("--siam-out-dim", -1),
        SIAM_TRAIN + ("--siam-out-dim", 0),
        SIAM_TRAIN + ("--use-dev", "--dev-emphasis", "nan"),
        SIAM_TRAIN + ("--use-dev", "--dev-emphasis", "inf"),
        ("synth", "--seed", -1),
        ("synth", "--config", "negative-seed.cfg"),
    ], ids=["siam-out-dim-negative", "siam-out-dim-zero", "dev-emphasis-nan",
            "dev-emphasis-inf", "synth-seed-flag", "synth-seed-config"])
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
