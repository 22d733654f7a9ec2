import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dialectid.backend import TrainFlags, flag_types
from dialectid.calibration import apply_calibration, fit_calibration, fit_fusion_weights, fuse
from dialectid.cli import build_parser, main
from dialectid.data import Domain, ScoreTable
from dialectid.fileio import (load_ivector_set, load_labels, load_score_table,
                              save_ivector_set, save_score_table)
from dialectid.synth import SynthConfig, generate


def run(*argv):
    return main([str(a) for a in argv])


def run_captured(*argv):
    """(exit code, stderr lines) of one CLI call; its stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    return code, err.getvalue().splitlines()


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
        # the reader refuses a repeated id or a non-finite value
        for name, domain in (("trn", Domain.TRN), ("dev", Domain.DEV), ("tst", Domain.TST)):
            ds = load_ivector_set(data_dir / ("%s.ivec" % name), domain=domain)
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


class TestScoreTableFaults:
    """A score table's numbers are parsed after its row checks: a lone bad number
    is reported on its line, and a later repeated id is reported before it."""

    @pytest.mark.parametrize("rows, code, error", [
        (["u1\t0.5\t0.5", "u2\t0.5\tx", "u3\t1.0\t0.0"], 4,
         "i/o error: {path}:3: unparseable number"),
        (["u1\t0.5\t0.5", "u2\t0.5\tx", "u3\t1.0\t0.0", "u1\t0.0\t1.0"], 2,
         "validation error: {path}:5: duplicate utterance id 'u1'"),
    ], ids=["unparseable", "unparseable-then-repeated-id"])
    def test_evaluate_exits_with_one_line(self, tmp_path, rows, code, error):
        labels = tmp_path / "labels.tsv"
        labels.write_text("u1\tA\nu2\tB\nu3\tA\n")
        scores = tmp_path / "s.scores"
        scores.write_text("sys\tA\tB\n" + "".join(row + "\n" for row in rows))
        assert run_captured("evaluate", "--scores", scores, "--labels", labels) == (
            code, [error.format(path=scores)])


class TestCalibrationClamp:
    def test_clamped_slope_is_reported_and_changes_no_output(self, tmp_path):
        # "anti" scores against the labels, so its least-squares slope is negative
        labels = tmp_path / "labels.tsv"
        labels.write_text("u000\tA\nu001\tB\n")
        paths = []
        for system_id, rows in (("anti", [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]),
                                ("good", [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])):
            paths.append(tmp_path / (system_id + ".scores"))
            save_score_table(ScoreTable(system_id, ("A", "B", "C"), ("u000", "u001"),
                                        np.array(rows)), paths[-1])
        out = tmp_path / "fused"
        code, err = run_captured("calibrate-fuse", "--scores", *paths, "--labels", labels,
                                 "--fit-weights", "--out-dir", out)
        assert code == 0
        assert len(err) == 1 and err[0].startswith("warning: ") and "'anti'" in err[0], err
        assert "'good'" not in err[0] and "1e-12" in err[0]
        # the outputs are those of the library calls the command makes
        truth = load_labels(labels)
        tables = [load_score_table(p) for p in paths]
        calibrated = [apply_calibration(fit_calibration(t, truth), t) for t in tables]
        fused = fuse(calibrated, fit_fusion_weights(calibrated, truth))
        save_score_table(fused, tmp_path / "expected.scores")
        assert (out / "fused.scores").read_bytes() == (tmp_path / "expected.scores").read_bytes()
        assert run_captured("evaluate", "--scores", out / "fused.scores", "--labels", labels,
                            "--out", tmp_path / "report.txt") == (0, [])
        assert (out / "report.txt").read_text() == (
            (tmp_path / "report.txt").read_text() + "fitted_on=labels.tsv\n")


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
        backend, _ = Backend.load(tmp_path / "a" / "model")
        backend.save(tmp_path / "resaved")
        assert files(tmp_path / "resaved") == files(tmp_path / "a" / "model")


class TestBackendFitFlags:
    @pytest.mark.parametrize("edit, message", [
        (dict(gamma=0.5), "--gamma requires --use-dev"),
        (dict(recipe="baseline_svm", gamma=0.5, use_dev=True), "--gamma does not apply"),
        (dict(whiten_depth=2), "--whiten-depth > 1 requires --use-dev"),
    ], ids=["gamma-without-dev", "gamma-with-svm", "depth-without-dev"])
    def test_fit_refuses_the_flag_combinations_train_refuses(self, edit, message):
        # a library caller cannot build the flags that `train` refuses
        from dialectid.errors import ValidationError

        with pytest.raises(ValidationError, match=message):
            TrainFlags(**{"recipe": "cds", **edit})


class TestFlagTypes:
    @pytest.mark.parametrize("name, value", [
        ("seed", True), ("whiten_depth", True), ("svm_epochs", 2.5), ("use_dev", 1),
        ("use_dev", None), ("recipe", None), ("svm_c", True), ("svm_c", "0.01"),
        ("gamma", True), ("siam_out_dim", 2.0), ("siam_pairs", None),
    ])
    def test_value_of_another_type_is_refused(self, name, value):
        from dialectid.errors import ValidationError

        with pytest.raises(ValidationError, match="^%s must be " % name):
            TrainFlags(**{"recipe": "cds", "use_dev": True, name: value})

    def test_int_too_large_for_a_float_is_refused(self):
        from dialectid.errors import ValidationError

        with pytest.raises(ValidationError, match="svm_c=1000.* is too large for a float"):
            TrainFlags(recipe="cds", svm_c=10**400)

    def test_float_field_stores_an_int_as_a_float(self):
        from dialectid.fileio import config_fingerprint

        ints = TrainFlags(recipe="cds", use_dev=True, gamma=1, svm_c=1, dev_emphasis=0)
        floats = TrainFlags(recipe="cds", use_dev=True, gamma=1.0, svm_c=1.0, dev_emphasis=0.0)
        assert all(type(v) is float for v in (ints.gamma, ints.svm_c, ints.dev_emphasis))
        assert (config_fingerprint(dataclasses.asdict(ints))
                == config_fingerprint(dataclasses.asdict(floats)))


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
        # alternatives given together, or a grid step with fixed weights
        ("--weights", "0.5", "--fit-weights"),
        ("--weights", "1", "--resolution", "0.3"),
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

    @pytest.mark.parametrize("scores, resolution, message", [
        (1, "0", "resolution must be positive, got 0.0"),
        (1, "0.3", "resolution must divide 1 evenly"),
        (2, "1e-6", "fusion grid of 1000001 points is above 100000"),
    ], ids=["zero", "uneven", "grid-above-cap"])
    def test_grid_is_checked_before_a_file_is_read(self, tmp_path, capsys, scores, resolution,
                                                   message):
        # none of the files exist: a read would exit 4
        capsys.readouterr()
        assert run("calibrate-fuse", "--scores", *[tmp_path / ("nope%d.scores" % i)
                                                   for i in range(scores)],
                   "--labels", tmp_path / "nope.ivec", "--out-dir", tmp_path / "f",
                   "--fit-weights", "--resolution", resolution) == 2
        assert only_stderr_line(capsys) == "validation error: " + message
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

    @pytest.mark.parametrize("flags, message", [
        (("--svm-c", "-1"), "--svm-c: C must be finite and positive (C=-1.0, rows=1)"),
        (("--svm-epochs", 0), "--svm-epochs: epochs must be >= 1"),
        (("--siam-epochs", -1), "--siam-epochs: epochs must be at least 0, got -1"),
        (("--siam-pairs", 0), "--siam-pairs: n_pairs must be at least 1, got 0"),
        (("--use-dev", "--dev-emphasis", "-1"), "--dev-emphasis: dev_emphasis must be "
         "nonnegative and keep (1 + dev_emphasis) x rows finite; got -1.0, rows=1"),
    ], ids=["svm-c", "svm-epochs", "siam-epochs", "siam-pairs", "dev-emphasis"])
    def test_passed_through_error_names_its_flag(self, tiny_data, tmp_path, capsys, flags,
                                                 message):
        # the library's message names its own field; the flag goes in front of it
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("train", "--recipe", "siam_cds", *flags, "--data-dir", tiny_data,
                   "--model-dir", out) == 2
        assert only_stderr_line(capsys) == "validation error: " + message
        assert not out.exists()


# per TrainFlags field, values that no data set makes valid; the switch use_dev has none
OUT_OF_RANGE = {
    "recipe": st.sampled_from(["nope", "CDS", "lda", ""]),
    "whiten_depth": st.integers(max_value=0) | st.integers(min_value=4),
    "gamma": st.floats().filter(lambda g: not 0 <= g <= 1),
    "seed": st.integers(max_value=-1),
    # 5e-324 is positive, but 1/C overflows
    "svm_c": st.floats().filter(lambda c: not 0 < c < math.inf) | st.just(5e-324),
    "svm_epochs": st.integers(max_value=0) | st.integers(min_value=10**8 + 1),
    "siam_out_dim": st.integers(max_value=0),
    # 3334 epochs of the default 3000 pairs are above the 10^7 pair steps
    "siam_epochs": st.integers(max_value=-1) | st.integers(min_value=3334),
    "siam_pairs": st.integers(max_value=0) | st.integers(min_value=10**7 + 1),
    "dev_emphasis": st.floats().filter(lambda e: not 0 <= e < math.inf),
}


def train_subparser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["train"]


class TestFlagsBeforeFiles:
    """`train` builds its TrainFlags, and so checks every flag for every recipe,
    before it opens a file."""

    @pytest.fixture(scope="class")
    def unreadable(self, tmp_path_factory):
        """a data dir whose trn.ivec is a directory, so reading it is an OSError"""
        data = tmp_path_factory.mktemp("unreadable")
        (data / "trn.ivec").mkdir()
        return data

    def test_every_field_has_out_of_range_values(self):
        fields = {f.name for f in dataclasses.fields(TrainFlags)}
        assert set(OUT_OF_RANGE) == fields - {"use_dev"}

    def test_valid_flags_reach_the_unreadable_trn(self, unreadable, tmp_path):
        code, err = run_captured("train", "--recipe", "cds", "--data-dir", unreadable,
                                 "--model-dir", tmp_path / "model")
        assert (code, len(err)) == (4, 1) and err[0].startswith("i/o error:"), err

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_out_of_range_value_exits_2_before_trn_is_read(self, unreadable, data):
        name = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        value = data.draw(OUT_OF_RANGE[name])
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "model"
            code, err = run_captured("train", "--recipe", "cds", "--use-dev",
                                     "--data-dir", unreadable, "--model-dir", model,
                                     "--%s=%s" % (name.replace("_", "-"), value))
            assert (code, len(err)) == (2, 1) and err[0].startswith("validation error:"), err
            assert not model.exists()

    @pytest.mark.parametrize("name, value", [
        *[(n, "abc") for n, (kind, _) in sorted(flag_types().items()) if kind in (int, float)],
        ("seed", "2.5"), ("whiten_depth", "")])
    def test_unparseable_value_exits_2_naming_the_flag(self, unreadable, tmp_path, name, value):
        code, err = run_captured("train", "--recipe", "cds", "--use-dev", "--data-dir",
                                 unreadable, "--model-dir", tmp_path / "model",
                                 "--" + name.replace("_", "-"), value)
        assert (code, len(err)) == (2, 1), err
        assert err[0].startswith("validation error: %s must be " % name), err
        assert err[0].endswith("got %r" % value), err
        assert not (tmp_path / "model").exists()

    def test_train_options_are_the_flag_fields(self):
        parser = train_subparser()
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == {"--data-dir", "--model-dir"} | {
            "--" + f.name.replace("_", "-") for f in dataclasses.fields(TrainFlags)}
        args = parser.parse_args(["--recipe", "cds", "--data-dir", "d", "--model-dir", "m"])
        assert TrainFlags(**{f.name: getattr(args, f.name) for f in dataclasses.fields(
            TrainFlags)}) == TrainFlags(recipe="cds")


class TestSiameseMinimumDim:
    @pytest.mark.parametrize("dim", [21, 22])
    def test_default_stack_needs_dim_22(self, tmp_path, dim):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("dim=%d\nn_trn=6\nn_dev=3\nn_tst=2\nseed=1\n" % dim)
        assert run("synth", "--config", cfg, "--out-dir", tmp_path / "data") == 0
        code, err = run_captured("train", "--recipe", "siam_cds", "--siam-epochs", 1,
                                 "--siam-pairs", 20, "--data-dir", tmp_path / "data",
                                 "--model-dir", tmp_path / "model")
        if dim == 21:
            assert (code, err) == (2, ["validation error: input dim 21 too small for the "
                                       "twin-network stack, which needs at least 22"])
        else:
            assert (code, err) == (0, [])


class TestFitAndLoadScoreAlike:
    @pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
    def test_bitwise_equal_at_500_rows(self, tmp_path, recipe):
        from dialectid.backend import Backend

        ds = generate(SynthConfig(dim=24, n_trn=20, n_dev=10, n_tst=100, seed=3))
        flags = TrainFlags(recipe=recipe, use_dev=True, svm_epochs=20, siam_epochs=1,
                           siam_pairs=200)
        fitted = Backend.fit(ds.trn, ds.dev, flags)
        fitted.save(tmp_path)
        loaded, _ = Backend.load(tmp_path)
        assert loaded.flags == flags and len(ds.tst) == 500
        (labels, a), (loaded_labels, b) = (x.score(ds.tst.vectors) for x in (fitted, loaded))
        assert labels == loaded_labels and a.tobytes() == b.tobytes()


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
        code, err = run_captured("score", "--model-dir", model_dir,
                                 "--data", root / "data" / "tst.ivec", "--out", out)
        return code, err, os.path.exists(out)


def assert_exit_4(result, names=""):
    """One ``i/o error:`` line (holding `names`), exit 4 and no score table."""
    code, err, wrote = result
    assert code == 4 and len(err) == 1 and err[0].startswith("i/o error:"), (code, err)
    assert names in err[0]
    assert not wrote


ANY_RECIPE = st.sampled_from(sorted(RECIPE_FLAGS))


class TestLabelsFromAVectorSet:
    """`--labels` reads a vector set's ids and labels only; `score --data` reads its values."""

    @pytest.fixture()
    def short(self, trained, tmp_path):
        """tiny TST under its own file name, with the first row one value short"""
        head, first, *rest = (trained / "data" / "tst.ivec").read_text().splitlines(keepends=True)
        path = tmp_path / "short" / "tst.ivec"
        path.parent.mkdir()
        path.write_text(head + first.rsplit(" ", 1)[0] + "\n" + "".join(rest))
        return path

    def test_evaluate_and_fuse_report_as_from_the_intact_file(self, trained, tmp_path, short):
        tables = [tmp_path / ("%s.scores" % recipe) for recipe in ("cds", "lda_cds")]
        for table in tables:
            assert run("score", "--model-dir", trained / table.stem, "--data",
                       trained / "data" / "tst.ivec", "--out", table) == 0
        reports = []
        for labels in (trained / "data" / "tst.ivec", short):
            out = tmp_path / "out" / labels.parent.name
            out.mkdir(parents=True)
            assert run("evaluate", "--scores", tables[0], "--labels", labels,
                       "--out", out / "report.txt") == 0
            assert run("calibrate-fuse", "--scores", *tables, "--labels", labels,
                       "--fit-weights", "--out-dir", out / "fused") == 0
            reports.append([(out / name).read_text() for name in ("report.txt",
                                                                  "fused/report.txt")])
        # the two labels files share a name, so fitted_on= matches too
        assert reports[0] == reports[1]

    def test_score_refuses_the_short_row(self, trained, tmp_path, short, capsys):
        out = tmp_path / "x.scores"
        capsys.readouterr()
        assert run("score", "--model-dir", trained / "cds", "--data", short, "--out", out) == 4
        assert only_stderr_line(capsys) == "i/o error: %s:2: expected 32 values, got 31" % short
        assert not out.exists()


class TestRowOrder:
    @pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
    def test_reversed_rows_score_byte_identical(self, trained, tmp_path, recipe):
        tst = trained / "data" / "tst.ivec"
        head, *rows = tst.read_text().splitlines(keepends=True)
        reversed_tst = tmp_path / "reversed.ivec"
        reversed_tst.write_text(head + "".join(rows[::-1]))
        outs = [tmp_path / "tst.scores", tmp_path / "reversed.scores"]
        for data, out in zip((tst, reversed_tst), outs):
            assert run("score", "--model-dir", trained / recipe, "--data", data, "--out", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


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

    @pytest.mark.parametrize("edit", [dict(seed=-1), dict(svm_c=-1.0), dict(recipe="nope"),
                                      dict(whiten_depth=0), dict(siam_pairs=0), dict(use_dev=1),
                                      dict(seed=True), dict(whiten_depth=True),
                                      dict(svm_epochs=2.5)],
                             ids=["seed", "svm-c", "recipe", "whiten-depth", "siam-pairs",
                                  "use-dev-int", "seed-bool", "whiten-depth-bool",
                                  "svm-epochs-float"])
    def test_stored_flag_out_of_range_exits_4(self, trained, edit):
        from dialectid.fileio import config_fingerprint

        text, sidecar = model_files(trained, "cds")
        blob = json.loads(text)
        blob["payload"]["flags"].update(edit)
        blob["fingerprint"] = config_fingerprint(blob["payload"]["flags"])
        assert_exit_4(score_with_model(trained, json.dumps(blob).encode(), sidecar),
                      "ValidationError")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_strict_json_flag_exits_4(self, trained, token):
        text, sidecar = model_files(trained, "cds")
        assert b'"svm_c":0.01' in text
        text = text.replace(b'"svm_c":0.01', b'"svm_c":' + token.encode())
        assert_exit_4(score_with_model(trained, text, sidecar), "%s is not strict JSON" % token)

    def test_embedding_dim_other_than_the_flags_exits_4(self, trained, tmp_path):
        # the dense layer and the dialect models cut consistently to one dim less, with
        # the sidecar and its sha256 rewritten: only the flags tell the arrays are wrong
        from dialectid.fileio import load_artifact, save_artifact

        payload, fingerprint = load_artifact(trained / "siam_cds" / "model.json", "model")
        siam = payload["siamese"]
        out_dim = siam["biases"][2].size - 1
        for name in ("weights", "biases"):
            siam[name][2] = siam[name][2][:out_dim]
        models = payload["models"][:, :out_dim]
        payload["models"] = models / np.linalg.norm(models, axis=1, keepdims=True)
        save_artifact(tmp_path / "model.json", "model", fingerprint, payload)
        text, sidecar = ((tmp_path / name).read_bytes() for name in ("model.json", "model.f64"))
        assert_exit_4(score_with_model(trained, text, sidecar), "embedding dim %d" % out_dim)

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


def copy_data(trained, root, **replace):
    """`root`/data holding tiny TRN and DEV, or `replace`'s file for a name."""
    data = root / "data"
    data.mkdir()
    for name in ("trn", "dev"):
        if name in replace:
            replace[name](trained / "data" / ("%s.ivec" % name), data / ("%s.ivec" % name))
        else:
            shutil.copy(trained / "data" / ("%s.ivec" % name), data)
    return data


def first_16_values(src, dst):
    """Write the vector set `src` to `dst` with the first 16 values of each row."""
    ds = load_ivector_set(src)
    save_ivector_set(ds.with_vectors(ds.vectors[:, :16]), dst)


def unlabeled(src, dst):
    """Write the vector set `src` to `dst` with every row's label replaced by ``-``."""
    head, *rows = Path(src).read_text().splitlines(keepends=True)
    Path(dst).write_text(head + "".join(
        "%s\t-\t%s" % (row.split("\t")[0], row.split("\t")[2]) for row in rows))


class TestDimAndLabelErrors:
    """`Backend` and the whitening chain check dims and labels, not the CLI; each
    refusal exits 2 with one line that names the dims or the missing labels, and
    writes nothing."""

    @pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
    def test_train_with_dev_of_another_dim(self, trained, tmp_path, recipe):
        data = copy_data(trained, tmp_path, dev=first_16_values)
        model = tmp_path / "model"
        code, err = run_captured("train", "--recipe", recipe, "--data-dir", data,
                                 "--model-dir", model, "--use-dev")
        assert (code, len(err)) == (2, 1), err
        assert not model.exists()
        assert re.fullmatch(r"validation error: \D*\b32\b\D*\b16\b\D*", err[0]), err

    @pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
    def test_score_tst_of_another_dim(self, trained, tmp_path, recipe):
        tst, out = tmp_path / "tst.ivec", tmp_path / "tst.scores"
        first_16_values(trained / "data" / "tst.ivec", tst)
        code, err = run_captured("score", "--model-dir", trained / recipe, "--data", tst,
                                 "--out", out)
        assert (code, len(err)) == (2, 1), err
        assert not out.exists()
        assert re.fullmatch(r"validation error: \D*\b16\b\D*\b32\b\D*", err[0]), err

    @pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
    def test_train_on_unlabeled_trn(self, trained, tmp_path, recipe):
        data = copy_data(trained, tmp_path, trn=unlabeled)
        model = tmp_path / "model"
        code, err = run_captured("train", "--recipe", recipe, "--data-dir", data,
                                 "--model-dir", model, *RECIPE_FLAGS[recipe])
        assert (code, len(err)) == (2, 1), err
        assert not model.exists()
        assert "no labels" in err[0], err


@pytest.fixture(scope="module")
def cds_scores(trained):
    """tiny TST scored by the trained cds model, in a directory of its own"""
    out = trained / "cds-scores" / "tst.scores"
    out.parent.mkdir()
    assert run("score", "--model-dir", trained / "cds", "--data", trained / "data" / "tst.ivec",
               "--out", out) == 0
    return out


# how a row is broken -> the exit code the README gives for it
MUTATIONS = {"repeated-id": 2, "non-finite": 2, "dropped-value": 4, "unparseable": 4}
NON_FINITE_SPELLINGS = ["nan", "-Infinity", "1e400"]
UNPARSEABLE = ["1,5", "0x10", "abc", "1e", "--1"]


class TestMutatedInputFiles:
    """One broken row in a vector set or score table is refused by the command
    that parses its values: exit 2 or 4, one stderr line that starts with the
    file and the row's line, and no output."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_refused_by_line(self, trained, cds_scores, data):
        name = data.draw(st.sampled_from(["trn.ivec", "dev.ivec", "tst.ivec", "tst.scores"]))
        mutation = data.draw(st.sampled_from(sorted(MUTATIONS)))
        src = cds_scores if name == "tst.scores" else trained / "data" / name
        head, *rows = src.read_text().splitlines()
        k = data.draw(st.integers(1, len(rows) - 1))
        fields = rows[k].split("\t")
        vector_set = name.endswith(".ivec")
        values = fields[2].split(" ") if vector_set else fields[1:]
        if mutation == "repeated-id":
            fields[0] = rows[data.draw(st.integers(0, k - 1))].split("\t")[0]
        else:
            i = data.draw(st.integers(0, len(values) - 1))
            if mutation == "dropped-value":
                del values[i]
            else:
                values[i] = data.draw(st.sampled_from(
                    NON_FINITE_SPELLINGS if mutation == "non-finite" else UNPARSEABLE))
        rows[k] = "\t".join(fields[:2] + [" ".join(values)] if vector_set
                            else fields[:1] + values)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            data_dir = copy_data(trained, root)
            path = data_dir / name
            path.write_text("\n".join([head] + rows) + "\n")
            if name in ("trn.ivec", "dev.ivec"):
                out = root / "model"
                argv = ("train", "--recipe", "cds", "--use-dev", "--data-dir", data_dir,
                        "--model-dir", out)
            elif name == "tst.ivec":
                out = root / "tst.scores"
                argv = ("score", "--model-dir", trained / "cds", "--data", path, "--out", out)
            elif data.draw(st.booleans()):
                out = root / "report.txt"
                argv = ("evaluate", "--scores", path, "--labels", trained / "data" / "tst.ivec",
                        "--out", out)
            else:
                out = root / "fused"
                argv = ("calibrate-fuse", "--scores", path, "--labels",
                        trained / "data" / "tst.ivec", "--weights", "1.0", "--out-dir", out)
            code, err = run_captured(*argv)
            assert (code, len(err)) == (MUTATIONS[mutation], 1), err
            prefix = "validation error: " if code == 2 else "i/o error: "
            assert err[0].startswith("%s%s:%d: " % (prefix, path, k + 2)), err
            assert not out.exists()
