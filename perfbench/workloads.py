"""The benchmark workloads: their inputs, sizes and pipeline steps.

``ivec_pipeline`` runs the CLI in-process (``dialectid.cli.main(argv)``) on
files written by ``dialectid synth``; ``text_ngram`` calls the library,
because the text systems have no CLI. Every workload derives its inputs
from the benchmark seed alone, and the program sees only the files.

Why these workloads:

* ``ivec_pipeline`` -- every i-vector recipe on one synthetic set, each
  system trained, scored and evaluated in turn: the paper's adapted
  systems (recursive whitening, interpolated dialect models, LDA) fused
  over the 66-point weight grid, the dense one-vs-rest SVM (nnz = dim =
  400) and the twin network (64-row mini-batches through the conv1d
  kernels, one 2000-row forward batch when scoring). JSON
  artifacts and the ``.ivec`` parse are heavy here; text does nothing.
* ``text_ngram`` -- the SVM on sparse rows where V >> nnz, the opposite of
  the i-vector SVM, plus dense n x V featurization that moves peak memory.
  Whitening, LDA, the twin network and the JSON artifacts do nothing.

``whitening``, ``lda``, ``siamese``, the ``_kernels`` conv1d kernels and
``synth`` run only in ``ivec_pipeline`` and ``text_features`` runs only in
``text_ngram``. ``svm`` runs in both, on dense rows in one and on sparse
rows in the other; ``fileio``, ``calibration``, ``metrics`` and
``dialect_model`` also run in both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

NAMES = ("ivec_pipeline", "text_ngram")

# Sizes per scale. "full" is what the benchmark measures; "tiny" only
# exercises every code path quickly, for the smoke check.
SCALES = {
    "full": {
        # the spreads keep the fused accuracy near 94 %, well below 100 %,
        # so a numerics change can show in accuracy_pct
        "synth": {"dim": 400, "num_dialects": 5, "n_trn": 400, "n_dev": 100,
                  "n_tst": 400, "within_std": 6.0, "channel_std": 3.0},
        "siam_epochs": 3,
        "siam_pairs": 3000,
        "text": {"n_trn": 300, "n_tst": 200, "n_words": 4000, "zipf": 1.0,
                 "boost": 15.0, "min_len": 14, "max_len": 34, "oov_rate": 0.03},
        "text_svm_epochs": 30,
        # accuracy floors per report, well below every seed seen while tuning
        "floor_pct": {"ivec_pipeline": {"report.txt": 85.0, "svm.report.txt": 80.0,
                                        "siam.report.txt": 30.0, "cds_adapted.report.txt": 45.0,
                                        "lda_cds.report.txt": 85.0, "cds.report.txt": 65.0},
                      "text_ngram": {"report.txt": 85.0, "word2.report.txt": 80.0,
                                     "char3.report.txt": 85.0}},
    },
    "tiny": {
        "synth": {"dim": 24, "num_dialects": 5, "n_trn": 20, "n_dev": 8,
                  "n_tst": 10, "within_std": 0.8, "channel_std": 1.6},
        "siam_epochs": 1,
        "siam_pairs": 200,
        "text": {"n_trn": 12, "n_tst": 6, "n_words": 300, "zipf": 1.0,
                 "boost": 8.0, "min_len": 10, "max_len": 20, "oov_rate": 0.03},
        "text_svm_epochs": 5,
        "floor_pct": {"ivec_pipeline": {"report.txt": 20.0, "svm.report.txt": 20.0,
                                        "siam.report.txt": 0.0, "cds_adapted.report.txt": 20.0,
                                        "lda_cds.report.txt": 20.0, "cds.report.txt": 20.0},
                      "text_ngram": {"report.txt": 20.0, "word2.report.txt": 20.0,
                                     "char3.report.txt": 20.0}},
    },
}

LABELS = ("EGY", "LEV", "GLF", "NOR", "MSA")


def tst_size(name: str, scale: str) -> int:
    sizes = SCALES[scale]
    if name == "text_ngram":
        return sizes["text"]["n_tst"] * len(LABELS)
    return sizes["synth"]["n_tst"] * sizes["synth"]["num_dialects"]


class StepFailed(Exception):
    pass


@dataclass
class Context:
    """What a pass's steps share: input and output dirs and in-memory state."""

    data: Path
    out: Path
    state: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Step:
    name: str
    phase: str  # "train", "score" or "fuse"
    run: Callable[[Context], None]
    outputs: tuple = ()  # files or dirs under the pass dir, compared across passes
    state_outputs: tuple = ()  # ctx.state keys of array tuples compared across passes
    rows_file: str = ""  # score table whose row count must equal the TST size
    report: str = ""  # report whose accuracy must reach its floor


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_inputs(name: str, scale: str, seed: int, out: Path) -> None:
    """Generate and write the workload's input files into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    if name == "text_ngram":
        _write_transcripts(SCALES[scale]["text"], seed, out)
        return
    from dialectid import cli

    cfg = dict(SCALES[scale]["synth"], seed=seed)
    (out / "synth.cfg").write_text("".join("%s=%s\n" % kv for kv in cfg.items()))
    code = _quiet(cli.main, ["synth", "--config", str(out / "synth.cfg"), "--out-dir", str(out)])
    if code != 0:
        raise StepFailed("synth exited with %d" % code)


def _write_transcripts(cfg: dict, seed: int, out: Path) -> None:
    """Word transcripts with dialect-skewed Zipf vocabularies.

    All dialects share one Zipf ranking of random words. Within every block
    of 2K consecutive ranks each of the K dialects owns one word, whose
    probability it multiplies by (1 + boost); the rest of the block is
    unowned. Owning one word per block gives every dialect the same share
    of frequent words, which keeps accuracy steady across seeds.
    """
    import numpy as np

    from dialectid import fileio
    from dialectid.text_features import DEFAULT_OOV_MARKER, Transcript

    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuv"))
    words, seen = [], set()
    while len(words) < cfg["n_words"]:
        word = "".join(rng.choice(letters, size=int(rng.integers(2, 8))))
        if word not in seen:
            seen.add(word)
            words.append(word)
    n_words, block = len(words), 2 * len(LABELS)
    owner = np.concatenate([rng.permutation(block) for _ in range(-(-n_words // block))])
    base = 1.0 / np.arange(1, n_words + 1) ** cfg["zipf"]
    probs = []
    for d in range(len(LABELS)):
        p = base * np.where(owner[:n_words] == d, 1.0 + cfg["boost"], 1.0)
        probs.append(p / p.sum())

    for split in ("trn", "tst"):
        transcripts, label_lines = [], []
        for d, label in enumerate(LABELS):
            for i in range(cfg["n_%s" % split]):
                length = int(rng.integers(cfg["min_len"], cfg["max_len"] + 1))
                tokens = [words[j] for j in rng.choice(n_words, size=length, p=probs[d])]
                for j in np.flatnonzero(rng.random(length) < cfg["oov_rate"]):
                    tokens[j] = DEFAULT_OOV_MARKER
                utt = "%s-%s-%04d" % (split, label, i)
                transcripts.append(Transcript(utt_id=utt, tokens=tuple(tokens)))
                label_lines.append("%s\t%s\n" % (utt, label))
        fileio.save_transcripts(transcripts, out / ("%s.txt" % split))
        (out / ("%s.labels" % split)).write_text("".join(label_lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# pipeline steps
# ---------------------------------------------------------------------------

def _quiet(fn, argv):
    """Run a CLI entry point with its report output swallowed."""
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        return fn(argv)


def _cli(name, phase, argv, outputs=(), rows_file="", report=""):
    def run(ctx: Context) -> None:
        from dialectid import cli

        args = [a.format(data=ctx.data, out=ctx.out) for a in argv]
        code = _quiet(cli.main, args)
        if code != 0:
            raise StepFailed("dialectid %s exited with %d" % (argv[0], code))

    return Step(name=name, phase=phase, run=run, outputs=tuple(outputs),
                rows_file=rows_file, report=report)


def _train(system, recipe, *flags):
    return _cli("train." + system, "train",
                ["train", "--recipe", recipe, "--data-dir", "{data}",
                 "--model-dir", "{out}/" + system, *flags], outputs=[system])


def _score(system):
    table = system + ".scores"
    return _cli("score." + system, "score",
                ["score", "--model-dir", "{out}/" + system, "--data", "{data}/tst.ivec",
                 "--out", "{out}/" + table], outputs=[table], rows_file=table)


def _evaluate(name, table, report):
    return _cli(name, "fuse",
                ["evaluate", "--scores", "{out}/" + table, "--labels", "{data}/tst.ivec",
                 "--out", "{out}/" + report], outputs=[report], report=report)


def _system(system, recipe, *flags):
    """Train, score and evaluate one i-vector system."""
    return [_train(system, recipe, *flags), _score(system),
            _evaluate("evaluate." + system, system + ".scores", system + ".report.txt")]


# the final report, whose accuracy is accuracy_pct
FINAL_REPORT = "report.txt"


def steps(name: str, scale: str) -> list:
    sizes = SCALES[scale]
    if name == "ivec_pipeline":
        fused = ("cds_adapted", "lda_cds", "cds")
        # Each system is scored and evaluated right after it is trained, and
        # the long SVM and twin-network fits sit between the short steps. The
        # short score and evaluate steps are thereby spread over the whole
        # pass, so a few slow seconds on a shared CPU cannot land on all of
        # them.
        return [
            *_system("cds_adapted", "cds", "--whiten-depth", "3", "--use-dev",
                     "--gamma", "0.91"),
            *_system("svm", "baseline_svm", "--use-dev"),
            *_system("lda_cds", "lda_cds", "--use-dev"),
            *_system("siam", "siam_cds", "--use-dev", "--siam-epochs", str(sizes["siam_epochs"]),
                     "--siam-pairs", str(sizes["siam_pairs"])),
            *_system("cds", "cds"),
            _cli("calibrate_fuse", "fuse",
                 ["calibrate-fuse", "--scores", *["{out}/%s.scores" % s for s in fused],
                  "--labels", "{data}/tst.ivec", "--fit-weights", "--out-dir", "{out}/fused"],
                 outputs=["fused"], rows_file="fused/fused.scores"),
            _evaluate("evaluate.fused", "fused/fused.scores", FINAL_REPORT),
        ]
    if name == "text_ngram":
        return _text_steps(sizes["text_svm_epochs"])
    raise ValueError("unknown workload %r" % name)


# text systems: word bigrams and character trigrams
TEXT_SYSTEMS = (("word2", 2), ("char3", 3))


def _text_steps(epochs: int) -> list:
    from dialectid import calibration, dialect_model, fileio, metrics, svm
    from dialectid import text_features as tf

    def load(ctx):
        st = ctx.state
        st["trn"] = fileio.load_transcripts(ctx.data / "trn.txt")
        st["tst"] = fileio.load_transcripts(ctx.data / "tst.txt")
        st["trn_labels"] = fileio.load_labels(ctx.data / "trn.labels")
        st["truth"] = fileio.load_labels(ctx.data / "tst.labels")

    def docs(ctx, split, system):
        if system == "word2":
            return ctx.state[split]
        return [tf.Transcript(utt_id=t.utt_id, tokens=tuple(tf.normalize_for_chars(t)),
                              source="char") for t in ctx.state[split]]

    def features(system, n):
        def run(ctx):
            trn = docs(ctx, "trn", system)
            vocab = tf.build_vocab(trn, n, mode=system)
            ctx.state[system + ".vocab"] = vocab
            ctx.state[system + ".X"] = tf.featurize_transcripts(trn, vocab)
        return run

    def fit(system):
        def run(ctx):
            labels = [ctx.state["trn_labels"][t.utt_id] for t in ctx.state["trn"]]
            X = ctx.state.pop(system + ".X")
            model = svm.train_linear_svm(X, labels, epochs=epochs, class_labels=LABELS)
            ctx.state[system + ".model"] = model
            ctx.state[system + ".params"] = (model.weights, model.biases)
        return run

    def tst_features(system):
        def run(ctx):
            ctx.state[system + ".Y"] = tf.featurize_transcripts(
                docs(ctx, "tst", system), ctx.state[system + ".vocab"])
        return run

    def score(system):
        def run(ctx):
            from dialectid.data import ScoreTable

            scores = svm.svm_decision(ctx.state[system + ".model"], ctx.state.pop(system + ".Y"))
            table = ScoreTable(system_id=system, labels=LABELS,
                               utt_ids=tuple(t.utt_id for t in ctx.state["tst"]), scores=scores)
            ctx.state[system + ".table"] = table
            fileio.save_score_table(table, ctx.out / (system + ".scores"))
        return run

    def write_report(ctx, table, name):
        truth = ctx.state["truth"]
        pred = dialect_model.classify_rows(table)
        cm = metrics.confusion({u: truth[u] for u in table.utt_ids}, pred, table.labels)
        report = metrics.render_report(cm, system_id=table.system_id)
        (ctx.out / name).write_text(report, encoding="utf-8")

    def calibrate(system):
        # each system gets its own calibrated report, checked against its
        # own accuracy floor; the fusion reuses the calibrated tables
        def run(ctx):
            table = ctx.state[system + ".table"]
            params = calibration.fit_calibration(table, ctx.state["truth"],
                                                 fit_domain="tst.labels")
            calibrated = calibration.apply_calibration(params, table)
            ctx.state[system + ".calibrated"] = calibrated
            write_report(ctx, calibrated, system + ".report.txt")
        return run

    def fuse(ctx):
        calibrated = [ctx.state[system + ".calibrated"] for system, _ in TEXT_SYSTEMS]
        weights = calibration.fit_fusion_weights(calibrated, ctx.state["truth"])
        fused = calibration.fuse(calibrated, weights)
        fileio.save_score_table(fused, ctx.out / "fused.scores")
        write_report(ctx, fused, FINAL_REPORT)

    out = [Step("load", "train", load)]
    for system, n in TEXT_SYSTEMS:
        out += [
            Step(system + ".features", "train", features(system, n)),
            Step(system + ".fit", "train", fit(system), state_outputs=(system + ".params",)),
            Step(system + ".tst_features", "train", tst_features(system)),
            Step(system + ".score", "score", score(system), outputs=(system + ".scores",),
                 rows_file=system + ".scores"),
            Step(system + ".calibrate", "fuse", calibrate(system),
                 outputs=(system + ".report.txt",), report=system + ".report.txt"),
        ]
    out.append(Step("calibrate_fuse", "fuse", fuse, outputs=("fused.scores", FINAL_REPORT),
                    rows_file="fused.scores", report=FINAL_REPORT))
    return out
