"""Command-line pipeline: synth, train, score, calibrate-fuse, evaluate.

Every subcommand is deterministic given its inputs and seed; rerunning a
command writes byte-identical files, and every file is written whole (see
`fileio.write_whole`). A model directory's ``model.json`` carries the
fingerprint of the training flags, which scoring verifies before trusting it,
and the size and sha256 of its array sidecar ``model.f64``.

Exit codes: 0 success, 2 validation failure, 3 numeric failure, 4 I/O or
format failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import calibration, dialect_model, fileio, siamese, svm
from .backend import RECIPES, Backend
from .data import Domain, IVectorSet, ScoreTable, validate_dataset
from .errors import DialectIdError, FormatError, NumericError, ValidationError
from .metrics import confusion, render_report
from .synth import SynthConfig, generate


def _synth_config_from_file(path) -> SynthConfig:
    defaults = vars(SynthConfig())
    kwargs = {}
    for key, value in fileio.parse_config(path, known_keys=tuple(defaults)).items():
        try:
            kwargs[key] = type(defaults[key])(value)  # int or float, as the field
        except ValueError:
            raise FormatError("config key %r has unparseable value %r" % (key, value))
    return SynthConfig(**kwargs)


def cmd_synth(args) -> int:
    cfg = _synth_config_from_file(args.config) if args.config else SynthConfig(seed=args.seed)
    data = generate(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split in ("trn", "dev", "tst"):
        fileio.save_ivector_set(getattr(data, split), out / ("%s.ivec" % split))
    fingerprint = fileio.config_fingerprint({"synth": vars(cfg).copy()})
    fileio.save_artifact(
        out / "ground_truth.json", "ground_truth", fingerprint,
        {
            "labels": list(data.labels),
            "dialect_means": data.dialect_means,
            "channel_offset": data.channel_offset,
            "config": vars(cfg).copy(),
        },
    )
    print("wrote trn/dev/tst vector sets to %s" % out)
    return 0


def _load_valid(path, domain: Domain) -> IVectorSet:
    dataset = fileio.load_ivector_set(path, domain=domain)
    report = validate_dataset(dataset)
    if not report.ok:
        raise ValidationError("%s fails validation: %s" % (path, "; ".join(report.violations)))
    return dataset


def cmd_train(args) -> int:
    data_dir = Path(args.data_dir)
    trn = _load_valid(data_dir / "trn.ivec", Domain.TRN)
    dev = _load_valid(data_dir / "dev.ivec", Domain.DEV) if args.use_dev else None
    if dev is not None and dev.dim != trn.dim:
        raise ValidationError("trn/dev dimension mismatch")
    labels = sorted({u.label for u in trn.utterances if u.label is not None})
    if not labels:
        raise ValidationError("training data has no labels")

    # everything Backend.fit reads; the model directory carries its fingerprint
    flags = {
        "recipe": args.recipe,
        "whiten_depth": args.whiten_depth,
        "gamma": args.gamma,
        "use_dev": bool(args.use_dev),
        "seed": args.seed,
        "dim": trn.dim,
        "labels": labels,
        "svm_c": args.svm_c,
        "svm_epochs": args.svm_epochs,
        "siam_out_dim": args.siam_out_dim,
        "siam_epochs": args.siam_epochs,
        "siam_pairs": args.siam_pairs,
        "dev_emphasis": args.dev_emphasis,
    }
    fingerprint = Backend.fit(trn, dev, flags).save(args.model_dir, flags)
    print("trained %s -> %s (fingerprint %s)" % (args.recipe, args.model_dir, fingerprint))
    return 0


def cmd_score(args) -> int:
    backend, flags, fingerprint = Backend.load(args.model_dir)
    data = _load_valid(args.data, Domain.TST)
    if data.dim != backend.dim:
        raise ValidationError("data dim %d does not match model dim %d"
                              % (data.dim, backend.dim))
    data = data.subset(np.argsort(np.array(data.ids)))
    labels, scores = backend.score(data.vectors)
    table = ScoreTable(system_id="%s-%s" % (flags["recipe"], fingerprint[:8]),
                       labels=labels, utt_ids=data.ids, scores=scores)
    fileio.save_score_table(table, args.out)
    print("wrote %d score rows to %s" % (len(table), args.out))
    return 0


def cmd_calibrate_fuse(args) -> int:
    truth = fileio.load_labels(args.labels)
    tables = [fileio.load_score_table(p) for p in args.scores]
    calibrated = [calibration.apply_calibration(calibration.fit_calibration(t, truth), t)
                  for t in tables]

    if args.fit_weights:
        weights = calibration.fit_fusion_weights(calibrated, truth,
                                                 resolution=args.resolution)
    else:
        if args.weights is None:
            raise ValidationError("provide --weights or --fit-weights")
        try:
            values = [float(x) for x in args.weights.split(",")]
        except ValueError:
            raise ValidationError("--weights must be comma-separated numbers, got %r"
                                  % args.weights)
        if len(values) != len(tables):
            raise ValidationError("got %d weights for %d score files"
                                  % (len(values), len(tables)))
        weights = calibration.FusionWeights(tuple(zip([t.system_id for t in calibrated], values)))
    fused = calibration.fuse(calibrated, weights)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_score_table(fused, out_dir / "fused.scores")
    # calibration (and the fusion weights) were fitted on these labels
    report = _report_for_table(fused, truth) + "fitted_on=%s\n" % Path(args.labels).name
    fileio.write_whole(out_dir / "report.txt", report)
    sys.stdout.write(report)
    print("wrote %s and %s" % (out_dir / "fused.scores", out_dir / "report.txt"))
    return 0


def _report_for_table(table: ScoreTable, truth) -> str:
    missing = [u for u in table.utt_ids if u not in truth]
    if missing:
        raise ValidationError("missing labels for %d utterances (e.g. %r)"
                              % (len(missing), missing[0]))
    pred = dialect_model.classify_rows(table)
    cm = confusion({u: truth[u] for u in table.utt_ids}, pred, table.labels)
    return render_report(cm, system_id=table.system_id)


def cmd_evaluate(args) -> int:
    table = fileio.load_score_table(args.scores)
    truth = fileio.load_labels(args.labels)
    report = _report_for_table(table, truth)
    if args.out:
        fileio.write_whole(args.out, report)
    sys.stdout.write(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialectid",
        description="Dialect identification pipeline: synthesize, train, score, fuse, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic mismatch dataset")
    p.add_argument("--config", help="key=value config file (defaults used when omitted)")
    p.add_argument("--seed", type=int, default=0, help="seed when no config file is given")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a recipe on trn.ivec (and dev.ivec)")
    p.add_argument("--recipe", required=True, choices=RECIPES)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--whiten-depth", type=int, default=1)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--use-dev", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svm-c", type=float, default=svm.DEFAULT_C)
    p.add_argument("--svm-epochs", type=int, default=svm.DEFAULT_EPOCHS,
                   help="epochs x training rows must be at most %d" % svm.MAX_STEPS)
    p.add_argument("--siam-out-dim", type=int, default=None)
    p.add_argument("--siam-epochs", type=int, default=15)
    p.add_argument("--siam-pairs", type=int, default=3000,
                   help="pairs and siam-epochs x pairs must each be at most %d"
                   % siamese.MAX_PAIR_STEPS)
    p.add_argument("--dev-emphasis", type=float, default=0.0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a vector set file with a trained model")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("calibrate-fuse", help="calibrate score tables, fuse, evaluate")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--weights", default=None, help="comma-separated, aligned with --scores")
    p.add_argument("--fit-weights", action="store_true",
                   help="grid-search the weight simplex instead of --weights")
    p.add_argument("--resolution", type=float, default=0.1, help="weight grid step; "
                   "the grid may have at most %d points" % calibration.MAX_GRID_POINTS)
    p.set_defaults(func=cmd_calibrate_fuse)

    p = sub.add_parser("evaluate", help="evaluate a score table against labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print("validation error: %s" % err, file=sys.stderr)
        return 2
    except NumericError as err:
        print("numeric error: %s" % err, file=sys.stderr)
        return 3
    except (FormatError, OSError) as err:
        print("i/o error: %s" % err, file=sys.stderr)
        return 4
    except DialectIdError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
