"""Command-line pipeline: synth, train, score, calibrate-fuse, evaluate.

Every subcommand is deterministic given its inputs and seed; rerunning a
command writes byte-identical files, and every file is written whole (see
`fileio.write_whole`). `train` checks every flag before it opens a file, and
`score` verifies a model directory (see `backend.Backend.load`).

Exit codes: 0 success, 2 validation failure, 3 numeric failure, 4 I/O or
format failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import calibration, dialect_model, fileio
from .backend import Backend, TrainFlags, flag_types
from .data import Domain, ScoreTable
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


def _parsed_as(kind):
    """An argparse type: a value `kind` cannot parse stays a str, which `TrainFlags` or
    `_checked_number` refuses in one line, where argparse would print its usage."""
    def parse(text):
        try:
            return kind(text)
        except ValueError:
            return text
    return parse


def _checked_number(flag: str, value, kind):
    """The value of a `_parsed_as(kind)` option; one left a str is refused, naming `flag`."""
    if isinstance(value, str):
        raise ValidationError("%s must be %s, got %r" % (flag, kind.__name__, value))
    return value


def cmd_synth(args) -> int:
    if args.config and args.seed is not None:
        raise ValidationError("--seed applies only without --config, whose seed key sets it")
    seed = 0 if args.seed is None else _checked_number("--seed", args.seed, int)
    cfg = _synth_config_from_file(args.config) if args.config else SynthConfig(seed=seed)
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


def cmd_train(args) -> int:
    # every flag is checked here, before a file is opened
    flags = TrainFlags(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainFlags)})
    data_dir = Path(args.data_dir)
    trn = fileio.load_ivector_set(data_dir / "trn.ivec", Domain.TRN)
    dev = fileio.load_ivector_set(data_dir / "dev.ivec", Domain.DEV) if flags.use_dev else None
    fingerprint = Backend.fit(trn, dev, flags).save(args.model_dir)
    print("trained %s -> %s (fingerprint %s)" % (flags.recipe, args.model_dir, fingerprint))
    return 0


def cmd_score(args) -> int:
    backend, fingerprint = Backend.load(args.model_dir)
    data = fileio.load_ivector_set(args.data, Domain.TST)
    data = data.subset(np.argsort(np.array(data.ids)))
    labels, scores = backend.score(data.vectors)
    table = ScoreTable(system_id="%s-%s" % (backend.flags.recipe, fingerprint[:8]),
                       labels=labels, utt_ids=data.ids, scores=scores)
    fileio.save_score_table(table, args.out)
    print("wrote %d score rows to %s" % (len(table), args.out))
    return 0


def cmd_calibrate_fuse(args) -> int:
    # the flags are checked before a file is read
    if args.fit_weights == (args.weights is not None):
        raise ValidationError("give exactly one of --weights and --fit-weights")
    if args.resolution is not None and not args.fit_weights:
        raise ValidationError("--resolution applies only to --fit-weights")
    resolution = (calibration.DEFAULT_RESOLUTION if args.resolution is None
                  else _checked_number("--resolution", args.resolution, float))
    if args.fit_weights:
        calibration.check_grid(resolution, len(args.scores))
    else:
        try:
            values = [float(x) for x in args.weights.split(",")]
        except ValueError:
            raise ValidationError("--weights must be comma-separated numbers, got %r"
                                  % args.weights)
    truth = fileio.load_labels(args.labels)
    tables = [fileio.load_score_table(p) for p in args.scores]
    fits = [calibration.fit_calibration(t, truth) for t in tables]
    for params in fits:
        if params.scale == calibration.MIN_SLOPE:
            print("warning: the calibration slope fitted for system %r is not positive, so "
                  "it is clamped to %g and the system's calibrated scores are all but constant"
                  % (params.system_id, calibration.MIN_SLOPE), file=sys.stderr)
    calibrated = [calibration.apply_calibration(p, t) for p, t in zip(fits, tables)]

    if args.fit_weights:
        weights = calibration.fit_fusion_weights(calibrated, truth, resolution)
    else:
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
    p.add_argument("--seed", type=_parsed_as(int), default=None,
                   help="seed when no config file is given, 0 when omitted")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a recipe on trn.ivec (and dev.ivec)")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--model-dir", required=True)
    kinds = flag_types()
    for f in dataclasses.fields(TrainFlags):  # one option per field
        kind = kinds[f.name][0]
        how = {"action": "store_true"} if kind is bool else {
            "type": _parsed_as(kind), "default": f.default,
            "required": f.default is dataclasses.MISSING}
        p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"], **how)
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
    p.add_argument("--resolution", type=_parsed_as(float), default=None,
                   help="weight grid step of --fit-weights, %g when omitted; the grid may "
                   "have at most %d points"
                   % (calibration.DEFAULT_RESOLUTION, calibration.MAX_GRID_POINTS))
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
