"""Pipeline benchmark for dialectid.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads: ivec_pipeline and text_ngram (see workloads.py for what each
stresses and why). The seed makes the input files; the program
sees only those files.

One run sets the workload up in a fresh process, measures whole passes in
another, one pipeline step at a time (a closed loop with one client), then
sets up twice more; ``setup_s`` is the median of the three set-ups. BLAS
runs on one thread (never more than the CPUs available), which keeps BLAS
calls from waiting on a second, shared CPU; the run prints the thread
count BLAS reports.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; the pass and
phase times are built from each step's fastest time over the passes (see
`best_pass`), and the median of each is printed beside it. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
which come from spans around every public function of the package's layer
modules. The time outside any span is measured from the gaps between
top-level spans; the run checks that every span nests inside its parent
and the pass, that no self time is negative, and that the self times plus
the outside time add up to the traced pass's wall time.

Every pipeline step counts as one operation. A step fails on a non-zero exit
code, an exception, a score table with the wrong row count, a report
accuracy below its floor, or output that is not byte-identical to the
first pass. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (both stdlib-only at import time)
import workloads  # noqa: E402

SETUP_REPS = 3
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_LIMIT_S = 60.0


class RunError(Exception):
    pass


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = (
    # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_s", "s"),
    ("score_s", "s"),
    ("score_utt_per_s", "1/s"),
    ("fuse_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_pct", "%"),
)


def _fn(name, key):
    return lambda fx, counts: fx.get(name, {}).get(key, 0.0)


def _count(key):
    return lambda fx, counts: counts.get(key, 0.0)


def _rate(numerator, seconds_of):
    def value(fx, counts):
        s = fx.get(seconds_of, {}).get("s", 0.0)
        return counts.get(numerator, 0.0) / s if s > 0 else 0.0
    return value


def _ratio(numerator, denominator):
    def value(fx, counts):
        d = counts.get(denominator, 0.0)
        return counts.get(numerator, 0.0) / d if d > 0 else 0.0
    return value


def _per_epoch(fx, counts):
    epochs = counts.get("siamese.train.epochs", 0.0)
    return fx.get("siamese.train", {}).get("s", 0.0) / epochs if epochs else 0.0


def _inclusive(*names):
    return [("%s.s" % n, "s", _fn(n, "s")) for n in names]


# Per-layer metrics of a traced pass: (name, unit, value(functions, counts)).
# Units ending in "_computed" are derived from argument shapes, not measured.
PASS_LAYER = [
    ("cli.train.self_s", "s", _fn("cli.train", "self_s")),
    ("cli.score.self_s", "s", _fn("cli.score", "self_s")),
    *_inclusive("fileio.save_artifact"),
    ("fileio.save_artifact.bytes", "B", _count("fileio.save_artifact.bytes")),
    *_inclusive("fileio.load_artifact"),
    ("fileio.load_artifact.bytes", "B", _count("fileio.load_artifact.bytes")),
    *_inclusive("fileio.load_ivector_set"),
    ("fileio.load_ivector_set.rows_per_s", "1/s",
     _rate("fileio.load_ivector_set.rows", "fileio.load_ivector_set")),
    *_inclusive("fileio.save_score_table", "fileio.load_score_table",
                "fileio.load_transcripts", "whitening.fit_recursive_chain",
                "whitening.apply_chain"),
    ("whitening.apply_chain.rows", "count", _count("whitening.apply_chain.rows")),
    *_inclusive("lda.fit_lda", "lda.apply_lda", "siamese.sample_pairs", "siamese.train"),
    ("siamese.train.s_per_epoch", "s", _per_epoch),
    ("siamese.grad.calls", "count", _fn("siamese.grad", "calls")),
    *_inclusive("siamese.grad", "siamese.forward_batch"),
    ("siamese.forward_batch.rows", "count", _count("siamese.forward_batch.rows")),
    ("kernels.conv1d_forward.calls", "count", _fn("kernels.conv1d_forward", "calls")),
    *_inclusive("kernels.conv1d_forward"),
    ("kernels.conv1d_forward.flops", "flop_computed", _count("kernels.conv1d_forward.flops")),
    ("kernels.conv1d_forward.bytes", "B_computed", _count("kernels.conv1d_forward.bytes")),
    ("kernels.conv1d_backward.calls", "count", _fn("kernels.conv1d_backward", "calls")),
    *_inclusive("kernels.conv1d_backward"),
    ("kernels.conv1d_backward.flops", "flop_computed",
     _count("kernels.conv1d_backward.flops")),
    ("kernels.conv1d_backward.bytes", "B_computed", _count("kernels.conv1d_backward.bytes")),
    ("kernels.svm_epochs.calls", "count", _fn("kernels.svm_epochs", "calls")),
    *_inclusive("kernels.svm_epochs", "svm.train_linear_svm"),
    ("svm.train_linear_svm.steps_per_s", "step_computed/s",
     _rate("svm.steps", "svm.train_linear_svm")),
    ("svm.touched_floats_per_step", "float_computed", _ratio("svm.touched_floats", "svm.steps")),
    *_inclusive("svm.svm_decision", "text_features.build_vocab",
                "text_features.featurize_transcripts"),
    ("text_features.featurize_transcripts.rows_per_s", "1/s",
     _rate("text_features.featurize_transcripts.rows", "text_features.featurize_transcripts")),
    *_inclusive("text_features.normalize_for_chars"),
    ("text_features.vocab_size", "count", _count("text_features.vocab_size")),
    ("text_features.nnz_per_row", "count",
     _ratio("text_features.vectorize.nnz", "text_features.vectorize.rows")),
    *_inclusive("dialect_model.fit_dialect_means", "dialect_model.cds_score",
                "dialect_model.classify_rows", "calibration.fit_calibration",
                "calibration.fit_fusion_weights"),
    ("calibration.fuse.calls", "count", lambda fx, counts: counts["fuse_grid_calls"]),
    *_inclusive("metrics.confusion", "metrics.render_report"),
]

# per-layer metrics of the traced set-ups
SETUP_LAYER = _inclusive("fileio.save_ivector_set", "synth.generate")


def _layer_self(layer):
    return lambda fx, counts: counts["layer_self_s"].get(layer, 0.0)


# self time of each layer module in a pass; synth runs only in set-up
PASS_LAYER += [("%s.self_s" % spans.layer_prefix(m), "s", _layer_self(spans.layer_prefix(m)))
               for m in spans.LAYERS if m != "synth"]
PASS_LAYER += [
    ("trace.outside_s", "s", lambda fx, counts: counts["outside_s"]),
    ("trace.wall_s", "s", lambda fx, counts: counts["wall_s"]),
]


def best_pass(passes, step_phase):
    """Pass and phase times built from each step's fastest time over `passes`.

    Other tenants of a shared host only ever slow a step down, and they do
    so for seconds at a time, so the median of a short step flips between a
    fast and a slow mode from run to run; its fastest time does not.
    """
    best = {step: min(p["step_s"][step] for p in passes) for step in step_phase}
    times = {"wall_s": sum(best.values())}
    for phase in ("train", "score", "fuse"):
        times[phase + "_s"] = sum(t for step, t in best.items() if step_phase[step] == phase)
    return times


def tail(values):
    """Highest of p50/p90/p95/p99 with at least 10 samples above it, or None."""
    ordered = sorted(values)
    best = None
    for p in (50, 90, 95, 99):
        rank = math.ceil(p / 100 * len(ordered))  # nearest-rank percentile
        if rank >= 1 and len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _child_env(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _run_child(argv, env, limit_s):
    """Run a worker to completion; its output goes to our standard error.

    subprocess.run kills and reaps the worker if it overruns `limit_s` or
    if this process is interrupted or terminated.
    """
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], env=env, cwd=str(ROOT),
                              stdout=sys.stderr.fileno(), timeout=limit_s)
    except subprocess.TimeoutExpired:
        raise RunError("worker %s ran past %.0f s" % (argv[0], limit_s))
    if proc.returncode != 0:
        raise RunError("worker %s exited with %d" % (argv[0], proc.returncode))


def _source_digest():
    h = hashlib.sha256()
    for f in sorted((SRC / "dialectid").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def _git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(args, work):
    started = time.monotonic()
    cpus = len(os.sched_getaffinity(0))
    env = _child_env(min(BLAS_THREADS, cpus))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
              "--trace", str(args.trace)]

    setups, failures = [], []

    def remaining_s():
        return RUN_LIMIT_S - (time.monotonic() - started)

    def setup(rep):
        out, result = work / ("setup%d" % rep), work / ("setup%d.json" % rep)
        _run_child(["setup", *common, "--out", str(out), "--result", str(result)],
                   env, min(SETUP_LIMIT_S, remaining_s()))
        setups.append(json.loads(result.read_text()))
        if setups[-1]["digest"] != setups[0]["digest"]:
            failures.append({"pass": "setup%d" % rep, "step": "setup",
                             "why": "inputs differ from the first set-up"})
        return out

    # The passes read the first set-up's files; the other set-ups run after
    # them, so that the set-up samples are spread over the whole run.
    data = setup(0)
    result = work / "measure.json"
    _run_child(
        ["measure", *common, "--data", str(data), "--work", str(work / "passes"),
         "--seconds", str(args.seconds), "--result", str(result)],
        env, remaining_s() - SETUP_LIMIT_S)
    for rep in range(1, SETUP_REPS):
        shutil.rmtree(setup(rep))
    measured = json.loads(result.read_text())
    failures += measured["failures"]
    attempted = SETUP_REPS + measured["attempted"]

    env_record = dict(measured["environment"], git_rev=_git_rev(),
                      source_sha256=_source_digest(), nproc=os.cpu_count(),
                      cpus_usable=cpus, blas_threads_requested=min(BLAS_THREADS, cpus),
                      seed=args.seed, scale=args.scale)
    print("perfbench workload=%s seed=%d seconds=%g trace=%d scale=%s"
          % (args.workload, args.seed, args.seconds, args.trace, args.scale))
    print("load: closed loop, 1 client, one pipeline step at a time")
    print("environment: %s" % json.dumps(env_record, sort_keys=True))

    untraced = [p for p in measured["passes"] if not p["traced"]]
    if args.trace:
        metrics = _layer_metrics(setups, measured, untraced, failures)
        attempted += len(setups)  # the span accounting check of each set-up
    else:
        samples = {
            "setup_s": [s["setup_s"] for s in setups],
            "wall_s": [p["wall_s"] for p in untraced],
            "train_s": [p["train_s"] for p in untraced],
            "score_s": [p["score_s"] for p in untraced],
            "score_utt_per_s": [p["rows_scored"] / p["score_s"] for p in untraced
                                if p["score_s"] > 0],
            "fuse_s": [p["fuse_s"] for p in untraced],
            "peak_rss_mb": [measured["peak_rss_mb"]],
            "accuracy_pct": [p["accuracy"][workloads.FINAL_REPORT] for p in untraced
                             if workloads.FINAL_REPORT in p["accuracy"]],
        }
        values = {name: statistics.median(v) for name, v in samples.items() if v}
        values.update(best_pass(untraced, measured["step_phase"]))
        if values["score_s"] > 0:
            values["score_utt_per_s"] = max(p["rows_scored"] for p in untraced) / values["score_s"]
        metrics = {}
        for name, unit in END_TO_END:
            if name not in values:
                failures.append({"pass": "all", "step": name, "why": "no samples"})
                continue
            metrics[name] = {"value": values[name], "unit": unit}
            top = tail(samples[name])
            print("%-16s value=%-12.6g median=%-12.6g %-20s n=%-3d unit=%-4s samples=%s" % (
                name, values[name], statistics.median(samples[name]),
                "p%g=%.6g" % top if top else "tail=none(n<11)", len(samples[name]), unit,
                " ".join("%.4g" % v for v in samples[name])))
        print("TST size %d per score step; accuracy %% per report: %s" % (
            workloads.tst_size(args.workload, args.scale), json.dumps(untraced[0]["accuracy"])))
        print("step s (fastest: per pass): " + " ".join(
            "%s=%.4g:%s" % (step, min(p["step_s"][step] for p in untraced),
                            ",".join("%.4g" % p["step_s"][step] for p in untraced))
            for step in untraced[0]["step_s"]))

    failed = len(failures)
    for f in failures:
        print("FAILED pass=%s step=%s: %s" % (f["pass"], f["step"], f["why"]))
    print("%-16s value=%-12.6g (%d of %d steps) unit=fraction"
          % ("ops_failed_frac", failed / attempted, failed, attempted))

    if measured["spans"]:
        WORK_ROOT.mkdir(exist_ok=True)
        trace_file = WORK_ROOT / ("spans-%s.json" % args.workload)
        trace_file.write_text(json.dumps(measured["spans"]))
        print("spans of the traced passes (name, start, end, parent): %s" % trace_file)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_metrics(setups, measured, untraced, failures):
    traced = [p for p in measured["passes"] if p["traced"]]
    per_pass = []
    for p in traced:
        summary = p["trace"]["summary"]
        counts = dict(p["trace"]["counts"], layer_self_s=summary["layers"],
                      outside_s=summary["outside_s"], wall_s=summary["wall_s"],
                      fuse_grid_calls=summary["fuse_grid_calls"])
        per_pass.append({name: fn(summary["functions"], counts) for name, _, fn in PASS_LAYER})
    per_setup = [{name: fn(s["trace"]["summary"]["functions"], s["trace"]["counts"])
                  for name, _, fn in SETUP_LAYER} for s in setups]
    failures += [{"pass": "setup%d" % i, "step": "span accounting", "why": why}
                 for i, s in enumerate(setups) for why in s["trace"]["summary"]["problems"]]

    metrics = {}
    for layer, samples in ((PASS_LAYER, per_pass), (SETUP_LAYER, per_setup)):
        for name, unit, _ in layer:
            metrics[name] = {"value": statistics.median(v[name] for v in samples), "unit": unit}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in sorted(metrics.items()):
        print("%-48s %-14.6g %s" % (name, m["value"], m["unit"]))
    print("traced passes: %d, untraced passes: %d; units ending in _computed are derived "
          "from argument shapes" % (len(traced), len(untraced)))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="dialectid pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the smoke check only")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its worker (see _run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dialectid" / "__init__.py").is_file():
        print("perfbench: no dialectid sources under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-%s-" % args.workload, dir=str(WORK_ROOT)))
    try:
        result = run(args, work)
    except RunError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
