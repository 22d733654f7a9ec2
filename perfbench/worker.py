"""Child process of the benchmark: one set-up, or the measured passes.

    worker.py setup   --workload W --seed N --scale S --trace 0|1 --out DIR --result FILE
    worker.py measure --workload W --seed N --scale S --trace 0|1 --data DIR --work DIR
                      --seconds T --result FILE

``setup`` times importing dialectid plus generating and writing the
workload's input files. ``measure`` runs whole passes of the workload one
step at a time (a closed loop with one client) until the next pass would
overrun ``--seconds``, and at least two passes, so every output can be
compared byte for byte between passes. With ``--trace 1`` the passes
alternate untraced and traced, and the traced ones record spans.

Both write a JSON result to ``--result``; ``run.py`` reads it.
"""
import time

_T0 = time.perf_counter()  # set-up time starts before dialectid is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_package():
    if not (SRC / "dialectid" / "__init__.py").is_file():
        raise SystemExit("perfbench: %s/dialectid not found; run from a full checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import dialectid
    # cli imports every layer but text_features; importing both here puts the
    # whole package's import cost into setup_s on every workload
    from dialectid import cli, text_features  # noqa: F401

    if Path(dialectid.__file__).resolve().parent != (SRC / "dialectid").resolve():
        raise SystemExit("perfbench: imported dialectid from %s, not %s"
                         % (dialectid.__file__, SRC))


def _digest(paths, arrays=()):
    h = hashlib.sha256()
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(path.parent)).encode())
            h.update(f.read_bytes())
    for group in arrays:
        for arr in group:
            h.update(arr.tobytes())
    return h.hexdigest()


def _accuracy(report: Path) -> float:
    for line in report.read_text(encoding="utf-8").splitlines():
        if line.startswith("accuracy="):
            return float(line.split("=", 1)[1])
    raise ValueError("%s has no accuracy line" % report)


def _score_rows(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


def cmd_setup(args):
    _import_package()
    import spans
    import workloads

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    out = Path(args.out)
    workloads.write_inputs(args.workload, args.scale, args.seed, out)
    end = time.perf_counter()
    result = {"setup_s": end - _T0,
              "digest": _digest(sorted(p for p in out.iterdir() if p.is_file()))}
    if args.trace:
        span_list, counts = tracer.take()
        result["trace"] = {"summary": spans.summarize(span_list, _T0, end), "counts": counts}
    Path(args.result).write_text(json.dumps(result))


def _environment():
    import importlib.util
    import platform

    import numpy
    import scipy

    from dialectid import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(numpy),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "dialectid_numba_kernels": bool(_kernels.NUMBA_ENABLED),
    }


def _blas_info(numpy):
    """numpy's BLAS library and the thread count it reports, where it can be asked."""
    import ctypes

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    info = {"library": libs[0].name if libs else "unknown", "threads": None}
    for lib in libs:
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def _run_pass(workload_steps, ctx, tracer, traced):
    """One pass; returns per-phase and per-step seconds and the failures it saw."""
    phases = {"train_s": 0.0, "score_s": 0.0, "fuse_s": 0.0}
    step_s, failures = {}, {}
    if traced:
        tracer.install()
    start = time.perf_counter()
    for step in workload_steps:
        t0 = time.perf_counter()
        try:
            step.run(ctx)
        except (Exception, SystemExit) as err:  # a failed step is counted, not fatal
            failures[step.name] = "%s: %s" % (type(err).__name__, err)
        step_s[step.name] = time.perf_counter() - t0
        phases[step.phase + "_s"] += step_s[step.name]
    end = time.perf_counter()
    if traced:
        tracer.uninstall()
    return dict(phases, wall_s=end - start, start=start, end=end, step_s=step_s), failures


def _check(step, ctx, expected_rows, floors, reference, record):
    """Why the step's outputs are wrong, or None; fills in `record`."""
    if step.rows_file:
        rows = _score_rows(ctx.out / step.rows_file)
        if rows != expected_rows:
            return "%s has %d rows, expected %d" % (step.rows_file, rows, expected_rows)
    if step.report:
        acc = record["accuracy"][step.report] = _accuracy(ctx.out / step.report)
        if acc < floors[step.report]:
            return "%s: accuracy %.4f %% is below the floor %.1f %%" % (
                step.report, acc, floors[step.report])
    if step.outputs or step.state_outputs:
        digest = _digest([ctx.out / p for p in step.outputs],
                         [ctx.state[key] for key in step.state_outputs])
        if reference.setdefault(step.name, digest) != digest:
            return "outputs differ from pass 0"
    if step.phase == "score" and step.rows_file:
        record["rows_scored"] += expected_rows
    return None


def cmd_measure(args):
    _import_package()
    import spans
    import workloads

    steps = workloads.steps(args.workload, args.scale)
    expected_rows = workloads.tst_size(args.workload, args.scale)
    floors = workloads.SCALES[args.scale]["floor_pct"][args.workload]
    data, work = Path(args.data), Path(args.work)
    tracer = spans.Tracer()
    passes, failures, traced_spans = [], [], []
    reference = {}  # step name -> output digest of the first pass
    attempted = 0
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        out = work / ("pass%d" % k)
        out.mkdir(parents=True)
        ctx = workloads.Context(data=data, out=out)
        times, failed = _run_pass(steps, ctx, tracer, traced)
        record = dict(times, traced=traced, rows_scored=0, accuracy={})

        # checks, outside the timed pass
        for step in steps:
            attempted += 1
            why = failed.get(step.name)
            if why is None:
                try:
                    why = _check(step, ctx, expected_rows, floors, reference, record)
                except (OSError, ValueError, KeyError) as err:
                    why = "%s: %s" % (type(err).__name__, err)
            if why is not None:
                failures.append({"pass": k, "step": step.name, "why": why})
        if traced:
            span_list, counts = tracer.take()
            summary = spans.summarize(span_list, times["start"], times["end"])
            attempted += 1  # the span accounting check
            failures += [{"pass": k, "step": "span accounting", "why": why}
                         for why in summary["problems"]]
            summary["fuse_grid_calls"] = spans.nested_calls(
                span_list, "calibration.fuse", "calibration.fit_fusion_weights")
            record["trace"] = {"summary": summary, "counts": counts}
            traced_spans.append(span_list)
        passes.append(record)
        if k == 0:
            # peak after one whole pass, so the number of passes cannot move it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
        del ctx
        shutil.rmtree(out)

        # with tracing, passes come in (untraced, traced) pairs
        unit = 2 if args.trace else 1
        elapsed = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= 2 and len(passes) % unit == 0 and (
                elapsed + unit * longest > args.seconds):
            break

    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "environment": _environment(),
        "spans": traced_spans,
        "step_phase": {step.name: step.phase for step in steps},
    }
    Path(args.result).write_text(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "measure"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--scale", required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        p.add_argument("--result", required=True)
        if mode == "setup":
            p.add_argument("--out", required=True)
        else:
            p.add_argument("--data", required=True)
            p.add_argument("--work", required=True)
            p.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    (cmd_setup if args.mode == "setup" else cmd_measure)(args)


if __name__ == "__main__":
    main()
