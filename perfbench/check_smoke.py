"""Smoke check of the benchmark at tiny input sizes.

    python3 perfbench/check_smoke.py

Runs every workload untraced and traced with ``--scale tiny`` and checks
that each run exits 0, that its last line is the result object, that it
emits exactly the metrics BENCHMARK.json lists for that mode, each with its
unit, and that no pipeline step failed (``ops_failed_frac`` is 0). It then
runs the benchmark in a directory that holds only BENCHMARK.json and the
benchmark's own files, where it must fail without printing a result.
Exits 1 and names every problem if any check fails.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _run(cwd, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=str(cwd), capture_output=True, text=True, timeout=170)


def check_runs(spec):
    problems = []
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s trace=%d" % (workload, trace)
            before = len(problems)
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (tag, proc.returncode, proc.stderr[-2000:]))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append("%s: %d of %d steps failed" % (
                    tag, result["failed"], result["attempted"]))
            if not any(line.startswith("ops_failed_frac") and "value=0 " in line
                       for line in lines):
                problems.append("%s: ops_failed_frac is not printed as 0" % tag)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (tag, missing, extra, wrong))
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append("%s: %s has no numeric value" % (tag, name))
            print(("ok " if len(problems) == before else "FAILED ") + tag)
    return problems


def check_without_sources():
    """The benchmark alone, without the package sources, must fail cleanly."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=str(work)))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, workloads.NAMES[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            return ["without sources: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:])]
        print("ok without sources (exit %d)" % proc.returncode)
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_runs(spec) + check_without_sources()
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
