"""What each entry point imports: scipy only in the calls that use it.

Every `dialectid` command is its own process, so an import at module level
is paid by every step of a run. scipy is loaded only by `fit_lda`
(scipy.linalg) and by the sparse text path (scipy.sparse). The test process
has scipy loaded already, so each case runs in a fresh interpreter and
reports the `scipy*` names in its `sys.modules`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dialectid

SRC = Path(dialectid.__file__).resolve().parents[1]

_SYNTH = """
from dialectid.cli import main

def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv

open("synth.cfg", "w").write("dim=32\\nn_trn=12\\nn_dev=6\\nn_tst=6\\nseed=2\\n")
run("synth", "--config", "synth.cfg", "--out-dir", "data")
"""

CASES = {
    "import": "import dialectid, dialectid.cli, dialectid.fileio, dialectid.text_features",
    "transcripts": """
from dialectid.fileio import load_transcripts, save_transcripts
from dialectid.text_features import Transcript

save_transcripts([Transcript("u1", ("a", "b")), Transcript("u2", ("c",))], "t.txt")
assert [t.tokens for t in load_transcripts("t.txt")] == [("a", "b"), ("c",)]
""",
    "cli": _SYNTH + """
flags = {"cds": (), "baseline_svm": ("--use-dev", "--svm-epochs", 5),
         "siam_cds": ("--use-dev", "--siam-epochs", 1, "--siam-pairs", 100)}
for recipe, extra in flags.items():
    run("train", "--recipe", recipe, "--data-dir", "data", "--model-dir", recipe, *extra)
    run("score", "--model-dir", recipe, "--data", "data/tst.ivec", "--out", recipe + ".scores")
run("evaluate", "--scores", "cds.scores", "--labels", "data/tst.ivec", "--out", "report.txt")
run("calibrate-fuse", "--scores", *[r + ".scores" for r in flags], "--labels",
    "data/tst.ivec", "--fit-weights", "--out-dir", "fused")
""",
    "lda": _SYNTH + """
run("train", "--recipe", "lda_cds", "--data-dir", "data", "--model-dir", "m", "--use-dev")
""",
    "featurize": """
from dialectid.text_features import Transcript, build_vocab, featurize_transcripts

docs = [Transcript("u1", ("a", "b", "a")), Transcript("u2", ("b", "c"))]
assert featurize_transcripts(docs, build_vocab(docs, 2)).shape[0] == 2
""",
}

_REPORT = """
import json, sys
json.dump(sorted(m for m in sys.modules if m.startswith("scipy")), open("scipy.json", "w"))
"""


def _scipy_after(case, tmp_path):
    script = CASES[case] + _REPORT
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads((tmp_path / "scipy.json").read_text()))


@pytest.mark.parametrize("case", ["import", "transcripts", "cli"])
def test_no_scipy(case, tmp_path):
    assert _scipy_after(case, tmp_path) == set()


def test_lda_loads_linalg_only(tmp_path):
    loaded = _scipy_after("lda", tmp_path)
    assert "scipy.linalg" in loaded and "scipy.sparse" not in loaded


def test_featurize_loads_sparse(tmp_path):
    assert "scipy.sparse" in _scipy_after("featurize", tmp_path)
