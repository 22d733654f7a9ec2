"""Every entry point runs without scipy: the package's numerics are numpy only.

Each case runs in a fresh interpreter whose ``sys.modules["scipy"]`` is
None, so any import of scipy or of one of its subpackages fails there.
The test process may have scipy loaded already, as the tests use it as
an oracle.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dialectid

SRC = Path(dialectid.__file__).resolve().parents[1]

_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
"""

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
flags = {"cds": (), "lda_cds": ("--use-dev",), "baseline_svm": ("--use-dev", "--svm-epochs", 5),
         "siam_cds": ("--use-dev", "--siam-epochs", 1, "--siam-pairs", 100)}
for recipe, extra in flags.items():
    run("train", "--recipe", recipe, "--data-dir", "data", "--model-dir", recipe, *extra)
    run("score", "--model-dir", recipe, "--data", "data/tst.ivec", "--out", recipe + ".scores")
run("evaluate", "--scores", "cds.scores", "--labels", "data/tst.ivec", "--out", "report.txt")
run("calibrate-fuse", "--scores", *[r + ".scores" for r in flags], "--labels",
    "data/tst.ivec", "--fit-weights", "--out-dir", "fused")
""",
    "text": """
from dialectid.svm import svm_decision, train_linear_svm
from dialectid.text_features import Transcript, build_vocab, featurize_transcripts

docs = [Transcript("u1", ("a", "b", "a")), Transcript("u2", ("b", "c")), Transcript("u3", ("d",))]
X = featurize_transcripts(docs, build_vocab(docs, 2))
assert len(X) == 3  # u3 has no bigram, so its row is empty
model = train_linear_svm(X, ["A", "B", "B"], epochs=3)
assert svm_decision(model, X).shape == (3, 2)
""",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_scipy(case, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY + CASES[case]], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_lda_loads_linalg_only(tmp_path):
    """lda_cds training uses numpy.linalg only: with scipy importable, none is loaded.

    test_no_scipy shows the run survives scipy being absent; this shows no
    call reaches for scipy when it is there (a guarded fallback would pass
    the first and fail this).
    """
    script = _SYNTH + """
import json, sys
run("train", "--recipe", "lda_cds", "--data-dir", "data", "--model-dir", "m", "--use-dev")
json.dump(sorted(m for m in sys.modules if m.startswith("scipy")), open("scipy.json", "w"))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "scipy.json").read_text()) == []
