"""The README's python examples and its full CLI run work as written."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from dialectid.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)  # the second block writes a model directory
    namespace = {}
    for block in blocks:  # the second block uses the first block's `ds`
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["scores"].shape == (len(namespace["ds"].tst), len(namespace["labels"]))
    assert (tmp_path / "model" / "model.json").is_file()


def test_full_adapted_run_exits_0(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A full adapted run.*?```\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [c[:2] for c in commands] == [["dialectid", "synth"], ["dialectid", "train"],
                                         ["dialectid", "score"],
                                         ["dialectid", "calibrate-fuse"]]
    monkeypatch.chdir(tmp_path)  # the commands use relative paths
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(command[1:]) == 0, command
    assert (tmp_path / "fused" / "report.txt").is_file()


def test_quoted_minimum_dim_error_is_the_cli_line(tmp_path):
    # the README quotes the line `train` prints for a set below the stack's least dim
    quote = re.search(r"a\s+smaller set exits 2 with\s+`([^`]*)`",
                      README.read_text(encoding="utf-8")).group(1)
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("dim=21\nn_trn=4\nn_dev=2\nn_tst=2\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "data")]) == 0
        assert main(["train", "--recipe", "siam_cds", "--data-dir", str(tmp_path / "data"),
                     "--model-dir", str(tmp_path / "model")]) == 2
    assert err.getvalue() == quote + "\n"
