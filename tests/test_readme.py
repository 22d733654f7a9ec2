"""The README's python examples run as written."""
import re
from pathlib import Path

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
