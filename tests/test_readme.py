"""The library examples of README.md run as written, from the repository root."""

import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_examples_run_in_one_namespace(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 4
    monkeypatch.chdir(ROOT)  # the examples load fixtures by relative path
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    # the documented values of the first example: gram() gives Fraction lists
    assert namespace["gram"](namespace["model"], namespace["eta"]) == [
        [Fraction(-1), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert lines[1] == "pass (1, 0, 1)"
