"""The library examples and the command-line tour of README.md run as written,
from the repository root."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from hrpairs.cli import main

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


def command_line_tour():
    """(argv, output lines) for each `$ hrpairs ...` line of the README's
    command-line tour, its `\\` continuations joined; the output is the lines
    shown under it, up to the next blank, comment or command line."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command-line tour\n\n```sh\n(.*?)```", text, re.S).group(1)
    tour, shown = [], None
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("$ hrpairs "):
            shown = []
            tour.append((shlex.split(line)[2:], shown))
        elif line and not line.startswith("#") and shown is not None:
            shown.append(line)
        else:
            shown = None
    return tour


TOUR = command_line_tour()


def test_the_tour_has_its_nine_command_lines():
    assert len(TOUR) == 9
    assert [argv[0] for argv, output in TOUR if output] == ["schur", "derived", "ring", "hr-pair"]


@pytest.mark.parametrize("argv, output", TOUR, ids=[" ".join(argv[:2]) for argv, _ in TOUR])
def test_readme_command_line_tour_runs_as_shown(monkeypatch, capsys, argv, output):
    monkeypatch.chdir(ROOT)  # the tour names fixtures by relative path
    assert main(argv) == 0
    out = capsys.readouterr().out
    if output:
        assert out == "".join(line + "\n" for line in output)
