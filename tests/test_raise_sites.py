"""ConsistencyError is the failure of an internal cross-check, never a
refusal of input (that is ConfigError): every raise of it under
src/hrpairs sits in hrcheck._pair_verdict or bogomolov._trace_verdict."""

import ast
from pathlib import Path

import hrpairs

PACKAGE = Path(hrpairs.__file__).resolve().parent
CROSS_CHECKS = [("bogomolov.py", "_trace_verdict"), ("hrcheck.py", "_pair_verdict")]


def raise_sites(source, error):
    """The name of the innermost function around each raise of error in
    source (error(...) or error itself), None at module level."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                raised = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = getattr(raised, "id", getattr(raised, "attr", None))
                if name == error:
                    sites.append(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_the_check_sees_every_raise_and_its_function():
    source = ("def f(x):\n    if x:\n        raise E('a')\n    raise errors.E\n"
              "class C:\n    def g(self):\n        def h():\n            raise E()\n"
              "        raise F()\nraise E\n")
    assert raise_sites(source, "E") == ["f", "f", "h", None]


def test_consistency_error_is_raised_only_by_the_two_cross_checks():
    sites = sorted((path.name, function) for path in PACKAGE.glob("*.py")
                   for function in raise_sites(path.read_text(), "ConsistencyError"))
    assert sites == CROSS_CHECKS
