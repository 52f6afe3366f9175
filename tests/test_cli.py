"""End-to-end command-line behavior: exit codes, demos, JSON round trips."""

import ast
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import hrpairs
from hrpairs import cli
from hrpairs.cli import main
from hrpairs.exterior import PPForm, form_to_dict, std_kahler, wedge
from hrpairs.scalars import GaussianRational


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # only argparse exits so; main returns every other code
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


FL_SPEC = {
    "name": "fulger-lehmann",
    "dimension": 3,
    "generators": [
        {"name": "xi", "degree": 1},
        {"name": "f", "degree": 1},
    ],
    "relations": [
        {"monomial": "f^2", "value": 0},
        {"monomial": "xi^3",
         "rewrite": [{"coeff": -1, "monomial": "xi^2*f"}]},
    ],
    "integration": {"monomial": "xi^2*f", "value": 1},
}


FL_FIXTURE = str(resources.files("hrpairs").joinpath("fixtures/fulger_lehmann.json"))


@pytest.fixture
def fl_spec(tmp_path):
    path = tmp_path / "fl.json"
    path.write_text(json.dumps(FL_SPEC))
    return str(path)


# -- one output path -------------------------------------------------------


def output_sites(source):
    """The innermost function around each print to stdout (a print without
    file=) and each read of args.json in source, None at module level."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "print"
                    and not any(k.arg == "file" for k in child.keywords)):
                sites.append(("print", function))
            if (isinstance(child, ast.Attribute) and child.attr == "json"
                    and getattr(child.value, "id", None) == "args"):
                sites.append(("args.json", function))
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_the_output_check_sees_every_print_and_json_fork():
    source = ("def f(args):\n    if args.json:\n        print(1)\n"
              "    print(2, file=sys.stderr)\nprint(3)\n")
    assert output_sites(source) == [("args.json", "f"), ("print", "f"), ("print", None)]


def test_only_main_prints_and_reads_the_json_flag():
    """Every verb returns (exit code, record, text); main alone prints one of them."""
    sites = output_sites(Path(cli.__file__).read_text())
    assert sorted(set(sites)) == [("args.json", "main"), ("print", "main")]


# -- symfunc verbs ---------------------------------------------------------


def test_derived_prints_four(capsys):
    code, out, _ = run(capsys, "derived", "--partition", "1", "--vars", "4",
                       "--order", "1")
    assert code == 0
    assert out.strip() == "4"


def test_schur_verb(capsys):
    code, out, _ = run(capsys, "schur", "--partition", "2", "--vars", "3")
    assert code == 0
    assert out.strip() == "e1^2 - e2"


def test_schur_verb_in_any_number_of_variables(capsys):
    """s_(12, 4) uses no e_k past e_13: in 100 000 variables the verb prints
    what it prints in 16."""
    code, out, _ = run(capsys, "schur", "--partition", "12,4", "--vars", "100000")
    assert code == 0
    assert (code, out) == run(capsys, "schur", "--partition", "12,4", "--vars", "16")[:2]


def test_schur_json_mode(capsys):
    code, out, _ = run(capsys, "schur", "--partition", "1,1", "--vars", "3",
                       "--json")
    assert code == 0
    assert json.loads(out)["schur"] == "e2"


def test_twist_rank_one(capsys):
    code, out, _ = run(capsys, "twist", "--rank", "1", "--t", "1/2")
    assert code == 0
    assert "c1<t*h>" in out and "1/2" in out


def test_segre_verb(capsys):
    code, out, _ = run(capsys, "segre", "--chern", "1,1", "--upto", "3",
                       "--json")
    assert code == 0
    # roots with e1 = e2 = 1: s1 = 1, s2 = 1 - 1 = 0, s3 = 1 - 2 = -1
    assert json.loads(out)["segre"] == ["1", "1", "0", "-1"]


def test_bad_partition_is_reported_not_raised(capsys):
    code, _, err = run(capsys, "schur", "--partition", "2,x", "--vars", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["schur", "--partition", "2", "--vars", "-1"],
    ["derived", "--partition", "2", "--vars", "-3"],
    ["derived", "--partition", "2", "--vars", "3", "--order", "-1"],
    ["segre", "--chern", "1,1", "--upto", "-1"],
    ["sample-search", "--dim", "3", "--vars", "-2", "--partition", "2"],
    ["schur", "--partition", "a", "--vars", "2"],
    ["derived", "--partition", "1,2", "--vars", "3"],
    ["sample-search", "--dim", "3", "--vars", "2", "--partition", "2,x"],
    ["signature", "--matrix", "[[1,2],[2,1]]", "--tolerance", "nan"],
    ["signature", "--matrix", "[[1,2],[2,1]]", "--tolerance", "inf"],
    ["trace-check", "--tolerance", "-1"],
    ["sample-search", "--dim", "3", "--vars", "2", "--partition", "2",
     "--tolerance", "-inf"],
    ["sample-search", "--dim", "3", "--vars", "2", "--partition", "2", "--seed", "-1"],
    ["trace-check", "--dim", "3", "--seed", "-5"],
    ["derived", "--partition", "2", "--vars", "2", "--order", "5"],
    ["signature", "--matrix", "[[1e308, 1e308], [1e308, 1e308]]"],
    ["signature", "--matrix", '[[1.0, "1e400"], ["1e400", 1.0]]'],
    ["sample-search", "--dim", "14", "--partition", "13", "--vars", "6"],
    ["sample-search", "--dim", "14", "--partition", "13", "--vars", "7"],
    ["sample-search", "--dim", "2", "--partition", "1", "--vars", "1000000000"],
    ["twist", "--t", "1", "--rank", "30"],
    ["trace-check", "--dim", "3", "--rank", "1000000"],
    ["trace-check", "--dim", "3", "--higgs", "--rank", "33"],
    ["schur", "--partition", "40", "--vars", "40"],
    ["derived", "--partition", "13", "--vars", "13"],
    ["derived", "--partition", "12,12", "--vars", "24"],
    ["segre", "--chern", "1,1", "--upto", "100000000"],
    ["segre", "--upto", "400", "--chern", "1234567891/987654321,7777777777/3"],
    ["gram", "--ring", "ring.json", "--eta", "xi", "--tolerance", "5"],
    # numbers past Python's limit on the digits of an int read from or turned into text
    *[argv + mode for mode in ([], ["--json"]) for argv in (
        ["slope", "--ring", FL_FIXTURE, "--c1", "9" * 5000 + "*xi", "--rank", "1",
         "--eta", "xi^2"],
        ["discriminant", "--c1", "9" * 4000 + "*xi", "--ring", FL_FIXTURE, "--rank", "2"],
        ["gram", "--eta", "9" * 3000 + "*" + "9" * 3000 + "*xi", "--ring", FL_FIXTURE,
         "--backend", "exact"],
        ["segre", "--chern", "9" * 3000 + ",1", "--upto", "3"],
        ["signature", "--matrix", "[[" + "9" * 5000 + "]]", "--tolerance", "0"],
    )],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_unusable_option_values_exit_two_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


# -- ring verbs ------------------------------------------------------------


def test_ring_check_accepts_a_valid_spec(capsys, fl_spec):
    code, out, _ = run(capsys, "ring", "check", fl_spec)
    assert code == 0
    assert "dimension 3" in out


def test_ring_check_flags_inconsistent_relations(capsys, tmp_path):
    spec = dict(FL_SPEC)
    # xi^2*f reduces two ways: to f^3 via the first rule, to 0 via the second
    spec["relations"] = [
        {"monomial": "xi^2", "rewrite": [{"coeff": 1, "monomial": "f^2"}]},
        {"monomial": "xi*f", "value": 0},
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "ring", "check", str(path))
    assert code == 1
    assert "INVALID" in out


def test_ring_check_rejects_unreadable_and_malformed_files(capsys, tmp_path):
    code, _, err = run(capsys, "ring", "check", str(tmp_path / "missing.json"))
    assert code == 2
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "ring", "check", str(path))
    assert code == 2
    assert "line" in err
    path.write_bytes(b"\xff\xfe")  # not UTF-8 text
    for argv in (["ring", "check", str(path)], ["gram", "--ring", str(path), "--eta", "xi"]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: cannot read ring spec {path}: ")


def test_malformed_spec_fields_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"generators": []}))
    code, _, err = run(capsys, "gram", "--ring", str(path), "--eta", "xi")
    assert code == 2
    assert "error" in err


# -- verdict verbs ---------------------------------------------------------


def test_gram_and_signature_round_trip(capsys, fl_spec):
    code, out, _ = run(capsys, "gram", "--ring", fl_spec, "--eta", "xi",
                       "--json")
    assert code == 0
    Q = json.loads(out)["gram"]
    assert Q == [[-1, 1], [1, 0]]
    code, out, _ = run(capsys, "signature", "--matrix", json.dumps(Q), "--json")
    assert code == 0
    assert json.loads(out)["signature"] == [1, 0, 1]


def test_signature_of_a_ring_gram_matrix_is_that_of_its_json(capsys, fl_spec):
    code, out, _ = run(capsys, "gram", "--ring", fl_spec, "--eta", "xi", "--json")
    Q = json.loads(out)["gram"]
    outs = [run(capsys, "signature", *argv, "--json")
            for argv in (["--ring", fl_spec, "--eta", "xi"], ["--matrix", json.dumps(Q)])]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and json.loads(outs[0][1])["signature"] == [1, 0, 1]


def test_signature_needs_some_input(capsys):
    code, _, err = run(capsys, "signature")
    assert code == 2
    assert "matrix" in err


def test_hr_pair_passes_on_good_data(capsys, fl_spec):
    code, out, _ = run(
        capsys, "hr-pair", "--ring", fl_spec,
        "--eta-top", "xi^2+2*xi*f", "--eta-mid", "xi", "--h", "xi+f", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "pass"
    assert report["signature"] == [1, 0, 1]


def test_hr_pair_fails_with_witness(capsys, fl_spec):
    code, out, _ = run(
        capsys, "hr-pair", "--ring", fl_spec,
        "--eta-top", "xi^2", "--eta-mid", "xi", "--h", "xi", "--json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "fail"
    assert report["witness"]["failed_conditions"]


def test_pos_cone_verb(capsys, fl_spec):
    code, _, _ = run(capsys, "pos-cone", "--ring", fl_spec, "--beta",
                     "xi+2*f", "--eta", "xi", "--h", "xi+f")
    assert code == 0
    code, out, _ = run(capsys, "pos-cone", "--ring", fl_spec, "--beta",
                       "xi+2*f", "--eta", "xi", "--h", "xi+f", "--json")
    assert code == 0
    assert json.loads(out)["tolerances"] == {}  # decided exactly, no threshold
    code, _, _ = run(capsys, "pos-cone", "--ring", fl_spec, "--beta", "f",
                     "--eta", "xi", "--h", "xi+f")
    assert code == 1


# -- the two backends on the packaged fixture ---------------------------------

FL_HR_PAIR = ["hr-pair", "--ring", FL_FIXTURE, "--eta-top", "xi^2+3*xi*f",
              "--eta-mid", "xi+2*f", "--h", "xi+2*f"]


@pytest.mark.parametrize("backend, rows", [
    ("exact", ["          xi | 1  1", "           f | 1  0"]),
    ("float", ["          xi | 1.0  1.0", "           f | 1.0  0.0"]),
])
def test_gram_backends_on_the_fixture(capsys, backend, rows):
    argv = ["gram", "--ring", FL_FIXTURE, "--eta", "xi+2*f", "--backend", backend]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == rows
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    Q = json.loads(out)["gram"]
    assert Q == [[1, 1], [1, 0]]
    kind = int if backend == "exact" else float
    assert all(type(x) is kind for row in Q for x in row)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_hr_pair_backends_on_the_fixture(capsys, backend):
    code, out, _ = run(capsys, *FL_HR_PAIR, "--backend", backend)
    assert code == 0
    assert out.splitlines() == [
        "outcome    : pass",
        "signature  : (1, 0, 1)",
        "eigenvalues: [-0.618034, 1.61803]",
    ]
    code, out, _ = run(capsys, *FL_HR_PAIR, "--backend", backend, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "pass"
    assert report["signature"] == [1, 0, 1]
    assert report["eigenvalues"] == pytest.approx([-0.6180339887498948, 1.618033988749895])
    values = [report["details"][k] for k in ("pairing_with_h", "quotient_square_value")]
    values += report["details"]["quotient"]
    assert values == [4, 3, 1, 1]
    kind = int if backend == "exact" else float
    assert all(type(x) is kind for x in values)
    assert report["details"]["hr_property"]["details"]["backend"] == backend
    assert report["tolerances"] == ({} if backend == "exact" else {"zero_tol": 1e-9})


@pytest.mark.parametrize("argv", [
    ["gram", "--ring", "SPEC", "--eta", "xi+2*f"],
    FL_HR_PAIR[:2] + ["SPEC"] + FL_HR_PAIR[3:],
], ids=["gram", "hr-pair"])
def test_float_backend_refuses_a_ring_beyond_float_range(capsys, tmp_path, argv):
    spec = fl_spec_with(lambda s: s["integration"].update(value="1e400"))
    paths = write_inputs(tmp_path, spec)
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, "--backend", "float")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: Gram matrix entry [0, 0] does not fit in a float; "
        "decide with the exact backend"
    ]
    code, out, _ = run(capsys, *argv, "--backend", "exact")
    assert code == 0
    assert out


# -- sheaf verbs -----------------------------------------------------------


def test_slope_verb(capsys, fl_spec):
    code, out, _ = run(capsys, "slope", "--ring", fl_spec, "--rank", "2",
                       "--c1", "xi", "--eta", "xi^2+6*xi*f")
    assert code == 0
    assert "5/2" in out


def test_discriminant_verb(capsys, fl_spec):
    code, out, _ = run(capsys, "discriminant", "--ring", fl_spec, "--rank", "2",
                       "--c1", "xi+f", "--c2", "xi*f")
    assert code == 0
    assert "Delta" in out


def test_bogomolov_sign_drives_the_exit_code(capsys, fl_spec):
    code, out, _ = run(capsys, "bogomolov", "--ring", fl_spec, "--rank", "2",
                       "--c1", "0", "--c2", "xi*f", "--eta", "xi")
    assert code == 0
    assert "= 4" in out
    # Delta = -xi^2, and int -xi^2*f = -1
    code, out, _ = run(capsys, "bogomolov", "--ring", fl_spec, "--rank", "2",
                       "--c1", "xi", "--c2", "0", "--eta", "f")
    assert code == 1
    assert "-1" in out


def test_extension_identity_verb(capsys, fl_spec):
    code, out, _ = run(
        capsys, "extension-identity", "--ring", fl_spec,
        "--rank-f", "1", "--c1-f", "xi", "--rank-g", "1", "--c1-g", "f",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_trace_check_seeded(capsys):
    code, out, _ = run(capsys, "trace-check", "--dim", "3", "--rank", "2",
                       "--seed", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "pass"
    assert report["details"]["rank"] == 2
    assert report["seed"] == 3


def test_trace_check_with_higgs_term(capsys):
    code, out, _ = run(capsys, "trace-check", "--dim", "3", "--rank", "2",
                       "--seed", "5", "--higgs", "--json")
    assert code == 0
    assert json.loads(out)["higgs"] is True


def test_sample_search_verb(capsys):
    code, out, _ = run(capsys, "sample-search", "--dim", "3", "--vars", "3",
                       "--partition", "2", "--trials", "4", "--seed", "7",
                       "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passes"] == 4
    assert report["config"]["seed"] == 7


# -- demos -----------------------------------------------------------------


def test_demo_delv(capsys):
    code, out, _ = run(capsys, "demo", "delv")
    assert code == 0
    assert "[0, 4, 0]" in out
    assert out.strip().endswith("PASS")


def test_demo_fulger_lehmann(capsys):
    code, out, _ = run(capsys, "demo", "fulger-lehmann")
    assert code == 0
    assert "PASS" in out


def test_demo_non_hr_limit(capsys):
    code, out, _ = run(capsys, "demo", "non-hr-limit")
    assert code == 0
    assert "eps = 1/10: pass" in out
    assert "eps = 0   : degenerate" in out


def test_demo_delv_json_feeds_signature(capsys):
    """Reported Gram witness reproduces the same verdict when re-fed."""
    code, out, _ = run(capsys, "demo", "delv", "--json")
    assert code == 0
    gram = json.loads(out)["gram"]
    code, out, _ = run(capsys, "signature", "--matrix", json.dumps(gram),
                       "--json")
    assert code == 0
    assert json.loads(out)["signature"] == [1, 0, 2]


# -- process-level behavior ------------------------------------------------


def cli_env():
    """The caller's environment with the tree under test first on PYTHONPATH."""
    src = str(Path(hrpairs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "hrpairs.cli", *argv],
        capture_output=True, text=True, env=cli_env(),
    )


def test_unknown_verb_is_a_usage_error():
    proc = run_process("no-such-verb")
    assert proc.returncode == 2


def fl_spec_with(edit):
    spec = json.loads(json.dumps(FL_SPEC))
    edit(spec)
    return spec


class InputFiles(dict):
    """Several JSON inputs, keyed by the placeholder that names each in argv."""


def trace_check_files(**edit):
    """trace-check's file-mode inputs on C^3: the trace-free primitive curvature
    diag(a, -a), a = dz_1 dzbar_1 - dz_2 dzbar_2, with the fields in edit set
    on a's first term, and omega_std^2, omega_std as the pair."""
    def a(sign, **fields):
        terms = [{"I": [1], "J": [1], "re": str(sign), "im": "0", **fields},
                 {"I": [2], "J": [2], "re": str(-sign), "im": "0"}]
        return {"dim": 3, "p": 1, "q": 1, "terms": terms}

    zero = {"dim": 3, "p": 1, "q": 1, "terms": []}
    omega = std_kahler(3)
    return InputFiles(
        CURVATURE={"entries": [[a(1, **edit), zero], [zero, a(-1)]]},
        TOP=form_to_dict(wedge(omega, omega)),
        MID=form_to_dict(omega),
    )


def trace_check_beyond_float_range():
    """trace_check_files() with float curvature entries and an exact omega_top
    coefficient of 10^400, which no float holds."""
    files = trace_check_files()
    for row in files["CURVATURE"]["entries"]:
        for entry in row:
            for term in entry["terms"]:
                term["re"], term["im"] = float(term["re"]), 0.0
    files["TOP"]["terms"][0]["re"] = "1e400"
    return files


def trace_check_curvature(edit):
    """trace_check_files() with edit applied to the curvature's list of rows."""
    files = trace_check_files()
    edit(files["CURVATURE"]["entries"])
    return files


TRACE_CHECK_FILES = ["trace-check", "--curvature", "CURVATURE", "--omega-top", "TOP",
                     "--omega-mid", "MID"]


def write_inputs(tmp_path, spec):
    """Write spec (or each of several InputFiles) as JSON; placeholder -> path."""
    files = spec if isinstance(spec, InputFiles) else {"SPEC": spec}
    paths = {}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def test_trace_check_file_mode_reads_its_inputs(tmp_path):
    paths = write_inputs(tmp_path, trace_check_files())
    proc = run_process(*(paths.get(a, a) for a in TRACE_CHECK_FILES))
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout


def malformed(spec, argv, id, error=None):
    """A MALFORMED_INPUT case: JSON written to SPEC, None, or InputFiles; the
    arguments; and, where it is pinned, the one line expected on stderr."""
    return pytest.param(spec, argv, error, id=id)


NON_REAL_OMEGA_MID = ("error: omega_mid is not a real form: it fails the reality condition at "
                      "I = [1], J = [2]")

ASYMMETRIC_MATRIX = "error: matrix is not symmetric or Hermitian at entry [0, 1]"

MALFORMED_INPUT = [
    malformed(fl_spec_with(lambda s: s["relations"][0].pop("monomial")),
              ["gram", "--ring", "SPEC", "--eta", "xi"],
              id="relation-without-monomial"),
    malformed(fl_spec_with(lambda s: s["relations"][0].update(monomial="f^x")),
              ["gram", "--ring", "SPEC", "--eta", "xi"],
              id="bad-power-in-spec-monomial"),
    malformed(fl_spec_with(
        lambda s: s["relations"][1]["rewrite"][0].update(coeff="abc")),
              ["gram", "--ring", "SPEC", "--eta", "xi"],
              id="bad-coeff"),
    malformed(fl_spec_with(lambda s: s.update(labels={"h": "xi^y"})),
              ["gram", "--ring", "SPEC", "--eta", "xi"],
              id="bad-power-in-label"),
    malformed(FL_SPEC, ["gram", "--ring", "SPEC", "--eta", "xi^z"],
              id="bad-power-in-eta"),
    malformed(None, ["signature", "--matrix", "[[1,2],[3,4]]"],
              id="asymmetric-matrix", error=ASYMMETRIC_MATRIX),
    malformed(None, ["signature", "--matrix", "[[1.0,2.0],[3.0,4.0]]"],
              id="asymmetric-float-matrix", error=ASYMMETRIC_MATRIX),
    malformed(None, ["signature", "--matrix", "[1,2]"],
              id="matrix-not-a-list-of-rows"),
    malformed(None, ["signature", "--matrix", "[[1,2],[2]]"], id="ragged-matrix",
              error="error: ragged matrix: row lengths [2, 1]"),
    malformed(None, ["signature", "--matrix", "[[1.0,2.0,3.0],[2.0,1.0,0.0]]"],
              id="non-square-matrix", error="error: matrix is 2x3, not square"),
    malformed(None, ["sample-search", "--dim", "1", "--vars", "1", "--partition", "0"],
              id="sample-search-dim-below-two"),
    malformed(None, ["sample-search", "--dim", "3", "--vars", "2", "--partition", "2",
                     "--trials", "-3"],
              id="sample-search-negative-trials"),
    malformed(None, ["sample-search", "--dim", "15", "--vars", "2", "--partition", "14",
                     "--trials", "1"],
              id="sample-search-dim-above-cap"),
    malformed(None, ["trace-check", "--dim", "15"], id="trace-check-dim-above-cap"),
    malformed(None, ["trace-check", "--rank", "0"], id="trace-check-rank-zero"),
    malformed(None, ["trace-check", "--rank", "-1"], id="trace-check-negative-rank"),
    malformed(None, ["twist", "--rank", "0", "--t", "1"], id="twist-rank-zero"),
    malformed({"dimension": 100000, "generators": [{"name": "x", "degree": 1},
                                                   {"name": "y", "degree": 1}]},
              ["ring", "check", "SPEC"],
              id="ring-spec-too-large"),
    malformed(trace_check_files(I=[9]), TRACE_CHECK_FILES,
              id="trace-check-index-out-of-range"),
    malformed(trace_check_files(re="abc"), TRACE_CHECK_FILES,
              id="trace-check-bad-coefficient"),
    malformed(trace_check_curvature(lambda rows: rows[0][1].update(p=2)),
              TRACE_CHECK_FILES, id="trace-check-entry-not-1-1"),
    malformed(trace_check_curvature(lambda rows: rows[1].pop()),
              TRACE_CHECK_FILES, id="trace-check-ragged-matrix"),
    malformed(trace_check_curvature(lambda rows: rows.clear()),
              TRACE_CHECK_FILES, id="trace-check-empty-matrix"),
    malformed(InputFiles(trace_check_files(), TOP={"dim": 40, "p": 20, "q": 20, "terms": []}),
              TRACE_CHECK_FILES, id="trace-check-form-too-large-to-store"),
    malformed(InputFiles(trace_check_files(), MID=form_to_dict(
        std_kahler(3, exact=False) + PPForm(3, 1, 1, {((0,), (1,)): 1.0}))),
              TRACE_CHECK_FILES, id="trace-check-float-omega-not-real",
              error=NON_REAL_OMEGA_MID),
    malformed(InputFiles(trace_check_files(), MID=form_to_dict(
        std_kahler(3) + PPForm(3, 1, 1, {((0,), (1,)): GaussianRational(1)}))),
              TRACE_CHECK_FILES, id="trace-check-exact-omega-not-real",
              error=NON_REAL_OMEGA_MID),
    # the coefficient is the form's, at its JSON indices, not an entry of an internal array
    malformed(trace_check_beyond_float_range(), TRACE_CHECK_FILES,
              id="trace-check-exact-omega-beyond-float-range",
              error="error: omega_top coefficient at I = [1, 2], J = [1, 2] does not fit in a "
                    "float; decide with the exact backend"),
]


@pytest.mark.parametrize("spec, argv, error", MALFORMED_INPUT)
def test_malformed_input_exits_two_without_traceback(tmp_path, spec, argv, error):
    paths = write_inputs(tmp_path, spec)
    proc = run_process(*(paths.get(a, a) for a in argv))
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    if error is not None:
        assert proc.stderr.splitlines() == [error]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_a_non_real_omega_mid_is_named_by_its_json_indices(tmp_path, exact):
    """The coefficient off the reality condition sits at "I": [1], "J": [2]
    of the JSON file, and the message names it so, not 0-based."""
    one = GaussianRational(1) if exact else 1.0
    mid = form_to_dict(std_kahler(3, exact=exact) + PPForm(3, 1, 1, {((0,), (1,)): one}))
    assert [(t["I"], t["J"]) for t in mid["terms"] if t["I"] != t["J"]] == [([1], [2])]
    paths = write_inputs(tmp_path, InputFiles(trace_check_files(), MID=mid))
    proc = run_process(*(paths.get(a, a) for a in TRACE_CHECK_FILES))
    assert proc.returncode == 2, proc.stderr
    assert "omega_mid is not a real form" in proc.stderr
    assert "at I = [1], J = [2]" in proc.stderr
    assert "Traceback" not in proc.stderr


def declared_console_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


# The body of the wrapper script an installer writes for a console script.
LAUNCHER = """\
import sys
from {module} import {attr} as main
sys.argv[0] = "hrpairs"
sys.exit(main())
"""


def test_console_script_entry_point():
    """The declared `hrpairs` script runs as an installed wrapper would.

    Without an install the script is not on PATH, so the declared
    `module:attr` target is launched the way its wrapper launches it, from
    the tree under test. Where an installed `hrpairs` is on PATH, it runs
    too, in the caller's environment, as the original check did.
    """
    scripts = declared_console_scripts()
    assert "hrpairs" in scripts
    target = scripts["hrpairs"]
    assert callable(pkgutil.resolve_name(target))
    module, _, attr = target.partition(":")

    argv = ["derived", "--partition", "1", "--vars", "4"]
    runs = [([sys.executable, "-c",
              LAUNCHER.format(module=module, attr=attr), *argv], cli_env())]
    installed = shutil.which("hrpairs")
    if installed:
        runs.append(([installed, *argv], None))

    for cmd, run_env in runs:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=run_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "4"
