"""The four workloads of the hrpairs benchmark.

Each workload is a closed loop with one client in one process: a fixed cycle
of operation slots runs again and again, and every operation starts when the
previous one has returned.  The inputs of slot ``s`` in cycle ``c`` come from
``random.Random(f"{workload}:{seed}:{c}:{s}")``; ``prepare`` makes them
before the operation's clock starts, so the program sees only them.  Each
slot returns the operation and the check of its predicted outcome.

The slot mixes are weighted so that the median and the 90th percentile of
the operation times fall inside one kind of operation, not on the edge
between two kinds.  In exact-certify as many operations are faster than the
DELV pairs at eps > 0 as are slower, and the d = 3 Schur pairs take four
forms so that they stay slower than any DELV pair: the median sits in the
middle of the DELV pairs' own times.  In cli-cold three hr-pair runs, the
fastest command, balance the three slower ones (sample-search and the two
demos that build torus(4)), so the median sits among the fulger-lehmann demo
and trace-check runs, whose times are close.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import hrpairs.cli  # noqa: F401  -- every workload's set-up pays the CLI import
from hrpairs import bogomolov, exterior, hrcheck, ring
from hrpairs.exterior import PPForm, form_from_dict, form_from_hermitian, std_kahler
from hrpairs.scalars import GaussianRational
from hrpairs.symfunc import Partition
from hrpairs.verdict import DEGENERATE, PASS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
FL_REFERENCE = BENCH / "fulger_lehmann_reference.json"
FL_SPEC = ROOT / "src" / "hrpairs" / "fixtures" / "fulger_lehmann.json"
CURVATURE_TOL = 1e-9


class Workload:
    def __init__(self, name, setup, slots, in_children=False):
        self.name = name
        self.setup = setup  # () -> state dict
        self.slots = slots  # [(kind, prepare(state, rnd) -> (op, check))]
        self.in_children = in_children  # the operations run in child processes


def _fixture(name):
    with resources.files("hrpairs").joinpath(f"fixtures/{name}").open() as fh:
        return json.load(fh)


def fulger_lehmann_ring():
    return ring.ring_from_spec(_fixture("fulger_lehmann.json"))


def _kahler(d, rnd, exact):
    """Strictly positive (1,1)-form i*H, H = A^*A + delta*Id.

    Float: A complex Gaussian and delta = 1e-3, as hrcheck.random_kahler.
    Exact: A with Gaussian-integer entries in [-2, 2] and delta = 1.
    """
    if exact:
        A = [[GaussianRational(rnd.randint(-2, 2), rnd.randint(-2, 2)) for _ in range(d)]
             for _ in range(d)]
        zero, delta = GaussianRational(0), GaussianRational(1)
    else:
        A = [[complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(d)] for _ in range(d)]
        zero, delta = 0j, 1e-3
    H = [[sum((A[k][i].conjugate() * A[k][j] for k in range(d)), zero)
          + (delta if i == j else zero) for j in range(d)] for i in range(d)]
    return form_from_hermitian(H, exact=exact)


def _expect(verdict, outcome, signature):
    got = (verdict.outcome, tuple(verdict.signature or ()))
    if got != (outcome, signature):
        return f"expected {outcome} {signature}, got {got[0]} {got[1]}"
    return None


def _partitions(n, largest=None):
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest or n), 0, -1):
        out.extend((first,) + rest for rest in _partitions(n - first, first))
    return out


# -- schur-sweep -------------------------------------------------------------


def _schur_pair(d, e, lam, exact):
    """One Schur-pair trial as sample_search runs it; predicted pass (1,0,d^2-1)."""
    lam = Partition(lam)

    def prepare(state, rnd):
        omegas = [_kahler(d, rnd, exact) for _ in range(e)]
        reference = state["std"][d]

        def op():
            top, mid = hrcheck.schur_form_pair(lam, omegas, d)
            return hrcheck.pointwise_hr_pair(top, mid, reference)

        return op, lambda v: _expect(v, PASS, (1, 0, d * d - 1))

    return prepare


def _setup_schur():
    for d in (2, 3, 4):
        ring.torus_ring(d)
    return {"std": {d: std_kahler(d, exact=False) for d in (2, 3, 4)}}


# the 22 (dim, vars, partition) configs of the acceptance sweep
SCHUR_CONFIGS = [(d, e, lam) for d in (2, 3, 4) for e in range(d - 1, 6)
                 for lam in _partitions(d - 1) if len(lam) <= e]


# -- exact-certify -----------------------------------------------------------


def _delv(zero):
    """is_hr_pair(torus(4), h^3, eta + eps*h^2, h) at a seeded rational eps."""
    want = (DEGENERATE, (1, 6, 9)) if zero else (PASS, (1, 0, 15))

    def prepare(state, rnd):
        amb, top, eta, h2, h = state["delv"]
        eps = Fraction(0) if zero else Fraction(rnd.randint(1, 30), rnd.randint(1, 30))
        mid = eta + eps * h2
        return (lambda: hrcheck.is_hr_pair(amb, top, mid, h)), lambda v: _expect(v, *want)

    return prepare


def _reference_check(case, keys, verdict):
    got = {k: str(verdict.details[k]) for k in keys}
    got["outcome"] = verdict.outcome
    if verdict.signature is not None:
        got["signature"] = list(verdict.signature)
    want = {k: case[k] for k in got if k in case}
    return None if got == want else f"expected {want}, got {got}"


def _fl_hr_pair(state, rnd):
    case, (top, mid, h) = rnd.choice(state["fl_hr_pair"])
    keys = ("pairing_with_h", "quotient_square_value")
    return (lambda: hrcheck.is_hr_pair(state["fl"], top, mid, h),
            lambda v: _reference_check(case, keys, v))


def _fl_pos_cone(state, rnd):
    case, (beta, eta, h) = rnd.choice(state["fl_pos_cone"])
    keys = ("pairing_with_h", "square")
    return (lambda: hrcheck.pos_cone_contains(state["fl"], beta, eta, h),
            lambda v: _reference_check(case, keys, v))


def _setup_exact():
    forms = {k: form_from_dict(v) for k, v in _fixture("delv.json")["forms"].items()}
    amb = ring.torus_ring(4)
    ring.torus_ring(3)
    h = amb.from_form(forms["theta1"] + forms["theta2"])
    eta = amb.from_form(exterior.wedge(forms["theta1"], forms["theta2"]))
    fl = fulger_lehmann_ring()
    reference = json.loads(FL_REFERENCE.read_text())

    def parsed(cases, keys):
        return [(c, tuple(ring.parse_element(fl, c[k]) for k in keys)) for c in cases]

    return {
        "delv": (amb, h ** 3, eta, h * h, h),
        "std": {d: std_kahler(d, exact=True) for d in (3, 4)},
        "fl": fl,
        "fl_hr_pair": parsed(reference["hr_pair"], ("eta_top", "eta_mid", "h")),
        "fl_pos_cone": parsed(reference["pos_cone"], ("beta", "eta", "h")),
    }


# -- curvature-sweep ---------------------------------------------------------


def _random_11(d, rnd):
    return PPForm(d, 1, 1, {((j,), (k,)): complex(rnd.gauss(0, 1), rnd.gauss(0, 1))
                            for j in range(d) for k in range(d)})


def _random_higgs(r, d, rnd):
    """Nilpotent Higgs field N (x) phi1 + N^2 (x) phi2, N strictly upper."""
    N = [[complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) if j > i else 0j for j in range(r)]
         for i in range(r)]
    N2 = [[sum(N[i][k] * N[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    phi1, phi2 = (PPForm(d, 1, 0, {((j,), ()): complex(rnd.gauss(0, 1), rnd.gauss(0, 1))
                                    for j in range(d)}) for _ in range(2))
    return bogomolov.HiggsField(
        [[phi1 * N[i][j] + phi2 * N2[i][j] for j in range(r)] for i in range(r)],
        check=False,
    )


def _curvature(r, higgs, d=3):
    """One trace_check trial as in acceptance checks 11 and 12."""
    lam = Partition((d - 1,))

    def prepare(state, rnd):
        omegas = [_kahler(d, rnd, exact=False) for _ in range(2)]
        raw = bogomolov.CurvatureMatrix(
            [[_random_11(d, rnd) for _ in range(r)] for _ in range(r)], check=False)
        theta = _random_higgs(r, d, rnd) if higgs else None

        def op():
            top, mid = hrcheck.schur_form_pair(lam, omegas, d)
            F = raw + bogomolov.higgs_curvature_term(theta) if higgs else raw
            return bogomolov.trace_check(bogomolov.constraint_project(F, top), top, mid)

        def check(v):
            scale = v.details["scale"]
            low = min(min(min(row) for row in v.details["terms"]), v.details["total"])
            if v.outcome != PASS or low < -CURVATURE_TOL * scale:
                return f"expected pass with terms >= -tol*scale, got {v.outcome}, low {low}"
            return None

        return op, check

    return prepare


# -- cli-cold ----------------------------------------------------------------


def _run_cli(state, argv):
    if state["traced"]:
        cmd = [sys.executable, str(BENCH / "cli_launcher.py"), str(state["child_spans"])]
    else:
        cmd = [sys.executable, "-m", "hrpairs.cli"]
    proc = subprocess.run(cmd + argv, cwd=ROOT, env=state["env"], capture_output=True,
                          text=True, timeout=150)
    if state["traced"]:
        state["tracer"].merge_child(state["child_spans"])
    return proc.returncode, proc.stdout, proc.stderr


def _cli(make_argv, expected_lines, last=False):
    """A fresh CLI process; predicted exit code 0 and the given output lines."""

    def prepare(state, rnd):
        argv = make_argv(state, rnd)

        def check(result):
            code, out, err = result
            lines = out.strip().splitlines()
            shown = lines[-1:] if last else lines
            missing = [x for x in expected_lines if x not in shown]
            if code != 0 or missing:
                return f"{argv}: exit {code}, missing {missing}; stderr {err[-300:]!r}"
            return None

        return (lambda: _run_cli(state, argv)), check

    return prepare


def _hr_pair_argv(state, rnd):
    case = rnd.choice(state["fl_passing"])
    return ["hr-pair", f"--ring={FL_SPEC}", f"--eta-top={case['eta_top']}",
            f"--eta-mid={case['eta_mid']}", f"--h={case['h']}"]


def _setup_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cases = json.loads(FL_REFERENCE.read_text())["hr_pair"]
    return {"env": env, "traced": False, "fl_passing": [c for c in cases if c["outcome"] == PASS]}


# -- registry ----------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("schur-sweep", _setup_schur, [
        (f"d{d}-e{e}-{''.join(map(str, lam))}", _schur_pair(d, e, lam, exact=False))
        for d, e, lam in SCHUR_CONFIGS
    ]),
    Workload("exact-certify", _setup_exact, [
        ("fl-pos-cone", _fl_pos_cone),
        ("fl-pos-cone", _fl_pos_cone),
        ("fl-hr-pair", _fl_hr_pair),
        ("fl-hr-pair", _fl_hr_pair),
        ("delv-eps0", _delv(zero=True)),
        ("delv-eps", _delv(zero=False)),
        ("delv-eps", _delv(zero=False)),
        ("delv-eps", _delv(zero=False)),
        ("schur-exact-d3-2", _schur_pair(3, 4, (2,), exact=True)),
        ("schur-exact-d3-11", _schur_pair(3, 4, (1, 1), exact=True)),
        ("schur-exact-d4-3", _schur_pair(4, 2, (3,), exact=True)),
        ("schur-exact-d4-21", _schur_pair(4, 2, (2, 1), exact=True)),
        ("schur-exact-d4-111", _schur_pair(4, 3, (1, 1, 1), exact=True)),
    ]),
    Workload("curvature-sweep", dict, [
        (f"rank{r}{'-higgs' if higgs else ''}", _curvature(r, higgs))
        for higgs in (False, True) for r in (2, 3, 3, 4, 4)
    ]),
    Workload("cli-cold", _setup_cli, [
        ("demo-delv", _cli(lambda s, r: ["demo", "delv"], ["PASS"], last=True)),
        ("demo-fulger-lehmann",
         _cli(lambda s, r: ["demo", "fulger-lehmann"], ["PASS"], last=True)),
        ("demo-non-hr-limit", _cli(lambda s, r: ["demo", "non-hr-limit"], ["PASS"], last=True)),
        *[("hr-pair", _cli(_hr_pair_argv, ["outcome    : pass", "signature  : (1, 0, 1)"]))] * 3,
        ("sample-search", _cli(
            lambda s, r: ["sample-search", "--dim", "3", "--vars", "2", "--partition", "2",
                          "--trials", "3", "--seed", str(r.randrange(10 ** 6))],
            ["trials: 3  passes: 3  degenerate: 0  failures: 0"])),
        ("trace-check", _cli(
            lambda s, r: ["trace-check", "--dim", "3", "--rank", str(r.randint(2, 4)),
                          "--seed", str(r.randrange(10 ** 6)), "--higgs"],
            ["outcome    : pass"])),
    ], in_children=True),
)}
