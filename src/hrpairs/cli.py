"""Command-line surface: run checks on ring specs and reproduce examples.

Every verb returns (exit code, record, text) and prints nothing; main alone
prints the record as JSON indented by two spaces (--json) or the text.
Exit codes: 0 = pass, 1 = failing/degenerate verdict, 2 = usage or I/O error.
argparse refuses what it cannot parse; every other refusal is a ConfigError
(or a DegreeError) raised where the input is read, or a number past Python's
limit on the digits of an int turned into text, which main refuses once for
every verb; main alone prints it as one "error:" line and returns 2.
"""

import argparse
import json
import math
import sys
from fractions import Fraction
from importlib import resources

import numpy as np

from . import bogomolov as bg
from . import hrcheck
from .errors import ConfigError, ConstructionError, DegreeError, HRPairsError
from .exterior import form_from_dict, wedge
from .ring import (
    MAX_SCHUR_ORDER,
    MAX_SCHUR_WEIGHT,
    MAX_SEGRE_DEGREE,
    MAX_TRACE_RANK,
    MAX_TWIST_RANK,
    load_ring_spec,
    parse_element,
    polynomial_ring,
    ring_from_spec,
    subring,
    torus_ring,
)
from .scalars import float_array
from .symfunc import ChernVector, Partition, derived, schur, segre_from_chern, twist_chern
from .verdict import DEGENERATE, FAIL, PASS, jsonable


def _checked(convert, what, ok=lambda value: True):
    """An argparse type: convert(text), refused unless it converts and ok(value)."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, ConfigError):
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_rank = _checked(int, "a positive integer", lambda n: n > 0)
_count = _checked(int, "a non-negative integer", lambda n: n >= 0)  # --vars, --seed, --order, ...
_partition = _checked(Partition.parse, "a partition such as 2,1")
_tolerance = _checked(float, "a finite non-negative number",
                      lambda x: math.isfinite(x) and x >= 0)


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"not a rational number: {text!r}") from None


def _load_ring(path):
    try:
        return load_ring_spec(path)
    except ConstructionError as exc:  # INVALID to ring check, unusable input to the others
        raise ConfigError(f"ring spec {path}: {exc}") from None


def _element(model, expr, degree=None):
    try:
        elem = parse_element(model, expr)
    except (ConfigError, DegreeError) as exc:
        raise ConfigError(f"bad element {expr!r}: {exc}") from None
    if degree is not None and elem.degree != degree:
        if elem.is_zero():
            return model.zero(degree)
        raise ConfigError(f"element {expr!r} has degree {elem.degree}, expected {degree}")
    return elem


def _verdict(v, extra=None):
    """(exit code, record, text) of a Verdict, with the fields of extra in both."""
    record, extra = v.to_dict(), extra or {}
    record.update(extra)
    lines = [f"outcome    : {v.outcome}"]
    if v.signature is not None:
        lines.append(f"signature  : {tuple(v.signature)}")
    if v.eigenvalues:
        lines.append("eigenvalues: [" + ", ".join(f"{e:.6g}" for e in v.eigenvalues) + "]")
    if v.witness:
        lines.append(f"witness    : {json.dumps(jsonable(v.witness))}")
    lines += [f"{k:<11}: {val}" for k, val in extra.items()]
    return (0 if v.passed else 1), record, "\n".join(lines)


def _matrix_from_arg(text):
    if not text.lstrip().startswith("["):
        try:
            with open(text) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read matrix {text!r}: {exc}") from None
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"matrix is not valid JSON: {exc.msg}") from None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ConfigError("matrix must be a JSON list of rows")
    return [[_matrix_entry(x) for x in row] for row in rows]


def _matrix_entry(x):
    """A JSON matrix entry as linalg takes it: int, finite float or string."""
    if isinstance(x, str):
        return _fraction(x)
    if isinstance(x, bool):
        raise ConfigError("matrix entries must be numbers")
    if isinstance(x, int) or (isinstance(x, float) and math.isfinite(x)):
        return x
    raise ConfigError(f"bad matrix entry {x!r}")


def _fixture(name):
    with resources.files("hrpairs").joinpath(f"fixtures/{name}").open() as fh:
        return json.load(fh)


# -- symfunc verbs ---------------------------------------------------------


def _check_partition(lam):
    """ConfigError above ring.MAX_SCHUR_ORDER columns (the order of the dual Jacobi-Trudi
    determinant) or ring.MAX_SCHUR_WEIGHT boxes; --vars does not enter the cost, so is free."""
    if lam.parts and lam.parts[0] > MAX_SCHUR_ORDER:
        raise ConfigError(f"partition {lam} makes a dual Jacobi-Trudi determinant of order "
                          f"{lam.parts[0]}, above {MAX_SCHUR_ORDER} (ring.MAX_SCHUR_ORDER)")
    if lam.weight > MAX_SCHUR_WEIGHT:
        raise ConfigError(f"partition {lam} has weight {lam.weight}, above {MAX_SCHUR_WEIGHT} "
                          "(ring.MAX_SCHUR_WEIGHT)")


def cmd_schur(args):
    lam = args.partition
    _check_partition(lam)
    p = str(schur(lam, args.vars))
    return 0, {"partition": str(lam), "vars": args.vars, "schur": p}, p


def cmd_derived(args):
    lam = args.partition
    _check_partition(lam)
    p = str(derived(schur(lam, args.vars), args.order))
    return 0, {"partition": str(lam), "vars": args.vars, "order": args.order, "derived": p}, p


def cmd_twist(args):
    e = args.rank
    if e > MAX_TWIST_RANK:
        raise ConfigError(f"rank {e} is above {MAX_TWIST_RANK} (ring.MAX_TWIST_RANK)")
    t = _fraction(args.t)
    gens = [(f"c{k}", k) for k in range(1, e + 1)] + [("h", 1)]
    base = polynomial_ring(e, gens, name="universal")
    chern = ChernVector(e, [base.one()] + [base.label(f"c{k}") for k in range(1, e + 1)])
    twisted = twist_chern(chern, t, base.label("h"))
    classes = [str(twisted[p]) for p in range(e + 1)]
    return (0, {"rank": e, "t": str(t), "classes": classes},
            "\n".join(f"c{p}<t*h> = {c}" for p, c in enumerate(classes)))


def cmd_segre(args):
    classes = [Fraction(1)] + [_fraction(x) for x in args.chern.split(",")]
    upto = args.upto if args.upto is not None else len(classes) - 1
    if upto > MAX_SEGRE_DEGREE:
        raise ConfigError(f"degree {upto} is above {MAX_SEGRE_DEGREE} (ring.MAX_SEGRE_DEGREE)")
    segre = [str(s) for s in segre_from_chern(classes, upto=upto)]
    return 0, {"segre": segre}, "\n".join(f"s_{k} = {s}" for k, s in enumerate(segre))


# -- ring verbs ------------------------------------------------------------


def cmd_ring_check(args):
    try:
        model = load_ring_spec(args.spec)
    except ConstructionError as exc:
        info = {"valid": False, "error": str(exc)}
        if getattr(exc, "witness", None) is not None:
            info["witness"] = exc.witness
        return 1, info, f"INVALID: {exc}"
    dims = [len(model.basis(p)) for p in range(model.dimension + 1)]
    return (0, {"valid": True, "name": model.name, "dimension": model.dimension,
                "basis_dims": dims},
            f"{model.name}: dimension {model.dimension}, basis dims {dims}\n"
            "ring axioms OK (commutative, associative, graded)")


def cmd_gram(args):
    model = _load_ring(args.ring)
    Q = hrcheck._gram(model, _element(model, args.eta, model.dimension - 2))
    Q = float_array(Q, float, "Gram matrix").tolist() if args.backend == "float" else Q.fractions()
    width = max((len(str(x)) for row in Q for x in row), default=0)
    return 0, {"eta": args.eta, "gram": Q}, "\n".join(
        f"{lab:>12} | " + "  ".join(f"{str(x):>{width}}" for x in row)
        for lab, row in zip(model.basis(1), Q))


def cmd_signature(args):
    if args.matrix is not None:
        Q = _matrix_from_arg(args.matrix)
    elif args.ring is not None and args.eta is not None:
        model = _load_ring(args.ring)
        Q = hrcheck._gram(model, _element(model, args.eta, model.dimension - 2))
    else:
        raise ConfigError("signature needs --matrix or both --ring and --eta")
    sig, eigs = hrcheck.signature(Q, zero_tol=args.tolerance)
    return (0, {"signature": sig, "eigenvalues": eigs},
            f"signature (n+, n0, n-) = {sig}\n"
            "eigenvalues ~ " + ", ".join(f"{e:.6g}" for e in eigs))


def cmd_hr_pair(args):
    model = _load_ring(args.ring)
    d = model.dimension
    top = _element(model, args.eta_top, d - 1)
    mid = _element(model, args.eta_mid, d - 2)
    h = _element(model, args.h, 1)
    v = hrcheck.is_hr_pair(model, top, mid, h, zero_tol=args.tolerance,
                           exact=args.backend == "exact")
    return _verdict(v)


def cmd_pos_cone(args):
    model = _load_ring(args.ring)
    beta = _element(model, args.beta, 1)
    eta = _element(model, args.eta, model.dimension - 2)
    h = _element(model, args.h, 1)
    v = hrcheck.pos_cone_contains(model, beta, eta, h)
    return _verdict(v)


# -- sheaf verbs -----------------------------------------------------------


def _sheaf_data(model, rank, c1, c2):
    return bg.SheafClassData(
        rank, _element(model, c1, 1), _element(model, c2, 2)
    )


def cmd_slope(args):
    model = _load_ring(args.ring)
    E = _sheaf_data(model, args.rank, args.c1, args.c2)
    eta = _element(model, args.eta, model.dimension - 1)
    mu = bg.slope(E, eta)
    return 0, {"slope": mu}, f"slope = {mu}"


def cmd_discriminant(args):
    model = _load_ring(args.ring)
    E = _sheaf_data(model, args.rank, args.c1, args.c2)
    delta = bg.discriminant(E)
    return 0, {"discriminant": delta.coeffs.fractions()}, f"Delta = {delta}"


def cmd_bogomolov(args):
    model = _load_ring(args.ring)
    E = _sheaf_data(model, args.rank, args.c1, args.c2)
    eta = _element(model, args.eta, model.dimension - 2)
    val = bg.bogomolov_value(E, eta)
    ok = val >= 0
    return (0 if ok else 1), {"bogomolov_value": val, "nonnegative": ok}, (
        f"int Delta(E).eta = {val}  ({'>= 0' if ok else '< 0'})")


def cmd_extension_identity(args):
    model = _load_ring(args.ring)
    F = _sheaf_data(model, args.rank_f, args.c1_f, args.c2_f)
    G = _sheaf_data(model, args.rank_g, args.c1_g, args.c2_g)
    residual, parts = bg.extension_identity(F, G)
    ok = residual.is_zero()
    record = {"residual": residual.coeffs.fractions(), "xi": parts["xi"].coeffs.fractions(),
              "holds": ok}
    text = [f"xi        = {parts['xi']}", f"residual  = {residual}",
            "identity holds" if ok else "IDENTITY VIOLATED"]
    return (0 if ok else 1), record, "\n".join(text)


def cmd_trace_check(args):
    if args.curvature is not None:
        if not (args.omega_top and args.omega_mid):
            raise ConfigError("file mode needs --curvature, --omega-top and --omega-mid")
        try:
            with open(args.curvature) as fh:
                cdata = json.load(fh)
            entries = [[form_from_dict(f) for f in row] for row in cdata["entries"]]
            with open(args.omega_top) as fh:
                top = form_from_dict(json.load(fh))
            with open(args.omega_mid) as fh:
                mid = form_from_dict(json.load(fh))
            F0 = bg.CurvatureMatrix(entries, check=False)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"cannot load curvature data: {exc}") from None
        return _verdict(bg.trace_check(F0, top, mid, zero_tol=args.tolerance))
    # the Schur pair of two seeded Kahler forms, as its intersection numbers
    if args.rank > MAX_TRACE_RANK:
        raise ConfigError(f"rank {args.rank} is above {MAX_TRACE_RANK} (ring.MAX_TRACE_RANK)")
    hrcheck.check_sweep(args.dim, 2)
    rng = np.random.default_rng([args.seed, 0])
    H = np.stack([hrcheck.random_hermitian(args.dim, rng) for _ in range(2)])
    G, m = hrcheck.schur_tensors(Partition((args.dim - 1,)), H)
    raw = bg.random_curvature(args.rank, args.dim, rng)
    if args.higgs:
        raw = raw + bg.higgs_curvature_term(bg.random_higgs(args.rank, args.dim, rng))
    F0 = bg._project(raw, m)
    v = bg._trace_verdict(F0, G, m, args.tolerance)
    return _verdict(v, extra={"seed": args.seed, "higgs": args.higgs})


def cmd_sample_search(args):
    report = hrcheck.sample_search(
        args.dim, args.vars, args.partition,
        trials=args.trials, seed=args.seed, zero_tol=args.tolerance,
    )
    c = report.config
    lines = [f"dim={c['dim']} vars={c['num_vars']} partition={c['partition']} seed={c['seed']}",
             f"trials: {report.trials}  passes: {report.passes}  "
             f"degenerate: {report.degenerates}  failures: {len(report.failures)}"]
    if report.min_margin is not None:
        lines.append(f"worst relative eigenvalue margin: {report.min_margin:.3e}")
    lines += [f"  FAILURE trial {f['trial']} rng_key={f['rng_key']}" for f in report.failures[:3]]
    return (0 if report.all_passed else 1), report.to_dict(), "\n".join(lines)


# -- demos -----------------------------------------------------------------

_DELV_EXPECTED = [[0, 4, 0], [4, 0, 0], [0, 0, -4]]


def _delv_setup():
    data = _fixture("delv.json")
    forms = {name: form_from_dict(d) for name, d in data["forms"].items()}
    amb = torus_ring(4)
    gens = {name: amb.from_form(f) for name, f in forms.items()}
    model = subring(amb, gens, name="delv")
    return forms, amb, model


def cmd_demo_delv(args):
    forms, amb, model = _delv_setup()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    Q = hrcheck.gram(model, eta)
    gram_ok = Q == _DELV_EXPECTED
    eta_h = eta * h
    cube_ok = eta_h == Fraction(1, 3) * h ** 3
    pair = hrcheck.is_hr_pair(model, eta_h, eta, h)
    kernel_form = form_from_dict(_fixture("delv.json")["kernel_form"])
    kernel_ok = wedge(wedge(forms["theta1"], forms["theta2"]), kernel_form).is_zero()
    ok = gram_ok and cube_ok and pair.passed and kernel_ok
    outcome = PASS if ok else FAIL
    record = {"gram": Q, "gram_matches": gram_ok, "eta_h_is_third_h_cubed": cube_ok,
              "hr_pair": pair.to_dict(), "kernel_wedge_vanishes": kernel_ok,
              "outcome": outcome}
    text = [
        "Gram matrix of eta = theta1*theta2 on (theta1, theta2, lambda):",
        *("  [" + ", ".join(str(x) for x in row) + "]" for row in Q),
        f"matches [[0,4,0],[4,0,0],[0,0,-4]]: {gram_ok}",
        f"eta*h == (1/3) h^3:                 {cube_ok}",
        f"(eta*h, eta, h) Hodge-Riemann pair: {pair.outcome}  signature {tuple(pair.signature)}",
        f"eta ^ (i dz1 dzbar2 + i dz2 dzbar1) == 0: {kernel_ok}",
        outcome.upper(),
    ]
    return (0 if ok else 1), record, "\n".join(text)


def cmd_demo_fl(args):
    model = ring_from_spec(_fixture("fulger_lehmann.json"))
    xi = model.label("xi")
    f = model.label("f")
    integrals = {"xi^3": (xi ** 3).integrate(), "xi^2*f": (xi ** 2 * f).integrate(),
                 "(xi+f)^3": ((xi + f) ** 3).integrate()}
    checks = {
        "int xi^3 = -1": integrals["xi^3"] == -1,
        "int xi^2*f = 1": integrals["xi^2*f"] == 1,
        "f^2 = 0": (f * f).is_zero(),
        "int (xi+f)^3 = 2": integrals["(xi+f)^3"] == 2,
    }
    ok = all(checks.values())
    outcome = PASS if ok else FAIL
    record = {"checks": checks, "integrals": integrals, "outcome": outcome}
    text = [f"{label:<18} {'ok' if good else 'VIOLATED'}" for label, good in checks.items()]
    return (0 if ok else 1), record, "\n".join(text + [outcome.upper()])


def cmd_demo_nonhr(args):
    forms, amb, _ = _delv_setup()
    h = amb.from_form(forms["theta1"] + forms["theta2"])
    eta = amb.from_form(wedge(forms["theta1"], forms["theta2"]))
    top = h ** 3
    h2 = h * h
    at_tenth = hrcheck.is_hr_pair(amb, top, eta + Fraction(1, 10) * h2, h)
    at_zero = hrcheck.is_hr_pair(amb, top, eta, h)
    ok = at_tenth.passed and at_zero.outcome in (DEGENERATE, FAIL)
    outcome = PASS if ok else FAIL
    record = {"epsilon_1_10": at_tenth.to_dict(), "epsilon_0": at_zero.to_dict(),
              "outcome": outcome}
    return (0 if ok else 1), record, "\n".join([
        "pairs (h^3, eta + eps*h^2) on the 16-dimensional model:",
        f"  eps = 1/10: {at_tenth.outcome}  signature {tuple(at_tenth.signature)}",
        f"  eps = 0   : {at_zero.outcome}  signature {tuple(at_zero.signature)}",
        outcome.upper(),
    ])


# -- parser ----------------------------------------------------------------


def _add_common(p, tolerance=True, backend=False):
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if tolerance:
        p.add_argument("--tolerance", type=_tolerance, default=1e-9,
                       help="relative zero tolerance for float signatures")
    if backend:
        p.add_argument("--backend", choices=("exact", "float"), default="exact",
                       help="ring products are always exact; float decides on (or "
                            "prints) float copies of the exact matrices")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hrpairs",
        description="Hodge-Riemann pair and Bogomolov-inequality toolkit",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("schur", help="Schur polynomial in the e-basis")
    p.add_argument("--partition", type=_partition, required=True)
    p.add_argument("--vars", type=_count, required=True)
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("derived", help="derived polynomial of a Schur class")
    p.add_argument("--partition", type=_partition, required=True)
    p.add_argument("--vars", type=_count, required=True)
    p.add_argument("--order", type=_count, default=1)
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_derived)

    p = sub.add_parser("twist", help="Chern classes of the twist A<t*h>")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--t", required=True)
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("segre", help="Segre classes from rational Chern classes")
    p.add_argument("--chern", required=True, help="comma-separated c_1,...,c_e")
    p.add_argument("--upto", type=_count)
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_segre)

    p = sub.add_parser("ring", help="ring-spec operations")
    rsub = p.add_subparsers(dest="ring_verb", required=True)
    rc = rsub.add_parser("check", help="validate a ring spec file")
    rc.add_argument("spec")
    _add_common(rc, tolerance=False)
    rc.set_defaults(fn=cmd_ring_check)

    p = sub.add_parser("gram", help="Gram matrix of a degree-(d-2) class")
    p.add_argument("--ring", required=True)
    p.add_argument("--eta", required=True)
    _add_common(p, tolerance=False, backend=True)
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("signature", help="inertia of a symmetric matrix")
    p.add_argument("--matrix", help="JSON literal or path")
    p.add_argument("--ring")
    p.add_argument("--eta")
    _add_common(p)
    p.set_defaults(fn=cmd_signature)

    p = sub.add_parser("hr-pair", help="Hodge-Riemann pair verdict")
    p.add_argument("--ring", required=True)
    p.add_argument("--eta-top", required=True)
    p.add_argument("--eta-mid", required=True)
    p.add_argument("--h", required=True)
    _add_common(p, backend=True)
    p.set_defaults(fn=cmd_hr_pair)

    p = sub.add_parser("pos-cone", help="positive-cone membership")
    p.add_argument("--ring", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--h", required=True)
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_pos_cone)

    p = sub.add_parser("slope", help="slope of sheaf class data")
    p.add_argument("--ring", required=True)
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", default="0")
    p.add_argument("--eta", required=True)
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_slope)

    p = sub.add_parser("discriminant", help="discriminant class 2r c2 - (r-1) c1^2")
    p.add_argument("--ring", required=True)
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", default="0")
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_discriminant)

    p = sub.add_parser("bogomolov", help="integral of the discriminant against eta")
    p.add_argument("--ring", required=True)
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", default="0")
    p.add_argument("--eta", required=True)
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_bogomolov)

    p = sub.add_parser("extension-identity",
                       help="slope-discriminant identity for an extension")
    p.add_argument("--ring", required=True)
    p.add_argument("--rank-f", type=_rank, required=True)
    p.add_argument("--c1-f", required=True)
    p.add_argument("--c2-f", default="0")
    p.add_argument("--rank-g", type=_rank, required=True)
    p.add_argument("--c1-g", required=True)
    p.add_argument("--c2-g", default="0")
    _add_common(p, tolerance=False)
    p.set_defaults(fn=cmd_extension_identity)

    p = sub.add_parser("trace-check", help="curvature trace positivity report")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--rank", type=_rank, default=2)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--higgs", action="store_true",
                   help="add a random nilpotent Higgs contribution")
    p.add_argument("--curvature", help="JSON file with an 'entries' form matrix")
    p.add_argument("--omega-top")
    p.add_argument("--omega-mid")
    _add_common(p)
    p.set_defaults(fn=cmd_trace_check)

    p = sub.add_parser("sample-search", help="randomized Schur-pair search")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--vars", type=_count, required=True)
    p.add_argument("--partition", type=_partition, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_count, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_sample_search)

    p = sub.add_parser("demo", help="golden example reproductions")
    dsub = p.add_subparsers(dest="example", required=True)
    for name, fn in (("delv", cmd_demo_delv), ("fulger-lehmann", cmd_demo_fl),
                     ("non-hr-limit", cmd_demo_nonhr)):
        d = dsub.add_parser(name)
        _add_common(d, tolerance=False)
        d.set_defaults(fn=fn)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code, record, text = args.fn(args)
        out = json.dumps(jsonable(record), indent=2) if args.json else text
    except HRPairsError as exc:  # 2 for input the program cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, DegreeError)) else 1
    except ValueError as exc:  # only Python's limit on the digits of an int as text
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a number has too many digits: {exc}", file=sys.stderr)
        return 2
    print(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
