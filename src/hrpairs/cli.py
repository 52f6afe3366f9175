"""Command-line surface: run checks on ring specs and reproduce examples.

Exit codes: 0 = pass, 1 = failing/degenerate verdict, 2 = usage or I/O error.
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
from .errors import ConfigError, ConstructionError, ConsistencyError, DegreeError, HRPairsError
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
from .symfunc import ChernVector, Partition, derived, schur, segre_from_chern, twist_chern
from .verdict import DEGENERATE, FAIL, PASS, jsonable


def _die(msg):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


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
        _die(f"not a rational number: {text!r}")


def _load_ring(path):
    try:
        return load_ring_spec(path)
    except OSError as exc:
        _die(f"cannot read ring spec {path}: {exc}")
    except json.JSONDecodeError as exc:
        _die(f"ring spec {path} is not valid JSON: line {exc.lineno}: {exc.msg}")
    except (ConfigError, ConstructionError) as exc:
        _die(f"ring spec {path}: {exc}")


def _element(model, expr, degree=None):
    try:
        elem = parse_element(model, expr)
    except (ConfigError, DegreeError) as exc:
        _die(f"bad element {expr!r}: {exc}")
    if degree is not None and elem.degree != degree:
        if elem.is_zero():
            return model.zero(degree)
        _die(f"element {expr!r} has degree {elem.degree}, expected {degree}")
    return elem


def _emit_verdict(v, as_json, extra=None):
    if as_json:
        data = v.to_dict()
        if extra:
            data.update(jsonable(extra))
        print(json.dumps(data, indent=2))
    else:
        print(f"outcome    : {v.outcome}")
        if v.signature is not None:
            print(f"signature  : {tuple(v.signature)}")
        if v.eigenvalues:
            pretty = ", ".join(f"{e:.6g}" for e in v.eigenvalues)
            print(f"eigenvalues: [{pretty}]")
        if v.witness:
            print(f"witness    : {json.dumps(jsonable(v.witness))}")
        if extra:
            for k, val in extra.items():
                print(f"{k:<11}: {val}")
    return 0 if v.passed else 1


def _matrix_from_arg(text):
    if not text.lstrip().startswith("["):
        try:
            with open(text) as fh:
                text = fh.read()
        except OSError as exc:
            _die(f"cannot read matrix {text!r}: {exc}")
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        _die(f"matrix is not valid JSON: {exc.msg}")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        _die("matrix must be a JSON list of rows")
    out = []
    for row in rows:
        conv = []
        for x in row:
            if isinstance(x, bool):
                _die("matrix entries must be numbers")
            elif isinstance(x, int):
                conv.append(Fraction(x))
            elif isinstance(x, str):
                conv.append(_fraction(x))
            elif isinstance(x, float) and math.isfinite(x):
                conv.append(x)
            else:
                _die(f"bad matrix entry {x!r}")
        out.append(conv)
    n = len(out)
    if any(len(r) != n for r in out):
        _die("matrix must be square")
    if any(out[i][j] != out[j][i] for i in range(n) for j in range(i)):
        _die("matrix must be symmetric")
    return out


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
    p = schur(lam, args.vars)
    if args.json:
        print(json.dumps({"partition": str(lam), "vars": args.vars, "schur": str(p)}))
    else:
        print(p)
    return 0


def cmd_derived(args):
    lam = args.partition
    _check_partition(lam)
    try:
        p = derived(schur(lam, args.vars), args.order)
    except DegreeError as exc:  # an order past the weight
        _die(str(exc))
    if args.json:
        print(json.dumps({
            "partition": str(lam), "vars": args.vars,
            "order": args.order, "derived": str(p),
        }))
    else:
        print(p)
    return 0


def cmd_twist(args):
    e = args.rank
    if e > MAX_TWIST_RANK:
        raise ConfigError(f"rank {e} is above {MAX_TWIST_RANK} (ring.MAX_TWIST_RANK)")
    t = _fraction(args.t)
    gens = [(f"c{k}", k) for k in range(1, e + 1)] + [("h", 1)]
    base = polynomial_ring(e, gens, name="universal")
    chern = ChernVector(e, [base.one()] + [base.label(f"c{k}") for k in range(1, e + 1)])
    twisted = twist_chern(chern, t, base.label("h"))
    if args.json:
        print(json.dumps({
            "rank": e, "t": str(t),
            "classes": [str(twisted[p]) for p in range(e + 1)],
        }))
    else:
        for p in range(e + 1):
            print(f"c{p}<t*h> = {twisted[p]}")
    return 0


def cmd_segre(args):
    classes = [Fraction(1)] + [_fraction(x) for x in args.chern.split(",")]
    upto = args.upto if args.upto is not None else len(classes) - 1
    if upto > MAX_SEGRE_DEGREE:
        raise ConfigError(f"degree {upto} is above {MAX_SEGRE_DEGREE} (ring.MAX_SEGRE_DEGREE)")
    try:
        segre = [str(s) for s in segre_from_chern(classes, upto=upto)]
    except ValueError as exc:  # Python's limit on the digits of a printed int
        raise ConfigError(f"a Segre class is too long to print: {exc}") from None
    if args.json:
        print(json.dumps({"segre": segre}))
    else:
        for k, s in enumerate(segre):
            print(f"s_{k} = {s}")
    return 0


# -- ring verbs ------------------------------------------------------------


def cmd_ring_check(args):
    try:
        with open(args.spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        _die(f"cannot read {args.spec}: {exc}")
    except json.JSONDecodeError as exc:
        _die(f"{args.spec} is not valid JSON: line {exc.lineno}: {exc.msg}")
    try:
        model = ring_from_spec(data)
    except (ConstructionError, ConsistencyError) as exc:
        info = {"valid": False, "error": str(exc)}
        if getattr(exc, "witness", None) is not None:
            info["witness"] = jsonable(exc.witness)
        print(json.dumps(info, indent=2) if args.json
              else f"INVALID: {exc}")
        return 1
    except ConfigError as exc:
        _die(f"ring spec {args.spec}: {exc}")
    dims = [len(model.basis(p)) for p in range(model.dimension + 1)]
    if args.json:
        print(json.dumps({
            "valid": True, "name": model.name,
            "dimension": model.dimension, "basis_dims": dims,
        }, indent=2))
    else:
        print(f"{model.name}: dimension {model.dimension}, basis dims {dims}")
        print("ring axioms OK (commutative, associative, graded)")
    return 0


def cmd_gram(args):
    model = _load_ring(args.ring)
    Q = hrcheck._gram(model, _element(model, args.eta, model.dimension - 2))
    Q = hrcheck.float_copy(Q, "Gram matrix").tolist() if args.backend == "float" else Q.fractions()
    if args.json:
        print(json.dumps({"eta": args.eta, "gram": jsonable(Q)}, indent=2))
    else:
        labels = model.basis(1)
        width = max(len(str(x)) for row in Q for x in row)
        for lab, row in zip(labels, Q):
            cells = "  ".join(f"{str(x):>{width}}" for x in row)
            print(f"{lab:>12} | {cells}")
    return 0


def cmd_signature(args):
    if args.matrix is not None:
        Q = _matrix_from_arg(args.matrix)
    elif args.ring is not None and args.eta is not None:
        model = _load_ring(args.ring)
        eta = _element(model, args.eta, model.dimension - 2)
        Q = hrcheck.gram(model, eta)
    else:
        _die("signature needs --matrix or both --ring and --eta")
    sig, eigs = hrcheck.signature(Q, zero_tol=args.tolerance)
    if args.json:
        print(json.dumps({"signature": list(sig), "eigenvalues": eigs}))
    else:
        print(f"signature (n+, n0, n-) = {sig}")
        print("eigenvalues ~ " + ", ".join(f"{e:.6g}" for e in eigs))
    return 0


def cmd_hr_pair(args):
    model = _load_ring(args.ring)
    d = model.dimension
    top = _element(model, args.eta_top, d - 1)
    mid = _element(model, args.eta_mid, d - 2)
    h = _element(model, args.h, 1)
    v = hrcheck.is_hr_pair(model, top, mid, h, zero_tol=args.tolerance,
                           exact=args.backend == "exact")
    return _emit_verdict(v, args.json)


def cmd_pos_cone(args):
    model = _load_ring(args.ring)
    beta = _element(model, args.beta, 1)
    eta = _element(model, args.eta, model.dimension - 2)
    h = _element(model, args.h, 1)
    v = hrcheck.pos_cone_contains(model, beta, eta, h)
    return _emit_verdict(v, args.json)


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
    print(json.dumps({"slope": jsonable(mu)}) if args.json else f"slope = {mu}")
    return 0


def cmd_discriminant(args):
    model = _load_ring(args.ring)
    E = _sheaf_data(model, args.rank, args.c1, args.c2)
    delta = bg.discriminant(E)
    if args.json:
        print(json.dumps({"discriminant": jsonable(delta.coeffs.fractions())}))
    else:
        print(f"Delta = {delta}")
    return 0


def cmd_bogomolov(args):
    model = _load_ring(args.ring)
    E = _sheaf_data(model, args.rank, args.c1, args.c2)
    eta = _element(model, args.eta, model.dimension - 2)
    val = bg.bogomolov_value(E, eta)
    if args.json:
        print(json.dumps({"bogomolov_value": jsonable(val), "nonnegative": val >= 0}))
    else:
        print(f"int Delta(E).eta = {val}  ({'>= 0' if val >= 0 else '< 0'})")
    return 0 if val >= 0 else 1


def cmd_extension_identity(args):
    model = _load_ring(args.ring)
    F = _sheaf_data(model, args.rank_f, args.c1_f, args.c2_f)
    G = _sheaf_data(model, args.rank_g, args.c1_g, args.c2_g)
    residual, parts = bg.extension_identity(F, G)
    ok = residual.is_zero()
    if args.json:
        print(json.dumps({
            "residual": jsonable(residual.coeffs.fractions()),
            "xi": jsonable(parts["xi"].coeffs.fractions()),
            "holds": ok,
        }))
    else:
        print(f"xi        = {parts['xi']}")
        print(f"residual  = {residual}")
        print("identity holds" if ok else "IDENTITY VIOLATED")
    return 0 if ok else 1


def cmd_trace_check(args):
    if args.curvature is not None:
        if not (args.omega_top and args.omega_mid):
            _die("file mode needs --curvature, --omega-top and --omega-mid")
        try:
            with open(args.curvature) as fh:
                cdata = json.load(fh)
            entries = [[form_from_dict(f) for f in row] for row in cdata["entries"]]
            with open(args.omega_top) as fh:
                top = form_from_dict(json.load(fh))
            with open(args.omega_mid) as fh:
                mid = form_from_dict(json.load(fh))
            F0 = bg.CurvatureMatrix(entries, check=False)
        except (OSError, KeyError, ValueError, TypeError, DegreeError, ConfigError) as exc:
            _die(f"cannot load curvature data: {exc}")
    else:
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
    try:
        v = (bg.trace_check(F0, top, mid, zero_tol=args.tolerance) if args.curvature
             else bg._trace_verdict(F0, G, m, args.tolerance))
    except (ConfigError, DegreeError) as exc:
        _die(str(exc))
    extra = None if args.curvature else {"seed": args.seed, "higgs": args.higgs}
    return _emit_verdict(v, args.json, extra=extra)


def cmd_sample_search(args):
    report = hrcheck.sample_search(
        args.dim, args.vars, args.partition,
        trials=args.trials, seed=args.seed, zero_tol=args.tolerance,
    )
    if args.json:
        print(report.to_json(indent=2))
    else:
        c = report.config
        print(f"dim={c['dim']} vars={c['num_vars']} "
              f"partition={c['partition']} seed={c['seed']}")
        print(f"trials: {report.trials}  passes: {report.passes}  "
              f"degenerate: {report.degenerates}  failures: {len(report.failures)}")
        if report.min_margin is not None:
            print(f"worst relative eigenvalue margin: {report.min_margin:.3e}")
        for f in report.failures[:3]:
            print(f"  FAILURE trial {f['trial']} rng_key={f['rng_key']}")
    return 0 if report.all_passed else 1


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
    gram_ok = [[Fraction(x) for x in row] for row in Q] == [
        [Fraction(x) for x in row] for row in _DELV_EXPECTED
    ]
    eta_h = eta * h
    cube_ok = eta_h == Fraction(1, 3) * h ** 3
    pair = hrcheck.is_hr_pair(model, eta_h, eta, h)
    kernel_form = form_from_dict(_fixture("delv.json")["kernel_form"])
    kernel_ok = wedge(wedge(forms["theta1"], forms["theta2"]), kernel_form).is_zero()
    ok = gram_ok and cube_ok and pair.passed and kernel_ok
    if args.json:
        print(json.dumps({
            "gram": jsonable(Q),
            "gram_matches": gram_ok,
            "eta_h_is_third_h_cubed": cube_ok,
            "hr_pair": pair.to_dict(),
            "kernel_wedge_vanishes": kernel_ok,
            "outcome": PASS if ok else FAIL,
        }, indent=2))
    else:
        print("Gram matrix of eta = theta1*theta2 on (theta1, theta2, lambda):")
        for row in Q:
            print("  [" + ", ".join(str(x) for x in row) + "]")
        print(f"matches [[0,4,0],[4,0,0],[0,0,-4]]: {gram_ok}")
        print(f"eta*h == (1/3) h^3:                 {cube_ok}")
        print(f"(eta*h, eta, h) Hodge-Riemann pair: {pair.outcome}"
              f"  signature {tuple(pair.signature)}")
        print(f"eta ^ (i dz1 dzbar2 + i dz2 dzbar1) == 0: {kernel_ok}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_demo_fl(args):
    model = ring_from_spec(_fixture("fulger_lehmann.json"))
    xi = model.label("xi")
    f = model.label("f")
    checks = {
        "int xi^3 = -1": (xi ** 3).integrate() == -1,
        "int xi^2*f = 1": (xi ** 2 * f).integrate() == 1,
        "f^2 = 0": (f * f).is_zero(),
        "int (xi+f)^3 = 2": ((xi + f) ** 3).integrate() == 2,
    }
    ok = all(checks.values())
    if args.json:
        print(json.dumps({
            "checks": checks,
            "integrals": {
                "xi^3": jsonable((xi ** 3).integrate()),
                "xi^2*f": jsonable((xi ** 2 * f).integrate()),
                "(xi+f)^3": jsonable(((xi + f) ** 3).integrate()),
            },
            "outcome": PASS if ok else FAIL,
        }, indent=2))
    else:
        for label, good in checks.items():
            print(f"{label:<18} {'ok' if good else 'VIOLATED'}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_demo_nonhr(args):
    forms, amb, _ = _delv_setup()
    h = amb.from_form(forms["theta1"] + forms["theta2"])
    eta = amb.from_form(wedge(forms["theta1"], forms["theta2"]))
    top = h ** 3
    h2 = h * h
    at_tenth = hrcheck.is_hr_pair(amb, top, eta + Fraction(1, 10) * h2, h)
    at_zero = hrcheck.is_hr_pair(amb, top, eta, h)
    ok = at_tenth.passed and at_zero.outcome in (DEGENERATE, FAIL)
    if args.json:
        print(json.dumps({
            "epsilon_1_10": at_tenth.to_dict(),
            "epsilon_0": at_zero.to_dict(),
            "outcome": PASS if ok else FAIL,
        }, indent=2))
    else:
        print("pairs (h^3, eta + eps*h^2) on the 16-dimensional model:")
        print(f"  eps = 1/10: {at_tenth.outcome}  signature {tuple(at_tenth.signature)}")
        print(f"  eps = 0   : {at_zero.outcome}  signature {tuple(at_zero.signature)}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


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
    p.add_argument("example", choices=("delv", "fulger-lehmann", "non-hr-limit"))
    _add_common(p, tolerance=False)
    p.set_defaults(fn=None)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.verb == "demo":
        fn = {
            "delv": cmd_demo_delv,
            "fulger-lehmann": cmd_demo_fl,
            "non-hr-limit": cmd_demo_nonhr,
        }[args.example]
    else:
        fn = args.fn
    try:
        return fn(args)
    except ConfigError as exc:  # a value the program cannot use
        _die(str(exc))
    except HRPairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
