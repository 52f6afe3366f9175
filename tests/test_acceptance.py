"""Acceptance gate: the thirteen headline checks, one pass/fail line each.

Criteria 1-5, 8-10 and 13 are exact reproductions of worked examples;
6, 7, 11 and 12 are seeded property suites over random data.
"""

import json
from fractions import Fraction
from importlib import resources

import numpy as np

from hrpairs import bogomolov as bg
from hrpairs import hrcheck
from hrpairs.exterior import PPForm, form_from_dict, wedge, wedge_all
from hrpairs.ring import (
    RingTPoly,
    polynomial_ring,
    product_with_p1,
    proj_bundle_ring,
    ring_from_spec,
    subring,
    torus_ring,
)
from hrpairs.symfunc import (
    ChernVector,
    Partition,
    derived,
    evaluate_at_chern,
    invert_total_class,
    schur,
    segre_from_chern,
    twist_chern,
)
from hrpairs.verdict import PASS


def _partitions(n, maxpart=None):
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, maxpart or n), 0, -1):
        out.extend((first,) + rest for rest in _partitions(n - first, first))
    return out


def _report(num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[{num:2d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance check {num} ({name}) failed{tail}"


def _fixture(name):
    with resources.files("hrpairs").joinpath(f"fixtures/{name}").open() as fh:
        return json.load(fh)


def _delv():
    data = _fixture("delv.json")
    forms = {k: form_from_dict(v) for k, v in data["forms"].items()}
    amb = torus_ring(4)
    model = subring(amb, {k: amb.from_form(f) for k, f in forms.items()},
                    name="delv")
    kernel = form_from_dict(data["kernel_form"])
    return forms, amb, model, kernel


def test_01_delv_gram_matrix():
    _, _, model, _ = _delv()
    eta = model.label("theta1") * model.label("theta2")
    Q = hrcheck.gram(model, eta)
    expected = [[0, 4, 0], [4, 0, 0], [0, 0, -4]]
    ok = [[Fraction(x) for x in row] for row in Q] == \
        [[Fraction(x) for x in row] for row in expected]
    _report(1, "delv Gram matrix", ok, f"Q = {Q}")


def test_02_delv_kernel_form():
    forms, amb, _, kernel = _delv()
    eta_form = wedge(forms["theta1"], forms["theta2"])
    wedge_zero = wedge(eta_form, kernel).is_zero()
    Q = hrcheck.gram(amb, amb.from_form(eta_form))
    sig, _ = hrcheck.signature(Q)
    v = amb.from_form(kernel).coeffs
    in_kernel = all(
        sum(row[j] * v[j] for j in range(len(v))) == 0 for row in Q
    )
    ok = wedge_zero and sig[1] >= 1 and in_kernel
    _report(2, "delv kernel form", ok,
            f"wedge zero {wedge_zero}, ambient signature {sig}")


def test_03_delv_hr_pair():
    _, _, model, _ = _delv()
    eta = model.label("theta1") * model.label("theta2")
    h = model.label("theta1") + model.label("theta2")
    cube = eta * h == Fraction(1, 3) * h ** 3
    pair = hrcheck.is_hr_pair(model, eta * h, eta, h)
    ok = cube and pair.passed
    _report(3, "delv pair (eta*h, eta)", ok,
            f"eta*h == h^3/3 {cube}, signature {pair.signature}")


def test_04_degenerate_limit():
    forms, amb, _, _ = _delv()
    h = amb.from_form(forms["theta1"] + forms["theta2"])
    eta = amb.from_form(wedge(forms["theta1"], forms["theta2"]))
    top = h ** 3
    inside = hrcheck.is_hr_pair(amb, top, eta + Fraction(1, 10) * h * h, h)
    boundary = hrcheck.is_hr_pair(amb, top, eta, h)
    ok = inside.passed and boundary.outcome != PASS
    _report(4, "degenerate boundary limit", ok,
            f"eps=1/10 {inside.outcome}, eps=0 {boundary.outcome} "
            f"{boundary.signature}")


def test_05_projectivized_bundle_ring():
    model = ring_from_spec(_fixture("fulger_lehmann.json"))
    xi = model.label("xi")
    f = model.label("f")
    vals = (
        (xi ** 3).integrate() == -1
        and (xi ** 2 * f).integrate() == 1
        and (f * f).is_zero()
    )
    _report(5, "three-fold spec intersection numbers", vals,
            "xi^3 -> -1, xi^2*f -> 1, f^2 = 0")


def test_06_classical_signature_sweep():
    worst = None
    ok = True
    for d in (2, 3, 4):
        want = (1, 0, d * d - 1)
        for trial in range(100):
            rng = np.random.default_rng([6, d, trial])
            omega = hrcheck.random_kahler(d, rng)
            top = wedge_all([omega] * (d - 1))
            mid = wedge_all([omega] * (d - 2)) if d > 2 else PPForm.one(
                d, exact=False)
            v = hrcheck.pointwise_hr_pair(top, mid, omega)
            eigs = v.eigenvalues
            gap = min(abs(e) for e in eigs) / max(abs(e) for e in eigs)
            worst = gap if worst is None else min(worst, gap)
            ok = ok and v.passed and v.signature == want and gap > 1e-8
    _report(6, "classical signatures, 300 random metrics", ok,
            f"min relative eigenvalue gap {worst:.3e}")


def test_07_schur_pair_sweep():
    reports = []
    ok = True
    for d in (2, 3, 4):
        for e in range(d - 1, 6):
            for lam in map(Partition, _partitions(d - 1)):
                if len(lam) > e:
                    continue
                rep = hrcheck.sample_search(d, e, lam, trials=100,
                                            seed=7000 + 100 * d + e)
                reports.append(rep)
                ok = ok and rep.all_passed
    configs = len(reports)
    trials = sum(r.trials for r in reports)
    margin = min(r.min_margin for r in reports)
    failures = [f for r in reports for f in r.failures]
    _report(7, "Schur-class pairs, randomized", ok and not failures,
            f"{configs} configs, {trials} trials, min margin {margin:.3e}"
            + (f", failures {failures[:2]}" if failures else ""))


def test_08_product_with_p1_expansion():
    e = 3
    base = polynomial_ring(3, [("c1", 1), ("c2", 2), ("c3", 3)],
                           name="chern-base")
    prod = product_with_p1(base)
    chern = ChernVector(e, [base.one()] + [base.label(f"c{k}")
                                           for k in range(1, e + 1)])
    hat = twist_chern(ChernVector(e, [prod.pullback(c) for c in chern]),
                      Fraction(1), prod.tau)
    checked = []
    ok = True
    for weight in (1, 2, 3):
        for lam in map(Partition, _partitions(weight)):
            p = schur(lam, e)
            lhs = evaluate_at_chern(p, hat)
            rhs = prod.pullback(evaluate_at_chern(p, chern)) + prod.tau * \
                prod.pullback(evaluate_at_chern(derived(p, 1), chern))
            ok = ok and lhs == rhs
            checked.append(str(lam))
    _report(8, "hatted Schur split s + s'*tau", ok,
            f"partitions {', '.join(checked)}")


def test_09_pushforward_vs_twisted_segre():
    ok = True
    cases = 0
    for d in (2, 3):
        for e in (1, 2, 3, 4):
            bdim = d - 1
            gens = [(f"c{k}", k) for k in range(1, min(e, bdim) + 1)]
            base = polynomial_ring(bdim, gens + [("h", 1)],
                                   name=f"base-{d}-{e}")
            chern = [base.one()] + [
                base.label(f"c{k}") if k <= bdim else base.zero(k)
                for k in range(1, e + 1)
            ]
            pb = proj_bundle_ring(base, chern, e)
            h = base.label("h")
            t = RingTPoly.variable(pb.one())
            power = (t * pb.pullback(h) + pb.xi) ** (d + e - 2)
            lhs = RingTPoly([pb.pushforward(c) for c in power.coeffs],
                            base.zero(d - 1))
            twisted = twist_chern(ChernVector(e, chern),
                                  RingTPoly.variable(base.one()), h)
            seg = segre_from_chern(list(twisted), upto=d - 1)[d - 1]
            if not isinstance(seg, RingTPoly):
                seg = RingTPoly([seg], base.zero(d - 1))
            ok = ok and lhs == seg
            cases += 1
    _report(9, "pushforward vs twisted Segre class", ok,
            f"{cases} (dim, rank) cases, exact in t")


def test_10_extension_identity_sweep():
    model = ring_from_spec(_fixture("fulger_lehmann.json"))
    xi = model.label("xi")
    f = model.label("f")
    deg2 = (xi * xi, xi * f)

    def rand_sheaf(rng):
        def q():
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        c1 = q() * xi + q() * f
        c2 = q() * deg2[0] + q() * deg2[1]
        return bg.SheafClassData(int(rng.integers(1, 5)), c1, c2)

    rng = np.random.default_rng(10)
    ok = True
    for _ in range(1000):
        residual, _ = bg.extension_identity(rand_sheaf(rng), rand_sheaf(rng))
        ok = ok and residual.is_zero()

    ab = polynomial_ring(2, [("a", 1), ("b", 1)], name="rank-two")
    a, b = ab.label("a"), ab.label("b")
    F = bg.SheafClassData(1, a, ab.zero(2))
    G = bg.SheafClassData(1, b, ab.zero(2))
    closed = bg.discriminant(bg.extension_class(F, G)) == -(a - b) * (a - b)
    _report(10, "extension identity", ok and closed,
            "1000 random residuals zero, rank-2 Delta = -(a-b)^2")


def _curvature_sweep(num, name, with_higgs):
    worst = 0.0
    ok = True
    for trial in range(100):
        rng = np.random.default_rng([num, trial])
        r = 2 + trial % 3
        omegas = [hrcheck.random_kahler(3, rng) for _ in range(2)]
        top, mid = hrcheck.schur_form_pair(Partition((2,)), omegas, 3)
        raw = bg.random_curvature(r, 3, rng)
        if with_higgs:
            raw = raw + bg.higgs_curvature_term(bg.random_higgs(r, 3, rng))
        F0 = bg.constraint_project(raw, top)
        v = bg.trace_check(F0, top, mid)
        scale = v.details["scale"]
        low = min(min(min(row) for row in v.details["terms"]),
                  v.details["total"])
        worst = min(worst, low / scale)
        ok = ok and v.passed and low >= -1e-9 * scale

    flat = bg.trace_check(bg.CurvatureMatrix.zero(2, 3), top, mid)
    ok = ok and flat.details["projectively_flat"] and flat.details["total"] == 0
    _report(num, name, ok,
            f"worst term/scale {worst:.3e}, flat case flagged")


def test_11_curvature_trace_positivity():
    _curvature_sweep(11, "curvature trace positivity, 100 seeded", False)


def test_12_higgs_trace_positivity():
    _curvature_sweep(12, "Higgs curvature trace positivity, 100 seeded", True)


def test_13_total_class_inversion():
    rng = np.random.default_rng(13)
    ok = True
    for e in range(1, 6):
        for _ in range(40):
            classes = [Fraction(1)] + [
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                for _ in range(e)
            ]
            s = invert_total_class(classes, upto=e + 2)
            for k in range(e + 3):
                conv = sum(
                    classes[i] * s[k - i]
                    for i in range(max(0, k - (e + 2)), min(k, e) + 1)
                )
                ok = ok and conv == (1 if k == 0 else 0)
    _report(13, "total class inversion up to rank 5", ok,
            "200 random rational classes")
