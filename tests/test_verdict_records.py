"""Exact verdict records pinned in a committed fixture.

tests/exact_verdicts.json holds Verdict.to_dict() of exact pair checks: the
DELV family (eta + eps*h^2, both signs, eps = 0 included) on torus_ring(4)
and pointwise on the forms, twelve Fulger-Lehmann checks and twelve seeded
Schur pairs of exact Kahler forms at d = 3, 4.  Only the float evidence
(eigenvalues, certifying_direction) is left out, since it may differ in the
last bits between numpy builds; everything exact must repeat byte for byte.

Run ``PYTHONPATH=src python tests/test_verdict_records.py`` from the
repository root to record the fixture again; only do so when a change of
verdicts is intended.
"""

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hrpairs.exterior import form_from_dict, form_from_hermitian, std_kahler, wedge
from hrpairs.hrcheck import is_hr_pair, pointwise_hr_pair, pos_cone_contains, schur_form_pair
from hrpairs.ring import parse_element, ring_from_spec, torus_ring
from hrpairs.scalars import GaussianRational
from hrpairs.symfunc import Partition

FIXTURE = Path(__file__).resolve().parent / "exact_verdicts.json"
EVIDENCE = ("eigenvalues", "certifying_direction")

DELV_EPS = ["0", "1/10", "1/3", "7/11", "-1/100"]
# cases of the Fulger-Lehmann reference pool of the benchmark
FL_HR_PAIR = [
    ("49/4*xi^2+77/2*xi*f", "7/2*xi+5*f", "3*xi+13/2*f"),
    ("9/2*xi^2+21*xi*f", "3/2*xi+5*f", "5/2*xi+5*f"),
    ("4*xi^2+16*xi*f", "2*xi+9/2*f", "4*xi+9/2*f"),
    ("15/4*xi^2+13*xi*f", "5/2*xi+9/2*f", "2*xi+5/2*f"),
    ("21/4*xi^2+107/4*xi*f", "3/2*xi+11/2*f", "7/2*xi+15/2*f"),
    ("1*xi^2+9*xi*f", "1*xi+5*f", "1*xi+2*f"),
]
FL_POS_CONE = [
    ("-5/2*xi+3/2*f", "4*xi+9/2*f", "2*xi+5/2*f"),
    ("-1/2*xi-3*f", "3/2*xi+5/2*f", "3/2*xi+5/2*f"),
    ("3*xi-5/2*f", "4*xi+6*f", "2*xi+6*f"),
    ("5/2*xi+2*f", "3*xi+6*f", "7/2*xi+4*f"),
    ("5/2*xi+5/2*f", "4*xi+13/2*f", "4*xi+8*f"),
    ("1*f", "2*xi+3*f", "3*xi+9/2*f"),
]
# (d, partition, number of forms, seed, denominators of the parts, mid negated)
SCHUR_PAIRS = [
    (3, (2,), 2, 1, (1, 1), False),
    (3, (1, 1), 2, 2, (1, 1), False),
    (3, (2,), 3, 3, (3, 7), False),
    (3, (1, 1), 3, 4, (3, 7), True),
    (3, (2,), 2, 5, (1, 1), True),
    (3, (1, 1), 4, 6, (2, 5), False),
    (4, (3,), 2, 7, (1, 1), False),
    (4, (2, 1), 2, 8, (1, 1), False),
    (4, (1, 1, 1), 3, 9, (1, 1), False),
    (4, (2, 1), 3, 10, (3, 7), True),
    (4, (3,), 2, 11, (3, 7), False),
    (4, (1, 1, 1), 3, 12, (2, 5), True),
]


def exact_kahler(d, rng, denominators):
    """i H for H = A^* A + Id, A with Gaussian-integer entries in [-2, 2]
    whose real and imaginary parts are divided by the two denominators."""
    p, q = denominators
    A = [[GaussianRational(Fraction(int(rng.integers(-2, 3)), p),
                           Fraction(int(rng.integers(-2, 3)), q))
          for _ in range(d)] for _ in range(d)]
    H = [[sum((A[k][i].conjugate() * A[k][j] for k in range(d)), GaussianRational(0))
          + (1 if i == j else 0) for j in range(d)] for i in range(d)]
    return form_from_hermitian(H)


def without_evidence(x):
    """A Verdict.to_dict() with the float evidence fields dropped at every level."""
    if isinstance(x, dict):
        return {k: without_evidence(v) for k, v in x.items() if k not in EVIDENCE}
    if isinstance(x, list):
        return [without_evidence(v) for v in x]
    return x


def delv_records():
    data = json.loads(resources.files("hrpairs").joinpath("fixtures/delv.json").read_text())
    forms = {name: form_from_dict(d) for name, d in data["forms"].items()}
    h_form = forms["theta1"] + forms["theta2"]
    eta_form = wedge(forms["theta1"], forms["theta2"])
    h2_form = wedge(h_form, h_form)
    amb = torus_ring(4)
    h, eta = amb.from_form(h_form), amb.from_form(eta_form)
    for text in DELV_EPS:
        eps = Fraction(text)
        for sign in (1, -1):
            key = f"delv eps={text} sign={sign}"
            yield f"{key} ring", is_hr_pair(amb, h ** 3, (eta + eps * h * h) * sign, h)
            yield f"{key} pointwise", pointwise_hr_pair(
                wedge(h2_form, h_form), (eta_form + h2_form * eps) * sign, std_kahler(4))


def fulger_lehmann_records():
    spec = json.loads(
        resources.files("hrpairs").joinpath("fixtures/fulger_lehmann.json").read_text())
    model = ring_from_spec(spec)
    for top, mid, h in FL_HR_PAIR:
        args = (parse_element(model, x) for x in (top, mid, h))
        yield f"fulger-lehmann hr-pair {top} | {mid} | {h}", is_hr_pair(model, *args)
    for beta, eta, h in FL_POS_CONE:
        args = (parse_element(model, x) for x in (beta, eta, h))
        yield f"fulger-lehmann pos-cone {beta} | {eta} | {h}", pos_cone_contains(model, *args)


def schur_records():
    for d, lam, count, seed, denominators, negate in SCHUR_PAIRS:
        rng = np.random.default_rng([d, seed])
        omegas = [exact_kahler(d, rng, denominators) for _ in range(count)]
        top, mid = schur_form_pair(Partition(lam), omegas, d)
        omega = std_kahler(d) if seed % 2 else exact_kahler(d, rng, denominators)
        yield (f"schur d={d} lam={lam} forms={count} seed={seed} den={denominators}"
               f" negated={negate}",
               pointwise_hr_pair(top, mid * -1 if negate else mid, omega))


def records():
    """{name: Verdict.to_dict() without the float evidence} of every pinned check."""
    out = {}
    for group in (delv_records, fulger_lehmann_records, schur_records):
        for name, verdict in group():
            out[name] = without_evidence(verdict.to_dict())
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("group", [delv_records, fulger_lehmann_records, schur_records],
                         ids=["delv", "fulger-lehmann", "schur"])
def test_exact_verdict_records_repeat_byte_for_byte(pinned, group):
    for name, verdict in group():
        got = json.dumps(without_evidence(verdict.to_dict()), sort_keys=True)
        assert got == json.dumps(pinned[name], sort_keys=True), name


def test_the_fixture_holds_no_other_record(pinned):
    counts = (4 * len(DELV_EPS), len(FL_HR_PAIR) + len(FL_POS_CONE), len(SCHUR_PAIRS))
    assert len(pinned) == sum(counts) == 44


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n")
