"""Hodge-Riemann property / pair verdicts on the worked models."""

import json
import math
import re
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hrpairs import exterior, hrcheck, ring
from hrpairs.errors import (
    ConfigError,
    DegreeError,
    SingularPairingError,
)
from hrpairs.exterior import (
    PPForm,
    _mid_gram,
    _top_functional,
    form_from_dict,
    form_from_hermitian,
    hermitian_from_form,
    positivity_dminus1,
    std_kahler,
    wedge,
)
from hrpairs.hrcheck import (
    _degree_one_pairing,
    _hermitians,
    _pair_verdict,
    _restricted_negdef,
    divide,
    gram,
    has_hr_property,
    is_hr_pair,
    pointwise_hr_pair,
    pos_cone_contains,
    random_kahler,
    sample_search,
    schur_form_pair,
    schur_tensors,
    signature,
)
from hrpairs.ring import (
    _real_basis_matrix,
    form_from_real_coordinates,
    parse_element,
    real_coordinates,
    relation_ring,
    subring,
    torus_ring,
)
from hrpairs.linalg import (
    float_signature,
    inertia,
    rational_inertia,
    rational_nullspace,
    rational_solve,
)
from hrpairs.scalars import ExactArray, GaussianRational, float_array
from hrpairs.symfunc import Partition, derived, evaluate, schur
from hrpairs.verdict import jsonable


def delv_model():
    data = json.loads(
        resources.files("hrpairs").joinpath("fixtures/delv.json").read_text()
    )
    amb = torus_ring(4)
    gens = {
        name: amb.from_form(form_from_dict(d)) for name, d in data["forms"].items()
    }
    return subring(amb, gens, name="delv"), data


# -- signatures ------------------------------------------------------------


@pytest.mark.parametrize("functional", [(-1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 2),
                                        (3, -1, 0, 2), (-5, 1, 1, 0)])
def test_float_restriction_to_a_hyperplane_matches_the_exact_one(functional):
    rows = [[2, 1, 0, 0], [1, -1, 1, 0], [0, 1, -3, 1], [0, 0, 1, -1]]
    exact = _restricted_negdef(ExactArray.of(rows), ExactArray.of(list(functional)), 1e-9)
    flt = _restricted_negdef(np.array(rows, dtype=float), np.array(functional, dtype=float),
                             1e-9)
    assert flt == exact and sum(flt) == 3


def svd_restriction(Q, functional, zero_tol):
    """The oracle of the float _restricted_negdef: an orthonormal basis B of
    {functional = 0} from the SVD of the one-row matrix, and the inertia of
    B^T Q B."""
    _, _, vh = np.linalg.svd(functional[None, :])
    B = vh[1:].T
    return float_signature(B.T @ Q @ B, zero_tol)[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["any", "first-zero", "unit"]),
       spread=st.sampled_from([0, 10, 100, 200]))
def test_householder_restriction_matches_the_svd_basis(n, seed, kind, spread):
    """f with entries 10^k N(0, 1), |k| <= spread, or with f_0 = 0, or
    f = +-10^k e_k, and Q = 10^k (B diag(lam) B^T + terms in f) for an
    orthonormal basis B of {f = 0}: its restriction has the eigenvalues
    lam, some of them 0 and one +-1, so that the relative tolerance sees
    them; at spread 200, f . f overflows or underflows.  The float triple
    must be the SVD basis's."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-spread, spread + 1, size=n + 1)
    f = rng.standard_normal(n) * scales[:n]
    if kind == "first-zero" and n > 1:
        f[0] = 0.0
    elif kind == "unit":
        k = rng.integers(n)
        f = np.zeros(n)
        f[k] = rng.choice([-1.0, 1.0]) * scales[k]
    basis, _ = np.linalg.qr(np.column_stack([f, rng.standard_normal((n, n - 1))]))
    B, g = basis[:, 1:], rng.standard_normal(n)
    lam = rng.choice([-1.0, 0.0, 1.0], size=n - 1) * rng.uniform(0.5, 2.0, size=n - 1)
    if n > 1:
        lam[rng.integers(n - 1)] = rng.choice([-1.0, 1.0])
    Q = scales[n] * ((B * lam) @ B.T + np.outer(basis[:, 0], g) + np.outer(g, basis[:, 0]))
    want = svd_restriction(Q, f, 1e-9)
    assert want == (int((lam > 0).sum()), int((lam == 0).sum()), int((lam < 0).sum()))
    assert _restricted_negdef(Q, f, 1e-9) == want


def test_signature_exact_and_float_agree():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.integers(-5, 6, size=(n, n))
        Q = [[Fraction(int(A[i][j] + A[j][i])) for j in range(n)] for i in range(n)]
        exact_sig, _ = signature(Q)
        float_sig, eigs = signature([[float(x) for x in row] for row in Q])
        assert exact_sig == float_sig
        assert len(eigs) == n


def test_signature_of_an_exact_matrix_beyond_float_range():
    """The inertia stays exact; only the float eigenvalue evidence is lost,
    for a list of rows and an ExactArray alike."""
    rows = [[Fraction(10 ** 400), 0], [0, Fraction(-1)]]
    sig, eigs = signature(rows)
    assert sig == (1, 0, 1)
    assert len(eigs) == 2
    X = ExactArray.of(rows)
    assert X.saturated().tolist() == [[math.inf, 0.0], [0.0, -1.0]]
    exact_sig, exact_eigs = signature(X)
    assert exact_sig == sig
    assert np.array_equal(exact_eigs, eigs, equal_nan=True)
    # a finite copy keeps its evidence; over a denominator beyond float range too
    rows = [[Fraction(3, 10 ** 400), Fraction(1, 7)], [Fraction(1, 7), Fraction(-1)]]
    X = ExactArray.of(rows)
    assert X.den > 10 ** 400 and np.isfinite(X.saturated()).all()
    assert signature(X) == signature(rows)
    assert not any(math.isnan(e) for e in signature(X)[1])


def test_signature_flags_rank_drops_exactly():
    Q = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert signature(Q)[0] == (1, 1, 0)
    # the float backend needs the relative tolerance to see it
    assert signature([[1.0, 1.0], [1.0, 1.0]])[0] == (1, 1, 0)


def eigenvalue_inertia(M):
    """(pos, zero, neg) counted from numpy.linalg.eigvalsh, zero to 1e-9 relative."""
    eigs = np.linalg.eigvalsh(np.asarray([[complex(x) for x in row] for row in M]))
    tol = 1e-9 * max(1.0, float(np.abs(eigs).max()))
    return (int((eigs > tol).sum()), int((abs(eigs) <= tol).sum()), int((eigs < -tol).sum()))


def random_hermitian(rng, n, rank, hermitian):
    """B D B^* with integer (Gaussian-integer when hermitian) B of n x rank, D = +-1."""
    B = rng.integers(-3, 4, size=(n, rank)) + (1j * rng.integers(-3, 4, size=(n, rank))
                                                if hermitian else 0)
    D = np.diag(rng.choice([-1, 1], size=rank))
    M = B @ D @ B.conj().T
    if hermitian:
        return [[GaussianRational(int(x.real), int(x.imag)) for x in row] for row in M]
    return [[Fraction(int(x.real)) for x in row] for row in M]


@pytest.mark.parametrize("hermitian", [False, True])
def test_inertia_matches_eigvalsh_in_both_backends(hermitian):
    rng = np.random.default_rng(41 + hermitian)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        M = random_hermitian(rng, n, int(rng.integers(1, n + 1)), hermitian)
        want = eigenvalue_inertia(M)
        sig, eigs = inertia(M)
        assert sig == want
        assert eigs == pytest.approx(
            np.linalg.eigvalsh(np.asarray([[complex(x) for x in r] for r in M])).tolist())
        floats = [[complex(x) if hermitian else float(x) for x in row] for row in M]
        assert inertia(floats)[0] == want
        assert inertia(np.asarray(floats))[0] == want


def test_inertia_pivots_on_an_off_diagonal_entry():
    """Zero diagonals force the pairing congruence, also for an imaginary entry."""
    i = GaussianRational(0, 1)
    assert rational_inertia([[0, i], [-i, 0]]) == (1, 0, 1)
    assert rational_inertia([[0, 2, 0], [2, 0, 0], [0, 0, 0]]) == (1, 1, 1)
    assert inertia([[0, i], [-i, 0]])[0] == (1, 0, 1)
    with pytest.raises(ValueError):
        rational_inertia([[0, i], [i, 0]])


def test_lorentzian_signature_of_kahler_gram():
    for d in (2, 3, 4):
        model = torus_ring(d)
        omega = model.label("omega_std")
        Q = gram(model, omega ** (d - 2))
        sig, _ = signature(Q)
        assert sig == (1, 0, d * d - 1)


def test_gram_checks_degrees():
    model = torus_ring(3)
    with pytest.raises(DegreeError):
        gram(model, model.one())  # needs degree d - 2 = 1
    with pytest.raises(DegreeError):
        gram(model, model.label("omega_std") ** 2)


def test_gram_of_a_ring_without_degree_one_classes_is_empty():
    model = ring.ring_from_spec({
        "name": "even", "dimension": 4, "generators": [{"name": "a", "degree": 2}],
        "integration": {"monomial": "a^2", "value": 1},
    })
    Q = gram(model, parse_element(model, "a"))
    assert Q == [] and signature(Q) == ((0, 0, 0), [])


# -- the delv example ------------------------------------------------------


def test_delv_gram_matrix():
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    assert gram(model, eta) == [
        [0, 4, 0],
        [4, 0, 0],
        [0, 0, -4],
    ]


def test_delv_pair_passes():
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    verdict = is_hr_pair(model, eta * h, eta, h)
    assert verdict.outcome == "pass"
    assert tuple(verdict.signature) == (1, 0, 2)
    assert verdict.details["kernel_characterization"]["pass"] is True


def test_delv_quotient_recovers_h():
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    assert divide(model, eta * h, eta) == h


def test_delv_kernel_form_pairs_to_zero():
    """The recorded kernel form really wedges eta to zero, and is real."""
    model, data = delv_model()
    forms = {name: form_from_dict(d) for name, d in data["forms"].items()}
    alpha = form_from_dict(data["kernel_form"])
    assert wedge(wedge(forms["theta1"], forms["theta2"]), alpha).is_zero()
    assert alpha.is_real()


def test_delv_positive_cone():
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    lam = model.label("lambda")
    inside = pos_cone_contains(model, h, eta, h)
    assert inside.passed
    assert inside.details == {"pairing_with_h": 8, "square": 8}
    assert not pos_cone_contains(model, lam, eta, h).passed  # int lambda^2 eta = -4
    assert not pos_cone_contains(model, model.zero(1), eta, h).passed


def test_pos_cone_is_consistent_with_pair_verdict():
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    top = eta * h
    beta = divide(model, top, eta)
    agrees = (
        pos_cone_contains(model, beta, eta, h).passed
        and has_hr_property(model, eta, h=h).passed
    )
    assert agrees == is_hr_pair(model, top, eta, h).passed


# -- classical torus pairs -------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_classical_kahler_pair(d):
    model = torus_ring(d)
    omega = model.label("omega_std")
    verdict = is_hr_pair(model, omega ** (d - 1), omega ** (d - 2), omega)
    assert verdict.passed
    assert tuple(verdict.signature) == (1, 0, d * d - 1)


def test_torus_quotient_of_kahler_powers():
    model = torus_ring(3)
    omega = model.label("omega_std")
    assert divide(model, omega ** 2, omega) == omega
    assert divide(model, model.zero(2), omega).is_zero()


# -- the 16-dimensional limit example --------------------------------------


def nonhr_inputs():
    model, data = delv_model()
    amb = model.ambient
    forms = {name: form_from_dict(d) for name, d in data["forms"].items()}
    h = amb.from_form(forms["theta1"] + forms["theta2"])
    eta = amb.from_form(wedge(forms["theta1"], forms["theta2"]))
    return amb, h, eta


def test_nonhr_limit_passes_off_the_boundary():
    amb, h, eta = nonhr_inputs()
    verdict = is_hr_pair(amb, h ** 3, eta + Fraction(1, 10) * h * h, h)
    assert verdict.passed
    assert tuple(verdict.signature) == (1, 0, 15)


def test_nonhr_limit_is_degenerate_at_the_boundary():
    amb, h, eta = nonhr_inputs()
    verdict = is_hr_pair(amb, h ** 3, eta, h)
    assert verdict.outcome == "degenerate"
    assert tuple(verdict.signature) == (1, 6, 9)
    assert verdict.witness  # carries a kernel witness


def test_nonhr_limit_fails_just_past_the_boundary():
    amb, h, eta = nonhr_inputs()
    verdict = is_hr_pair(amb, h ** 3, eta - Fraction(1, 100) * h * h, h)
    assert verdict.outcome == "fail"


def test_pair_values_are_their_defining_integrals():
    """pairing_with_h = int(h * top) and quotient_square_value = int(mid * q^2)."""
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    amb, hh, eeta = nonhr_inputs()
    cases = [(model, eta * h, eta, h)] + [
        (amb, hh ** 3, eeta + eps * hh * hh, hh) for eps in (Fraction(1, 10), Fraction(-1, 100))
    ]
    for m, top, mid, hv in cases:
        q = divide(m, top, mid)
        want = {
            "quotient": q.coeffs.fractions(),
            "pairing_with_h": (hv * top).integrate(),
            "quotient_square_value": (mid * q * q).integrate(),
        }
        exact = is_hr_pair(m, top, mid, hv)
        floats = is_hr_pair(m, top, mid, hv, exact=False)
        for key, value in want.items():
            assert exact.details[key] == jsonable(value), key
            assert np.allclose(np.asarray(floats.details[key], dtype=float),
                               np.asarray(value, dtype=float), rtol=1e-9, atol=0), key


# -- invariance properties -------------------------------------------------


def test_h_independence_of_the_hr_property():
    """Once one valid h works, every sampled positive-cone h' agrees."""
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    assert has_hr_property(model, eta, h=h).passed
    rng = np.random.default_rng(99)
    found = 0
    while found < 10:
        coeffs = [Fraction(int(c)) for c in rng.integers(-3, 4, size=3)]
        hp = model.from_coeffs(1, coeffs)
        Q = gram(model, eta)
        val = sum(
            Q[i][j] * coeffs[i] * coeffs[j]
            for i in range(3)
            for j in range(3)
        )
        if val <= 0:
            continue
        found += 1
        assert has_hr_property(model, eta, h=hp).passed


def test_scaling_invariance_of_verdicts():
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    base = is_hr_pair(model, eta * h, eta, h)
    for c_top, c_mid, c_h in [(2, 3, 5), (Fraction(1, 7), Fraction(2, 9), 1)]:
        scaled = is_hr_pair(model, c_top * (eta * h), c_mid * eta, c_h * h)
        assert scaled.outcome == base.outcome
    amb, hh, eeta = nonhr_inputs()
    before = is_hr_pair(amb, hh ** 3, eeta - Fraction(1, 100) * hh * hh, hh)
    after = is_hr_pair(amb, 3 * hh ** 3, Fraction(5, 2) * (eeta - Fraction(1, 100) * hh * hh), hh)
    assert before.outcome == after.outcome == "fail"


def test_divide_is_a_two_sided_inverse():
    rng = np.random.default_rng(21)
    model = torus_ring(3)
    omega = model.label("omega_std")
    n = len(model.basis(1))
    for _ in range(10):
        x = model.from_coeffs(1, [Fraction(int(c)) for c in rng.integers(-4, 5, size=n)])
        assert divide(model, omega * x, omega) == x


def test_divide_reports_singular_pairings():
    model = relation_ring(
        3,
        [("xi", 1), ("f", 1)],
        [((0, 2), []), ((3, 0), [(-1, (2, 1))])],
        integration=[((2, 1), 1)],
    )
    f = model.label("f")
    gamma = model.label("xi") ** 2
    with pytest.raises(SingularPairingError) as err:
        divide(model, gamma, f)
    assert err.value.witness is not None


def test_cauchy_schwarz_for_passing_pairs():
    """(Q(alpha,beta))^2 >= Q(alpha,alpha) Q(beta,beta) for the quotient beta."""
    checked = []
    model, _ = delv_model()
    eta = parse_element(model, "theta1*theta2")
    h = parse_element(model, "theta1+theta2")
    checked.append((model, eta * h, eta, h))
    t3 = torus_ring(3)
    om = t3.label("omega_std")
    checked.append((t3, om ** 2, om, om))
    for model, top, mid, hh in checked:
        assert is_hr_pair(model, top, mid, hh).passed
        Q = gram(model, mid)
        beta = divide(model, top, mid).coeffs.fractions()
        n = len(Q)
        bb = sum(Q[i][j] * beta[i] * beta[j] for i in range(n) for j in range(n))
        for k in range(n):
            ab = sum(Q[k][j] * beta[j] for j in range(n))
            aa = Q[k][k]
            assert ab * ab >= aa * bb


# -- pointwise checks ------------------------------------------------------


def test_pointwise_classical_case():
    omega = std_kahler(3, exact=False)
    top = wedge(omega, omega)
    verdict = pointwise_hr_pair(top, omega, omega)
    assert verdict.passed
    assert tuple(verdict.signature) == (1, 0, 8)


def test_pointwise_rejects_non_positive_omega():
    omega = std_kahler(3, exact=False)
    with pytest.raises(ConfigError):
        pointwise_hr_pair(wedge(omega, omega), omega, omega * (-1.0))


def test_pointwise_refuses_exact_coefficients_beyond_float_range_with_a_float_omega():
    """An exact (2,2)-form with a coefficient of 10^400 and a float omega: the
    exact intersection numbers have no float copy, a ConfigError."""
    omega = std_kahler(3)
    top = wedge(omega, omega) + PPForm(3, 2, 2, {((0, 1), (0, 1)): GaussianRational(10 ** 400)})
    with pytest.raises(ConfigError, match="does not fit in a float; decide with the exact"):
        pointwise_hr_pair(top, omega, std_kahler(3, exact=False))


def test_pointwise_flags_negated_middle_form():
    omega = std_kahler(3, exact=False)
    verdict = pointwise_hr_pair(wedge(omega, omega), omega * (-1.0), omega)
    assert not verdict.passed


def test_schur_pair_of_two_kahler_forms_passes():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        omegas = [random_kahler(d, rng) for _ in range(2)]
        top, mid = schur_form_pair(Partition((d - 1,)), omegas, d)
        verdict = pointwise_hr_pair(top, mid, std_kahler(d, exact=False))
        assert verdict.passed, verdict.to_dict()


# -- random search harness -------------------------------------------------


def test_sample_search_is_deterministic():
    a = sample_search(3, 3, Partition((2,)), trials=6, seed=5)
    b = sample_search(3, 3, Partition((2,)), trials=6, seed=5)
    assert a.to_dict() == b.to_dict()
    assert a.trials == 6 and a.passes == 6 and not a.failures
    assert a.min_margin is not None and a.min_margin > 0


def test_sample_search_empty_report():
    report = sample_search(3, 3, Partition((2,)), trials=0, seed=1)
    assert report.trials == 0 and report.passes == 0
    assert report.min_margin is None
    assert report.all_passed


def test_sample_search_validates_partition_weight():
    with pytest.raises(ConfigError):
        sample_search(3, 3, Partition((3,)), trials=1, seed=0)  # weight != d-1
    with pytest.raises(ConfigError):
        sample_search(4, 1, Partition((2, 1)), trials=1, seed=0)  # too few forms
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        sample_search(3, 2, Partition((2,)), trials=1, seed=-1)


def test_sample_search_report_serializes():
    report = sample_search(2, 2, Partition((1,)), trials=3, seed=9)
    data = json.loads(report.to_json())
    assert data["passes"] == 3
    assert data["config"]["dim"] == 2


# -- dense float kernel against the exact torus-ring oracle ------------------


def rationalize(form):
    """The exact real form whose coordinates are form's, each to denominator 10^4."""
    coords = [Fraction(x).limit_denominator(10 ** 4) for x in real_coordinates(form)]
    return form_from_real_coordinates(form.dim, form.p, coords)


def exact_verdict(top, mid, omega):
    """The pair check of rationalized inputs in torus_ring(d), the exact oracle."""
    model = torus_ring(top.dim)
    forms = (f if f.is_exact() else rationalize(f) for f in (top, mid, omega))
    return is_hr_pair(model, *map(model.from_form, forms))


def as_floats(values):
    """A verdict value as a float array; exact verdicts report rationals as strings."""
    values = values if isinstance(values, list) else [values]
    return np.array([float(Fraction(v)) if isinstance(v, str) else float(v) for v in values])


def close(a, b, rel=1e-9):
    a, b = as_floats(a), as_floats(b)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= rel * scale


def assert_same_verdict(dense, other, rel=1e-9):
    assert dense.outcome == other.outcome
    assert tuple(dense.signature) == tuple(other.signature)
    assert dense.details.keys() == other.details.keys()
    assert dense.witness.keys() == other.witness.keys()
    assert close(dense.eigenvalues, other.eigenvalues, rel)
    for key in ("pairing_with_h", "quotient", "quotient_square_value"):
        if key in other.details:
            assert close(dense.details[key], other.details[key], rel), key
    if "kernel_characterization" in other.details:
        assert (dense.details["kernel_characterization"]["restricted_signature"]
                == other.details["kernel_characterization"]["restricted_signature"])


# Rationalizing moves each coordinate by at most about 1e-8.  On the trials
# below the oracle's values then differ from the dense ones by at most 8e-7
# relative to the largest of them (d = 2, one form).
ORACLE_REL = 1e-5


def partitions(n, largest=None):
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest or n), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


# the (dim, vars, partition) configs of acceptance check 07
ACCEPTANCE_CONFIGS = [(d, e, Partition(lam)) for d in (2, 3, 4) for e in range(d - 1, 6)
                      for lam in partitions(d - 1) if len(lam) <= e]


def schur_trial(d, e, lam, seed, trial):
    """The pair that sample_search draws for (seed, trial)."""
    rng = np.random.default_rng([seed, trial])
    omegas = [random_kahler(d, rng) for _ in range(e)]
    return schur_form_pair(lam, omegas, d)


def to_float(form):
    return PPForm(form.dim, form.p, form.q, {k: complex(c) for k, c in form.coeffs.items()})


def test_dense_kernel_matches_torus_ring_on_acceptance_trials():
    assert len(ACCEPTANCE_CONFIGS) == 22
    for d, e, lam in ACCEPTANCE_CONFIGS:
        reference = std_kahler(d, exact=False)
        for trial in range(5):
            top, mid = schur_trial(d, e, lam, 7000 + 100 * d + e, trial)
            dense = pointwise_hr_pair(top, mid, reference)
            assert dense.passed, (d, e, lam, trial)
            if trial == 0:
                assert_same_verdict(dense, exact_verdict(top, mid, reference), ORACLE_REL)


def wedge_schur_pair(lam, omegas, d):
    """The Schur pair by symfunc.evaluate over wedge products, the reference."""
    p = schur(lam, len(omegas))
    one = PPForm.one(d, exact=False)
    return evaluate(p, omegas, one), evaluate(derived(p, 1), omegas, one)


def assert_same_schur_pair(omegas, lam, d, reference):
    """Dense and wedge Schur pairs agree to 1e-12 and get the same verdict."""
    dense = schur_form_pair(lam, omegas, d)
    sparse = wedge_schur_pair(lam, omegas, d)
    for a, b, degree in zip(dense, sparse, (d - 1, d - 2)):
        assert (a.dim, a.p, a.q) == (b.dim, b.p, b.q) == (d, degree, degree)
        assert close(real_coordinates(a).tolist(), real_coordinates(b).tolist(), rel=1e-12)
    v, w = (pointwise_hr_pair(*pair, reference) for pair in (dense, sparse))
    assert (v.outcome, tuple(v.signature)) == (w.outcome, tuple(w.signature))


def test_dense_schur_pair_matches_wedge_evaluation_on_acceptance_trials():
    for d, e, lam in ACCEPTANCE_CONFIGS:
        reference = std_kahler(d, exact=False)
        for trial in range(5):
            rng = np.random.default_rng([7000 + 100 * d + e, trial])
            omegas = [random_kahler(d, rng) for _ in range(e)]
            assert_same_schur_pair(omegas, lam, d, reference)


@pytest.mark.parametrize("lam", [Partition((4,)), Partition((2, 1, 1))])
def test_dense_schur_pair_matches_wedge_evaluation_at_dimension_five(lam):
    reference = std_kahler(5, exact=False)
    for trial in range(3):
        rng = np.random.default_rng([7503, trial])
        omegas = [random_kahler(5, rng) for _ in range(3)]
        assert_same_schur_pair(omegas, lam, 5, reference)


def test_exact_schur_pair_is_the_wedge_evaluation():
    omegas = [std_kahler(3), form_from_hermitian([[2, 1, 0], [1, 2, 0], [0, 0, 1]])]
    p = schur(Partition((2,)), 2)
    one = PPForm.one(3)
    assert schur_form_pair(Partition((2,)), omegas, 3) == (
        evaluate(p, omegas, one), evaluate(derived(p, 1), omegas, one))


def test_schur_form_pair_rejects_bad_input():
    omega = std_kahler(3, exact=False)
    lam = Partition((2,))
    with pytest.raises(DegreeError):
        schur_form_pair(Partition((1,)), [omega, omega], 3)  # |lam| != dim - 1
    with pytest.raises(DegreeError):
        schur_form_pair(lam, [omega, wedge(omega, omega)], 3)  # a (2,2)-form
    with pytest.raises(DegreeError):
        schur_form_pair(lam, [omega, std_kahler(4, exact=False)], 3)  # on C^4
    skew = form_from_hermitian([[1, 0.5, 0], [0, 1, 0], [0, 0, 1]], exact=False)
    with pytest.raises(ConfigError):
        schur_form_pair(lam, [omega, skew], 3)
    exact_skew = form_from_hermitian([[1, 0], [0, 1]]) + PPForm.monomial(2, (0,), (1,), 1)
    with pytest.raises(ConfigError):
        schur_form_pair(Partition((1,)), [exact_skew], 2)
    # a float form real to 1e-12 relative is accepted
    (I, J), c = ((0,), (1,)), 1e-12j
    nearly = omega + PPForm(3, 1, 1, {(I, J): c})
    top, mid = schur_form_pair(lam, [omega, nearly], 3)
    assert top.is_real(1e-9) and mid.is_real(1e-9)


@pytest.mark.parametrize("eps, sign, outcome", [
    (0.1, 1.0, "pass"),
    (0.0, 1.0, "degenerate"),
    (0.1, -1.0, "fail"),
    (-0.01, 1.0, "fail"),
])
def test_dense_kernel_matches_torus_ring_on_the_delv_limit(eps, sign, outcome):
    data = json.loads(
        resources.files("hrpairs").joinpath("fixtures/delv.json").read_text()
    )
    exact_forms = {name: form_from_dict(d) for name, d in data["forms"].items()}

    def pair(forms, eps, sign, exact):
        h = forms["theta1"] + forms["theta2"]
        h2 = wedge(h, h)
        mid = (wedge(forms["theta1"], forms["theta2"]) + h2 * eps) * sign
        return wedge(h2, h), mid, std_kahler(4, exact=exact)

    float_forms = {name: to_float(f) for name, f in exact_forms.items()}
    dense = pointwise_hr_pair(*pair(float_forms, eps, sign, False))
    assert dense.outcome == outcome
    # the oracle takes eps and sign as the rationals they are written as
    exact_pair = pair(exact_forms, Fraction(str(eps)), Fraction(str(sign)), True)
    oracle = exact_verdict(*exact_pair)
    assert_same_verdict(dense, oracle)
    assert pointwise_hr_pair(*exact_pair).to_dict() == oracle.to_dict()


def test_dense_kernel_symmetrizes_a_slightly_non_real_middle_form():
    top, mid = schur_trial(3, 3, Partition((2,)), 7303, 0)
    (I, J), c = next(((k, c) for k, c in mid.coeffs.items() if k[0] != k[1]))
    coeffs = dict(mid.coeffs)
    coeffs[(I, J)] = c + 1e-10j * mid.max_abs()  # (J, I) left alone
    skewed = PPForm(3, 1, 1, coeffs)
    assert not skewed.is_real()
    reference = std_kahler(3, exact=False)
    dense = pointwise_hr_pair(top, skewed, reference)
    assert_same_verdict(dense, exact_verdict(top, mid, reference), ORACLE_REL)
    assert_same_verdict(dense, pointwise_hr_pair(top, mid, reference))


def test_singular_division_is_degenerate_in_both_backends():
    """Gram form nondegenerate, eta_top outside the image of eta_mid.

    On the torus the Gram matrix is P @ M with P the invertible pairing, so a
    nondegenerate Gram matrix forces a solvable division; this ring has
    three degree-2 classes against two of degree 1.
    """
    model = relation_ring(
        3,
        [("x", 1), ("y", 1)],
        [((3, 0), []), ((0, 3), []), ((1, 2), [(1, (2, 1))])],
        integration=[((2, 1), 1)],
    )
    h = parse_element(model, "x+y")
    top = parse_element(model, "x^2")
    verdicts = [is_hr_pair(model, top, h, h, exact=exact) for exact in (True, False)]
    exact, flt = verdicts
    for v in verdicts:
        assert v.outcome == "degenerate"
        assert tuple(v.signature) == (1, 0, 1)
        assert "division" in v.witness
        assert v.witness["kernel_vector"] is None  # M is injective: no kernel to show
    assert exact.witness == flt.witness  # one division rule, one witness
    assert exact.details.keys() == flt.details.keys()


SMALL = st.integers(-2, 2)


@st.composite
def subring_pairs(draw):
    """(model, eta_top, eta_mid, h) on the subring of torus_ring(3) or (4)
    generated by 1-3 random integer degree-1 classes, so that M is often
    not square; eta_top is eta_mid times a random degree-1 class (top in
    im M) or a random class, usually outside im M."""
    d = draw(st.sampled_from([3, 4]))
    ambient = torus_ring(d)
    n = len(ambient.basis(1))
    gens = {f"g{k}": ambient.from_coeffs(1, draw(st.lists(SMALL, min_size=n, max_size=n)))
            for k in range(draw(st.integers(1, 3)))}
    model = subring(ambient, gens)
    assume(model.basis(1) and model.basis(d))

    def element(degree):
        k = len(model.basis(degree))
        return model.from_coeffs(degree, draw(st.lists(SMALL, min_size=k, max_size=k)))

    mid, h = element(d - 2), element(1)
    top = mid * element(1) if draw(st.booleans()) else element(d - 1)
    return model, top, mid, h


def float_margin(verdict, h, functional):
    """The smallest relative size of the values whose signs a float pair
    verdict decides: |eigenvalue| / max |eigenvalue| of the Gram matrix,
    h . functional over |h| |functional| and q Q q over |q|^2 max |eigenvalue|."""
    def ratio(a, b):
        return abs(a) / b if b else 0.0

    eigs = np.abs(verdict.eigenvalues)
    details = verdict.details
    margins = [ratio(eigs.min(), eigs.max()),
               ratio(details["pairing_with_h"], np.linalg.norm(h) * np.linalg.norm(functional))]
    if "quotient" in details:
        q = np.asarray(details["quotient"])
        margins.append(ratio(details["quotient_square_value"], q @ q * eigs.max()))
    return min(margins)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=subring_pairs())
def test_float_division_from_q_matches_the_exact_verdict(case):
    """The float verdict divides as the exact one does, q = Q^-1 functional
    checked by M q == top, also where M is not square: away from a float
    margin of 1e-6, outcome and signature are the exact ones, the quotient
    agrees to 1e-9 relative, and a top outside im M is refused alike."""
    model, top, mid, h = case
    exact = is_hr_pair(model, top, mid, h)
    flt = is_hr_pair(model, top, mid, h, exact=False)
    functional = model.pairing_matrix(1) @ top.coeffs
    if exact.outcome == "degenerate" and "division" not in exact.witness:
        return
    if float_margin(flt, h.coeffs.saturated(), functional.saturated()) <= 1e-6:
        return
    assert (flt.outcome, tuple(flt.signature)) == (exact.outcome, tuple(exact.signature))
    if "division" in exact.witness:
        assert flt.witness == exact.witness
        return
    want = np.array([float(Fraction(x)) for x in exact.details["quotient"]])
    got = np.asarray(flt.details["quotient"])
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_a_ring_without_degree_one_classes_fails_alike_in_both_backends():
    """The subring of torus_ring(3) generated by 0 has dims [1, 0, 0, 0]:
    the Gram matrix is 0 x 0 and both backends give fail (0, 0, 0).  The
    float copies keep their shapes, and an entry beyond float range is still
    a ConfigError naming it."""
    ambient = torus_ring(3)
    model = subring(ambient, {"z": ambient.zero(1)})
    assert [len(model.basis(k)) for k in range(4)] == [1, 0, 0, 0]
    for exact in (True, False):
        verdict = is_hr_pair(model, model.zero(2), model.zero(1), model.zero(1), exact=exact)
        assert (verdict.outcome, tuple(verdict.signature)) == ("fail", (0, 0, 0))
    assert float_array(hrcheck._gram(model, model.zero(1)), float, "Gram matrix").shape == (0, 0)
    huge = ExactArray.of([[1, 0], [0, 10 ** 400]])
    with pytest.raises(ConfigError, match=r"^M entry \[1, 1\] does not fit in a float; "):
        float_array(huge, float, "M")


def test_exact_division_check_refuses_a_top_outside_the_image():
    """Q = P M nonsingular, M 3x2 and injective, top outside im M: the one
    elimination of Q gives q = Q^-1 functional = (1, 1), but M q = (1, 1, 2)
    is not top, and the verdict is the one of solving M x = top."""
    P = ExactArray.of([[2, 1, 0], [1, 0, 0]])
    M = ExactArray.of([[1, 0], [0, 1], [1, 1]])
    top = ExactArray.of([1, 1, 0])
    Q, functional = P @ M, P @ top
    sig, q = rational_inertia(Q, functional)
    assert (sig, q.fractions()) == ((1, 0, 1), [1, 1])
    verdict = _pair_verdict(Q, M, top, functional, ExactArray.of([1, 0]), None)
    assert rational_solve(M, top) is None and rational_nullspace(M) == []
    assert (verdict.outcome, tuple(verdict.signature)) == ("degenerate", (1, 0, 1))
    assert verdict.witness == {"division": "multiplication by eta is singular on degree-1 classes",
                               "kernel_vector": None}
    assert verdict.details["hr_property"]["outcome"] == "pass"


def test_rank_deficient_division_reports_a_kernel_witness():
    """Dividing by u[1] = i dz_1 dzbar_1 on C^3 kills every class without index 1."""
    model = torus_ring(3)
    eta = model.from_form(PPForm.monomial(3, (0,), (0,), GaussianRational(0, 1)))
    gamma = model.from_form(PPForm.monomial(3, (1, 2), (1, 2), GaussianRational(-1)))  # u[2,3]
    images = [(eta * model.basis_element(1, j)).coeffs.fractions()
              for j in range(len(model.basis(1)))]
    M = [list(row) for row in zip(*images)]
    with pytest.raises(SingularPairingError) as info:
        divide(model, gamma, eta)
    v = [Fraction(x) for x in info.value.witness]
    assert any(v) and all(sum(a * b for a, b in zip(row, v)) == 0 for row in M)


def test_dense_kernel_matches_torus_ring_at_dimension_five():
    reference = std_kahler(5, exact=False)
    top, mid = schur_trial(5, 3, Partition((3, 1)), 7503, 0)
    assert_same_verdict(pointwise_hr_pair(top, mid, reference),
                        exact_verdict(top, mid, reference), ORACLE_REL)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_merge_sign_intersection_numbers_match_the_torus_ring(d):
    model = torus_ring(d)
    B = _real_basis_matrix(d, 1, False)
    for k in range(len(model.basis(d - 2))):
        c = model.basis_element(d - 2, k)
        Q = B @ _mid_gram(model.to_form(c)).reshape(d * d, d * d) @ B.T
        assert Q.tolist() == [[complex(x) for x in row] for row in gram(model, c)]
    P = model.pairing_matrix(1)
    for o in range(len(model.basis(d - 1))):
        top = model.to_form(model.basis_element(d - 1, o))
        functional = B @ _top_functional(top).ravel()
        assert functional.tolist() == [complex(row[o]) for row in P]


def product_pairing(G, m, exact):
    """Re(B G B^T) and Re(B m) by products with the real basis matrix B: the
    reference of the signed gathers of _degree_one_pairing."""
    d = len(m)
    B = _real_basis_matrix(d, 1, exact)
    Q, functional = B @ G.reshape(d * d, d * d) @ B.T, B @ m.ravel()
    return (Q, functional) if exact else (Q.real, functional.real)


def degree_one_inputs(d, rng, exact):
    """(G, m) of the Schur pair of two Kahler forms, and of two random real
    torus forms of degrees d-2 and d-1: rational or Gaussian coordinates."""
    if exact:
        H = _hermitians([exact_kahler(d, rng) for _ in range(2)], d)

        def coords(p):
            return ExactArray.of([Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
                                  for _ in range(math.comb(d, p) ** 2)])
    else:
        H = np.stack([hrcheck.random_hermitian(d, rng) for _ in range(2)])

        def coords(p):
            return rng.standard_normal(math.comb(d, p) ** 2)
    mid, top = (form_from_real_coordinates(d, p, coords(p)) for p in (d - 2, d - 1))
    return [schur_tensors(Partition((d - 1,)), H), (_mid_gram(mid), _top_functional(top))]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_gathered_degree_one_pairing_is_the_product(d):
    """Exactly equal in the exact backend; in floats within 4 ulp of the
    largest entry, and exactly symmetric where the product is not."""
    rng = np.random.default_rng(d)
    for G, m in degree_one_inputs(d, rng, exact=True):
        Q, functional = _degree_one_pairing(G, m, True)
        want_Q, want_f = product_pairing(G, m, True)
        assert not want_Q.im.any() and not want_f.im.any()
        assert (Q.fractions(), functional.fractions()) == (want_Q.fractions(), want_f.fractions())
    ulp = np.finfo(float).eps
    for G, m in degree_one_inputs(d, rng, exact=False):
        Q, functional = _degree_one_pairing(G, m, False)
        want_Q, want_f = product_pairing(G, m, False)
        assert (Q == Q.T).all()
        assert np.abs(Q - want_Q).max() <= 4 * ulp * np.abs(want_Q).max()
        assert np.abs(functional - want_f).max() <= 4 * ulp * np.abs(want_f).max()


@pytest.mark.parametrize("d", range(2, 9))
def test_random_hermitian_is_exactly_hermitian(d):
    """Entry for entry, though A^* A as BLAS rounds it often is not, so that
    its Fraction copy is Hermitian for rational_inertia too."""
    for seed in range(10):
        H = hrcheck.random_hermitian(d, np.random.default_rng([seed, d]))
        assert (H == H.conj().T).all()
        rational = [[GaussianRational(Fraction(z.real), Fraction(z.imag)) for z in row]
                    for row in H]
        assert rational_inertia(rational) == (d, 0, 0)


# -- property tests ----------------------------------------------------------

SCHUR_CASES = [(d, Partition(lam)) for d in (2, 3, 4) for lam in partitions(d - 1)]
SEEDS = st.integers(0, 2 ** 32 - 1)


def kahler_hermitians(d, count, rng):
    return [hermitian_from_form(random_kahler(d, rng)) for _ in range(count)]


def dense_pair(lam, hermitians, d):
    """pointwise_hr_pair of the Schur pair of hermitians[1:] against hermitians[0]."""
    omega, *omegas = [form_from_hermitian(H, exact=False) for H in hermitians]
    top, mid = schur_form_pair(lam, omegas, d)
    return top, mid, omega


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=st.sampled_from(SCHUR_CASES), seed=SEEDS,
       scales=st.tuples(*[st.floats(1e-3, 1e3)] * 3))
def test_dense_verdict_is_invariant_under_positive_scaling(case, seed, scales):
    d, lam = case
    hermitians = kahler_hermitians(d, len(lam) + 2, np.random.default_rng(seed))
    top, mid, omega = dense_pair(lam, hermitians, d)
    base = pointwise_hr_pair(top, mid, omega)
    a, b, c = scales
    scaled = pointwise_hr_pair(top * a, mid * b, omega * c)
    assert (scaled.outcome, scaled.signature) == (base.outcome, base.signature)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=st.sampled_from(SCHUR_CASES), seed=SEEDS, gl_seed=SEEDS)
def test_dense_verdict_is_invariant_under_a_change_of_coordinates(case, seed, gl_seed):
    d, lam = case
    hermitians = kahler_hermitians(d, len(lam) + 2, np.random.default_rng(seed))
    rng = np.random.default_rng(gl_seed)
    unitary = [np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
               for _ in range(2)]
    g = unitary[0] @ np.diag(np.exp(rng.uniform(-0.7, 0.7, d))) @ unitary[1]  # cond(g) < 4.1
    moved = [g.conj().T @ np.asarray(H) @ g for H in hermitians]  # pullback under z = g w
    base = pointwise_hr_pair(*dense_pair(lam, hermitians, d))
    after = pointwise_hr_pair(*dense_pair(lam, moved, d))
    assert (after.outcome, after.signature) == (base.outcome, base.signature)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(SCHUR_CASES), seed=SEEDS, rank=st.integers(1, 4),
       eps=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
def test_near_boundary_input_never_raises_consistency_error(case, seed, rank, eps):
    """Schur pairs of forms H = A^* A + eps * Id with A of low rank."""
    d, lam = case
    rng = np.random.default_rng(seed)
    omegas = []
    for _ in range(len(lam) + 1):
        A = rng.standard_normal((min(rank, d), d)) + 1j * rng.standard_normal((min(rank, d), d))
        omegas.append(form_from_hermitian(A.conj().T @ A + eps * np.eye(d), exact=False))
    top, mid = schur_form_pair(lam, omegas, d)
    verdict = pointwise_hr_pair(top, mid, std_kahler(d, exact=False))
    assert verdict.outcome in ("pass", "fail", "degenerate")


# -- the exact restricted signature from the bordered matrix -----------------


def nullspace_restriction(Q, functional):
    """Inertia of Q on {functional = 0} from a nullspace basis and its Gram matrix."""
    B = rational_nullspace([functional])
    R = [[sum((a * Q[i][j] * b for i, a in enumerate(u) for j, b in enumerate(v)), Fraction(0))
          for v in B] for u in B]
    return rational_inertia(R) if R else (0, 0, 0)


def pair_coordinates(model, top, mid):
    """(Q, functional) of the pair (top, mid), as is_hr_pair hands them to its core."""
    Q = gram(model, mid)
    functional = [sum((p * t for p, t in zip(row, top.coeffs)), Fraction(0))
                  for row in model.pairing_matrix(1)]
    return Q, functional


def exact_kahler(d, rng, denominators=(1, 1)):
    """i H for H = A^* A + Id, A with entries (a + b i) for integers a, b in
    [-2, 2], their real and imaginary parts divided by the two denominators."""
    p, q = denominators
    A = [[GaussianRational(Fraction(int(rng.integers(-2, 3)), p),
                           Fraction(int(rng.integers(-2, 3)), q))
          for _ in range(d)] for _ in range(d)]
    H = [[sum((A[k][i].conjugate() * A[k][j] for k in range(d)), GaussianRational(0))
          + (1 if i == j else 0) for j in range(d)] for i in range(d)]
    return form_from_hermitian(H)


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 3), Fraction(7, 11)])
def test_bordered_restriction_matches_the_nullspace_on_the_delv_pairs(eps):
    model, _ = delv_model()
    h = parse_element(model, "theta1+theta2")
    mid = parse_element(model, "theta1*theta2") + eps * h * h
    Q, functional = pair_coordinates(model, h ** 3, mid)
    assert _restricted_negdef(ExactArray.of(Q), ExactArray.of(functional), None) == nullspace_restriction(Q, functional)


@pytest.mark.parametrize("d, e, lam", [(3, 4, (2,)), (3, 4, (1, 1)), (4, 2, (3,)),
                                       (4, 2, (2, 1)), (4, 3, (1, 1, 1))])
def test_bordered_restriction_matches_the_nullspace_on_exact_schur_pairs(d, e, lam):
    rng = np.random.default_rng([d, e, *lam])
    top, mid = schur_form_pair(Partition(lam), [exact_kahler(d, rng) for _ in range(e)], d)
    model = torus_ring(d)
    Q, functional = pair_coordinates(model, model.from_form(top), model.from_form(mid))
    want = nullspace_restriction(Q, functional)
    assert want == (0, 0, d * d - 1)
    assert _restricted_negdef(ExactArray.of(Q), ExactArray.of(functional), None) == want


def test_bordered_restriction_counts_a_degenerate_direction():
    Q = [[Fraction(x) for x in row] for row in [[1, 0, 0], [0, 0, 0], [0, 0, -1]]]
    for functional in ([1, 0, 0], [1, 0, 1], [2, 0, 3]):
        functional = [Fraction(x) for x in functional]
        want = nullspace_restriction(Q, functional)
        assert want[1] > 0
        assert _restricted_negdef(ExactArray.of(Q), ExactArray.of(functional), None) == want


# -- the exact pointwise check against the torus-ring oracle -----------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=st.sampled_from(SCHUR_CASES), seed=SEEDS, negate=st.booleans(),
       standard=st.booleans(), denominators=st.sampled_from([(1, 1), (3, 7)]))
def test_exact_pointwise_verdict_is_the_torus_ring_oracle(case, seed, negate, standard,
                                                          denominators):
    """Schur pairs of Gaussian-integer forms, or of forms with denominators 3
    and 7 in their parts, the middle form negated or not, against the
    standard Kahler form or another one."""
    d, lam = case
    rng = np.random.default_rng(seed)
    omegas = [exact_kahler(d, rng, denominators) for _ in range(len(lam) + 1)]
    top, mid = schur_form_pair(lam, omegas, d)
    if negate:
        mid = mid * -1
    omega = std_kahler(d) if standard else exact_kahler(d, rng, denominators)
    assert pointwise_hr_pair(top, mid, omega).to_dict() == exact_verdict(top, mid, omega).to_dict()


# {id: (the form made non-real, the exact skew added to it, its first gap)}
NON_REAL = {
    "top-skew0": ("omega_top", PPForm.monomial(3, (0, 1), (0, 2), GaussianRational(0, 1)),
                  "I = [1, 2], J = [1, 3]"),
    "mid-skew1": ("omega_mid", PPForm.monomial(3, (0,), (1,), GaussianRational(1)),
                  "I = [1], J = [2]"),
    # i times a real form
    "mid-skew2": ("omega_mid", std_kahler(3) * GaussianRational(0, 1), "I = [1], J = [1]"),
    "omega-skew1": ("omega", PPForm.monomial(3, (1,), (2,), GaussianRational(1, 3)),
                    "I = [2], J = [3]"),
    "positivity-skew0": ("form", PPForm.monomial(3, (0, 1), (0, 2), GaussianRational(0, 1)),
                         "I = [1, 2], J = [1, 3]"),
}


@pytest.mark.parametrize("exact, part, skew, at", [
    pytest.param(exact, *case, id=name if exact else f"float-{name}")
    for exact in (True, False) for name, case in NON_REAL.items()])
def test_exact_pointwise_check_rejects_a_non_real_form(exact, part, skew, at):
    """Both backends refuse a non-real omega_top, omega_mid or omega in
    pointwise_hr_pair, and a non-real form in positivity_dminus1, by the one
    rule exterior._require_real: the message names the form and its first
    gap 1-based, as form JSON writes it.  The float cases are the complex
    copies of the exact ones."""
    rng = np.random.default_rng(17)
    top, mid = schur_form_pair(Partition((2,)), [exact_kahler(3, rng) for _ in range(2)], 3)
    forms = {"omega_top": top, "omega_mid": mid, "omega": std_kahler(3), "form": top}
    forms[part] = forms[part] + skew
    if not exact:
        forms = {name: form * 1.0 for name, form in forms.items()}
        assert not any(form.is_exact() for form in forms.values())
    message = f"^{part} is not a real form: it fails the reality condition at {re.escape(at)}$"
    with pytest.raises(ConfigError, match=message):
        if part == "form":
            positivity_dminus1(forms["form"])
        else:
            pointwise_hr_pair(forms["omega_top"], forms["omega_mid"], forms["omega"])


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count exterior.wedge and ring.torus_ring calls, through every hrpairs
    module that binds them."""
    calls = []
    for original in (exterior.wedge, ring.torus_ring):
        def counting(*args, original=original):
            calls.append(original.__name__)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hrpairs" and getattr(
                    module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counting)
    return calls


def test_exact_schur_trial_builds_no_ring_and_makes_no_wedge(oracle_calls):
    assert not hasattr(hrcheck, "torus_ring")
    rng = np.random.default_rng(23)
    for d, lam in ((3, (2,)), (4, (2, 1))):
        top, mid = schur_form_pair(Partition(lam), [exact_kahler(d, rng) for _ in range(2)], d)
        verdict = pointwise_hr_pair(top, mid, std_kahler(d))
        assert verdict.passed and verdict.tolerances == {}
    assert oracle_calls == []


def test_exact_verdicts_beyond_float_range():
    """Intersection numbers past float range: the decisions stay exact and the
    float evidence (eigenvalues, certifying direction) is NaN."""
    model = torus_ring(3)
    omega = model.from_form(std_kahler(3))
    big = 10 ** 400
    pair = is_hr_pair(model, big * (omega * omega), big * omega, omega)
    prop = has_hr_property(model, big * omega)
    form = std_kahler(3)
    pointwise = pointwise_hr_pair(wedge(form, form) * big, form * big, form)
    for verdict in (pair, prop, pointwise):
        assert (verdict.outcome, tuple(verdict.signature)) == ("pass", (1, 0, 8))
        assert all(math.isnan(e) for e in verdict.eigenvalues)
    assert all(math.isnan(x) for x in prop.witness["certifying_direction"])
    assert pointwise.details == pair.details
