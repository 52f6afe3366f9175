"""Sheaf-side checks: discriminants, the extension identity, curvature traces."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrpairs import exterior

from hrpairs.bogomolov import (
    CurvatureMatrix,
    HiggsField,
    SheafClassData,
    _adjoint,
    _project,
    _trace_free,
    _trace_verdict,
    bogomolov_value,
    constraint_project,
    discriminant,
    extension_class,
    extension_identity,
    higgs_curvature_term,
    random_curvature,
    random_higgs,
    slope,
    trace_check,
)
from hrpairs.errors import ConfigError, ConsistencyError, DegreeError
from hrpairs.exterior import (
    PPForm,
    _mid_gram,
    _peak,
    _promote,
    _top_functional,
    form_from_hermitian,
    integrate_top,
    std_kahler,
    wedge,
    wedge_all,
)
from hrpairs.hrcheck import random_kahler, schur_form_pair
from hrpairs.ring import polynomial_ring, relation_ring, torus_ring
from hrpairs.scalars import (
    ExactArray, GaussianRational, imag_part, magnitude, negligible, real_part, to_float,
)
from hrpairs.symfunc import Partition
from hrpairs.verdict import FAIL, PASS, Verdict, jsonable


def fulger_lehmann():
    return relation_ring(
        3,
        [("xi", 1), ("f", 1)],
        [((0, 2), []), ((3, 0), [(-1, (2, 1))])],
        integration=[((2, 1), 1)],
    )


# -- slope / discriminant / bogomolov value --------------------------------


def test_slope_scales_by_rank():
    model = fulger_lehmann()
    xi, f = model.label("xi"), model.label("f")
    eta_top = xi ** 2 + 6 * xi * f  # int(xi * eta_top) = -1 + 6 = 5
    E = SheafClassData(2, xi, model.zero(2))
    assert slope(E, eta_top) == Fraction(5, 2)
    zero_c1 = SheafClassData(3, model.zero(1), model.zero(2))
    assert slope(zero_c1, eta_top) == 0


def test_slope_is_linear_in_c1():
    model = fulger_lehmann()
    xi, f = model.label("xi"), model.label("f")
    eta_top = (xi + f) ** 2
    a = SheafClassData(1, xi, model.zero(2))
    b = SheafClassData(1, f, model.zero(2))
    ab = SheafClassData(1, xi + f, model.zero(2))
    assert slope(ab, eta_top) == slope(a, eta_top) + slope(b, eta_top)


def test_discriminant_closed_forms():
    model = fulger_lehmann()
    xi = model.label("xi")
    line = SheafClassData(1, xi, model.zero(2))
    assert discriminant(line).is_zero()  # r=1, c2=0
    x = xi * xi
    two = SheafClassData(2, model.zero(1), model.from_coeffs(2, x.coeffs))
    assert discriminant(two) == 4 * x


def test_discriminant_of_rank_two_extension():
    model = polynomial_ring(2, [("a", 1), ("b", 1)])
    a, b = model.label("a"), model.label("b")
    F = SheafClassData(1, a, model.zero(2))
    G = SheafClassData(1, b, model.zero(2))
    E = extension_class(F, G)
    assert E.rank == 2 and E.c1 == a + b
    assert discriminant(E) == -((a - b) ** 2)


def test_discriminant_is_twist_invariant():
    """Delta survives tensoring by a line class, symbolically."""
    model = polynomial_ring(3, [("c1", 1), ("c2", 2), ("x", 1)])
    x = model.label("x")
    for r in (1, 2, 3, 5):
        E = SheafClassData(r, model.label("c1"), model.label("c2"))
        assert discriminant(E.twist(x)) == discriminant(E)
        assert E.twist(x).c1 == E.c1 + r * x


def test_bogomolov_value_examples():
    model = fulger_lehmann()
    xi, f = model.label("xi"), model.label("f")
    flat = SheafClassData(1, xi, model.zero(2))
    assert bogomolov_value(flat, xi) == 0
    # r=2, c1=0, int(c2 * eta) = 1 -> 4
    E = SheafClassData(2, model.zero(1), model.from_coeffs(2, (xi * f).coeffs))
    assert bogomolov_value(E, xi) == 4


def test_bogomolov_value_of_balanced_extension_is_nonnegative():
    """Extensions with slope-equal line classes have Delta-integral >= 0."""
    rng = np.random.default_rng(55)
    model = torus_ring(3)
    omega = model.label("omega_std")
    n = len(model.basis(1))
    hits = 0
    while hits < 12:
        coeffs = [Fraction(int(c)) for c in rng.integers(-3, 4, size=n)]
        alpha = model.from_coeffs(1, coeffs)
        if (alpha * omega * omega).integrate() != 0:
            continue  # want int((a-b) * omega^2) = 0, i.e. alpha primitive
        hits += 1
        a = alpha  # take b = 0: a - b = alpha
        F = SheafClassData(1, a, model.zero(2))
        G = SheafClassData(1, model.zero(1), model.zero(2))
        E = extension_class(F, G)
        assert bogomolov_value(E, omega) >= 0


def test_sheaf_data_validation():
    model = fulger_lehmann()
    xi = model.label("xi")
    with pytest.raises(ConfigError):
        SheafClassData(0, xi, model.zero(2))
    with pytest.raises(DegreeError):
        SheafClassData(2, xi * xi, model.zero(2))
    other = fulger_lehmann()
    with pytest.raises(ConfigError):
        SheafClassData(2, xi, other.zero(2))


# -- the extension identity ------------------------------------------------


def test_extension_identity_for_two_line_classes():
    model = polynomial_ring(2, [("a", 1), ("b", 1)])
    a, b = model.label("a"), model.label("b")
    F = SheafClassData(1, a, model.zero(2))
    G = SheafClassData(1, b, model.zero(2))
    residual, parts = extension_identity(F, G)
    assert residual.is_zero()
    assert parts["xi"] == a - b
    assert parts["lhs"] == Fraction(-1, 2) * ((a - b) ** 2)


def test_extension_identity_symmetric_case():
    model = fulger_lehmann()
    xi = model.label("xi")
    F = SheafClassData(2, xi, model.from_coeffs(2, (xi * xi).coeffs))
    residual, parts = extension_identity(F, F)
    assert residual.is_zero()
    assert parts["xi"].is_zero()


def test_extension_identity_on_random_rational_data():
    rng = np.random.default_rng(71)
    model = fulger_lehmann()
    n1, n2 = len(model.basis(1)), len(model.basis(2))
    for _ in range(50):
        def rand_sheaf():
            r = int(rng.integers(1, 5))
            c1 = model.from_coeffs(
                1, [Fraction(int(a), int(b)) for a, b in
                    zip(rng.integers(-9, 10, size=n1), rng.integers(1, 7, size=n1))]
            )
            c2 = model.from_coeffs(
                2, [Fraction(int(a), int(b)) for a, b in
                    zip(rng.integers(-9, 10, size=n2), rng.integers(1, 7, size=n2))]
            )
            return SheafClassData(r, c1, c2)

        residual, _ = extension_identity(rand_sheaf(), rand_sheaf())
        assert residual.is_zero()


# -- curvature matrices ----------------------------------------------------


def random_exact_11(rng, d):
    coeffs = {}
    for j in range(d):
        for k in range(d):
            z = GaussianRational(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            if z != 0:
                coeffs[((j,), (k,))] = z
    return PPForm(d, 1, 1, coeffs)


def anti_selfadjoint_part(F):
    """(F - F^adj)/2; its fixed points are the anti-selfadjoint matrices."""
    return CurvatureMatrix._of((F.coeffs - _adjoint(F.coeffs)) / 2)


def trace_free_part(F):
    """F minus (tr F / r) times the identity, as constraint_project removes it."""
    return CurvatureMatrix._of(_trace_free(F.coeffs.copy()))


def random_exact_curvature(rng, r, d):
    """Exact anti-selfadjoint matrix built as A - A^adj."""
    raw = [[random_exact_11(rng, d) for _ in range(r)] for _ in range(r)]
    A = CurvatureMatrix(raw, check=False)
    return anti_selfadjoint_part(A)


def trace_of_square(F):
    """tr(F ^ F) = sum_ij F_ij ^ F_ji as a (2,2)-form, by wedge."""
    E = F.entries
    total = PPForm.zero(F.dim, 2, 2)
    for i in range(F.size):
        for j in range(F.size):
            total = total + wedge(E[i][j], E[j][i])
    return total


def chern_forms(F):
    """(c1-form, c2-form) of a curvature matrix, floats, with the 2pi factors."""
    t1 = F.trace()
    c1 = t1 * complex(0.0, 1.0 / (2.0 * math.pi))
    c2 = (trace_of_square(F) - wedge(t1, t1)) * (1.0 / (8.0 * math.pi ** 2))
    return c1, c2


def test_polarization_bridge_identity_exact():
    """r tr(F^2) - (tr F)^2 = r tr(F0^2), entrywise exact."""
    rng = np.random.default_rng(13)
    for r, d in [(2, 2), (2, 3), (3, 3)]:
        F = random_exact_curvature(rng, r, d)
        F0 = trace_free_part(F)
        t = F.trace()
        lhs = trace_of_square(F) * GaussianRational(r) - wedge(t, t)
        rhs = trace_of_square(F0) * GaussianRational(r)
        assert (lhs - rhs).is_zero()


def test_chern_forms_recover_the_discriminant_form():
    rng = np.random.default_rng(15)
    r, d = 2, 3
    F = CurvatureMatrix(
        [[f * (1.0 + 0.0j) for f in row] for row in
         random_exact_curvature(rng, r, d).entries],
        check=False,
    )
    c1f, c2f = chern_forms(F)
    delta_form = c2f * (2.0 * r) - wedge(c1f, c1f) * float(r - 1)
    F0 = trace_free_part(F)
    want = trace_of_square(F0) * (r / (4.0 * math.pi ** 2))
    scale = max(want.max_abs(), 1.0)
    assert (delta_form - want).max_abs() < 1e-12 * scale


def test_curvature_matrix_validates_shape_and_symmetry():
    d = 2
    # a real form on the diagonal violates conj(alpha) = -alpha
    bad = PPForm.monomial(d, (0,), (0,), GaussianRational(0, 1))
    with pytest.raises(ConsistencyError):
        CurvatureMatrix([[bad]])
    with pytest.raises(DegreeError):
        CurvatureMatrix([[PPForm.monomial(d, (0,), (), GaussianRational(1))]])
    with pytest.raises(ConfigError):
        CurvatureMatrix([[PPForm.zero(d, 1, 1)], [PPForm.zero(d, 1, 1)]])


def test_trace_check_zero_curvature_is_projectively_flat():
    omega = std_kahler(3, exact=False)
    top = wedge(omega, omega)
    verdict = trace_check(CurvatureMatrix.zero(2, 3), top, omega)
    assert verdict.passed
    assert verdict.details["projectively_flat"] is True
    assert verdict.details["total"] == 0


def test_trace_check_diagonal_sign_bookkeeping():
    """diag(gamma, -gamma) with gamma = i * (real form): both terms positive."""
    d = 2
    e11 = PPForm.monomial(d, (0,), (0,), GaussianRational(1))
    e22 = PPForm.monomial(d, (1,), (1,), GaussianRational(1))
    gamma = e11 - e22  # i times the real primitive i(dz1 dzbar1 - dz2 dzbar2)
    assert (gamma * GaussianRational(0, -1)).is_real()
    assert gamma.conj() == -gamma  # admissible diagonal entry
    assert wedge(gamma, std_kahler(d)).is_zero()
    F0 = CurvatureMatrix([[gamma, PPForm.zero(d, 1, 1)],
                          [PPForm.zero(d, 1, 1), -gamma]])
    verdict = trace_check(F0, std_kahler(d), PPForm.one(d))
    assert verdict.passed
    assert verdict.details["backend"] == "exact"
    assert verdict.details["terms"] == [[2, 0], [0, 2]]
    assert verdict.details["total"] == 4
    assert verdict.details["projectively_flat"] is False


def small_violations(exact):
    """Two curvatures on C^3 that each break one constraint by 10^-12 and no other.

    kernel: diag(gamma, -gamma) with gamma = 10^-12 dz1 dzbar1, so that
    int(gamma ^ omega_std^2) != 0.  anti-selfadjoint: off-diagonal entries
    alpha = dz1 dzbar2 and -conj(alpha) + delta for
    delta = 10^-12 (dz3 dzbar3 - dz1 dzbar1), so that F + F^adj = conj(delta).
    """
    one = GaussianRational(1) if exact else 1 + 0j
    tiny = one * (Fraction(1, 10 ** 12) if exact else 1e-12)
    d, zero = 3, PPForm.zero(3, 1, 1)
    gamma = PPForm.monomial(d, (0,), (0,), tiny)
    alpha = PPForm.monomial(d, (0,), (1,), one)
    delta = PPForm.monomial(d, (2,), (2,), tiny) - PPForm.monomial(d, (0,), (0,), tiny)
    return {
        "kernel": CurvatureMatrix([[gamma, zero], [zero, -gamma]]),
        "anti-selfadjoint": CurvatureMatrix([[zero, alpha], [delta - alpha.conj(), zero]],
                                            check=False),
    }


@pytest.mark.parametrize("constraint", ["kernel", "anti-selfadjoint"])
def test_exact_curvature_must_meet_every_constraint_exactly(constraint):
    """An exact violation of size 10^-12 is no certificate, though floats forgive it."""
    omega = std_kahler(3)
    F0 = small_violations(exact=True)[constraint]
    with pytest.raises(ConfigError, match=constraint):
        trace_check(F0, wedge(omega, omega), omega)
    omega = std_kahler(3, exact=False)
    verdict = trace_check(small_violations(exact=False)[constraint], wedge(omega, omega), omega)
    assert verdict.passed
    assert verdict.details["backend"] == "float"


def test_exact_trace_check_beyond_float_range():
    """diag(beta, -beta), beta = c (dz1 dzbar1 - dz2 dzbar2) on C^3: the exact
    verdict at c = 10^400 is the one at c = 1, with terms 10^800 times as
    large; the float evidence saturates to inf."""
    def diagonal(c):
        d, zero = 3, PPForm.zero(3, 1, 1)
        beta = (PPForm.monomial(d, (0,), (0,), GaussianRational(c))
                - PPForm.monomial(d, (1,), (1,), GaussianRational(c)))
        return CurvatureMatrix([[beta, zero], [zero, -beta]])

    omega = std_kahler(3)
    small = trace_check(diagonal(1), wedge(omega, omega), omega)
    big = trace_check(diagonal(10 ** 400), wedge(omega, omega), omega)
    assert small.outcome == big.outcome == "pass"
    assert small.details["terms"] == [[2, 0], [0, 2]]
    assert big.details["terms"] == [[2 * 10 ** 800, 0], [0, 2 * 10 ** 800]]
    assert big.details["backend"] == "exact" and not big.details["projectively_flat"]
    for key in ("scale", "curvature_max_abs", "delta_value"):
        assert big.details[key] == math.inf


def test_trace_check_rejects_unconstrained_input():
    rng = np.random.default_rng(77)
    omega = std_kahler(3, exact=False)
    top = wedge(omega, omega)
    raw = random_curvature(2, 3, rng)
    with pytest.raises(ConfigError):
        trace_check(anti_selfadjoint_part(raw), top, omega)  # kernel constraint
    projected = constraint_project(raw, top)
    lopsided = CurvatureMatrix(
        [[projected.entries[0][0], projected.entries[0][1]],
         [projected.entries[0][1], projected.entries[1][1]]],
        check=False,
    )
    with pytest.raises(ConfigError):
        trace_check(lopsided, top, omega)


def test_trace_check_on_projected_random_curvature():
    rng = np.random.default_rng(101)
    omegas = [random_kahler(3, rng) for _ in range(2)]
    top, mid = schur_form_pair(Partition((2,)), omegas, 3)
    for r in (2, 3):
        F0 = constraint_project(random_curvature(r, 3, rng), top)
        verdict = trace_check(F0, top, mid)
        assert verdict.passed, verdict.witness
        assert verdict.details["total"] > 0
        assert not verdict.details["projectively_flat"]


@pytest.mark.parametrize("exact", [True, False])
def test_trace_check_rejects_misshapen_forms(exact):
    """omega_top of the wrong bidegree and curvature on another C^d are
    DegreeErrors naming the form, before any constraint is looked at."""
    def diagonal(d):
        one = GaussianRational(1) if exact else 1.0 + 0j
        gamma = PPForm.monomial(d, (0,), (0,), one) - PPForm.monomial(d, (1,), (1,), one)
        zero = PPForm.zero(d, 1, 1)
        return CurvatureMatrix([[gamma, zero], [zero, -gamma]])

    omega = std_kahler(3, exact=exact)
    top, mid = wedge(omega, omega), omega
    with pytest.raises(DegreeError, match="omega_top"):
        trace_check(diagonal(3), mid, mid)
    with pytest.raises(DegreeError, match="omega_top"):
        trace_check(diagonal(2), top, mid)
    with pytest.raises(DegreeError, match="omega_mid"):
        trace_check(diagonal(3), top, top)
    with pytest.raises(DegreeError, match="omega_top"):
        constraint_project(diagonal(2), top)
    assert trace_check(diagonal(3), top, mid).passed


def test_constraint_project_output_is_admissible():
    rng = np.random.default_rng(103)
    omega = std_kahler(3, exact=False)
    top = wedge(omega, omega)
    for r in (2, 4):
        F0 = constraint_project(random_curvature(r, 3, rng), top)
        scale = max(F0.max_abs(), 1.0)
        assert F0.anti_selfadjoint_residual() <= 1e-12 * scale
        assert F0.trace().max_abs() <= 1e-12 * scale
        worst = max(abs(complex(v)) for row in wedge_integrals(F0, top) for v in row)
        assert worst <= 1e-12 * scale * max(top.max_abs(), 1.0)


def test_constraint_project_keeps_admissible_input():
    d = 2
    e11 = PPForm.monomial(d, (0,), (0,), 1.0 + 0.0j)
    e22 = PPForm.monomial(d, (1,), (1,), 1.0 + 0.0j)
    gamma = e11 - e22
    F0 = CurvatureMatrix([[gamma, PPForm.zero(d, 1, 1)],
                          [PPForm.zero(d, 1, 1), -gamma]])
    same = constraint_project(F0, std_kahler(d, exact=False))
    diff = max(
        (same.entries[i][j] - F0.entries[i][j]).max_abs()
        for i in range(2) for j in range(2)
    )
    assert diff < 1e-12


def test_constraint_project_kills_scalar_matrices():
    omega = std_kahler(2, exact=False)
    ident = CurvatureMatrix(
        [[omega * 1.0, PPForm.zero(2, 1, 1)], [PPForm.zero(2, 1, 1), omega * 1.0]],
        check=False,
    )
    out = constraint_project(ident, omega)
    assert out.max_abs() < 1e-12


# -- Higgs fields ----------------------------------------------------------


def test_higgs_tensor_closed_form():
    """[theta, theta*] = (N N* - N* N) (x) (phi ^ conj phi) for theta = N(x)phi."""
    d = 2
    phi = PPForm(d, 1, 0, {((0,), ()): GaussianRational(1), ((1,), ()): GaussianRational(0, 2)})
    N = [[GaussianRational(0), GaussianRational(1)],
         [GaussianRational(0), GaussianRational(0)]]
    theta = HiggsField([[phi * c for c in row] for row in N])
    term = higgs_curvature_term(theta)
    pp = wedge(phi, phi.conj())
    # N N* = diag(1, 0), N* N = diag(0, 1)
    assert term.entries[0][0] == pp
    assert term.entries[1][1] == -pp
    assert term.entries[0][1].is_zero() and term.entries[1][0].is_zero()
    assert term.anti_selfadjoint_residual() == 0


def test_higgs_zero_field_contributes_nothing():
    z = PPForm.zero(3, 1, 0)
    theta = HiggsField([[z, z], [z, z]])
    assert higgs_curvature_term(theta).max_abs() == 0


def test_higgs_square_invariant_is_enforced():
    d = 2
    dz1 = PPForm.monomial(d, (0,), (), 1.0 + 0j)
    dz2 = PPForm.monomial(d, (1,), (), 1.0 + 0j)
    z = PPForm.zero(d, 1, 0)
    # N1 (x) dz1 + N2 (x) dz2 with [N1, N2] != 0
    entries = [[z, dz1], [dz2, z]]
    with pytest.raises(ConsistencyError):
        HiggsField(entries)
    sneaky = HiggsField(entries, check=False)
    with pytest.raises(ConsistencyError):
        higgs_curvature_term(sneaky)


def test_random_higgs_satisfies_the_invariant():
    rng = np.random.default_rng(11)
    for r in (2, 3, 4):
        theta = random_higgs(r, 3, rng)
        assert theta.square_residual() < 1e-12
        term = higgs_curvature_term(theta)
        assert term.anti_selfadjoint_residual() < 1e-12


def test_higgs_trace_check_stays_nonnegative():
    rng = np.random.default_rng(19)
    omegas = [random_kahler(3, rng) for _ in range(2)]
    top, mid = schur_form_pair(Partition((2,)), omegas, 3)
    combined = constraint_project(
        random_curvature(3, 3, rng) + higgs_curvature_term(random_higgs(3, 3, rng)),
        top,
    )
    verdict = trace_check(combined, top, mid)
    assert verdict.passed


# -- dense float kernel against the exact wedge path -----------------------


#: a scale whose parts have denominators 3 and 7
SCALE = GaussianRational(Fraction(1, 3), Fraction(2, 7))


def exact_kahler(rng, d, denominators=(1, 1)):
    """Real (1,1)-form of H = A^* A + Id, A a Gaussian-integer matrix with the
    real and imaginary parts of its entries divided by the two denominators."""
    p, q = denominators
    A = [[GaussianRational(Fraction(int(rng.integers(-2, 3)), p),
                           Fraction(int(rng.integers(-2, 3)), q))
          for _ in range(d)] for _ in range(d)]
    H = [[sum((A[k][i].conjugate() * A[k][j] for k in range(d)), GaussianRational(int(i == j)))
          for j in range(d)] for i in range(d)]
    return form_from_hermitian(H)


def exact_higgs(rng, r, d, scale=1):
    """N (x) phi1 + N^2 (x) phi2 with Gaussian-integer N (strictly upper) and
    phi, the phi scaled by scale."""
    def gauss():
        return GaussianRational(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))

    N = [[gauss() if j > i else GaussianRational(0) for j in range(r)] for i in range(r)]
    N2 = [[sum((N[i][k] * N[k][j] for k in range(r)), GaussianRational(0)) for j in range(r)]
          for i in range(r)]
    phi1, phi2 = (PPForm(d, 1, 0, {((a,), ()): gauss() * scale for a in range(d)})
                  for _ in range(2))
    return HiggsField([[phi1 * N[i][j] + phi2 * N2[i][j] for j in range(r)] for i in range(r)])


def float_copy(M):
    return type(M)([[f * (1.0 + 0j) for f in row] for row in M.entries], check=False)


def relative_gap(X, Y):
    """Largest coefficient of X - Y over max(1, largest coefficient of X)."""
    gap = max((X.entries[i][j] - Y.entries[i][j]).max_abs()
              for i in range(X.size) for j in range(X.size))
    return gap / max(1.0, X.max_abs())


def wedge_higgs_term(theta):
    """Entries sum_k theta_ik ^ theta^adj_kj + theta^adj_ik ^ theta_kj, by wedge."""
    E, r = theta.entries, theta.size
    adj = [[E[j][i].conj() for j in range(r)] for i in range(r)]
    return [[sum((wedge(E[i][k], adj[k][j]) + wedge(adj[i][k], E[k][j]) for k in range(r)),
                 PPForm.zero(theta.dim, 1, 1))
             for j in range(r)] for i in range(r)]


def wedge_integrals(F, omega):
    """int(F_ij ^ omega) for a (d-1,d-1)-form omega, or int(F_ij ^ F_ji ^ omega)
    for a (d-2,d-2)-form omega, by wedge."""
    E, r = F.entries, F.size
    if omega.p == F.dim - 1:
        return [[integrate_top(wedge(E[i][j], omega), allow_complex=True) for j in range(r)]
                for i in range(r)]
    return [[integrate_top(wedge(wedge(E[i][j], E[j][i]), omega), allow_complex=True)
             for j in range(r)] for i in range(r)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([3, 4]), r=st.integers(2, 4), higgs=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1, SCALE]))
def test_dense_kernel_agrees_with_exact_wedge(d, r, higgs, seed, scale):
    """Gaussian-integer data, or data whose parts have denominators 3 and 7,
    through the exact kernel equals a wedge reference exactly: the Higgs
    term, the kernel values int(F_ij ^ omega_top) (0 once projected) and
    every term v_ij.  Its complex copy through the float kernel agrees with
    the exact results to 1e-9 relative."""
    rng = np.random.default_rng(seed)
    raw = CurvatureMatrix([[random_exact_11(rng, d) * scale for _ in range(r)]
                           for _ in range(r)], check=False)
    denominators = (1, 1) if scale == 1 else (3, 7)
    omegas = [exact_kahler(rng, d, denominators) for _ in range(d - 1)]
    top, mid = wedge_all(omegas), wedge_all(omegas[1:])
    ftop, fmid = top * (1.0 + 0j), mid * (1.0 + 0j)
    exact_F, float_F = raw, float_copy(raw)
    if higgs:
        theta = exact_higgs(rng, r, d, scale)
        term = higgs_curvature_term(theta)
        fterm = higgs_curvature_term(float_copy(theta))
        assert term.is_exact() and not fterm.is_exact()
        assert [list(row) for row in term.entries] == wedge_higgs_term(theta)
        assert relative_gap(term, fterm) <= 1e-9
        exact_F, float_F = raw + term, float_F + fterm
    kernel = np.einsum("ijab,ab->ij", exact_F.coeffs, _top_functional(top))
    assert kernel.tolist() == wedge_integrals(exact_F, top)
    F0 = constraint_project(exact_F, top)
    fF0 = constraint_project(float_F, ftop)
    assert F0.is_exact() and not fF0.is_exact()
    assert F0.anti_selfadjoint_residual() == 0 and F0.trace().is_zero()
    assert wedge_integrals(F0, top) == [[0] * r for _ in range(r)]
    assert relative_gap(F0, fF0) <= 1e-9
    want, got = trace_check(F0, top, mid), trace_check(fF0, ftop, fmid)
    assert (want.details["backend"], got.details["backend"]) == ("exact", "float")
    terms = wedge_integrals(F0, mid)
    assert all(v.imag == 0 for row in terms for v in row)
    assert want.details["terms"] == jsonable([[v.real for v in row] for row in terms])
    assert want.outcome == got.outcome
    scale = want.details["scale"]
    for row, frow in zip(want.details["terms"], got.details["terms"]):
        for v, fv in zip(row, frow):
            assert abs(float(Fraction(v)) - fv) <= 1e-9 * scale


@pytest.fixture
def wedge_calls(monkeypatch):
    """Count exterior.wedge calls, through every hrpairs module that binds it."""
    calls = []
    original = exterior.wedge

    def counting(x, y):
        calls.append((x.p, x.q, y.p, y.q))
        return original(x, y)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hrpairs" and getattr(module, "wedge", None) is original:
            monkeypatch.setattr(module, "wedge", counting)
    return calls


def curvature_trial(top, mid, raw, theta):
    """One curvature-sweep trial after the Schur pair: Higgs term, projection, trace check."""
    return trace_check(constraint_project(raw + higgs_curvature_term(theta), top), top, mid)


def test_float_curvature_trial_makes_no_sparse_wedge(wedge_calls):
    rng = np.random.default_rng(29)
    top, mid = schur_form_pair(Partition((2,)), [random_kahler(3, rng) for _ in range(2)], 3)
    theta = random_higgs(3, 3, rng)
    assert curvature_trial(top, mid, random_curvature(3, 3, rng), theta).passed
    assert wedge_calls == []


def test_exact_curvature_trial_makes_no_sparse_wedge(wedge_calls):
    """Neither the exact Schur pair nor the exact curvature kernel multiplies by wedge."""
    rng = np.random.default_rng(31)
    top, mid = schur_form_pair(Partition((2,)), [exact_kahler(rng, 3) for _ in range(2)], 3)
    assert top.is_exact() and mid.is_exact()
    raw = CurvatureMatrix([[random_exact_11(rng, 3) for _ in range(3)] for _ in range(3)],
                          check=False)
    theta = exact_higgs(rng, 3, 3)
    assert wedge_calls == []
    verdict = curvature_trial(top, mid, raw, theta)
    assert verdict.details["backend"] == "exact" and verdict.passed
    assert wedge_calls == []


# -- the array verdict against the per-entry oracle ------------------------


def trace_verdict_by_entry(F0, G, m, zero_tol):
    """The oracle of bogomolov._trace_verdict: the same checks, one entry at a
    time in Python, through scalars.negligible per value."""
    r = F0.size
    A, G = _promote(F0.coeffs, G)
    exact = isinstance(A, ExactArray)
    curvature_max = magnitude(_peak(A))
    fscale = max(curvature_max, 1.0)
    res = _peak(A + _adjoint(A))
    if not negligible(res, zero_tol * fscale):
        raise ConfigError(f"curvature is not anti-selfadjoint: residual {res}")
    tr_res = _peak(np.einsum("iiab->ab", A))
    if not negligible(tr_res, zero_tol * fscale):
        raise ConfigError(f"curvature is not trace-free: residual {tr_res}")
    oscale = max(magnitude(_peak(m)), 1.0)
    kernel = np.einsum("ijab,ab->ij", *_promote(A, m)).tolist()
    for i in range(r):
        for j in range(r):
            v = kernel[i][j]
            if not negligible(v, zero_tol * fscale * oscale):
                raise ConfigError(f"entry ({i},{j}) violates the kernel constraint: {v}")

    raw = np.einsum("ijab,jice,abce->ij", A, A, G).tolist()
    terms = [[None] * r for _ in range(r)]
    for i, row in enumerate(raw):
        for j, v in enumerate(row):
            if not negligible(imag_part(v), zero_tol * max(1.0, magnitude(v))):
                raise ConsistencyError(f"term ({i},{j}) is not real: {v}")
            terms[i][j] = real_part(v)

    scale = max(1.0, max(magnitude(t) for row in terms for t in row))
    total = sum(t for row in terms for t in row)
    negatives = [
        (i, j, terms[i][j])
        for i in range(r) for j in range(r)
        if terms[i][j] < 0 and not negligible(terms[i][j], zero_tol * scale)
    ]
    ok = not negatives
    details = {
        "rank": r,
        "terms": jsonable(terms),
        "total": jsonable(total),
        "delta_value": r * to_float(total) / (4.0 * math.pi ** 2),
        "projectively_flat": negligible(total, zero_tol * scale),
        "scale": scale,
        "curvature_max_abs": curvature_max,
        "backend": "exact" if exact else "float",
    }
    witness = {} if ok else {"negative_terms": jsonable(negatives)}
    return Verdict(
        PASS if ok else FAIL,
        witness=witness,
        tolerances={} if exact else {"zero_tol": zero_tol},
        details=details,
    )


def bump(shape, entries, den, exact):
    """The coefficient array with entries {index: (re, im)} over den, exact
    or complex."""
    re, im = np.zeros(shape, dtype=object), np.zeros(shape, dtype=object)
    for index, (a, b) in entries.items():
        re[index] += a
        im[index] += b
    X = ExactArray(re, im, den)
    return X if exact else X.astype(complex)


def spread(F, K):
    """D F D for D = diag(K^(r-1), ..., K, 1): still anti-selfadjoint and in
    the kernel, with terms of many scales, some below the tolerance."""
    r = F.size
    w = np.array([[K ** (2 * r - 2 - i - j) for j in range(r)] for i in range(r)],
                 dtype=object)[:, :, None, None]
    return CurvatureMatrix._of(F.coeffs * (ExactArray(w, np.zeros_like(w)) if F.is_exact()
                                           else w.astype(complex)))


def perturbed(kind, F0, G, den, rng):
    """(F0, G) broken as kind says, by 1/den at places drawn from rng: an
    imaginary diagonal coefficient (not anti-selfadjoint), a real multiple
    of the identity (not trace-free), b and -b on the diagonal for b = Id
    (off the kernel, r >= 2), an imaginary coefficient in omega_mid (a term
    that is not real), or -omega_mid, which is not Hodge-Riemann (negative
    terms)."""
    r, d = F0.size, F0.dim
    exact = F0.is_exact()
    i, j = rng.choice(r, size=min(r, 2), replace=False).tolist() + [0] * (2 - min(r, 2))
    a = int(rng.integers(d))
    if kind == "adjoint":
        entries = {(i, i, a, a): (0, 1)}
    elif kind == "trace":
        entries = {(k, k, a, a): (1, 0) for k in range(r)}
    elif kind == "kernel" and r >= 2:
        entries = {**{(i, i, b, b): (1, 0) for b in range(d)},
                   **{(j, j, b, b): (-1, 0) for b in range(d)}}
    elif kind == "unreal":
        index = tuple(rng.integers(d, size=4).tolist())
        return F0, G + bump(G.shape, {index: (0, 1)}, den, exact)
    elif kind == "negative":
        return F0, -G
    else:
        return F0, G
    return CurvatureMatrix._of(F0.coeffs + bump(F0.coeffs.shape, entries, den, exact)), G


def verdict_or_error(decide, *args):
    """decide(*args).to_dict(), or the class and message of its exception."""
    try:
        return decide(*args).to_dict()
    except (ConfigError, ConsistencyError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), r=st.integers(1, 5), exact=st.booleans(), higgs=st.booleans(),
       kind=st.sampled_from(["none", "adjoint", "trace", "kernel", "unreal", "negative"]),
       den=st.sampled_from([2, 10 ** 13]), K=st.sampled_from([1, 1000]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_array_trace_verdict_matches_the_per_entry_oracle(d, r, exact, higgs, kind, den, K,
                                                          seed):
    """On projected random curvature of a Schur pair, with and without a Higgs
    term, its entries spread over many scales or not, as it is and broken in
    each way the verdict checks (by 1/2, or by 1e-13, which floats forgive):
    the same to_dict(), or the same exception class and message."""
    rng = np.random.default_rng(seed)
    omegas = [exact_kahler(rng, d) if exact else random_kahler(d, rng) for _ in range(2)]
    top, mid = schur_form_pair(Partition((d - 1,)), omegas, d)
    G, m = _mid_gram(mid), _top_functional(top)
    if exact:
        raw = CurvatureMatrix([[random_exact_11(rng, d) for _ in range(r)] for _ in range(r)],
                              check=False)
        theta = exact_higgs(rng, r, d) if higgs else None
    else:
        raw = random_curvature(r, d, rng)
        theta = random_higgs(r, d, rng) if higgs else None
    if theta is not None:
        raw = raw + higgs_curvature_term(theta)
    F0, G = perturbed(kind, _project(spread(raw, K), m), G, den, rng)
    want = verdict_or_error(trace_verdict_by_entry, F0, G, m, 1e-9)
    assert verdict_or_error(_trace_verdict, F0, G, m, 1e-9) == want


# -- omega must be real ----------------------------------------------------


@pytest.mark.parametrize("exact", [True, False])
def test_a_form_that_is_not_real_is_a_config_error(exact):
    """omega_mid or omega_top with one coefficient off the reality condition:
    trace_check and constraint_project name the indices in a ConfigError,
    1-based as form JSON writes them, to 1e-9 relative in floats and exactly
    otherwise."""
    d = 3
    one = GaussianRational(1) if exact else 1.0
    off = PPForm(d, 1, 1, {((0,), (1,)): one})
    omega = std_kahler(d, exact=exact)
    top, mid = wedge(omega, omega), omega
    F0 = constraint_project(random_exact_curvature(np.random.default_rng(3), 2, d), top)
    if not exact:
        F0 = float_copy(F0)
    assert trace_check(F0, top, mid).passed
    with pytest.raises(ConfigError,
                       match=r"omega_mid is not a real form.* at I = \[1\], J = \[2\]$"):
        trace_check(F0, top, mid + off)
    bad_top = top + PPForm(d, 2, 2, {((0, 1), (0, 2)): one})
    with pytest.raises(ConfigError,
                       match=r"omega_top is not a real form.* at I = \[1, 2\], J = \[1, 3\]$"):
        trace_check(F0, bad_top, mid)
    with pytest.raises(ConfigError, match="omega_top is not a real form"):
        constraint_project(F0, bad_top)
    if not exact:  # within 1e-9 relative, a float form is real
        assert trace_check(F0, top, mid + off * 1e-12).passed


def test_a_non_real_omega_mid_is_refused_before_its_terms():
    """Against random curvature, a float omega_mid with one coefficient off
    makes terms that are not real (a ConsistencyError of the per-entry
    oracle); trace_check refuses omega_mid itself first."""
    rng = np.random.default_rng(41)
    top, mid = schur_form_pair(Partition((2,)), [random_kahler(3, rng) for _ in range(2)], 3)
    F0 = constraint_project(random_curvature(2, 3, rng), top)
    bad = mid + PPForm(3, 1, 1, {((0,), (1,)): 1.0})
    with pytest.raises(ConsistencyError, match="is not real"):
        trace_verdict_by_entry(F0, _mid_gram(bad), _top_functional(top), 1e-9)
    with pytest.raises(ConfigError, match="omega_mid is not a real form"):
        trace_check(F0, top, bad)
