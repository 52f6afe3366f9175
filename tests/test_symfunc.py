"""Schur / derived / twist machinery against slow independent oracles."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrpairs.errors import ConfigError, DegreeError
from hrpairs.ring import polynomial_ring
from hrpairs.symfunc import (
    ChernVector,
    Partition,
    RingTPoly,
    SymPoly,
    complete_homogeneous,
    derived,
    elementary,
    evaluate,
    evaluate_at_chern,
    invert_total_class,
    schur,
    segre_from_chern,
    to_monomials,
    twist_chern,
)


def frac_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    acc = Fraction(0)
    for j in range(n):
        sub = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        acc += (-1) ** j * rows[0][j] * frac_det(sub)
    return acc


def poly_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        sub = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * poly_det(sub)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def bialternant(lam, xs):
    """Ratio-of-alternants Schur value at distinct rational points."""
    n = len(xs)
    parts = list(lam) + [0] * (n - len(lam))
    num = frac_det([[xs[i] ** (parts[j] + n - 1 - j) for j in range(n)] for i in range(n)])
    den = frac_det([[xs[i] ** (n - 1 - j) for j in range(n)] for i in range(n)])
    return num / den


def brute_elementary(k, xs):
    return sum(
        (prod(xs[i] for i in S) for S in itertools.combinations(range(len(xs)), k)),
        start=Fraction(0),
    )


def prod(it):
    out = Fraction(1)
    for v in it:
        out *= v
    return out


def random_points(rng, n):
    while True:
        xs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(n)]
        if len(set(xs)) == n:
            return xs


PARTITIONS = [
    (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (3, 1), (2, 2), (2, 1, 1),
]


@pytest.mark.parametrize("parts", PARTITIONS)
def test_schur_matches_bialternant(parts):
    rng = np.random.default_rng(hash(parts) % 2**32)
    lam = Partition(parts)
    for n in (3, 4):
        if len(lam) > n:
            continue
        p = schur(lam, n)
        for _ in range(4):
            xs = random_points(rng, n)
            assert evaluate(p, xs, Fraction(1)) == bialternant(lam, xs)


@pytest.mark.parametrize("parts", PARTITIONS)
def test_dual_and_straight_jacobi_trudi_agree(parts):
    """det(e_(lam'_i - i + j)) and det(h_(lam_i - i + j)) give the same poly."""
    lam = Partition(parts)
    n = 4
    if not lam.parts:
        return
    rows = [
        [complete_homogeneous(lam[i] - i + j, n) for j in range(len(lam))]
        for i in range(len(lam))
    ]
    assert schur(lam, n) == poly_det(rows)


def test_schur_with_too_many_rows_vanishes():
    assert schur(Partition((1, 1, 1)), 2).is_zero()
    assert schur(Partition((2, 2, 1)), 2).is_zero()


def test_schur_small_closed_forms():
    e1, e2 = elementary(1, 3), elementary(2, 3)
    assert schur(Partition((1,)), 3) == e1
    assert schur(Partition((1, 1)), 3) == e2
    assert schur(Partition((2,)), 3) == e1 * e1 - e2
    # an exponent tuple is keyed up to its last nonzero entry; the full-length
    # form builds the same polynomial and reads the same coefficient
    for key in [(0, 1, 0), (0, 1)]:
        assert SymPoly(3, {key: 1}) == e2 and str(SymPoly(3, {key: 1})) == str(e2) == "e2"
        assert e2.coefficient(key) == 1 and e1.coefficient(key) == 0
    assert SymPoly.one(3).coefficient((0, 0, 0)) == SymPoly.one(3).coefficient(()) == 1
    # a number equals the polynomial whose only term is that constant; 0 the one with none
    assert schur(Partition((1, 1, 1, 1)), 3) == 0 == SymPoly(3) == e1 - e1 and e1 != 0
    assert SymPoly.one(3) == 1 != SymPoly.constant(3, 2) and e1 != 1
    half = SymPoly.constant(3, Fraction(1, 2))
    assert half == Fraction(1, 2) and half != 0 and half + half == 1


def test_pieri_s1_squared():
    n = 4
    s1 = schur(Partition((1,)), n)
    assert s1 * s1 == schur(Partition((2,)), n) + schur(Partition((1, 1)), n)


def test_elementary_and_complete_against_brute_force():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        xs = random_points(rng, n)
        for k in range(n + 1):
            assert evaluate(elementary(k, n), xs, Fraction(1)) == brute_elementary(k, xs)
            want_h = sum(
                (prod(xs[i] for i in S)
                 for S in itertools.combinations_with_replacement(range(n), k)),
                start=Fraction(0),
            )
            assert evaluate(complete_homogeneous(k, n), xs, Fraction(1)) == want_h


def test_evaluate_takes_several_polynomials():
    rng = np.random.default_rng(6)
    xs = random_points(rng, 3)
    polys = [schur(Partition((2, 1)), 3), derived(schur(Partition((2, 1)), 3), 1),
             elementary(3, 3)]
    assert evaluate(polys, xs, Fraction(1)) == tuple(evaluate(p, xs, Fraction(1))
                                                      for p in polys)
    with pytest.raises(DegreeError):
        evaluate([polys[0], elementary(1, 2)], xs, Fraction(1))


def test_e_h_convolution_identity():
    """sum_i (-1)^i e_i h_(k-i) = 0 for all k >= 1."""
    n = 4
    for k in range(1, 7):
        acc = SymPoly.zero(n)
        for i in range(0, k + 1):
            term = elementary(i, n) * complete_homogeneous(k - i, n)
            acc = acc + term if i % 2 == 0 else acc - term
        assert acc.is_zero()


def test_to_monomials_of_low_weight_in_many_variables():
    """s_2 = e1^2 - e2 in 40 variables is the sum of the 820 monomials of
    degree 2; only the 0/1 monomials of e_1 and e_2 are listed, not 2^40."""
    expansion = to_monomials(schur(Partition((2,)), 40))
    assert len(expansion) == 40 + 780
    assert set(expansion.values()) == {1}
    assert all(sum(mono) == 2 for mono in expansion)


def test_to_monomials_agrees_with_evaluate():
    rng = np.random.default_rng(17)
    for parts in [(2,), (2, 1), (3, 1)]:
        p = schur(Partition(parts), 3)
        expansion = to_monomials(p)
        assert all(c > 0 for c in expansion.values())  # Schur positivity
        xs = random_points(rng, 3)
        direct = sum(
            (c * prod(x ** m for x, m in zip(xs, mono)) for mono, c in expansion.items()),
            start=Fraction(0),
        )
        assert direct == evaluate(p, xs, Fraction(1))


# -- shift / derived -------------------------------------------------------


def shift_elementary(k, num_vars):
    # e_k(x + t) = sum_m C(e-k+m, m) e_(k-m) t^m
    return RingTPoly(
        [comb(num_vars - k + m, m) * elementary(k - m, num_vars) for m in range(k + 1)],
        SymPoly.zero(num_vars),
    )


def shift(p):
    """p(x_1 + t, ..., x_e + t) as a RingTPoly in t with SymPoly coefficients,
    by substituting the shifted e_k into every e-monomial: the oracle that
    derived (D^k p / k!) is checked against."""
    e = p.num_vars
    zero = SymPoly.zero(e)
    shifted_gens = {}
    out = RingTPoly([], zero)
    for mono, c in p.terms.items():
        term = RingTPoly([SymPoly.constant(e, c)], zero)
        for k, m in enumerate(mono):
            if m == 0:
                continue
            g = shifted_gens.get(k)
            if g is None:
                g = shifted_gens[k] = shift_elementary(k + 1, e)
            for _ in range(m):
                term = term * g
        out = out + term
    return out


def random_sympoly(rng, n, terms=3, max_weight=4):
    out = SymPoly.zero(n)
    for _ in range(terms):
        mono = [0] * n
        w = 0
        while w < max_weight:
            k = int(rng.integers(0, n))
            if w + k + 1 > max_weight:
                break
            mono[k] += 1
            w += k + 1
        c = Fraction(int(rng.integers(-4, 5)))
        out = out + SymPoly(n, {tuple(mono): c}) if c else out
    return out


def test_shift_evaluates_as_argument_translation():
    """p(x + t) at rational t equals the t-expansion termwise."""
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        p = random_sympoly(rng, n)
        xs = random_points(rng, n)
        t = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        lhs = evaluate(p, [x + t for x in xs], Fraction(1))
        sh = shift(p)
        rhs = sum(
            (t ** i * evaluate(sh[i], xs, Fraction(1)) for i in range(sh.degree() + 1)),
            start=Fraction(0),
        )
        assert lhs == rhs


def test_shift_is_a_ring_homomorphism():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        p, q = random_sympoly(rng, n), random_sympoly(rng, n)
        assert shift(p * q) == shift(p) * shift(q)
        assert shift(p + q) == shift(p) + shift(q)


@st.composite
def schur_classes(draw):
    """(lam, e) with |lam| <= 8 boxes, at most e rows, and e <= 6 variables or
    e far above the weight, up to 1 000, where most e_k go unused."""
    e = draw(st.integers(1, 6) | st.integers(9, 1000))
    parts = sorted(draw(st.lists(st.integers(1, 8), max_size=min(e, 8))), reverse=True)
    while sum(parts) > 8:
        parts.pop(0)
    return Partition(parts), e


@settings(max_examples=150, deadline=None, derandomize=True)
@given(schur_classes())
def test_derived_is_the_shift_coefficient_at_every_order(case):
    lam, e = case
    p = schur(lam, e)
    shifted = shift(p)
    for k in range(lam.weight + 1):
        assert derived(p, k) == shifted[k]


def test_derived_order_zero_is_identity():
    p = schur(Partition((2, 1)), 4)
    assert derived(p, 0) == p


def test_derived_of_s1_in_four_variables_is_four():
    assert derived(schur(Partition((1,)), 4)) == SymPoly.constant(4, 4)


def test_derived_of_s2_in_three_variables():
    assert derived(schur(Partition((2,)), 3)) == elementary(1, 3) * 4


def test_derived_rejects_orders_past_the_weight():
    p = schur(Partition((2,)), 3)
    assert derived(p, 2) == SymPoly.constant(3, 6)  # p(1,1,1) = #multisets
    with pytest.raises(DegreeError):
        derived(p, 3)


def test_derived_top_order_counts_monomials():
    """The weight-th derived polynomial of p is the number of x-monomials."""
    for parts in [(2,), (2, 1), (1, 1)]:
        p = schur(Partition(parts), 4)
        w = p.weight
        count = sum(to_monomials(p).values())
        assert derived(p, w) == SymPoly.constant(4, count)


# -- chern vectors, twists, segre ------------------------------------------


def test_twist_matches_root_shift_at_rational_points():
    """c_p(A<t>) = e_p(roots + t) when the roots are rational numbers."""
    rng = np.random.default_rng(37)
    for e in (2, 3, 4):
        roots = random_points(rng, e)
        chern = ChernVector(
            e, [brute_elementary(k, roots) for k in range(e + 1)]
        )
        t = Fraction(int(rng.integers(-3, 4)), 2)
        twisted = twist_chern(chern, t, Fraction(1))
        for p in range(e + 1):
            assert twisted[p] == brute_elementary(p, [r + t for r in roots])


def test_twist_composes_additively():
    e = 3
    model = polynomial_ring(4, [("c1", 1), ("c2", 2), ("c3", 3), ("h", 1)])
    h = model.label("h")
    chern = ChernVector(e, [model.one()] + [model.label(f"c{k}") for k in range(1, e + 1)])
    t1, t2 = Fraction(1, 2), Fraction(1, 3)
    once = twist_chern(chern, t1 + t2, h)
    stepwise = twist_chern(twist_chern(chern, t1, h), t2, h)
    for p in range(e + 1):
        assert once[p] == stepwise[p]


def test_twist_by_zero_is_identity():
    e = 2
    model = polynomial_ring(3, [("c1", 1), ("c2", 2), ("h", 1)])
    chern = ChernVector(e, [model.one(), model.label("c1"), model.label("c2")])
    same = twist_chern(chern, Fraction(0), model.label("h"))
    assert all(same[p] == chern[p] for p in range(e + 1))


def test_invert_total_class_convolves_to_one():
    rng = np.random.default_rng(41)
    cs = [Fraction(1)] + [Fraction(int(rng.integers(-6, 7)), 3) for _ in range(5)]
    ss = invert_total_class(cs)
    for k in range(1, 6):
        conv = sum((cs[i] * ss[k - i] for i in range(k + 1)), start=Fraction(0))
        assert conv == 0
    assert ss[0] == 1


def universal_chern(e):
    """c_k = e_k, the generic Chern vector of rank e."""
    return ChernVector(e, [elementary(k, e) for k in range(e + 1)])


def test_segre_of_universal_chern_is_complete_homogeneous():
    for e in (2, 3, 4):
        seg = segre_from_chern(list(universal_chern(e)), upto=e + 1)
        for k in range(e + 2):
            assert seg[k] == complete_homogeneous(k, e)


def test_segre_closed_forms():
    seg = segre_from_chern(list(universal_chern(3)), upto=3)
    e1, e2, e3 = (elementary(k, 3) for k in (1, 2, 3))
    assert seg[1] == e1
    assert seg[2] == e1 * e1 - e2
    assert seg[3] == e1 * e1 * e1 - e1 * e2 * 2 + e3


def test_evaluate_at_chern_matches_evaluate():
    rng = np.random.default_rng(43)
    e = 3
    roots = random_points(rng, e)
    chern = ChernVector(e, [brute_elementary(k, roots) for k in range(e + 1)])
    p = schur(Partition((2, 1)), e)
    assert evaluate_at_chern(p, chern) == evaluate(p, roots, Fraction(1))


# -- partitions ------------------------------------------------------------


def test_partition_parse_and_str_round_trip():
    for text in ["", "1", "2,1", "3,3,1"]:
        assert str(Partition.parse(text)) == text


def test_partition_conjugate_is_an_involution():
    for parts in PARTITIONS:
        lam = Partition(parts)
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().weight == lam.weight


def test_partition_conjugate_example():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))


def test_partition_rejects_bad_input():
    with pytest.raises(ConfigError):
        Partition((1, 2))
    with pytest.raises(ConfigError):
        Partition((-1,))
    with pytest.raises(ConfigError):
        Partition.parse("2,x")


def test_sympoly_rejects_mixed_variable_counts():
    with pytest.raises(DegreeError):
        elementary(1, 2) + elementary(1, 3)
    with pytest.raises(DegreeError):  # e_3 in 2 variables
        SymPoly(2, {(0, 0, 1): 1})
    assert SymPoly(2, {(1, 0, 0): 1}) == elementary(1, 2)  # zero exponents past e are cut
    with pytest.raises(DegreeError):
        evaluate(elementary(1, 3), [Fraction(1)] * 2, Fraction(1))
