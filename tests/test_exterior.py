"""Sign conventions of PPForm checked against brute-force wedge words."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hrpairs import exterior
from hrpairs.errors import ConfigError, DegreeError
from hrpairs.exterior import (
    PPForm,
    form_from_dict,
    form_from_hermitian,
    form_from_json,
    form_to_dict,
    form_to_json,
    hermitian_from_form,
    integrate_top,
    positivity_dminus1,
    std_kahler,
    wedge,
    wedge_all,
)
from hrpairs.scalars import ExactArray, GaussianRational, conj as gauss_conj, i_power


# -- brute-force oracle on wedge words -------------------------------------
#
# A wedge word is a tuple of symbols ("z", j) for dz_j and ("zb", j) for
# dzbar_j, in the order the factors are multiplied.  Canonical order puts all
# dz factors first (ascending), then all dzbar factors (ascending); each
# adjacent transposition flips the sign.  Everything below is computed this
# slow literal way, then compared against the PPForm implementation.


def sort_word(word):
    """Bubble sort into canonical order, counting transpositions."""
    word = list(word)
    sign = 1
    for _ in range(len(word)):
        for j in range(len(word) - 1):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                sign = -sign
    for a, b in zip(word, word[1:]):
        if a == b:
            return None, 0
    return tuple(word), sign


def word_of(I, J):
    return tuple(("z", j) for j in I) + tuple(("zb", j) for j in J)


def brute_conj_word(I, J):
    # conjugation swaps dz_j <-> dzbar_j factorwise and keeps the order
    raw = tuple(("zb", j) for j in I) + tuple(("z", j) for j in J)
    return sort_word(raw)


def brute_wedge(coeffs_x, coeffs_y):
    """Multiply two {word: coeff} dicts symbol by symbol."""
    out = {}
    for (wx, cx), (wy, cy) in itertools.product(coeffs_x.items(), coeffs_y.items()):
        word, sign = sort_word(wx + wy)
        if sign == 0:
            continue
        out[word] = out.get(word, 0) + sign * cx * cy
    return {w: c for w, c in out.items() if c != 0}


def as_words(form):
    return {
        word_of(I, J): c
        for (I, J), c in form.coeffs.items()
    }


def subsets(d, n):
    return list(itertools.combinations(range(d), n))


def test_conjugation_sign_matches_transposition_count():
    """conj(dz_I dzbar_J) picks up exactly (-1)^(pq) under resorting."""
    d = 4
    for p in range(4):
        for q in range(4):
            for I in subsets(d, p):
                for J in subsets(d, q):
                    word, sign = brute_conj_word(I, J)
                    assert word == word_of(J, I)
                    assert sign == (-1) ** (p * q)
                    mono = PPForm.monomial(d, I, J, GaussianRational(2, 3))
                    got = mono.conj()
                    assert got.coeffs == {(J, I): GaussianRational(2, -3) * sign}


def test_reality_sign_on_diagonal_generators():
    """i^(p^2) dz_I dzbar_I is fixed by conjugation, for every p."""
    d = 4
    for p in range(d + 1):
        # transposition count says conj(dz_I dzbar_I) = (-1)^(p^2) dz_I dzbar_I
        for I in subsets(d, p):
            _, sign = brute_conj_word(I, I)
            assert sign == (-1) ** (p * p)
            u = PPForm.monomial(d, I, I, i_power(p * p))
            # conj multiplies the coefficient by conj(i^(p^2)) * (-1)^(p^2)
            # = (-i)^(p^2) * (-1)^(p^2) = i^(p^2), so u is real on the nose
            assert u.conj() == u
            assert u.is_real()
            if p % 2 == 1:
                bad = PPForm.monomial(d, I, I, GaussianRational(1))
                assert not bad.is_real()


def test_reality_condition_off_diagonal():
    """A (p,p)-form is real iff c_JI = (-1)^(p^2) conj(c_IJ)."""
    d = 4
    for p, I, J in [(1, (0,), (2,)), (2, (0, 1), (1, 3)), (3, (0, 1, 2), (0, 2, 3))]:
        c = GaussianRational(3, 5)
        sign = GaussianRational((-1) ** (p * p))
        good = PPForm(d, p, p, {(I, J): c, (J, I): sign * gauss_conj(c)})
        assert good.is_real()
        bad = PPForm(d, p, p, {(I, J): c, (J, I): sign * c})
        assert not bad.is_real()


def test_conj_is_an_involution_and_multiplicative():
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        x = random_form(rng, d)
        y = random_form(rng, d)
        assert x.conj().conj() == x
        assert wedge(x, y).conj() == wedge(x.conj(), y.conj())


def random_form(rng, d, exact=True, terms=3):
    p = int(rng.integers(0, d + 1))
    q = int(rng.integers(0, d + 1))
    coeffs = {}
    for _ in range(terms):
        I = tuple(sorted(int(v) for v in rng.choice(d, size=p, replace=False)))
        J = tuple(sorted(int(v) for v in rng.choice(d, size=q, replace=False)))
        if exact:
            c = GaussianRational(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
        if c != 0:
            coeffs[(I, J)] = c
    return PPForm(d, p, q, coeffs)


def assert_words_close(got, want):
    """Two {word: coefficient} dicts equal to 1e-12 relative to the largest."""
    scale = max([abs(complex(c)) for c in want.values()] + [1.0])
    for word in got.keys() | want.keys():
        assert abs(complex(got.get(word, 0)) - complex(want.get(word, 0))) <= 1e-12 * scale, word


def test_wedge_matches_brute_force_on_random_forms():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        x = random_form(rng, d)
        y = random_form(rng, d)
        got = wedge(x, y)
        want = brute_wedge(as_words(x), as_words(y))
        assert got.is_exact() and as_words(got) == want


@pytest.mark.parametrize("backends", [(False, False), (True, False), (False, True)],
                         ids=["floatxfloat", "exactxfloat", "floatxexact"])
def test_float_and_mixed_wedges_match_brute_force(backends):
    """Float and mixed products are complex arrays that agree with the brute
    force to 1e-12; past the top degree they are PPForm.zero."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        x = random_form(rng, d, exact=backends[0])
        y = random_form(rng, d, exact=backends[1])
        got = wedge(x, y)
        clipped = x.p + y.p > d or x.q + y.q > d
        assert got.is_zero() if clipped else got.Z.dtype == complex
        assert_words_close(as_words(got), brute_wedge(as_words(x), as_words(y)))


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        x = random_form(rng, d)
        y = random_form(rng, d)
        sign = (-1) ** ((x.p + x.q) * (y.p + y.q))
        lhs = wedge(x, y)
        rhs = wedge(y, x)
        assert lhs == rhs * GaussianRational(sign)


def test_wedge_associativity():
    rng = np.random.default_rng(13)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        x, y, z = (random_form(rng, d, terms=2) for _ in range(3))
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))


# -- volume normalization --------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_volume_form_integrates_to_one(d):
    full = tuple(range(d))
    vol = PPForm.monomial(d, full, full, i_power(d * d))
    assert integrate_top(vol) == Fraction(1)
    assert vol.is_real()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_std_kahler_total_volume_is_factorial(d):
    omega = std_kahler(d)
    power = wedge_all([omega] * d, dim=d)
    assert integrate_top(power) == math.factorial(d)


def test_integrate_top_rejects_wrong_degree_and_complex_values():
    with pytest.raises(DegreeError):
        integrate_top(std_kahler(2))
    full = (0, 1, 2)
    crooked = PPForm.monomial(3, full, full, GaussianRational(1))  # missing i^9
    with pytest.raises(ConfigError, match="^the form is not real: its integral has imaginary "):
        integrate_top(crooked)
    assert integrate_top(crooked * i_power(9)) == 1


def test_exact_values_beyond_float_range_stay_exact_or_are_refused():
    """An exact top form of volume 10^400 integrates exactly; a float form
    cannot take a coefficient of 10^400, and says which."""
    full = (0, 1, 2)
    huge = PPForm.monomial(3, full, full, i_power(9) * 10 ** 400)
    assert integrate_top(huge) == 10 ** 400
    with pytest.raises(ConfigError, match=r"^entry \[0, 0\] does not fit in a float"):
        PPForm(2, 1, 1, {((0,), (0,)): Fraction(10 ** 400), ((1,), (1,)): 1.0})


# -- hermitian bridge ------------------------------------------------------


def test_form_from_hermitian_round_trip_exact():
    H = [[Fraction(2), GaussianRational(1, 1)], [GaussianRational(1, -1), Fraction(5)]]
    form = form_from_hermitian(H)
    assert form.is_real()
    assert form_from_hermitian(np.array(H, dtype=object)) == form
    as_float = form_from_hermitian(H, exact=False)
    assert as_float == form and not as_float.is_exact()
    back = hermitian_from_form(form)
    assert isinstance(back, ExactArray)
    assert back[0][0] == 2 and back[1][1] == 5
    assert back[0][1] == GaussianRational(1, 1)
    assert back[1][0] == GaussianRational(1, -1)
    # an exact matrix off Hermitian symmetry makes a form that is not real
    with pytest.raises(ConfigError, match=r"^i H is not a real form: .* at I = \[1\], J = \[2\]$"):
        form_from_hermitian([[Fraction(2), GaussianRational(1, 1)], [GaussianRational(1, 1), 5]])


def test_std_kahler_is_identity_matrix():
    got = hermitian_from_form(std_kahler(3))
    for j in range(3):
        for k in range(3):
            assert got[j][k] == (1 if j == k else 0)


def test_positivity_check_on_kahler_powers():
    for d in (2, 3):
        omega = std_kahler(d)
        power = wedge_all([omega] * (d - 1), dim=d)
        verdict = positivity_dminus1(power)
        assert verdict.outcome == "pass"
        assert verdict.signature == (d, 0, 0)


def test_positivity_check_flags_indefinite_form():
    for scale in (1, 10 ** 400):  # the float witness saturates beyond float range
        H = [[Fraction(scale), 0], [0, Fraction(-1)]]
        form = form_from_hermitian(H)  # (1,1) on C^2, d-1 = 1
        verdict = positivity_dminus1(form)
        assert verdict.outcome == "fail"
        assert verdict.signature == (1, 0, 1)
        assert "pairing_matrix" in verdict.witness


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_positivity_reads_the_wedge_pairing(monkeypatch, d, exact):
    """The matrix positivity_dminus1 classifies is int(form ^ i dz_j ^ dzbar_k),
    entry for entry, for random real (d-1,d-1)-forms."""
    seen = []
    original = exterior.inertia

    def recording(M, zero_tol):
        seen.append(M)
        return original(M, zero_tol)

    monkeypatch.setattr(exterior, "inertia", recording)
    rng = np.random.default_rng(d)
    unit = GaussianRational(0, 1) if exact else 1j
    subsets = list(itertools.combinations(range(d), d - 1))
    for _ in range(3):
        raw = PPForm(d, d - 1, d - 1, {
            (I, J): (GaussianRational(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                     if exact else complex(rng.standard_normal(), rng.standard_normal()))
            for I in subsets for J in subsets
        })
        form = raw + raw.conj()
        positivity_dminus1(form)
        # the integrals, complex off the diagonal: the one coefficient times the volume unit
        want = [[wedge(form, PPForm.monomial(d, (j,), (k,), unit)).Z.item(0, 0)
                 * exterior._volume_unit(d, exact) for k in range(d)] for j in range(d)]
        assert seen.pop().tolist() == want


# -- hat extension ---------------------------------------------------------


def test_kahler_plus_square_zero_form_splits_powers():
    """(omega + theta)^2 = omega^2 + 2 omega theta on C^3 when theta^2 = 0."""
    omega = PPForm(3, 1, 1, {((j,), (j,)): GaussianRational(0, 1) for j in range(2)})
    theta = PPForm.monomial(3, (2,), (2,), GaussianRational(0, 1))  # i dz_3 dzbar_3
    hat = omega + theta
    assert hat == std_kahler(3)
    assert wedge(theta, theta).is_zero()
    expect = wedge(omega, omega) + wedge(omega, theta) * GaussianRational(2)
    assert wedge(hat, hat) == expect


# -- serialization ---------------------------------------------------------


def test_json_round_trip_exact():
    rng = np.random.default_rng(19)
    for _ in range(10):
        f = random_form(rng, 3)
        assert form_from_json(form_to_json(f)) == f


def test_json_round_trip_float():
    rng = np.random.default_rng(23)
    f = random_form(rng, 3, exact=False)
    g = form_from_json(form_to_json(f))
    assert (g - f).max_abs() == 0


def test_form_dict_uses_one_based_indices():
    f = PPForm.monomial(3, (0, 2), (1, 2), GaussianRational(1, 2))
    data = form_to_dict(f)
    (entry,) = data["terms"]
    assert entry["I"] == [1, 3] and entry["J"] == [2, 3]
    assert form_from_dict(data) == f


def test_bad_index_tuples_rejected():
    with pytest.raises(DegreeError):
        PPForm(3, 2, 0, {((1, 1), ()): GaussianRational(1)})
    with pytest.raises(DegreeError):
        PPForm(3, 1, 0, {((3,), ()): GaussianRational(1)})


@pytest.mark.parametrize("key", [
    ((2, 1), ()),  # not increasing
    ((0,), ()),  # wrong length for p = 2
    ((0, 1, 2), ()),  # wrong length for p = 2
    ((0, 3), ()),  # index past the dimension
    ((-1, 0), ()),  # negative index
])
def test_public_constructors_check_keys(key):
    (I, J) = key
    with pytest.raises(DegreeError):
        PPForm(3, 2, 0, {key: GaussianRational(1)})
    with pytest.raises(DegreeError):
        form_from_dict({"dim": 3, "p": 2, "q": 0, "terms": [
            {"I": [i + 1 for i in I], "J": [], "re": "1", "im": "0"}]})
    if len(I) == 2:
        with pytest.raises(DegreeError):
            PPForm.monomial(3, I, J, GaussianRational(1))


def test_internal_results_keep_valid_keys_and_drop_zeros():
    rng = np.random.default_rng(8)
    x, y = random_form(rng, 3, terms=4), random_form(rng, 3, terms=4)
    for form in (wedge(x, y), x + x, x - x, -x, x.conj(), x * 0, x * 2):
        for (I, J), c in form.coeffs.items():
            assert c != 0
            assert all(a < b for a, b in zip(I, I[1:])) and all(a < b for a, b in zip(J, J[1:]))
            assert (len(I), len(J)) == (form.p, form.q)
            assert all(0 <= i < form.dim for i in I + J)
    assert (x - x).is_zero() and (x * 0).is_zero()


# -- dense float forms -----------------------------------------------------


def dense_random_form(rng, d, p):
    """A float (p,p)-form on C^d with every coefficient random and nonzero."""
    subsets = list(itertools.combinations(range(d), p))
    return PPForm(d, p, p, {(I, J): complex(rng.standard_normal(), rng.standard_normal())
                            for I in subsets for J in subsets})


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_dense_form_product_is_wedge(d):
    """The product of two float forms with every coefficient nonzero is the
    brute-force wedge, for all bidegrees on C^d; past the top degree it is
    the zero form, its bidegree clipped."""
    rng = np.random.default_rng(40 + d)
    for p in range(d + 1):
        for q in range(d + 1):
            x, y = dense_random_form(rng, d, p), dense_random_form(rng, d, q)
            got = x * y
            if p + q > d:
                assert got.is_zero() and (got.p, got.q) == (d, d)
                assert PPForm.zero(d, p + q, p + q).Z.shape == (0, 0)  # no subsets
                continue
            assert (got.dim, got.p, got.q) == (d, p + q, p + q)
            assert got.Z.shape == (math.comb(d, p + q),) * 2
            assert_words_close(as_words(got), brute_wedge(as_words(x), as_words(y)))


def test_dense_form_round_trip_sum_and_scalar_multiple():
    rng = np.random.default_rng(45)
    x = dense_random_form(rng, 4, 2)
    y = PPForm(4, 2, 2, {((0, 1), (2, 3)): 1 + 2j, ((1, 3), (0, 1)): -0.5j})  # sparse
    assert PPForm(4, 2, 2, x.coeffs) == x and PPForm(4, 2, 2, y.coeffs) == y
    total = (x + y).coeffs
    assert total.keys() == x.coeffs.keys()
    assert all(c == x.coeffs[k] + y.coeffs.get(k, 0) for k, c in total.items())
    for half in (x * Fraction(1, 2), x * GaussianRational(Fraction(1, 2)), Fraction(1, 2) * x):
        assert half.Z.dtype == complex  # a float form times an exact scalar stays complex
        assert half == x * 0.5
    assert (x * 1j).coeffs == {k: c * 1j for k, c in x.coeffs.items()}
    one = PPForm.one(4, exact=False)
    assert (one * 3).coeffs == {((), ()): 3 + 0j}
    assert (x - x).is_zero() and PPForm.zero(4, 1, 1).is_zero()
    with pytest.raises(DegreeError):
        x + one


def test_exact_forms_meeting_float_ones_are_complex():
    """Exact + float, exact ^ float and an exact form times a complex
    scalar are complex arrays; exact ones stay ExactArrays."""
    omega, flt = std_kahler(3), std_kahler(3, exact=False)
    for form in (omega + flt, flt + omega, wedge(omega, flt), wedge(flt, omega),
                 omega * 0.5j, 0.5j * omega, omega * 2.0):
        assert not form.is_exact() and form.Z.dtype == complex
    assert omega + flt == flt * 2 and wedge(omega, flt) == wedge(flt, flt)
    for form in (omega + omega, wedge(omega, omega), omega * Fraction(1, 3), omega * 2):
        assert isinstance(form.Z, ExactArray)


def test_dense_sum_of_an_empty_form_and_a_float_form_is_complex():
    # a form with no coefficients is exact zeros; the sum reads it in complex
    zero = PPForm.zero(3, 1, 1)
    omega = std_kahler(3, exact=False)
    assert zero.is_exact()
    for total in (zero + omega, omega + zero):
        assert total.Z.dtype == complex
        assert total == omega


def test_a_form_too_large_to_store_is_refused():
    """The keyed constructor refuses a form of more than MAX_FORM_ENTRIES
    coefficients before it allocates them."""
    with pytest.raises(DegreeError, match="coefficients, above"):
        PPForm(30, 15, 15)
    with pytest.raises(DegreeError):
        form_from_dict({"dim": 20, "p": 10, "q": 10, "terms": []})
    with pytest.raises(DegreeError):
        PPForm(3, -1, 0)
