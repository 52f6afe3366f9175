"""One Hermitian rule, linalg._unhermitian: inertia refuses a matrix off it
in both backends with one ConfigError naming the same entry, and the
realness of a (p,p)-form is the rule on its Hermitian matrix."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_linalg as reference
from hrpairs.errors import ConfigError
from hrpairs.exterior import PPForm, _hermitian, _subset_index, _unreal_at
from hrpairs.linalg import _matrix, _unhermitian, float_signature, inertia, rational_inertia
from hrpairs.scalars import ExactArray, GaussianRational, conj, float_array

OFF_THE_RULE = r"^matrix is not symmetric or Hermitian at entry \[{}, {}\]$"


def refusal(i, j):
    return OFF_THE_RULE.format(i, j)


def test_a_float_matrix_off_the_rule_is_refused_like_its_exact_copy():
    """The float inertia read the lower triangle alone and called this
    matrix positive definite; its exact copy was refused with a bare
    ValueError.  Both are now the same ConfigError, naming [0, 1]."""
    for M in (np.array([[1.0, 5.0], [0.0, 1.0]]), [[1.0, 5.0], [0.0, 1.0]],
              [[Fraction(1), Fraction(5)], [Fraction(0), Fraction(1)]],
              ExactArray.of([[1, 5], [0, 1]])):
        with pytest.raises(ConfigError, match=refusal(0, 1)):
            inertia(M)
    with pytest.raises(ConfigError, match=refusal(0, 1)):
        rational_inertia([[1, 5], [0, 1]])


def test_an_imaginary_diagonal_entry_is_named_in_both_backends():
    i = GaussianRational(0, 1)
    for M in ([[1, 0], [0, 2 + i]], [[1.0, 0.0], [0.0, 2.0 + 1.0j]]):
        with pytest.raises(ConfigError, match=refusal(1, 1)):
            inertia(M)


def test_a_float_matrix_asymmetric_by_1e_12_is_decided_as_before():
    """A gap of 1e-12 relative is within the rule's 1e-9: the matrix is
    decided by float_signature, which reads its lower triangle."""
    M = np.array([[2.0, 3.0, 0.5], [3.0, -1.0, 0.25], [0.5, 0.25, 4.0]])
    M[0, 1] *= 1 + 1e-12
    assert inertia(M) == float_signature(M)
    assert inertia(M)[0] == (2, 0, 1)


def test_square_and_ragged_input_is_refused_in_both_backends():
    for M in ([[1, 2]], [[1.0, 2.0]], np.ones((1, 2))):
        with pytest.raises(ConfigError, match="1x2, not square"):
            inertia(M)
    for M in ([[1, 2], [2]], [[1.0, 2.0], [2.0]]):
        with pytest.raises(ConfigError, match=r"ragged matrix: row lengths \[2, 1\]"):
            inertia(M)
    with pytest.raises(ConfigError, match="matrix is 2x2x2, not square"):
        inertia(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("M, message", [
    ([[1, [2]], [3, 4]], r"^matrix entry \[0, 1\] is not a number$"),
    ([[1, 2], [3, 4], 5], r"^matrix row \[2\] is not a sequence$"),
    ([["1", 0], [0, 1]], r"^matrix entry \[0, 0\] is not a number$"),
    ([[1.0, 0.0], [None, 1.0]], r"^matrix entry \[1, 0\] is not a number$"),
    (5, r"^matrix is not a sequence of rows$"),
    (np.array(5, dtype=object), r"^matrix is not a sequence of rows$"),
])
def test_a_row_or_entry_that_is_not_a_number_is_refused_by_name(M, message):
    """These raised numpy's ValueError, a TypeError, returned (2, 0, 0) for
    a string, called None not finite and raised two TypeErrors."""
    with pytest.raises(ConfigError, match=message):
        inertia(M)


def test_numeric_entries_keep_their_backend():
    """Python and numpy numbers are read as before the refusal: bools, ints,
    Fractions and GaussianRationals exactly, the rest as floats, complex
    when one is not real (a numpy complex entry was cast to float, its
    imaginary part dropped with a ComplexWarning)."""
    exact = [[True, 0], [Fraction(1, 2), GaussianRational(0, 1)]]
    assert isinstance(_matrix(exact), ExactArray)
    for M, dtype in (([[np.int64(1), 0], [0, 1]], float), ([[np.float32(1), 0.5], [0, 1]], float),
                     ([[1, 0], [0, np.complex128(1)]], complex), ([[1, 2.0], [3, 4]], float)):
        A = _matrix(M)
        assert isinstance(A, np.ndarray) and A.dtype == dtype


@st.composite
def perturbed_matrices(draw):
    """(M, (i, j)): a real symmetric or Hermitian n x n matrix, n = 1..6, of
    Gaussian integers in [-5, 5] times a scale over a denominator, as rows of
    exact numbers; with one off-diagonal entry M[i][j] moved by 10^-k,
    k = 3..15, in its real or imaginary part (None: not moved)."""
    n = draw(st.integers(1, 6))
    hermitian = draw(st.booleans())
    scale = Fraction(draw(st.sampled_from([1, 10 ** 3, 10 ** 8])), draw(st.integers(1, 9)))
    part = st.integers(-5, 5).map(lambda x: x * scale)
    M = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        M[a][a] = draw(part)
        for b in range(a + 1, n):
            M[a][b] = GaussianRational(draw(part), draw(part) if hermitian else 0)
            M[b][a] = M[a][b].conjugate()
    at = None
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        step = Fraction(1, 10 ** draw(st.integers(3, 15)))
        M[i][j] += GaussianRational(0, step) if hermitian and draw(st.booleans()) else step
        at = (i, j)
    return M, at


def first_gap(mask):
    """The first [i, j] of a bool mask in row order, or None."""
    hits = np.argwhere(mask)
    return hits[0].tolist() if len(hits) else None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=perturbed_matrices())
def test_inertia_refuses_exactly_off_the_rule_in_both_backends(case):
    """Exact: refused iff an entry differs from the conjugate of its mirror.
    Float (the correctly rounded copy): refused iff a gap is beyond 1e-9
    max(1, max |M|).  A refusal names the first such entry, the same one in
    both backends; an accepted matrix gets the triple of the Fraction
    routine or of float_signature, as before the rule."""
    M, at = case
    n = len(M)
    exact_gap = first_gap([[M[i][j] != conj(M[j][i])
                            for j in range(n)] for i in range(n)])
    F = float_array(np.array(M, dtype=object), complex)
    if not F.imag.any():
        F = F.real.copy()
    float_gap = first_gap(np.abs(F - F.conj().T) > 1e-9 * max(1.0, np.abs(F).max()))
    assert exact_gap == (None if at is None else sorted(at))
    assert float_gap in (None, exact_gap)

    if exact_gap is None:
        want = reference.rational_inertia(M)
        assert inertia(M)[0] == want and rational_inertia(M) == want
    else:
        for call in (lambda: inertia(M), lambda: rational_inertia(M)):
            with pytest.raises(ConfigError, match=refusal(*exact_gap)):
                call()
    if float_gap is None:
        assert inertia(F) == float_signature(F)
    else:
        with pytest.raises(ConfigError, match=refusal(*float_gap)):
            inertia(F)


def unreal_formula(Z, p, tol):
    """The realness rule of a (p,p)-form as exterior._unreal wrote it before
    exterior read linalg's Hermitian rule: the gaps of Z[i, j] against
    (-1)^(p^2) conj(Z[j, i]), nonzero ones for exact Z, and those beyond
    tol * max(max |Z|, 1) for float Z."""
    mirror = Z.conj().T
    gap = Z + mirror if p % 2 else Z - mirror
    if isinstance(gap, ExactArray):
        return (gap.re != 0) | (gap.im != 0)
    return ~(np.abs(gap) <= tol * np.abs(Z).max(initial=1.0))


def random_pp_form(rng, d, p, exact, k):
    """A (p,p)-form on C^d: i^(p^2) H for a Hermitian H, so real, then one
    coefficient moved by 10^-k times a random unit (exact: by (1 + i) / 10^k)
    unless k is None; float coefficients span a random decade."""
    m = comb(d, p)
    A = rng.integers(-4, 5, size=(m, m)) + 1j * rng.integers(-4, 5, size=(m, m))
    H = A + A.conj().T
    unit = [1, 1j, -1, -1j][p * p % 4]
    if exact:
        rows = [[GaussianRational(int(z.real), int(z.imag)) * GaussianRational(
            int(unit.real), int(unit.imag)) for z in row] for row in H]
        Z = ExactArray.of(rows)
        if k is not None:
            a, b = (int(x) for x in rng.integers(m, size=2))
            step = Fraction(1, 10 ** k)
            Z = Z + ExactArray.of([[GaussianRational(step, step) if (r, c) == (a, b) else 0
                                    for c in range(m)] for r in range(m)])
        return PPForm._of(d, p, p, Z)
    Z = unit * H * 10.0 ** rng.integers(-3, 7)
    if k is not None:
        a, b = rng.integers(m, size=2)
        Z[a, b] += 10.0 ** -k * max(1.0, np.abs(Z).max()) * np.exp(2j * np.pi * rng.random())
    return PPForm._of(d, p, p, Z)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.integers(0, 3), extra=st.integers(0, 2), exact=st.booleans(),
       k=st.one_of(st.none(), st.integers(3, 15)), seed=st.integers(0, 2 ** 32 - 1))
def test_realness_is_the_hermitian_rule_on_the_form_matrix(p, extra, exact, k, seed):
    """On random (p,p)-forms, p = 0..3, real or with one coefficient moved,
    the Hermitian rule on _hermitian(Z, p), is_real and _unreal_at decide as
    the former exterior._unreal formula on Z, mask for mask."""
    rng = np.random.default_rng(seed)
    d = max(p, 1) + extra
    form = random_pp_form(rng, d, p, exact, k)
    for tol in (0.0, 1e-9):
        want = unreal_formula(form.Z, p, tol)
        assert np.array_equal(_unhermitian(_hermitian(form.Z, p), tol), want)
        assert form.is_real(tol) == (not want.any())
    hits = np.argwhere(unreal_formula(form.Z, p, 1e-9))
    subsets = list(_subset_index(d, p))
    want_at = (subsets[hits[0][0]], subsets[hits[0][1]]) if len(hits) else None
    assert _unreal_at(form) == want_at

