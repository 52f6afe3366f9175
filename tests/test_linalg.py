"""The integer (fraction-free) exact routines against the Fraction reference.

Every property feeds the routines each input form they accept: lists of
rows of exact numbers, and ExactArrays, whose rows share one denominator.
"""

import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_linalg as reference
from hrpairs.errors import ConfigError
from hrpairs.exterior import form_from_dict, wedge
from hrpairs.hrcheck import _pair_verdict, _restricted_negdef, signature
from hrpairs.linalg import (
    CERTIFY_FROM,
    _certified_inertia,
    float_signature,
    inertia,
    rational_inertia,
    rational_nullspace,
    rational_rref,
    rational_solve,
)
from hrpairs.ring import torus_ring
from hrpairs.scalars import ExactArray, GaussianRational
from hrpairs.verdict import jsonable

ZERO = Fraction(0)

# exact scalars of every scale the program meets that a float can hold
FINITE = [
    st.integers(-3, 3).map(Fraction),
    st.fractions(-4, 4, max_denominator=9),
    # many distinct denominators of up to 8 digits, as rationalized float input
    st.floats(-50, 50).map(lambda x: Fraction(x).limit_denominator(10 ** 8)),
    # dyadic: the exact binary value of a float
    st.floats(-1e6, 1e6).map(Fraction),
]
SCALARS = st.one_of(
    *FINITE,
    # beyond float range
    st.builds(lambda k, q: Fraction(k * 10 ** 400, q), st.integers(-3, 3), st.integers(1, 9)),
)
SPARSE = st.one_of(st.just(ZERO), SCALARS)
GAUSSIAN = st.builds(GaussianRational, SCALARS, SCALARS)
SHAPES = ["dense", "low rank", "hollow"]


@st.composite
def hermitian_matrices(draw, hermitian):
    """Symmetric (Hermitian) n x n matrices, n <= 6: dense, of rank r < n as
    B diag(+-1) B^*, or with zero diagonal (the congruence branch)."""
    n = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(SHAPES))
    entries = GAUSSIAN if hermitian else SCALARS
    if shape == "low rank":
        r = draw(st.integers(0, max(n - 1, 0)))
        B = [[draw(entries) for _ in range(r)] for _ in range(n)]
        signs = [draw(st.sampled_from([-1, 1])) for _ in range(r)]
        return [[sum((B[i][k] * s * B[j][k].conjugate() for k, s in enumerate(signs)), ZERO)
                 for j in range(n)] for i in range(n)]
    A = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        if shape == "dense":
            A[i][i] = draw(SCALARS)
        for j in range(i + 1, n):
            A[i][j] = draw(st.one_of(st.just(ZERO), entries))
            A[j][i] = A[i][j].conjugate()
    return A


@st.composite
def linear_systems(draw):
    """(M, b) with M m x n, m, n <= 5: consistent (b = M x), inconsistent or overdetermined."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()) and m and n:  # rank-deficient: a row repeats a multiple of another
        M = [[draw(SPARSE) for _ in range(n)] for _ in range(m - 1)]
        copy = [draw(SCALARS) * x for x in M[0]] if M else [ZERO] * n
        M.insert(draw(st.integers(0, m - 1)), copy)
    else:
        M = [[draw(SPARSE) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x = [draw(SCALARS) for _ in range(n)]
        b = [sum((a * v for a, v in zip(row, x)), ZERO) for row in M]
    else:
        b = [draw(SPARSE) for _ in range(m)]
    return M, b


@st.composite
def restarting_matrices(draw):
    """S = [[D, C], [C^T, H + C^T D^-1 C]], D diagonal, C sparse and H
    hollow: after D's k pivots the active block is H, whose diagonal is all
    0, so elimination restarts with k kept pivot rows that reach H's
    columns through C.  H is dense, or [[0, a], [a, 0]] blocks, one restart
    each."""
    k, m = draw(st.integers(0, 3)), draw(st.integers(1, 5))
    D = [draw(SCALARS.filter(bool)) for _ in range(k)]
    C = [[draw(SPARSE) for _ in range(m)] for _ in range(k)]
    H = [[ZERO] * m for _ in range(m)]
    blocks = draw(st.booleans())
    for i in range(m):
        for j in range(i + 1, m):
            if not blocks or (i % 2 == 0 and j == i + 1):
                H[i][j] = H[j][i] = draw(SPARSE)
    corner = [[H[i][j] + sum((C[r][i] * C[r][j] / D[r] for r in range(k)), ZERO)
               for j in range(m)] for i in range(m)]
    top = [[D[i] if i == j else ZERO for j in range(k)] + C[i] for i in range(k)]
    return top + [[C[r][i] for r in range(k)] + corner[i] for i in range(m)]


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def solution_fractions(x):
    """A solver's result as the Fractions of its entries (None stays None),
    after checking that it is a real ExactArray vector over a positive
    denominator."""
    if x is None:
        return None
    assert isinstance(x, ExactArray) and len(x.shape) == 1
    assert x.den > 0 and not x.im.any()
    return x.fractions()


def input_forms(M):
    """M as a list of rows and as an ExactArray of the same shape."""
    rows = len(M)
    shape = (rows, len(M[0]) if rows else 0)
    return M, ExactArray.of(np.asarray(M, dtype=object).reshape(shape))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(Q=hermitian_matrices(hermitian=False))
def test_symmetric_inertia_matches_the_fraction_routine(Q):
    want = reference.rational_inertia(Q)
    assert [rational_inertia(A) for A in input_forms(Q)] == [want, want]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(H=hermitian_matrices(hermitian=True))
def test_hermitian_inertia_matches_the_fraction_routine(H):
    want = reference.rational_inertia(H)
    assert [rational_inertia(A) for A in input_forms(H)] == [want, want]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system=linear_systems())
def test_rref_solve_and_nullspace_match_the_fraction_routines(system):
    M, b = system
    want_rref = reference.rational_rref(M)
    want_null = reference.rational_nullspace(M)
    want_x = reference.rational_solve(M, b)
    for A, rhs in zip(input_forms(M), (b, ExactArray.of(b))):
        rref, pivots = rational_rref(A)
        assert (rref, pivots) == want_rref and all_fractions(rref)
        null = rational_nullspace(A)
        assert null == want_null and all_fractions(null)
        x = solution_fractions(rational_solve(A, rhs))
        assert x == want_x
        if x is not None:
            assert [sum((a * v for a, v in zip(row, x)), ZERO) for row in M] == b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(Q=st.one_of(hermitian_matrices(hermitian=False), restarting_matrices()), data=st.data())
def test_inertia_with_a_right_hand_side_matches_the_fraction_routines(Q, data):
    """One elimination gives the oracle's inertia and, when Q is
    nonsingular, its solution of Q x = f; a singular Q reports no solution,
    even where Q x = f has one."""
    f = data.draw(st.lists(SPARSE, min_size=len(Q), max_size=len(Q)))
    want = reference.rational_inertia(Q)
    x = reference.rational_solve(Q, f) if want[1] == 0 else None
    for A, rhs in zip(input_forms(Q), (f, ExactArray.of(f))):
        got, y = rational_inertia(A, rhs)
        assert got == want and solution_fractions(y) == x


def delv_gram(eps):
    """Q and the functional of the DELV pair (h^3, eta + eps h^2) on torus_ring(4)."""
    data = json.loads(resources.files("hrpairs").joinpath("fixtures/delv.json").read_text())
    forms = {k: form_from_dict(v) for k, v in data["forms"].items()}
    model = torus_ring(4)
    h = model.from_form(forms["theta1"] + forms["theta2"])
    eta = model.from_form(wedge(forms["theta1"], forms["theta2"]))
    P = model.pairing_matrix(1)
    return P @ model.multiplication_matrix(eta + eps * h * h), P @ (h ** 3).coeffs


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 3), Fraction(29, 2)])
def test_inertia_with_a_right_hand_side_on_the_delv_gram_matrix(eps):
    """The DELV Q has zeros on its diagonal, and its elimination restarts
    after eight (eps = 0, singular) or twelve kept pivots."""
    Q, f = delv_gram(eps)
    assert not Q.re.diagonal().all()
    rows, fs = Q.fractions(), f.fractions()
    want = reference.rational_inertia(rows)
    sig, x = rational_inertia(Q, f)
    assert sig == want == rational_inertia(Q)
    assert solution_fractions(x) == (reference.rational_solve(rows, fs) if eps else None)
    assert (sig[1] == 0) == bool(eps)


@pytest.mark.parametrize("Q", [
    [[0, 0, 1, -2], [0, 0, 1, 0], [1, 1, 0, 0], [-2, 0, 0, 0]],
    [[0, 0, 2, -1], [0, 0, 1, 0], [2, 1, 0, -1], [-1, 0, -1, 0]],
])
def test_two_restarts_are_undone_last_first(Q):
    """The second restart pivots on the unknown j of the first one's
    substitution x_j += u y_i: undone first to last, the substitutions
    give a wrong x."""
    f = [1, 2, 3, 4]
    sig, x = rational_inertia(Q, f)
    assert (sig, solution_fractions(x)) == (reference.rational_inertia(Q),
                                            reference.rational_solve(Q, f))


BLOCKS = st.sampled_from(["isolated", "zero", "hollow", "dense"])
# block scales: every block's rows over their own denominators, so row gcds differ
BLOCK_SCALES = st.one_of(st.sampled_from([Fraction(1), Fraction(3, 7), Fraction(-10 ** 6, 11)]),
                         *FINITE).filter(bool)


@st.composite
def permuted_blocks(draw):
    """P (B_1 (+) ... (+) B_b) P^T, fewer than CERTIFY_FROM rows, P a random
    permutation: isolated nonzero diagonal entries, zero rows, hollow
    blocks (zero diagonal: they force restarts) and dense symmetric blocks
    of up to 4 rows, each block times its own rational scale, so that
    rows over distinct denominators have gcds of unequal ratio."""
    Q = []
    for kind in draw(st.lists(BLOCKS, max_size=6)):
        k = 1 if kind in ("isolated", "zero") else draw(st.integers(1 + (kind == "hollow"), 4))
        if len(Q) + k >= CERTIFY_FROM:
            break
        scale = draw(BLOCK_SCALES)
        B = [[ZERO] * k for _ in range(k)]
        for i in range(k):
            if kind == "isolated":
                B[i][i] = draw(SCALARS.filter(bool))
            elif kind == "dense":
                B[i][i] = draw(SPARSE)
            for j in range(i + 1, k):
                B[i][j] = B[j][i] = draw(SPARSE)
        Q = ([row + [ZERO] * k for row in Q]
             + [[ZERO] * len(Q) + [scale * x for x in row] for row in B])
    perm = draw(st.permutations(range(len(Q))))
    return [[Q[i][j] for j in perm] for i in perm]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(Q=permuted_blocks(), data=st.data())
def test_upper_triangle_elimination_matches_the_fraction_routines(Q, data):
    """The elimination on the upper triangle, with isolated pivots dropped
    free and restarts on hollow blocks, gives the oracle's inertia with and
    without a right-hand side, and its solution when Q is nonsingular.  The
    matrices are below CERTIFY_FROM rows, so the elimination decides every
    inertia."""
    f = data.draw(st.lists(SPARSE, min_size=len(Q), max_size=len(Q)))
    want = reference.rational_inertia(Q)
    x = reference.rational_solve(Q, f) if want[1] == 0 else None
    for A, rhs in zip(input_forms(Q), (f, ExactArray.of(f))):
        assert rational_inertia(A) == want
        got, y = rational_inertia(A, rhs)
        assert got == want and solution_fractions(y) == x


def test_a_right_hand_side_needs_a_real_symmetric_matrix():
    with pytest.raises(ConfigError, match="real symmetric"):
        rational_inertia([[1, GaussianRational(0, 1)], [GaussianRational(0, -1), 1]], [1, 2])
    with pytest.raises(ConfigError, match="3 entries for a 2x2 matrix"):
        rational_inertia([[1, 0], [0, 1]], [1, 2, 3])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(Q=hermitian_matrices(hermitian=False), data=st.data(),
       scale=st.sampled_from([Fraction(1, 3), Fraction(-5, 7), Fraction(10 ** 40, 11)]))
def test_bordered_inertia_from_the_numerators_matches_the_fraction_routine(Q, data, scale):
    """_restricted_negdef builds [[Q, f], [f^T, 0]] from the integer parts of
    Q and of f, over different denominators; its inertia is the oracle's of
    the bordered Fraction matrix."""
    f = [scale * x for x in data.draw(st.lists(SPARSE, min_size=len(Q), max_size=len(Q)))]
    border = [[*row, x] for row, x in zip(Q, f)] + [[*f, ZERO]]
    pos, zero, neg = _restricted_negdef(input_forms(Q)[1], ExactArray.of(f), None)
    assert (pos + 1, zero, neg + 1) == reference.rational_inertia(border)


# -- the exact pair verdict --------------------------------------------------


def dot(x, y):
    return sum((a * b for a, b in zip(x, y)), ZERO)


def reference_pair_values(Q, f, h):
    """The exact values of a pair verdict on the Gram matrix Q, the
    functional f and h, from the Fraction routines alone."""
    values = {"inertia": reference.rational_inertia(Q), "pairing_with_h": dot(h, f),
              "h_pairing": dot(h, [dot(row, h) for row in Q])}
    if values["inertia"][1] == 0:
        q = values["quotient"] = reference.rational_solve(Q, f)
        values["quotient_square_value"] = dot(q, [dot(row, q) for row in Q])
    pos, zero, neg = reference.rational_inertia([[*row, x] for row, x in zip(Q, f)] + [[*f, ZERO]])
    values["restricted_signature"] = (pos - 1, zero, neg - 1)
    return values


@st.composite
def congruent_diagonals(draw):
    """B diag(+-1) B^T, B n x n with small entries: mostly nonsingular."""
    n = draw(st.integers(1, 6))
    return congruent_diagonal(draw, n, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(Q=st.one_of(hermitian_matrices(hermitian=False), congruent_diagonals()), data=st.data())
def test_exact_pair_verdict_matches_the_fraction_reference(Q, data):
    """_pair_verdict on (Q, M, top, f, h) with M = Q over one more row r and
    top = f over t, so that P M = Q and P top = f for P = [I | 0]: its exact
    values are the reference's, and the division fails, degenerate with its
    witness, exactly when r . q != t for the quotient q = Q^-1 f."""
    n = len(Q)
    assume(n > 0)
    f, h, r = (data.draw(st.lists(SPARSE, min_size=n, max_size=n)) for _ in range(3))
    want = reference_pair_values(Q, f, h)
    q = want.get("quotient")
    t = dot(r, q) if q is not None and data.draw(st.booleans()) else data.draw(SPARSE)
    exact = [ExactArray.of(np.asarray(x, dtype=object)) for x in (Q, Q + [r], f + [t], f, h)]
    verdict = _pair_verdict(*exact, None)
    got = verdict.details
    assert tuple(verdict.signature) == want["inertia"]
    assert got["pairing_with_h"] == jsonable(want["pairing_with_h"])
    if q is None:
        assert verdict.outcome == "degenerate" and "quotient" not in got
        return
    assert got["hr_property"]["details"]["h_pairing"] == jsonable(want["h_pairing"])
    if dot(r, q) != t:
        assert verdict.outcome == "degenerate"
        assert verdict.witness == {"division": "multiplication by eta is singular on "
                                   "degree-1 classes", "kernel_vector": None}
        return
    assert got["quotient"] == jsonable(q)
    assert got["quotient_square_value"] == jsonable(want["quotient_square_value"])
    if want["pairing_with_h"] > 0:
        rsig = got["kernel_characterization"]["restricted_signature"]
        assert rsig == want["restricted_signature"]


def test_exact_pair_verdict_refuses_a_non_symmetric_gram_matrix():
    Q, f = ExactArray.of([[1, 2], [3, 1]]), ExactArray.of([1, 0])
    with pytest.raises(ConfigError, match="not symmetric"):
        _pair_verdict(Q, Q, f, f, f, None)


# -- the float certificate ---------------------------------------------------

SMALL = st.integers(-5, 5).map(Fraction)
SIGNS = st.sampled_from([-1, 1])
FACTORS = st.one_of(SMALL, *FINITE)
FLOATABLE = st.one_of(st.just(ZERO), *FINITE)
KINDS = st.sampled_from(["singular", "singular", "singular", "near singular", "spread",
                         "beyond float range", "underflowing", "dense"])
SIZES = st.integers(1, 20)
SINGULAR_SIZES = st.one_of(st.just(2), SIZES)
EXPONENTS = st.integers(-12, 12)
# kinds of matrix the certificate must abstain on, whatever it finds
MUST_ABSTAIN = {"singular", "beyond float range", "underflowing"}


def congruent_diagonal(draw, n, r, entries=SMALL):
    """B diag(+-1) B^T for B an n x r matrix of the given entries: rank r or less."""
    B = [[draw(entries) for _ in range(r)] for _ in range(n)]
    signs = [draw(SIGNS) for _ in range(r)]
    return [[sum((B[i][k] * s * B[j][k] for k, s in enumerate(signs)), ZERO)
             for j in range(n)] for i in range(n)]


@st.composite
def certificate_matrices(draw):
    """(S, kind), S symmetric n x n, 1 <= n <= 20: exactly singular ones
    (rank below n, most often n - 1), near-singular ones (those plus
    +-10^-k on the diagonal, k in 10..20), entries spread over
    10^-12..10^12, one pair of entries beyond float range or one that
    underflows, and dense ones of scalars a float can hold, or 0.  Singular
    matrices are drawn most often, half of them 2 x 2: there a rounding
    error in the one null direction of V^T S V outweighs the one other entry
    of its row about once in six draws, so they catch a certificate whose
    radii leave out the rounding bound."""
    kind = draw(KINDS)
    n = draw(SINGULAR_SIZES if kind == "singular" else SIZES)
    if kind in ("singular", "near singular"):
        r = draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
        S = congruent_diagonal(draw, n, r, FACTORS if n <= 4 else SMALL)
        if kind == "near singular":
            for i in range(n):
                S[i][i] += draw(SIGNS) * Fraction(1, 10 ** draw(st.integers(10, 20)))
        return S, kind
    S = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = draw(FLOATABLE if kind == "dense" else SMALL)
            if kind == "spread":
                x *= Fraction(10) ** draw(EXPONENTS)
            S[i][j] = S[j][i] = x
    if kind in ("beyond float range", "underflowing"):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        S[i][j] = S[j][i] = draw(SIGNS) * Fraction(10) ** (400 if kind[0] == "b" else -400)
    return S, kind


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=st.one_of(certificate_matrices(),
                      hermitian_matrices(hermitian=False).map(lambda S: (S, "symmetric")),
                      restarting_matrices().map(lambda S: (S, "restarting"))))
def test_certificate_never_disagrees_with_the_fraction_routine(case):
    """_certified_inertia, called directly at every size so that the
    CERTIFY_FROM gate hides nothing, abstains or gives the oracle's inertia;
    it abstains on every singular matrix and on entries a float cannot
    hold."""
    S, kind = case
    A = input_forms(S)[1]
    got = _certified_inertia(A.re, A.den)
    if kind in MUST_ABSTAIN:
        assert got is None
    elif got is not None:
        assert got == reference.rational_inertia(S)


def test_certificate_decides_well_conditioned_matrices():
    """The property above would hold for a routine that always abstained: on
    random small-integer matrices of every size the certificate decides."""
    rng = np.random.default_rng(11)
    for n in range(1, 21):
        A = rng.integers(-9, 10, size=(n, n))
        S = (A + A.T).astype(object)
        assert _certified_inertia(S) == reference.rational_inertia(S.tolist())


@pytest.mark.parametrize("eps", [Fraction(1, 10 ** 9), Fraction(1, 10 ** 12)])
def test_certificate_decides_the_delv_family(eps):
    """Six eigenvalues of the DELV Gram matrix are of the order of eps; the
    certificate still decides them, as float eigenvalues with a tolerance
    do not."""
    Q, _ = delv_gram(eps)
    assert _certified_inertia(Q.re, Q.den) == (1, 0, 15) == rational_inertia(Q)


def test_certificate_abstains_at_the_delv_limit():
    Q, _ = delv_gram(Fraction(0))
    assert _certified_inertia(Q.re, Q.den) is None
    assert rational_inertia(Q) == (1, 6, 9) == reference.rational_inertia(Q.fractions())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), hermitian=st.booleans())
def test_inertia_falls_back_to_elimination_where_the_certificate_abstains(data, hermitian):
    """Singular matrices at and above CERTIFY_FROM rows (Hermitian ones of
    half as many, whose real double has that many): the certificate
    abstains and the elimination decides."""
    n = data.draw(st.integers(CERTIFY_FROM, CERTIFY_FROM + 4))
    if hermitian:
        n = (n + 1) // 2
        B = [[data.draw(st.builds(GaussianRational, SMALL, SMALL)) for _ in range(n - 1)]
             for _ in range(n)]
        S = [[sum((B[i][k] * B[j][k].conjugate() for k in range(n - 1)), ZERO)
              for j in range(n)] for i in range(n)]
    else:
        S = congruent_diagonal(data.draw, n, n - 1)
    want = reference.rational_inertia(S)
    assert want[1] > 0
    assert [rational_inertia(A) for A in input_forms(S)] == [want, want]


def test_inertia_restarts_with_the_sign_of_the_last_pivot():
    """After a negative pivot the active block is a negative multiple of the
    Schur complement; a zero diagonal there must not flip the count."""
    hollow = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # eigenvalues 2, -1, -1
    Q = [[-1, 0, 0, 0]] + [[0, *row] for row in hollow]
    assert rational_inertia(Q) == reference.rational_inertia(Q) == (1, 0, 3)
    half = [[Fraction(x, 2) for x in row] for row in Q]
    coupled = [[-1, 1, 0, 0], [1, -1, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
    for M in (half, coupled):
        assert rational_inertia(M) == reference.rational_inertia(M)


def test_float_signature_refuses_an_eigenvalue_beyond_float_range():
    """Inf as the scale would count every eigenvalue as zero; the exact
    inertia keeps its saturated float evidence and decides."""
    with pytest.raises(ConfigError, match="exact backend"):
        float_signature(np.full((2, 2), 1e308))
    assert float_signature(np.full((2, 2), 1e307))[0] == (1, 1, 0)
    sig, eigs = inertia([[Fraction(10 ** 308)] * 2] * 2)
    assert sig == (1, 1, 0) and eigs[-1] == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 0)])
def test_float_signature_refuses_an_entry_that_is_not_finite(bad, at):
    """LAPACK may read a NaN on the diagonal as a finite matrix, and reads
    only one triangle of Q; every entry is checked."""
    Q = np.eye(2)
    Q[at] = bad
    for M in (Q, Q + 0j):
        with pytest.raises(ConfigError, match="not finite"):
            float_signature(M)
        with pytest.raises(ConfigError, match="not finite"):
            inertia(M.tolist())


def float_signature_by_eigenvalue(Q, zero_tol=1e-9):
    """The oracle of float_signature: the eigenvalues counted one at a time."""
    eigs = np.linalg.eigvalsh(np.asarray(Q))
    scale = float(np.abs(eigs).max())
    if scale == 0.0:
        return (0, len(eigs), 0), [0.0] * len(eigs)
    pos = zero = neg = 0
    for e in eigs:
        if abs(float(e)) <= zero_tol * scale:
            zero += 1
        elif e > 0:
            pos += 1
        else:
            neg += 1
    return (pos, zero, neg), [float(e) for e in eigs]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), rank=st.integers(0, 9),
       complex_=st.booleans(), zero_tol=st.sampled_from([0.0, 1e-9, 1e-3, 0.5]))
def test_float_signature_counts_as_the_per_eigenvalue_loop(seed, n, rank, complex_, zero_tol):
    """Low-rank real and Hermitian matrices, some eigenvalues near the
    threshold: the same triple and the same eigenvalue list."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, min(rank, n)))
    if complex_:
        A = A + 1j * rng.standard_normal(A.shape)
    Q = (A * rng.choice([-1.0, 1.0, 1e-9], size=A.shape[1])) @ A.conj().T
    Q = (Q + Q.conj().T) / 2
    assert float_signature(Q, zero_tol) == float_signature_by_eigenvalue(Q, zero_tol)


def test_exact_routines_name_the_shape_of_a_malformed_matrix():
    with pytest.raises(ConfigError, match="3 entries for a 2x2 matrix"):
        rational_solve([[1, 0], [0, 1]], [1, 2, 3])
    with pytest.raises(ConfigError, match="1 entries for a 2x2 matrix"):
        rational_solve([[1, 0], [0, 1]], [1])
    with pytest.raises(ConfigError, match="1x2, not square"):
        signature([[1, 2]])
    with pytest.raises(ConfigError, match=r"row lengths \[2, 1\]"):
        signature([[1, 2], [2]])
    with pytest.raises(ConfigError, match="1x2, not square"):
        inertia(np.array([[1.0, 2.0]]))
    with pytest.raises(ConfigError, match="1x2, not square"):
        rational_inertia([[1, 2]])
    with pytest.raises(ConfigError, match=r"row lengths \[2, 1\]"):
        rational_rref([[1, 2], [3]])
    with pytest.raises(ConfigError, match=r"row lengths \[1, 2\]"):
        rational_solve([[1], [2, 3]], [1, 2])

