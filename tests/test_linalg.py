"""The integer (fraction-free) exact routines against the Fraction reference."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_linalg as reference
from hrpairs.hrcheck import signature
from hrpairs.linalg import (
    inertia,
    rational_inertia,
    rational_nullspace,
    rational_rref,
    rational_solve,
)
from hrpairs.scalars import GaussianRational

ZERO = Fraction(0)

# exact scalars of every scale the program meets
SCALARS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(-4, 4, max_denominator=9),
    # many distinct denominators of up to 8 digits, as rationalized float input
    st.floats(-50, 50).map(lambda x: Fraction(x).limit_denominator(10 ** 8)),
    # dyadic: the exact binary value of a float
    st.floats(-1e6, 1e6).map(Fraction),
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


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(Q=hermitian_matrices(hermitian=False))
def test_symmetric_inertia_matches_the_fraction_routine(Q):
    assert rational_inertia(Q) == reference.rational_inertia(Q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(H=hermitian_matrices(hermitian=True))
def test_hermitian_inertia_matches_the_fraction_routine(H):
    assert rational_inertia(H) == reference.rational_inertia(H)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system=linear_systems())
def test_rref_solve_and_nullspace_match_the_fraction_routines(system):
    M, b = system
    rref, pivots = rational_rref(M)
    assert (rref, pivots) == reference.rational_rref(M) and all_fractions(rref)
    null = rational_nullspace(M)
    assert null == reference.rational_nullspace(M) and all_fractions(null)
    x = rational_solve(M, b)
    assert x == reference.rational_solve(M, b)
    if x is not None:
        assert all_fractions([x])
        assert [sum((a * v for a, v in zip(row, x)), ZERO) for row in M] == b


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


def test_exact_routines_name_the_shape_of_a_malformed_matrix():
    with pytest.raises(ValueError, match="3 entries for a 2x2 matrix"):
        rational_solve([[1, 0], [0, 1]], [1, 2, 3])
    with pytest.raises(ValueError, match="1 entries for a 2x2 matrix"):
        rational_solve([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError, match="1x2, not square"):
        signature([[1, 2]])
    with pytest.raises(ValueError, match=r"row lengths \[2, 1\]"):
        signature([[1, 2], [2]])
    with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
        inertia(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="1x2, not square"):
        rational_inertia([[1, 2]])
    with pytest.raises(ValueError, match=r"row lengths \[2, 1\]"):
        rational_rref([[1, 2], [3]])
    with pytest.raises(ValueError, match=r"row lengths \[1, 2\]"):
        rational_solve([[1], [2, 3]], [1, 2])

