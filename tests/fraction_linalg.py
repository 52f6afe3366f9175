"""Fraction-elimination reference for the integer routines of hrpairs.linalg.

These are the exact routines hrpairs used before its fraction-free
elimination: every update is a Fraction operation, so nothing here shares
code with the routines under test.  tests/test_linalg.py asks both for equal
outputs.
"""

from fractions import Fraction

from hrpairs.scalars import GaussianRational, conj, imag_part, real_part


def rational_inertia(Q):
    """Inertia (positive, zero, negative) of an exact symmetric or Hermitian matrix.

    Repeatedly splits off 1x1 pivots by Schur complement; when every active
    diagonal entry vanishes but some off-diagonal entry a = A[i][j] does not,
    the congruence b_i -> b_i + a b_j manufactures the pivot 2|a|^2.
    """
    n = len(Q)
    if any(imag_part(x) != 0 for row in Q for x in row):
        A = [[GaussianRational(real_part(x), imag_part(x)) for x in row] for row in Q]
    else:
        A = [[Fraction(real_part(x)) for x in row] for row in Q]
    for i in range(n):
        for j in range(i, n):
            if A[i][j] != conj(A[j][i]):
                raise ValueError("matrix is not symmetric or Hermitian")
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        piv = next((k for k in active if A[k][k] != 0), None)
        if piv is None:
            pair = None
            for a, i in enumerate(active):
                for j in active[a + 1:]:
                    if A[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            c = A[i][j]
            for k in range(n):
                A[i][k] = A[i][k] + c * A[j][k]
            c = conj(c)
            for k in range(n):
                A[k][i] = A[k][i] + A[k][j] * c
            piv = i
        d = real_part(A[piv][piv])
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        row = A[piv]
        for i in active:
            if A[i][piv] == 0:
                continue
            f = A[i][piv] / d
            for j in active:
                A[i][j] -= f * row[j]
    return pos, zero, neg


def rational_rref(M):
    """Row-reduce a rational matrix; returns (rref, pivot_columns)."""
    A = [[Fraction(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        d = A[r][c]
        A[r] = [x / d for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def rational_nullspace(M):
    """Basis of the right nullspace of a rational matrix."""
    if not M:
        return []
    cols = len(M[0])
    A, pivots = rational_rref(M)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -A[r][fc]
        basis.append(v)
    return basis


def rational_solve(M, b):
    """Solve M x = b exactly; returns None when no solution exists."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    aug = [[Fraction(x) for x in M[i]] + [Fraction(b[i])] for i in range(rows)]
    A, pivots = rational_rref(aug)
    for row in A:
        if all(x == 0 for x in row[:cols]) and row[cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None
        x[pc] = A[r][cols]
    return x
