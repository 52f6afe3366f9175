"""Small exact/float linear algebra kernel.

Exact routines work on lists of lists of Fractions and use no tolerances at
all; signatures come from congruence (Schur complements preserve inertia).
Float routines delegate to numpy and take an explicit relative zero
tolerance.
"""

from fractions import Fraction

import numpy as np


def _copy_rational(M):
    return [[Fraction(x) for x in row] for row in M]


def rational_inertia(Q):
    """Inertia (positive, zero, negative) of a symmetric rational matrix.

    Repeatedly splits off 1x1 pivots by Schur complement; when every active
    diagonal entry vanishes but some off-diagonal entry A[i][j] does not, the
    congruence b_i -> b_i + b_j manufactures the pivot 2*A[i][j].
    """
    n = len(Q)
    A = _copy_rational(Q)
    for i in range(n):
        for j in range(n):
            if A[i][j] != A[j][i]:
                raise ValueError("matrix is not symmetric")
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
            for k in range(n):
                A[i][k] = A[i][k] + A[j][k]
            for k in range(n):
                A[k][i] = A[k][i] + A[k][j]
            piv = i
        d = A[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        col = [A[k][piv] for k in range(n)]
        for i in active:
            if col[i] == 0:
                continue
            f = col[i] / d
            for j in active:
                A[i][j] -= f * col[j]
    return pos, zero, neg


def det(rows, one):
    """Determinant of a square matrix by cofactor expansion, memoized on minors.

    Entries need only +, -, * and comparison with 0, so rationals, Gaussian
    rationals, complex numbers and SymPoly polynomials all work; one is the
    unit of the entry ring and the determinant of the empty matrix.
    """
    n = len(rows)
    memo = {(): one}

    def minor(cols):
        # determinant of the last len(cols) rows restricted to cols
        if cols not in memo:
            r = n - len(cols)
            acc = one - one
            for pos, c in enumerate(cols):
                entry = rows[r][c]
                if entry == 0:
                    continue
                term = entry * minor(cols[:pos] + cols[pos + 1:])
                acc = acc - term if pos % 2 else acc + term
            memo[cols] = acc
        return memo[cols]

    return minor(tuple(range(n)))


def rational_rref(M):
    """Row-reduce a rational matrix in place; returns (rref, pivot_columns)."""
    A = _copy_rational(M)
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


def hermitian_realification(H):
    """Symmetric rational 2n x 2n matrix [[A, -B], [B, A]] for H = A + iB.

    Each eigenvalue of the Hermitian H shows up twice, so inertia halves.
    Entries of H are GaussianRational (or plain rationals).
    """
    from .scalars import imag_part, real_part

    n = len(H)
    R = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a = Fraction(real_part(H[i][j]))
            b = Fraction(imag_part(H[i][j]))
            R[i][j] = a
            R[n + i][n + j] = a
            R[i][n + j] = -b
            R[n + i][j] = b
    return R


def hermitian_rational_inertia(H):
    p, z, n = rational_inertia(hermitian_realification(H))
    assert p % 2 == 0 and z % 2 == 0 and n % 2 == 0
    return p // 2, z // 2, n // 2


def float_signature(Q, zero_tol=1e-9):
    """Eigenvalue-based inertia of a float symmetric/Hermitian matrix.

    An eigenvalue counts as zero when |l| <= zero_tol * max|l|.  Returns
    ((pos, zero, neg), eigenvalues sorted ascending).
    """
    A = np.asarray(Q)
    if A.size == 0:
        return (0, 0, 0), []
    eigs = np.linalg.eigvalsh(A)
    scale = max(abs(float(e)) for e in eigs)
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


def float_kernel_vector(Q, zero_tol=1e-9):
    """Eigenvector of the smallest-magnitude eigenvalue, as a kernel witness."""
    A = np.asarray(Q, dtype=float)
    w, v = np.linalg.eigh(A)
    k = int(np.argmin(np.abs(w)))
    return [float(x) for x in v[:, k]]


def float_solve(M, b, zero_tol=1e-9):
    """Solve M x = b in floats; returns None when M is numerically singular."""
    A = np.asarray(M, dtype=float)
    rhs = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1]:
        x, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        if rank < A.shape[1]:
            return None
    else:
        try:
            x = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return None
    scale = np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(rhs)
    if scale > 0 and np.linalg.norm(A @ x - rhs) > 1e-6 * scale:
        return None
    return [float(v) for v in x]
