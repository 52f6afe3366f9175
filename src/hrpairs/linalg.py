"""Small exact/float linear algebra kernel.

Exact routines work on lists of lists of Fractions (GaussianRationals for
Hermitian inertia) and use no tolerances at all; signatures come from
congruence (Schur complements preserve inertia).  Float routines delegate to
numpy; the signature takes an explicit relative zero tolerance.  inertia is
the one entry point for signatures in both backends.
"""

import math
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, conj, imag_part, real_part, to_complex, to_float


def rational_inertia(Q):
    """Inertia (positive, zero, negative) of an exact symmetric or Hermitian matrix.

    Entries are rationals or GaussianRationals.  Repeatedly splits off 1x1
    pivots by Schur complement; when every active diagonal entry vanishes but
    some off-diagonal entry a = A[i][j] does not, the congruence
    b_i -> b_i + a b_j manufactures the pivot 2|a|^2.
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


def inertia(M, zero_tol=1e-9):
    """((pos, zero, neg), eigenvalues) of a real symmetric or Hermitian matrix.

    The one inertia routine of both backends.  M is Hermitian when an entry
    is complex or a GaussianRational.  Arrays, and lists with a float or
    complex entry, go through float_signature with the relative zero_tol.
    Exact input (rationals and GaussianRationals) is classified by
    rational_inertia, with no tolerance; its float eigenvalues are evidence
    only, of a copy whose entries saturate to +-inf beyond float range (NaN
    when the copy is not finite).
    """
    if isinstance(M, np.ndarray):
        return float_signature(M, zero_tol)
    if len(M) == 0:
        return (0, 0, 0), []
    hermitian = any(isinstance(x, (complex, GaussianRational)) for row in M for x in row)
    if any(isinstance(x, (float, complex)) for row in M for x in row):
        return float_signature(np.asarray(M, dtype=complex if hermitian else float), zero_tol)
    A = np.asarray([[to_complex(x) if hermitian else to_float(x) for x in row] for row in M])
    eigs = float_signature(A)[1] if np.isfinite(A).all() else [math.nan] * len(M)
    return rational_inertia(M), eigs


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


def float_kernel_vector(Q):
    """Eigenvector of the smallest-magnitude eigenvalue, as a kernel witness."""
    A = np.asarray(Q, dtype=float)
    w, v = np.linalg.eigh(A)
    k = int(np.argmin(np.abs(w)))
    return [float(x) for x in v[:, k]]


def float_solve(M, b):
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
