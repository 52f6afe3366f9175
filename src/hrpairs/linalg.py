"""Small exact/float linear algebra kernel.

Exact routines take an ExactArray, or lists of rows of exact numbers, which
they convert once, and use no tolerances at all.  They eliminate in Python
ints, on the integer parts: each row is divided by the gcd of its entries,
and fraction-free (Bareiss) elimination divides every update exactly by the
previous pivot; Fractions appear again only in the results.  Float routines
delegate to numpy; the signature takes an explicit relative zero tolerance.
inertia is the one entry point for signatures in both backends.
"""

import math
from fractions import Fraction

import numpy as np

from .scalars import ExactArray, is_exact


def _shape(M):
    """(rows, cols) of a matrix given as a list of rows; ValueError if rows differ in length."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if any(len(row) != cols for row in M):
        raise ValueError(f"ragged matrix: row lengths {[len(row) for row in M]}")
    return rows, cols


def _matrix(M):
    """M as an array, converted once: a list of rows (or an object array) of
    exact numbers becomes an ExactArray, any other a float ndarray (complex
    when an entry is complex); other arrays pass through."""
    if isinstance(M, ExactArray) or (isinstance(M, np.ndarray) and M.dtype != object):
        return M
    A = np.asarray(M, dtype=object).reshape(_shape(M))
    if all(map(is_exact, A.flat)):
        return ExactArray.of(A)
    try:
        return A.astype(float)
    except TypeError:
        return A.astype(complex)


def _exact(M, real=True):
    """M as an ExactArray (lists converted once), real unless real=False;
    ValueError for float entries or a nonzero imaginary part."""
    A = _matrix(M)
    if not isinstance(A, ExactArray) or (real and A.im.any()):
        raise ValueError("an exact routine takes " + ("rationals" if real else "exact numbers"))
    return A


def _primitive_rows(A):
    """The rows of an object array of ints as lists, each divided by the gcd
    of its entries: a positive row scaling, never larger than the input."""
    return [[x // g for x in row] if (g := math.gcd(*row)) > 1 else row for row in A.tolist()]


def _symmetric_inertia(A):
    """(pos, zero, neg) of a real symmetric S, given integer rows A[i] = c_i S[i], c_i > 0.

    Fraction-free (Bareiss) elimination with diagonal pivots.  After each
    step the active block is D diag(c) S', with S' the Schur complement of S
    and D the last pivot, a principal minor of diag(c) S.  Positive row
    scalings keep the sign of every principal minor, so each pivot of S has
    the sign of D_k / D_(k-1).  When the active diagonal is all 0 but A[i][j]
    is not, elimination restarts from the block |D| diag(c) S' and the
    congruence b_i -> b_i + t b_j, t a positive multiple of S'_ij: on these
    rows it adds A[i][j] times row j to row i and A[j][i] times column j to
    column i, and makes the pivot 2 A[i][j] A[j][i] > 0.
    """
    pos = zero = neg = 0
    prev = 1
    while A:
        k = next((k for k, row in enumerate(A) if row[k]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(A)
                         for j in range(i + 1, len(A)) if row[j]), None)
            if pair is None:
                zero += len(A)
                break
            if prev < 0:
                A = [[-x for x in row] for row in A]
            prev = 1
            i, j = pair
            t, u = A[i][j], A[j][i]
            A[i] = [x + t * y for x, y in zip(A[i], A[j])]
            for row in A:
                row[i] += row[j] * u
            k = i
        top = A.pop(k)
        p = top.pop(k)
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for idx, row in enumerate(A):
            a = row.pop(k)
            A[idx] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
    return pos, zero, neg


def rational_inertia(Q):
    """Inertia (positive, zero, negative) of an exact symmetric or Hermitian matrix.

    Q is an ExactArray or a list of rows of rationals or GaussianRationals.
    A Hermitian H = R + iJ, J != 0, is decided through the real symmetric
    [[R, -J], [J, R]], whose eigenvalues are those of H, each twice.  The
    rows of the integer parts are divided by their gcds and eliminated in
    integers (_symmetric_inertia).
    """
    Q = _exact(Q, real=False)
    rows, cols = Q.shape
    if rows != cols:
        raise ValueError(f"matrix is {rows}x{cols}, not square")
    R, J = Q.re, Q.im
    if not ((R == R.T).all() and (J == -J.T).all()):
        raise ValueError("matrix is not symmetric or Hermitian")
    if not J.any():
        return _symmetric_inertia(_primitive_rows(R))
    pos, zero, neg = _symmetric_inertia(_primitive_rows(np.block([[R, -J], [J, R]])))
    return pos // 2, zero // 2, neg // 2


def inertia(M, zero_tol=1e-9):
    """((pos, zero, neg), eigenvalues) of a real symmetric or Hermitian matrix.

    The one inertia routine of both backends.  M is an ndarray, an
    ExactArray or a list of rows, converted once (_matrix); it is Hermitian
    when it is complex.  Float arrays go through float_signature with the
    relative zero_tol.  Exact input is classified by rational_inertia, with
    no tolerance; its float eigenvalues are evidence only, of the saturated
    copy (ExactArray.saturated; NaN when that copy is not finite).
    """
    M = _matrix(M)
    if isinstance(M, np.ndarray):
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"matrix of shape {M.shape} is not square")
        return float_signature(M, zero_tol)
    sig = rational_inertia(M)
    A = M.saturated()
    return sig, float_signature(A)[1] if np.isfinite(A).all() else [math.nan] * len(A)


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


def _eliminate(A, cols, jordan):
    """Fraction-free (Bareiss) row reduction of the integer rows A, in place.

    Pivots are the first nonzero entries of columns < cols, top to bottom,
    with row swaps.  Each update row_i <- (p row_i - a_i row_r) / prev, with p
    the new pivot and prev the one before, divides exactly (Sylvester's
    identity): every entry stays a minor of the input.  Without jordan only
    the rows below a pivot are reduced (an echelon form); with jordan the
    rows above too, and A ends as its last pivot times the reduced row
    echelon form.  Returns (pivot columns, last pivot).
    """
    rows = len(A)
    pivots = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        top = A[r]
        p = top[c]
        for i in range(0 if jordan else r + 1, rows):
            if i != r:
                a = A[i][c]
                A[i] = [(p * x - a * y) // prev for x, y in zip(A[i], top)]
        pivots.append(c)
        prev = p
    return pivots, prev


def rational_rref(M):
    """Reduced row echelon form of a rational matrix: (rows of Fractions, pivot columns).

    M is an ExactArray or a list of rows.  Each row of the integer parts is
    divided by its gcd, which changes no reduced row echelon form, and
    reduced in integers (_eliminate).
    """
    M = _exact(M)
    A = _primitive_rows(M.re)
    pivots, last = _eliminate(A, M.shape[1], jordan=True)
    return [[Fraction(x, last) for x in row] for row in A], pivots


def rational_nullspace(M):
    """Basis of the right nullspace of a rational matrix."""
    A, pivots = rational_rref(M)
    cols = len(A[0]) if A else 0
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -A[r][fc]
        basis.append(v)
    return basis


def rational_solve(M, b):
    """Solve M x = b exactly; returns None when no solution exists.

    M and b are ExactArrays or lists.  Of many solutions, the one whose
    non-pivot unknowns are 0, as read off the RREF.  The rows of the integer
    parts of [M | b] over one denominator, each divided by its gcd, are
    brought to echelon form (_eliminate); back substitution then runs on
    X = last * x, with last the last pivot, which is an integer vector by
    Cramer's rule.
    """
    M = _exact(M)
    rows, cols = M.shape
    B = _exact(b[:, None] if isinstance(b, ExactArray) else [[x] for x in b])
    if len(B) != rows:
        raise ValueError(f"right-hand side has {len(B)} entries for a {rows}x{cols} matrix")
    den = math.lcm(M.den, B.den)
    A = _primitive_rows(np.hstack([M.re * (den // M.den), B.re * (den // B.den)]))
    pivots, last = _eliminate(A, cols + 1, jordan=False)
    if pivots and pivots[-1] == cols:
        return None
    X = [0] * cols
    for r in reversed(range(len(pivots))):
        row = A[r]
        rest = sum(row[c] * X[c] for c in pivots[r + 1:])
        X[pivots[r]] = (last * row[cols] - rest) // row[pivots[r]]
    return [Fraction(x, last) for x in X]


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
