"""Small exact/float linear algebra kernel.

Exact routines take an ExactArray, or lists of rows of exact numbers, which
they convert once, and use no tolerances at all.  They eliminate in Python
ints, on the integer parts: each row is divided by the gcd of its entries,
and fraction-free (Bareiss) elimination divides every update exactly by the
previous pivot; Fractions appear again only in the results.  An exact
inertia without a right-hand side of CERTIFY_FROM rows or more is first
tried by a float certificate, Gershgorin discs of a congruence with
rigorous rounding bounds (_certified_inertia), which decides or abstains;
the elimination runs where it abstains.  rational_inertia is the validated
entry point: square, and symmetric (Hermitian when the imaginary part is
not 0); with a right-hand side it builds the solution's Fractions once,
from the integer solution over its one denominator.  Float routines
delegate to numpy; the signature takes an explicit relative zero
tolerance.  inertia is the one entry point for signatures in both backends.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

from .errors import ConfigError
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


def _symmetric_inertia(A, solve=False):
    """((pos, zero, neg), solution) of a real symmetric S, given integer rows
    A[i] = c_i S[i], c_i > 0, each followed by c_i f_i when solve.

    Fraction-free (Bareiss) elimination with diagonal pivots.  After each
    step the active block is D diag(c) S', with S' the Schur complement of S
    and D the last pivot, a principal minor of diag(c) S.  Positive row
    scalings keep the sign of every principal minor, so each pivot of S has
    the sign of D_k / D_(k-1).  When the active diagonal is all 0 but A[i][j]
    is not, elimination restarts from the block |D| diag(c) S' and the
    congruence b_i -> b_i + t b_j, t a positive multiple of S'_ij: on these
    rows it adds A[i][j] times row j to row i and A[j][i] times column j to
    column i, and makes the pivot 2 A[i][j] A[j][i] > 0.

    With solve, f rides along as the last entry of each row and the pivot
    rows are kept.  Every step is a row operation but a restart's column
    operation, the substitution x_j = y_j + A[j][i] y_i: it is applied to
    the kept rows too and undone, last first, after back substitution,
    which runs in ints on X = den x over a running common denominator den.
    The solution is (X, den) for the x with S x = f; None without solve or
    when S is singular.
    """
    pos = zero = neg = 0
    prev = 1
    n = len(A)
    unknowns = list(range(n))  # the unknown of each active column
    kept, moves = [], []  # (unknown, pivot, pivot row, its unknowns); (j, u, i)
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
            if solve:
                a, b = unknowns[i], unknowns[j]
                for _, _, row, names in kept:
                    row[names.index(a)] += row[names.index(b)] * u
                moves.append((b, u, a))
            k = i
        top = A.pop(k)
        p = top.pop(k)
        unknown = unknowns.pop(k)
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for idx, row in enumerate(A):
            a = row.pop(k)
            A[idx] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        if solve:
            kept.append((unknown, p, top, tuple(unknowns)))
        prev = p
    if not solve or zero:
        return (pos, zero, neg), None
    X, den = [0] * n, 1
    for unknown, p, row, names in reversed(kept):
        num = den * row[-1] - sum(a * X[c] for c, a in zip(names, row))
        s = abs(p) // math.gcd(num, p)
        if s > 1:
            X = [x * s for x in X]
            den *= s
            num *= s
        X[unknown] = num // p
    for j, u, i in reversed(moves):
        X[j] += u * X[i]
    return (pos, zero, neg), (X, den)


# rational_inertia tries _certified_inertia first from this many rows up.  On
# random symmetric integer matrices (medians of 7, with 4-, 15- and 40-bit
# entries; Python 3.11, numpy 2.4, OpenBLAS, 2 cores) the certificate took
# 46-101 us at n = 7, 49-50 at 8, 51-54 at 9 and 54-94 at 10, against 33-52,
# 37-67, 50-95 and 84-137 us for the Bareiss elimination: it wins at every
# entry size from n = 10, and on the bordered 17 x 17 matrices of the DELV
# and d = 4 Schur pairs takes 78 us against 338.
CERTIFY_FROM = 10
_U = 2.0 ** -53  # the unit roundoff of a double
_TINY = np.finfo(float).tiny  # the least positive normal double


def _certified_inertia(R, den=1):
    """The inertia (pos, 0, neg) of the real symmetric S = R / den, for R an
    n x n object array of Python ints and an int den > 0, certified in
    floats; None (abstain) when the float test cannot decide it.

    Sylvester's law of inertia, Gershgorin discs and the rounding bounds of
    Higham (Accuracy and Stability of Numerical Algorithms, 2002, 3.5), in
    the pattern of Rump (Verification methods, Acta Numerica, 2010):

    1. Sf = fl(S), each entry correctly rounded from the ints; abstain on
       an entry beyond float range (OverflowError), on a nonzero entry that
       underflows (|Sf_ij| below the least normal double) and on one below
       2^(e-450), for 2^(e-1) <= max |Sf| < 2^e (a spread no float test
       resolves).  Sf is then scaled by 2^-e, exactly, to |Sf| < 1; a
       positive scaling keeps the inertia, and |S - Sf| <= u |Sf|
       entrywise, u = 2^-53, for the scaled S.
    2. V from eigh(Sf), with entries below 2^-200 set to 0.  V need not be
       accurate: it is only a congruence, checked nonsingular below.
    3. Nonzero entries of Sf are at least 2^-450, so multiples of 2^-502,
       and those of V at least 2^-200, multiples of 2^-252.  So every
       product and sum formed below, fused or not, is 0 or at least 2^-1006
       in magnitude: the entries of fl(Sf V) are multiples of 2^-754, those
       of C and fl(V^T V) of 2^-1006, and the bound terms are sums of
       nonnegative products of nonzero entries, at least 2^-850, times
       constants above 2^-52.  Nothing underflows, and |Sf| < 1, |V| <= 2
       keep everything far below overflow, so every operation rounds as
       fl(a op b) = (a op b)(1 + d), |d| <= u, and a dot product of length
       n in any order has |fl(x.y) - x.y| <= g_n |x|.|y|, for
       g_k = k u / (1 - k u).
    4. C = fl(V^T fl(Sf V)).  With T = fl(Sf V), |T - Sf V| <= g_n |Sf||V|,
       |C - V^T T| <= g_n |V|^T |T| and |T| <= (1 + g_n)|Sf||V|, and
       |V^T (S - Sf) V| <= u M for M = |V|^T |Sf| |V|, so
       |C - V^T S V| <= (u + 2 g_n + g_n^2) M <= g_(2n+1) M (Lemma 3.3).
       Likewise W = fl(V^T V) has |W - V^T V| <= g_n |V|^T |V|.
    5. Gershgorin: if |C_ii| > sum_(j != i) |C_ij| + g_(2n+1) sum_j M_ij for
       every i, each disc of the symmetric V^T S V excludes 0 on the side of
       sign C_ii; discs on one side form components that hold as many
       eigenvalues as discs, so In(V^T S V) is read off the signs of
       diag C.  The same test on W, with g_n, shows V^T V, and so V,
       nonsingular, and In(S) = In(V^T S V).
    6. The test's own rounding.  The row sums b = M 1 = |V|^T (|Sf| r) and
       |V|^T |V| 1 = |V|^T r, r = |V| 1, are products of nonnegative terms:
       computed, each is at least (1 - g_n)^3 times the exact one, and the
       computed sum a_i of the |C_ij|, j != i, at least (1 - g_n) times
       its own.  The test is computed as |C_ii| > rho (a_i + tau b_i),
       three more roundings, so its right side is at least
       (1 - u)^3 rho (a_i + tau b_i) with a_i, b_i the computed sums.  For
       tau = (2n + 2) u, rho = 1 + 2 (n + 4) u and n < 2^20 (any matrix
       held in memory), (1 - u)^3 rho >= 1 / (1 - g_n) and
       (1 - u)^3 tau >= g_(2n+1) / (1 - g_n)^3, so the computed test
       implies the exact one of 5; the test on W, whose bound is smaller,
       uses the same tau and rho.

    The test is a strict > on floats, so a NaN or an infinity, which
    step 3 excludes anyway, would fail it and abstain; no step warns.  An
    exactly singular S always abstains: no disc of a matrix congruent to
    it excludes 0.
    """
    n = len(R)
    try:
        S = (R / den if den != 1 else R).astype(float)
    except OverflowError:
        return None
    A = np.abs(S)
    e = math.frexp(A.max(initial=0.0))[1]
    if A[R != 0].min(initial=math.inf) < max(_TINY, math.ldexp(1.0, e - 450)):
        return None
    S = np.ldexp(S, -e)
    try:
        V = np.linalg.eigh(S)[1]
    except np.linalg.LinAlgError:
        return None
    V[np.abs(V) < 2.0 ** -200] = 0.0
    absV = np.abs(V)
    r = absV.sum(axis=1)
    rows = absV.T @ np.stack([r, np.abs(S) @ r], axis=1)  # row sums of |V|^T|V| and of M
    tau, rho = (2 * n + 2) * _U, 1 + 2 * (n + 4) * _U
    C = V.T @ (S @ V)
    for X, b in ((V.T @ V, rows[:, 0]), (C, rows[:, 1])):
        off = np.abs(X)
        centre = off.diagonal().copy()
        np.fill_diagonal(off, 0.0)
        if not (centre > rho * (off.sum(axis=1) + tau * b)).all():
            return None
    pos = int((C.diagonal() > 0).sum())
    return pos, 0, n - pos


def _column(b, shape):
    """The right-hand side b (ExactArray or list) of a matrix of the given
    shape as an exact column; ValueError for a wrong length."""
    B = _exact(b[:, None] if isinstance(b, ExactArray) else [[x] for x in b])
    rows, cols = shape
    if len(B) != rows:
        raise ValueError(f"right-hand side has {len(B)} entries for a {rows}x{cols} matrix")
    return B


def _with_rhs(R, F):
    """(rows, t): the rows of _primitive_rows(R), each followed by t F_i / g_i
    for g_i the gcd it was divided by and t the least positive int that
    makes every such entry an int."""
    A = R.tolist()
    gs = [math.gcd(*row) or 1 for row in A]
    t = math.lcm(*(g // math.gcd(g, y) for g, y in zip(gs, F)))
    return [(row if g == 1 else [x // g for x in row]) + [y * t // g]
            for row, g, y in zip(A, gs, F)], t


def rational_inertia(Q, rhs=None):
    """Inertia (positive, zero, negative) of an exact symmetric or Hermitian matrix.

    Q is an ExactArray or a list of rows of rationals or GaussianRationals.
    A Hermitian H = R + iJ, J != 0, is decided through the real symmetric
    [[R, -J], [J, R]], whose eigenvalues are those of H, each twice.  The
    rows of the integer parts are divided by their gcds and eliminated in
    integers (_symmetric_inertia); when the matrix eliminated (the real
    double of a Hermitian one) has CERTIFY_FROM rows or more, the float
    certificate _certified_inertia is tried first, and the elimination
    runs only where it abstains.

    Given a right-hand side rhs (ExactArray or list of rationals), Q must be
    real, and the result is (inertia, x), x the Fractions of Q^-1 rhs or
    None when Q is singular, from the same elimination: the rows of Q as
    above carry t F_i / g_i (_with_rhs), for F = r rhs and R = q Q the
    integer parts, g_i the gcd of R_i and t the least positive int that
    makes these ints.  So Q's rows are those of the inertia alone, whatever
    rhs's denominator, and the elimination solves R y = t F, x = q y / (t r).
    """
    Q = _exact(Q, real=False)
    rows, cols = Q.shape
    if rows != cols:
        raise ValueError(f"matrix is {rows}x{cols}, not square")
    R, J = Q.re, Q.im
    hermitian = J.any()
    if not ((R == R.T).all() and (not hermitian or (J == -J.T).all())):
        raise ValueError("matrix is not symmetric or Hermitian")
    if rhs is not None:
        if hermitian:
            raise ValueError("a right-hand side needs a real symmetric matrix")
        F = _column(rhs, Q.shape)
        A, t = _with_rhs(R, F.re.ravel().tolist())
        sig, solution = _symmetric_inertia(A, solve=True)
        if solution is None:
            return sig, None
        X, den = solution
        den *= t * F.den
        return sig, [Fraction(x * Q.den, den) for x in X]
    S = np.block([[R, -J], [J, R]]) if hermitian else R
    sig = _certified_inertia(S, Q.den) if len(S) >= CERTIFY_FROM else None
    if sig is None:
        sig = _symmetric_inertia(_primitive_rows(S))[0]
    return sig if S is R else tuple(x // 2 for x in sig)


def inertia(M, zero_tol=1e-9):
    """((pos, zero, neg), eigenvalues) of a real symmetric or Hermitian matrix.

    The one inertia routine of both backends.  M is an ndarray, an
    ExactArray or a list of rows, converted once (_matrix); it is Hermitian
    when it is complex.  Float arrays go through float_signature with the
    relative zero_tol.  Exact input is classified by rational_inertia, with
    no tolerance; its float eigenvalues are evidence only, of the saturated
    copy (ExactArray.saturated; NaN when it is not finite), never raising.
    """
    M = _matrix(M)
    if isinstance(M, np.ndarray):
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"matrix of shape {M.shape} is not square")
        return float_signature(M, zero_tol)
    return rational_inertia(M), eigenvalue_evidence(M)


def eigenvalue_evidence(M):
    """The eigenvalues of the saturated float copy of an exact symmetric or
    Hermitian M (ExactArray.saturated), NaN when it is not finite: evidence
    only, never raising."""
    A = M.saturated()
    return np.linalg.eigvalsh(A).tolist() if np.isfinite(A).all() else [math.nan] * len(A)


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
    cols = M.shape[1]
    B = _column(b, M.shape)
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
    ((pos, zero, neg), eigenvalues sorted ascending); ConfigError for an
    entry of Q (LAPACK may read a NaN as finite) or an eigenvalue (a scale
    of inf counts all as zero) that is not finite.  The counts are two
    bisections of the sorted eigenvalues, at -t and t for t = zero_tol *
    max|l|, and max|l| is the larger of -l_min and l_max.
    """
    A = np.asarray(Q)
    if A.size == 0:
        return (0, 0, 0), []
    if not np.isfinite(A).all():
        raise ConfigError("a matrix entry is not finite (nan or inf)")
    eigs = np.linalg.eigvalsh(A).tolist()
    # a finite sum has no inf or nan in it; a sum that overflowed is read entry by entry
    if not math.isfinite(sum(eigs)) and not all(map(math.isfinite, eigs)):
        raise ConfigError("an eigenvalue is beyond float range; decide with the exact backend")
    n, scale = len(eigs), max(-eigs[0], eigs[-1])
    if scale == 0.0:
        return (0, n, 0), [0.0] * n
    neg, pos = bisect_left(eigs, -zero_tol * scale), n - bisect_right(eigs, zero_tol * scale)
    return (pos, n - pos - neg, neg), eigs


def float_kernel_vector(Q):
    """Eigenvector of the smallest-magnitude eigenvalue, as a kernel witness."""
    A = np.asarray(Q, dtype=float)
    w, v = np.linalg.eigh(A)
    k = int(np.argmin(np.abs(w)))
    return [float(x) for x in v[:, k]]


def float_solve(M, b):
    """Solve M x = b in floats: x as an array, or None when M is numerically
    singular, that is when the residual exceeds 1e-6 (|M| |x| + |b|),
    Frobenius and Euclidean norms read from dot products."""
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
    a, r = A.ravel(), A @ x - rhs
    scale = math.sqrt(a @ a) * math.sqrt(x @ x) + math.sqrt(rhs @ rhs)
    if scale > 0 and math.sqrt(r @ r) > 1e-6 * scale:
        return None
    return x
