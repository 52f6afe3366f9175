"""Small exact/float linear algebra kernel.

Exact routines take an ExactArray, or lists of rows of exact numbers, which
they convert once, and use no tolerances at all.  They eliminate in Python
ints, on the integer parts: each row is divided by the gcd of its entries,
and fraction-free (Bareiss) elimination divides every update exactly by the
previous pivot; a solution is a real ExactArray over one positive
denominator (_solution).  The symmetric elimination of an inertia stores
and updates the upper triangle only, reading the lower one through the
ratio of the row gcds, and drops a pivot that is alone in its row without
updating anything (_symmetric_inertia); rational_nullspace makes Fractions
only of the entries it returns.  An exact inertia without a right-hand
side of CERTIFY_FROM rows or more is first tried by a float certificate,
Gershgorin discs of a congruence with rigorous rounding bounds
(_certified_inertia), which decides or abstains; the elimination runs
where it abstains.
rational_inertia is the validated entry point: square, and symmetric
(Hermitian when the imaginary part is not 0).  Float routines delegate to
numpy; the signature takes an explicit relative zero tolerance, and
float_solve checks no residual.  inertia is the one entry point for
signatures in both backends.
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


def _symmetric_inertia(A, g, solve=False):
    """((pos, zero, neg), solution) of a real symmetric S = R / den, R the
    integer parts, given the upper triangle A[i] = R[i][i:] / g_i of each
    row, g_i > 0 dividing R[i], followed by c f_i / g_i when solve (c > 0
    an int).  Consumes A and g.

    Fraction-free (Bareiss) elimination with diagonal pivots.  After each
    step the active block B is D diag(1/g) S', with S' the Schur complement
    of R on the pivots so far and D the last pivot, a principal minor of
    diag(1/g) R; each update (p B[y][x] - B[y][r] B[r][x]) / D on pivot
    p = B[r][r] divides exactly (Sylvester's identity).  Positive row
    scalings keep the sign of every principal minor, so each pivot of R,
    S'_rr = g_r p / D, has the sign of p / D.

    Upper triangle.  S' is symmetric, so for active x, y
        B[y][x] = D S'_yx / g_y = D S'_xy / g_y = B[x][y] g_x / g_y,
    an int, exactly.  Only B[x][y] with y >= x is stored (A[x][0] is the
    diagonal entry).  A step on pivot r removes the column above r from the
    rows that hold it and rebuilds the pivot row's left part as
    B[r][x] = B[x][r] g_x / g_r and the multipliers below r as
    B[y][r] = B[r][y] g_r / g_y: one pass over the active indices.  The
    update then runs on x >= y only, about n^3/6 products and divisions
    against n^3/3 on whole rows.

    Isolated pivots.  If B[r][x] = 0 for every active x != r, then
    S'_rx = 0: S' is S'_rr (+) S'', S'' the rest, and the Schur complement
    on r is S'' itself.  S'' is also the Schur complement of R without
    index r on the same pivots, so B without row and column r is already
    D diag(1/g) S'', the Bareiss block of R without r over the same D:
    every entry is still a minor and the next update divides by D exactly.
    So the step counts the sign of p / D, drops row and column r, updates
    no other row and leaves D the last pivot.  (Updating would only scale
    the rest by p / D.)

    Restarts.  When the active diagonal is all 0 but B[i][j] is not,
    elimination restarts from the block |D| diag(1/g) S' and the
    congruence b_i -> b_i + s b_j, s a positive multiple of S'_ij: on these
    rows it adds t = B[i][j] times row j to row i and u = B[j][i] =
    t g_i / g_j times column j to column i.  For y != i the new B[y][i] is
    B[y][i] + u B[y][j] = (B[i][y] + t B[j][y]) g_i / g_y, so the ratio
    still holds, and the pivot is 2 t u > 0.  Row i is rebuilt whole and
    column i written back from it by the ratio.

    With solve, f rides along as the last entry of each row and the pivot
    rows are kept, whole (an isolated one as its right-hand side alone:
    its other entries are 0).  Every step is a row operation but a restart's
    column operation, the substitution x_j = y_j + u y_i: it is applied to
    the kept rows too and undone, last first, after back substitution,
    which runs in ints on X = den x over a running common denominator den.
    The solution is (X, den) for the x with R x = c f; None without solve
    or when S is singular.
    """
    pos = zero = neg = 0
    prev = 1
    n = len(A)
    unknowns = list(range(n))  # the unknown of each active index
    kept, moves = [], []  # (unknown, pivot, pivot row, its unknowns); (j, u, i)
    while A:
        m = len(A)
        k = next((k for k, row in enumerate(A) if row[0]), None)
        if k is None:
            pair = next(((i, i + c) for i, row in enumerate(A)
                         for c in range(1, m - i) if row[c]), None)
            if pair is None:
                zero += m
                break
            if prev < 0:
                A = [[-x for x in row] for row in A]
            prev = 1
            i, j = pair
            t = A[i][j - i]
            u = t * g[i] // g[j]
            rows = [[A[x][r - x] * g[x] // g[r] for x in range(r)] + A[r] for r in (i, j)]
            new = [x + t * y for x, y in zip(*rows)]
            new[i] = 2 * t * u
            A[i] = new[i:]
            for x in range(i):
                A[x][i - x] = new[x] * g[i] // g[x]
            if solve:
                a, b = unknowns[i], unknowns[j]
                for _, _, row, names in kept:
                    if names:
                        row[names.index(a)] += row[names.index(b)] * u
                moves.append((b, u, a))
            k = i
        top = A.pop(k)
        gk = g.pop(k)
        unknown = unknowns.pop(k)
        p = top[0]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        col = [A[x].pop(k - x) for x in range(k)]  # B[x][k] above the pivot
        if not (any(col) or any(top[1:m - k])):
            if solve:
                kept.append((unknown, p, top[m - k:], ()))
            continue
        full = [a * gx // gk for a, gx in zip(col, g)] + top[1:]
        for idx, row in enumerate(A):
            a = col[idx] if idx < k else full[idx] * gk // g[idx]
            A[idx] = [(p * x - a * y) // prev for x, y in zip(row, full[idx:])]
        if solve:
            kept.append((unknown, p, full, tuple(unknowns)))
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
# random symmetric integer matrices (medians of 7, each the best of 20 runs,
# with 4-, 15- and 40-bit entries; Python 3.11, numpy 2.4, OpenBLAS, 2 cores)
# the certificate took 44-46 us at n = 7, 46-48 at 8, 49-51 at 9 and 52-54 at
# 10, against 32-45, 42-62, 53-85 and 65-111 us for the upper-triangle
# elimination.  It wins at every entry size from n = 9, by 4 us at 4 bits;
# from n = 10, where it also won against the elimination of whole rows, by
# 13 us or more.  On the bordered 10 x 10 matrices of the d = 3 Schur pairs
# it takes 52 us against 81, on the bordered 17 x 17 of the d = 4 ones 79
# against 340.
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


def _solution(X, den):
    """The real ExactArray X / den of the ints X and den != 0, reduced,
    over a positive denominator (a Bareiss pivot may be negative)."""
    X = np.array(X, dtype=object)
    if den < 0:
        X, den = -X, -den
    return ExactArray._reduced(X, np.zeros_like(X), den)


def _column(b, shape):
    """The right-hand side b (ExactArray or list) of a matrix of the given
    shape as an exact column; ValueError for a wrong length."""
    B = _exact(b[:, None] if isinstance(b, ExactArray) else [[x] for x in b])
    rows, cols = shape
    if len(B) != rows:
        raise ValueError(f"right-hand side has {len(B)} entries for a {rows}x{cols} matrix")
    return B


def rational_inertia(Q, rhs=None):
    """Inertia (positive, zero, negative) of an exact symmetric or Hermitian matrix.

    Q is an ExactArray or a list of rows of rationals or GaussianRationals.
    A Hermitian H = R + iJ, J != 0, is decided through the real symmetric
    [[R, -J], [J, R]], whose eigenvalues are those of H, each twice.  Each
    row of the integer parts is divided by its gcd g_i, and the upper
    triangles of these rows, with the g_i, are eliminated in integers
    (_symmetric_inertia); when the matrix eliminated (the real double of a
    Hermitian one) has CERTIFY_FROM rows or more, the float certificate
    _certified_inertia is tried first, and the elimination runs only where
    it abstains.

    Given a right-hand side rhs (ExactArray or list of rationals), Q must be
    real, and the result is (inertia, x), x = Q^-1 rhs as a real ExactArray
    (_solution) or None when Q is singular, from the same elimination: row
    i carries t F_i / g_i, for F = r rhs and R = q Q the integer parts and
    t the least positive int that makes every such entry an int.  So Q's
    rows are those of the inertia alone, whatever rhs's denominator, and
    the elimination solves R y = t F, x = q y / (t r).
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
    S = np.block([[R, -J], [J, R]]) if hermitian else R
    sig = _certified_inertia(S, Q.den) if rhs is None and len(S) >= CERTIFY_FROM else None
    if sig is None:
        A = S.tolist()
        g = [math.gcd(*row) or 1 for row in A]
        A = [row[i:] if c == 1 else [x // c for x in row[i:]]
             for i, (row, c) in enumerate(zip(A, g))]
        if rhs is None:
            sig = _symmetric_inertia(A, g)[0]
        else:
            f = F.re.ravel().tolist()
            t = math.lcm(*(c // math.gcd(c, y) for c, y in zip(g, f)))
            for row, c, y in zip(A, g, f):
                row.append(y * t // c)
            sig, solution = _symmetric_inertia(A, g, solve=True)
            if solution is None:
                return sig, None
            X, den = solution
            return sig, _solution([x * Q.den for x in X], den * t * F.den)
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


def _eliminate(A, cols):
    """Fraction-free (Bareiss) Gauss-Jordan reduction of the integer rows A, in place.

    Pivots are the first nonzero entries of columns < cols, top to bottom,
    with row swaps.  Each update row_i <- (p row_i - a_i row_r) / prev, of
    every row but the pivot row r, with p the new pivot and prev the one
    before, divides exactly (Sylvester's identity): every entry stays a
    minor of the input, and A ends as its last pivot times the reduced row
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
        for i in range(rows):
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
    pivots, last = _eliminate(A, M.shape[1])
    return [[Fraction(x, last) for x in row] for row in A], pivots


def rational_nullspace(M):
    """Basis of the right nullspace of a rational matrix: for each non-pivot
    column c of the reduced row echelon form (as rational_rref), the vector
    with 1 at c and minus column c at the pivot columns.  Only those entries
    of the integer reduction (_eliminate) become Fractions."""
    M = _exact(M)
    A = _primitive_rows(M.re)
    cols = len(A[0]) if A else 0
    pivots, last = _eliminate(A, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in zip(A, pivots):
            v[pc] = Fraction(-row[fc], last)
        basis.append(v)
    return basis


def rational_solve(M, b):
    """Solve M x = b exactly: x as a real ExactArray (_solution), or None
    when no solution exists.

    M and b are ExactArrays or lists.  Of many solutions, the one whose
    non-pivot unknowns are 0.  The rows of the integer parts of [M | b] over
    one denominator, each divided by its gcd, are reduced (_eliminate) to
    last times their reduced row echelon form, last the last pivot, so
    x_c = A[r][-1] / last for the pivot column c of row r.
    """
    M = _exact(M)
    cols = M.shape[1]
    B = _column(b, M.shape)
    den = math.lcm(M.den, B.den)
    A = _primitive_rows(np.hstack([M.re * (den // M.den), B.re * (den // B.den)]))
    pivots, last = _eliminate(A, cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    X = [0] * cols
    for row, c in zip(A, pivots):
        X[c] = row[cols]
    return _solution(X, last)


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


def float_solve(Q, b):
    """Solve the square Q x = b in floats: x as an array, or None when
    LAPACK finds Q exactly singular.  No residual is checked here: the pair
    verdict's division rule (hrcheck._divides) decides what x solves."""
    try:
        return np.linalg.solve(Q, b)
    except np.linalg.LinAlgError:
        return None
