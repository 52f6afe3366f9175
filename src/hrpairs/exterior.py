"""Constant-coefficient (p,q)-forms on C^d with two scalar backends.

A form is stored sparsely as coefficients c[I, J] of dz_I wedge dzbar_J with
I, J strictly increasing index tuples (0-based).  Coefficients are Python
complex (float backend) or GaussianRational (exact backend).  The dense
kernels read a (p,p)-form as its coefficient matrix in either backend: a
complex ndarray, or a scalars.ExactArray, integer numerators with one common
denominator.  _top_functional and _mid_gram turn it into the intersection
numbers that the pointwise checks read, and _top_form and _mid_form turn
those back into forms; they, the real basis of ring and the curvature arrays
of bogomolov are one text for both array types, and GaussianRationals appear
only where they hand values out.

Conventions, all verified by brute-force oracles in the test suite:

  * conj(dz_I wedge dzbar_J) = (-1)^(p*q) dz_J wedge dzbar_I, so a (p,p)-form
    is real iff c[J, I] = (-1)^(p^2) * conj(c[I, J]);
  * the volume normalization is int prod_j (i dz_j wedge dzbar_j) = 1, i.e.
    the coefficient of dz_1..d wedge dzbar_1..d in the volume form is i^(d^2).
"""

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DegreeError
from .linalg import inertia
from .scalars import (
    ExactArray, GaussianRational, conj, i_power, imag_part, is_exact, negligible, real_part,
    to_complex,
)
from .verdict import DEGENERATE, FAIL, PASS, Verdict

_merge_cache = {}


def _merge(A, B):
    """Concatenate-and-sort sign for dz_A wedge dz_B; None when indices repeat."""
    key = (A, B)
    hit = _merge_cache.get(key)
    if hit is not None:
        return hit
    if set(A) & set(B):
        _merge_cache[key] = (0, None)
        return (0, None)
    inversions = sum(1 for a in A for b in B if a > b)
    out = ((-1) ** inversions, tuple(sorted(A + B)))
    _merge_cache[key] = out
    return out


class PPForm:
    """Sparse constant-coefficient (p,q)-form on C^d."""

    __slots__ = ("dim", "p", "q", "coeffs")

    def __init__(self, dim, p, q, coeffs=None):
        self.dim = int(dim)
        self.p = int(p)
        self.q = int(q)
        self.coeffs = {}
        if coeffs:
            for (I, J), c in coeffs.items():
                self._check_key(I, J)
                if c != 0:
                    self.coeffs[(tuple(I), tuple(J))] = c

    def _check_key(self, I, J):
        for S, n in ((I, self.p), (J, self.q)):
            if len(S) != n or any(S[i] >= S[i + 1] for i in range(len(S) - 1)):
                raise DegreeError(f"index tuple {S} is not strictly increasing of length {n}")
            if S and (S[0] < 0 or S[-1] >= self.dim):
                raise DegreeError(f"index tuple {S} out of range for dimension {self.dim}")

    @classmethod
    def _valid(cls, dim, p, q, coeffs):
        """A form whose keys are valid by construction: no key check, zeros dropped.

        For the results of wedge, +, -, conj, scalar * and the dense
        kernels; coefficients from outside the program go through
        PPForm(...), which checks keys.
        """
        form = cls.__new__(cls)
        form.dim, form.p, form.q = dim, p, q
        form.coeffs = {k: c for k, c in coeffs.items() if c != 0}
        return form

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim, p, q):
        return cls(dim, p, q)

    @classmethod
    def one(cls, dim, exact=True):
        c = GaussianRational(1) if exact else complex(1)
        return cls(dim, 0, 0, {((), ()): c})

    @classmethod
    def monomial(cls, dim, I, J, coeff):
        return cls(dim, len(I), len(J), {(tuple(I), tuple(J)): coeff})

    def is_zero(self):
        return not self.coeffs

    def is_exact(self):
        return all(is_exact(c) for c in self.coeffs.values())

    # -- arithmetic --------------------------------------------------------

    def _like(self, other):
        if (self.dim, self.p, self.q) != (other.dim, other.p, other.q):
            raise DegreeError(
                f"cannot add ({self.dim};{self.p},{self.q}) and "
                f"({other.dim};{other.p},{other.q}) forms"
            )

    def __add__(self, other):
        if not isinstance(other, PPForm):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q):
            # zero forms (e.g. clipped degree overflows) absorb silently
            if self.is_zero() and self.dim == other.dim:
                return other
            if other.is_zero() and self.dim == other.dim:
                return self
        self._like(other)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = coeffs.get(k, 0) + c
            if s == 0:
                coeffs.pop(k, None)
            else:
                coeffs[k] = s
        return PPForm._valid(self.dim, self.p, self.q, coeffs)

    def __neg__(self):
        return PPForm._valid(self.dim, self.p, self.q, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PPForm):
            return wedge(self, other)
        return PPForm._valid(
            self.dim, self.p, self.q, {k: c * other for k, c in self.coeffs.items()}
        )

    def __rmul__(self, other):
        if isinstance(other, PPForm):
            return NotImplemented
        return self * other

    def __eq__(self, other):
        return (
            isinstance(other, PPForm)
            and (self.dim, self.p, self.q) == (other.dim, other.p, other.q)
            and self.coeffs == other.coeffs
        )

    def conj(self):
        """Complex conjugate, a (q,p)-form."""
        sign = (-1) ** (self.p * self.q)
        return PPForm._valid(
            self.dim,
            self.q,
            self.p,
            {(J, I): sign * conj(c) for (I, J), c in self.coeffs.items()},
        )

    def is_real(self, tol=0.0):
        """Is self == self.conj(), to tol relative to max(max_abs, 1)?

        Each gap is a scalars.negligible comparison: exact forms are real
        only when every gap is exactly 0.
        """
        if self.p != self.q:
            return False
        sign = (-1) ** (self.p * self.q)
        get = self.coeffs.get
        bound = tol * max(self.max_abs(), 1.0)
        return all(negligible(c - sign * conj(get((J, I), 0)), bound)
                   for (I, J), c in self.coeffs.items())

    def max_abs(self):
        """Largest |coefficient| as a float, inf beyond float range."""
        if not self.coeffs:
            return 0.0
        try:
            return max(abs(complex(c)) for c in self.coeffs.values())
        except OverflowError:
            return math.inf

    def __repr__(self):
        n = len(self.coeffs)
        return f"PPForm(dim={self.dim}, bidegree=({self.p},{self.q}), {n} terms)"


def wedge(x, y):
    """Wedge product; silently zero when the bidegree overflows the dimension."""
    if x.dim != y.dim:
        raise DegreeError(f"forms live on C^{x.dim} and C^{y.dim}")
    p, q = x.p + y.p, x.q + y.q
    if p > x.dim or q > x.dim:
        return PPForm.zero(x.dim, min(p, x.dim), min(q, x.dim))
    cross = (-1) ** (x.q * y.p)  # moving dzbar_J1 past dz_I2
    coeffs = {}
    for (I1, J1), c1 in x.coeffs.items():
        for (I2, J2), c2 in y.coeffs.items():
            si, I = _merge(I1, I2)
            if si == 0:
                continue
            sj, J = _merge(J1, J2)
            if sj == 0:
                continue
            c = c1 * c2 * (cross * si * sj)
            k = (I, J)
            s = coeffs.get(k, 0) + c
            if s == 0:
                coeffs.pop(k, None)
            else:
                coeffs[k] = s
    return PPForm._valid(x.dim, p, q, coeffs)


@lru_cache(maxsize=None)
def _subset_index(d, p):
    """{I: position} of the p-subsets I of range(d), in combinations order."""
    return {I: i for i, I in enumerate(itertools.combinations(range(d), p))}


@lru_cache(maxsize=None)
def _merge_signs(d, p, q):
    """Read-only int8 S with dz_I wedge dz_J = S[k, i, j] dz_K, K the k-th (p+q)-subset.

    I and J are the i-th p-subset and the j-th q-subset of range(d); S is 0
    where they meet.  Integer, so that exact products stay exact; a float
    product casts it to complex, as it would a float table.
    """
    out, left, right = (_subset_index(d, k) for k in (p + q, p, q))
    S = np.zeros((len(out), len(left), len(right)), dtype=np.int8)
    for I, i in left.items():
        for J, j in right.items():
            sign, K = _merge(I, J)
            if sign:
                S[out[K], i, j] = sign
    S.flags.writeable = False
    return S


def _promote(*arrays):
    """The coefficient arrays in one backend: exact when all are, else complex."""
    if all(isinstance(X, ExactArray) for X in arrays):
        return arrays
    return tuple(X.astype(complex, copy=False) for X in arrays)


def _array(shape, items, exact):
    """The coefficient array with entries from (index, value) pairs and 0
    elsewhere: an ExactArray, or complex."""
    A = np.zeros(shape, dtype=object if exact else complex)
    items = list(items)
    if items:
        index, values = zip(*items)
        A[tuple(np.array(index).T)] = values if exact else [complex(c) for c in values]
    return ExactArray.of(A) if exact else A


def _coefficient_matrix(form, exact):
    """Z[i, j], the coefficient of dz_I wedge dzbar_J for the i-th and j-th
    subsets I and J; an ExactArray, or complex."""
    rows, cols = _subset_index(form.dim, form.p), _subset_index(form.dim, form.q)
    return _array((len(rows), len(cols)),
                  (((rows[I], cols[J]), c) for (I, J), c in form.coeffs.items()), exact)


def _volume_unit(d, exact):
    """i^(-d^2): the integral of dz_1..d wedge dzbar_1..d."""
    return i_power(-(d * d)) if exact else 1j ** (-(d * d) % 4)


@lru_cache(maxsize=None)
def _complements(d, k):
    """(Q, tau, R), read-only int arrays: for the k-tuples A of range(d),
    dz_A wedge dz_C = tau[A] dz_1..d with C the complement of A, the Q[A]-th
    (d-k)-subset, and tau 0 where A repeats an index; R[q] is the increasing
    A with Q[A] = q."""
    Q, tau = np.zeros((d,) * k, dtype=np.intp), np.zeros((d,) * k, dtype=np.int8)
    R = np.zeros((math.comb(d, k), k), dtype=np.intp)
    index = _subset_index(d, d - k)
    for A in itertools.permutations(range(d), k):
        rest = tuple(i for i in range(d) if i not in A)
        word = A + rest
        inversions = sum(1 for i in range(d) for j in range(i + 1, d) if word[i] > word[j])
        Q[A], tau[A] = index[rest], (-1) ** inversions
        if list(A) == sorted(A):
            R[index[rest]] = A
    for X in (Q, tau, R):
        X.flags.writeable = False
    return Q, tau, R


def _top_functional(omega_top):
    """m[a, b] = int(dz_a ^ dzbar_b ^ omega_top) for a (d-1,d-1)-form omega_top.

    An ExactArray for exact omega_top, complex otherwise; so is _mid_gram.
    Moving dzbar_b past the d-1 dz's of a coefficient gives (-1)^(d-1).
    """
    d, exact = omega_top.dim, omega_top.is_exact()
    Q, tau, _ = _complements(d, 1)
    Z = _coefficient_matrix(omega_top, exact)[Q[:, None], Q]
    return (-1) ** (d - 1) * _volume_unit(d, exact) * (Z * np.outer(tau, tau))


def _mid_gram(omega_mid):
    """G[a, b, c, e] = int(dz_a ^ dzbar_b ^ dz_c ^ dzbar_e ^ omega_mid); moving
    dzbar_b past dz_c gives the sign -1."""
    d, exact = omega_mid.dim, omega_mid.is_exact()
    Q, tau, _ = _complements(d, 2)
    Z = _coefficient_matrix(omega_mid, exact)[Q[:, None, :, None], Q[None, :, None, :]]
    return -_volume_unit(d, exact) * (Z * (tau[:, None, :, None] * tau[None, :, None, :]))


def _form_of(Z, d, p):
    """The (p,p)-form on C^d with coefficient matrix Z, the inverse of
    _coefficient_matrix: complex coefficients, or GaussianRationals when Z
    is an ExactArray."""
    subsets = list(_subset_index(d, p))
    return PPForm._valid(d, p, p, {(subsets[i], subsets[j]): Z.item(i, j)
                                   for i, j in zip(*Z.nonzero())})


def _top_form(m):
    """The (d-1,d-1)-form whose _top_functional is m, read at the rows R."""
    d = len(m)
    _, tau, R = _complements(d, 1)
    a = R[:, 0]
    unit = (-1) ** (d - 1) * _volume_unit(d, isinstance(m, ExactArray)).conjugate()
    return _form_of(unit * (m[a[:, None], a] * np.outer(tau[a], tau[a])), d, d - 1)


def _mid_form(G):
    """The (d-2,d-2)-form whose _mid_gram is G, read at the pairs R."""
    d = len(G)
    _, tau, R = _complements(d, 2)
    a, c = R.T
    unit = -_volume_unit(d, isinstance(G, ExactArray)).conjugate()
    sign = tau[a, c]
    return _form_of(unit * (G[a[:, None], a, c[:, None], c] * np.outer(sign, sign)), d, d - 2)


def wedge_all(forms, dim=None, exact=True):
    acc = None
    for f in forms:
        acc = f if acc is None else wedge(acc, f)
    if acc is None:
        if dim is None:
            raise ValueError("empty wedge needs an explicit dimension")
        return PPForm.one(dim, exact=exact)
    return acc


def integrate_top(form, allow_complex=False):
    """Integral of a (d,d)-form under int prod_j (i dz_j dzbar_j) = 1.

    Returns a Fraction in the exact backend, a float otherwise.  Unless
    allow_complex is set, an imaginary part that is not negligible (beyond
    1e-9 relative in floats, nonzero in rationals) raises ConsistencyError.
    """
    d = form.dim
    if form.p != d or form.q != d:
        raise DegreeError(f"integrating a ({form.p},{form.q})-form on C^{d}")
    full = tuple(range(d))
    c = form.coeffs.get((full, full), None)
    if c is None:
        return Fraction(0) if form.is_exact() else 0.0
    exact = is_exact(c)
    value = (c if exact else complex(c)) * _volume_unit(d, exact)
    if allow_complex:
        return value
    im = imag_part(value)
    if not negligible(im, 1e-9 * max(1.0, abs(complex(value)))):
        raise ConsistencyError(f"integral has imaginary part {im}")
    return real_part(value)


def form_from_hermitian(H, exact=None):
    """(1,1)-form i * sum H[j][k] dz_j dzbar_k from a Hermitian matrix.

    H is any matrix-like (nested sequences or numpy array); Hermitian symmetry
    is checked exactly for exact entries and not at all otherwise (callers
    symmetrize float input themselves if needed).
    """
    rows = [list(r) for r in H]
    d = len(rows)
    if exact is None:
        exact = all(is_exact(x) for r in rows for x in r)
    i_unit = GaussianRational(0, 1) if exact else 1j
    coeffs = {}
    for j in range(d):
        for k in range(d):
            c = rows[j][k]
            if exact:
                if conj(rows[k][j]) != c:
                    raise ConsistencyError(f"matrix is not Hermitian at ({j},{k})")
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c)
            else:
                c = complex(c)
            if c != 0:
                coeffs[((j,), (k,))] = i_unit * c
    return PPForm(d, 1, 1, coeffs)


def hermitian_from_form(form):
    """Matrix H with form = i * sum H[j][k] dz_j dzbar_k; inverse of form_from_hermitian."""
    if (form.p, form.q) != (1, 1):
        raise DegreeError("expected a (1,1)-form")
    d = form.dim
    exact = form.is_exact()
    zero = GaussianRational(0) if exact else complex(0)
    H = [[zero for _ in range(d)] for _ in range(d)]
    mi = GaussianRational(0, -1) if exact else -1j
    for (I, J), c in form.coeffs.items():
        H[I[0]][J[0]] = mi * c if exact else complex(c) * mi
    return H


def std_kahler(dim, exact=True):
    """omega_std = sum_j i dz_j dzbar_j."""
    i_unit = GaussianRational(0, 1) if exact else 1j
    return PPForm(dim, 1, 1, {((j,), (j,)): i_unit for j in range(dim)})


def positivity_dminus1(form, zero_tol=1e-9):
    """Strict positivity check for a (d-1,d-1)-form.

    Pairs the form against i dz_j dzbar_k to get a Hermitian matrix, i times
    _top_functional; the form is strictly positive iff that matrix is
    positive definite.  In the exact backend the inertia is computed
    rationally and the eigenvalues are float evidence only.
    """
    d = form.dim
    if (form.p, form.q) != (d - 1, d - 1):
        raise DegreeError(f"expected a ({d - 1},{d - 1})-form on C^{d}")
    exact = form.is_exact()
    H = (GaussianRational(0, 1) if exact else 1j) * _top_functional(form)
    sig, eigs = inertia(H, zero_tol)
    pos, zero, neg = sig
    if zero > 0:
        outcome = DEGENERATE
    elif neg > 0 or pos < d:
        outcome = FAIL
    else:
        outcome = PASS
    return Verdict(
        outcome=outcome,
        signature=sig,
        eigenvalues=eigs,
        witness={} if outcome == PASS else {"pairing_matrix": [[to_complex(x) for x in row]
                                                               for row in H]},
        tolerances={} if exact else {"zero_tol": zero_tol},
        details={"backend": "exact" if exact else "float"},
    )


# -- serialization ---------------------------------------------------------


def _scalar_to_json(c):
    if is_exact(c):
        re, im = real_part(c), imag_part(c)
        return str(re), str(im)
    c = complex(c)
    return c.real, c.imag


def _scalar_from_json(re, im):
    if isinstance(re, str) or isinstance(im, str):
        return GaussianRational(Fraction(re), Fraction(im))
    if float(im) == 0.0:
        return complex(float(re), 0.0)
    return complex(float(re), float(im))


def form_to_dict(form):
    """JSON-ready dict; indices are 1-based in the serialized records."""
    terms = []
    for (I, J) in sorted(form.coeffs):
        re, im = _scalar_to_json(form.coeffs[(I, J)])
        terms.append(
            {"I": [int(i) + 1 for i in I], "J": [int(j) + 1 for j in J], "re": re, "im": im}
        )
    return {"dim": form.dim, "p": form.p, "q": form.q, "terms": terms}


def form_from_dict(data):
    coeffs = {}
    for rec in data["terms"]:
        I = tuple(i - 1 for i in rec["I"])
        J = tuple(j - 1 for j in rec["J"])
        coeffs[(I, J)] = _scalar_from_json(rec["re"], rec["im"])
    return PPForm(data["dim"], data["p"], data["q"], coeffs)


def form_to_json(form, **kw):
    return json.dumps(form_to_dict(form), **kw)


def form_from_json(text):
    return form_from_dict(json.loads(text))
