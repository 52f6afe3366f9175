"""Constant-coefficient (p,q)-forms on C^d with two scalar backends.

A form is its coefficient matrix Z: Z[i, j] is the coefficient of
dz_I wedge dzbar_J for the i-th p-subset I and the j-th q-subset J of
range(d), 0-based, in combinations order.  Z is a complex ndarray for a
float form and a scalars.ExactArray, integer numerators over one common
denominator, for an exact one: the array type is the backend, and an exact
operand meeting a float one is read in complex.  Dense storage holds
C(d,p) C(d,q) entries whatever the number of terms; the largest forms the
program makes are the (d-1,d-1) and (d-2,d-2) forms of a pair, C(d,2)^2
entries at most, and the keyed constructor refuses more than
MAX_FORM_ENTRIES.  Past degree d there are no subsets, so the matrix is
empty: the zero form.  A form is a value: Z is read-only from the moment the
form is made, and what is derived from it is kept in the form's memo
(_memoized), so a check that reads a form again computes nothing twice.

wedge is one product of coefficient matrices over the sign tables
_merge_signs; sums, scalar multiples, conjugation and _hermitian are array
arithmetic; a form is real when its _hermitian matrix keeps linalg's one
Hermitian rule (_unhermitian), and every check that reads a form as real
refuses it by _require_real, in both backends.  _top_functional and
_mid_gram turn a form into the intersection numbers that the pointwise
checks read, and _top_form and _mid_form turn those back into forms whose
memos hold them; all four are signed gathers through tables cached per
dimension (_gathers).  All of it, the real basis of ring and the curvature
arrays of bogomolov are one text for both array types; GaussianRationals
appear only where values are handed out (.coeffs, serialization).

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
from functools import lru_cache, reduce, wraps

import numpy as np

from .errors import ConfigError, DegreeError
from .linalg import _matrix, _unhermitian, inertia
from .scalars import (
    BEYOND_FLOAT, ExactArray, GaussianRational, float_array, float_value, i_power, imag_part,
    is_exact, magnitude, negligible, real_part, to_complex,
)
from .verdict import DEGENERATE, FAIL, PASS, Verdict

# the keyed constructor refuses forms of more coefficients (a (10,10)-form on
# C^20 has 3.4e10); a pair on C^14 has 8281 at most
MAX_FORM_ENTRIES = 2 ** 20


@lru_cache(maxsize=None)
def _subset_index(d, p):
    """{I: position} of the p-subsets I of range(d), in combinations order."""
    return {I: i for i, I in enumerate(itertools.combinations(range(d), p))}


def _zeros(shape, exact):
    """The zero coefficient array: an ExactArray, or complex."""
    if exact:
        return ExactArray(np.zeros(shape, dtype=object), np.zeros(shape, dtype=object))
    return np.zeros(shape, dtype=complex)


def _promote(*arrays):
    """The coefficient arrays in one backend: exact when all are, else complex."""
    if all(isinstance(X, ExactArray) for X in arrays):
        return arrays
    return tuple(X.astype(complex, copy=False) for X in arrays)


def _scaled(Z, c):
    """Z * c for a complex array Z and a scalar c, each part rounded as
    Python rounds complex * complex: numpy's complex product may fuse a
    multiply and an add, and a form's coefficients must not depend on it."""
    c = float_value(c)
    out = np.empty(Z.shape, dtype=complex)
    out.real = Z.real * c.real - Z.imag * c.imag
    out.imag = Z.real * c.imag + Z.imag * c.real
    return out


def _hermitian(Z, p):
    """H = i^(-p^2) Z for the coefficient matrix Z of a (p,p)-form, or a stack
    of them on the last two axes, Hermitian exactly when the form is real:
    Z for even p, -i Z for odd p by products of parts by 0 and -1 (_scaled),
    so that its gaps are the reality condition's times 1 or -i, bit for bit."""
    if p % 2 == 0:
        return Z
    return Z * (GaussianRational(0, -1) if isinstance(Z, ExactArray) else -1j)


def _peak(X):
    """The entry of X of largest modulus: for a float X that modulus, for an
    exact X the entry itself, so that scalars.negligible decides it exactly;
    0 for an empty X.  The one array rule of the residual checks."""
    if isinstance(X, ExactArray):
        return X.item(np.argmax((X.re * X.re + X.im * X.im).ravel())) if X.re.size else 0
    return float(np.abs(X).max(initial=0.0))


def _frozen(X):
    """X, made read-only when it is an array (an ndarray or both parts of an
    ExactArray)."""
    if isinstance(X, (np.ndarray, ExactArray)):
        X.setflags(write=False)
    return X


def _memoized(rule):
    """rule(form, *args) read through the form's memo: computed on the first
    read for each args and frozen, since every later read shares it.  A
    form's coefficients are read-only, so no entry goes stale.  The reader's
    seed(form, value, *args) stores a value known when the form is made."""

    @wraps(rule)
    def read(form, *args):
        memo, key = form._memo, (read, args)
        if key not in memo:
            memo[key] = _frozen(rule(form, *args))
        return memo[key]

    def seed(form, value, *args):
        form._memo[read, args] = _frozen(value)

    read.seed = seed
    return read


@_memoized
def _unreal_at(form):
    """The first (I, J) where the form's _hermitian matrix breaks _unhermitian
    (1e-9 relative in floats), or None; _top_form's and _mid_form's are real."""
    rows, cols = _unhermitian(_hermitian(form.Z, form.p), 1e-9).nonzero()
    subsets = list(_subset_index(form.dim, form.p))
    return (subsets[rows[0]], subsets[cols[0]]) if len(rows) else None


def _json_indices(at):
    """The 0-based (I, J) of _unreal_at as form JSON names them, 1-based."""
    return "I = {}, J = {}".format(*([i + 1 for i in S] for S in at))


def _require_real(form, name, d, k):
    """DegreeError unless form, named name, is a (k,k)-form on C^d, and
    ConfigError naming its first gap, 1-based, unless _unreal_at finds it
    real: the one refusal of a non-real form."""
    if (form.dim, form.p, form.q) != (d, k, k):
        raise DegreeError(f"{name} must be a ({k},{k})-form on C^{d}, got {form!r}")
    at = _unreal_at(form)
    if at is not None:
        raise ConfigError(f"{name} is not a real form: it fails the reality condition at "
                          f"{_json_indices(at)}")


def _float_form(form, name):
    """form for a float decision: an exact form's complex copy (float_array),
    naming name and the 1-based I, J of a coefficient beyond float range."""
    if not form.is_exact():
        return form
    try:
        return PPForm._of(form.dim, form.p, form.q, float_array(form.Z, complex))
    except ConfigError:
        at = next(key for key, c in form.coeffs.items() if not np.isfinite(to_complex(c)))
        raise ConfigError(f"{name} coefficient at {_json_indices(at)} {BEYOND_FLOAT}") from None


class PPForm:
    """Constant-coefficient (p,q)-form on C^d, stored as its coefficient
    matrix Z (see the module docstring).

    A form is a value: Z is read-only from the moment the form is made, both
    parts of an ExactArray included, and _memo holds what is derived from Z
    (_memoized: the intersection numbers _top_functional and _mid_gram,
    the realness check _unreal_at, ring.real_coordinates and
    hrcheck._kahler_inertia), each computed at most once per form; the
    forms of _top_form and _mid_form carry theirs from the start.
    """

    __slots__ = ("dim", "p", "q", "Z", "_memo")

    def __init__(self, dim, p, q, coeffs=None):
        """The form sum c dz_I wedge dzbar_J over {(I, J): c}, the keys
        strictly increasing index tuples of lengths p and q in range(dim):
        exact when every c is (int, Fraction or GaussianRational), complex
        (float_array) otherwise."""
        self.dim, self.p, self.q = d, p, q = int(dim), int(p), int(q)
        if p < 0 or q < 0:
            raise DegreeError(f"bidegree ({p},{q}) is negative")
        size = math.comb(d, p) * math.comb(d, q)
        if size > MAX_FORM_ENTRIES:
            raise DegreeError(f"a ({p},{q})-form on C^{d} has {size} coefficients, "
                              f"above {MAX_FORM_ENTRIES}")
        rows, cols = _subset_index(d, p), _subset_index(d, q)
        coeffs = coeffs or {}
        for I, J in coeffs:
            self._check_key(I, J)
        Z = np.zeros((len(rows), len(cols)), dtype=object)
        for (I, J), c in coeffs.items():
            Z[rows[tuple(I)], cols[tuple(J)]] = c
        exact = all(map(is_exact, coeffs.values()))
        self.Z = _frozen(ExactArray.of(Z) if exact else float_array(Z, complex))
        self._memo = {}

    def _check_key(self, I, J):
        for S, n in ((I, self.p), (J, self.q)):
            if len(S) != n or any(S[i] >= S[i + 1] for i in range(len(S) - 1)):
                raise DegreeError(f"index tuple {S} is not strictly increasing of length {n}")
            if S and (S[0] < 0 or S[-1] >= self.dim):
                raise DegreeError(f"index tuple {S} out of range for dimension {self.dim}")

    @classmethod
    def _of(cls, dim, p, q, Z):
        """The form with coefficient matrix Z, unchecked and made read-only:
        for the results of the program's own arithmetic."""
        form = cls.__new__(cls)
        form.dim, form.p, form.q, form.Z, form._memo = dim, p, q, _frozen(Z), {}
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

    @property
    def coeffs(self):
        """{(I, J): c} of the nonzero coefficients, built from Z on each
        read: complex, or GaussianRational when exact."""
        rows, cols = list(_subset_index(self.dim, self.p)), list(_subset_index(self.dim, self.q))
        Z = self.Z
        return {(rows[i], cols[j]): Z.item(i, j) for i, j in zip(*Z.nonzero())}

    def is_zero(self):
        return not len(self.Z.nonzero()[0])

    def is_exact(self):
        return isinstance(self.Z, ExactArray)

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
        A, B = _promote(self.Z, other.Z)
        return PPForm._of(self.dim, self.p, self.q, A + B)

    def __neg__(self):
        return PPForm._of(self.dim, self.p, self.q, -self.Z)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Wedge product with a form; with a scalar, exact only when both are."""
        if isinstance(other, PPForm):
            return wedge(self, other)
        Z = self.Z
        if isinstance(Z, ExactArray) and is_exact(other):
            return PPForm._of(self.dim, self.p, self.q, Z * other)
        return PPForm._of(self.dim, self.p, self.q, _scaled(Z.astype(complex, copy=False), other))

    def __rmul__(self, other):
        if isinstance(other, PPForm):
            return NotImplemented
        return self * other

    def __eq__(self, other):
        if not (isinstance(other, PPForm)
                and (self.dim, self.p, self.q) == (other.dim, other.p, other.q)):
            return False
        A, B = _promote(self.Z, other.Z)
        if isinstance(A, ExactArray):
            return not len((A - B).nonzero()[0])
        return bool(np.array_equal(A, B))

    def conj(self):
        """Complex conjugate, a (q,p)-form."""
        Z = self.Z.conj().T
        return PPForm._of(self.dim, self.q, self.p, -Z if self.p * self.q % 2 else Z)

    def is_real(self, tol=0.0):
        """Is self == self.conj(), to tol relative to max(max_abs, 1)?  Exact
        forms are real only when every gap is exactly 0 (_unhermitian)."""
        return self.p == self.q and not _unhermitian(_hermitian(self.Z, self.p), tol).any()

    def max_abs(self):
        """Largest |coefficient| as a float, inf beyond float range."""
        return magnitude(_peak(self.Z))

    def __repr__(self):
        n = len(self.Z.nonzero()[0])
        return f"PPForm(dim={self.dim}, bidegree=({self.p},{self.q}), {n} terms)"


def wedge(x, y):
    """Wedge product; silently zero when the bidegree overflows the dimension.

    With S = _merge_signs(d, p1, p2) and T = _merge_signs(d, q1, q2), the
    coefficient matrices Z of x and W of y multiply to
    V[k, l] = (-1)^(q1 p2) sum S[k, a, b] T[l, c, e] Z[a, c] W[b, e],
    moving dzbar_J1 past dz_I2 for every pair of terms at once; an exact
    factor meeting a float one is read in complex.
    """
    if x.dim != y.dim:
        raise DegreeError(f"forms live on C^{x.dim} and C^{y.dim}")
    d, p, q = x.dim, x.p + y.p, x.q + y.q
    if p > d or q > d:
        return PPForm.zero(d, min(p, d), min(q, d))
    Z, W = _promote(x.Z, y.Z)
    V = np.tensordot(_merge_signs(d, x.p, y.p), Z, axes=(1, 0))  # V[k, b, c]: sum over a
    V = np.tensordot(V, W, axes=(1, 0))  # V[k, c, e]: sum over b
    V = np.tensordot(V, _merge_signs(d, x.q, y.q), axes=((1, 2), (1, 2)))  # V[k, l]
    return PPForm._of(d, p, q, -V if x.q * y.p % 2 else V)


@lru_cache(maxsize=None)
def _merge_signs(d, p, q):
    """Read-only int8 S with dz_I wedge dz_J = S[k, i, j] dz_K, K the k-th (p+q)-subset.

    I and J are the i-th p-subset and the j-th q-subset of range(d); S is 0
    where they meet, and otherwise the sign of the sort of I + J, (-1) to
    the number of pairs a in I, b in J with a > b.  Integer, so that exact
    products stay exact; a float product casts it to complex, as it would a
    float table.
    """
    out, left, right = (_subset_index(d, k) for k in (p + q, p, q))
    S = np.zeros((len(out), len(left), len(right)), dtype=np.int8)
    for I, i in left.items():
        for J, j in right.items():
            if not set(I) & set(J):
                inversions = sum(1 for a in I for b in J if a > b)
                S[out[tuple(sorted(I + J))], i, j] = (-1) ** inversions
    S.flags.writeable = False
    return S


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


@lru_cache(maxsize=None)
def _gathers(d, k, exact):
    """(index, factor, back_index, back_factor), read-only, for k = 1 or 2.

    The intersection tensor T of a (d-k,d-k)-form with coefficient matrix Z,
    T[a1, b1, ..., ak, bk] = int(dz_a1 ^ dzbar_b1 ^ ... ^ dz_ak ^ dzbar_bk ^
    form), is factor * Z.ravel()[index]: with (Q, tau) = _complements(d, k),
    index = Q[A] C(d, k) + Q[B] and factor = u tau[A] tau[B] for the volume
    unit u = _volume_unit(d) times the sign of moving the dzbar_b past the
    dz_a, (-1)^(d-1) for k = 1 and -1 for k = 2.  Conversely Z =
    back_factor * T.ravel()[back_index], read at the increasing A and B
    (the rows R), with conj(u) = 1/u.  The factors are complex, or
    ExactArrays of Gaussian integers for the exact backend.
    """
    Q, tau, R = _complements(d, k)
    n = math.comb(d, k)
    u = _volume_unit(d, False) * ((-1) ** (d - 1) if k == 1 else -1)

    def times(unit, signs):  # unit * signs in the backend's array type
        re, im = int(unit.real) * signs, int(unit.imag) * signs
        return ExactArray(re.astype(object), im.astype(object)) if exact else re + 1j * im

    # T's axes interleave A and B: A on the even axes, B on the odd ones
    rows, cols = (d, 1) * k, (1, d) * k
    index = Q.reshape(rows) * n + Q.reshape(cols)
    at = R @ d ** np.arange(2 * k - 2, -1, -2)  # R[i]'s flat offset on B's axes, d times it on A's
    sign = tau[tuple(R.T)]
    return tuple(map(_frozen, (index, times(u, tau.reshape(rows) * tau.reshape(cols)),
                               at[:, None] * d + at, times(u.conjugate(), np.outer(sign, sign)))))


@_memoized
def _top_functional(omega_top):
    """m[a, b] = int(dz_a ^ dzbar_b ^ omega_top) for a (d-1,d-1)-form omega_top.

    An ExactArray for exact omega_top, complex otherwise; so is _mid_gram.
    Moving dzbar_b past the d-1 dz's of a coefficient gives (-1)^(d-1).
    """
    index, factor, _, _ = _gathers(omega_top.dim, 1, omega_top.is_exact())
    return factor * omega_top.Z.ravel()[index]


@_memoized
def _mid_gram(omega_mid):
    """G[a, b, c, e] = int(dz_a ^ dzbar_b ^ dz_c ^ dzbar_e ^ omega_mid); moving
    dzbar_b past dz_c gives the sign -1."""
    index, factor, _, _ = _gathers(omega_mid.dim, 2, omega_mid.is_exact())
    return factor * omega_mid.Z.ravel()[index]


def _top_form(m):
    """The (d-1,d-1)-form whose _top_functional is m, read at the rows R;
    m, of a real form (as hrcheck.schur_tensors' is), is its memo's _top_functional."""
    d = len(m)
    _, _, index, factor = _gathers(d, 1, isinstance(m, ExactArray))
    form = PPForm._of(d, d - 1, d - 1, factor * m.ravel()[index])
    _top_functional.seed(form, m)
    _unreal_at.seed(form, None)
    return form


def _mid_form(G):
    """The (d-2,d-2)-form whose _mid_gram is G, read at the pairs R; G, of a
    real form, is its memo's _mid_gram."""
    d = len(G)
    _, _, index, factor = _gathers(d, 2, isinstance(G, ExactArray))
    form = PPForm._of(d, d - 2, d - 2, factor * G.ravel()[index])
    _mid_gram.seed(form, G)
    _unreal_at.seed(form, None)
    return form


def wedge_all(forms, dim=None, exact=True):
    """The wedge of the forms in order; PPForm.one(dim, exact) of none."""
    forms = list(forms)
    if forms:
        return reduce(wedge, forms)
    if dim is None:
        raise ConfigError("empty wedge needs an explicit dimension")
    return PPForm.one(dim, exact=exact)


def integrate_top(form):
    """Integral of a real (d,d)-form under int prod_j (i dz_j dzbar_j) = 1.

    Returns a Fraction in the exact backend, a float otherwise.  An
    imaginary part that is not negligible (beyond 1e-9 relative in floats,
    nonzero in rationals) raises ConfigError: the form is not real.
    """
    d = form.dim
    if form.p != d or form.q != d:
        raise DegreeError(f"integrating a ({form.p},{form.q})-form on C^{d}")
    value = form.Z.item(0, 0) * _volume_unit(d, form.is_exact())
    im = imag_part(value)
    if not negligible(im, 0.0 if form.is_exact() else 1e-9 * max(1.0, abs(value))):
        raise ConfigError(f"the form is not real: its integral has imaginary part {im}")
    return real_part(value)


def form_from_hermitian(H, exact=None):
    """(1,1)-form i * sum H[j][k] dz_j dzbar_k from a Hermitian matrix.

    H is any matrix-like (nested sequences, a numpy array or an ExactArray);
    the form is exact when every entry is, unless exact=False asks for
    complex.  Hermitian symmetry, the realness of the form, is checked
    exactly for exact entries (_require_real, naming the form i H and the
    first entry off it, 1-based) and not at all otherwise (callers
    symmetrize float input themselves if needed).
    """
    H = _matrix(H)
    if isinstance(H, ExactArray) and exact is not False:
        form = PPForm._of(len(H), 1, 1, H * GaussianRational(0, 1))
        _require_real(form, "i H", len(H), 1)
        return form
    if exact:
        raise ConfigError("i H is not exact: an exact form needs exact entries")
    return PPForm._of(len(H), 1, 1, _scaled(H.astype(complex, copy=False), 1j))


def hermitian_from_form(form):
    """H with form = i * sum H[j, k] dz_j dzbar_k, an ExactArray or complex;
    inverse of form_from_hermitian."""
    if (form.p, form.q) != (1, 1):
        raise DegreeError("expected a (1,1)-form")
    return _hermitian(form.Z, 1)


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
    _require_real(form, "form", d, d - 1)
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
    for (I, J), c in sorted(form.coeffs.items()):
        re, im = _scalar_to_json(c)
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
