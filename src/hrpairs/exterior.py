"""Constant-coefficient (p,q)-forms on C^d with two scalar backends.

A form is stored sparsely as coefficients c[I, J] of dz_I wedge dzbar_J with
I, J strictly increasing index tuples (0-based).  Coefficients are Python
complex (float backend) or GaussianRational (exact backend).

Conventions, all verified by brute-force oracles in the test suite:

  * conj(dz_I wedge dzbar_J) = (-1)^(p*q) dz_J wedge dzbar_I, so a (p,p)-form
    is real iff c[J, I] = (-1)^(p^2) * conj(c[I, J]);
  * the volume normalization is int prod_j (i dz_j wedge dzbar_j) = 1, i.e.
    the coefficient of dz_1..d wedge dzbar_1..d in the volume form is i^(d^2).
"""

import json
from fractions import Fraction

from .errors import ConsistencyError, DegreeError
from .linalg import det, float_signature, hermitian_rational_inertia
from .scalars import GaussianRational, conj, i_power, imag_part, is_exact, real_part
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
        return PPForm(self.dim, self.p, self.q, coeffs)

    def __neg__(self):
        return PPForm(self.dim, self.p, self.q, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PPForm):
            return wedge(self, other)
        return PPForm(
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
        return PPForm(
            self.dim,
            self.q,
            self.p,
            {(J, I): sign * conj(c) for (I, J), c in self.coeffs.items()},
        )

    def is_real(self, tol=0.0):
        diff = self - self.conj() if self.p == self.q else None
        if diff is None:
            return False
        if tol == 0.0:
            return diff.is_zero()
        return diff.max_abs() <= tol * max(self.max_abs(), 1.0)

    def max_abs(self):
        if not self.coeffs:
            return 0.0
        return max(abs(complex(c)) for c in self.coeffs.values())

    def prune(self, tol):
        """Drop coefficients below tol * max_abs (float noise cleanup)."""
        scale = self.max_abs()
        if scale == 0.0:
            return self
        return PPForm(
            self.dim,
            self.p,
            self.q,
            {k: c for k, c in self.coeffs.items() if abs(complex(c)) > tol * scale},
        )

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
    cross = (-1) ** (x.q * y.p)
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
    return PPForm(x.dim, p, q, coeffs)


def wedge_all(forms, dim=None, exact=True):
    acc = None
    for f in forms:
        acc = f if acc is None else wedge(acc, f)
    if acc is None:
        if dim is None:
            raise ValueError("empty wedge needs an explicit dimension")
        return PPForm.one(dim, exact=exact)
    return acc


def integrate_top(form, allow_complex=False, tol=1e-9):
    """Integral of a (d,d)-form under int prod_j (i dz_j dzbar_j) = 1.

    Returns a Fraction in the exact backend, a float otherwise.  Unless
    allow_complex is set, a nonzero imaginary part (beyond tol relative in
    floats, exactly in rationals) raises ConsistencyError.
    """
    d = form.dim
    if form.p != d or form.q != d:
        raise DegreeError(f"integrating a ({form.p},{form.q})-form on C^{d}")
    full = tuple(range(d))
    c = form.coeffs.get((full, full), None)
    if c is None:
        return Fraction(0) if form.is_exact() else 0.0
    value = c * i_power(-(d * d)) if is_exact(c) else complex(c) * (1j ** (-(d * d) % 4))
    if allow_complex:
        return value
    re, im = real_part(value), imag_part(value)
    if is_exact(value):
        if im != 0:
            raise ConsistencyError(f"integral of a supposedly real form is {value}")
        return re
    if abs(im) > tol * max(1.0, abs(complex(value))):
        raise ConsistencyError(f"integral has imaginary part {im}")
    return re


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


def embed(form, new_dim):
    """The same form regarded on a larger C^new_dim (pullback under projection)."""
    if new_dim < form.dim:
        raise DegreeError(f"cannot embed a C^{form.dim} form into C^{new_dim}")
    return PPForm(new_dim, form.p, form.q, dict(form.coeffs))


def extend_hat(form, theta_coeff):
    """Extend a (1,1)-form to C^(d+1) adding theta_coeff * i dz_(d+1) dzbar_(d+1).

    With theta_coeff = 0 any bidegree is accepted (pure pullback).
    """
    out = embed(form, form.dim + 1)
    if theta_coeff == 0:
        return out
    if (form.p, form.q) != (1, 1):
        raise DegreeError("nonzero hat extension only makes sense for (1,1)-forms")
    exact = form.is_exact() and is_exact(theta_coeff)
    i_unit = GaussianRational(0, 1) if exact else 1j
    theta = PPForm(out.dim, 1, 1, {((form.dim,), (form.dim,)): i_unit * theta_coeff})
    return out + theta


def restrict_to_plane(form, frame, tol=1e-9):
    """Value of a (p,p)-form on the complex p-plane spanned by frame.

    Normalized so that omega_std^p / p! takes value 1 on a unitary frame;
    weak positivity of the form means this is >= 0 for every frame.
    """
    p = form.p
    if form.q != p:
        raise DegreeError("restriction needs a (p,p)-form")
    if len(frame) != p:
        raise DegreeError(f"need {p} spanning vectors, got {len(frame)}")
    frame = [list(v) for v in frame]
    if any(len(v) != form.dim for v in frame):
        raise DegreeError("frame vectors must have one entry per coordinate")
    dets = {}

    def minor_det(I):
        if I not in dets:
            dets[I] = det([[frame[a][i] for a in range(p)] for i in I], 1)
        return dets[I]

    acc = None
    for (I, J), c in form.coeffs.items():
        term = c * minor_det(I) * conj(minor_det(J))
        acc = term if acc is None else acc + term
    if acc is None:
        return Fraction(0) if form.is_exact() else 0.0
    value = acc * i_power(-(p * p)) if is_exact(acc) else complex(acc) * (1j ** (-(p * p) % 4))
    re, im = real_part(value), imag_part(value)
    if is_exact(value):
        if im != 0:
            raise ConsistencyError(f"restriction of a real form came out complex: {value}")
        return re
    if abs(im) > tol * max(1.0, abs(complex(value))):
        raise ConsistencyError(f"restriction has imaginary part {im}")
    return re


def positivity_dminus1(form, zero_tol=1e-9):
    """Strict positivity check for a (d-1,d-1)-form.

    Pairs the form against i dz_j dzbar_k to get a Hermitian matrix; the form
    is strictly positive iff that matrix is positive definite.  In the exact
    backend the inertia is computed rationally and the eigenvalues are float
    evidence only.
    """
    d = form.dim
    if (form.p, form.q) != (d - 1, d - 1):
        raise DegreeError(f"expected a ({d - 1},{d - 1})-form on C^{d}")
    exact = form.is_exact()
    i_unit = GaussianRational(0, 1) if exact else 1j
    H = []
    for j in range(d):
        row = []
        for k in range(d):
            probe = PPForm.monomial(d, (j,), (k,), i_unit)
            row.append(integrate_top(wedge(form, probe), allow_complex=True))
        H.append(row)
    Hf = [[complex(x) for x in row] for row in H]
    if exact:
        sig = hermitian_rational_inertia(H)
        _, eigs = float_signature(Hf, zero_tol)
    else:
        sig, eigs = float_signature(Hf, zero_tol)
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
        witness={} if outcome == PASS else {"pairing_matrix": Hf},
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
