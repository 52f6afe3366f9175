"""Symmetric function calculus in the elementary symmetric basis.

A SymPoly is a polynomial in the elementary symmetric functions e_1..e_e of a
fixed number e of variables, with exact Fraction coefficients.  Under the
usual dictionary e_k <-> c_k this is the same thing as a universal polynomial
in Chern classes of a rank-e bundle.

The shift of p is p(x_1 + t, ..., x_e + t) collected by powers of t,

    p(x + t) = sum_i t^i p^(i),

and p^(1) is the derived polynomial p'.  By Taylor's theorem p(x + t) = exp(tD) p
for the derivation D = sum_i d/dx_i, and D e_k = (e - k + 1) e_(k-1): each term
x_T of e_(k-1) comes from the e - k + 1 terms x_(T+i), i not in T, of e_k.
"""

import itertools
from fractions import Fraction
from math import comb

from .errors import ConfigError, DegreeError
from .linalg import det


class Partition:
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ConfigError(f"negative part in partition {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ConfigError(f"parts not weakly decreasing: {parts}")
        self.parts = parts

    @classmethod
    def parse(cls, text):
        """Parse a comma-separated list like "2,1,1"; empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = [int(x) for x in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse partition {text!r}") from exc
        return cls(parts)

    @property
    def weight(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def conjugate(self):
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for p in self.parts if p > i) for i in range(self.parts[0]))
        )

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


class SymPoly:
    """Polynomial in e_1..e_e with Fraction coefficients.

    terms maps exponent tuples (m_1, ..., m_j) -> coefficient, where m_k is
    the power of e_k and m_j > 0 (j <= e; the unit is ()), so no arithmetic
    cost grows with e.  The constructor and coefficient cut longer tuples to
    that key.  Zero coefficients are never stored.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars, terms=None):
        self.num_vars = int(num_vars)
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    mono = _cut(mono)
                    if len(mono) > self.num_vars:
                        raise DegreeError(
                            f"exponent tuple {mono} uses e_{len(mono)}, past {self.num_vars} variables"
                        )
                    self.terms[mono] = c

    @classmethod
    def _of(cls, num_vars, terms):
        """The polynomial of terms without the constructor's checks, zero
        coefficients dropped: for the results of the class's own arithmetic,
        whose coefficients are Fractions on cut keys within num_vars."""
        poly = cls.__new__(cls)
        poly.num_vars, poly.terms = num_vars, {m: c for m, c in terms.items() if c}
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars):
        return cls(num_vars)

    @classmethod
    def one(cls, num_vars):
        return cls(num_vars, {(): Fraction(1)})

    @classmethod
    def constant(cls, num_vars, c):
        return cls(num_vars, {(): Fraction(c)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def weight(self):
        """Common weight of all monomials; DegreeError if inhomogeneous."""
        weights = {sum((k + 1) * m for k, m in enumerate(mono)) for mono in self.terms}
        if not weights:
            return 0
        if len(weights) > 1:
            raise DegreeError(f"polynomial is not homogeneous: weights {sorted(weights)}")
        return weights.pop()

    def coefficient(self, mono):
        return self.terms.get(_cut(mono), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if self.num_vars != other.num_vars:
            raise DegreeError(
                f"mixing polynomials in {self.num_vars} and {other.num_vars} variables"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymPoly.constant(self.num_vars, other)
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return SymPoly._of(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly._of(self.num_vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymPoly._of(self.num_vars, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._check_compatible(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in itertools.zip_longest(m1, m2, fillvalue=0))
                terms[m] = terms.get(m, 0) + c1 * c2
        return SymPoly._of(self.num_vars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): other} if other else {})
        return (
            isinstance(other, SymPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    # -- output ------------------------------------------------------------

    def __str__(self):
        """Canonical text form, e-monomials sorted lexicographically descending."""
        if not self.terms:
            return "0"
        chunks = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            factors = [
                f"e{k + 1}" if m == 1 else f"e{k + 1}^{m}"
                for k, m in enumerate(mono)
                if m
            ]
            body = "*".join(factors)
            if not body:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            chunks.append((sign, piece))
        first_sign, first = chunks[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, piece in chunks[1:]:
            out += f" {sign} {piece}"
        return out

    def __repr__(self):
        return f"SymPoly[{self.num_vars}]({self})"


def _cut(mono):
    """The exponent tuple mono up to its last nonzero entry: the key of its e-monomial."""
    mono = tuple(mono)
    return mono[:max((k + 1 for k, m in enumerate(mono) if m), default=0)]


def elementary(k, num_vars):
    """e_k as a SymPoly; zero when k exceeds the number of variables."""
    if k < 0 or k > num_vars:
        return SymPoly.zero(num_vars)
    if k == 0:
        return SymPoly.one(num_vars)
    return SymPoly(num_vars, {(0,) * (k - 1) + (1,): Fraction(1)})


def complete_homogeneous(k, num_vars):
    """h_k in the elementary basis: the Segre class s_k of the Chern classes
    e_1, e_2, ... (segre_from_chern)."""
    if k < 0:
        return SymPoly.zero(num_vars)
    chern = [elementary(i, num_vars) for i in range(min(k, num_vars) + 1)]
    return segre_from_chern(chern, upto=k)[k]


def schur(lam, num_vars):
    """Schur polynomial s_lam in num_vars variables, in the e-basis.

    Dual Jacobi-Trudi: s_lam = det(e_{lam'_i - i + j}) over the conjugate
    partition.  Identically zero when lam has more than num_vars rows.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > num_vars:
        return SymPoly.zero(num_vars)
    if not lam.parts:
        return SymPoly.one(num_vars)
    mu = lam.conjugate().parts
    n = len(mu)
    rows = [
        [elementary(mu[i] - i + j, num_vars) for j in range(n)] for i in range(n)
    ]
    return det(rows, SymPoly.one(num_vars))


class RingTPoly:
    """Polynomial in one formal variable t with coefficients in any ring.

    Coefficients only need +, * and scalar multiples; ring-element
    coefficients compare pushforwards of (xi + t h)^N with twisted Segre
    classes as exact polynomials in t.
    """

    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs, zero):
        coeffs = list(coeffs)
        while coeffs and _looks_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = coeffs
        self.zero = zero

    @classmethod
    def variable(cls, one):
        z = one * 0
        return cls([z, one], z)

    def degree(self):
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.zero

    def __add__(self, other):
        if not isinstance(other, RingTPoly):
            # lift ring elements / scalars to constant polynomials
            other = RingTPoly([other], self.zero)
        n = max(len(self.coeffs), len(other.coeffs))
        return RingTPoly([self[i] + other[i] for i in range(n)], self.zero)

    __radd__ = __add__

    def __neg__(self):
        return RingTPoly([-c for c in self.coeffs], self.zero)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingTPoly):
            n = len(self.coeffs) + len(other.coeffs)
            out = [self.zero] * max(n - 1, 0)
            for i, a in enumerate(self.coeffs):
                if _looks_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    if _looks_zero(b):
                        continue
                    out[i + j] = out[i + j] + a * b
            return RingTPoly(out, self.zero)
        return RingTPoly([c * other for c in self.coeffs], self.zero)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = None
        for _ in range(n):
            out = self if out is None else out * self
        if out is None:
            raise DegreeError("RingTPoly ** 0 needs a unit; multiply explicitly")
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RingTPoly)
            and len(self.coeffs) == len(other.coeffs)
            and all(_looks_zero(a - b) for a, b in zip(self.coeffs, other.coeffs))
        )


def _looks_zero(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def derived(p, order=1):
    """Coefficient p^(order) of t^order in p(x + t), as D^order p / order!.

    D is a derivation and D e_k = (e - k + 1) e_(k-1) (module docstring), so each
    order is one pass over the e-monomials: D^j p / j! = D(D^(j-1) p / (j-1)!) / j.
    """
    if order < 0 or (not p.is_zero() and order > p.weight):
        raise DegreeError(f"derived order {order} out of range for weight {p.weight}")
    e, terms = p.num_vars, p.terms
    for j in range(1, order + 1):
        out = {}
        for mono, c in terms.items():
            for k in range(len(mono)):  # D e_(k+1) = (e - k) e_k, e_0 = 1
                if mono[k]:
                    lower = _cut(m - (i == k) + (i == k - 1) for i, m in enumerate(mono))
                    out[lower] = out.get(lower, 0) + c * mono[k] * (e - k)
        terms = {mono: c / j for mono, c in out.items()}
    return SymPoly._of(e, terms)


class ChernVector:
    """Total Chern class of a rank-e object: entries c_0..c_e, c_0 the unit.

    Entries can live in any commutative graded ring (RingElement, PPForm,
    SymPoly, plain rationals) as long as they support + and *.
    """

    __slots__ = ("rank", "classes")

    def __init__(self, rank, classes):
        classes = list(classes)
        if len(classes) != rank + 1:
            raise DegreeError(
                f"rank {rank} needs {rank + 1} entries c_0..c_{rank}, got {len(classes)}"
            )
        self.rank = rank
        self.classes = classes

    def __getitem__(self, k):
        return self.classes[k]

    def __iter__(self):
        return iter(self.classes)


def twist_chern(chern, t, h):
    """Chern classes of the R-twist A<t*h>.

    c_p(A<t*h>) = sum_k C(e-k, p-k) c_k(A) (t*h)^(p-k) for a degree-one class
    h from the same ring as the entries of chern.  t is usually a rational
    number, but any commutative scalar-like object works (a formal-parameter
    polynomial, say), which is how twists with symbolic t are computed.
    """
    e = chern.rank
    tpow = [1]
    for _ in range(e):
        tpow.append(tpow[-1] * t)
    out = [chern[0]]
    for p in range(1, e + 1):
        acc = None
        for k in range(p + 1):
            n = comb(e - k, p - k)
            if n == 0:
                continue
            term = chern[k]
            for _ in range(p - k):
                term = term * h
            term = term * (n * tpow[p - k])
            acc = term if acc is None else acc + term
        out.append(acc)
    return ChernVector(e, out)


def invert_total_class(classes, upto=None):
    """Multiplicative inverse of a total class (c_0 the unit).

    s_0 = c_0 and s_k = -sum_{i=1..k} c_i s_{k-i}; the result satisfies
    (sum c_i)(sum s_j) = 1 in degrees <= upto.
    """
    classes = list(classes)
    if upto is None:
        upto = len(classes) - 1
    out = [classes[0]]
    for k in range(1, upto + 1):
        acc = None
        for i in range(1, k + 1):
            ci = classes[i] if i < len(classes) else None
            if ci is None:
                continue
            term = ci * out[k - i]
            acc = term if acc is None else acc + term
        out.append(classes[0] * 0 if acc is None else -acc)
    return out


def segre_from_chern(classes, upto=None):
    """Segre classes s_k = h_k(Chern roots): s_1 = c_1, s_2 = c_1^2 - c_2, ...

    Obtained by inverting the sign-alternated total class, which is the
    convention making s_k(A) the pushforward of xi^(e-1+k) from the
    projectivization.
    """
    alternated = [c * (1 if k % 2 == 0 else -1) for k, c in enumerate(classes)]
    return invert_total_class(alternated, upto=upto)


def evaluate(p, values, one):
    """Evaluate p at the degree-one values x_i = values[i].

    Elementary symmetric combinations are formed inside the target ring, so
    values can be ring elements, plain numbers or forms (hrcheck reads the
    Schur pairs of forms from a determinant instead).  one must be
    the multiplicative unit of that ring.  p may also be a sequence of
    polynomials; they share one set of e_k(values) and come back as a tuple.
    """
    polys = (p,) if isinstance(p, SymPoly) else tuple(p)
    for q in polys:
        if len(values) != q.num_vars:
            raise DegreeError(
                f"polynomial in {q.num_vars} variables evaluated at {len(values)} values"
            )
    # E[k] = e_k(values) by the one-variable-at-a-time recurrence
    E = [one]
    for v in values:
        nxt = [E[0]]
        for k in range(1, len(E) + 1):
            term = E[k - 1] * v
            if k < len(E):
                term = E[k] + term
            nxt.append(term)
        E = nxt
    out = tuple(_substitute(q, E, one) for q in polys)
    return out[0] if isinstance(p, SymPoly) else out


def evaluate_at_chern(p, chern):
    """Evaluate p with e_k replaced by the k-th entry of a ChernVector."""
    if chern.rank != p.num_vars:
        raise DegreeError(
            f"polynomial in {p.num_vars} variables fed rank-{chern.rank} Chern classes"
        )
    return _substitute(p, list(chern.classes), chern[0])


def _substitute(p, E, one):
    acc = None
    for mono, c in p.terms.items():
        term = one * c
        for k, m in enumerate(mono):
            for _ in range(m):
                term = term * E[k + 1]
        acc = term if acc is None else acc + term
    if acc is None:
        return one * 0
    return acc


def to_monomials(p):
    """Expansion in the x-monomial basis: exponent tuple -> coefficient.

    A polynomial of weight n in e variables has at most C(n + e - 1, e - 1)
    monomials, the size of the result; hrcheck reads the weights of its
    Schur-pair kernel from it.  Each e-monomial e_1^m_1 ... e_e^m_e of p is
    expanded in integers, as the expansion of the monomial with one factor
    e_k fewer (memoized, so that monomials share their prefixes) times e_k,
    and scaled by its coefficient once; only the e_k that p uses are listed.
    """
    e = p.num_vars
    top = max(map(len, p.terms), default=0)
    subsets = [[tuple(int(i in S) for i in range(e)) for S in itertools.combinations(range(e), k)]
               for k in range(top + 1)]
    memo = {(): {(0,) * e: 1}}

    def expand(mono):
        if mono not in memo:
            k = len(mono) - 1
            out = {}
            for m1, c in expand(_cut(mono[:k] + (mono[k] - 1,))).items():
                for m2 in subsets[k + 1]:
                    m = tuple(a + b for a, b in zip(m1, m2))
                    out[m] = out.get(m, 0) + c
            memo[mono] = out
        return memo[mono]

    total = {}
    for mono, c in p.terms.items():
        for m, n in expand(mono).items():
            total[m] = total.get(m, 0) + c * n
    return {m: Fraction(c) for m, c in total.items() if c}
