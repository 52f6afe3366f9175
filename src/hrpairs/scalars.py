"""Exact complex scalars: Gaussian rationals (a + b*i)/n over Python ints.

The float backend uses Python ``complex`` directly.  GaussianRational
implements the same small protocol (+, -, *, /, ``conjugate``, ``.real``,
``.imag``) so the form and matrix code never has to branch on the backend.
Mixing a GaussianRational with a float or complex demotes the result to
``complex``.
"""

import math
from fractions import Fraction


def from_parts(a, b, n):
    """The GaussianRational (a + b*i)/n for ints a, b and n > 0, divided by
    gcd(a, b, n): the one normal form."""
    x = object.__new__(GaussianRational)
    g = math.gcd(a, b, n)
    if g == 1:
        x._a, x._b, x._n = a, b, n
    else:
        x._a, x._b, x._n = a // g, b // g, n // g
    return x


class GaussianRational:
    """The exact complex number (a + b*i)/n, stored as Python ints a, b, n.

    Every value has one normal form, n > 0 and gcd(a, b, n) = 1, so equal
    values have equal fields; each result costs one gcd.  The parts
    .re/.real and .im/.imag are Fractions.
    """

    __slots__ = ("_a", "_b", "_n")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._n = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        # re and im in lowest terms: (re*n, im*n, n) for n = lcm(p, q) share no factor
        n = math.lcm(p, q)
        self._a, self._b, self._n = re.numerator * (n // p), im.numerator * (n // q), n

    @property
    def re(self):
        return Fraction(self._a, self._n)

    @property
    def im(self):
        return Fraction(self._b, self._n)

    real, imag = re, im

    def conjugate(self):
        return from_parts(self._a, -self._b, self._n)

    def __add__(self, other):
        a, b, n = self._a, self._b, self._n
        if isinstance(other, GaussianRational):
            m = other._n
            if m == n:
                return from_parts(a + other._a, b + other._b, n)
            return from_parts(a * m + other._a * n, b * m + other._b * n, n * m)
        if isinstance(other, (int, Fraction)):
            q = other.denominator
            return from_parts(a * q + other.numerator * n, b * q, n * q)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return from_parts(-self._a, -self._b, self._n)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b, n = self._a, self._b, self._n
        if isinstance(other, GaussianRational):
            c, e = other._a, other._b
            return from_parts(a * c - b * e, a * e + b * c, n * other._n)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return from_parts(a * p, b * p, n * other.denominator)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            c, e, m = other._a, other._b, other._n
            norm = c * c + e * e
            if norm == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            a, b = self._a * m, self._b * m
            return from_parts(a * c + b * e, b * c - a * e, self._n * norm)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if p == 0:
                raise ZeroDivisionError("division by zero")
            if p < 0:
                p, q = -p, -q
            return from_parts(self._a * q, self._b * q, self._n * p)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._n == other._n
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._n == other.denominator
                    and self._a == other.numerator)
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(Fraction(self._a, self._n))
        return hash((self._a, self._b, self._n))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does
        return complex(self._a / self._n, self._b / self._n)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return f"{re}"
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re} {sign} {abs(im)}*i"


#: the imaginary unit of the exact backend
I = GaussianRational(0, 1)

_I_POWERS = (GaussianRational(1), I, GaussianRational(-1), GaussianRational(0, -1))


def parts(x):
    """Ints (a, b, n) with x = (a + b*i)/n, n > 0 and gcd(a, b, n) = 1, for an
    exact x: int, Fraction or GaussianRational; inverse of from_parts."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._n
    return x.numerator, 0, x.denominator


def i_power(k):
    """i**k as an exact Gaussian rational (k may be negative)."""
    return _I_POWERS[k % 4]


def is_exact(x):
    """True when x belongs to the exact backend (rational or Gaussian rational)."""
    if isinstance(x, (float, complex)):  # isinstance against Fraction, an ABC, is slow
        return False
    return isinstance(x, (int, Fraction, GaussianRational))


def conj(x):
    """Complex conjugate working across both scalar backends."""
    if isinstance(x, (int, float, Fraction)):
        return x
    return x.conjugate()


def real_part(x):
    if isinstance(x, (int, float, Fraction)):
        return x
    return x.real


def imag_part(x):
    if isinstance(x, (int, float, Fraction)):
        return 0
    return x.imag


def to_float(x):
    """float(x) for a real x, saturating to +-inf beyond float range.

    For float evidence and scales drawn from exact values only; no exact
    decision goes through it.
    """
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def to_complex(x):
    """complex(x), each part saturating like to_float."""
    return complex(to_float(real_part(x)), to_float(imag_part(x)))


def magnitude(x):
    """|x| as a float, saturating to inf beyond float range (see to_float)."""
    try:
        return abs(to_complex(x))
    except OverflowError:
        return math.inf


def negligible(x, bound):
    """Is |x| <= bound?  The one rule by which every check compares a value
    with its tolerance.

    bound is the float backend's tolerance times its scale; the exact
    backend's tolerance is 0, so an exact x is negligible only when x == 0,
    decided exactly and never after conversion to float.
    """
    if is_exact(x):
        return x == 0
    return abs(x) <= bound
