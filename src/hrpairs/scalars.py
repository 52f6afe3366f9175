"""Exact complex scalars: Gaussian rationals a + b*i with Fraction parts.

The float backend uses Python ``complex`` directly.  GaussianRational
implements the same small protocol (+, -, *, /, ``conjugate``, ``.real``,
``.imag``) so the form and matrix code never has to branch on the backend.
Mixing a GaussianRational with a float or complex demotes the result to
``complex``.
"""

import math
from fractions import Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        if isinstance(other, GaussianRational):
            n = other.re * other.re + other.im * other.im
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return self * other.conjugate() / n
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


#: the imaginary unit of the exact backend
I = GaussianRational(0, 1)

_I_POWERS = (GaussianRational(1), I, GaussianRational(-1), GaussianRational(0, -1))


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
