"""Exact numbers: Gaussian rationals (a + b*i)/n over Python ints, and arrays of them.

The float backend uses Python ``complex`` directly.  GaussianRational
implements the same small protocol (+, -, *, /, ``conjugate``, ``.real``,
``.imag``) so the form and matrix code never has to branch on the backend.
Mixing a GaussianRational with a float or complex demotes the result to
``complex`` (float_value).  ExactArray is the exact counterpart of a
complex ndarray: integer numerators over one denominator, which the dense
kernels, the verdict core and the exact linear algebra all run on;
float_array turns exact values into floats for a float decision.
"""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import ConfigError


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
            return float_value(self) + other
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
            return float_value(self) * other
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
            return float_value(self) / other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._n == other._n
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._n == other.denominator
                    and self._a == other.numerator)
        if isinstance(other, (float, complex)):  # exactly: a finite float is a Fraction
            other = complex(other)
            return bool(np.isfinite(other)) and self == GaussianRational(other.real, other.imag)
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


BEYOND_FLOAT = "does not fit in a float; decide with the exact backend"  # float_array's refusal


def float_value(x):
    """complex(x) for a number x that meets a float, each part correctly
    rounded: float_array's rule for one value."""
    try:
        return complex(x)
    except OverflowError:
        raise ConfigError(f"an exact value {BEYOND_FLOAT}") from None


def float_array(x, dtype, name=None):
    """x, an ExactArray (real for dtype float) or an object array of numbers,
    as an ndarray of dtype float or complex, each part correctly rounded: the
    one conversion of exact values for a float decision.  An entry beyond
    float range raises ConfigError naming its index (and name, if given)."""
    try:
        if not isinstance(x, ExactArray):
            return x.astype(dtype)
        out = np.empty(x.shape, dtype=dtype)
        out.real = x.re / x.den
        if out.dtype.kind == "c":
            out.imag = x.im / x.den
        return out
    except OverflowError:
        index = next(i for i in np.ndindex(x.shape) if not np.isfinite(to_complex(x[i])))
        what = f"{name} entry" if name else "entry"
        raise ConfigError(f"{what} {list(index)} {BEYOND_FLOAT}") from None


class ExactArray:
    """The exact array (re + i*im)/den of the exact backend: re and im are
    numpy object arrays of Python ints of one shape, den a Python int > 0,
    so entries never overflow.

    It does what the dense kernels ask of a complex ndarray, with numpy's
    meaning: indexing and assignment, iteration, reshape, ravel,
    transpose/.T, conj, copy, + and -, * by an array (entrywise) or by an
    exact scalar, / by an exact scalar, @, np.tensordot, np.einsum, np.vdot
    and np.stack of exact arrays.  A product is bilinear over the integers,
    so it runs on the parts, skipping an imaginary part that is zero; an
    integer ndarray factor (a _merge_signs table) is exact, and a float or
    complex one demotes the product to complex, as it would a
    GaussianRational.
    einsum is numpy's on the parts, in the order numpy picks: exact sums
    do not depend on it.  Values enter from nested lists of exact numbers
    (of) and leave as GaussianRationals (item, tolist, np.vdot), as the
    Fractions of their real parts (fractions), as complex (astype, which is
    float_array) or as float evidence that saturates beyond float range
    (saturated); the exact linear algebra and the ring kernels read the
    integer parts.  An assignment that changes den replaces the parts, so
    views taken before it no longer follow the array; setflags(write=False)
    makes both parts read-only, as the coefficients of a form are.
    """

    __slots__ = ("re", "im", "den")
    __array_ufunc__ = None  # ndarray operators defer to the reflected ones here

    def __init__(self, re, im, den=1):
        self.re, self.im = np.asarray(re, dtype=object), np.asarray(im, dtype=object)
        self.den = den

    @classmethod
    def _reduced(cls, re, im, den):
        """The array with den and the entries divided by their common factor.
        The parts may be np.int64 arrays, which become object arrays after
        the division; one whose entries are all 0 is not divided (a den
        beyond int64 would not convert), its den becomes 1."""
        if den != 1:
            g = math.gcd(den, *np.ravel(re).tolist(), *np.ravel(im).tolist())
            if g == den and not (np.any(re) or np.any(im)):
                den = 1
            elif g != 1:
                re, im, den = re // g, im // g, den // g
        return cls(re, im, den)

    @classmethod
    def of(cls, values):
        """The array of exact numbers given as nested lists or an object
        array, over the lcm of their denominators."""
        a, b, n = np.frompyfunc(parts, 1, 3)(np.asarray(values, dtype=object))
        den = math.lcm(*np.ravel(n).tolist())
        scale = den // n
        return cls(a * scale, b * scale, den)

    # -- shape and indexing ------------------------------------------------

    shape = property(lambda self: self.re.shape)
    T = property(lambda self: self.transpose())

    def __len__(self):
        return len(self.re)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key):
        re = self.re[key]
        if not isinstance(re, np.ndarray):
            return from_parts(re, self.im[key], self.den)
        return ExactArray(re, self.im[key], self.den)

    def __setitem__(self, key, value):
        if not (self.re.flags.writeable and self.im.flags.writeable):
            raise ValueError("assignment destination is read-only")
        den = math.lcm(self.den, value.den)
        if den != self.den:
            k = den // self.den
            self.re, self.im, self.den = self.re * k, self.im * k, den
        k = den // value.den
        self.re[key], self.im[key] = value.re * k, value.im * k

    def setflags(self, write):
        """ndarray.setflags(write=...) on both parts: a read-only array
        refuses assignment, also one that would change den."""
        self.re.setflags(write=write)
        self.im.setflags(write=write)

    def _map(self, name, *args, **kwargs):
        """The same numpy method applied to both parts."""
        return ExactArray(getattr(self.re, name)(*args, **kwargs),
                          getattr(self.im, name)(*args, **kwargs), self.den)

    def reshape(self, *shape):
        return self._map("reshape", *shape)

    def transpose(self, *axes):
        return self._map("transpose", *axes)

    def ravel(self):
        return self._map("ravel")

    def copy(self):
        return self._map("copy")

    def conj(self):
        return ExactArray(self.re.copy(), -self.im, self.den)

    # -- arithmetic --------------------------------------------------------

    def _over(self, den):
        """The parts over den, a multiple of self.den."""
        k = den // self.den
        return (self.re, self.im) if k == 1 else (self.re * k, self.im * k)

    def _combine(self, op, other):
        """op (+ or -) entrywise, over the lcm of the denominators."""
        if not isinstance(other, ExactArray):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        (a, b), (c, e) = self._over(den), other._over(den)
        return ExactArray._reduced(op(a, c), op(b, e), den)

    def __add__(self, other):
        return self._combine(operator.add, other)

    def __sub__(self, other):
        return self._combine(operator.sub, other)

    def __neg__(self):
        return ExactArray(-self.re, -self.im, self.den)

    def __mul__(self, other):
        if isinstance(other, (ExactArray, np.ndarray)):
            return _bilinear(operator.mul, self, other)
        if not is_exact(other):
            return NotImplemented
        a, b, n = parts(other)
        re, im = self.re, self.im
        if b == 0:
            re, im = re * a, im * a
        elif a == 0:
            re, im = im * -b, re * b
        else:
            re, im = re * a - im * b, re * b + im * a
        return ExactArray._reduced(re, im, self.den * n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not is_exact(other):
            return NotImplemented
        return self * (from_parts(1, 0, 1) / other)

    def __matmul__(self, other):
        return _bilinear(np.matmul, self, other)

    def __rmatmul__(self, other):
        return _bilinear(np.matmul, other, self)

    def __array_function__(self, func, types, args, kwargs):
        handler = _ARRAY_FUNCTIONS.get(func)
        return NotImplemented if handler is None else handler(*args, **kwargs)

    # -- values out --------------------------------------------------------

    def nonzero(self):
        return ((self.re != 0) | (self.im != 0)).nonzero()

    def item(self, *index):
        return from_parts(self.re.item(*index), self.im.item(*index), self.den)

    def tolist(self):
        """The entries as nested lists of GaussianRationals."""
        out = np.empty(self.shape, dtype=object)
        return np.frompyfunc(from_parts, 3, 1)(self.re, self.im, self.den, out=out).tolist()

    def fractions(self):
        """The real parts of the entries as nested lists of Fractions (one
        Fraction for a 0-d array)."""
        out = np.empty(self.shape, dtype=object)
        return np.frompyfunc(Fraction, 2, 1)(self.re, self.den, out=out).tolist()

    def astype(self, dtype, copy=True):
        """The complex ndarray of the entries (float_array: ConfigError
        beyond float range); dtype must be complex."""
        if np.dtype(dtype) != np.complex128:
            raise TypeError(f"an exact array converts to complex only, not {dtype}")
        return float_array(self, complex)

    def saturated(self):
        """The float ndarray of the entries, complex when an imaginary part
        is not 0, each part correctly rounded and saturating to +-inf beyond
        float range like to_float: float evidence, never a decision."""
        try:
            re, im = self.re / self.den, self.im / self.den
        except OverflowError:  # entry by entry, saturating
            ratio = np.frompyfunc(lambda a: to_float(Fraction(a, self.den)), 1, 1)
            re, im = ratio(self.re), ratio(self.im)
        if not self.im.any():
            return np.asarray(re, dtype=float)
        return np.asarray(np.frompyfunc(complex, 2, 1)(re, im), dtype=complex)

    def __repr__(self):
        return f"ExactArray(shape={self.shape}, den={self.den})"


def _array_parts(x):
    """(re, im, den) of an exact operand; im is None when it is zero."""
    if isinstance(x, ExactArray):
        return x.re, (x.im if x.im.any() else None), x.den
    x = np.asarray(x)
    if x.dtype.kind not in "biu":
        raise TypeError(f"an exact array meets a {x.dtype} array")
    return x, None, 1


def _bilinear(f, x, y):
    """f(x, y) for a map f that is bilinear over the integers, from the
    parts: (a + ib)(c + ie) = (ac - be) + i(ae + bc)."""
    if any(isinstance(z, np.ndarray) and z.dtype.kind in "fc" for z in (x, y)):
        return f(*(z.astype(complex) if isinstance(z, ExactArray) else z for z in (x, y)))
    a, b, m = _array_parts(x)
    c, e, n = _array_parts(y)
    re = f(a, c)
    im = None if e is None else f(a, e)
    if b is not None:
        im = f(b, c) if im is None else im + f(b, c)
        if e is not None:
            re = re - f(b, e)
    if im is None:
        im = np.zeros(np.shape(re), dtype=object)
    return ExactArray._reduced(re, im, m * n)


def _tensordot(a, b, axes=2):
    return _bilinear(lambda x, y: np.tensordot(x, y, axes), a, b)


def _stack(arrays, axis=0):
    """np.stack of exact arrays, over the lcm of their denominators."""
    den = math.lcm(*(a.den for a in arrays))
    re, im = zip(*(a._over(den) for a in arrays))
    return ExactArray(np.stack(re, axis), np.stack(im, axis), den)


def _vdot(a, b):
    return (a.conj().ravel() @ b.ravel()).item()


def _einsum(subscripts, *operands):
    """np.einsum of exact operands: the sum, over taking the real or the
    imaginary part of each operand, of i^(imaginary parts taken) times the
    einsum of those integer parts, numpy choosing the contraction path."""
    split = [_array_parts(x) for x in operands]
    by_power = [0, 0, 0, 0]  # the terms by their power of i
    for choice in itertools.product((0, 1), repeat=len(split)):
        arrays = [p[c] for p, c in zip(split, choice)]
        if all(a is not None for a in arrays):
            by_power[sum(choice) % 4] += np.einsum(subscripts, *arrays, optimize=True)
    re = by_power[0] - by_power[2]  # an array: the real parts are never skipped
    im = by_power[1] - by_power[3] + np.zeros_like(re)
    return ExactArray._reduced(re, im, math.prod(p[2] for p in split))


_ARRAY_FUNCTIONS = {np.tensordot: _tensordot, np.einsum: _einsum, np.vdot: _vdot,
                    np.stack: _stack}
