"""GaussianRational against a reference pair of Fractions (re, im)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrpairs.errors import ConfigError
from hrpairs.exterior import std_kahler
from hrpairs.scalars import ExactArray, GaussianRational, magnitude, to_complex

FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=60)
PAIRS = st.tuples(FRACTIONS, FRACTIONS)
# the plain scalars a GaussianRational meets: ints and Fractions
SCALARS = st.one_of(st.integers(-30, 30), FRACTIONS)


def gauss(pair):
    return GaussianRational(*pair)


def parts(x):
    """(re, im) of a GaussianRational, checked to be Fractions in normal form."""
    assert isinstance(x, GaussianRational)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.real, x.imag) == (x.re, x.im)
    assert x._n > 0 and math.gcd(x._a, x._b, x._n) == 1
    return x.re, x.im


def reference_repr(re, im):
    if im == 0:
        return f"{re}"
    if re == 0:
        return f"{im}*i"
    return f"{re} {'+' if im > 0 else '-'} {abs(im)}*i"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=PAIRS, y=PAIRS)
def test_arithmetic_of_two_gaussian_rationals(x, y):
    (a, b), (c, e) = x, y
    gx, gy = gauss(x), gauss(y)
    assert parts(gx) == x
    assert parts(gx + gy) == (a + c, b + e)
    assert parts(gx - gy) == (a - c, b - e)
    assert parts(gx * gy) == (a * c - b * e, a * e + b * c)
    assert parts(-gx) == (-a, -b)
    assert parts(gx.conjugate()) == (a, -b)
    norm = c * c + e * e
    if norm == 0:
        with pytest.raises(ZeroDivisionError):
            gx / gy
    else:
        assert parts(gx / gy) == ((a * c + b * e) / norm, (b * c - a * e) / norm)
    assert (gx == gy) == (x == y)
    if x == y:
        assert hash(gx) == hash(gy)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=PAIRS, s=SCALARS)
def test_arithmetic_with_ints_and_fractions(x, s):
    a, b = x
    gx = gauss(x)
    for got, want in [
        (gx + s, (a + s, b)), (s + gx, (a + s, b)),
        (gx - s, (a - s, b)), (s - gx, (s - a, -b)),
        (gx * s, (a * s, b * s)), (s * gx, (a * s, b * s)),
    ]:
        assert parts(got) == want
    if s == 0:
        with pytest.raises(ZeroDivisionError):
            gx / s
    else:
        assert parts(gx / s) == (a / s, b / s)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(s=SCALARS, im=FRACTIONS)
def test_equality_and_hash_agree_with_ints_and_fractions(s, im):
    real = GaussianRational(s)
    assert real == s and s == real
    assert real == Fraction(s) and hash(real) == hash(s) == hash(Fraction(s))
    assert (GaussianRational(s, im) == s) == (im == 0)
    assert bool(GaussianRational(s, im)) == (s != 0 or im != 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=PAIRS)
def test_repr_complex_and_demotion(x):
    a, b = x
    gx = gauss(x)
    assert repr(gx) == reference_repr(a, b)
    assert complex(gx) == complex(float(a), float(b))
    assert gx + 0.5 == complex(gx) + 0.5
    assert gx * 1j == complex(gx) * 1j
    assert gx / 2.0 == complex(gx) / 2.0


def test_constructor_and_repr_examples():
    assert repr(GaussianRational(Fraction(1, 2), -3)) == "1/2 - 3*i"
    assert repr(GaussianRational(0, Fraction(-2, 4))) == "-1/2*i"
    assert repr(GaussianRational(0.25, 0.5)) == "1/4 + 1/2*i"  # floats convert exactly
    assert repr(GaussianRational()) == "0"
    assert GaussianRational(Fraction(2, 6), Fraction(1, 4)) == GaussianRational(
        Fraction(1, 3), Fraction(1, 4))
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / GaussianRational(0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=PAIRS, re=st.floats(), im=st.floats())
def test_equality_with_a_float_is_exact(x, re, im):
    """A finite float is a Fraction, so == decides exactly; a non-finite one
    equals no exact value."""
    z = complex(re, im)
    want = math.isfinite(re) and math.isfinite(im) and gauss(x) == GaussianRational(
        Fraction(re), Fraction(im))
    assert (gauss(x) == z) == want
    assert (gauss(x) == re) == (math.isfinite(re) and gauss(x) == GaussianRational(Fraction(re)))


def test_equality_with_floats_examples():
    assert GaussianRational(Fraction(1, 3)) != 1 / 3  # 1/3 rounds; complex(1/3) == 1/3 did not
    assert GaussianRational(1, 2) == complex(1, 2) and GaussianRational(0.1) == 0.1
    assert GaussianRational(Fraction(1, 2 ** 1074)) == 5e-324
    assert GaussianRational(0) != math.nan and GaussianRational(10 ** 400) != math.inf
    assert GaussianRational(10 ** 400) != 1.0  # converted to complex, it raised OverflowError


@pytest.mark.parametrize("op", [
    lambda x: x + 1.0, lambda x: 1.0 + x, lambda x: x - 1.0, lambda x: x * 1j,
    lambda x: x / 2.0, lambda x: std_kahler(2, exact=False) * x,
], ids=["add", "radd", "sub", "mul", "div", "form-times-scalar"])
def test_an_exact_value_beyond_float_range_meets_a_float_by_one_rule(op):
    """Beyond float range the exact operand cannot be demoted to complex:
    float_array's ConfigError, where a bare OverflowError escaped; the float
    evidence converters still saturate."""
    huge = GaussianRational(10 ** 400)
    with pytest.raises(ConfigError, match="^an exact value does not fit in a float; "
                                          "decide with the exact backend$"):
        op(huge)
    assert to_complex(huge) == complex(math.inf, 0) and magnitude(huge) == math.inf
    assert ExactArray.of([[huge, 1]]).saturated().tolist() == [[math.inf, 1.0]]
