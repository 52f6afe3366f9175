"""scalars.ExactArray against an oracle: numpy object arrays of GaussianRationals.

Every operation the dense kernels use is run on both, on entries over
unequal and non-unit denominators, on empty shapes (as past degree d) and on
entries beyond float range, which must never raise OverflowError.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrpairs.errors import ConfigError
from hrpairs.scalars import ExactArray, from_parts, to_complex

DENOMINATORS = [1, 2, 3, 7, 21, 10 ** 40]
SEEDS = st.integers(0, 2 ** 32 - 1)
SHAPES = st.lists(st.integers(0, 3), max_size=3)
SCALARS = [3, -1, Fraction(-2, 7), from_parts(1, -2, 3), from_parts(0, 1, 1)]


def gaussian_array(rng, shape, huge=False):
    """An ExactArray with random entries over a random denominator, and its oracle.

    With huge set, about a third of the parts are beyond float range.
    """
    den = DENOMINATORS[rng.integers(len(DENOMINATORS))]

    def part():
        v = int(rng.integers(-6, 7))
        return v * 10 ** 400 + 1 if huge and rng.random() < 0.3 else v

    values = [from_parts(part(), part(), den) for _ in range(math.prod(shape))]
    oracle = np.empty(len(values), dtype=object)
    oracle[:] = values
    oracle = oracle.reshape(shape)
    return ExactArray.of(oracle), oracle


def sign_table(rng, shape):
    """An int8 array of 0 and +-1, like the _merge_signs tables."""
    return rng.integers(-1, 2, size=shape).astype(np.int8)


def same(X, oracle):
    """X is an ExactArray equal entry for entry to the oracle."""
    oracle = np.asarray(oracle, dtype=object)
    assert isinstance(X, ExactArray)
    assert X.shape == oracle.shape
    assert X.tolist() == oracle.tolist()


def entrywise(f, oracle):
    """f applied to every entry of the oracle, as an object array."""
    return np.asarray(np.frompyfunc(f, 1, 1)(oracle), dtype=object)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, shape=SHAPES, huge=st.booleans())
def test_entrywise_and_shape_operations_match_the_oracle(seed, shape, huge):
    rng = np.random.default_rng(seed)
    (X, x), (Y, y) = gaussian_array(rng, shape, huge), gaussian_array(rng, shape, huge)
    same(X, x)
    same(X + Y, x + y)
    same(X - Y, x - y)
    same(-X, -x)
    same(X.conj(), entrywise(lambda z: z.conjugate(), x))
    same(X * Y, x * y)
    for c in SCALARS:
        same(X * c, x * c)
        same(c * X, x * c)
        same(X / c, x / c)
    with pytest.raises(ZeroDivisionError):
        X / 0
    same(X.copy(), x)
    same(X.T, x.T)
    same(X.ravel(), x.ravel())
    same(X.reshape(-1), x.reshape(-1))
    axes = rng.permutation(len(shape)).tolist()
    same(X.transpose(*axes), x.transpose(*axes))
    same(np.stack([X, Y, X]), np.stack([x, y, x]))  # over the lcm of the denominators
    if len(shape) >= 2:
        same(X[..., None, :1], x[..., None, :1])
    if shape:
        rows = list(X)
        assert len(rows) == shape[0]
        for row, want in zip(rows, x):  # arrays, or entries of a vector
            if len(shape) > 1:
                same(row, want)
            else:
                assert row == want
        index = rng.integers(shape[0], size=4) if shape[0] else np.zeros(0, dtype=int)
        same(X[index], x[index])
        assert [a.tolist() for a in X.nonzero()] == [a.tolist() for a in (x != 0).nonzero()]
    if x.size:
        k = int(rng.integers(x.size))
        assert X.item(k) == x.item(k)
        assert X[np.unravel_index(k, x.shape)] == x[np.unravel_index(k, x.shape)]
    same(ExactArray.of(x), x)
    saturated = entrywise(to_complex, x).astype(complex)  # +-inf beyond float range
    assert np.array_equal(X.saturated(), saturated if X.im.any() else saturated.real)
    try:
        want = entrywise(complex, x).astype(complex)
    except OverflowError:  # complex() raises it; the one conversion refuses the entry
        with pytest.raises(ConfigError, match="does not fit in a float"):
            X.astype(complex)
    else:
        assert np.array_equal(X.astype(complex), want)
    assert X.tolist() == x.tolist()  # no operation changed its operand


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=SEEDS, r=st.integers(0, 3), d=st.integers(0, 3), huge=st.booleans())
def test_assignment_matches_the_oracle(seed, r, d, huge):
    """A[diag, diag] -= B, as bogomolov._trace_free writes it, and
    A[diag, diag] = B, with B over another denominator; the copy they work
    on leaves the original."""
    rng = np.random.default_rng(seed)
    (A, a), (B, b) = gaussian_array(rng, (r, r, d, d), huge), gaussian_array(rng, (r, d, d), huge)
    diag = np.arange(r)
    C, c = A.copy(), a.copy()
    C[diag, diag] -= B
    c[diag, diag] -= b
    same(C, c)
    C, c = A.copy(), a.copy()
    C[diag, diag] = B
    c[diag, diag] = b
    same(C, c)
    same(A, a)


KERNEL_EINSUMS = ["iiab->ab", "ijab,ab->ij", "ijab,jice,abce->ij", "ika,kjb->ijab",
                  "ika,jkb->ijab", "kja,kib->ijab"]
# a kept diagonal, a batch letter, a summed letter of one operand
OTHER_EINSUMS = ["iia->ai", "ija,ija->ai", "ijk,kl->li", "iab,bc,ci->ai"]


@pytest.mark.parametrize("spec", KERNEL_EINSUMS + OTHER_EINSUMS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=SEEDS, r=st.integers(0, 3), d=st.integers(0, 3), huge=st.booleans())
def test_einsum_of_the_kernels_matches_the_oracle(seed, spec, r, d, huge):
    """The einsums of the curvature kernel, the three-operand one included,
    and a few others, with each operand over its own denominator."""
    rng = np.random.default_rng(seed)
    size = {"i": r, "j": r, "k": r, "l": r}
    inputs = spec.split("->")[0].split(",")
    pairs = [gaussian_array(rng, tuple(size.get(c, d) for c in s), huge) for s in inputs]
    same(np.einsum(spec, *(X for X, _ in pairs)), np.einsum(spec, *(x for _, x in pairs)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, dims=st.tuples(*[st.integers(0, 3)] * 4), huge=st.booleans())
def test_products_match_the_oracle(seed, dims, huge):
    """@, np.tensordot and np.vdot, exact with exact and with an int8 sign
    table on either side, as wedge, _top_functional and _mid_gram use them."""
    rng = np.random.default_rng(seed)
    k, m, n, p = dims
    (X, x), (Y, y) = gaussian_array(rng, (m, n), huge), gaussian_array(rng, (n, p), huge)
    (V, v), (W, w) = gaussian_array(rng, (n,), huge), gaussian_array(rng, (m, n), huge)
    same(X @ Y, x @ y)
    same(X @ V, x @ v)
    S, R = sign_table(rng, (k, m)), sign_table(rng, (n, k))
    same(S @ X, S.astype(object) @ x)
    same(X @ R, x @ R.astype(object))
    T = sign_table(rng, (k, m, n))
    same(np.tensordot(T, X, axes=((1, 2), (0, 1))), np.tensordot(T.astype(object), x, axes=2))
    same(np.tensordot(T, Y, axes=(2, 0)), np.tensordot(T.astype(object), y, axes=(2, 0)))
    same(np.tensordot(X, Y, axes=(1, 0)), x @ y)
    assert np.vdot(X, W) == sum((a.conjugate() * b for a, b in zip(x.flat, w.flat)),
                                from_parts(0, 0, 1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=SEEDS, dims=st.tuples(*[st.integers(1, 3)] * 3))
def test_a_float_factor_demotes_the_product_to_complex(seed, dims):
    rng = np.random.default_rng(seed)
    m, n, p = dims
    X, x = gaussian_array(rng, (m, n))
    F = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    got = X @ F
    assert isinstance(got, np.ndarray) and got.dtype == complex
    want = entrywise(complex, x).astype(complex) @ F
    assert np.allclose(got, want, rtol=1e-12, atol=0)
