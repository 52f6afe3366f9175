"""Forms are frozen values, and what their memos hold is what the form gives.

A form's coefficient matrix is read-only from the moment the form is made,
so the intersection numbers, real coordinates and Kahler inertia its memo
keeps (exterior._memoized) cannot go stale.  The memo must also give what a
fresh copy of the form, with an empty memo, computes: exactly in the exact
backend, and to rounding in floats, where the forms of schur_form_pair keep
the kernel's own (G, m).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrpairs import exterior, hrcheck, ring
from hrpairs.bogomolov import CurvatureMatrix, HiggsField, constraint_project, trace_check
from hrpairs.errors import ConfigError
from hrpairs.exterior import (
    PPForm,
    _mid_gram,
    _top_functional,
    form_from_hermitian,
    std_kahler,
    wedge,
)
from hrpairs.hrcheck import _kahler_inertia, pointwise_hr_pair, random_kahler, schur_form_pair
from hrpairs.ring import real_coordinates
from hrpairs.scalars import ExactArray, GaussianRational
from hrpairs.symfunc import Partition


def exact_kahler(d, rng):
    """i H for H = A^* A + Id, A with Gaussian-integer entries in [-2, 2]."""
    A = np.array([[GaussianRational(int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
                   for _ in range(d)] for _ in range(d)], dtype=object)
    H = [[sum((A[k, i].conjugate() * A[k, j] for k in range(d)), GaussianRational(0))
          + (1 if i == j else 0) for j in range(d)] for i in range(d)]
    return form_from_hermitian(H)


def kahler(d, rng, exact):
    return exact_kahler(d, rng) if exact else random_kahler(d, rng)


def random_curvature(r, d, rng, exact):
    """An r x r matrix of (1,1)-forms with small integer or Gaussian entries."""
    if exact:
        entries = [[PPForm(d, 1, 1, {((a,), (b,)): GaussianRational(int(rng.integers(-3, 4)),
                                                                     int(rng.integers(-3, 4)))
                                     for a in range(d) for b in range(d)})
                    for _ in range(r)] for _ in range(r)]
        return CurvatureMatrix(entries, check=False)
    X = rng.standard_normal((r, r, d, d)) + 1j * rng.standard_normal((r, r, d, d))
    return CurvatureMatrix._of(X)


def fresh(form):
    """The same form with an empty memo."""
    return PPForm._of(form.dim, form.p, form.q, form.Z.copy())


def assert_same_array(got, want, exact):
    if exact:
        assert isinstance(got, ExactArray) and isinstance(want, ExactArray)
        assert got.tolist() == want.tolist()
    else:
        scale = max(np.abs(want).max(initial=0.0), 1.0)
        assert np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0) <= 1e-11 * scale


def assert_same_verdict(got, want, exact):
    if exact:
        assert got == want
    else:
        assert (got["outcome"], got["signature"]) == (want["outcome"], want["signature"])


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_memoized_values_are_those_of_a_fresh_copy(d, exact, seed, data):
    rng = np.random.default_rng(seed)
    e = data.draw(st.integers(1, 3), label="forms")
    lam = Partition(data.draw(st.sampled_from([(d - 1,), (d - 2, 1) if d > 2 else (1,)]),
                              label="partition"))
    top, mid = schur_form_pair(lam, [kahler(d, rng, exact) for _ in range(e)], d)
    omega = kahler(d, rng, exact) if data.draw(st.booleans(), label="random omega") \
        else std_kahler(d, exact=exact)
    negative = -omega
    # read every memo twice: the second read is the memo's, the first may be a seed
    for _ in range(2):
        assert_same_array(_top_functional(top), _top_functional(fresh(top)), exact)
        assert_same_array(_mid_gram(mid), _mid_gram(fresh(mid)), exact)
        assert_same_array(real_coordinates(omega), real_coordinates(fresh(omega)), exact)
        assert _kahler_inertia(omega, 1e-9) == _kahler_inertia(fresh(omega), 1e-9) == (d, 0, 0)
        assert _kahler_inertia(negative, 1e-9) == (0, 0, d)
        with pytest.raises(ConfigError, match="not strictly positive"):
            pointwise_hr_pair(top, mid, negative)

        got = pointwise_hr_pair(top, mid, omega).to_dict()
        assert_same_verdict(got, pointwise_hr_pair(fresh(top), fresh(mid), fresh(omega)).to_dict(),
                            exact)

        F = random_curvature(2, d, rng, exact)
        got = trace_check(constraint_project(F, top), top, mid).to_dict()
        want = trace_check(constraint_project(F, fresh(top)), fresh(top), fresh(mid)).to_dict()
        assert_same_verdict(got, want, exact)


# -- frozen coefficients --------------------------------------------------


def parts(Z):
    """The arrays a write could reach: both parts of an ExactArray."""
    return [Z.re, Z.im] if isinstance(Z, ExactArray) else [Z]


def forms_of(exact):
    """Forms from each way the program makes them."""
    rng = np.random.default_rng(3)
    c = GaussianRational(1, 2) if exact else 1 + 2j
    keyed = PPForm(3, 1, 1, {((0,), (1,)): c, ((2,), (2,)): c})
    made = PPForm._of(3, 1, 1, keyed.Z.copy())
    omegas = [kahler(3, rng, exact) for _ in range(2)]
    top, mid = schur_form_pair(Partition((2,)), omegas, 3)
    F = random_curvature(2, 3, rng, exact)
    theta = HiggsField([[PPForm(3, 1, 0, {((0,), ()): c}), PPForm.zero(3, 1, 0)]] * 2,
                       check=False)
    return {
        "keyed": keyed, "_of": made, "sum": keyed + made, "negation": -keyed,
        "scalar multiple": keyed * 3, "wedge": wedge(keyed, made), "conjugate": keyed.conj(),
        "schur top": top, "schur mid": mid, "curvature entry": F.entries[0][1],
        "curvature trace": F.trace(), "Higgs entry": theta.entries[1][0],
    }


@pytest.mark.parametrize("exact", [False, True])
def test_a_write_to_a_form_raises(exact):
    for name, form in forms_of(exact).items():
        assert isinstance(form.Z, ExactArray) == exact, name
        for part in parts(form.Z):
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0] = 7
            with pytest.raises(ValueError, match="read-only"):
                part += 1
        if exact:  # an assignment that would change the denominator
            with pytest.raises(ValueError, match="read-only"):
                form.Z[0:1, 0:1] = ExactArray.of([[Fraction(1, 3)]])


@pytest.mark.parametrize("exact", [False, True])
def test_memoized_arrays_are_read_only(exact):
    rng = np.random.default_rng(5)
    top, mid = schur_form_pair(Partition((2,)), [kahler(3, rng, exact) for _ in range(2)], 3)
    omega = std_kahler(3, exact=exact)
    for value in (_top_functional(top), _mid_gram(mid), real_coordinates(omega),
                  _top_functional(fresh(top)), _mid_gram(fresh(mid))):
        for part in parts(value):
            with pytest.raises(ValueError, match="read-only"):
                part[(0,) * part.ndim] = 7


def test_curvature_arithmetic_leaves_its_operands_alone():
    rng = np.random.default_rng(9)
    F = random_curvature(3, 3, rng, exact=False)
    before = F.coeffs.copy()
    top, _ = schur_form_pair(Partition((2,)), [random_kahler(3, rng) for _ in range(2)], 3)
    F0 = constraint_project(F, top)
    assert np.array_equal(F.coeffs, before)
    assert not F0.coeffs.flags.writeable


# a small argument for each lru-cached builder of the three modules
CACHED_TABLES = {
    exterior: {"_subset_index": (3, 1), "_merge_signs": (3, 1, 1), "_complements": (3, 2),
               "_gathers": (3, 1, True)},
    ring: {"_slot_positions": (3, 1), "_hermitian_entries": (3, 1),
           "_real_basis_matrix": (3, 1, True), "torus_ring": (2,)},
    hrcheck: {"_gather_tables": (3, True), "_float_grid": (Partition((2,)), 2),
              "_lattice": (Partition((2,)), 2), "_minor_tables": (3,)},
}


def arrays_in(value):
    """Every ndarray in value, through tuples, lists and ExactArray parts."""
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in arrays_in(v)]
    if isinstance(value, (np.ndarray, ExactArray)):
        return parts(value)
    return []


@pytest.mark.parametrize("module", list(CACHED_TABLES), ids=lambda m: m.__name__)
def test_cached_tables_are_read_only(module):
    """Every caller in a process shares what an lru-cached builder returns,
    so one write by any of them would change every later sweep or model
    built from it."""
    cached = {name for name, fn in vars(module).items()
              if hasattr(fn, "cache_info") and fn.__module__ == module.__name__}
    assert cached == set(CACHED_TABLES[module])
    for name, args in CACHED_TABLES[module].items():
        for part in arrays_in(getattr(module, name)(*args)):
            assert not part.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                part[(0,) * part.ndim] = 7
