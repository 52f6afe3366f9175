"""The Schur-pair kernel hrcheck.schur_tensors against the wedge oracle.

schur_tensors reads (G, m) = (_mid_gram(eta_mid), _top_functional(eta_top))
of the Schur pair from det(sum t_i H_i) at weighted points; dense_forms
multiplies the forms out with symfunc.evaluate.  Exact results must be equal
entry for entry, float ones close to 1e-12 relative.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrpairs import hrcheck, linalg
from hrpairs.errors import ConfigError
from hrpairs.exterior import (
    PPForm, _mid_gram, _top_functional, _unreal_at, form_from_hermitian, std_kahler,
)
from hrpairs.hrcheck import (
    _bareiss, _float_grid, _hermitians, _lattice, pointwise_hr_pair, random_hermitian,
    random_kahler, sample_search, schur_form_pair, schur_tensors,
)
from hrpairs.ring import real_coordinates
from hrpairs.scalars import ExactArray, GaussianRational
from hrpairs.symfunc import Partition, derived, schur, to_monomials

from dense_forms import dense_schur_pair


def partitions(n, largest=None):
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest or n), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


# the (dim, vars, partition) configs of acceptance check 07
ACCEPTANCE_CONFIGS = [(d, e, Partition(lam)) for d in (2, 3, 4) for e in range(d - 1, 6)
                      for lam in partitions(d - 1) if len(lam) <= e]


def oracle_tensors(lam, omegas, d):
    """(G, m) of the Schur pair multiplied out by wedge products."""
    top, mid = dense_schur_pair(lam, omegas, d)
    return _mid_gram(mid), _top_functional(top)


def exact_hermitian(rng, d, denominators=(1, 1), shift=1):
    """A^* A + shift * Id, A with Gaussian-integer entries in [-2, 2] whose real
    and imaginary parts are divided by the two denominators; not positive
    definite for shift <= 0 in general."""
    p, q = denominators
    A = [[GaussianRational(Fraction(int(rng.integers(-2, 3)), p),
                           Fraction(int(rng.integers(-2, 3)), q))
          for _ in range(d)] for _ in range(d)]
    return [[sum((A[k][i].conjugate() * A[k][j] for k in range(d)), GaussianRational(0))
             + (shift if i == j else 0) for j in range(d)] for i in range(d)]


def without_first_row(H):
    """H with its first row and column zeroed: as the first of the forms, it
    gives the lattice points (n, 0, ..., 0) a zero first pivot."""
    return [[0 if 0 in (i, j) else x for j, x in enumerate(row)] for i, row in enumerate(H)]


def assert_equal_exact(X, Y):
    assert isinstance(X, ExactArray) and isinstance(Y, ExactArray)
    assert X.shape == Y.shape and X.den == Y.den
    assert (X.re == Y.re).all() and (X.im == Y.im).all()


def relative_gap(X, Y):
    return np.abs(X - Y).max() / np.abs(Y).max()


def monomial_targets(p):
    return {mu: c * math.prod(map(math.factorial, mu)) for mu, c in to_monomials(p).items()}


@pytest.mark.parametrize("d, e, lam", ACCEPTANCE_CONFIGS)
def test_weights_reproduce_the_monomial_targets(d, e, lam):
    """sum_k w_k t_k^mu = c_mu mu! for every monomial of degree n of s_lam and
    of s'_lam = symfunc.derived(s_lam): exactly on the integer lattice, to
    1e-12 on the float grid."""
    T, *float_weights = _float_grid(lam, e)
    points, *exact_weights = _lattice(lam, e)
    polys = (schur(lam, e), derived(schur(lam, e), 1))
    for p, n, wf, (wx, W) in zip(polys, (d - 1, d - 2), float_weights, exact_weights):
        targets = monomial_targets(p)
        scale = max(abs(c) for c in targets.values())
        for mu in (mu for mu in np.ndindex(*(n + 1,) * e) if sum(mu) == n):
            want = targets.get(mu, 0)
            powers = [math.prod(int(t) ** x for t, x in zip(point, mu)) for point in points]
            assert sum(w * v for w, v in zip(wx, powers)) == want * W, (p, mu)
            got = wf @ np.prod(T ** np.array(mu), axis=1)
            assert abs(got - want) <= 1e-12 * scale, (p, mu, got, want)


def test_degree_zero_derived_polynomial_has_one_point():
    """At d = 2, s'_lam is a constant: one exact point, and the float weights
    sum to it."""
    for e in (1, 2, 3):
        lam = Partition((1,))
        points, _, (w_mid, W) = _lattice(lam, e)
        mid_points = [tuple(p) for p, w in zip(points.tolist(), w_mid) if w]
        assert mid_points == [(1,) + (0,) * (e - 1)]
        assert [Fraction(w, W) for w in w_mid if w] == [e]  # s'_1 = e in e variables
        T, _, wf = _float_grid(lam, e)
        assert abs(wf.sum() - e) <= 1e-12


@pytest.mark.parametrize("exact", [True, False])
def test_more_rows_than_forms_gives_zero_forms(exact):
    """s_lam = 0 when lam has more rows than there are forms: zero tensors
    and zero forms of the pair's bidegrees, in both backends."""
    rng = np.random.default_rng(3)
    for d, e, lam in [(3, 1, (1, 1)), (4, 2, (1, 1, 1)), (4, 0, (3,))]:
        omegas = ([form_from_hermitian(exact_hermitian(rng, d)) for _ in range(e)] if exact
                  else [random_kahler(d, rng) for _ in range(e)])
        G, m = schur_tensors(Partition(lam), _hermitians(omegas, d))
        assert isinstance(G, ExactArray) is (exact or e == 0)
        assert G.shape == (d,) * 4 and m.shape == (d, d)
        assert not np.any(G.saturated() if isinstance(G, ExactArray) else G)
        top, mid = schur_form_pair(Partition(lam), omegas, d)
        assert top.is_zero() and mid.is_zero()
        assert (top.p, mid.p) == (d - 1, d - 2)
        if e:
            assert dense_schur_pair(Partition(lam), omegas, d)[0].is_zero()


def test_exact_tensors_equal_the_dense_oracle():
    """At least 200 seeded exact trials, d = 3-5: Gaussian-integer forms,
    forms with denominators, indefinite ones (shift -2) and singular ones
    (shift 0, the first form without its first row and column), whose
    lattice points need the shifted elimination."""
    trials = 0
    for d, count in ((3, 110), (4, 70), (5, 24)):
        rng = np.random.default_rng(9000 + d)
        for trial in range(count):
            lam = Partition(partitions(d - 1)[trial % len(partitions(d - 1))])
            e = len(lam) + trial % 2
            denominators = ((1, 1), (3, 1), (2, 5))[trial % 3]
            shift = (1, 0, -2)[trial % 3] if trial % 5 else 1
            Hs = [exact_hermitian(rng, d, denominators, shift) for _ in range(e)]
            if shift == 0:
                Hs[0] = without_first_row(Hs[0])
            omegas = [form_from_hermitian(x) for x in Hs]
            G, m = schur_tensors(lam, _hermitians(omegas, d))
            G0, m0 = oracle_tensors(lam, omegas, d)
            assert_equal_exact(G, G0)
            assert_equal_exact(m, m0)
            trials += 1
    assert trials >= 200


def lcm_oracle(lam, H):
    """(G, shifted) by the formulation the exact kernel had before the
    complementary minors: with the rows V_k = vec(adj K_k^T), G is
    V^T diag(w / det) V minus the same with a and c swapped, over den^(d-2),
    one object product over the lcm of every point's determinant.  The
    points with a zero pivot are replaced by their shifts, as in
    _exact_schur_tensors; shifted says whether any was."""
    e, d = H.shape[:2]
    points, _, (w_mid, W) = _lattice(lam, e)
    w_mid = np.array([Fraction(w, W) for w in w_mid], dtype=object)
    R, J = np.tensordot(points, H.re, axes=1), np.tensordot(points, H.im, axes=1)
    re, im, det, ok = _bareiss(R, J)
    adj = ExactArray(re, im)
    if not ok.all():
        s0 = max((np.abs(R[~ok]) + np.abs(J[~ok])).sum(axis=2).ravel().tolist())
        shifts = range(s0 + 1, s0 + d + 1)
        lagrange = [math.prod(Fraction(t, t - s) for t in shifts if t != s) for s in shifts]
        shifted = R[~ok][:, None] + np.multiply.outer(shifts, np.eye(d, dtype=int)).astype(object)
        re2, im2, det2, _ = _bareiss(shifted.reshape(-1, d, d), np.repeat(J[~ok], d, axis=0))
        adj = ExactArray(*(np.concatenate([x[ok], y]) for x, y in ((adj.re, re2),
                                                                    (adj.im, im2))))
        det = np.concatenate([det[ok], det2])
        w_mid = np.concatenate([w_mid[ok], np.outer(w_mid[~ok], lagrange).ravel()])
    V = adj.transpose(0, 2, 1).reshape(-1, d * d)
    mid = np.flatnonzero(w_mid)
    T1 = ((V[mid].T * ExactArray.of(w_mid[mid] / det[mid])) @ V[mid]).reshape(d, d, d, d)
    return (T1.transpose(2, 1, 0, 3) - T1) / H.den ** (d - 2), not ok.all()


def rationalized_draw(d, e, seed):
    """e draws of random_hermitian(d), each entry as its exact binary value."""
    rng = np.random.default_rng(seed)
    return ExactArray.of([[[GaussianRational(Fraction(z.real), Fraction(z.imag)) for z in row]
                           for row in random_hermitian(d, rng)] for _ in range(e)])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("e", [2, 3])
def test_exact_kernel_equals_the_lcm_oracle(d, e):
    """G by complementary minors is the lcm formulation's, denominator
    included, for every partition of d - 1 with at most e rows, on forms
    with denominators, indefinite ones (shift -2, negative pivots), and
    singular ones (without_first_row), whose lattice points are shifted."""
    rng = np.random.default_rng([d, e])
    shifted = []
    for lam in (Partition(p) for p in partitions(d - 1) if len(p) <= e):
        for shift in (1, -2, 0):
            Hs = [exact_hermitian(rng, d, (1, 3), shift) for _ in range(e)]
            if shift == 0:
                Hs[0] = without_first_row(Hs[0])
            H = _hermitians([form_from_hermitian(x) for x in Hs], d)
            G, want = schur_tensors(lam, H)[0], lcm_oracle(lam, H)
            assert_equal_exact(G, want[0])
            shifted.append(want[1])
    assert all(shifted[2::3])


def test_exact_kernel_equals_the_lcm_oracle_on_a_rationalized_draw():
    """At (8, (6,1), 2), on float draws rationalized exactly: each
    determinant has about d * 52 bits."""
    lam, H = Partition((6, 1)), rationalized_draw(8, 2, 8)
    assert_equal_exact(schur_tensors(lam, H)[0], lcm_oracle(lam, H)[0])


def kernel_run(lam, H, dtype):
    """(G, m, dtypes): _exact_schur_tensors as it runs (dtype None) or on
    object arrays throughout (dtype object: no bound is below 2^0), and the
    dtypes its eliminations ran on."""
    dtypes = []

    def spy(R, J):
        dtypes.append(R.dtype)
        return _bareiss(R, J)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hrcheck, "_bareiss", spy)
        if dtype is object:
            patch.setattr(hrcheck, "_INT64_LOG2", 0)
        return (*hrcheck._exact_schur_tensors(lam, H), dtypes)


@st.composite
def kernel_cases(draw):
    """(lam, H): e = 1-4 forms and lam any partition of d - 1 with at most e
    rows.  Half are at d = 2-6: Gaussian-integer forms, with denominators,
    indefinite (shift -2) or singular (without_first_row, shifted points),
    times 2^k, so that the bound falls on both sides of 2^62.  The others
    are diag(1, a s, 1) at d = 3, a = 1-3, on which the elimination's
    largest product is within 2^5 of the bound: s = 2^(25-32), in steps of
    2^(1/8), puts that product on both sides of 2^63."""
    tight = draw(st.booleans())
    d, e = 3 if tight else draw(st.integers(2, 6)), draw(st.integers(1, 4))
    lam = Partition(draw(st.sampled_from([p for p in partitions(d - 1) if len(p) <= e])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    if tight:
        scale = int(2 ** (draw(st.integers(8 * 25, 8 * 32)) / 8))
        Hs = [np.diag([1, int(a) * scale, 1]).tolist() for a in rng.integers(1, 4, e)]
    else:
        denominators = draw(st.sampled_from([(1, 1), (3, 1), (2, 5)]))
        shift = draw(st.sampled_from([1, 0, -2]))
        Hs = [exact_hermitian(rng, d, denominators, shift) for _ in range(e)]
        if shift == 0:
            Hs[0] = without_first_row(Hs[0])
        scale = 2 ** draw(st.integers(0, 72 // d))
        Hs = [[[x * scale for x in row] for row in H] for H in Hs]
    return lam, _hermitians([form_from_hermitian(H) for H in Hs], d)


def test_int64_kernel_equals_the_object_kernel():
    """Where the Hadamard bound puts the exact Schur kernel on np.int64, its
    (G, m), parts and den, are those of the same text on object arrays.  Of
    250 derandomized cases at least 10 run on each side of the bound, and
    at least 10 on int64 with shifted points.  The limit raised by 2^8 fails
    here: on diag(1, a s, 1) the elimination then overflows."""
    sides = {"int64": 0, "object": 0, "shifted int64": 0}

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(case=kernel_cases())
    def check(case):
        lam, H = case
        G, m, dtypes = kernel_run(lam, H, None)
        G0, m0, _ = kernel_run(lam, H, object)
        assert_equal_exact(G, G0)
        assert_equal_exact(m, m0)
        machine = all(t == np.int64 for t in dtypes)
        sides["int64" if machine else "object"] += 1
        sides["shifted int64"] += machine and len(dtypes) == 2

    check()
    assert min(sides.values()) >= 10, sides


def test_float_certificate_decides_the_balanced_border(monkeypatch):
    """At (4, (2,1), 3) on float draws rationalized exactly, the numerators
    of the functional run 53 bits above those of the Gram matrix; with the
    bordered matrix of the kernel characterization balanced by a power of
    two, the float certificate decides its inertia, and no second integer
    elimination runs."""
    decided = []
    certify = linalg._certified_inertia

    def spy(R, den=1):
        decided.append(certify(R, den))
        return decided[-1]

    monkeypatch.setattr(linalg, "_certified_inertia", spy)
    G, m = schur_tensors(Partition((2, 1)), rationalized_draw(4, 3, 0))
    verdict = hrcheck._pointwise_verdict(G, m, real_coordinates(std_kahler(4, exact=True)), None)
    assert decided == [(1, 0, 16)]
    assert verdict.outcome == "pass"
    assert verdict.details["kernel_characterization"]["restricted_signature"] == (0, 0, 15)


def test_exact_schur_form_pair_is_the_oracle_pair():
    rng = np.random.default_rng(41)
    for d, e, lam in [(2, 1, (1,)), (3, 3, (2,)), (4, 3, (2, 1)), (3, 2, (1, 1))]:
        omegas = [form_from_hermitian(exact_hermitian(rng, d, (1, 3))) for _ in range(e)]
        assert schur_form_pair(Partition(lam), omegas, d) == \
            dense_schur_pair(Partition(lam), omegas, d)


def float_trials():
    for d, e, lam in ACCEPTANCE_CONFIGS:
        yield d, e, lam, 2
    for d in (5, 6, 7, 8):
        for lam in [(d - 1,), (d - 2, 1), (2,) * ((d - 1) // 2) + (1,) * ((d - 1) % 2)]:
            yield d, max(2, len(lam)), Partition(lam), 1


def test_float_tensors_agree_with_the_dense_oracle():
    """The 22 acceptance configs and d = 5-8 trials, to 1e-12 relative."""
    for d, e, lam, count in float_trials():
        for trial in range(count):
            rng = np.random.default_rng([8000 + d, e, trial])
            omegas = [random_kahler(d, rng) for _ in range(e)]
            G, m = schur_tensors(lam, _hermitians(omegas, d))
            G0, m0 = oracle_tensors(lam, omegas, d)
            assert relative_gap(G, G0) <= 1e-12, (d, e, lam)
            assert relative_gap(m, m0) <= 1e-12, (d, e, lam)


@pytest.mark.parametrize("ranks", [(1, 1), (2, 1), (3, 1, 1)])
def test_float_tensors_of_singular_forms_agree_with_the_dense_oracle(ranks):
    """Forms of low rank on C^4 make every X(t) singular, of rank at most
    sum(ranks): those points are read from the SVD."""
    rng = np.random.default_rng(77 + len(ranks))
    d = 4
    for lam in [Partition(p) for p in partitions(d - 1) if len(p) <= len(ranks)]:
        omegas = []
        for rank in ranks:
            A = rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d))
            omegas.append(form_from_hermitian(A.conj().T @ A, exact=False))
        G, m = schur_tensors(lam, _hermitians(omegas, d))
        G0, m0 = oracle_tensors(lam, omegas, d)
        assert np.abs(G - G0).max() <= 1e-12 * max(np.abs(G0).max(), 1)
        assert np.abs(m - m0).max() <= 1e-12 * max(np.abs(m0).max(), 1)


def oracle_search(dim, num_vars, lam, trials, seed):
    """sample_search's loop with the Schur pairs of the wedge oracle."""
    report = hrcheck.SearchReport(config={})
    reference = std_kahler(dim, exact=False)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        omegas = [random_kahler(dim, rng) for _ in range(num_vars)]
        verdict = pointwise_hr_pair(*dense_schur_pair(lam, omegas, dim), reference)
        report.trials += 1
        eigs = verdict.eigenvalues
        margin = min(abs(x) for x in eigs) / max(abs(x) for x in eigs)
        report.min_margin = margin if report.min_margin is None else min(report.min_margin,
                                                                          margin)
        if verdict.passed:
            report.passes += 1
        else:
            report.degenerates += verdict.outcome == "degenerate"
            report.failures.append({"trial": trial, "rng_key": [seed, trial],
                                    "verdict": verdict.to_dict()})
    return report


@pytest.mark.parametrize("seed", [0, 7])
def test_sample_search_reports_match_the_dense_oracle(seed):
    for d, e, lam in ACCEPTANCE_CONFIGS:
        got = sample_search(d, e, str(lam), trials=12, seed=seed)
        want = oracle_search(d, e, lam, 12, seed)
        assert (got.trials, got.passes, got.degenerates) == \
            (want.trials, want.passes, want.degenerates)
        assert [(f["trial"], f["rng_key"], f["verdict"]["outcome"], f["verdict"]["signature"])
                for f in got.failures] == \
            [(f["trial"], f["rng_key"], f["verdict"]["outcome"], f["verdict"]["signature"])
             for f in want.failures]
        assert abs(got.min_margin - want.min_margin) <= 1e-9 * want.min_margin


def test_sweep_size_caps_refuse_before_any_work(monkeypatch):
    """The exponent table is capped before the forms are drawn, the points
    after the lattice search; every acceptance config and d = 14 with five
    forms stay accepted."""
    for d, e, _ in ACCEPTANCE_CONFIGS:
        hrcheck.check_sweep(d, e)
    hrcheck.check_sweep(14, 5)
    for d, e in ((14, 6), (14, 7), (4, 40), (2, 10 ** 9)):
        with pytest.raises(ConfigError, match="MAX_SWEEP_EXPONENTS"):
            hrcheck.check_sweep(d, e)
        with pytest.raises(ConfigError, match="MAX_SWEEP_EXPONENTS"):
            sample_search(d, e, str(d - 1), trials=1)
    monkeypatch.setattr(hrcheck, "MAX_SWEEP_POINTS", 8)
    with pytest.raises(ConfigError, match="MAX_SWEEP_POINTS"):
        _float_grid.__wrapped__(Partition((3,)), 3)


def test_sample_search_draws_the_forms_of_random_kahler():
    rng, again = np.random.default_rng([5, 1]), np.random.default_rng([5, 1])
    H = random_hermitian(4, rng)
    assert (_hermitians([random_kahler(4, again)], 4)[0] == H).all()


@pytest.mark.parametrize("exact, gap", [(True, 1), (False, 0.5), (False, 1e-6)])
def test_schur_form_pair_refuses_a_non_real_form(exact, gap):
    """One Hermitian check on the stacked H_i, with exterior._require_real's
    message naming the form by its place in the list: exact forms must be
    real exactly, float ones to 1e-9 relative."""
    if exact:
        good = std_kahler(3)
        bad = good + PPForm.monomial(3, (0,), (1,), GaussianRational(gap))
    else:
        good = std_kahler(3, exact=False)
        bad = form_from_hermitian([[1, gap, 0], [0, 1, 0], [0, 0, 1]], exact=False)
    message = (r"^omegas\[1\] is not a real form: it fails the reality condition at "
               r"I = \[1\], J = \[2\]$")
    with pytest.raises(ConfigError, match=message):
        schur_form_pair(Partition((2,)), [good, bad], 3)
    assert not bad.is_real(1e-9)


def test_a_mixed_list_names_the_exact_form_beyond_float_range():
    """A mixed list is read in complex form by form (exterior._float_form),
    so an exact coefficient beyond float range is named by its form and its
    1-based I, J, not by an index of the stacked array."""
    huge = std_kahler(3) * GaussianRational(10 ** 400)
    message = (r"^omegas\[1\] coefficient at I = \[1\], J = \[1\] does not fit in a float; "
               r"decide with the exact backend$")
    with pytest.raises(ConfigError, match=message):
        schur_form_pair(Partition((2,)), [std_kahler(3, exact=False), huge], 3)
    mixed = schur_form_pair(Partition((2,)), [std_kahler(3, exact=False), std_kahler(3)], 3)
    assert [f.is_exact() for f in mixed] == [False, False]
    bad = std_kahler(3) + PPForm.monomial(3, (0,), (1,), GaussianRational(1))
    with pytest.raises(ConfigError, match=r"^omegas\[1\] is not a real form: .* I = \[1\], J = \[2\]$"):
        schur_form_pair(Partition((2,)), [std_kahler(3, exact=False), bad], 3)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("d", range(2, 9))
def test_schur_form_pair_forms_are_real(d, exact):
    """The forms of schur_form_pair meet the reality condition by the rule
    PPForm.is_real (to 1e-9 relative in floats, exactly otherwise), which
    is why _top_form and _mid_form seed _unreal_at as real."""
    rng = np.random.default_rng([d, exact])
    for e, lam in [(2, (d - 1,)), (3, (d - 2, 1))][:1 if d == 2 else 2]:
        omegas = [form_from_hermitian(exact_hermitian(rng, d)) if exact
                  else random_kahler(d, rng) for _ in range(e)]
        for form in schur_form_pair(Partition(lam), omegas, d):
            assert form.is_exact() == exact
            assert form.is_real(1e-9)
            assert _unreal_at(form) is None
