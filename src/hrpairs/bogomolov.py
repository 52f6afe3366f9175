"""Sheaf-side numerics: slopes, discriminants, and curvature-trace positivity.

Numerical sheaf data is a triple (rank, c1, c2) of ring elements; the
discriminant is Delta = 2*r*c2 - (r-1)*c1^2 and the Bogomolov value is its
integral against a degree-(d-2) class.

Curvature lives in a local unitary frame as an r x r matrix of (1,1)-forms
F with F_ji = -conj(F_ij).  Chern-Weil normalization: c1-form = (i/2pi)tr F,
and for the trace-free part F0 the discriminant form is (r/4pi^2) tr(F0^2),
via the polarization identity r*tr(F^2) - (tr F)^2 = r*tr(F0^2).  The trace
check integrates each term F0_ij ^ F0_ji ^ Omega_{d-2}; with every entry in
the kernel of a ^ Omega_{d-1} and (Omega_{d-1}, Omega_{d-2}) a
Hodge-Riemann pair, every term is nonnegative and vanishing total means
projectively flat.

Backends: one kernel serves both.  A curvature matrix is one r x r x d x d
coefficient array and a Higgs field one r x r x d array, complex for float
data and a scalars.ExactArray (integer numerators over one denominator)
for exact data.  constraint_project, trace_check, higgs_curvature_term and
HiggsField.square_residual are a few einsums over them and over the
intersection numbers m = exterior._top_functional(omega_top) and
G = exterior._mid_gram(omega_mid), read from the memo of each form (an
exact operand meeting a float one is read in complex, an exact form under
its name); omega_top and omega_mid must be real forms, and every input
precondition is a ConfigError.  trace_check decides every check on whole
arrays, with one text for both backends, and names an entry only when a
check fails.  _project and _trace_verdict take (G, m) themselves, so a
seeded trial (the CLI's trace-check) reads them from hrcheck.schur_tensors
with no form at all.  A curvature trial makes no wedge, exact or float;
the test suite keeps the Chern-Weil wedges of forms and the per-entry
verdict as its oracles.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import ConfigError, ConsistencyError, DegreeError
from .exterior import PPForm, _float_form, _frozen, _mid_gram, _peak, _promote, _require_real
from .exterior import _top_functional, _zeros
from .scalars import ExactArray, magnitude, negligible, to_float
from .verdict import FAIL, PASS, Verdict, jsonable


class SheafClassData:
    """Numerical data (rank, c1, c2) of a sheaf class in a ring model."""

    __slots__ = ("rank", "c1", "c2")

    def __init__(self, rank, c1, c2):
        if not isinstance(rank, int) or rank < 1:
            raise ConfigError(f"rank must be a positive integer, got {rank!r}")
        if c1.degree != 1 or c2.degree != 2:
            raise DegreeError(
                f"need degrees (1, 2) for (c1, c2), got ({c1.degree}, {c2.degree})"
            )
        if c1.model is not c2.model:
            raise ConfigError("c1 and c2 belong to different ring models")
        self.rank = rank
        self.c1 = c1
        self.c2 = c2

    @property
    def model(self):
        return self.c1.model

    def twist(self, x):
        """Data of the tensor with a line class x (degree-1 element)."""
        r = self.rank
        c1 = self.c1 + r * x
        c2 = self.c2 + (r - 1) * (self.c1 * x) + math.comb(r, 2) * (x * x)
        return SheafClassData(r, c1, c2)

    def __repr__(self):
        return f"SheafClassData(rank={self.rank}, c1={self.c1}, c2={self.c2})"


def slope(E, eta_top):
    """mu_eta(E) = int(c1(E) * eta) / rank(E)."""
    return (E.c1 * eta_top).integrate() / E.rank


def discriminant(E):
    """Delta(E) = 2r c2 - (r-1) c1^2 as a degree-2 ring element."""
    r = E.rank
    return 2 * r * E.c2 - (r - 1) * (E.c1 * E.c1)


def bogomolov_value(E, eta_mid):
    """int(Delta(E) * eta_mid); nonnegative for Bogomolov pairs on semistable data."""
    return (discriminant(E) * eta_mid).integrate()


def extension_class(F, G):
    """Whitney data of an extension 0 -> F -> E -> G -> 0."""
    r = F.rank + G.rank
    c1 = F.c1 + G.c1
    c2 = F.c2 + G.c2 + F.c1 * G.c1
    return SheafClassData(r, c1, c2)


def extension_identity(F, G):
    """Residual of the slope-discriminant identity for an extension; always 0.

    With E the extension data and xi = c1(F)/rk F - c1(G)/rk G:

        -(rk F * rk G / rk E) xi^2
            = Delta(E)/rk E - Delta(F)/rk F - Delta(G)/rk G.

    Returns (residual, parts); the residual is the left side minus the right
    and vanishes identically.
    """
    E = extension_class(F, G)
    rf, rg, re_ = F.rank, G.rank, E.rank
    xi = Fraction(1, rf) * F.c1 - Fraction(1, rg) * G.c1
    lhs = Fraction(-rf * rg, re_) * (xi * xi)
    terms = {
        "extension": Fraction(1, re_) * discriminant(E),
        "sub": Fraction(1, rf) * discriminant(F),
        "quotient": Fraction(1, rg) * discriminant(G),
    }
    rhs = terms["extension"] - terms["sub"] - terms["quotient"]
    return lhs - rhs, {"xi": xi, "lhs": lhs, **terms}


# -- curvature matrices ----------------------------------------------------


class _FormMatrix:
    """Square r x r matrix of (p,q)-forms on one C^d, the bidegree fixed per subclass.

    Stored as one coefficient array, coeffs[i, j, *I, *J] the coefficient of
    dz_I ^ dzbar_J in entry (i, j): A[i, j, a, b] for curvature, T[i, j, a]
    for a Higgs field: the stacked coefficient matrices of the PPForm
    entries, complex for float data and an ExactArray when every entry is
    exact.  Read-only, like the coefficients of a form: .entries wraps its
    blocks as forms, whose memos must not go stale.
    """

    __slots__ = ("coeffs",)
    kind = bidegree = None

    def __init__(self, entries):
        r = len(entries)
        if r == 0 or any(len(row) != r for row in entries):
            raise ConfigError(f"{self.kind} entries must form a square matrix")
        d = entries[0][0].dim
        p, q = self.bidegree
        for row in entries:
            for f in row:
                if f.dim != d or (f.p, f.q) != (p, q):
                    raise DegreeError(
                        f"{self.kind} entries must be ({p},{q})-forms on C^{d}, got {f!r}"
                    )
        blocks = np.stack(_promote(*(f.Z for row in entries for f in row)))
        self.coeffs = _frozen(blocks.reshape((r, r) + (d,) * (p + q)))

    @classmethod
    def _of(cls, A):
        """The matrix with coefficient array A, unchecked and made read-only."""
        M = cls.__new__(cls)
        M.coeffs = _frozen(A)
        return M

    @property
    def size(self):
        return self.coeffs.shape[0]

    @property
    def dim(self):
        return self.coeffs.shape[2]

    def _form(self, block):
        """The PPForm whose coefficients are the array block, an entry's worth."""
        p, q = self.bidegree
        d = self.dim
        return PPForm._of(d, p, q, block.reshape(math.comb(d, p), math.comb(d, q)))

    @property
    def entries(self):
        """The entries as PPForms: a read-only view built from coeffs."""
        return tuple(tuple(self._form(block) for block in row) for row in self.coeffs)

    def is_exact(self):
        return isinstance(self.coeffs, ExactArray)

    def max_abs(self):
        return magnitude(_peak(self.coeffs))


class CurvatureMatrix(_FormMatrix):
    """r x r matrix of (1,1)-forms, F_ji = -conj(F_ij) when admissible."""

    __slots__ = ()
    kind, bidegree = "curvature", (1, 1)

    def __init__(self, entries, check=True):
        super().__init__(entries)
        if check:
            _require_anti_selfadjoint(self.coeffs, 1e-9 * max(self.max_abs(), 1.0))

    @classmethod
    def zero(cls, r, d):
        return cls._of(_zeros((r, r, d, d), True))

    def anti_selfadjoint_residual(self):
        """The largest coefficient of F + F^adj (see _peak)."""
        return _peak(self.coeffs + _adjoint(self.coeffs))

    def trace(self):
        return self._form(np.einsum("iiab->ab", self.coeffs))

    def __add__(self, other):
        if not isinstance(other, CurvatureMatrix) or other.coeffs.shape != self.coeffs.shape:
            return NotImplemented
        A, B = _promote(self.coeffs, other.coeffs)
        return CurvatureMatrix._of(A + B)


def _adjoint(A):
    """Coefficients of F^adj, the matrix of conj(F_ji)."""
    return -A.conj().transpose(1, 0, 3, 2)


def _require_anti_selfadjoint(A, bound):
    """ConfigError unless F + F^adj, F the curvature of coefficients A, is
    negligible to bound (0 for exact data)."""
    res = _peak(A + _adjoint(A))
    if not negligible(res, bound):
        raise ConfigError(f"curvature is not anti-selfadjoint: residual {res}")


def _trace_free(A):
    """Remove (tr A / r) times the identity from the writable array A, in place."""
    diag = np.arange(len(A))
    A[diag, diag] -= np.einsum("iiab->ab", A) / len(A)
    return A


def _check_form(name, form, F, k):
    """form, a real (k,k)-form on the C^d of the curvature F
    (exterior._require_real), in complex for a float F (_float_form)."""
    _require_real(form, name, F.dim, k)
    return form if F.is_exact() else _float_form(form, name)


def constraint_project(F, omega_top):
    """Nearest admissible curvature: anti-selfadjoint, trace-free, and with
    every entry in the kernel of a -> a ^ omega_top.

    The kernel projection subtracts along the Riesz direction of the pairing
    functional m = exterior._top_functional(omega_top), which is a real
    (1,1)-form, so the first two constraints survive the third (_project).
    Exact when F and omega_top are, complex otherwise.
    """
    return _project(F, _top_functional(_check_form("omega_top", omega_top, F, F.dim - 1)))


def _project(F, m):
    """constraint_project from the functional m of omega_top."""
    A, m = _promote(F.coeffs, m)
    A = _trace_free((A - _adjoint(A)) / 2)
    denom = np.vdot(m, m).real
    if denom:
        A = A - np.einsum("ijab,ab->ij", A, m)[..., None, None] * (m.conj() / denom)
    return CurvatureMatrix._of(A)


def trace_check(F0, omega_top, omega_mid, zero_tol=1e-9):
    """Per-term positivity of tr(F0^2) paired with omega_mid.

    Terms are v_ij = int(F0_ij ^ F0_ji ^ omega_mid); preconditions: F0
    anti-selfadjoint, trace-free, F0_ij ^ omega_top = 0 entrywise, and
    omega_top, omega_mid real (_check_form).  Passing means every v_ij >=
    -tol*scale; a vanishing total flags the projectively-flat equality case.
    The discriminant normalization is delta = (r/4pi^2) * total.  F0 is read
    exactly when it and omega_mid are exact, in complex otherwise.  Each
    check is the scalars.negligible rule on a whole array, so tol is
    zero_tol for float values and 0 for exact ones: exact data must meet
    every constraint exactly.  Scales and delta_value are float evidence,
    saturating to inf beyond float range.  The verdict is _trace_verdict's,
    on the intersection numbers of the forms.
    """
    d = F0.dim
    omega_top = _check_form("omega_top", omega_top, F0, d - 1)
    omega_mid = _check_form("omega_mid", omega_mid, F0, d - 2)
    return _trace_verdict(F0, _mid_gram(omega_mid), _top_functional(omega_top), zero_tol)


def _trace_verdict(F0, G, m, zero_tol):
    """trace_check from G = _mid_gram(omega_mid) and m = _top_functional(omega_top),
    on whole arrays: the kernel constraint by _peak, the reality of the terms by
    one mask (Im v != 0 exactly, |Im v| > zero_tol * max(1, |v|) in floats), the
    rest from the real parts (Fractions when exact, at tolerance 0); an entry
    is named only on failure."""
    r = F0.size
    A, G = _promote(F0.coeffs, G)
    exact = isinstance(A, ExactArray)
    curvature_max = magnitude(_peak(A))
    fscale = max(curvature_max, 1.0)
    _require_anti_selfadjoint(A, zero_tol * fscale)
    tr_res = _peak(np.einsum("iiab->ab", A))
    if not negligible(tr_res, zero_tol * fscale):
        raise ConfigError(f"curvature is not trace-free: residual {tr_res}")
    oscale = max(magnitude(_peak(m)), 1.0)  # max |coefficient| of omega_top
    kernel = np.einsum("ijab,ab->ij", *_promote(A, m))
    bound = zero_tol * fscale * oscale
    if not negligible(_peak(kernel), bound):
        beyond = kernel if isinstance(kernel, ExactArray) else ~(np.abs(kernel) <= bound)
        i, j = (k[0] for k in beyond.nonzero())
        raise ConfigError(f"entry ({i},{j}) violates the kernel constraint: {kernel.item(i, j)}")

    raw = np.einsum("ijab,jice,abce->ij", A, A, G)
    if exact:  # the real parts as Fractions; a term is real when its imaginary part is 0
        re, unreal = np.frompyfunc(Fraction, 2, 1)(raw.re, raw.den), raw.im != 0
    else:
        re, unreal = raw.real, ~(np.abs(raw.imag) <= zero_tol * np.fmax(1.0, np.abs(raw)))
    if unreal.any():
        i, j = np.argwhere(unreal)[0].tolist()
        raise ConsistencyError(f"term ({i},{j}) is not real: {raw.item(i, j)}")

    terms = re.tolist()
    size = np.abs(re)
    scale = max(1.0, to_float(size.max()))
    total = sum(re.ravel().tolist())
    negative = (re < 0) & ~(size <= (0 if exact else zero_tol * scale))
    ok = not negative.any()
    details = {
        "rank": r,
        "terms": jsonable(terms),
        "total": jsonable(total),
        "delta_value": r * to_float(total) / (4.0 * math.pi ** 2),
        "projectively_flat": negligible(total, zero_tol * scale),
        "scale": scale,
        "curvature_max_abs": curvature_max,
        "backend": "exact" if exact else "float",
    }
    witness = {} if ok else {"negative_terms": jsonable(
        [(i, j, terms[i][j]) for i, j in np.argwhere(negative).tolist()])}
    return Verdict(
        PASS if ok else FAIL,
        witness=witness,
        tolerances={} if exact else {"zero_tol": zero_tol},
        details=details,
    )


def random_curvature(r, d, rng):
    """Raw complex random matrix of (1,1)-forms (feed through constraint_project)."""
    X = rng.standard_normal((r, r, d, d, 2))  # real and imaginary parts, in turn
    return CurvatureMatrix._of(X[..., 0] + 1j * X[..., 1])


# -- Higgs fields ----------------------------------------------------------


class HiggsField(_FormMatrix):
    """r x r matrix of (1,0)-forms theta with theta ^ theta = 0."""

    __slots__ = ()
    kind, bidegree = "Higgs", (1, 0)

    def __init__(self, entries, check=True):
        super().__init__(entries)
        if check:
            _require_square_zero(self)

    def square_residual(self):
        """The largest coefficient of theta ^ theta (see _peak)."""
        T = self.coeffs
        P = np.einsum("ika,kjb->ijab", T, T)
        return _peak(P - P.transpose(0, 1, 3, 2))


def _require_square_zero(theta):
    """ConfigError unless theta ^ theta = 0: to 1e-9 relative to
    max(1, max |theta|)^2 in floats, exactly for exact data."""
    res = theta.square_residual()
    if not negligible(res, 1e-9 * max(1.0, theta.max_abs()) ** 2):
        raise ConfigError(f"Higgs field fails theta ^ theta = 0: residual {res}")


def higgs_curvature_term(theta):
    """[theta, theta^adj] = theta ^ theta^adj + theta^adj ^ theta.

    The result is an anti-selfadjoint matrix of (1,1)-forms, the extra
    curvature the Higgs field contributes on top of the Chern connection,
    exact for an exact theta.  theta ^ theta must vanish
    (_require_square_zero).
    """
    _require_square_zero(theta)
    T = theta.coeffs
    Tc = T.conj()
    return CurvatureMatrix._of(np.einsum("ika,jkb->ijab", T, Tc)
                               - np.einsum("kja,kib->ijab", T, Tc))


def random_higgs(r, d, rng):
    """Nilpotent-tensor Higgs field N (x) phi1 + N^2 (x) phi2, N strictly upper."""
    N = [[0j] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            N[i][j] = rng.standard_normal() + 1j * rng.standard_normal()
    N2 = [[sum(N[i][k] * N[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    phi1, phi2 = (PPForm(d, 1, 0, {((j,), ()): rng.standard_normal() + 1j * rng.standard_normal()
                                   for j in range(d)}) for _ in range(2))
    return HiggsField([[phi1 * N[i][j] + phi2 * N2[i][j] for j in range(r)] for i in range(r)])
