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

Backends: exact curvature, Higgs fields and forms go through the sparse
wedge, the ground truth.  Float data goes through a dense kernel instead:
curvature becomes one r x r x d x d array, a Higgs field one r x r x d
array, and constraint_project, trace_check, higgs_curvature_term and
HiggsField.square_residual are a few einsums over them and over the
intersection numbers of exterior._top_functional and exterior._mid_gram,
which hrcheck.pointwise_hr_pair reads too.  The public types keep their
PPForm entries either way; the kernel converts at its boundary.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import ConfigError, ConsistencyError, DegreeError
from .exterior import PPForm, _mid_gram, _top_functional, _top_pairing, integrate_top, wedge
from .scalars import conj as _conj
from .scalars import imag_part, is_exact, negligible, real_part
from .verdict import DEGENERATE, FAIL, PASS, Verdict, jsonable


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
    """Square r x r matrix of (p,q)-forms on one C^d, the bidegree fixed per subclass."""

    __slots__ = ("size", "dim", "entries")
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
        self.size = r
        self.dim = d
        self.entries = [list(row) for row in entries]

    def is_exact(self):
        return all(f.is_exact() for row in self.entries for f in row)

    def max_abs(self):
        return max(f.max_abs() for row in self.entries for f in row)


def _largest(forms):
    """The largest coefficient of the forms in modulus, as a float; for exact
    forms the coefficient itself, so that comparing it with zero stays exact."""
    coeffs = [c for f in forms for c in f.coeffs.values()]
    if all(is_exact(c) for c in coeffs):
        return max(coeffs, key=lambda c: real_part(c) ** 2 + imag_part(c) ** 2, default=0)
    return max(abs(complex(c)) for c in coeffs)


class CurvatureMatrix(_FormMatrix):
    """r x r matrix of (1,1)-forms, F_ji = -conj(F_ij) when admissible."""

    __slots__ = ()
    kind, bidegree = "curvature", (1, 1)

    def __init__(self, entries, check=True):
        super().__init__(entries)
        if check:
            res = self.anti_selfadjoint_residual()
            if not negligible(res, 0.0):
                raise ConsistencyError(
                    f"matrix is not anti-selfadjoint: residual {res}"
                )

    @classmethod
    def zero(cls, r, d):
        z = PPForm.zero(d, 1, 1)
        return cls([[z for _ in range(r)] for _ in range(r)], check=False)

    def anti_selfadjoint_residual(self):
        """The largest coefficient of F + F^adj (see _largest)."""
        E = self.entries
        return _largest(E[j][i] + E[i][j].conj()
                        for i in range(self.size) for j in range(self.size))

    def trace(self):
        t = self.entries[0][0]
        for i in range(1, self.size):
            t = t + self.entries[i][i]
        return t

    def adjoint(self):
        return CurvatureMatrix(
            [[self.entries[j][i].conj() for j in range(self.size)]
             for i in range(self.size)],
            check=False,
        )

    def __add__(self, other):
        if not isinstance(other, CurvatureMatrix) or other.size != self.size:
            return NotImplemented
        return CurvatureMatrix(
            [[self.entries[i][j] + other.entries[i][j] for j in range(self.size)]
             for i in range(self.size)],
            check=False,
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, c):
        return CurvatureMatrix(
            [[f * c for f in row] for row in self.entries], check=False
        )

    __rmul__ = __mul__

    def map_entries(self, fn):
        return CurvatureMatrix(
            [[fn(f) for f in row] for row in self.entries], check=False
        )


def anti_selfadjoint_part(F):
    """(F - F^adj)/2; fixed points are exactly the admissible matrices."""
    half = Fraction(1, 2) if F.is_exact() else 0.5
    return (F + (-1) * F.adjoint()) * half


def trace_free_part(F):
    """Remove (tr F / r) times the identity."""
    r = F.size
    scalar = F.trace() * (Fraction(1, r) if F.is_exact() else 1.0 / r)
    out = [row[:] for row in F.entries]
    for i in range(r):
        out[i][i] = out[i][i] - scalar
    return CurvatureMatrix(out, check=False)


def trace_of_square(F):
    """tr(F ^ F) = sum_ij F_ij ^ F_ji as a (2,2)-form."""
    total = PPForm.zero(F.dim, 2, 2)
    for i in range(F.size):
        for j in range(F.size):
            total = total + wedge(F.entries[i][j], F.entries[j][i])
    return total


def chern_forms(F):
    """(c1-form, c2-form) of a curvature matrix, floats, with the 2pi factors."""
    t1 = F.trace()
    t1sq = wedge(t1, t1)
    t2 = trace_of_square(F)
    c1 = t1 * complex(0.0, 1.0 / (2.0 * math.pi))
    c2 = (t2 - t1sq) * (1.0 / (8.0 * math.pi ** 2))
    return c1, c2


def _check_form(name, form, d, k):
    """Raise DegreeError unless form is a (k,k)-form on C^d."""
    if form.dim != d:
        raise DegreeError(f"{name} lives on C^{form.dim}, the curvature on C^{d}")
    if (form.p, form.q) != (k, k):
        raise DegreeError(f"need a ({k},{k})-form {name} on C^{d}, got {form!r}")


# -- dense float kernel ----------------------------------------------------
#
# Float curvature is one complex array A[i, j, a, b], the coefficient of
# dz_a ^ dzbar_b in F_ij, and a float Higgs field is T[i, j, a], the
# coefficient of dz_a in theta_ij.


def _to_array(M):
    """The entries of a CurvatureMatrix or HiggsField as one complex array.

    The coefficient of dz_I ^ dzbar_J in entry (i, j) lands at [i, j, *I, *J].
    """
    f = M.entries[0][0]
    A = np.zeros((M.size, M.size) + (M.dim,) * (f.p + f.q), dtype=complex)
    for i, row in enumerate(M.entries):
        for j, form in enumerate(row):
            for (I, J), c in form.coeffs.items():
                A[(i, j) + I + J] = complex(c)
    return A


def _from_array(A):
    """The CurvatureMatrix with coefficients A[i, j, a, b]."""
    d = A.shape[-1]
    return CurvatureMatrix([
        [PPForm._valid(d, 1, 1, {((a,), (b,)): c
                                 for a, coeffs in enumerate(block)
                                 for b, c in enumerate(coeffs)})
         for block in row]
        for row in A.tolist()
    ], check=False)


def _adjoint(A):
    """Coefficients of F^adj, the matrix of conj(F_ji)."""
    return -A.conj().transpose(1, 0, 3, 2)


def _square_gap(T):
    """Largest coefficient of theta ^ theta for the Higgs array T."""
    P = np.einsum("ika,kjb->ijab", T, T)
    return float(np.abs(P - P.transpose(0, 1, 3, 2)).max())


def constraint_project(F, omega_top):
    """Nearest admissible curvature: anti-selfadjoint, trace-free, and with
    every entry in the kernel of a -> a ^ omega_top.

    The kernel projection subtracts along the Riesz direction of the pairing
    functional, which is a real (1,1)-form, so the first two constraints
    survive the third.  Exact input goes through wedge, anything else
    through the dense float kernel.
    """
    d, r = F.dim, F.size
    _check_form("omega_top", omega_top, d, d - 1)
    if not (F.is_exact() and omega_top.is_exact()):
        A = _to_array(F)
        A = 0.5 * (A - _adjoint(A))
        diag = np.arange(r)
        A[diag, diag] -= np.einsum("iiab->ab", A) / r
        m = _top_functional(omega_top)
        denom = np.vdot(m, m).real
        if denom:
            A -= np.einsum("ijab,ab->ij", A, m)[..., None, None] * (m.conj() / denom)
        return _from_array(A)
    A = trace_free_part(anti_selfadjoint_part(F))
    m = _top_pairing(omega_top, 1)
    denom = sum(real_part(v) ** 2 + imag_part(v) ** 2 for row in m for v in row)
    if denom == 0:
        return A
    riesz = PPForm(d, 1, 1, {
        ((j,), (k,)): _conj(v) for j, row in enumerate(m) for k, v in enumerate(row)
    })

    def project(alpha):
        val = integrate_top(wedge(alpha, omega_top), allow_complex=True)
        if val == 0:
            return alpha
        return alpha - riesz * (val / denom)

    return A.map_entries(project)


def trace_check(F0, omega_top, omega_mid, zero_tol=1e-9, check_constraints=True):
    """Per-term positivity of tr(F0^2) paired with omega_mid.

    Terms are v_ij = int(F0_ij ^ F0_ji ^ omega_mid); preconditions (checked
    unless check_constraints=False): F0 anti-selfadjoint, trace-free, and
    F0_ij ^ omega_top = 0 entrywise.  Passing means every v_ij >= -tol*scale;
    a vanishing total flags the projectively-flat equality case.  The
    discriminant normalization is delta = (r/4pi^2) * total.  Exact F0 and
    omega_mid go through wedge, anything else through the dense float kernel.
    Each check is one scalars.negligible rule, so tol is zero_tol for float
    values and 0 for exact ones: exact data must meet every constraint exactly.
    """
    d = F0.dim
    r = F0.size
    _check_form("omega_top", omega_top, d, d - 1)
    _check_form("omega_mid", omega_mid, d, d - 2)
    exact = F0.is_exact() and omega_mid.is_exact()
    if exact:
        entries = F0.entries
        curvature_max = F0.max_abs()
        if check_constraints:
            res = F0.anti_selfadjoint_residual()
            tr_res = _largest([F0.trace()])
            kernel = [[integrate_top(wedge(entries[i][j], omega_top), allow_complex=True)
                       for j in range(r)] for i in range(r)]
        raw = [[integrate_top(wedge(wedge(entries[i][j], entries[j][i]), omega_mid),
                              allow_complex=True)
                for j in range(r)] for i in range(r)]
    else:
        A = _to_array(F0)
        curvature_max = float(np.abs(A).max())
        if check_constraints:
            res = float(np.abs(A + _adjoint(A)).max())
            tr_res = float(np.abs(np.einsum("iiab->ab", A)).max())
            kernel = np.einsum("ijab,ab->ij", A, _top_functional(omega_top)).tolist()
        raw = np.einsum("ijab,jice,abce->ij", A, A, _mid_gram(omega_mid)).tolist()

    fscale = max(curvature_max, 1.0)
    if check_constraints:
        if not negligible(res, zero_tol * fscale):
            raise ConfigError(f"curvature is not anti-selfadjoint: residual {res}")
        if not negligible(tr_res, zero_tol * fscale):
            raise ConfigError(f"curvature is not trace-free: residual {tr_res}")
        oscale = max(omega_top.max_abs(), 1.0)
        for i in range(r):
            for j in range(r):
                v = kernel[i][j]
                if not negligible(v, zero_tol * fscale * oscale):
                    raise ConfigError(
                        f"entry ({i},{j}) violates the kernel constraint: {v}"
                    )

    terms = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            v = raw[i][j]
            if not negligible(imag_part(v), zero_tol * max(1.0, abs(complex(v)))):
                raise ConsistencyError(f"term ({i},{j}) is not real: {v}")
            terms[i][j] = real_part(v)

    scale = max(1.0, max(abs(float(t)) for row in terms for t in row))
    total = sum(t for row in terms for t in row)
    negatives = [
        (i, j, terms[i][j])
        for i in range(r) for j in range(r)
        if terms[i][j] < 0 and not negligible(terms[i][j], zero_tol * scale)
    ]
    ok = not negatives
    details = {
        "rank": r,
        "terms": jsonable(terms),
        "total": jsonable(total),
        "delta_value": r * float(total) / (4.0 * math.pi ** 2),
        "projectively_flat": negligible(total, zero_tol * scale),
        "scale": scale,
        "curvature_max_abs": curvature_max,
        "backend": "exact" if exact else "float",
    }
    witness = {} if ok else {"negative_terms": jsonable(negatives)}
    return Verdict(
        PASS if ok else FAIL,
        witness=witness,
        tolerances={} if exact else {"zero_tol": zero_tol},
        details=details,
    )


def random_curvature(r, d, rng):
    """Raw complex random matrix of (1,1)-forms (feed through constraint_project)."""
    entries = []
    for _ in range(r):
        row = []
        for _ in range(r):
            coeffs = {}
            for j in range(d):
                for k in range(d):
                    coeffs[((j,), (k,))] = rng.standard_normal() + 1j * rng.standard_normal()
            row.append(PPForm(d, 1, 1, coeffs))
        entries.append(row)
    return CurvatureMatrix(entries, check=False)


# -- Higgs fields ----------------------------------------------------------


class HiggsField(_FormMatrix):
    """r x r matrix of (1,0)-forms theta with theta ^ theta = 0."""

    __slots__ = ()
    kind, bidegree = "Higgs", (1, 0)

    def __init__(self, entries, check=True, tol=0.0):
        super().__init__(entries)
        if check:
            res = self.square_residual()
            if not negligible(res, tol * max(1.0, self.max_abs()) ** 2):
                raise ConsistencyError(
                    f"Higgs field fails theta ^ theta = 0: residual {res}"
                )

    def square_residual(self):
        """The largest coefficient of theta ^ theta (see _largest)."""
        if not self.is_exact():
            return _square_gap(_to_array(self))
        E, r = self.entries, self.size
        return _largest(sum((wedge(E[i][k], E[k][j]) for k in range(r)),
                            PPForm.zero(self.dim, 2, 0))
                        for i in range(r) for j in range(r))


def higgs_curvature_term(theta):
    """[theta, theta^adj] = theta ^ theta^adj + theta^adj ^ theta.

    The result is an anti-selfadjoint matrix of (1,1)-forms, the extra
    curvature the Higgs field contributes on top of the Chern connection.
    theta ^ theta must vanish to 1e-9 relative in floats, exactly otherwise.
    """
    r = theta.size
    d = theta.dim
    T = None if theta.is_exact() else _to_array(theta)
    residual = theta.square_residual() if T is None else _square_gap(T)
    if not negligible(residual, 1e-9 * max(1.0, theta.max_abs()) ** 2):
        raise ConsistencyError("Higgs field fails theta ^ theta = 0")
    if T is not None:
        Tc = T.conj()
        return _from_array(np.einsum("ika,jkb->ijab", T, Tc)
                           - np.einsum("kja,kib->ijab", T, Tc))
    adj = [[theta.entries[j][i].conj() for j in range(r)] for i in range(r)]
    entries = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = PPForm.zero(d, 1, 1)
            for k in range(r):
                acc = acc + wedge(theta.entries[i][k], adj[k][j])
                acc = acc + wedge(adj[i][k], theta.entries[k][j])
            row.append(acc)
        entries.append(row)
    return CurvatureMatrix(entries, check=False)


def random_higgs(r, d, rng):
    """Nilpotent-tensor Higgs field N (x) phi1 + N^2 (x) phi2, N strictly upper."""
    N = [[0j] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            N[i][j] = rng.standard_normal() + 1j * rng.standard_normal()
    N2 = [
        [sum(N[i][k] * N[k][j] for k in range(r)) for j in range(r)]
        for i in range(r)
    ]

    def random_10():
        return PPForm(d, 1, 0, {
            ((j,), ()): rng.standard_normal() + 1j * rng.standard_normal()
            for j in range(d)
        })

    phi1, phi2 = random_10(), random_10()
    entries = [
        [phi1 * N[i][j] + phi2 * N2[i][j] for j in range(r)]
        for i in range(r)
    ]
    return HiggsField(entries, check=True, tol=1e-12)
