"""Hodge-Riemann property and pair checks on intersection-ring models.

For a degree-(d-2) class eta, the Gram form on degree-1 classes is

    Q_eta(a, b) = int(a * eta * b).

eta has the Hodge-Riemann property with respect to an ample direction h when
Q_eta(h, h) > 0 and Q_eta has signature (1, 0, n-1).  A pair of classes
(eta_top, eta_mid) of degrees (d-1, d-2) is a Hodge-Riemann pair when

  1. eta_mid has the Hodge-Riemann property w.r.t. h,
  2. int(h * eta_top) > 0,
  3. int(eta_mid * beta^2) > 0 for the quotient beta = eta_top / eta_mid.

Whenever condition 2 holds and nothing is degenerate, the result is
cross-checked against the equivalent characterization "Q_eta_mid negative
definite on {a : int(a * eta_top) = 0} and Q_eta_mid(h, h) > 0".

Verdicts carry inertia triples from signature, which is linalg.inertia: in
the exact backend they are exact, with no tolerance (fraction-free integer
elimination, or a verified float certificate where it decides), and
eigenvalues are float evidence.  A pair verdict's quotient is Q^-1 f in
both backends, exactly from the elimination that gives In(Q)
(linalg.rational_inertia with a right-hand side), else one float_solve,
and one rule, M q == top (_divides), decides the division.  The exact
restricted signature of the kernel characterization is the inertia of the
bordered matrix of the Gram form and the functional, from their integer
numerators balanced by a power of two, by linalg.rational_inertia without
a right-hand side: from linalg.CERTIFY_FROM rows up a verified float
certificate decides it, and a second integer elimination runs only where
the certificate abstains.  The float one is the inertia of Q on {f = 0}
in the basis of a Householder reflection that sends f to a multiple of
e_0, one rank-two update of Q with no SVD.  Neither is derived from In(Q)
or the quotient q (no Haynsworth shortcut through In(Q) on the float path
either), so the cross-check stays independent and its ConsistencyError
can still fire.
In floats, In(Q) is read once, by linalg.float_signature, and its
eigenvalues serve the verdict as they are.

One core, _pair_verdict, decides every pair from coordinates: the Gram
matrix, the multiplication matrix of eta_mid, eta_top, the functional
int(b_i * eta_top) and h.  The array type is the backend: scalars.ExactArray
in the exact one, float ndarrays in the other, with @ for every pairing and
no flag.  is_hr_pair feeds it from any ring model: the pairing matrix P
and the multiplication matrix M of eta_mid are each one contraction of a
product table, ExactArrays like the coordinates of ring elements, so the
exact backend takes them as they are and exact=False takes float copies of
them.  pointwise_hr_pair feeds it from forms: their intersection numbers
G = exterior._mid_gram(eta_mid) and m = exterior._top_functional(eta_top),
complex or ExactArrays, go to _pointwise_verdict as they are, so no trial
builds a ring, makes a wedge or builds a Fraction list; the Gram matrix
and the functional are signed gathers of G and m (_degree_one_pairing).

Schur pairs multiply no forms: schur_tensors reads (G, m) of (s_lam,
s'_lam) straight from det(sum t_i H_i), H_i the stacked coefficient
matrices of the forms times -i, and schur_form_pair wraps the coefficient
matrices read back from (G, m) as forms whose memos hold (G, m), so
pointwise_hr_pair, constraint_project and trace_check read the kernel's own
tensors and never gather them back from the coefficients.  sample_search
hands (G, m) to _pointwise_verdict itself.
torus_ring(d), the same numbers as exact ring products, is the test
suite's oracle for the pointwise checks, and wedge products of forms
(tests/dense_forms.py) for the Schur pairs.
"""

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, reduce

import numpy as np

from .errors import ConfigError, ConsistencyError, DegreeError, SingularPairingError
from .exterior import _float_form, _hermitian, _memoized, _mid_form, _mid_gram, _promote
from .exterior import _require_real, _top_form, _top_functional, _unreal, _zeros
from .exterior import form_from_hermitian, hermitian_from_form, std_kahler
from .linalg import (
    eigenvalue_evidence,
    float_kernel_vector,
    float_signature,
    float_solve,
    inertia as signature,
    rational_inertia,
    rational_nullspace,
    rational_solve,
)
from .ring import MAX_SWEEP_DIMENSION, MAX_SWEEP_EXPONENTS, MAX_SWEEP_POINTS
from .ring import _hermitian_entries, _real_array, real_coordinates
from .scalars import ExactArray, float_array
from .symfunc import Partition, schur, to_monomials
from .verdict import DEGENERATE, FAIL, PASS, Verdict, jsonable


def _gram(model, eta):
    """The ExactArray P M of int(b_i * eta * b_j) over the degree-1 basis,
    for the model's cached pairing matrix P and the multiplication matrix M
    of eta."""
    d = model.dimension
    if eta.degree != d - 2:
        raise DegreeError(f"eta has degree {eta.degree}; need {d - 2} to pair degree-1 classes")
    return model.pairing_matrix(1) @ model.multiplication_matrix(eta)


def gram(model, eta):
    """Gram matrix int(b_i * eta * b_j) over the degree-1 basis (symmetric),
    as lists of Fractions."""
    return _real(_gram(model, eta))


def _real(x):
    """A real result of @ in plain numbers: Fractions for an ExactArray,
    floats for an ndarray; one number for a 0-d result, else lists."""
    return x.fractions() if isinstance(x, ExactArray) else x.tolist()


def _value(*arrays):
    """x @ y or x @ A @ y of a pair verdict as a plain number: a Fraction of
    the integer parts of ExactArrays, whose imaginary parts are 0 there, or
    a float."""
    if isinstance(arrays[0], ExactArray):
        num = reduce(operator.matmul, (a.re for a in arrays))
        return Fraction(int(num), math.prod(a.den for a in arrays))
    return reduce(operator.matmul, arrays).tolist()


def _kernel_witness(Q):
    if isinstance(Q, ExactArray):
        null = rational_nullspace(Q)
        return [str(x) for x in null[0]] if null else None
    return float_kernel_vector(Q)


def _hr_property(Q, zero_tol, hval=None, inertia=None):
    """has_hr_property's verdict from the Gram matrix and, if given, Q(h, h).

    Q is an ExactArray, decided exactly, or a float array, decided with the
    relative zero_tol.  inertia is (signature, eigenvalues) of Q when the
    caller already has it (_pair_verdict), else signature reads it; the
    eigenvalues are float evidence in the exact backend.
    """
    exact = isinstance(Q, ExactArray)
    sig, eigs = signature(Q, zero_tol) if inertia is None else inertia
    pos, zero, neg = sig
    n = len(Q)
    tolerances = {} if exact else {"zero_tol": zero_tol}
    details = {"backend": "exact" if exact else "float"}
    if zero > 0:
        return Verdict(DEGENERATE, sig, eigs, witness={"kernel_vector": _kernel_witness(Q)},
                       tolerances=tolerances, details=details)
    lorentzian = pos == 1 and neg == n - 1
    if hval is not None:
        details["h_pairing"] = jsonable(hval)
        ok = lorentzian and hval > 0
        witness = {} if ok else {"signature": sig, "h_pairing": jsonable(hval)}
    else:
        ok = lorentzian
        witness = {}
        if ok and n > 0:
            # the top eigenvector of the saturated float copy; NaN if that is not finite
            A = Q.saturated() if exact else Q
            v = np.linalg.eigh(A)[1][:, -1] if np.isfinite(A).all() else [math.nan] * n
            witness["certifying_direction"] = [float(x) for x in v]
    return Verdict(PASS if ok else FAIL, sig, eigs, witness=witness, tolerances=tolerances,
                   details=details)


def has_hr_property(model, eta, h=None):
    """Does Q_eta have Lorentzian signature (1, 0, n-1), positive on h?

    Decided exactly.  With h omitted, only the signature is checked and a
    certifying positive direction (the top float eigenvector) is reported as
    witness.
    """
    Q = _gram(model, eta)
    if h is None:
        return _hr_property(Q, None)
    return _hr_property(Q, None, _value(h.coeffs, Q, h.coeffs))


_SINGULAR_DIVISION = "multiplication by eta is singular on degree-1 classes"


def divide(model, gamma, eta):
    """The class gamma / eta: solves eta * x = gamma for x of degree 1, exactly.

    Of many solutions, the one linalg.rational_solve picks.  Raises
    SingularPairingError, with a kernel vector of the multiplication map by
    eta as witness (None when it is injective), if gamma is not in its image.
    """
    qdeg = gamma.degree - eta.degree
    if qdeg != 1:
        raise DegreeError(
            f"division expects quotient degree 1, got {qdeg} "
            f"(gamma degree {gamma.degree}, eta degree {eta.degree})"
        )
    M = model.multiplication_matrix(eta)
    x = rational_solve(M, gamma.coeffs)
    if x is None:
        raise SingularPairingError(_SINGULAR_DIVISION, witness=_kernel_witness(M))
    return model.from_coeffs(1, x)


def _divides(M, q, top):
    """Does q solve M q = top?  Exact: equality on the integer parts, all
    real.  Float: the residual is at most 1e-6 (|M| |q| + |top|), Frobenius
    and Euclidean norms read from dot products."""
    if isinstance(M, ExactArray):
        return ((M.re @ q.re) * top.den == top.re * (M.den * q.den)).all()
    a, r = M.ravel(), M @ q - top
    scale = math.sqrt(a @ a) * math.sqrt(q @ q) + math.sqrt(top @ top)
    return not math.sqrt(r @ r) > 1e-6 * scale


def _restricted_negdef(Q, functional, zero_tol):
    """Signature of Q restricted to the hyperplane {functional = 0}; functional != 0.

    Exact: the bordered inertia below (its blocks balanced).  Float: with
    f = functional / |f|, v = f + sign(f_0) e_0 and beta = 2 / |v|^2 =
    1 / |v_0|, the Householder reflection P = I - beta v v^T (Householder
    1958; Golub-Van Loan 5.1) sends f to -sign(f_0) e_0, so Q on {f = 0} is
    (P Q P)[1:, 1:], and P Q P = Q - (v u^T + u v^T) for w = Q v and
    u = beta w - (beta^2 v.w / 2) v: one rank-two update, no SVD, and no
    cancellation in v_0.  Neither backend
    reads In(Q) or the quotient (no Haynsworth shortcut through In(Q)), so
    the kernel characterization stays an independent cross-check of the
    three conditions and ConsistencyError can still fire.
    """
    if isinstance(Q, ExactArray):
        # In([[Q, f], [f^T, 0]]) = In(Q on {f = 0}) + (1, 0, 1) (Haynsworth 1968).  Built
        # from the numerators: q [[Q, f], [f^T, 0]] is congruent by diag(I, r/q) to it,
        # for q and r the denominators of Q and f.  The Q block times 2^k (a positive
        # multiple of the congruence by diag(I, 2^-k)) or the border times 2^k (diag(I,
        # 2^k)) gives the largest entries of both one bit length: f's can run 54 bits
        # above Q's, and the float certificate abstains on such a matrix
        n = len(Q)
        R, f = Q.re, functional.re
        gap = np.abs(f).max(initial=0).bit_length() - np.abs(R).max(initial=0).bit_length()
        if gap > 0:
            R = R * 2 ** gap
        elif gap < 0:
            f = f * 2 ** -gap
        border = np.zeros((n + 1, n + 1), dtype=object)
        border[:n, :n], border[:n, n], border[n, :n] = R, f, f
        pos, zero, neg = rational_inertia(ExactArray(border, np.zeros_like(border)))
        return pos - 1, zero, neg - 1
    v = functional / math.hypot(*functional.tolist())  # |f| without overflow or underflow
    v[0] += math.copysign(1.0, v[0])
    beta = 1.0 / abs(v[0])
    w = Q @ v
    u = beta * w - (beta * beta * (v @ w) / 2) * v
    vu = v[1:, None] * u[1:]
    return float_signature(Q[1:, 1:] - (vu + vu.T), zero_tol)[0]


def _pair_verdict(Q, M, top, functional, h, zero_tol):
    """The Hodge-Riemann pair verdict from coordinates; every pair check ends here.

    Q is the Gram matrix of eta_mid on degree-1 classes, M the matrix of
    multiplication by eta_mid from degree 1 to degree d-1, top the
    coordinates of eta_top, functional[i] = int(b_i * eta_top) and h the
    coordinates of h.  The array type is the backend: all are real
    ExactArrays, decided exactly, or all float arrays, decided with the
    relative zero_tol.  Callers pass Q = P M and functional = P top for
    the pairing P of degrees 1 and d-1.  q = Q^-1 functional comes from the
    elimination that gives In(Q) (linalg.rational_inertia with a right-hand
    side), or from float_solve once Q is nondegenerate; M is then injective,
    so M q == top (_divides) decides the division, and exactly q Q q =
    q . functional.  The values Q(h, h), h . functional and that one are
    single Fractions of integer products (_value).

    Any zero inertia along the way yields outcome "degenerate" (never a hard
    pass/fail); otherwise the kernel characterization is recomputed and a
    disagreement raises ConsistencyError.
    """
    exact = isinstance(Q, ExactArray)
    tolerances = {} if exact else {"zero_tol": zero_tol}
    hval = _value(h, Q, h)
    if exact:
        sig, q = rational_inertia(Q, functional)
        inertia = sig, eigenvalue_evidence(Q)
    else:
        inertia = float_signature(Q, zero_tol)
    prop = _hr_property(Q, zero_tol, hval, inertia)
    c2val = _value(h, functional)
    # prop's fields as they are; to_dict makes them JSON with the rest
    details = {"hr_property": vars(prop), "pairing_with_h": jsonable(c2val)}
    verdict = partial(Verdict, signature=prop.signature, eigenvalues=prop.eigenvalues,
                      tolerances=tolerances, details=details)
    if prop.outcome == DEGENERATE:
        return verdict(DEGENERATE, witness=prop.witness)
    if not exact:
        q = float_solve(Q, functional)
    if q is None or not _divides(M, q, top):
        # Q nondegenerate, so M is injective: top is outside im M (or LAPACK found Q singular)
        return verdict(DEGENERATE, witness={"division": _SINGULAR_DIVISION, "kernel_vector": None})
    c3val = _value(q, functional) if exact else _value(q, Q, q)
    details["quotient"] = jsonable(_real(q))
    details["quotient_square_value"] = jsonable(c3val)
    checks = {"hr_property": prop.passed, "pairing_with_h_positive": c2val > 0,
              "quotient_square_positive": c3val > 0}
    passed = all(checks.values())
    if c2val > 0:
        rsig = _restricted_negdef(Q, functional, zero_tol)
        kernel_pass = rsig == (0, 0, len(Q) - 1) and hval > 0
        details["kernel_characterization"] = {
            "restricted_signature": rsig, "h_pairing": jsonable(hval), "pass": kernel_pass,
        }
        if rsig[1] > 0:
            return verdict(DEGENERATE, witness={"restricted_signature": rsig})
        if kernel_pass != passed:
            raise ConsistencyError("three-condition check and kernel characterization "
                                   f"disagree: {passed} vs {kernel_pass}")
    failed = [name for name, ok in checks.items() if not ok]
    return verdict(FAIL if failed else PASS,
                   witness={"failed_conditions": failed} if failed else {})


def is_hr_pair(model, eta_top, eta_mid, h, zero_tol=1e-9, exact=True):
    """Check the three Hodge-Riemann pair conditions for (eta_top, eta_mid).

    The Gram matrix Q = P M, the multiplication matrix M, eta_top and the
    functional P eta_top, for P the pairing matrix, are exact ring products,
    as ExactArrays.  With exact=False the decision runs on float copies of
    them with the relative zero_tol, and an entry beyond float range raises
    ConfigError; see _pair_verdict for the verdict rules.
    """
    d = model.dimension
    if eta_top.degree != d - 1 or eta_mid.degree != d - 2:
        raise DegreeError(
            f"pair must have degrees ({d - 1}, {d - 2}), got "
            f"({eta_top.degree}, {eta_mid.degree})"
        )
    if h.degree != 1:
        raise DegreeError(f"h must have degree 1, got {h.degree}")
    P, M = model.pairing_matrix(1), model.multiplication_matrix(eta_mid)
    values = (P @ M, M, eta_top.coeffs, P @ eta_top.coeffs, h.coeffs)
    if exact:
        return _pair_verdict(*values, zero_tol)
    names = ("Gram matrix", "multiplication matrix", "eta_top", "functional", "h")
    return _pair_verdict(*(float_array(v, float, name) for v, name in zip(values, names)),
                         zero_tol)


def pos_cone_contains(model, beta, eta, h):
    """Membership of a degree-1 class in the eta-positive cone, decided exactly.

    Requires int(beta * eta * h) > 0 and int(beta^2 * eta) > 0.
    """
    if beta.degree != 1 or h.degree != 1:
        raise DegreeError("beta and h must have degree 1")
    v1 = (beta * eta * h).integrate()
    v2 = (beta * beta * eta).integrate()
    ok = v1 > 0 and v2 > 0
    return Verdict(
        PASS if ok else FAIL,
        witness={} if ok else {"pairing_with_h": jsonable(v1), "square": jsonable(v2)},
        details={"pairing_with_h": jsonable(v1), "square": jsonable(v2)},
    )


# -- pointwise (form-level) checks ----------------------------------------


@lru_cache(maxsize=None)
def _gather_tables(d, exact):
    """(q_index, q_sign, f_index, f_sign), the signed gathers of
    _degree_one_pairing: Q[k, l] = (g[0] + g[1]) + (g[2] + g[3]) for
    g[s] = q_sign[s, k, l] X[q_index[s, k, l]], and functional[k] = the same
    two-term sum of f_sign[s, k] Y[f_index[s, k]], for X and Y the real and
    imaginary parts of G (d^2 x d^2) and of m (d x d) interleaved
    (_interleaved).

    Row k of B, the coefficient matrix i H_k of the k-th real basis form of
    degree 1, has at most two entries b_t = i (re + i im), +-1 or +-i, at
    the positions of ring._hermitian_entries, so an entry of Q has at most
    four terms and one of the functional two, each +-Re or +-Im of one entry
    of G or m: Re(b c g) is Re g times Re(b c), or Im g times -Im(b c), for
    units b and c.  The terms s = (u, t) of Q[k, l], b_t of row k and c_u of
    row l, are grouped as (B G) B^T groups them, and entry (k, l), k < l,
    reads the terms of (l, k): a float Q is exactly symmetric and its lower
    triangle, which eigvalsh reads, is that of the product.  G is symmetric
    (2-forms commute).  Read-only; the signs, 0 for a missing entry, are
    Python ints for the exact backend and floats for the other.
    """
    rows, cols, re, im = (t.T for t in _hermitian_entries(d, 1))  # [t, k]: entry t of row k
    pos = rows * d + cols
    x, y = -im, re  # Re b, Im b

    def pairs(a, c):  # [u, t, k, l] = a[t, k] c[u, l]
        return a[None, :, :, None] * c[:, None, None, :]

    real, imag = pairs(x, x) - pairs(y, y), pairs(x, y) + pairs(y, x)  # Re(b c), Im(b c)
    n = d * d
    q_index = (2 * (pos[None, :, :, None] * n + pos[:, None, None, :])
               + (real == 0)).reshape(4, n, n)
    q_sign = (real - imag).reshape(4, n, n)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    q_index, q_sign = (np.where(upper, t.transpose(0, 2, 1), t) for t in (q_index, q_sign))
    sign = object if exact else float
    tables = (q_index, q_sign.astype(sign), 2 * pos + (y != 0), (x - y).astype(sign))
    for t in tables:
        t.flags.writeable = False
    return tables


def _interleaved(X):
    """The real and imaginary parts of the entries of X, interleaved in one
    flat array: the integer parts of an ExactArray, or a float view of a
    complex ndarray."""
    if isinstance(X, ExactArray):
        return np.stack([X.re, X.im], axis=-1).ravel()
    return np.ascontiguousarray(X).view(float).ravel()


def _degree_one_pairing(G, m, exact):
    """(Q, functional) = (Re(B G B^T), Re(B m)) for the degree-1 real basis
    B, G = _mid_gram(eta_mid) and m = _top_functional(eta_top): signed
    gathers (_gather_tables), O(d^4), of the integer parts of exact G and m,
    giving real ExactArrays, or of the float parts of complex ones."""
    q_index, q_sign, f_index, f_sign = _gather_tables(len(m), exact)
    g = q_sign * _interleaved(G)[q_index]
    Q = (g[0] + g[1]) + (g[2] + g[3])
    f = f_sign * _interleaved(m)[f_index]
    functional = f[0] + f[1]
    if exact:
        return _real_array(Q, G.den), _real_array(functional, m.den)
    return Q, functional


def _pointwise_verdict(G, m, h, zero_tol):
    """pointwise_hr_pair's verdict from G = _mid_gram(eta_mid), m =
    _top_functional(eta_top) and the coordinates h of omega, exact when h is
    an ExactArray.

    The degree-1 real basis B pairs to Q = Re(B G B^T) and functional =
    Re(B m), real for real forms and read by signed gathers
    (_degree_one_pairing), with no product.  Q = P M and functional = P top
    for P the pairing of degrees 1 and d-1, invertible on the torus
    (Poincare duality): M q = top iff Q q = functional, so the core decides
    on (Q, Q, functional, functional).
    """
    Q, functional = _degree_one_pairing(G, m, isinstance(h, ExactArray))
    return _pair_verdict(Q, Q, functional, functional, h, zero_tol)


@_memoized
def _kahler_inertia(omega, zero_tol):
    """The inertia of the Hermitian matrix of the (1,1)-form omega, kept in
    its memo: a reference form that decides many pairs is checked once."""
    return signature(hermitian_from_form(omega), zero_tol)[0]


def pointwise_hr_pair(omega_top, omega_mid, omega, zero_tol=1e-9):
    """Hodge-Riemann pair check for constant-coefficient forms.

    omega_top is a (d-1,d-1)-form, omega_mid a (d-2,d-2)-form and omega a
    strictly positive (1,1)-form, all real in both backends
    (exterior._require_real).  Their intersection numbers come from
    exterior._mid_gram and exterior._top_functional, exactly when all three
    forms are exact and in complex otherwise (exterior._float_form), and
    _pointwise_verdict decides; no ring model is built.  The realness, the
    intersection numbers, the inertia of omega and its coordinates are read
    through the memos of the forms (exterior._memoized), so a form checked
    again is not read again; the forms of schur_form_pair carry theirs.
    """
    d = omega_top.dim
    forms = (omega_top, "omega_top"), (omega_mid, "omega_mid"), (omega, "omega")
    for (form, name), k in zip(forms, (d - 1, d - 2, 1)):
        _require_real(form, name, d, k)
    sig = _kahler_inertia(omega, zero_tol)
    if sig != (d, 0, 0):
        raise ConfigError(f"omega is not strictly positive: Hermitian inertia {sig}")
    if not (omega_top.is_exact() and omega_mid.is_exact() and omega.is_exact()):
        omega_top, omega_mid, omega = (_float_form(form, name) for form, name in forms)
    return _pointwise_verdict(_mid_gram(omega_mid), _top_functional(omega_top),
                              real_coordinates(omega), zero_tol)


DELTA = 1e-3  # the shift that keeps a random Hermitian matrix nonsingular


def random_hermitian(d, rng):
    """Random positive definite A^* A + DELTA * Id, A complex Gaussian, made
    exactly Hermitian: the product A^* A rounds its two triangles apart, so
    it is averaged with its conjugate transpose, which moves each entry by
    about 1 ulp of the largest at most."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = A.conj().T @ A
    return (H + H.conj().T) / 2 + DELTA * np.eye(d)


def random_kahler(d, rng):
    """Random strictly positive (1,1)-form i H for H = random_hermitian(d, rng)."""
    return form_from_hermitian(random_hermitian(d, rng), exact=False)


# -- Schur pairs from the determinant --------------------------------------


def _schur_targets(lam, e):
    """({mu: c_mu mu!} over the monomials c_mu x^mu of s_lam in e variables,
    the same for s'_lam = sum_i d/dx_i s_lam, the order-one coefficient of
    s_lam(x + t) (symfunc.derived), read off those of s_lam."""
    top = {mu: c * math.prod(map(math.factorial, mu))
           for mu, c in to_monomials(schur(lam, e)).items()}
    mid = {}
    for mu, c in top.items():
        for i in range(e):
            if mu[i]:
                nu = mu[:i] + (mu[i] - 1,) + mu[i + 1:]
                mid[nu] = mid.get(nu, 0) + c
    return top, mid


def _compositions(n, e):
    """The exponent tuples of e entries >= 0 summing to n."""
    for bars in itertools.combinations(range(n + e - 1), e - 1):
        cuts = (-1, *bars, n + e - 1)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def _lattice_rule(A, d):
    """(M, g) with the exponents A (rows, entries below d) distinct in A g
    mod M: M grows from len(A) by about 3 % a step, and g = (1, a, a^2, ...)
    mod M for the first a < 256 that works; the tensor grid (d^k, powers of
    d) for k = A.shape[1] always does, and ends the search."""
    k = A.shape[1]
    M = len(A)
    while M < d ** k:
        G = np.ones((k, min(M, 256) - 1), dtype=np.int64)
        for j in range(1, k):
            G[j] = G[j - 1] * np.arange(1, G.shape[1] + 1) % M
        hit = np.zeros((M, G.shape[1]), dtype=bool)
        hit[A @ G % M, np.arange(G.shape[1])] = True
        good = hit.sum(axis=0) == len(A)
        if good.any():
            return M, G[:, good.argmax()]
        M += 1 + M // 32
    return d ** k, d ** np.arange(k)


def _unit(x):
    """exp(i x)."""
    return complex(math.cos(x), math.sin(x))


@lru_cache(maxsize=None)
def _float_grid(lam, e):
    """(T, w_top, w_mid): points t_k, the rows of T, and the complex weights
    of s_lam and of s'_lam.

    With t_1 = 1 the monomials of both are zeta^nu, nu in A, the exponents
    of e - 1 entries with |nu| < d = |lam| + 1.  The points are a rank-1
    lattice rule, t_k = (1, r_j w^(k g_j))_j for w = exp(2 pi i / M), k < M,
    each zeta_j turned by r_j = exp(i pi j / (e d)) so that no X(t_k) is a
    real combination of the H_i.  The nu in A being distinct in nu . g mod M
    (_lattice_rule), their characters are orthogonal on the points, and the
    weights are one inverse DFT of the targets.
    """
    d = lam.weight + 1
    A = [mu[1:] for mu in _compositions(d - 1, e)]
    A = np.array(A, dtype=np.int64).reshape(len(A), e - 1)
    M, g = _lattice_rule(A, d)
    if M > MAX_SWEEP_POINTS:
        raise ConfigError(f"the float Schur pairs of {e} forms on C^{d} need {M} points, above "
                          f"{MAX_SWEEP_POINTS} (ring.MAX_SWEEP_POINTS)")
    k = np.arange(M)
    roots = np.array([_unit(2 * math.pi * j / M) for j in range(M)])
    turn = np.arange(1, e)
    T = roots[np.outer(k, g) % M] * [_unit(math.pi * j / (e * d)) for j in turn]
    # w_k = sum_nu c_nu conj(t_k^nu) / M, the exponents reduced mod M
    phase = roots[-np.outer(k, A @ g) % M] * [_unit(-math.pi * x / (e * d)) for x in A @ turn] / M
    column = {nu: i for i, nu in enumerate(map(tuple, A.tolist()))}
    weights = []
    for targets in _schur_targets(lam, e):
        c = np.zeros(len(A))
        for mu, value in targets.items():
            c[column[mu[1:]]] = value
        weights.append(phase @ c)
    return (np.concatenate([np.ones((M, 1)), T], axis=1), *weights)


@lru_cache(maxsize=None)
def _lattice(lam, e):
    """(points, (w_top, W_top), (w_mid, W_mid)), read-only: integer points
    t_k, the rows of an np.int64 array, and the weights of s_lam and of
    s'_lam, each 0 on the other's points, as integer numerators (object
    arrays) over their common denominators W.  The points of degree n are
    the nu >= 0 with |nu| = n, unisolvent for the forms of degree n (the one
    point (1, 0, ..., 0) when n = 0), and the weights one exact Vandermonde
    solve."""
    d = lam.weight + 1
    parts = []
    for target, n in zip(_schur_targets(lam, e), (d - 1, d - 2)):
        monomials = list(_compositions(n, e))
        nodes = monomials if n else [(1,) + (0,) * (e - 1)]
        vandermonde = [[math.prod(t ** x for t, x in zip(node, mu)) for node in nodes]
                       for mu in monomials]
        weights = rational_solve(vandermonde, [target.get(mu, 0) for mu in monomials])
        parts.append((nodes, weights.fractions()))
    (top, w_top), (mid, w_mid) = parts
    points = np.array(top + mid, dtype=np.int64)
    points.flags.writeable = False
    out = [points]
    for w in (w_top + [0] * len(mid), [0] * len(top) + w_mid):
        W = math.lcm(*(x.denominator for x in w))
        num = np.array([x.numerator * (W // x.denominator) for x in w], dtype=object)
        num.flags.writeable = False
        out.append((num, W))
    return tuple(out)


def _float_schur_tensors(lam, H):
    """(G, m) on the points of _float_grid, in chunks of about 2^16 entries.

    A point whose X is singular or has Frobenius condition number above
    1e6 is read from its SVD X = U diag(S) W instead: adj X = phi W^*
    diag(c_pp) U^* and det X Y (x) Y - ... = phi sum c_pq (...) for phi =
    det U det W and c_pq the product of the S_j, j != p, q; no division.
    """
    e, d = H.shape[:2]
    T, w_top, w_mid = _float_grid(lam, e)
    H = H.reshape(e, d * d)  # X(t) = sum t_i H_i for a chunk of points is one matmul
    m, T1 = np.zeros(d * d, dtype=complex), np.zeros((d * d, d * d), dtype=complex)
    step = max(1, 2 ** 16 // (d * d))
    for start in range(0, len(T), step):
        X = (T[start:start + step] @ H).reshape(-1, d, d)
        wt, wm = w_top[start:start + step], w_mid[start:start + step]
        try:
            Y = np.linalg.inv(X)
        except np.linalg.LinAlgError:  # a singular X in the chunk
            Y = np.full_like(X, np.nan)
        x, y = (np.square(Z.reshape(len(Z), -1).view(float)) for Z in (X, Y))
        ok = x.sum(axis=1) * y.sum(axis=1) <= 1e12  # |X|_F^2 |Y|_F^2, two row sums
        well = ok.all()
        good = slice(None) if well else ok  # views, not copies, when every point is good
        det = np.linalg.det(X[good])
        V = (det[:, None, None] * Y[good]).transpose(0, 2, 1).reshape(-1, d * d)
        m += wt[good] @ V
        T1 += (V.T * (wm[good] / det)) @ V
        if not well:
            U, S, W = np.linalg.svd(X[~ok])
            phi = np.linalg.det(U) * np.linalg.det(W)
            R = np.einsum("kap,kpb->kpab", U.conj(), W.conj()).reshape(len(S), d, d * d)
            j = np.arange(d)  # c's diagonal cancels from G
            c = np.prod(np.where((j != j[:, None, None]) & (j != j[:, None]),
                                 S[:, None, None, :], 1.0), axis=3)
            m += np.einsum("k,kp,kpx->x", wt[~ok] * phi, np.diagonal(c, 0, 1, 2), R)
            T1 += R.reshape(-1, d * d).T @ ((c * (wm[~ok] * phi)[:, None, None]) @ R).reshape(
                -1, d * d)
    T1 = T1.reshape(d, d, d, d)
    return T1.transpose(2, 1, 0, 3) - T1, -1j * m.reshape(d, d)


def _bareiss(R, J):
    """(adj_re, adj_im, det, ok) of the Gaussian-integer Hermitian K = R +
    iJ, stacked (N, d, d) arrays of one dtype, np.int64 or object, by
    fraction-free Gauss-Jordan elimination of [K | I] for all N at once with
    diagonal pivots: it leaves det K I and adj K, in that dtype.  Every
    pivot is a leading principal minor, real for a Hermitian K and positive
    for a positive definite one, and every update divides exactly by the
    previous pivot.  By Sylvester's identity (Bareiss 1968) every entry it
    stores is a minor of [K | I] up to sign, which bounds them
    (_exact_schur_tensors).  Step k touches columns k+1..d+k only: those to
    its left are done, and identity column j > k is still the previous pivot
    times e_j.  ok is False where a pivot is 0; past it the point's pivot is
    1 and its column k is taken as 0, so its entries only divide and stay
    bounded (they are not minors then, and no caller reads them).
    """
    N, d, _ = R.shape
    R = np.concatenate([R, np.zeros((N, d, d), dtype=R.dtype)], axis=2)
    J = np.concatenate([J, np.zeros((N, d, d), dtype=J.dtype)], axis=2)
    prev, ok = np.ones((N, 1, 1), dtype=R.dtype), np.ones(N, dtype=bool)
    for k in range(d):
        R[:, k, d + k] = prev.ravel()
        p = R[:, k:k + 1, k:k + 1]
        ok &= (p != 0).ravel()
        live = ok[:, None, None]
        p = np.where(live, p, 1)
        cols = slice(k + 1, d + k + 1)
        a, b = R[:, :, k:k + 1] * live, J[:, :, k:k + 1] * live
        r, j = R[:, k:k + 1, cols], J[:, k:k + 1, cols]
        R_ = (p * R[:, :, cols] - a * r + b * j) // prev
        J_ = (p * J[:, :, cols] - a * j - b * r) // prev
        R_[:, k], J_[:, k] = r[:, 0], j[:, 0]
        R[:, :, cols], J[:, :, cols], prev = R_, J_, p
    return R[:, :, d:], J[:, :, d:], prev.ravel(), ok


_INT64_LOG2 = 62  # an np.int64 exact Schur kernel keeps every intermediate below 2^62


def _log2_hadamard(K2):
    """log2 of prod_i |row i of [K | I]|_2 for each K of a stack, from K2,
    float upper bounds of the |K[i, j]|^2, shape (N, d, d).  Every minor of
    [K | I] is at most this h in absolute value (Hadamard's inequality,
    complex rows): a square submatrix's determinant is at most the product
    of its row norms, each at most that of its row of [K | I], and the
    other rows' norms are >= 1 (their identity entry)."""
    return 0.5 * np.log2(1 + K2.sum(axis=2)).sum(axis=1)


def _kernel_dtype(log2_h, *weights):
    """np.int64 if the bound of _exact_schur_tensors is below 2^_INT64_LOG2,
    else object: log2_h from _log2_hadamard at every point, the weights
    integer numerators (object arrays), one per weighted sum."""
    top = log2_h.max(initial=0)
    size = max(np.abs(w).sum() for w in weights)
    bound = max(2 + 2 * top, top + math.log2(max(size, 1)))
    return np.int64 if bound + 1 < _INT64_LOG2 else object


@lru_cache(maxsize=None)
def _minor_tables(d):
    """(factors, index), read-only: for the pairs p = (a, c), a < c, and
    r = (b, e), b < e, factors[:, p, r] are the flat positions in a d x d A
    of A[b, c], A[e, a], A[b, a] and A[e, c], and G = X[index] for X the
    S[p, r] of _exact_schur_tensors, then -S[p, r], then 0 (a = c or b = e)."""
    first, second = np.triu_indices(d, 1)
    P = len(first)
    a, c, b, e = first[:, None], second[:, None], first, second
    factors = np.stack([b * d + c, e * d + a, b * d + a, e * d + c])
    pair = np.zeros((d, d), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(P)
    sign = np.sign(np.arange(d) - np.arange(d)[:, None])  # [x, y]: +1 for x < y
    s = sign[:, None, :, None] * sign[None, :, None, :]
    flat = pair[:, None, :, None] * P + pair[None, :, None, :]
    index = np.where(s == 0, 2 * P * P, flat + P * P * (s < 0))
    for t in (factors, index):
        t.flags.writeable = False
    return factors, index


def _exact_schur_tensors(lam, H):
    """(G, m) at the points of _lattice.  H = (re + i im)/den, so for
    K(t) = sum t_i re_i + i im_i, X = K/den, det X Y = adj K / den^(d-1) and
    det X (Y (x) Y - ...) = (adj K (x) adj K - ...)/(det K den^(d-2)).

    By Jacobi's complementary-minor theorem the 2 x 2 minors of adj K are
    det K times (d-2)-minors of K, so S = adj K[b, c] adj K[e, a] -
    adj K[b, a] adj K[e, c], on the C(d,2)^2 entries a < c, b < e that
    determine G (_minor_tables), divides by det K exactly at each point.
    G sums these with the integer numerators of the weights over their one
    denominator W, over W den^(d-2): no lcm of determinants; m likewise.

    A point whose elimination meets a zero pivot (X(t) not positive
    definite) is replaced by the d shifts K(t) + s I, s = s0 + 1 + i for s0
    the largest absolute row sum, weighted by the Lagrange weights that
    extrapolate a polynomial of degree < d in s to s = 0: prod_(t != s)
    t / (t - s) = (-1)^i C(d-1, i) prod_(t != s) t / (d-1)!, which enters
    W as the factor (d-1)!.

    One text runs on np.int64 arrays where a bound proves every
    intermediate below 2^62, and on object arrays of Python ints otherwise
    (_kernel_dtype).  With h_k the Hadamard bound of [K(t_k) | I]
    (_log2_hadamard), every entry _bareiss stores at t_k is a minor of that
    matrix (Sylvester's identity), hence at most h_k, and so are the
    entries of K(t_k) (with the partial sums of sum_i t_i re_i, the t_i >= 0)
    and of adj K and det K; an update sums three products, at most 3 h_k^2,
    and a numerator of S four, at most 4 h_k^2; S / det K is a minor of K,
    at most h_k.  m and S sum w_k times such entries, at most h ||w||_1 for
    h = max h_k and the numerators w.  So every intermediate is at most
    max(4 h^2, h ||w||_1), for the shifted points too, with their own h_k
    and the weights times the Lagrange numerators.  h comes from float
    upper bounds of |K|: |t| |re| + ... in floats, squared and summed per
    row; every step rounds by at most 2^-53 relative, so for d, e < 2^10
    the float log2 bound is below the true one by less than 2^-40.  It
    must stay below 62 - 1: a safety factor of 2 on a bound already 2x
    under the int64 range.  Parts of H of 2^62 or more go to object at
    once, so no float overflows.  The results become ExactArrays once,
    after the gcd reduction (ExactArray._reduced).
    """
    e, d = H.shape[:2]
    points, (w_top, W_top), (w_mid, W_mid) = _lattice(lam, e)
    parts = np.stack([H.re, H.im])
    absolute = np.abs(parts)
    dtype = object
    if absolute.max(initial=0) < 2 ** _INT64_LOG2:
        bound = np.tensordot(points, absolute.astype(float), axes=(1, 1))  # (N, 2, d, d)
        log2_h = _log2_hadamard(np.square(bound).sum(axis=1))
        dtype = _kernel_dtype(log2_h, w_top, w_mid)
    K = np.tensordot(points, parts.astype(dtype), axes=(1, 1))
    R, J = K[:, 0], K[:, 1]
    adj_re, adj_im, det, ok = _bareiss(R, J)
    if not ok.all():
        s0 = max((np.abs(R[~ok]) + np.abs(J[~ok])).sum(axis=2).ravel().tolist())
        shifts = range(s0 + 1, s0 + d + 1)
        lagrange = np.array([(-1) ** i * math.comb(d - 1, i) * math.prod(shifts) // s
                             for i, s in enumerate(shifts)], dtype=object)
        (w_top, W_top), (w_mid, W_mid) = (
            (np.concatenate([w[ok] * math.factorial(d - 1), np.outer(w[~ok], lagrange).ravel()]),
             W * math.factorial(d - 1)) for w, W in ((w_top, W_top), (w_mid, W_mid)))
        shifted = R[~ok][:, None] + np.multiply.outer(np.array(shifts, dtype=R.dtype),
                                                      np.eye(d, dtype=R.dtype))
        shifted, J2 = shifted.reshape(-1, d, d), np.repeat(J[~ok], d, axis=0)
        if dtype is np.int64:
            K2 = np.square(shifted.astype(float)) + np.square(J2.astype(float))
            log2_h = np.concatenate([log2_h, _log2_hadamard(K2)])
            dtype = _kernel_dtype(log2_h, w_top, w_mid)
        re2, im2, det2, _ = _bareiss(shifted.astype(dtype), J2.astype(dtype))
        adj_re, adj_im, det = (np.concatenate([x[ok], y]) for x, y in ((adj_re, re2),
                                                                      (adj_im, im2), (det, det2)))
    Vre, Vim = (x.transpose(0, 2, 1).reshape(-1, d * d) for x in (adj_re, adj_im))
    top, mid = np.flatnonzero(w_top), np.flatnonzero(w_mid)
    w = w_top[top].astype(dtype)
    # -i (w @ V) = (w @ V_im - i w @ V_re)
    m = ExactArray._reduced(w @ Vim[top], -(w @ Vre[top]), W_top * H.den ** (d - 1))
    factors, index = _minor_tables(d)
    x, y = (part.reshape(len(det), -1)[mid].T[factors] for part in (adj_re, adj_im))
    # S / det K at every point: Re and Im of f0 f1 - f2 f3, f = x + i y the four factors
    D = np.stack([x[0] * x[1] - y[0] * y[1] - x[2] * x[3] + y[2] * y[3],
                  x[0] * y[1] + y[0] * x[1] - x[2] * y[3] - y[2] * x[3]]) // det[mid]
    S = (D.reshape(-1, len(mid)) @ w_mid[mid].astype(dtype)).reshape(2, -1)
    G = np.concatenate([S, -S, np.zeros((2, 1), dtype=S.dtype)], axis=1)[:, index]
    return ExactArray._reduced(G[0], G[1], W_mid * H.den ** (d - 2)), m.reshape(d, d)


def schur_tensors(lam, H):
    """(G, m) = (_mid_gram(eta_mid), _top_functional(eta_top)) for the
    Schur pair (eta_top, eta_mid) = (s_lam, s'_lam) of the (1,1)-forms
    omega_i = i sum H[i, j, k] dz_j dzbar_k, with no product of forms.

    H stacks e Hermitian d x d matrices, an ExactArray (decided exactly)
    or complex, and |lam| = d - 1.  int omega_i1 ^ ... ^ omega_id is d!
    times the mixed discriminant of the H_i (Alexandrov 1938; Bapat 1989),
    so for X(t) = sum t_i H_i, Y = X^-1 and weights w_k at points t_k with
    sum_k w_k t_k^mu = c_mu mu! for the monomials c_mu x^mu of s_lam (of
    s'_lam for G), Jacobi's derivatives of det X polarize to

      m[a, b]       = -i sum_k w_k det X(t_k) Y_k[b, a],
      G[a, b, c, e] = -sum_k w_k det X(t_k) (Y_k[b, a] Y_k[e, c] - Y_k[b, c] Y_k[e, a]).

    So G[a, b, c, e] sums w_k times a 2 x 2 minor of adj X(t_k) over
    det X(t_k): the float kernel forms V^T diag(w / det) V, V_k =
    vec(adj X(t_k)^T), minus the same with a and c swapped; the exact one
    divides each minor exactly (Jacobi, _exact_schur_tensors).  The points
    are _float_grid's or _lattice's; s_lam = 0 when lam has more than e
    rows, and so are G and m.
    """
    e, d = H.shape[0], H.shape[1]
    if lam.weight != d - 1:
        raise DegreeError(f"partition {lam} has weight {lam.weight}; need dim - 1 = {d - 1}")
    exact = isinstance(H, ExactArray)
    if len(lam) > e:
        return _zeros((d,) * 4, exact), _zeros((d, d), exact)
    return (_exact_schur_tensors if exact else _float_schur_tensors)(lam, H)


def _hermitians(omegas, dim):
    """The stacked H_i of the (1,1)-forms omega_i = i sum H_i[j, k] dz_j
    dzbar_k on C^dim: an ExactArray when every form is exact, else complex.

    ConfigError unless each form is real, i.e. H_i is Hermitian: the rule of
    exterior._unreal_at on the stacked matrices, refused as _require_real does.
    """
    for w in omegas:
        if (w.dim, w.p, w.q) != (dim, 1, 1):
            raise DegreeError(f"expected a (1,1)-form on C^{dim}, got {w!r}")
    if not omegas:
        return _zeros((0, dim, dim), True)
    Z = np.stack(_promote(*(w.Z for w in omegas)))
    unreal = np.flatnonzero(_unreal(Z, 1, 1e-9).any(axis=(1, 2)))
    if len(unreal):
        _require_real(omegas[unreal[0]], f"omegas[{unreal[0]}]", dim, 1)
    return _hermitian(Z, 1)


def schur_form_pair(lam, omegas, dim):
    """(s_lam, derived s_lam) evaluated on (1,1)-forms; the candidate pair.

    Read back, through exterior._top_form and _mid_form, from the
    intersection tensors (G, m) of schur_tensors, which the forms' memos
    keep: exact (ExactArray coefficient matrices) when every form is exact
    and complex otherwise.  The
    forms must be real (1,1)-forms on C^dim, float ones to 1e-9 relative,
    and |lam| must be dim - 1.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    G, m = schur_tensors(lam, _hermitians(omegas, dim))
    return _top_form(m), _mid_form(G)


@dataclass
class SearchReport:
    """Outcome of a randomized search over Schur-form Hodge-Riemann pairs."""

    config: dict
    trials: int = 0
    passes: int = 0
    failures: list = field(default_factory=list)
    degenerates: int = 0
    min_margin: float = None

    @property
    def all_passed(self):
        return self.passes == self.trials

    def to_dict(self):
        return {
            "config": jsonable(self.config),
            "trials": self.trials,
            "passes": self.passes,
            "degenerates": self.degenerates,
            "failures": jsonable(self.failures),
            "min_margin": self.min_margin,
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)


def check_sweep(dim, num_vars):
    """Raise ConfigError unless a seeded float sweep of num_vars >= 1 forms
    can run on C^dim: 2 <= dim <= ring.MAX_SWEEP_DIMENSION, and the exponent
    table of its Schur pairs, C(dim + num_vars - 2, num_vars - 1) rows of
    num_vars - 1 entries, within ring.MAX_SWEEP_EXPONENTS."""
    if dim < 2:
        raise ConfigError(f"dimension {dim} is below 2: a pair needs degrees d-1 and d-2 >= 0")
    if dim > MAX_SWEEP_DIMENSION:
        raise ConfigError(
            f"dimension {dim} is above {MAX_SWEEP_DIMENSION}, "
            "the largest float sweep dimension (ring.MAX_SWEEP_DIMENSION)"
        )
    size = math.comb(dim + num_vars - 2, num_vars - 1) * (num_vars - 1)
    if size > MAX_SWEEP_EXPONENTS:
        raise ConfigError(f"{num_vars} forms on C^{dim} make {size} exponent entries, "
                          f"above {MAX_SWEEP_EXPONENTS} (ring.MAX_SWEEP_EXPONENTS)")


def sample_search(dim, num_vars, partition, trials=100, seed=0, zero_tol=1e-9):
    """Randomized search for failures of the Schur-pair Hodge-Riemann check.

    Each trial draws num_vars random Kahler forms i H_i on C^dim
    (random_hermitian), reads the intersection tensors of the pair
    (s_lam, s'_lam) for the given partition of dim - 1 from schur_tensors,
    and decides the pointwise check against the standard Kahler form, as
    pointwise_hr_pair would on the forms of schur_form_pair.  Trials derive their
    RNG from (seed, trial) so results are order-independent.
    """
    if trials < 0:
        raise ConfigError(f"trials must be non-negative, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    lam = partition if isinstance(partition, Partition) else Partition.parse(str(partition))
    if lam.weight != dim - 1:
        raise ConfigError(
            f"partition {lam} has weight {lam.weight}; need dim - 1 = {dim - 1}"
        )
    if num_vars < len(lam):
        raise ConfigError(
            f"{num_vars} variables cannot carry a partition with {len(lam)} rows"
        )
    check_sweep(dim, num_vars)
    report = SearchReport(config={
        "dim": dim, "num_vars": num_vars, "partition": str(lam),
        "trials": trials, "seed": seed, "zero_tol": zero_tol, "delta": DELTA,
    })
    h = real_coordinates(std_kahler(dim, exact=False))
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        H = np.stack([random_hermitian(dim, rng) for _ in range(num_vars)])
        verdict = _pointwise_verdict(*schur_tensors(lam, H), h, zero_tol)
        report.trials += 1
        eigs = verdict.eigenvalues or []
        if eigs:
            margin = min(abs(e) for e in eigs) / max(abs(e) for e in eigs)
            if report.min_margin is None or margin < report.min_margin:
                report.min_margin = margin
        if verdict.passed:
            report.passes += 1
        else:
            if verdict.outcome == DEGENERATE:
                report.degenerates += 1
            report.failures.append({
                "trial": trial,
                "rng_key": [seed, trial],
                "verdict": verdict.to_dict(),
            })
    return report
