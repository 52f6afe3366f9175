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
the exact backend they come from fraction-free integer elimination with no
tolerance, and eigenvalues are float evidence.  The exact restricted
signature of the kernel characterization comes from the same routine, on
the bordered matrix of the Gram form and the functional, built from their
integer numerators.

One core, _pair_verdict, decides every pair from coordinates: the Gram
matrix, the multiplication matrix of eta_mid, eta_top, the functional
int(b_i * eta_top) and h.  The array type is the backend: scalars.ExactArray
in the exact one, float ndarrays in the other, with @ for every pairing and
no flag.  is_hr_pair feeds it from any ring model: ring products are always
exact, and its Fraction lists are converted once, to ExactArrays, or with
exact=False to float copies.  Forms of both backends live in one encoding,
the DenseForm coefficient matrix (complex, or an ExactArray of ints):
schur_form_pair multiplies in it and pointwise_hr_pair reads its
intersection numbers from it and hands them to the core as they are, so no
trial builds a ring, makes a sparse wedge or builds a Fraction list.
torus_ring(d), the same numbers as exact ring products, is the test suite's
oracle for both, and the test suite checks its product tables against the
sparse wedge.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConsistencyError, DegreeError, SingularPairingError
from .exterior import DenseForm, _array, _coefficient_matrix, _mid_gram, _promote
from .exterior import _top_functional, form_from_hermitian, hermitian_from_form, std_kahler
from .linalg import (
    _matrix,
    float_kernel_vector,
    float_signature,
    float_solve,
    inertia as signature,
    rational_inertia,
    rational_nullspace,
    rational_solve,
)
from .ring import MAX_SWEEP_DIMENSION, _check_real, _real_basis_matrix, real_coordinates
from .scalars import ExactArray, to_float
from .symfunc import Partition, derived, evaluate, schur
from .verdict import DEGENERATE, FAIL, PASS, Verdict, jsonable


def _images(model, eta, degree=1):
    """The ExactArray M whose column j holds the coordinates of eta * b_j,
    b_j the j-th basis class of degree `degree`."""
    return _matrix([(eta * model.basis_element(degree, j)).coeffs
                    for j in range(len(model.basis(degree)))]).T


def gram(model, eta, degree=1):
    """Gram matrix int(b_i * eta * b_j) over the degree-1 basis (symmetric),
    as lists of Fractions: P M for the model's cached pairing matrix P."""
    d = model.dimension
    if eta.degree + 2 * degree != d:
        raise DegreeError(
            f"eta has degree {eta.degree}; need {d - 2 * degree} to pair degree-{degree} classes"
        )
    return _real(_matrix(model.pairing_matrix(degree)) @ _images(model, eta, degree))


def _real(x):
    """A real result of @ in plain numbers: Fractions for an ExactArray,
    floats for an ndarray; one number for a 0-d result, else lists."""
    if isinstance(x, ExactArray):
        return np.frompyfunc(Fraction, 2, 1)(x.re, x.den, out=np.empty(x.shape, object)).tolist()
    return x.tolist()


def _kernel_witness(Q):
    if isinstance(Q, ExactArray):
        null = rational_nullspace(Q)
        return [str(x) for x in null[0]] if null else None
    return float_kernel_vector(Q)


def _hr_property(Q, zero_tol, hval=None):
    """has_hr_property's verdict from the Gram matrix and, if given, Q(h, h).

    Q is an ExactArray, decided exactly, or a float array, decided with the
    relative zero_tol.
    """
    exact = isinstance(Q, ExactArray)
    sig, eigs = signature(Q, zero_tol)
    pos, zero, neg = sig
    n = len(Q)
    tolerances = {} if exact else {"zero_tol": zero_tol}
    details = {"backend": "exact" if exact else "float"}
    if zero > 0:
        return Verdict(
            DEGENERATE, sig, eigs,
            witness={"kernel_vector": _kernel_witness(Q)},
            tolerances=tolerances, details=details,
        )
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
    return Verdict(
        PASS if ok else FAIL, sig, eigs,
        witness=witness, tolerances=tolerances, details=details,
    )


def has_hr_property(model, eta, h=None):
    """Does Q_eta have Lorentzian signature (1, 0, n-1), positive on h?

    Decided exactly.  With h omitted, only the signature is checked and a
    certifying positive direction (the top float eigenvector) is reported as
    witness.
    """
    Q = _matrix(gram(model, eta))
    if h is None:
        return _hr_property(Q, None)
    v = ExactArray.of(h.coeffs)
    return _hr_property(Q, None, _real(v @ Q @ v))


def _solve_division(M, b, zero_tol=None):
    """x with M x = b, an array of M's backend; SingularPairingError with a
    kernel witness if there is none."""
    if isinstance(M, ExactArray):
        x = rational_solve(M, b)
        if x is None:
            raise SingularPairingError("multiplication by eta is singular on degree-1 classes",
                                       witness=_kernel_witness(M))
        return ExactArray.of(x)
    x = float_solve(M, b)
    if x is None:
        # a witness only when M is numerically rank-deficient, as in the exact branch
        _, s, vh = np.linalg.svd(M)
        deficient = M.shape[0] < M.shape[1] or s[-1] <= zero_tol * s[0]
        raise SingularPairingError(
            "multiplication by eta is numerically singular on degree-1 classes",
            witness=[float(v) for v in vh[-1]] if deficient else None,
        )
    return np.asarray(x)


def divide(model, gamma, eta):
    """The class gamma / eta: solves eta * x = gamma for x of degree 1, exactly.

    Raises SingularPairingError (with a kernel witness when available) if the
    multiplication map by eta is singular or gamma is not in its image.
    """
    qdeg = gamma.degree - eta.degree
    if qdeg != 1:
        raise DegreeError(
            f"division expects quotient degree 1, got {qdeg} "
            f"(gamma degree {gamma.degree}, eta degree {eta.degree})"
        )
    return model.from_coeffs(1, _real(_solve_division(_images(model, eta), gamma.coeffs)))


def _restricted_negdef(Q, functional, zero_tol):
    """Signature of Q restricted to the hyperplane {functional = 0}; functional != 0."""
    if isinstance(Q, ExactArray):
        # In([[Q, f], [f^T, 0]]) = In(Q on {f = 0}) + (1, 0, 1) (Haynsworth 1968).  Built
        # from the numerators: q [[Q, f], [f^T, 0]] is congruent by diag(I, r/q) to it,
        # for q and r the denominators of Q and f
        f = functional.re[:, None]
        border = np.block([[Q.re, f], [f.T, np.zeros((1, 1), dtype=object)]])
        pos, zero, neg = rational_inertia(ExactArray(border, np.zeros_like(border)))
        return pos - 1, zero, neg - 1
    _, _, vh = np.linalg.svd(functional[None, :])
    B = vh[1:].T
    sig, _ = float_signature(B.T @ Q @ B, zero_tol)
    return sig


def float_copy(values, name):
    """values (exact numbers, nested lists) as a float array; ConfigError
    naming the first entry beyond float range."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        index = next(i for i, x in np.ndenumerate(np.asarray(values, dtype=object))
                     if math.isinf(to_float(x)))
        raise ConfigError(f"{name} entry {list(index)} does not fit in a float; "
                          "decide with the exact backend") from None


def _pair_verdict(Q, M, top, functional, h, zero_tol):
    """The Hodge-Riemann pair verdict from coordinates; every pair check ends here.

    Q is the Gram matrix of eta_mid on degree-1 classes, M the matrix of
    multiplication by eta_mid from degree 1 to degree d-1, top the
    coordinates of eta_top, functional[i] = int(b_i * eta_top) and h the
    coordinates of h.  The array type is the backend: all are real
    ExactArrays, decided exactly, or all float arrays, decided with the
    relative zero_tol.  The values of the verdict are read with _real.

    Any zero inertia along the way yields outcome "degenerate" (never a hard
    pass/fail); otherwise the kernel characterization is recomputed and a
    disagreement raises ConsistencyError.
    """
    tolerances = {} if isinstance(Q, ExactArray) else {"zero_tol": zero_tol}
    hval = _real(h @ Q @ h)
    prop = _hr_property(Q, zero_tol, hval)
    c2val = _real(h @ functional)
    details = {
        "hr_property": prop.to_dict(),
        "pairing_with_h": jsonable(c2val),
    }
    if prop.outcome == DEGENERATE:
        return Verdict(
            DEGENERATE, prop.signature, prop.eigenvalues,
            witness=prop.witness, tolerances=tolerances, details=details,
        )

    try:
        quotient = _solve_division(M, top, zero_tol)
    except SingularPairingError as exc:
        # Gram nondegenerate but the division failed: numerically borderline
        return Verdict(
            DEGENERATE, prop.signature, prop.eigenvalues,
            witness={"division": str(exc), "kernel_vector": exc.witness},
            tolerances=tolerances, details=details,
        )
    c3val = _real(quotient @ Q @ quotient)
    details["quotient"] = jsonable(_real(quotient))
    details["quotient_square_value"] = jsonable(c3val)

    passed = prop.passed and c2val > 0 and c3val > 0

    if c2val > 0:
        rsig = _restricted_negdef(Q, functional, zero_tol)
        kernel_pass = rsig == (0, 0, len(Q) - 1) and hval > 0
        details["kernel_characterization"] = {
            "restricted_signature": rsig,
            "h_pairing": jsonable(hval),
            "pass": kernel_pass,
        }
        if rsig[1] > 0:
            return Verdict(
                DEGENERATE, prop.signature, prop.eigenvalues,
                witness={"restricted_signature": rsig},
                tolerances=tolerances, details=details,
            )
        if kernel_pass != passed:
            raise ConsistencyError(
                "three-condition check and kernel characterization disagree: "
                f"{passed} vs {kernel_pass}"
            )

    witness = {}
    if not passed:
        witness["failed_conditions"] = [
            name
            for name, ok in [
                ("hr_property", prop.passed),
                ("pairing_with_h_positive", c2val > 0),
                ("quotient_square_positive", c3val > 0),
            ]
            if not ok
        ]
    return Verdict(
        PASS if passed else FAIL,
        prop.signature,
        prop.eigenvalues,
        witness=witness,
        tolerances=tolerances,
        details=details,
    )


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
    P, M = _matrix(model.pairing_matrix(1)), _images(model, eta_mid)
    top = ExactArray.of(eta_top.coeffs)
    values = (P @ M, M, top, P @ top, ExactArray.of(h.coeffs))
    if exact:
        return _pair_verdict(*values, zero_tol)
    names = ("Gram matrix", "multiplication matrix", "eta_top", "functional", "h")
    return _pair_verdict(*(float_copy(_real(v), name) for v, name in zip(values, names)),
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


def _check_strictly_positive(omega, zero_tol):
    sig, _ = signature(hermitian_from_form(omega), zero_tol)
    if sig != (omega.dim, 0, 0):
        raise ConfigError(
            f"omega is not strictly positive: Hermitian inertia {sig}"
        )


def _real_values(X, form):
    """Re X, for X pairings of form with real classes: a float array, or X
    itself when exact.

    Float values are symmetrized by taking Re.  Exact pairings with every
    real class are real exactly when the form is (Poincare duality), so an
    exact X must have imaginary part 0; if not, ring._check_real raises,
    naming the indices where the form is not real.
    """
    if not isinstance(X, ExactArray):
        return X.real
    if X.im.any():
        _check_real(form)
        raise ConsistencyError("pairings with real classes are not real")
    return X


def pointwise_hr_pair(omega_top, omega_mid, omega, zero_tol=1e-9):
    """Hodge-Riemann pair check for constant-coefficient forms.

    omega_top is a (d-1,d-1)-form, omega_mid a (d-2,d-2)-form and omega a
    strictly positive (1,1)-form.  The degree-1 real basis B is paired
    with exterior._mid_gram and exterior._top_functional, exactly when all
    three forms are exact and in complex otherwise, and the verdict core
    decides on the result; no ring model is built.
    """
    d = omega_top.dim
    if (omega_top.p, omega_top.q) != (d - 1, d - 1):
        raise DegreeError(f"expected a ({d - 1},{d - 1})-form, got {omega_top!r}")
    if (omega_mid.p, omega_mid.q) != (d - 2, d - 2) or omega_mid.dim != d:
        raise DegreeError(f"expected a ({d - 2},{d - 2})-form on C^{d}, got {omega_mid!r}")
    if omega.dim != d:
        raise DegreeError(f"expected a (1,1)-form on C^{d}, got {omega!r}")
    _check_strictly_positive(omega, zero_tol)
    exact = all(f.is_exact() for f in (omega_top, omega_mid, omega))
    B, m, G = _promote(_real_basis_matrix(d, 1, exact), _top_functional(omega_top),
                       _mid_gram(omega_mid))
    functional = _real_values(B @ m.ravel(), omega_top)
    Q = _real_values(B @ G.reshape(d * d, d * d) @ B.T, omega_mid)
    h = real_coordinates(omega)
    h = ExactArray.of(h) if exact else float_copy(h, "h")
    # Q = P M and functional = P top for P the pairing of degrees 1 and d-1,
    # invertible on the torus (Poincare duality): M q = top iff Q q = functional
    return _pair_verdict(Q, Q, functional, functional, h, zero_tol)


def random_kahler(d, rng, delta=1e-3):
    """Random strictly positive (1,1)-form: A^* A + delta * Id, A complex Gaussian."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = A.conj().T @ A + delta * np.eye(d)
    return form_from_hermitian([[complex(x) for x in row] for row in H], exact=False)


@lru_cache(maxsize=None)
def _schur_polys(lam, e):
    """(s_lam, s'_lam) in e variables, in the e-basis; they depend on (lam, e) only."""
    p = schur(lam, e)
    return p, derived(p, 1)


def schur_form_pair(lam, omegas, dim):
    """(s_lam, derived s_lam) evaluated on (1,1)-forms; the candidate pair.

    Both come from one symfunc.evaluate call over DenseForm coefficient
    matrices, exact (ExactArray) when every form is exact and complex
    otherwise.  The forms must be real (1,1)-forms on C^dim, float
    ones to 1e-9 relative, and |lam| must be dim - 1.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if lam.weight != dim - 1:
        raise DegreeError(f"partition {lam} has weight {lam.weight}; need dim - 1 = {dim - 1}")
    exact = all(w.is_exact() for w in omegas)
    for w in omegas:
        if (w.dim, w.p, w.q) != (dim, 1, 1):
            raise DegreeError(f"expected a (1,1)-form on C^{dim}, got {w!r}")
        if not w.is_real(1e-9):
            raise ConfigError(f"{w!r} is not a real form")
    values = [DenseForm(dim, 1, _coefficient_matrix(w, exact)) for w in omegas]
    one = DenseForm(dim, 0, _array((1, 1), [((0, 0), 1)], exact))
    polys = _schur_polys(lam, len(omegas))
    return tuple(v.to_form() for v in evaluate(polys, values, one))


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


def check_sweep_dimension(dim):
    """Raise ConfigError unless a seeded float sweep can run on C^dim."""
    if dim < 2:
        raise ConfigError(f"dimension {dim} is below 2: a pair needs degrees d-1 and d-2 >= 0")
    if dim > MAX_SWEEP_DIMENSION:
        raise ConfigError(
            f"dimension {dim} is above {MAX_SWEEP_DIMENSION}, "
            "the largest float sweep dimension (ring.MAX_SWEEP_DIMENSION)"
        )


def sample_search(dim, num_vars, partition, trials=100, seed=0, zero_tol=1e-9,
                  delta=1e-3):
    """Randomized search for failures of the Schur-pair Hodge-Riemann check.

    Each trial draws num_vars random Kahler forms on C^dim, builds the pair
    (s_lam, s'_lam) for the given partition of dim - 1, and runs the
    pointwise check against the standard Kahler form.  Trials derive their
    RNG from (seed, trial) so results are order-independent.
    """
    check_sweep_dimension(dim)
    if trials < 0:
        raise ConfigError(f"trials must be non-negative, got {trials}")
    lam = partition if isinstance(partition, Partition) else Partition.parse(str(partition))
    if lam.weight != dim - 1:
        raise ConfigError(
            f"partition {lam} has weight {lam.weight}; need dim - 1 = {dim - 1}"
        )
    if num_vars < len(lam):
        raise ConfigError(
            f"{num_vars} variables cannot carry a partition with {len(lam)} rows"
        )
    report = SearchReport(config={
        "dim": dim, "num_vars": num_vars, "partition": str(lam),
        "trials": trials, "seed": seed, "zero_tol": zero_tol, "delta": delta,
    })
    reference = std_kahler(dim, exact=False)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        omegas = [random_kahler(dim, rng, delta) for _ in range(num_vars)]
        top, mid = schur_form_pair(lam, omegas, dim)
        verdict = pointwise_hr_pair(top, mid, reference, zero_tol)
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
