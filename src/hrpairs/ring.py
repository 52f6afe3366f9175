"""Finite graded intersection-ring models.

A RingModel carries, for each degree 0..d, a finite basis of labelled
classes, the multiplication table of each pair of degrees (p, q), and
(optionally) an integration functional on the top degree.  Every table is
one sparse integer structure tensor (Table): index arrays (k, i, j) and
integer numerators over one denominator.  Element coordinates are a real
scalars.ExactArray (a float or non-real coefficient raises TypeError), so a
product is a gather, one product and a scatter-sum on integer parts, and a
multiplication matrix or a pairing matrix is one contraction of a table.
Values that leave a ring (integrate, __str__, hrcheck.gram) are Fractions.

RingModel.check_axioms() checks commutativity and associativity as two
identities of the tables, for all basis classes at once.  It runs where a
ring enters from outside the program, in ring_from_spec (JSON specs, the
CLI's --ring).  The torus, subring, projective-bundle and X x P^1 models are
built from products that are associative by construction (the exterior
product, ambient products, rewrite normal forms); the test suite checks
their axioms instead of every process start.

Concrete factories:

  * torus_ring(d)        -- real (p,p)-classes on C^d mod lattice, bases of
                            C(d,p)^2 forms from one slot table,
                            products by the sign rule of _merge_signs;
  * subring(model, gens) -- the graded subring generated by degree-1 classes;
  * relation_ring(...)   -- monomial bases cut out by rewrite rules, e.g.
                            P(O+O+O(-1)) over P^1 via f^2 -> 0, xi^3 -> -xi^2*f;
  * proj_bundle_ring(..) -- P(A) over a base model, with the sign convention
                            xi^e = c_1 xi^(e-1) - c_2 xi^(e-2) + ... fixed so
                            that pushforward(xi^(e-1+k)) is the Segre class
                            h_k of the Chern roots (cross-validated in tests);
  * product_with_p1(..)  -- X x P^1 as the rank-2 trivial bundle case,
                            tau^2 = 0 and int(x * tau) = int(x).

Float work happens on matrices built from the exact products
(is_hr_pair(exact=False)); pointwise forms are checked on their
coefficient matrices, which use no ring model.

The real basis of (p,p)-forms is written down once, as the slot table
_slot_positions; its labels, the coefficient matrices _real_basis_matrix,
real_coordinates (arrays), form_from_real_coordinates and the torus
product tables (real_product_table, with the _merge_signs tables of the
dense kernels) are all read from it; a form that is not real has none
(exterior._require_real).  torus_ring(d) serves the worked
examples and is the test suite's exact oracle for the pointwise checks.
"""

import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, lcm
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConstructionError, DegreeError
from .exterior import PPForm, _hermitian, _memoized, _merge_signs, _require_real, _subset_index
from .exterior import std_kahler
from .linalg import rational_rref
from .scalars import ExactArray, GaussianRational, is_exact
from .symfunc import RingTPoly  # noqa: F401  -- re-exported as hrpairs.ring.RingTPoly


def _refuse(c):
    raise TypeError(f"ring coefficients are rational, got {type(c).__name__} {c!r}")


def _real_array(re, den):
    """The real ExactArray re / den, reduced."""
    return ExactArray._reduced(re, np.zeros(re.shape, dtype=object), den)


def _rational_vector(coeffs):
    """coeffs, a real ExactArray or exact rationals, as a real ExactArray;
    TypeError for a float or a non-real entry."""
    if not isinstance(coeffs, ExactArray):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction, GaussianRational)):
                _refuse(c)
        coeffs = ExactArray.of(coeffs)
    if coeffs.im.any():
        _refuse(coeffs.item(coeffs.im.nonzero()[0][0]))
    return coeffs


class RingElement:
    """A class of one degree; coeffs is a real ExactArray of its coordinates."""

    __slots__ = ("model", "degree", "coeffs")

    def __init__(self, model, degree, coeffs):
        self.model, self.degree, self.coeffs = model, degree, _rational_vector(coeffs)
        n = len(model.basis(degree))
        if self.coeffs.shape != (n,):
            raise DegreeError(
                f"degree-{degree} element needs {n} coordinates, got {len(self.coeffs)}"
            )

    @classmethod
    def _of(cls, model, degree, coeffs):
        """The element with the real ExactArray coeffs of the right length, unchecked."""
        x = object.__new__(cls)
        x.model, x.degree, x.coeffs = model, degree, coeffs
        return x

    def is_zero(self):
        return not self.coeffs.re.any()

    def is_exact(self):
        """Always true: __init__ admits exact coefficients only."""
        return True

    def _check_model(self, other):
        if self.model is not other.model:
            raise DegreeError("elements live in different ring models")

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_model(other)
        if self.degree != other.degree:
            # a zero class is degree-ambiguous; let it absorb silently
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeError(
                f"adding degree {self.degree} and degree {other.degree} classes"
            )
        return RingElement._of(self.model, self.degree, self.coeffs + other.coeffs)

    def __neg__(self):
        return RingElement._of(self.model, self.degree, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            self._check_model(other)
            return self.model._multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return RingElement._of(self.model, self.degree, self.coeffs * other)
        if isinstance(other, GaussianRational):  # TypeError unless real
            return RingElement(self.model, self.degree, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, RingElement):
            return NotImplemented
        return self * other

    def __pow__(self, n):
        if n < 0:
            raise DegreeError("negative powers are not defined")
        if n * self.degree > self.model.dimension:
            return RingElement(self.model, n * self.degree, [])  # past the top degree
        out, square = self.model.one(), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def integrate(self):
        return self.model.integrate(self)

    def __eq__(self, other):
        if not (isinstance(other, RingElement) and self.model is other.model
                and self.degree == other.degree):
            return False
        a, b = self.coeffs, other.coeffs
        return bool((a.re * b.den == b.re * a.den).all())

    def __str__(self):
        labels = self.model.basis(self.degree)
        chunks = []
        for c, lab in zip(self.coeffs.fractions(), labels):
            if c == 0:
                continue
            if c == 1:
                chunks.append(lab)
            elif c == -1:
                chunks.append(f"-{lab}")
            else:
                chunks.append(f"{c}*{lab}")
        return " + ".join(chunks).replace("+ -", "- ") if chunks else "0"

    def __repr__(self):
        return f"<deg {self.degree}: {self}>"


class Table(NamedTuple):
    """The structure tensor of a product of degrees p and q, sparse:
    b_i * b_j = sum_t num[t] / den * b_k[t] over the entries t with
    (i[t], j[t]) = (i, j).  k, i and j are intp arrays, num an object array
    of Python ints and den a Python int > 0; no index triple repeats."""

    k: np.ndarray
    i: np.ndarray
    j: np.ndarray
    num: np.ndarray
    den: int

    @classmethod
    def of(cls, entries):
        """The table of (k, i, j, c) entries, c exact rationals; entries at
        one index triple are summed and zero ones dropped."""
        acc = {}
        for k, i, j, c in entries:
            key = k, i, j
            acc[key] = acc[key] + c if key in acc else c
        acc = {key: c for key, c in acc.items() if c}
        den = lcm(*(c.denominator for c in acc.values()))
        num = [c.numerator * (den // c.denominator) for c in acc.values()]
        k, i, j = np.array(list(acc), dtype=np.intp).reshape(-1, 3).T
        return cls(k, i, j, np.array(num, dtype=object), den)


_EMPTY = Table.of(())


def _join(left, right):
    """Index arrays (a, b) of all the pairs with left[a] == right[b]."""
    order = np.argsort(right, kind="stable")
    lo, hi = (np.searchsorted(right[order], left, side) for side in ("left", "right"))
    count = hi - lo
    a = np.repeat(np.arange(len(left)), count)
    b = order[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)]
    return a, b


def _nonzero_sums(keys, values):
    """The distinct keys (ints >= 0) whose values sum to a nonzero total, in
    increasing order."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # where each run of equal keys starts
    return keys[first][np.add.reduceat(values, first) != 0] if len(keys) else keys


class RingModel:
    """Graded commutative ring with finite rational bases per degree.

    mult maps (p, q) to the Table of the products of degrees p and q; a
    missing table multiplies to 0.
    """

    def __init__(self, dimension, bases, mult, integration=None, labels=None,
                 name="ring"):
        self.dimension = dimension
        self.name = name
        self._bases = [list(b) for b in bases]
        if len(self._bases) != dimension + 1:
            raise ConstructionError(
                f"need bases for degrees 0..{dimension}, got {len(self._bases)}"
            )
        if len(self._bases[0]) != 1:
            raise ConstructionError("degree 0 must be one-dimensional")
        self._mult = mult
        self.integration = None if integration is None else _rational_vector(integration)
        if self.integration is not None and len(self.integration) != len(self._bases[dimension]):
            raise ConstructionError("integration vector does not match the top basis")
        self.labels = {}
        if labels:
            self.labels.update(labels)
        self._pairings = {}

    # -- basic access ------------------------------------------------------

    def basis(self, degree):
        if 0 <= degree <= self.dimension:
            return self._bases[degree]
        return []

    def zero(self, degree):
        return RingElement(self, degree, [0] * len(self.basis(degree)))

    def one(self):
        return RingElement(self, 0, [1])

    def basis_element(self, degree, index):
        coeffs = [0] * len(self.basis(degree))
        coeffs[index] = 1
        return RingElement(self, degree, coeffs)

    def from_coeffs(self, degree, coeffs):
        return RingElement(self, degree, coeffs)

    def label(self, name):
        try:
            return self.labels[name]
        except KeyError:
            raise ConfigError(f"model {self.name!r} has no label {name!r}") from None

    # -- multiplication ----------------------------------------------------

    def _multiply(self, x, y):
        deg = x.degree + y.degree
        t = self._mult.get((x.degree, y.degree), _EMPTY)
        a, b = x.coeffs, y.coeffs
        out = np.zeros(len(self.basis(deg)), dtype=object)
        np.add.at(out, t.k, a.re[t.i] * b.re[t.j] * t.num)
        return RingElement._of(self, deg, _real_array(out, a.den * b.den * t.den))

    def _contract(self, p, q, v, axis):
        """The table of degrees (p, q) contracted with the vector v (an
        ExactArray) along its index k (axis 0) or i (axis 1): the matrix over
        the two other indices, in their order."""
        t = self._mult.get((p, q), _EMPTY)
        index, shape = [t.k, t.i, t.j], [len(self.basis(s)) for s in (p + q, p, q)]
        along = index.pop(axis)
        shape.pop(axis)
        out = np.zeros(shape, dtype=object)
        np.add.at(out, tuple(index), v.re[along] * t.num)
        return _real_array(out, v.den * t.den)

    def multiplication_matrix(self, eta, degree=1):
        """The ExactArray M whose column j holds the coordinates of eta * b_j,
        b_j the j-th basis class of the given degree."""
        if eta.model is not self:
            raise DegreeError("elements live in different ring models")
        return self._contract(eta.degree, degree, eta.coeffs, 1)

    def _integral(self):
        if self.integration is None:
            raise ConfigError(f"model {self.name!r} has no integration functional")
        return self.integration

    def integrate(self, elem):
        v = self._integral()
        if elem.degree != self.dimension:
            raise DegreeError(
                f"can only integrate degree-{self.dimension} classes, got degree {elem.degree}"
            )
        return Fraction(int(np.dot(elem.coeffs.re, v.re)), elem.coeffs.den * v.den)

    def pairing_matrix(self, p):
        """The ExactArray of int(b_i * b_j) over bases of degrees p and d - p."""
        if p not in self._pairings:
            self._pairings[p] = self._contract(p, self.dimension - p, self._integral(), 0)
        return self._pairings[p]

    # -- ring axioms --------------------------------------------------------

    def check_axioms(self):
        """Raise ConstructionError unless basis products commute and associate.

        Both are identities of the tables, checked for all basis classes at
        once in one global basis (degrees 0..d in turn): T_pq[k, i, j] =
        T_qp[k, j, i] where T_pq has an entry, and for degrees
        1 <= p <= q <= r the two contractions (b_i b_j) b_k and b_i (b_j b_k)
        agree.  The witness is the first nonzero entry of the difference:
        in the order of the tables, then of (i, j), for commutativity; by
        degrees (p, q, r), then (i, j, k), for associativity.
        """
        if not self._mult:
            return
        sizes = [len(b) for b in self._bases]
        offset = [0, *itertools.accumulate(sizes)]
        degree = np.repeat(np.arange(len(sizes)), sizes)
        n = offset[-1]
        den = lcm(*(t.den for t in self._mult.values()))
        K, I, J, V = (np.concatenate(x) for x in zip(*(
            (offset[p + q] + t.k, offset[p] + t.i, offset[q] + t.j, t.num * (den // t.den))
            for (p, q), t in self._mult.items())))

        keys = _nonzero_sums(np.concatenate([(I * n + J) * n + K, (J * n + I) * n + K]),
                             np.concatenate([V, -V])) // n
        i, j = np.divmod(keys[np.isin(keys, I * n + J)], n)
        if len(i):
            rank = {pq: r for r, pq in enumerate(self._mult)}
            first = min(zip(i.tolist(), j.tolist()),
                        key=lambda ij: (rank[degree[ij[0]], degree[ij[1]]], ij))
            p, q = (int(degree[s]) for s in first)
            raise ConstructionError(
                f"multiplication not commutative on degrees ({p},{q})",
                witness={"p": p, "q": q, "i": first[0] - offset[p], "j": first[1] - offset[q]},
            )

        ordered = np.flatnonzero((degree[I] >= 1) & (degree[I] <= degree[J]))
        a, b = _join(K[ordered], I)  # (b_i b_j) b_k: T[m, i, j] T[l, m, k]
        a = ordered[a]
        left = I[a], J[a], J[b], K[b], V[a] * V[b]
        a, b = _join(K[ordered], J)  # b_i (b_j b_k): T[m, j, k] T[l, i, m]
        a = ordered[a]
        right = I[b], I[a], J[a], K[b], -(V[a] * V[b])
        i, j, k, l, v = (np.concatenate(x) for x in zip(left, right))
        keep = (degree[i] >= 1) & (degree[i] <= degree[j]) & (degree[j] <= degree[k])
        keys = _nonzero_sums((((i * n + j) * n + k) * n + l)[keep], v[keep]) // n
        if len(keys):
            i, j, k = keys // (n * n), keys // n % n, keys % n
            first = np.lexsort((k, j, i, degree[k], degree[j], degree[i]))[0]
            triple = [int(s[first]) for s in (i, j, k)]
            degrees = tuple(int(degree[s]) for s in triple)
            raise ConstructionError(
                "multiplication not associative",
                witness={
                    "degrees": degrees,
                    "basis": tuple(self._bases[p][s - offset[p]]
                                   for p, s in zip(degrees, triple)),
                },
            )

    def __repr__(self):
        dims = [len(b) for b in self._bases]
        return f"RingModel({self.name!r}, dimension={self.dimension}, dims={dims})"


# -- torus model -----------------------------------------------------------


@lru_cache(maxsize=None)
def _slot_positions(d, p):
    """(rows, cols, imag), read-only: the real basis of constant (p,p)-forms
    on C^d, written down once.

    The basis is u[I] for each p-subset I, then x[I|J] and y[I|J] for each
    pair I < J of p-subsets, in combinations order; basis form k has
    coefficient matrix i^(p^2) H_k with H_k Hermitian, and coordinate k of
    a real form i^(p^2) H is Im H[rows[k], cols[k]] where imag[k] and
    Re H[rows[k], cols[k]] otherwise: u[I] = H[I, I], x[I|J] = Re H[I, J]
    and y[I|J] = Im H[I, J].
    """
    m = comb(d, p)
    a, b = np.triu_indices(m, 1)
    rows = np.concatenate([np.arange(m), np.repeat(a, 2)])
    cols = np.concatenate([np.arange(m), np.repeat(b, 2)])
    imag = np.concatenate([np.zeros(m, dtype=bool), np.tile([False, True], len(a))])
    for v in (rows, cols, imag):
        v.flags.writeable = False
    return rows, cols, imag


def _real_labels(d, p):
    """Labels u[I], x[I|J], y[I|J] (1-based) of the real basis of degree p in
    _slot_positions order; "1" in degree 0."""
    if p == 0:
        return ["1"]
    tag = [",".join(str(i + 1) for i in S) for S in _subset_index(d, p)]
    return [f"u[{tag[a]}]" if a == b else f"{'xy'[im]}[{tag[a]}|{tag[b]}]"
            for a, b, im in zip(*(v.tolist() for v in _slot_positions(d, p)))]


@lru_cache(maxsize=None)
def _hermitian_entries(d, p):
    """(rows, cols, re, im), read-only int arrays of shape (m^2, 2) for m = C(d, p):
    the Hermitian matrix H_j of the j-th real basis form is the sum of its two
    entries re + i im at (rows[j, t], cols[j, t]), the second 0 for u[I]."""
    rows, cols, imag = _slot_positions(d, p)
    re, im = (~imag).astype(np.int64), imag.astype(np.int64)
    off = rows != cols
    tables = (np.stack([rows, cols], axis=1), np.stack([cols, rows], axis=1),
              np.stack([re, re * off], axis=1), np.stack([im, -im], axis=1))
    for t in tables:
        t.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _real_basis_matrix(d, p, exact):
    """Matrix whose row k is the coefficient matrix i^(p^2) H_k of the k-th
    real basis form of degree p (_slot_positions), flattened: complex or an
    ExactArray, read-only."""
    rows, cols, re, im = _hermitian_entries(d, p)
    m = comb(d, p)
    X, Y = (np.zeros((len(rows), m * m), dtype=np.int64) for _ in range(2))
    at = (np.arange(len(rows))[:, None], rows * m + cols)
    np.add.at(X, at, re)
    np.add.at(Y, at, im)
    re, im = (-Y, X) if p % 2 else (X, Y)  # i^(p^2) is i for odd p, 1 for even p
    B = ExactArray(re.astype(object), im.astype(object)) if exact else re + 1j * im
    for part in (B.re, B.im) if exact else (B,):
        part.flags.writeable = False
    return B


@_memoized
def real_coordinates(form):
    """Coordinates of a real (p,p)-form in the real basis of _slot_positions,
    an array of the form's backend, read-only and kept in the form's memo.

    They are read from the Hermitian part of H = exterior._hermitian(Z, p),
    Z the coefficient matrix: u[I] = H[I, I], x[I|J] = Re H[I, J] and
    y[I|J] = Im H[I, J].  The form must be real (exterior._require_real):
    an exact one gives a real ExactArray read from the integer parts of H,
    its own Hermitian part; a float one, real to 1e-9 relative, a float
    ndarray.
    """
    _require_real(form, "form", form.dim, form.p)
    rows, cols, imag = _slot_positions(form.dim, form.p)
    H = _hermitian(form.Z, form.p)
    if form.is_exact():
        return _real_array(np.where(imag, H.im[rows, cols], H.re[rows, cols]), H.den)
    z = (H / 2 + H.conj().T / 2)[rows, cols]  # halved first: no sum leaves float range
    return np.where(imag, z.imag, z.real)


def real_product_table(d, p, q):
    """The Table of the products of the real bases of degrees p and q on
    C^d, p + q <= d, over den 1.

    For the Hermitian matrices H_i, H_j of the basis forms and
    S = _merge_signs(d, p, q), the wedge of coefficient matrices Z and W
    of degrees p and q is (-1)^(pq) S (Z (x) W) S^T, which gives
    b_i * b_j = i^((p+q)^2) V with V = S (H_i (x) H_j) S^T, since
    i^(p^2) i^(q^2) (-1)^(pq) = i^((p+q)^2).  Each of H_i and H_j has at
    most two entries, and an entry pair (a, c), (b, e) puts
    S[k, a, b] S[l, c, e] times their product at V[k, l] alone, k and l
    the merges of I_a, J_b and of I_c, J_e; the coordinates are read at the
    slots of the Hermitian V, its upper triangle.  All pairs are gathered at
    once for a chunk of the left basis, the chunks sized so that no block
    holds more than about 2^14 entries.
    """
    S = _merge_signs(d, p, q)
    sign, merged = S.sum(axis=0, dtype=np.int64), np.abs(S).argmax(axis=0)
    rows, cols, imag = _slot_positions(d, p + q)
    m = comb(d, p + q)
    slot = np.zeros((2, m, m), dtype=np.intp)
    slot[imag.astype(int), rows, cols] = np.arange(len(rows))
    left = _hermitian_entries(d, p)
    rb, cb, gre, gim = (x[None, :, None, :] for x in _hermitian_entries(d, q))
    n_q = rb.shape[1]
    step = max(1, 2 ** 14 // (n_q * max(len(rows), 4)))  # 4 entry pairs per product
    chunks = []
    for start in range(0, len(left[0]), step):
        ra, ca, hre, him = (x[start:start + step, None, :, None] for x in left)
        k, l = merged[ra, rb], merged[ca, cb]
        w = sign[ra, rb] * sign[ca, cb]
        i, j = np.arange(len(ra))[:, None, None, None], np.arange(n_q)[None, :, None, None]
        C = np.zeros((len(ra), n_q, len(rows)), dtype=np.int64)
        np.add.at(C, (i, j, slot[0][k, l]), w * (hre * gre - him * gim) * (k <= l))
        np.add.at(C, (i, j, slot[1][k, l]), w * (hre * gim + him * gre) * (k < l))
        i, j, k = np.nonzero(C)
        chunks.append((k, start + i, j, C[i, j, k]))
    k, i, j, num = (np.concatenate(x) for x in zip(*chunks))
    return Table(k, i, j, num.astype(object), 1)


def form_from_real_coordinates(d, p, coords):
    """The real (p,p)-form on C^d with coordinates coords in the basis of
    _slot_positions, inverse of real_coordinates: coords times
    _real_basis_matrix.  coords is a real ExactArray (an exact form), a float
    ndarray (a complex one) or a list, exact when every entry is."""
    if not isinstance(coords, (ExactArray, np.ndarray)):
        coords = list(coords)
        coords = (ExactArray.of(coords) if all(map(is_exact, coords))
                  else np.array(coords, dtype=float))
    m = comb(d, p)
    if coords.shape != (m * m,):
        raise DegreeError(
            f"{len(coords)} coordinates for real ({p},{p})-forms on C^{d}, need {m * m}"
        )
    Z = coords @ _real_basis_matrix(d, p, isinstance(coords, ExactArray))
    return PPForm._of(d, p, p, Z.reshape(m, m))


class TorusModel(RingModel):
    """Full algebra of real constant (p,p)-forms, products by real_product_table."""

    def __init__(self, d):
        bases = [_real_labels(d, p) for p in range(d + 1)]
        mult = {
            (p, q): real_product_table(d, p, q)
            for p in range(d + 1)
            for q in range(d + 1 - p)
        }
        # the one top basis form, i^(d^2) dz_1..d dzbar_1..d, has integral 1
        super().__init__(d, bases, mult, [1], name=f"torus(C^{d})")
        self.labels["omega_std"] = self.from_form(std_kahler(d, exact=True))

    def from_form(self, form):
        """Ring element of an exact real (p,p)-form; a float form raises TypeError."""
        if form.dim != self.dimension or form.p != form.q:
            raise DegreeError(
                f"expected a (p,p)-form on C^{self.dimension}, got {form!r}"
            )
        return RingElement(self, form.p, real_coordinates(form))

    def to_form(self, elem):
        return form_from_real_coordinates(self.dimension, elem.degree, elem.coeffs)


@lru_cache(maxsize=None)
def torus_ring(d):
    """Cached torus model for C^d.

    Products are exterior products of forms, associative by construction,
    so the ring axioms are not re-proved here; the test suite runs
    check_axioms() on d <= 4.
    """
    return TorusModel(d)


# -- subrings --------------------------------------------------------------


def _monomial_label(names, expo):
    factors = []
    for n, m in zip(names, expo):
        if m == 1:
            factors.append(n)
        elif m > 1:
            factors.append(f"{n}^{m}")
    return "*".join(factors) if factors else "1"


class SubringModel(RingModel):
    """Subring of an ambient model generated by named degree-1 classes.

    Each graded piece is the span of the degree-p monomials in the
    generators; lift() maps elements back to the ambient model.
    """

    def __init__(self, ambient, generators, name=None):
        for gname, g in generators.items():
            if g.degree != 1:
                raise ConstructionError(f"generator {gname} has degree {g.degree}")
        d = ambient.dimension
        names = list(generators)
        gens = [generators[n] for n in names]
        g = len(gens)

        # the monomials of degree p span the piece: the pivot columns of the RREF of
        # their ambient coordinates are a basis, and the RREF columns the expansions
        bases, lifts, expansions, basis_expos = [], [], [], []
        for p in range(d + 1):
            monos = _exponents_of_degree(g, [1] * g, p)
            elems = [reduce(mul, map(pow, gens, expo), ambient.one()) for expo in monos]
            coords = [e.coeffs for e in elems]  # as the columns
            R, pivots = rational_rref(np.stack(coords, axis=1)) if coords else ([], [])
            bases.append([_monomial_label(names, monos[c]) for c in pivots])
            lifts.append([elems[c] for c in pivots])
            basis_expos.append([monos[c] for c in pivots])
            expansions.append({m: [row[c] for row in R[:len(pivots)]]
                               for c, m in enumerate(monos)})

        mult = {}
        for p in range(d + 1):
            for q in range(d + 1 - p):
                entries = []
                for i, ei in enumerate(basis_expos[p]):
                    for j, ej in enumerate(basis_expos[q]):
                        coords = expansions[p + q][tuple(a + b for a, b in zip(ei, ej))]
                        entries += [(k, i, j, c) for k, c in enumerate(coords)]
                mult[(p, q)] = Table.of(entries)

        integration = None
        if ambient.integration is not None:
            integration = [el.integrate() for el in lifts[d]]
        self.ambient = ambient
        self._lifts = lifts
        super().__init__(
            d, bases, mult, integration,
            name=name or f"subring({ambient.name})",
        )
        for gi, n in enumerate(names):
            expo = tuple(1 if i == gi else 0 for i in range(g))
            self.labels[n] = self.from_coeffs(1, expansions[1][expo])

    def lift(self, elem):
        """The same class as an element of the ambient model."""
        acc = self.ambient.zero(elem.degree)
        for c, amb in zip(elem.coeffs.fractions(), self._lifts[elem.degree]):
            if c != 0:
                acc = acc + amb * c
        return acc


def subring(ambient, generators, name=None):
    return SubringModel(ambient, generators, name=name)


# -- relation rings --------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")


def _exponents_of_degree(n, degrees, target):
    """All exponent tuples over n generators with weighted degree == target."""
    out = []

    def rec(i, left, acc):
        if i == n:
            if left == 0:
                out.append(tuple(acc))
            return
        dmax = left // degrees[i]
        for m in range(dmax, -1, -1):
            acc.append(m)
            rec(i + 1, left - m * degrees[i], acc)
            acc.pop()
    rec(0, target, [])
    return out


def _split_power(factor, text):
    """Split "x^3" into ("x", 3); a factor without "^" has power 1."""
    if "^" not in factor:
        return factor, 1
    base, _, power = factor.partition("^")
    try:
        return base, int(power)
    except ValueError:
        raise ConfigError(f"bad power {power!r} in {text!r}") from None


def parse_monomial(text, gen_names):
    """Parse "xi^2*f" into an exponent tuple over gen_names; "1" is allowed."""
    if not isinstance(text, str):
        raise ConfigError(f"monomial must be a string, got {text!r}")
    text = text.replace(" ", "")
    expo = [0] * len(gen_names)
    if text in ("", "1"):
        return tuple(expo)
    for factor in text.split("*"):
        base, power = _split_power(factor, text)
        if base not in gen_names:
            raise ConfigError(f"unknown generator {base!r} in monomial {text!r}")
        if power < 0:
            raise ConfigError(f"negative power in monomial {text!r}")
        expo[gen_names.index(base)] += power
    return tuple(expo)


class RelationModel(RingModel):
    """Polynomial ring on weighted generators modulo rewrite rules."""

    def __init__(self, dimension, generators, relations, integration=None,
                 labels=None, name="relation-ring"):
        names = []
        degrees = []
        for gname, gdeg in generators:
            if not isinstance(gname, str) or not _NAME_RE.match(gname):
                raise ConstructionError(f"bad generator name {gname!r}")
            if gname in names:
                raise ConstructionError(f"duplicate generator {gname!r}")
            if not 1 <= gdeg <= dimension:
                raise ConstructionError(
                    f"generator {gname} has degree {gdeg}, outside 1..{dimension}"
                )
            names.append(gname)
            degrees.append(gdeg)
        self.gen_names = names
        self.gen_degrees = degrees

        def mono_degree(expo):
            return sum(m * dg for m, dg in zip(expo, degrees))

        rules = []
        for lhs, rhs in relations:
            ldeg = mono_degree(lhs)
            if ldeg < 1:
                raise ConstructionError(
                    "relation left-hand side must have positive degree",
                    witness={"lhs": lhs},
                )
            for c, rm in rhs:
                if mono_degree(rm) != ldeg:
                    raise ConstructionError(
                        "relation is not degree-homogeneous",
                        witness={"lhs": lhs, "rhs_monomial": rm},
                    )
            rules.append((tuple(lhs), [(Fraction(c), tuple(rm)) for c, rm in rhs]))

        # full reduction with memoization; cycle => non-terminating rewrite
        memo = {}

        def divides(a, b):
            return all(x <= y for x, y in zip(a, b))

        def rewrite(expo, lhs, rhs):
            """expo with its factor lhs replaced by rhs, reduced in full."""
            rest = tuple(e - l for e, l in zip(expo, lhs))
            out = {}
            for c, rm in rhs:
                sub = reduce_full(tuple(r + m for r, m in zip(rest, rm)))
                for m2, c2 in sub.items():
                    s = out.get(m2, Fraction(0)) + c * c2
                    if s:
                        out[m2] = s
                    else:
                        out.pop(m2, None)
            return out

        def reduce_full(expo):
            state = memo.get(expo)
            if state == "busy":
                raise ConstructionError(
                    "rewrite rules loop forever", witness={"monomial": expo}
                )
            if state is not None:
                return state
            memo[expo] = "busy"
            hit = next((r for r in rules if divides(r[0], expo)), None)
            out = {expo: Fraction(1)} if hit is None else rewrite(expo, *hit)
            memo[expo] = out
            return out

        bases = []
        basis_expos = []
        for p in range(dimension + 1):
            monos = _exponents_of_degree(len(names), degrees, p)
            irred = [m for m in monos if not any(divides(r[0], m) for r in rules)]
            basis_expos.append(irred)
            bases.append([_monomial_label(names, m) for m in irred])
            # local confluence: every one-step reduction must agree
            for m in monos:
                outcomes = [rewrite(m, lhs, rhs) for lhs, rhs in rules if divides(lhs, m)]
                if outcomes and any(o != outcomes[0] for o in outcomes[1:]):
                    raise ConstructionError(
                        "inconsistent relations: monomial reduces two ways",
                        witness={"monomial": _monomial_label(names, m)},
                    )
        index = [
            {m: k for k, m in enumerate(expos)} for expos in basis_expos
        ]

        mult = {}
        for p in range(dimension + 1):
            for q in range(dimension + 1 - p):
                entries = []
                for i, mi in enumerate(basis_expos[p]):
                    for j, mj in enumerate(basis_expos[q]):
                        combo = reduce_full(tuple(a + b for a, b in zip(mi, mj)))
                        entries += [(index[p + q][m], i, j, c) for m, c in combo.items()]
                mult[(p, q)] = Table.of(entries)

        ivec = None
        if integration is not None:
            ivec = [Fraction(0)] * len(basis_expos[dimension])
            for mono, value in integration:
                combo = reduce_full(tuple(mono))
                if len(combo) != 1 or next(iter(combo.values())) != 1:
                    raise ConstructionError(
                        "integration monomial must reduce to a single basis monomial",
                        witness={"monomial": mono},
                    )
                ivec[index[dimension][next(iter(combo))]] = Fraction(value)

        super().__init__(dimension, bases, mult, ivec, name=name)
        for gi, (gname, gdeg) in enumerate(zip(names, degrees)):
            combo = reduce_full(tuple(int(i == gi) for i in range(len(names))))
            self.labels[gname] = self.from_coeffs(
                gdeg, [combo.get(m, 0) for m in basis_expos[gdeg]])
        if labels:
            for lname, expr in labels.items():
                self.labels[lname] = parse_element(self, expr)


def relation_ring(dimension, generators, relations, integration=None,
                  labels=None, name="relation-ring"):
    return RelationModel(dimension, generators, relations, integration,
                         labels, name=name)


def polynomial_ring(dimension, generators, name=None):
    """Free graded ring on weighted generators, truncated above the dimension."""
    return RelationModel(
        dimension, generators, [], None, None, name=name or "polynomial-ring",
    )


# Largest ring spec that ring_from_spec builds: its dimension and its
# monomials of degree 0..dimension.  Construction and check_axioms grow
# polynomially in both; at the limits they take under 0.1 s (one generator
# in dimension 64 about 0.04 s, two degree-1 generators in dimension 20, 231
# monomials, about 0.08 s; Python 3.11, numpy 2.4, one core of a shared
# 2-core machine).  The fixtures have dimension 3 and 10 monomials.
MAX_SPEC_DIMENSION = 64
MAX_SPEC_MONOMIALS = 250
# Largest dimension of a seeded float sweep (sample_search, trace-check).
# The Schur pairs come from det(sum t_i H_i) (hrcheck.schur_tensors): one
# trial with three forms takes 0.03 s and 42 MB at d = 11 and 0.08 s at
# d = 14, and stays under 1 s up to d = 28 (cold, caches built; 0.8 s and
# 102 MB).  Precision sets the cap first: the float tensors lose digits
# like e^d (two point sets agree to 2e-11 relative at d = 14 for 2 to 5
# forms, to 1.5e-10 at d = 16 and 4e-6 at d = 28 for three), so d = 14
# keeps ten digits for every sweep.  Python 3.11, numpy 2.4, one core.
MAX_SWEEP_DIMENSION = 14
# Largest float Schur grid (hrcheck._float_grid) of e forms on C^d: an
# exponent table of C(d+e-2, e-1) rows of e-1 entries, checked before any
# work, and M points, checked after the lattice search, of a dense
# M x C(d+e-2, e-1) complex phase matrix.  At d = 14 a trial took 0.07 s and
# 45 MB with 3 forms, 3-5 s and 1.0 GB with 5 (9 520 entries, M = 13 835);
# 6 (M = 121 045) were killed for memory, 7 (M = 878 667) asked for 178 GiB.
MAX_SWEEP_EXPONENTS = 10_000
MAX_SWEEP_POINTS = 2 ** 14
# Largest twist rank (rank + 1 ring generators): 1.0 s at 16, 4.2 s at 20.
MAX_TWIST_RANK = 16
# Largest seeded trace-check rank: the random curvature and Higgs arrays grow
# as rank^2 d^2.  With --higgs at d = 14 (MAX_SWEEP_DIMENSION) rank 32 takes
# 0.7 s and 53 MB, rank 64 2.1 s and 92 MB, rank 128 13.6 s and 270 MB.
MAX_TRACE_RANK = 32
# Largest partition of the schur and derived verbs: its first part lam_1 is
# the order of the dual Jacobi-Trudi determinant (a cofactor expansion over
# column subsets, exponential in it), and its weight sets the size of the
# polynomials, not the number of variables.  schur (n) in n variables took
# 0.2 s at n = 12 and 4.5 s at 16; (12, 4), the slowest shape within both
# caps, 0.3 s in 16 variables as in 100 000 (the verb 0.5 s and 33 MB), and
# (12, 12) in 24 0.9 s (Python 3.11, one core, in process).
MAX_SCHUR_ORDER = 12
MAX_SCHUR_WEIGHT = 16
# Largest segre degree: 0.3 s at 1 000, 10 s and 30 MB of output at 20 000.
MAX_SEGRE_DEGREE = 1_000


def _monomial_count(dimension, degrees, limit):
    """Monomials of degree 0..dimension in generators of the given degrees.

    A coin-change DP over the degree; it stops adding generators once the
    count is above limit, so the count is exact only up to limit.
    """
    ways = [1] + [0] * dimension
    for g in degrees:
        if 1 <= g <= dimension:
            for k in range(g, dimension + 1):
                ways[k] += ways[k - g]
            if sum(ways) > limit:
                break
    return sum(ways)


def ring_from_spec(data):
    """Build a relation ring from a parsed ring-spec dict (see fixtures).

    This is where ring data enters from outside the program, so malformed
    fields raise ConfigError, a spec above MAX_SPEC_DIMENSION or
    MAX_SPEC_MONOMIALS is refused before its monomials are enumerated, and
    the built ring must pass check_axioms().
    """
    try:
        dimension = int(data["dimension"])
        if dimension < 0:
            raise ConfigError(f"ring dimension must be non-negative, got {dimension}")
        generators = [(g["name"], int(g["degree"])) for g in data["generators"]]
        gen_names = [g for g, _ in generators]
        relations = []
        integration = []
        labels = data.get("labels")
        if labels is not None and not isinstance(labels, dict):
            raise ConfigError(f"labels must map names to expressions, got {labels!r}")
        for rel in data.get("relations", ()):
            mono = parse_monomial(rel["monomial"], gen_names)
            if "rewrite" in rel:
                rhs = [
                    (Fraction(str(t["coeff"])), parse_monomial(t["monomial"], gen_names))
                    for t in rel["rewrite"]
                ]
                relations.append((mono, rhs))
            elif "value" in rel:
                value = Fraction(str(rel["value"]))
                if value == 0:
                    relations.append((mono, []))
                else:
                    # shorthand for a top-degree integration normalization
                    integration.append((mono, value))
            else:
                raise ConfigError(f"relation entry needs 'rewrite' or 'value': {rel}")
        ispec = data.get("integration")
        if ispec is not None:
            if isinstance(ispec, dict):
                ispec = [ispec]
            for entry in ispec:
                integration.append(
                    (parse_monomial(entry["monomial"], gen_names),
                     Fraction(str(entry["value"])))
                )
    except KeyError as exc:
        raise ConfigError(f"malformed ring spec: missing field {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed ring spec: {exc}") from exc
    if dimension > MAX_SPEC_DIMENSION:
        raise ConfigError(
            f"ring spec too large: dimension {dimension} is above {MAX_SPEC_DIMENSION}"
        )
    count = _monomial_count(dimension, [g for _, g in generators], MAX_SPEC_MONOMIALS)
    if count > MAX_SPEC_MONOMIALS:
        raise ConfigError(
            f"ring spec too large: {len(generators)} generators in dimension {dimension} "
            f"give more than {MAX_SPEC_MONOMIALS} monomials"
        )
    model = relation_ring(
        dimension,
        generators,
        relations,
        integration=integration or None,
        labels=labels,
        name=data.get("name", "ring-spec"),
    )
    model.check_axioms()
    return model


def load_ring_spec(path):
    """ring_from_spec of the JSON file at path; ConfigError, naming the file,
    when it cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read ring spec {path}: {exc}") from None
    return ring_from_spec(data)


# -- element expressions ---------------------------------------------------

_COEF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_element(model, text):
    """Parse "xi^2*f - 2*h^3" style expressions against a model's names.

    Factors resolve through generator labels first, then other model labels;
    a bare rational is a multiple of the unit.
    """
    if not isinstance(text, str):
        raise ConfigError(f"element expression must be a string, got {text!r}")
    squashed = text.replace(" ", "")
    if not squashed:
        raise ConfigError("empty element expression")
    terms = [t for t in re.split(r"(?=[+-])", squashed) if t not in ("", "+", "-")]
    total = None
    for term in terms:
        sign = Fraction(1)
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = Fraction(-1)
            term = term[1:]
        coeff = sign
        factors = []
        for factor in term.split("*"):
            if _COEF_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ConfigError(f"zero denominator in {text!r}") from None
                except ValueError as exc:  # _COEF_RE leaves only Python's int digit limit
                    raise ConfigError(f"a coefficient has too many digits: {exc}") from None
            else:
                factors.append(factor)
        elem = None
        for factor in factors:
            base, power = _split_power(factor, text)
            if base not in model.labels:
                raise ConfigError(
                    f"unknown name {base!r} in expression {text!r} "
                    f"(model {model.name!r})"
                )
            val = model.labels[base] ** power if power != 1 else model.labels[base]
            elem = val if elem is None else elem * val
        if elem is None:
            elem = model.one()
        elem = elem * coeff
        total = elem if total is None else total + elem
    return total


# -- projective bundles and X x P^1 ---------------------------------------


class ProjBundleModel(RingModel):
    """P(A) over a base model, A of rank e with Chern classes in the base.

    Classes are sum_i xi^i * x_i with 0 <= i < e; the Grothendieck relation
    with alternating signs rewrites xi^e, and pushforward takes the
    xi^(e-1)-coefficient.
    """

    def __init__(self, base, chern, rank, xi_name="xi", name=None):
        e = rank
        if e < 1:
            raise ConstructionError("bundle rank must be at least 1")
        chern = list(chern)
        if len(chern) == e:
            chern = [base.one()] + chern
        if len(chern) != e + 1:
            raise ConstructionError(
                f"need Chern classes c_0..c_{e} (or c_1..c_{e}), got {len(chern)}"
            )
        for k, c in enumerate(chern[1:], start=1):
            if c.degree != k:
                raise ConstructionError(f"c_{k} must have degree {k}, got {c.degree}")
        d = base.dimension
        D = d + e - 1
        self.base = base
        self.rank = e

        # xi^m = sum_(i<e) xi^i x_i in normal form, x_i of base degree m - i (empty
        # out of range), for m <= 2(e - 1): xi times xi^(m-1), with
        # xi^e = c_1 xi^(e-1) - c_2 xi^(e-2) + ... +- c_e
        xipow = [[base.one() if i == m else base.zero(m - i) for i in range(e)] for m in range(e)]
        for m in range(e, 2 * e - 1):
            prev = xipow[-1]
            xipow.append([(prev[i - 1] if i else base.zero(m))
                          + chern[e - i] * prev[e - 1] * (-1) ** (e - i + 1) for i in range(e)])

        # degree n: the blocks xi^i * (base degree n - i) for i < e, in turn
        bases, blocks, powers = [], [], []
        for n in range(D + 1):
            labs, starts = [], []
            for i in range(e):
                starts.append(len(labs) if 0 <= n - i <= d else None)
                if starts[-1] is None:
                    continue
                xi = _monomial_label([xi_name], (i,))
                labs += [blab if i == 0 else xi if blab == "1" else f"{xi}*{blab}"
                         for blab in base.basis(n - i)]
            bases.append(labs)
            blocks.append(starts)
            powers.append(np.repeat(np.arange(e), [len(base.basis(n - i)) for i in range(e)]))
        self._powers = powers  # degree -> the power of xi of each slot

        # (xi^i b_x)(xi^j b_y) = sum_m xi^m red_m (b_x b_y) for xi^(i+j) = sum_m xi^m red_m:
        # the base table of (b_x b_y), then multiplication by red_m
        mult = {}
        for p in range(D + 1):
            for q in range(D + 1 - p):
                entries = []
                for (i, si), (j, sj) in itertools.product(enumerate(blocks[p]),
                                                          enumerate(blocks[q])):
                    T = base._mult.get((p - i, q - j))
                    if si is None or sj is None or T is None:
                        continue
                    for m, red in enumerate(xipow[i + j]):
                        sk = blocks[p + q][m]
                        if sk is None or red.is_zero():
                            continue
                        R = base.multiplication_matrix(red, p - i + q - j)
                        V, den = R.re[:, T.k] * T.num, R.den * T.den
                        entries += [(sk + l, si + T.i[t], sj + T.j[t], Fraction(V[l, t], den))
                                    for l, t in zip(*np.nonzero(V))]
                mult[(p, q)] = Table.of(entries)

        integration = None
        if base.integration is not None:
            integration = ExactArray(*np.zeros((2, len(bases[D])), dtype=object))
            integration[powers[D] == e - 1] = base.integration

        super().__init__(
            D, bases, mult, integration,
            name=name or f"P(rank {e} over {base.name})",
        )
        if e == 1:
            # P(A) of a line bundle is the base itself and xi^1 rewrites
            # immediately, so xi only exists as the pullback of c_1.
            self.xi = self.pullback(chern[1])
        else:
            self.xi = self.basis_element(1, blocks[1][1])
        self.labels[xi_name] = self.xi
        for lname, lval in base.labels.items():
            if lname not in self.labels:
                self.labels[lname] = self.pullback(lval)

    def _slots_of_power(self, degree, i):
        """The mask of the slots of xi^i in a degree (none past the top)."""
        return self._powers[degree] == i if degree <= self.dimension else []

    def _component(self, elem, i):
        """The xi^i component of elem, a base class of degree elem.degree - i."""
        return self.base.from_coeffs(elem.degree - i,
                                     elem.coeffs[self._slots_of_power(elem.degree, i)])

    def pullback(self, x):
        """Base class as a bundle class (the xi^0 component)."""
        coeffs = ExactArray(*np.zeros((2, len(self.basis(x.degree))), dtype=object))
        coeffs[self._slots_of_power(x.degree, 0)] = x.coeffs
        return self.from_coeffs(x.degree, coeffs)

    def pushforward(self, elem):
        """Fiber integration: the xi^(e-1)-coefficient, degree drops by e-1."""
        if elem.degree < self.rank - 1:
            return self.base.zero(0)
        return self._component(elem, self.rank - 1)


def proj_bundle_ring(base, chern, rank, xi_name="xi", name=None):
    return ProjBundleModel(base, chern, rank, xi_name=xi_name, name=name)


class ProductWithP1Model(ProjBundleModel):
    """X x P^1 as P(O + O): tau^2 = 0 and int(x * tau) = int_X(x)."""

    def __init__(self, base, name=None):
        chern = [base.one(), base.zero(1), base.zero(2)]
        super().__init__(
            base, chern, 2, xi_name="tau",
            name=name or f"{base.name} x P^1",
        )
        self.tau = self.xi

    def split(self, elem):
        """Decompose as x + tau*y; returns the pair of base elements (x, y)."""
        return (self._component(elem, 0),
                self._component(elem, 1) if elem.degree >= 1 else self.base.zero(0))


def product_with_p1(base, name=None):
    return ProductWithP1Model(base, name=name)
