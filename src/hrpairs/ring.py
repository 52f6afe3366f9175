"""Finite graded intersection-ring models.

A RingModel carries, for each degree 0..d, a finite basis of labelled
classes, sparse rational multiplication tensors between the graded pieces,
and (optionally) an integration functional on the top degree.

RingModel.check_axioms() proves commutativity and associativity on basis
elements exhaustively.  It runs where a ring enters from outside the program,
in ring_from_spec (JSON specs, the CLI's --ring).  The torus, subring,
projective-bundle and X x P^1 models are built from products that are
associative by construction (the exterior product, ambient products, rewrite
normal forms); the test suite checks their axioms instead of every process
start.

Concrete factories:

  * torus_ring(d)        -- real (p,p)-classes on C^d mod lattice, bases of
                            C(d,p)^2 forms from one integer Hermitian basis,
                            products by the DenseForm sign rule;
  * subring(model, gens) -- the graded subring generated by degree-1 classes;
  * relation_ring(...)   -- monomial bases cut out by rewrite rules, e.g.
                            P(O+O+O(-1)) over P^1 via f^2 -> 0, xi^3 -> -xi^2*f;
  * proj_bundle_ring(..) -- P(A) over a base model, with the sign convention
                            xi^e = c_1 xi^(e-1) - c_2 xi^(e-2) + ... fixed so
                            that pushforward(xi^(e-1+k)) is the Segre class
                            h_k of the Chern roots (cross-validated in tests);
  * product_with_p1(..)  -- X x P^1 as the rank-2 trivial bundle case,
                            tau^2 = 0 and int(x * tau) = int(x).

Ring elements have exact coordinates only, Fraction or GaussianRational: a
float coefficient raises TypeError.  Every product in a ring model is an
exact intersection number; float work happens on matrices built from them
(is_hr_pair(exact=False)).  Pointwise forms of both backends are checked on
DenseForm coefficient matrices, which use no ring model.

The real basis of (p,p)-forms is written down once, as the integer arrays of
_hermitian_basis; its labels, the DenseForm encoding _real_basis_matrix,
real_coordinates, form_from_real_coordinates and the torus product tables
(real_product_table, with the _merge_signs tables of the dense kernels) are
all read from it.  torus_ring(d) serves the worked examples and is the test
suite's exact oracle for the pointwise checks.
"""

import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ConfigError, ConstructionError, ConsistencyError, DegreeError
from .exterior import DenseForm, _coefficient_matrix, _merge_signs, _subset_index, std_kahler
from .linalg import rational_solve
from .scalars import ExactArray, GaussianRational, i_power, is_exact
from .symfunc import RingTPoly  # noqa: F401  -- re-exported as hrpairs.ring.RingTPoly


def _refuse(c):
    raise TypeError(
        f"ring coefficients are Fraction or GaussianRational, got {type(c).__name__} {c!r}"
    )


_EXACT = (Fraction, GaussianRational)


class RingElement:
    __slots__ = ("model", "degree", "coeffs")

    def __init__(self, model, degree, coeffs):
        self.model = model
        self.degree = degree
        n = len(model.basis(degree))
        coeffs = list(coeffs)
        if len(coeffs) != n:
            raise DegreeError(
                f"degree-{degree} element needs {n} coordinates, got {len(coeffs)}"
            )
        self.coeffs = [
            c if isinstance(c, _EXACT) else Fraction(c) if isinstance(c, int) else _refuse(c)
            for c in coeffs
        ]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

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
        return RingElement(
            self.model,
            self.degree,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self):
        return RingElement(self.model, self.degree, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            self._check_model(other)
            return self.model._multiply(self, other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RingElement(
                self.model, self.degree, [c * other for c in self.coeffs]
            )
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
        return (
            isinstance(other, RingElement)
            and self.model is other.model
            and self.degree == other.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __str__(self):
        labels = self.model.basis(self.degree)
        chunks = []
        for c, lab in zip(self.coeffs, labels):
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


class RingModel:
    """Graded commutative ring with finite rational bases per degree."""

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
        self.integration = (
            None if integration is None else [Fraction(v) for v in integration]
        )
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
        return RingElement(self, degree, [Fraction(0)] * len(self.basis(degree)))

    def one(self):
        return RingElement(self, 0, [Fraction(1)])

    def basis_element(self, degree, index):
        coeffs = [Fraction(0)] * len(self.basis(degree))
        coeffs[index] = Fraction(1)
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
        if deg > self.dimension:
            return RingElement(self, deg, [])
        table = self._mult.get((x.degree, y.degree), {})
        out = [Fraction(0)] * len(self.basis(deg))
        for i, a in enumerate(x.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(y.coeffs):
                if b == 0:
                    continue
                entries = table.get((i, j))
                if not entries:
                    continue
                ab = a * b
                for k, c in entries:
                    out[k] += ab * c
        return RingElement(self, deg, out)

    def integrate(self, elem):
        if self.integration is None:
            raise ConfigError(f"model {self.name!r} has no integration functional")
        if elem.degree != self.dimension:
            raise DegreeError(
                f"can only integrate degree-{self.dimension} classes, got degree {elem.degree}"
            )
        return sum((c * v for c, v in zip(elem.coeffs, self.integration)),
                   start=Fraction(0))

    def pairing_matrix(self, p):
        """Matrix of int(b_i * b_j) over bases of degrees p and d - p."""
        key = p
        if key not in self._pairings:
            q = self.dimension - p
            rows = []
            for i in range(len(self.basis(p))):
                bi = self.basis_element(p, i)
                rows.append(
                    [self.integrate(bi * self.basis_element(q, j))
                     for j in range(len(self.basis(q)))]
                )
            self._pairings[key] = rows
        return self._pairings[key]

    # -- ring axioms --------------------------------------------------------

    def check_axioms(self):
        """Raise ConstructionError unless basis products commute and associate.

        Exhaustive over basis triples, so cubic in the basis size; the
        error's witness names the offending degrees and basis classes.
        """
        for (p, q), table in self._mult.items():
            for (i, j) in table:
                bi, bj = self.basis_element(p, i), self.basis_element(q, j)
                if bi * bj != bj * bi:
                    raise ConstructionError(
                        f"multiplication not commutative on degrees ({p},{q})",
                        witness={"p": p, "q": q, "i": i, "j": j},
                    )
        d = self.dimension
        for p in range(1, d + 1):
            for q in range(p, d + 1 - p):
                for r in range(q, d + 1 - p - q):
                    np_, nq, nr = (len(self.basis(s)) for s in (p, q, r))
                    for i in range(np_):
                        bi = self.basis_element(p, i)
                        for j in range(nq):
                            bj = self.basis_element(q, j)
                            ij = bi * bj
                            for k in range(nr):
                                bk = self.basis_element(r, k)
                                left = ij * bk
                                right = bi * (bj * bk)
                                if left != right:
                                    raise ConstructionError(
                                        "multiplication not associative",
                                        witness={
                                            "degrees": (p, q, r),
                                            "basis": (
                                                self.basis(p)[i],
                                                self.basis(q)[j],
                                                self.basis(r)[k],
                                            ),
                                        },
                                    )

    def __repr__(self):
        dims = [len(b) for b in self._bases]
        return f"RingModel({self.name!r}, dimension={self.dimension}, dims={dims})"


# -- torus model -----------------------------------------------------------


@lru_cache(maxsize=None)
def pp_slots(d, p):
    """Layout of the real basis of constant (p,p)-forms on C^d.

    The basis is u[I] for each p-subset I, then x[I|J] and y[I|J] for each
    pair I < J of p-subsets, in itertools.combinations order.  Maps (I, I)
    to (u slot,) and (I, J) to (x slot, y slot); a real form with
    coefficients i^(p^2) * Z[I, J] (Z Hermitian) has u = Z[I, I],
    x = Re Z[I, J] and y = Im Z[I, J].
    """
    subsets = list(itertools.combinations(range(d), p))
    slots = {(I, I): (k,) for k, I in enumerate(subsets)}
    pos = len(subsets)
    for a, I in enumerate(subsets):
        for J in subsets[a + 1:]:
            slots[(I, J)] = (pos, pos + 1)
            pos += 2
    return slots


@lru_cache(maxsize=None)
def _hermitian_basis(d, p):
    """Read-only int64 arrays (X, Y), each of shape (m^2, m, m) for m = C(d, p).

    The j-th real basis form of degree p, in pp_slots order, has coefficient
    matrix i^(p^2) (X[j] + i Y[j]), and X[j] + i Y[j] is Hermitian: 1 at
    (I, I) for u[I]; 1 at (I, J) and (J, I) for x[I|J]; i at (I, J) and -i
    at (J, I) for y[I|J].
    """
    index, m = _subset_index(d, p), comb(d, p)
    X = np.zeros((m * m, m, m), dtype=np.int64)
    Y = np.zeros_like(X)
    for (I, J), slot in pp_slots(d, p).items():
        a, b = index[I], index[J]
        X[slot[0], a, b] = X[slot[0], b, a] = 1
        if len(slot) == 2:
            Y[slot[1], a, b], Y[slot[1], b, a] = 1, -1
    X.flags.writeable = Y.flags.writeable = False
    return X, Y


@lru_cache(maxsize=None)
def _slot_positions(d, p):
    """(rows, cols, imag): coordinate k of a Hermitian H in the basis of
    _hermitian_basis is Im H[rows[k], cols[k]] where imag[k], else Re."""
    X, Y = _hermitian_basis(d, p)
    _, rows, cols = np.nonzero(np.triu(X | Y))
    return rows, cols, Y.any(axis=(1, 2))


def _real_labels(d, p):
    """Labels u[I], x[I|J], y[I|J] (1-based) of the real basis of degree p in
    pp_slots order; "1" in degree 0."""
    if p == 0:
        return ["1"]
    tag = [",".join(str(i + 1) for i in S) for S in _subset_index(d, p)]
    return [f"u[{tag[a]}]" if a == b else f"{'xy'[im]}[{tag[a]}|{tag[b]}]"
            for a, b, im in zip(*(v.tolist() for v in _slot_positions(d, p)))]


@lru_cache(maxsize=None)
def _real_basis_matrix(d, p, exact):
    """Matrix whose row j is i^(p^2) (X[j] + i Y[j]) of _hermitian_basis
    flattened: the j-th real basis form of degree p as a DenseForm
    coefficient matrix, complex or an ExactArray, read-only."""
    X, Y = (a.reshape(len(a), -1) for a in _hermitian_basis(d, p))
    re, im = (-Y, X) if p % 2 else (X, Y)  # i^(p^2) is i for odd p, 1 for even p
    if not exact:
        B = re + 1j * im
        B.flags.writeable = False
        return B
    B = ExactArray(re.astype(object), im.astype(object))
    B.re.flags.writeable = B.im.flags.writeable = False
    return B


def _hermitian_of(form, exact):
    """H = i^(-p^2) Z for the coefficient matrix Z of a (p,p)-form: Hermitian
    exactly when the form is real."""
    unit = i_power(-form.p * form.p)
    return _coefficient_matrix(form, exact) * (unit if exact else complex(unit))


def _check_real(form):
    """H = _hermitian_of(form) for an exact (p,p)-form; ConsistencyError,
    naming the indices, unless the form is exactly real:
    c[J, I] = (-1)^(p^2) conj(c[I, J]) for every (I, J), i.e. H Hermitian."""
    H = _hermitian_of(form, True)
    rows, cols = ((H.re != H.re.T) | (H.im != -H.im.T)).nonzero()
    if len(rows):
        subsets = list(_subset_index(form.dim, form.p))
        I, J = subsets[rows[0]], subsets[cols[0]]
        c, mirror = form.coeffs.get((I, J), 0), form.coeffs.get((J, I), 0)
        raise ConsistencyError(f"form is not real at indices {(I, J)}: {c} vs {mirror}")
    return H


def real_coordinates(form):
    """Coordinates of a real (p,p)-form in the real basis of pp_slots.

    They are read from the Hermitian part of H = i^(-p^2) Z, Z the
    coefficient matrix: u[I] = H[I, I], x[I|J] = Re H[I, J] and
    y[I|J] = Im H[I, J].  Exact forms must be exactly real, so that H is
    its own Hermitian part, and give Fractions read from the integer parts
    of H; float forms give floats, and the Hermitian part takes the real
    part of slightly non-real input.
    """
    if form.p != form.q:
        raise DegreeError(f"expected a (p,p)-form, got {form!r}")
    d, p, exact = form.dim, form.p, form.is_exact()
    rows, cols, imag = _slot_positions(d, p)
    if exact:
        H = _check_real(form)
        return [Fraction(v, H.den)
                for v in np.where(imag, H.im[rows, cols], H.re[rows, cols]).tolist()]
    H = _hermitian_of(form, False)
    z = ((H + H.conj().T) / 2)[rows, cols]
    return np.where(imag, z.imag, z.real).tolist()


@lru_cache(maxsize=None)
def _hermitian_entries(d, p):
    """(rows, cols, re, im), int arrays of shape (m^2, 2) for m = C(d, p):
    the j-th Hermitian matrix of _hermitian_basis is the sum of its two
    entries re + i im at (rows[j, t], cols[j, t]), the second 0 for u[I]."""
    rows, cols, imag = _slot_positions(d, p)
    re, im = (~imag).astype(np.int64), imag.astype(np.int64)
    off = rows != cols
    return (np.stack([rows, cols], axis=1), np.stack([cols, rows], axis=1),
            np.stack([re, re * off], axis=1), np.stack([im, -im], axis=1))


def real_product_table(d, p, q):
    """Products of the real bases of degrees p and q on C^d, p + q <= d.

    {(i, j): ((k, c), ...)} lists the nonzero exact coordinates c of
    b_i * b_j in degree p + q.  For the Hermitian matrices H_i, H_j of
    _hermitian_basis and S = _merge_signs(d, p, q), the DenseForm product
    rule gives b_i * b_j = i^((p+q)^2) V with V = S (H_i (x) H_j) S^T, since
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
    table = {}
    for start in range(0, len(left[0]), step):
        ra, ca, hre, him = (x[start:start + step, None, :, None] for x in left)
        k, l = merged[ra, rb], merged[ca, cb]
        w = sign[ra, rb] * sign[ca, cb]
        i, j = np.arange(len(ra))[:, None, None, None], np.arange(n_q)[None, :, None, None]
        C = np.zeros((len(ra), n_q, len(rows)), dtype=np.int64)
        np.add.at(C, (i, j, slot[0][k, l]), w * (hre * gre - him * gim) * (k <= l))
        np.add.at(C, (i, j, slot[1][k, l]), w * (hre * gim + him * gre) * (k < l))
        nonzero = np.nonzero(C)
        values = C[nonzero].tolist()
        fraction = {c: Fraction(c) for c in set(values)}  # a few small ints, shared
        for row, col, slot_k, c in zip(*(a.tolist() for a in nonzero), values):
            table.setdefault((start + row, col), []).append((slot_k, fraction[c]))
    for key, entries in table.items():
        table[key] = tuple(entries)
    return table


def form_from_real_coordinates(d, p, coords):
    """The real (p,p)-form on C^d with coordinates coords in the basis of pp_slots.

    Inverse of real_coordinates: coords times _real_basis_matrix, so exact
    coordinates give GaussianRational coefficients and float ones complex
    coefficients.
    """
    coords = list(coords)
    m = comb(d, p)
    if len(coords) != m * m:
        raise DegreeError(
            f"{len(coords)} coordinates for real ({p},{p})-forms on C^{d}, need {m * m}"
        )
    exact = all(is_exact(c) for c in coords)
    v = ExactArray.of(coords) if exact else np.array(coords, dtype=float)
    Z = v @ _real_basis_matrix(d, p, exact)
    return DenseForm(d, p, Z.reshape(m, m)).to_form()


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
        super().__init__(d, bases, mult, [Fraction(1)], name=f"torus(C^{d})")
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

        bases = [["1"]]
        lifts = [[ambient.one()]]
        expansions = [{(0,) * g: [Fraction(1)]}]
        basis_expos = [[(0,) * g]]
        for p in range(1, d + 1):
            monos = [
                tuple(e)
                for e in _exponents_of_degree(g, [1] * g, p)
            ]
            chosen = []
            chosen_vecs = []
            expans = {}
            for expo in monos:
                elem = ambient.one()
                for gi, m in enumerate(expo):
                    for _ in range(m):
                        elem = elem * gens[gi]
                vec = elem.coeffs
                if chosen_vecs:
                    M = [[chosen_vecs[c][r] for c in range(len(chosen_vecs))]
                         for r in range(len(vec))]
                    sol = rational_solve(M, vec)
                else:
                    sol = None if any(v != 0 for v in vec) else []
                if sol is None:
                    coords = [Fraction(0)] * (len(chosen) + 1)
                    coords[len(chosen)] = Fraction(1)
                    for other in expans.values():
                        other.append(Fraction(0))
                    chosen.append((expo, elem))
                    chosen_vecs.append(vec)
                    expans[expo] = coords
                else:
                    expans[expo] = list(sol)
            bases.append([_monomial_label(names, e) for e, _ in chosen])
            lifts.append([el for _, el in chosen])
            basis_expos.append([e for e, _ in chosen])
            expansions.append(expans)

        mult = {}
        for p in range(d + 1):
            for q in range(d + 1 - p):
                table = {}
                for i, ei in enumerate(basis_expos[p]):
                    for j, ej in enumerate(basis_expos[q]):
                        total = tuple(a + b for a, b in zip(ei, ej))
                        coords = expansions[p + q].get(total)
                        if coords is None:
                            raise ConstructionError(
                                "generators do not close into finite bases",
                                witness={"monomial": total, "degree": p + q},
                            )
                        entries = tuple((k, c) for k, c in enumerate(coords) if c != 0)
                        if entries:
                            table[(i, j)] = entries
                mult[(p, q)] = table

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
        for c, amb in zip(elem.coeffs, self._lifts[elem.degree]):
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
        self._rules = rules

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

        self._reduce = reduce_full

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
        self._basis_expos = basis_expos
        index = [
            {m: k for k, m in enumerate(expos)} for expos in basis_expos
        ]

        mult = {}
        for p in range(dimension + 1):
            for q in range(dimension + 1 - p):
                table = {}
                for i, mi in enumerate(basis_expos[p]):
                    for j, mj in enumerate(basis_expos[q]):
                        combo = reduce_full(tuple(a + b for a, b in zip(mi, mj)))
                        entries = tuple(
                            (index[p + q][m], c) for m, c in combo.items()
                        )
                        if entries:
                            table[(i, j)] = entries
                mult[(p, q)] = table

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
        for gi, gname in enumerate(names):
            expo = tuple(1 if i == gi else 0 for i in range(len(names)))
            combo = reduce_full(expo)
            coeffs = [Fraction(0)] * len(basis_expos[degrees[gi]])
            for m, c in combo.items():
                coeffs[index[degrees[gi]][m]] = c
            self.labels[gname] = self.from_coeffs(degrees[gi], coeffs)
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
# polynomially in both; at the limits they take a few seconds (one generator
# in dimension 64 about 0.4 s, two degree-1 generators in dimension 20, 231
# monomials, about 2 s).  The fixtures have dimension 3 and 10 monomials.
MAX_SPEC_DIMENSION = 64
MAX_SPEC_MONOMIALS = 250
# Largest dimension of a seeded float sweep (sample_search, trace-check):
# one trial with two forms took 1.2 s and 245 MB at d = 10, 7.4 s and
# 807 MB at d = 11, and at d = 12 its DenseForm products overran 2 GB.
MAX_SWEEP_DIMENSION = 11


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
    with open(path) as fh:
        data = json.load(fh)
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

        # xi^m in normal form: list over i < e of base elements of degree m - i
        top_power = max(2 * (e - 1), e - 1)
        xipow = []
        for m in range(top_power + 1):
            if m < e:
                xipow.append([
                    (base.one() if i == m else base.zero(m - i)) if i <= m else None
                    for i in range(e)
                ])
                continue
            prev = xipow[m - 1]
            cur = [base.zero(m - i) if m - i <= d else None for i in range(e)]
            overflow = prev[e - 1]  # coefficient of xi^(e-1), degree m-e
            for i in range(1, e):
                if prev[i - 1] is not None and cur[i] is not None:
                    cur[i] = cur[i] + prev[i - 1]
            if overflow is not None and not overflow.is_zero():
                # xi^e = c_1 xi^(e-1) - c_2 xi^(e-2) + ... +- c_e
                for k in range(1, e + 1):
                    tgt = e - k
                    if cur[tgt] is None:
                        continue
                    term = chern[k] * overflow
                    cur[tgt] = cur[tgt] + term * ((-1) ** (k + 1))
            xipow.append(cur)
        self._xipow = xipow

        bases = []
        index = []  # degree -> (i, base_index) -> slot
        layout = []  # degree -> list of (i, base_index)
        for n in range(D + 1):
            labs = []
            idx = {}
            lay = []
            for i in range(min(e - 1, n) + 1):
                bdeg = n - i
                if bdeg > d:
                    continue
                for bk, blab in enumerate(base.basis(bdeg)):
                    idx[(i, bk)] = len(labs)
                    lay.append((i, bk))
                    prefix = "" if i == 0 else (
                        f"{xi_name}*" if i == 1 else f"{xi_name}^{i}*"
                    )
                    labs.append(
                        (prefix[:-1] if blab == "1" and prefix else prefix + blab)
                        or "1"
                    )
            bases.append(labs)
            index.append(idx)
            layout.append(lay)
        self._layout = layout
        self._index = index

        mult = {}
        for p in range(D + 1):
            for q in range(D + 1 - p):
                table = {}
                for si, (i, bi) in enumerate(layout[p]):
                    xi_b = base.basis_element(p - i, bi)
                    for sj, (j, bj) in enumerate(layout[q]):
                        prod = xi_b * base.basis_element(q - j, bj)
                        if prod.is_zero():
                            continue
                        acc = {}
                        for m, red in enumerate(self._xipow[i + j]):
                            if red is None or red.is_zero():
                                continue
                            piece = red * prod
                            if piece.is_zero():
                                continue
                            for bk, c in enumerate(piece.coeffs):
                                if c == 0:
                                    continue
                                slot = index[p + q].get((m, bk))
                                if slot is None:
                                    continue
                                acc[slot] = acc.get(slot, Fraction(0)) + c
                        entries = tuple((k, c) for k, c in acc.items() if c != 0)
                        if entries:
                            table[(si, sj)] = entries
                mult[(p, q)] = table

        integration = None
        if base.integration is not None:
            integration = []
            for (i, bk) in layout[D]:
                integration.append(
                    base.integration[bk] if i == e - 1 else Fraction(0)
                )

        super().__init__(
            D, bases, mult, integration,
            name=name or f"P(rank {e} over {base.name})",
        )
        if e == 1:
            # P(A) of a line bundle is the base itself and xi^1 rewrites
            # immediately, so xi only exists as the pullback of c_1.
            self.xi = self.pullback(chern[1])
        else:
            xi_coeffs = [Fraction(0)] * len(bases[1])
            xi_coeffs[index[1][(1, 0)]] = Fraction(1)
            self.xi = self.from_coeffs(1, xi_coeffs)
        self.labels[xi_name] = self.xi
        for lname, lval in base.labels.items():
            if lname not in self.labels:
                self.labels[lname] = self.pullback(lval)

    def pullback(self, x):
        """Base class as a bundle class (the xi^0 component)."""
        out = self.zero(x.degree)
        coeffs = list(out.coeffs)
        for bk, c in enumerate(x.coeffs):
            slot = self._index[x.degree].get((0, bk))
            if slot is None:
                raise DegreeError("pullback degree out of range")
            coeffs[slot] = c
        return self.from_coeffs(x.degree, coeffs)

    def pushforward(self, elem):
        """Fiber integration: the xi^(e-1)-coefficient, degree drops by e-1."""
        tgt = elem.degree - (self.rank - 1)
        if tgt < 0:
            return self.base.zero(0)
        out = [Fraction(0)] * len(self.base.basis(tgt))
        for slot, (i, bk) in enumerate(self._layout[elem.degree]):
            if i == self.rank - 1 and elem.coeffs[slot] != 0:
                out[bk] = out[bk] + elem.coeffs[slot]
        return self.base.from_coeffs(tgt, out)


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
        deg = elem.degree
        x = [Fraction(0)] * len(self.base.basis(deg))
        y = [Fraction(0)] * len(self.base.basis(deg - 1)) if deg >= 1 else []
        for slot, (i, bk) in enumerate(self._layout[deg]):
            c = elem.coeffs[slot]
            if c == 0:
                continue
            if i == 0:
                x[bk] = x[bk] + c
            else:
                y[bk] = y[bk] + c
        return (
            self.base.from_coeffs(deg, x),
            self.base.from_coeffs(deg - 1, y) if deg >= 1 else self.base.zero(0),
        )


def product_with_p1(base, name=None):
    return ProductWithP1Model(base, name=name)
