"""Finite graded intersection-ring models.

A RingModel carries, for each degree 0..d, a finite basis of labelled
classes, sparse rational multiplication tensors between the graded pieces,
and (optionally) an integration functional on the top degree.

RingModel.check_axioms() proves commutativity and associativity on basis
elements exhaustively.  It runs where a ring enters from outside the program,
in ring_from_spec (JSON specs, the CLI's --ring).  The torus, subring,
projective-bundle and X x P^1 models are built from products that are
associative by construction (wedge, ambient products, rewrite normal forms);
the test suite checks their axioms instead of every process start.

Concrete factories:

  * torus_ring(d)        -- real (p,p)-classes on C^d mod lattice, bases of
                            C(d,p)^2 explicit forms, products by wedge;
  * subring(model, gens) -- the graded subring generated by degree-1 classes;
  * relation_ring(...)   -- monomial bases cut out by rewrite rules, e.g.
                            P(O+O+O(-1)) over P^1 via f^2 -> 0, xi^3 -> -xi^2*f;
  * proj_bundle_ring(..) -- P(A) over a base model, with the sign convention
                            xi^e = c_1 xi^(e-1) - c_2 xi^(e-2) + ... fixed so
                            that pushforward(xi^(e-1+k)) is the Segre class
                            h_k of the Chern roots (cross-validated in tests);
  * product_with_p1(..)  -- X x P^1 as the rank-2 trivial bundle case,
                            tau^2 = 0 and int(x * tau) = int(x).

Ring elements keep exact Fraction coordinates; float coordinates are allowed
too (the sampling harnesses use them) and multiplication then runs through a
float mirror of the tensors.
"""

import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ConfigError, ConstructionError, ConsistencyError, DegreeError
from .exterior import PPForm, integrate_top, std_kahler, wedge
from .linalg import rational_solve
from .scalars import GaussianRational, conj, i_power, imag_part, real_part
from .symfunc import RingTPoly  # noqa: F401  -- re-exported as hrpairs.ring.RingTPoly


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
            Fraction(c) if isinstance(c, int) else c for c in coeffs
        ]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_exact(self):
        return all(not isinstance(c, float) for c in self.coeffs)

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
        if isinstance(other, (int, float, complex, Fraction, GaussianRational)):
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
        out = self.model.one()
        for _ in range(n):
            out = out * self
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
        self._mult_float = {}
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

    def _table(self, p, q, as_float):
        if not as_float:
            return self._mult.get((p, q), {})
        tab = self._mult_float.get((p, q))
        if tab is None:
            tab = {
                ij: tuple((k, float(c)) for k, c in entries)
                for ij, entries in self._mult.get((p, q), {}).items()
            }
            self._mult_float[(p, q)] = tab
        return tab

    def _multiply(self, x, y):
        deg = x.degree + y.degree
        if deg > self.dimension:
            return RingElement(self, deg, [])
        as_float = not (x.is_exact() and y.is_exact())
        table = self._table(x.degree, y.degree, as_float)
        out = [0.0 if as_float else Fraction(0)] * len(self.basis(deg))
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


def _real_pp_basis(d, p):
    """Labelled real basis of constant (p,p)-forms on C^d (C(d,p)^2 classes)."""
    if p == 0:
        return [("1", PPForm.one(d))]
    ip = i_power(p * p)
    ip1 = i_power(p * p + 1)
    subsets = list(itertools.combinations(range(d), p))
    out = []

    def tag(S):
        return ",".join(str(i + 1) for i in S)

    for I in subsets:
        out.append((f"u[{tag(I)}]", PPForm.monomial(d, I, I, ip)))
    for a, I in enumerate(subsets):
        for J in subsets[a + 1:]:
            out.append(
                (f"x[{tag(I)}|{tag(J)}]",
                 PPForm(d, p, p, {(I, J): ip, (J, I): ip}))
            )
            out.append(
                (f"y[{tag(I)}|{tag(J)}]",
                 PPForm(d, p, p, {(I, J): ip1, (J, I): -ip1}))
            )
    return out


class TorusModel(RingModel):
    """Full algebra of real constant (p,p)-forms, products by wedge."""

    def __init__(self, d):
        basis_forms = [_real_pp_basis(d, p) for p in range(d + 1)]
        bases = [[lab for lab, _ in bf] for bf in basis_forms]
        self.basis_forms = [[f for _, f in bf] for bf in basis_forms]
        # index over subset pairs for decomposition: degree -> (I, J) -> slot
        self._slots = []
        for p in range(d + 1):
            slots = {}
            subsets = list(itertools.combinations(range(d), p))
            pos = 0
            for I in subsets:
                slots[(I, I)] = ("diag", pos)
                pos += 1
            for a, I in enumerate(subsets):
                for J in subsets[a + 1:]:
                    slots[(I, J)] = ("pair", pos, pos + 1)
                    pos += 2
            self._slots.append(slots)
        mult = {}
        for p in range(d + 1):
            for q in range(d + 1 - p):
                table = {}
                for i, fi in enumerate(self.basis_forms[p]):
                    for j, fj in enumerate(self.basis_forms[q]):
                        coords = self._decompose(wedge(fi, fj), p + q)
                        entries = tuple(
                            (k, c) for k, c in enumerate(coords) if c != 0
                        )
                        if entries:
                            table[(i, j)] = entries
                mult[(p, q)] = table
        integration = [integrate_top(f) for f in self.basis_forms[d]]
        super().__init__(d, bases, mult, integration, name=f"torus(C^{d})")
        self.labels["omega_std"] = self.from_form(std_kahler(d, exact=True))

    def _decompose(self, form, p):
        """Exact coordinates of a real (p,p)-form in the stored basis."""
        slots = self._slots[p]
        coords = [Fraction(0)] * len(self.basis_forms[p])
        ip = i_power(p * p)
        seen = set()
        for (I, J) in form.coeffs:
            key = (I, J) if (I, J) in slots else (J, I)
            if key in seen:
                continue
            seen.add(key)
            cIJ = form.coeffs.get(key, GaussianRational(0))
            cJI = form.coeffs.get((key[1], key[0]), GaussianRational(0))
            sign = -1 if (p * p) % 2 else 1
            # reality: c[J,I] = (-1)^(p^2) conj(c[I,J]); reject anything else
            if sign * conj(cJI) != cIJ:
                raise ConsistencyError(
                    f"form is not real at indices {key}: {cIJ} vs {cJI}"
                )
            z = cIJ * i_power(-(p * p))
            slot = slots[key]
            if slot[0] == "diag":
                if imag_part(z) != 0:
                    raise ConsistencyError(f"diagonal coefficient {z} not real")
                coords[slot[1]] = Fraction(real_part(z))
            else:
                coords[slot[1]] = Fraction(real_part(z))
                coords[slot[2]] = Fraction(imag_part(z))
        return coords

    def _decompose_float(self, form, p):
        """Float coordinates; slightly non-real input is symmetrized away."""
        slots = self._slots[p]
        coords = [0.0] * len(self.basis_forms[p])
        scale = complex(1j) ** (-(p * p) % 4)
        sign = -1.0 if (p * p) % 2 else 1.0
        seen = set()
        for (I, J) in form.coeffs:
            key = (I, J) if (I, J) in slots else (J, I)
            if key in seen:
                continue
            seen.add(key)
            cIJ = complex(form.coeffs.get(key, 0))
            cJI = complex(form.coeffs.get((key[1], key[0]), 0))
            z = 0.5 * (cIJ + sign * cJI.conjugate()) * scale
            slot = slots[key]
            if slot[0] == "diag":
                coords[slot[1]] = z.real
            else:
                coords[slot[1]] = z.real
                coords[slot[2]] = z.imag
        return coords

    def from_form(self, form):
        """Ring element of a real (p,p)-form; float forms give float coordinates."""
        if form.dim != self.dimension or form.p != form.q:
            raise DegreeError(
                f"expected a (p,p)-form on C^{self.dimension}, got {form!r}"
            )
        if form.is_exact():
            coords = self._decompose(form, form.p)
        else:
            coords = self._decompose_float(form, form.p)
        return RingElement(self, form.p, coords)

    def to_form(self, elem):
        acc = PPForm.zero(self.dimension, elem.degree, elem.degree)
        for c, f in zip(elem.coeffs, self.basis_forms[elem.degree]):
            if c != 0:
                acc = acc + f * c
        return acc


@lru_cache(maxsize=None)
def torus_ring(d):
    """Cached torus model for C^d.

    Products are wedges of explicit forms, associative by construction, so
    the ring axioms are not re-proved here; the test suite runs
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
            if not g.is_exact():
                raise ConstructionError(f"generator {gname} has float coordinates")
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
            if hit is None:
                out = {expo: Fraction(1)}
            else:
                lhs, rhs = hit
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
                outcomes = []
                for lhs, rhs in rules:
                    if not divides(lhs, m):
                        continue
                    rest = tuple(e - l for e, l in zip(m, lhs))
                    combo = {}
                    for c, rm in rhs:
                        sub = reduce_full(tuple(r + x for r, x in zip(rest, rm)))
                        for m2, c2 in sub.items():
                            s = combo.get(m2, Fraction(0)) + c * c2
                            if s:
                                combo[m2] = s
                            else:
                                combo.pop(m2, None)
                    outcomes.append(combo)
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


def ring_from_spec(data):
    """Build a relation ring from a parsed ring-spec dict (see fixtures).

    This is where ring data enters from outside the program, so malformed
    fields raise ConfigError and the built ring must pass check_axioms().
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
        zero = Fraction(0) if elem.is_exact() else 0.0
        out = [zero] * len(self.base.basis(tgt))
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
        as_float = not elem.is_exact()
        zero = 0.0 if as_float else Fraction(0)
        x = [zero] * len(self.base.basis(deg))
        y = [zero] * len(self.base.basis(deg - 1)) if deg >= 1 else []
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
