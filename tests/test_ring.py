"""Finite intersection-ring models: torus, subring, relation, bundle."""

import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from hrpairs.errors import (
    ConfigError,
    ConsistencyError,
    ConstructionError,
    DegreeError,
)
from hrpairs.exterior import PPForm, form_from_dict, std_kahler, wedge
from hrpairs.ring import (
    RingModel,
    RingTPoly,
    parse_element,
    polynomial_ring,
    product_with_p1,
    proj_bundle_ring,
    relation_ring,
    ring_from_spec,
    subring,
    torus_ring,
)
from hrpairs.scalars import GaussianRational, conj as gauss_conj, i_power


def fixture(name):
    text = resources.files("hrpairs").joinpath(f"fixtures/{name}").read_text()
    return json.loads(text)


# -- torus models ----------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_torus_graded_dimensions(d):
    model = torus_ring(d)
    for p in range(d + 1):
        assert len(model.basis(p)) == math.comb(d, p) ** 2


def test_torus_volume_of_standard_kahler():
    for d in (2, 3):
        omega = torus_ring(d).label("omega_std")
        assert (omega ** d).integrate() == math.factorial(d)


def random_real_form(rng, d, p):
    """Random exact real (p,p)-form built straight from the reality condition."""
    import itertools

    subsets = list(itertools.combinations(range(d), p))
    coeffs = {}
    sign = (-1) ** (p * p)
    for a, I in enumerate(subsets):
        c = GaussianRational(int(rng.integers(-4, 5)))
        if c != 0:
            coeffs[(I, I)] = c * i_power(p * p)
        for J in subsets[a + 1:]:
            z = GaussianRational(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            if z != 0:
                coeffs[(I, J)] = z
                coeffs[(J, I)] = GaussianRational(sign) * gauss_conj(z)
    return PPForm(d, p, p, coeffs)


def test_torus_form_round_trip():
    rng = np.random.default_rng(2)
    model = torus_ring(3)
    for p in range(4):
        for _ in range(5):
            f = random_real_form(rng, 3, p)
            assert model.to_form(model.from_form(f)) == f


def test_torus_multiplication_is_wedge():
    rng = np.random.default_rng(3)
    model = torus_ring(3)
    for _ in range(8):
        x = model.from_form(random_real_form(rng, 3, 1))
        y = model.from_form(random_real_form(rng, 3, 1))
        assert model.to_form(x * y) == wedge(model.to_form(x), model.to_form(y))


def test_torus_rejects_non_real_forms():
    model = torus_ring(2)
    lopsided = PPForm(2, 1, 1, {((0,), (1,)): GaussianRational(1)})
    with pytest.raises(ConsistencyError):
        model.from_form(lopsided)


def test_torus_float_forms_get_float_coordinates():
    model = torus_ring(2)
    elem = model.from_form(std_kahler(2, exact=False))
    assert not elem.is_exact()
    exact = model.label("omega_std")
    assert max(abs(a - float(b)) for a, b in zip(elem.coeffs, exact.coeffs)) == 0


def test_torus_degree_one_pairing_matrix():
    got = torus_ring(2).pairing_matrix(1)
    assert got == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, -2, 0],
        [0, 0, 0, -2],
    ]


# -- subrings --------------------------------------------------------------


def delv_generators():
    data = fixture("delv.json")
    amb = torus_ring(4)
    return amb, {
        name: amb.from_form(form_from_dict(d))
        for name, d in data["forms"].items()
    }


def test_delv_subring_shape():
    amb, gens = delv_generators()
    model = subring(amb, gens, name="delv")
    dims = [len(model.basis(p)) for p in range(5)]
    assert dims[0] == 1 and dims[1] == 3 and dims[4] == 1
    assert model.label("theta1") is not None


def test_subring_lift_is_a_ring_map():
    amb, gens = delv_generators()
    model = subring(amb, gens)
    t1, t2, lam = (model.label(n) for n in ("theta1", "theta2", "lambda"))
    x = t1 + 2 * lam
    y = t2 - lam
    assert model.lift(x * y) == model.lift(x) * model.lift(y)
    assert (x * y * x * y).integrate() == model.lift(x * y * x * y).integrate()


def test_subring_known_delv_products():
    amb, gens = delv_generators()
    model = subring(amb, gens)
    t1, t2, lam = (model.label(n) for n in ("theta1", "theta2", "lambda"))
    assert (t1 * t2 * t1 * t2).integrate() == 4
    assert (t1 ** 3).is_zero()  # theta1 lives on a 2-dimensional factor
    assert (t2 ** 3).is_zero()
    assert (lam ** 4).integrate() == 24  # lambda is a Kahler form in disguise


def test_subring_rejects_higher_degree_generators():
    amb = torus_ring(2)
    omega = amb.label("omega_std")
    with pytest.raises(ConstructionError):
        subring(amb, {"w2": omega * omega})


# -- relation rings --------------------------------------------------------


def fulger_lehmann():
    return relation_ring(
        3,
        [("xi", 1), ("f", 1)],
        [((0, 2), []), ((3, 0), [(-1, (2, 1))])],
        integration=[((2, 1), 1)],
        name="fulger-lehmann",
    )


def test_fulger_lehmann_intersection_numbers():
    model = fulger_lehmann()
    xi, f = model.label("xi"), model.label("f")
    assert (xi ** 2 * f).integrate() == 1
    assert (xi ** 3).integrate() == -1
    assert (xi * f * f).is_zero()
    assert ((xi + f) ** 3).integrate() == 2


def test_fixture_spec_matches_handmade_ring():
    model = ring_from_spec(fixture("fulger_lehmann.json"))
    xi, f = model.label("xi"), model.label("f")
    assert (xi ** 3).integrate() == -1
    assert ((xi + f) ** 3).integrate() == 2


def test_relation_ring_detects_rewrite_cycles():
    with pytest.raises(ConstructionError, match="loop forever"):
        relation_ring(
            2,
            [("x", 1), ("y", 1)],
            [((1, 1), [(1, (0, 2))]), ((0, 2), [(1, (1, 1))])],
        )


def test_relation_ring_detects_non_confluence():
    # x^2 -> y^2 and xy -> 0 disagree on the overlap monomial x^2 y
    with pytest.raises(ConstructionError, match="reduces two ways"):
        relation_ring(
            3,
            [("x", 1), ("y", 1)],
            [((2, 0), [(1, (0, 2))]), ((1, 1), [])],
        )


def test_relation_ring_rejects_degree_zero_lhs():
    with pytest.raises(ConstructionError, match="positive degree"):
        relation_ring(2, [("x", 1)], [((0,), [(1, (1,))])])


def test_relation_ring_rejects_inhomogeneous_rules():
    with pytest.raises(ConstructionError):
        relation_ring(3, [("x", 1)], [((2,), [(1, (3,))])])


def test_generator_degree_bounds():
    with pytest.raises(ConstructionError):
        relation_ring(2, [("x", 0)], [])
    with pytest.raises(ConstructionError):
        relation_ring(2, [("x", 3)], [])
    with pytest.raises(ConstructionError):
        relation_ring(2, [("x", 1), ("x", 1)], [])


def test_polynomial_ring_truncates_above_dimension():
    model = polynomial_ring(3, [("h", 1)])
    h = model.label("h")
    assert not (h ** 3).is_zero()
    assert (h ** 4).is_zero()


def test_integration_monomial_must_hit_the_basis():
    with pytest.raises(ConstructionError, match="single basis monomial"):
        relation_ring(2, [("x", 1)], [((2,), [])], integration=[((2,), 1)])


# -- element expressions ---------------------------------------------------


def test_parse_element_expressions():
    model = fulger_lehmann()
    elem = parse_element(model, "xi^2*f - 2*xi^3")
    assert elem.integrate() == 3  # xi^3 = -xi^2 f
    assert parse_element(model, "1/2*xi + 1/2*xi") == model.label("xi")
    assert parse_element(model, "3") == 3 * model.one()


def test_parse_element_error_paths():
    model = fulger_lehmann()
    with pytest.raises(ConfigError, match="unknown name"):
        parse_element(model, "xi + zeta")
    with pytest.raises(ConfigError):
        parse_element(model, "")
    with pytest.raises(ConfigError, match="bad power"):
        parse_element(model, "xi^z")
    with pytest.raises(ConfigError, match="zero denominator"):
        parse_element(model, "1/0*xi")


def test_ring_from_spec_rejects_malformed_input():
    gens = [{"name": "x", "degree": 1}]

    def spec(**fields):
        return {"dimension": 2, "generators": gens, **fields}

    malformed = [
        {"generators": gens},
        {"dimension": -1, "generators": []},
        spec(relations=[{"monomial": "x^2"}]),
        spec(relations=[{"value": 0}]),
        spec(relations=[{"monomial": 2, "value": 0}]),
        spec(relations=[{"monomial": "x^y", "value": 0}]),
        spec(relations=[{"monomial": "x^2",
                         "rewrite": [{"coeff": "abc", "monomial": "1"}]}]),
        spec(relations=[{"monomial": "x^2",
                         "rewrite": [{"coeff": "1/0", "monomial": "1"}]}]),
        spec(labels={"h": "x^y"}),
        spec(labels={"h": 5}),
        spec(labels=["x"]),
    ]
    for data in malformed:
        with pytest.raises(ConfigError):
            ring_from_spec(data)


# -- ring axioms -----------------------------------------------------------


def bundle_over_chern_base(d, e):
    """The projective bundle of acceptance check 09 for (dim, rank) = (d, e)."""
    bdim = d - 1
    gens = [(f"c{k}", k) for k in range(1, min(e, bdim) + 1)]
    base = polynomial_ring(bdim, gens + [("h", 1)])
    chern = [base.one()] + [
        base.label(f"c{k}") if k <= bdim else base.zero(k) for k in range(1, e + 1)
    ]
    return proj_bundle_ring(base, chern, e)


# The ring shapes the program and its acceptance checks build; of these only
# the spec ring is checked at run time, inside ring_from_spec.
PROGRAM_BUILT_MODELS = {
    **{f"torus-{d}": (lambda d=d: torus_ring(d)) for d in (1, 2, 3, 4)},
    "delv-subring": lambda: subring(*delv_generators(), name="delv"),
    "fulger-lehmann": fulger_lehmann,
    "fulger-lehmann-spec": lambda: ring_from_spec(fixture("fulger_lehmann.json")),
    "chern-base-x-p1": lambda: product_with_p1(
        polynomial_ring(3, [("c1", 1), ("c2", 2), ("c3", 3)])),
    **{f"bundle-d{d}-e{e}": (lambda d=d, e=e: bundle_over_chern_base(d, e))
       for d in (2, 3) for e in (1, 2, 3, 4)},
}


@pytest.mark.parametrize("build", PROGRAM_BUILT_MODELS.values(),
                         ids=PROGRAM_BUILT_MODELS.keys())
def test_program_built_models_satisfy_ring_axioms(build):
    build().check_axioms()


def hand_built_ring(bases, products):
    """RingModel from basis labels and products of non-unit basis classes.

    products maps a pair of labels to the label of their product; pairs left
    out multiply to zero, and products with the unit are filled in.
    """
    where = {lab: (p, i) for p, labs in enumerate(bases) for i, lab in enumerate(labs)}
    d = len(bases) - 1
    mult = {(p, q): {} for p in range(d + 1) for q in range(d + 1 - p)}
    for p, i in where.values():
        mult[(0, p)][(0, i)] = ((i, 1),)
        mult[(p, 0)][(i, 0)] = ((i, 1),)
    for (a, b), c in products.items():
        (p, i), (q, j), (_, k) = where[a], where[b], where[c]
        mult[(p, q)][(i, j)] = ((k, 1),)
    return RingModel(d, bases, mult)


def test_check_axioms_rejects_non_commutative_table():
    model = hand_built_ring([["1"], ["a", "b"], ["ab", "ba"]],
                            {("a", "b"): "ab", ("b", "a"): "ba"})
    with pytest.raises(ConstructionError, match="not commutative") as info:
        model.check_axioms()
    assert info.value.witness == {"p": 1, "q": 1, "i": 0, "j": 1}


def test_check_axioms_rejects_non_associative_table():
    # commutative, but (a*a)*b = 0 while a*(a*b) = a*ab = t
    model = hand_built_ring(
        [["1"], ["a", "b"], ["ab"], ["t"]],
        {("a", "b"): "ab", ("b", "a"): "ab", ("a", "ab"): "t", ("ab", "a"): "t"},
    )
    with pytest.raises(ConstructionError, match="not associative") as info:
        model.check_axioms()
    assert info.value.witness == {"degrees": (1, 1, 1), "basis": ("a", "a", "b")}


def test_ring_from_spec_runs_the_axiom_check(monkeypatch):
    def refuse(model):
        raise ConstructionError("axioms refused")

    monkeypatch.setattr(RingModel, "check_axioms", refuse)
    with pytest.raises(ConstructionError, match="axioms refused"):
        ring_from_spec(fixture("fulger_lehmann.json"))


# -- projective bundles ----------------------------------------------------


def point_ring():
    return relation_ring(0, [], [], integration=[((), 1)], name="point")


def test_projective_space_as_bundle_over_a_point():
    base = point_ring()
    for e in (2, 3, 4):
        chern = [base.one()] + [base.zero(k) for k in range(1, e + 1)]
        pb = proj_bundle_ring(base, chern, e)
        xi = pb.xi
        assert (xi ** (e - 1)).integrate() == 1
        assert (xi ** e).is_zero()  # trivial bundle: all Segre classes vanish


def test_grothendieck_relation_rewrites_xi_power():
    base = polynomial_ring(2, [("c1", 1), ("c2", 2)])
    chern = [base.one(), base.label("c1"), base.label("c2")]
    pb = proj_bundle_ring(base, chern, 2)
    xi, c1, c2 = pb.xi, pb.pullback(base.label("c1")), pb.pullback(base.label("c2"))
    assert xi * xi == c1 * xi - c2
    assert pb.pushforward(xi * xi) == base.label("c1")


def test_pushforward_gives_segre_classes():
    base = polynomial_ring(2, [("c1", 1), ("c2", 2)])
    chern = [base.one(), base.label("c1"), base.label("c2")]
    pb = proj_bundle_ring(base, chern, 2)
    c1, c2 = base.label("c1"), base.label("c2")
    assert pb.pushforward(pb.xi) == base.one()
    assert pb.pushforward(pb.xi ** 2) == c1
    assert pb.pushforward(pb.xi ** 3) == c1 * c1 - c2


def test_rank_one_bundle_collapses_to_base():
    """P(A) of a line bundle: xi is c1(A) and pushforward is the identity."""
    base = polynomial_ring(2, [("a", 1)])
    a = base.label("a")
    pb = proj_bundle_ring(base, [base.one(), a], 1)
    assert pb.dimension == base.dimension
    assert pb.xi == pb.pullback(a)
    assert pb.pushforward(pb.pullback(a * a)) == a * a


def test_pushforward_projection_formula():
    base = polynomial_ring(2, [("c1", 1), ("c2", 2)])
    chern = [base.one(), base.label("c1"), base.label("c2"), base.zero(3)]
    pb = proj_bundle_ring(base, chern, 3)
    x = base.label("c1")
    assert pb.pushforward(pb.pullback(x) * pb.xi ** 2) == x
    assert pb.pushforward(pb.pullback(x)).is_zero()


def test_product_with_p1_relations():
    base = fulger_lehmann()
    prod = product_with_p1(base)
    tau = prod.tau
    assert (tau * tau).is_zero()
    xi = base.label("xi")
    x = xi ** 2 * base.label("f")
    assert (prod.pullback(x) * tau).integrate() == x.integrate()
    lifted = prod.pullback(xi) + tau * prod.pullback(base.one())
    a, b = prod.split(lifted)
    assert a == xi and b == base.one()


# -- formal parameter polynomials ------------------------------------------


def test_ring_tpoly_binomial_expansion():
    model = fulger_lehmann()
    xi = model.label("xi")
    t = RingTPoly.variable(model.one())
    cube = (t * xi + model.one()) ** 3
    assert cube[0] == model.one()
    assert cube[1] == 3 * xi
    assert cube[2] == 3 * xi ** 2
    assert cube[3] == xi ** 3
    assert cube.degree() == 3


def test_ring_tpoly_mixed_arithmetic():
    model = fulger_lehmann()
    xi, f = model.label("xi"), model.label("f")
    t = RingTPoly.variable(model.one())
    p = xi + t * f  # RingElement + RingTPoly must lift
    assert isinstance(p, RingTPoly)
    assert p[0] == xi and p[1] == f
    q = Fraction(1, 2) * p + Fraction(1, 2) * p
    assert q == p


def test_elements_refuse_cross_model_arithmetic():
    a = fulger_lehmann()
    b = fulger_lehmann()
    with pytest.raises(DegreeError):
        a.label("xi") + a.label("xi") ** 2  # degree mismatch
    with pytest.raises(DegreeError, match="different ring models"):
        a.label("xi") + b.label("xi")
