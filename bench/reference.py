"""Fulger-Lehmann reference certificates used by the exact-certify workload.

The pool holds seeded inputs on the intersection ring of P(O + O + O(-1))
over P^1 (generators xi and f, xi^3 = -xi^2*f, f^2 = 0, int xi^2*f = 1)
together with the exact verdict values the program gives for them.  The
benchmark draws from the pool and requires identical values, so any change
to the exact backend that alters a certificate shows up as a failed
operation.

Run ``python3 bench/reference.py`` from the repository root to record the
pool again; only do so when a change of these values is intended.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "fulger_lehmann_reference.json"
POOL_SIZE = 48


def _ample(rnd):
    """A class a*xi + b*f with 1 <= a and b > a, as (a, b)."""
    a = Fraction(rnd.randint(2, 8), 2)
    return a, a + Fraction(rnd.randint(1, 8), 2)


def _expr(*terms):
    """'c1*m1+c2*m2' for (coefficient, monomial) pairs, zero terms dropped."""
    parts = [f"{c}*{m}" for c, m in terms if c != 0]
    return "+".join(parts).replace("+-", "-") or "0"


def pool_inputs(seed=0):
    """Seeded inputs: hr-pair triples and positive-cone triples."""
    rnd = random.Random(f"fulger-lehmann:{seed}")
    hr, cone = [], []
    for _ in range(POOL_SIZE):
        a, b = _ample(rnd)
        s, t = _ample(rnd)
        u, v = _ample(rnd)
        # eta_top = (s*xi + t*f) * (u*xi + v*f), using f^2 = 0
        hr.append({
            "eta_top": _expr((s * u, "xi^2"), (s * v + t * u, "xi*f")),
            "eta_mid": _expr((s, "xi"), (t, "f")),
            "h": _expr((a, "xi"), (b, "f")),
        })
        a, b = _ample(rnd)
        s, t = _ample(rnd)
        beta = (Fraction(rnd.randint(-6, 6), 2), Fraction(rnd.randint(-6, 6), 2))
        cone.append({
            "beta": _expr((beta[0], "xi"), (beta[1], "f")),
            "eta": _expr((s, "xi"), (t, "f")),
            "h": _expr((a, "xi"), (b, "f")),
        })
    return hr, cone


def record():
    sys.path.insert(0, str(HERE.parent / "src"))
    from hrpairs.hrcheck import is_hr_pair, pos_cone_contains
    from hrpairs.ring import parse_element

    from workloads import fulger_lehmann_ring

    model = fulger_lehmann_ring()
    hr, cone = pool_inputs()
    for case in hr:
        top, mid, h = (parse_element(model, case[k]) for k in ("eta_top", "eta_mid", "h"))
        v = is_hr_pair(model, top, mid, h)
        case.update(
            outcome=v.outcome,
            signature=list(v.signature),
            pairing_with_h=str(v.details["pairing_with_h"]),
            quotient_square_value=str(v.details["quotient_square_value"]),
        )
    for case in cone:
        beta, eta, h = (parse_element(model, case[k]) for k in ("beta", "eta", "h"))
        v = pos_cone_contains(model, beta, eta, h)
        case.update(
            outcome=v.outcome,
            pairing_with_h=str(v.details["pairing_with_h"]),
            square=str(v.details["square"]),
        )
    REFERENCE.write_text(json.dumps({
        "description": __doc__.strip().splitlines()[0],
        "hr_pair": hr,
        "pos_cone": cone,
    }, indent=1) + "\n")


if __name__ == "__main__":
    record()
