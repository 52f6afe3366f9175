"""Verdict record shared by the positivity and Hodge-Riemann checks."""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import GaussianRational

PASS = "pass"
FAIL = "fail"
DEGENERATE = "degenerate"


_PLAIN = (int, float, str, bool, type(None))


def jsonable(x):
    """Recursively convert Fractions / Gaussian rationals / tuples for json.dumps."""
    if type(x) in _PLAIN:  # returned as they are, before the slow ABC check for Fraction
        return x
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    if isinstance(x, GaussianRational):
        return {"re": jsonable(x.re), "im": jsonable(x.im)}
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if hasattr(x, "tolist"):  # numpy scalars and arrays
        return jsonable(x.tolist())
    return x


@dataclass
class Verdict:
    """Outcome of a single check.

    outcome      -- "pass", "fail" or "degenerate"
    signature    -- inertia triple (positive, zero, negative) when one was computed
    eigenvalues  -- float eigenvalue evidence (approximate in the exact backend,
                    where the outcome itself is decided without tolerances)
    witness      -- whatever certifies or refutes the claim (kernel vectors,
                    violated conditions, reproduction data)
    tolerances   -- the numeric thresholds that were in force
    details      -- free-form extras (per-condition results, cross-checks)
    """

    outcome: str
    signature: tuple = None
    eigenvalues: list = None
    witness: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.outcome == PASS

    def to_dict(self):
        return {
            "outcome": self.outcome,
            "signature": jsonable(self.signature),
            "eigenvalues": jsonable(self.eigenvalues),
            "witness": jsonable(self.witness),
            "tolerances": jsonable(self.tolerances),
            "details": jsonable(self.details),
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)
