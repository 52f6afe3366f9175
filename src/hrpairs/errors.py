"""Typed errors shared across the package."""


class HRPairsError(Exception):
    """Base class for all errors raised by this package."""


class DegreeError(HRPairsError):
    """Graded degrees of the operands do not line up."""


class ConstructionError(HRPairsError):
    """A ring model could not be built from the given data.

    Carries a ``witness`` attribute with whatever detected the problem
    (a monomial that reduces two ways, a basis triple violating
    associativity, ...).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SingularPairingError(HRPairsError):
    """Class division hit a singular multiplication map.

    ``witness`` holds a kernel vector of the map when one is available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConsistencyError(HRPairsError):
    """Two computations that must agree did not: the internal cross-checks of
    hrcheck._pair_verdict and bogomolov._trace_verdict, never input."""


class ConfigError(HRPairsError):
    """Input the program cannot use: malformed specs, CLI expressions and
    options, data off a precondition of the code that reads it (a form that
    is not real: exterior._require_real), or exact values beyond float range
    for a float decision (scalars.float_array).  The CLI exits 2 on it."""
