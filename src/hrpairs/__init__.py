"""Schur/Chern/Segre calculus and Hodge-Riemann pair checks on finite ring models."""

from .bogomolov import (
    CurvatureMatrix,
    HiggsField,
    SheafClassData,
    bogomolov_value,
    constraint_project,
    discriminant,
    extension_class,
    extension_identity,
    higgs_curvature_term,
    slope,
    trace_check,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    ConstructionError,
    DegreeError,
    HRPairsError,
    SingularPairingError,
)
from .exterior import (
    PPForm,
    form_from_dict,
    form_from_hermitian,
    form_from_json,
    form_to_dict,
    form_to_json,
    hermitian_from_form,
    integrate_top,
    positivity_dminus1,
    restrict_to_plane,
    std_kahler,
    wedge,
    wedge_all,
)
from .hrcheck import (
    divide,
    gram,
    has_hr_property,
    is_hr_pair,
    pointwise_hr_pair,
    pos_cone_contains,
    random_kahler,
    sample_search,
    signature,
)
from .ring import (
    RingElement,
    RingModel,
    load_ring_spec,
    parse_element,
    polynomial_ring,
    product_with_p1,
    proj_bundle_ring,
    relation_ring,
    ring_from_spec,
    subring,
    torus_ring,
)
from .symfunc import (
    ChernVector,
    Partition,
    RingTPoly,
    SymPoly,
    complete_homogeneous,
    derived,
    elementary,
    evaluate,
    evaluate_at_chern,
    invert_total_class,
    schur,
    segre_from_chern,
    shift,
    twist_chern,
)
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
