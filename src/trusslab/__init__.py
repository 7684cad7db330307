"""trusslab: finite skew trusses, ditrusses, weak trusses and interchange
near-rings on small groups: construction, verification, transforms,
decomposition and exhaustive classification up to isomorphism."""

from .catalog import builtin_group, builtin_names, resolve_group
from .errors import TrussLabError
from .groups import (
    Decomposition,
    EndoMap,
    FiniteGroup,
    automorphisms,
    center,
    compose_commute,
    decomposition_from_idempotent,
    enumerate_endomorphisms,
    group_from_json,
    image_commuting,
    is_idempotent_map,
    normal_subgroups,
    validate_group,
)
from .ops import (
    BinOpTable,
    LawReport,
    binop,
    depends_only_on_first,
    depends_only_on_second,
    is_associative,
    is_left_distributive,
    is_left_skew_sigma_distributive,
    is_left_weak_sigma_associative,
    is_right_distributive,
    is_right_skew_sigma_distributive,
    make_projection_ops,
    make_sigma_pi1,
    make_tau_pi2,
    make_zero_op,
    op_add,
    op_left_difference,
    op_neg,
    op_opposite,
    op_sub,
    satisfies_interchange,
)
from .structures import (
    DITRUSS,
    INTERCHANGE,
    SKEW_TRUSS,
    WEAK_TRUSS,
    AlgebraObject,
    build_conjugation_ditruss,
    check,
    ditruss_consequence_report,
    lambda_family,
    make_algebra,
    make_ditruss,
    make_interchange,
    make_skew_truss,
    make_weak_truss,
    sigma_from_circ,
    skew_truss_consequence_report,
    structure_from_json,
    structure_to_json,
    verify,
)
from .substructure import (
    congruence_from_ideal,
    congruences,
    ideal_from_congruence,
    ideals,
    is_ideal,
    is_zero_symmetric,
    quotient,
    zero_symmetric_constant_decomposition,
)
from .transforms import (
    TransformRecord,
    carrier_bijections,
    convert,
    ditruss_involution,
    ditruss_to_interchange,
    interchange_opposite,
    interchange_to_ditruss,
    is_skew_truss_morphism,
    is_weak_truss_morphism,
    truss_to_weak,
    weak_to_truss,
)
from .enumeration import (
    ClassificationResult,
    are_isomorphic,
    canonical_form,
    enumerate_constant_lambda_ditrusses,
    enumerate_interchange,
    enumerate_skew_trusses,
    enumerate_weak_trusses,
    relabel_structure,
)
from .oracles import raw_interchange_search, raw_skew_truss_search, raw_weak_truss_search

__version__ = "0.1.0"
