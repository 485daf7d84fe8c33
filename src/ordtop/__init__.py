"""Computational order topology: finite preordered spaces, exactly; their
non-compact catalog cousins, numerically, via function-family
compactifications in [0,1]^(H u C).
"""

from .catalog import (
    CATALOG_NAMES,
    CatalogEntry,
    FunctionFamily,
    SampledSpace,
    SampleSet,
    ScalarFunction,
    arc_bound_function,
    catalog,
    evaluate_family,
    sample_values,
    validate_family,
)
from .compactify import (
    Compactification,
    DominationError,
    DominationMap,
    DominationSearch,
    ExtendabilityResult,
    attempt_domination,
    build_compactification,
    close_and_cluster,
    dominate,
    extendability,
    i_closure,
    nachbin_pipeline,
    remainder_is_ordered,
    smallest_closed_preorder_diagnostic,
    verify_preorder_embedding,
)
from .export import (
    canonical_json,
    report_payload,
    transitive_reduction,
    write_build,
    write_preorder_dot,
    write_vertices_csv,
)
from .finite_space import (
    BudgetError,
    FinitePreorderedSpace,
    FiniteTopology,
    SpaceFormatError,
    clopen_increasing_sets,
    clopen_representation_check,
    enumerate_isotone_functions,
    graph_is_closed,
    is_T1_preordered,
    load_space,
    minimal_neighborhood,
    monotone_separation,
    quotient_space,
    representation_check,
    set_closure,
    smallest_closed_preorder,
)
from .preorder import (
    PreorderGraph,
    function_preorder,
    is_antisymmetric,
    is_transitive,
    quotient_preorder,
    symmetric_part,
    transitive_reflexive_closure,
)
from .report import Check, CheckReport, merge_reports

__all__ = [name for name in dir() if not name.startswith("_")]
