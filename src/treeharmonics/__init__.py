"""Weighted rooted trees, boundary measures, harmonic functions, and
finite-horizon universality certification."""

from .boundary import (
    LevelFunction,
    TupleLevelFunction,
    level_add,
    level_scale,
    level_sub,
    level_values,
    mismatch_indicator,
    mismatch_measure,
    p_metric,
    refine,
    tuple_p_metric,
    tuple_p_metric_by_components,
)
from .density import (
    DensityProfile,
    empirical_lower_density,
    empirical_upper_density,
    profile,
)
from .errors import (
    DimensionMismatchError,
    InfeasibleScheduleError,
    InvariantError,
    TreeHarmonicsError,
    ValidationError,
)
from .harmonic import (
    HarmonicFunction,
    HarmonicTuple,
    RhoResult,
    add_functions,
    aggregate_from_level,
    aggregate_upward,
    check_harmonic,
    constant_function,
    enumerate_harmonics,
    extend_constant,
    function_from_level_values,
    hit_levels,
    level_profile,
    linear_combination,
    pointwise_metric,
    restrict_to_level,
    restrict_tuple,
    subtract_functions,
    truncate_and_extend,
    zero_function,
)
from .scalars import Scalar
from .trees import (
    ExplicitTree,
    Tree,
    TreeSpec,
    UniformTree,
    VertexId,
    build_tree,
    level_measures,
    min_child_probability,
    sector_measure,
    tree_from_doc,
    tree_to_doc,
)
from .universality import (
    HitReport,
    Schedule,
    ScheduleBlock,
    Target,
    Witness,
    build_ufm_witness,
    build_x_witness,
    certify_hits,
    dense_family,
    double_genericity_check,
    enumerate_targets,
    hit_set,
    one_level_approximation,
    refine_mismatch,
    span_inclusion_check,
)
from .values import (
    TupleValue,
    Value,
    base_metric,
    bounded_metric,
    centered_grid,
    dense_grid,
    tuple_metric,
)

__version__ = "0.1.0"
