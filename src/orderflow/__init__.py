"""Desk-scale toolkit for order configurations: sign configurations on
injective tuples, the finitely supported permutation action, linear and
circular orders, order-type block codes, Ramsey-extracted witnesses, and
exact versus empirical pattern statistics."""

from .codes import (
    BlockCode,
    apply_code,
    circular_code,
    code_from_text,
    code_to_text,
    is_alternating_code,
    moment_curve_orientation,
    sign_code,
)
from .core import (
    DEFAULT_MAX_ARITY,
    FinPerm,
    InjTuple,
    KConfig,
    Window,
    apply_perm,
    compose,
    config_from_text,
    config_to_text,
    extend_bijection,
    inverse,
    is_alternating,
    negate,
    perm_from_text,
    perm_to_text,
    restrict,
    tuple_rank,
)
from .errors import (
    ArityMismatch,
    DegenerateInput,
    DegenerateWindow,
    DomainEscape,
    FormatError,
    GroundTooSmall,
    NotALinearOrder,
    OrderflowError,
    OutOfWindow,
    WindowTooSmall,
)
from .orders import (
    LinearOrder,
    OrderType,
    all_linear_orders,
    all_order_types,
    compose_types,
    config2_is_linear_order,
    config2_to_order,
    cyclic_shift,
    is_circular_realizable,
    lin_order_to_config2,
    order_from_text,
    order_to_text,
    order_type,
    relabel,
    reversal_class_rep,
    reverse,
)
from .ramsey import (
    MINIMALITY,
    PROXIMALITY_AGREE,
    PROXIMALITY_REVERSE,
    PairColoring,
    Witness,
    is_monochromatic,
    minimality_witness,
    proximality_witness,
    ramsey_mono_subset,
    verify_minimality,
    verify_proximality,
    witness_from_text,
    witness_to_text,
)
from .stats import (
    PatternStat,
    cylinder_measure,
    derive_seed,
    orbit_average,
    orbit_average_all,
    random_linear_order,
    stat_from_dict,
    stat_to_dict,
)

__version__ = "0.1.0"
