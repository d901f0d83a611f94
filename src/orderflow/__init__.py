"""Desk-scale toolkit for order configurations: sign configurations on
injective tuples, the finitely supported permutation action, linear and
circular orders, order-type block codes, minimality and proximality
witnesses, and exact versus empirical pattern statistics."""

from .codes import (
    BlockCode,
    apply_code,
    code_from_name,
    moment_curve_orientation,
    realize,
    sign_code,
)
from .core import (
    DEFAULT_MAX_ARITY,
    FinPerm,
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
)
from .errors import (
    ArityMismatch,
    DegenerateInput,
    DomainEscape,
    FormatError,
    GroundTooSmall,
    OrderflowError,
    OutOfWindow,
    WindowTooSmall,
)
from .orders import (
    LinearOrder,
    all_linear_orders,
    cyclic_shift,
    order_from_text,
    order_to_text,
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
    minimality_witness,
    proximality_witness,
    verify_minimality,
    verify_proximality,
    witness_from_text,
    witness_to_text,
)
from .stats import (
    PatternStat,
    cylinder_measure,
    derive_seed,
    histogram_to_dicts,
    pattern_counts,
    random_linear_order,
    stat_from_dict,
)

__version__ = "0.1.0"
