"""Symbolic-numeric toolkit for the 4D space of local fundamental measures.

Exact Laurent-ring arithmetic, the pseudo-metric and its isometric /
metamorphic generator algebra, closed-form one-parameter flows with a series
matrix-exponential oracle, and the hard-sphere weight-function identities.
"""

from .ring import RingElem, FieldElem, ZERO, ONE, parse_ring, format_ring
from .matrices import (
    Mat4,
    METRIC,
    IDENTITY,
    counter_transpose,
    commutator,
    eval_mat,
    bilinear,
    metric_eigenvalues,
)
from .catalog import (
    GeneratorId,
    ISOMETRIC_IDS,
    METAMORPHIC_IDS,
    SHIFT_IDS,
    BASIS_IDS,
    ALL_IDS,
    get_generator,
    resolve_id,
    SymmetryClass,
    symmetry_class,
    SquareClass,
    classify_square,
    homogeneity_order,
    symmetry_space_dimensions,
)
from .algebra import (
    Decomposition,
    NotInSpanError,
    StructureTable,
    decompose,
    build_table,
    verify_reference_tables,
)
from .flows import (
    FlowSpec,
    FlowResult,
    closed_flow,
    printed_flow,
    expm_oracle,
    invariance_residual,
    group_law_residual,
    reference_discrepancies,
    STANDARD_Q_GRID,
    STANDARD_PARAM_GRID,
)
from .fmt import (
    kr_weights,
    step_hat,
    mayer_bond,
    kernel_matrix,
    jeffrey_identities,
    inverse_ft_radial,
    step_profile,
)

__version__ = "0.1.0"
