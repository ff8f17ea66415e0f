"""Numerical determinant-line gerbe calculator on finite unitary groups."""

from .errors import (
    AmbiguousClusterError,
    BoundaryError,
    DimensionError,
    EmptySpaceError,
    EvaluationError,
    GapError,
    GerbeError,
    IllConditionedCutError,
    IncomparableError,
    QuadratureError,
    RegularityError,
    SamplingError,
    SchemaError,
    StepTooLargeError,
)
from .linalg import (
    SpectralDecomposition,
    TangentVector,
    UnitaryMatrix,
    embed_block,
    embed_tangent,
    matrix_from_json,
    matrix_to_json,
    random_unitary,
    spectral_decompose,
    tangent_random,
    unitary_check,
)
from .contour import (
    Contour,
    CutCirclePoint,
    circle_gt,
    cut_point,
    quad_integrate,
    spectrum_contour,
)
from .projectors import (
    ArcContext,
    Classification,
    arc_projector,
    classify,
    projector_derivative,
    single_projector_derivative,
)
from .fibers import (
    DetLineElement,
    associativity_check,
    canonical_scalar,
    random_element,
    conjugate_fiber,
    dual_pairing,
    fiber_element,
    gerbe_product,
    same_element,
    section_value,
    swap_transport,
    weyl_line_map,
)
from .forms import (
    basic_three_form,
    connection_holonomy,
    curvature_via_contour,
    curvature_via_projectors,
    curving_eval,
    delta_pairs,
    exterior_derivative_fd,
    projector_inserted_curvature,
    three_curvature,
)
from .weyl import (
    FlagTangent,
    FlagTorusPoint,
    mc_pullback,
    preimage_count,
    pullback_curving_closed,
    pullback_df_closed,
    pullback_nu_closed,
    random_flag_tangent,
    sample_regular,
    weyl_apply,
    weyl_tangent,
)

__version__ = "0.1.0"
