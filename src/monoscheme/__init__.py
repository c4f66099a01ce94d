"""Finite-difference schemes with built-in smoothing (monotonizing) operators.

The package pairs plain central-difference schemes with auxiliary variants
whose undifferentiated terms act on a locally averaged unknown, so the
delivered solution y = Mv is pre-smoothed without breaking the scheme's
per-cell balance relations. Metrics quantify how much point-to-point
oscillation the smoothing removes.
"""

from .grid import (
    BoundaryData1D,
    Mesh1D,
    Mesh3D,
    MeshFunction,
    norm_c,
    sample,
    with_boundary,
)
from .stencils import (
    BoundaryPolicy3D,
    FaceGhost,
    FaceRule,
    GhostSpec3D,
    MIRROR_ALL,
    SolverError,
    Tridiagonal,
    divergence_3d,
    first_derivative_1d,
    gradient_3d,
    laplacian_3d,
    operator_norm_c,
    second_derivative_1d,
    smooth_1d,
    smooth_3d,
    solve_smooth_1d,
    solve_smooth_3d,
)
from .metrics import (
    DampingCheck,
    MonotonicityReport,
    check_damping_bound,
    count_extrema_3d,
    damping_bound_interval,
    max_step_change,
    oscillates_point_to_point,
    sharpness_metrics,
)
from .bvp1d import (
    SchemeCoefficients,
    analytic_solution,
    convergence_order,
    determinant_scan,
    solve_base,
    solve_monotonized,
    solve_monotonized_inverse,
)
from .ns3d import (
    FlowConfig,
    FlowField,
    SolutionReport,
    centerline_profile,
    init_field,
    iterate,
    momentum_residual,
    solve_steady,
)
from .timestep import (
    LinearMeshOperator,
    TimeStepConfig,
    run_to_steady,
    step_monotonized,
    step_monotonized_alt,
)

__version__ = "0.1.0"
