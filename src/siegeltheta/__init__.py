"""Jacobi theta evaluation with modular-inversion argument reduction and a
numerical verification harness for the theta1 inversion law."""

from .contour import (
    integrate_closed,
    integrate_edge,
    residue_by_circle,
    rhombus_contour,
)
from .errors import ConvergenceError, DomainError, PoleProximityError, SiegelThetaError
from .suites import (
    VerificationReport,
    format_complex,
    run_suite,
    sample_domain_points,
    sample_grid,
    sweep_rows,
)
from .theta import (
    EvalConfig,
    ThetaEval,
    inversion_rhs,
    nome,
    principal_pow,
    product_terms,
    require_tau,
    theta1,
    theta1_reduced,
    theta1_series,
    theta2,
    theta3,
    theta4,
)
from .verifier import (
    EDGES,
    DomainPoint,
    ResidueBreakdown,
    closed_residue_sum,
    edge_endpoints,
    edge_limit_residual,
    edge_limit_target,
    edge_limit_value,
    inversion_log_ratio,
    inversion_log_ratio_lambert,
    lambert_terms,
    log_identity_residual,
    log_theta1_lambert,
    pole_distance,
    residue_at_zero,
    residue_imag_pole,
    residue_kernel,
    residue_real_pole,
    transformation_residual,
)

__version__ = "0.1.0"
