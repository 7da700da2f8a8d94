"""Jacobi theta evaluation with modular-inversion argument reduction and a
numerical verification harness for the theta1 inversion law.

The names below are imported from their submodules on first access (PEP 562),
so ``siegeltheta eval`` loads only ``theta`` and not the verification harness.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("integrate_closed", "integrate_edge", "residue_by_circle", "residue_pair_by_circle",
         "rhombus_contour"),
        "contour",
    ),
    **dict.fromkeys(
        ("ConvergenceError", "DomainError", "PoleProximityError", "SiegelThetaError"),
        "errors",
    ),
    **dict.fromkeys(
        ("run_suite", "sample_domain_points", "sample_grid", "sweep_rows"), "suites"
    ),
    **dict.fromkeys(
        (
            "EvalConfig",
            "ThetaEval",
            "format_complex",
            "inversion_rhs",
            "product_terms",
            "theta1",
            "theta1_reduced",
            "theta1_series",
            "theta2",
            "theta3",
            "theta4",
        ),
        "theta",
    ),
    **dict.fromkeys(
        (
            "EDGES",
            "DomainPoint",
            "ResidueBreakdown",
            "closed_residue_sum",
            "edge_limit_residual",
            "edge_limit_target",
            "edge_limit_value",
            "inversion_log_ratio",
            "inversion_log_ratio_lambert",
            "lambert_terms",
            "log_identity_residual",
            "log_theta1_lambert",
            "pole_distance",
            "residue_at_zero",
            "residue_imag_pole",
            "residue_kernel",
            "residue_kernel_pair",
            "residue_real_pole",
            "transformation_residual",
        ),
        "verifier",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
