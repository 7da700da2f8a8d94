"""The argument contract: every public entry raises DomainError, naming the
argument, for a value that is not a number of its kind, is not finite, or
is out of range for a count or an index.

Complex arguments take what complex() takes, real ones an int or a float,
counts and indices an int, and none of them a bool; a point p of the
verifier takes a DomainPoint, and the vertices of a closed path a list or
a tuple; None means the default only where a signature says so.
"""

import math
import re

import pytest

from siegeltheta import (
    DomainError,
    DomainPoint,
    EvalConfig,
    ResidueBreakdown,
    closed_residue_sum,
    edge_limit_residual,
    edge_limit_value,
    format_complex,
    integrate_closed,
    integrate_edge,
    inversion_log_ratio,
    inversion_log_ratio_lambert,
    inversion_rhs,
    lambert_terms,
    log_identity_residual,
    log_theta1_lambert,
    nome,
    pole_distance,
    principal_pow,
    product_terms,
    residue_at_zero,
    residue_by_circle,
    residue_imag_pole,
    residue_kernel,
    residue_real_pole,
    rhombus_contour,
    run_suite,
    sample_domain_points,
    sample_grid,
    sweep_rows,
    theta1,
    theta1_reduced,
    theta1_series,
    theta2,
    theta3,
    theta4,
    transformation_residual,
)

P = DomainPoint(0.5, -0.25, 2.0)
F = lambda w: 1.0 / w  # noqa: E731

_NON_FINITE = [math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(-math.inf, 1.0)]
# the malformed values of each kind, and the message each draws
BAD = {
    "complex": [("x", "a complex number"), (None, "a complex number"),
                (True, "a complex number"), (False, "a complex number")]
               + [(v, "finite") for v in _NON_FINITE + [10**400, -(10**5000)]],
    "real": [(v, "a finite real")
             for v in ("x", None, True, False, math.nan, math.inf, -math.inf, 10**400,
                       -(10**5000))],
    "int": [(v, "a positive integer") for v in (2.5, "3", 0, True, False)],
    "point": [(v, "a DomainPoint") for v in ((0.5, -0.25, 2.0, 1), None, "x")],
    "vertices": [(v, "a list or tuple of points") for v in (None, 3, "abc", iter([1, 1j]))],
}
# None picks the default for these
BAD["optional real"] = [(v, m) for v, m in BAD["real"] if v is not None]

# (entry and argument, kind, the name the message starts with, call)
CASES = [
    ("theta1-z", "complex", "z", lambda v: theta1(v, 1j)),
    ("theta1-tau", "complex", "tau", lambda v: theta1(0.3, v)),
    ("theta2-z", "complex", "z", lambda v: theta2(v, 1j)),
    ("theta2-tau", "complex", "tau", lambda v: theta2(0.3, v)),
    ("theta3-z", "complex", "z", lambda v: theta3(v, 1j)),
    ("theta3-tau", "complex", "tau", lambda v: theta3(0.3, v)),
    ("theta4-z", "complex", "z", lambda v: theta4(v, 1j)),
    ("theta4-tau", "complex", "tau", lambda v: theta4(0.3, v)),
    ("theta1_reduced-z", "complex", "z", lambda v: theta1_reduced(v, 1j)),
    ("theta1_reduced-tau", "complex", "tau", lambda v: theta1_reduced(0.3, v)),
    ("theta1_series-z", "complex", "z", lambda v: theta1_series(v, 1j)),
    ("theta1_series-tau", "complex", "tau", lambda v: theta1_series(0.3, v)),
    ("format_complex-value", "complex", "value", format_complex),
    ("nome-tau", "complex", "tau", nome),
    ("principal_pow-base", "complex", "base", lambda v: principal_pow(v, 0.5)),
    ("principal_pow-exponent", "complex", "exponent", lambda v: principal_pow(2.0, v)),
    ("product_terms-z", "complex", "z", lambda v: product_terms(v, 1j)),
    ("product_terms-tau", "complex", "tau", lambda v: product_terms(0.3, v)),
    ("inversion_rhs-z", "complex", "z", lambda v: inversion_rhs(v, 1j)),
    ("inversion_rhs-tau", "complex", "tau", lambda v: inversion_rhs(0.3, v)),
    ("transformation_residual-z", "complex", "z", lambda v: transformation_residual(v, 1j)),
    ("transformation_residual-tau", "complex", "tau",
     lambda v: transformation_residual(0.3, v)),
    ("integrate_edge-start", "complex", "start", lambda v: integrate_edge(F, v, 1.0)),
    ("integrate_edge-end", "complex", "end", lambda v: integrate_edge(F, 1.0, v)),
    ("residue_by_circle-center", "complex", "center", lambda v: residue_by_circle(F, v, 0.5)),
    ("residue_kernel-zeta", "complex", "zeta", lambda v: residue_kernel(v, P)),
    ("pole_distance-zeta", "complex", "zeta", lambda v: pole_distance(v, P)),
    ("EvalConfig-eps", "real", "eps", lambda v: EvalConfig(eps=v)),
    ("integrate_edge-tol", "real", "tol", lambda v: integrate_edge(F, 1.0, 1j, tol=v)),
    ("integrate_closed-tol", "real", "tol",
     lambda v: integrate_closed(F, rhombus_contour(1.0), tol=v)),
    ("residue_by_circle-radius", "real", "radius", lambda v: residue_by_circle(F, 0.0, v)),
    ("residue_by_circle-tol", "real", "tol", lambda v: residue_by_circle(F, 0.0, 0.5, tol=v)),
    ("rhombus_contour-y", "real", "y", rhombus_contour),
    ("DomainPoint-a", "real", "a", lambda v: DomainPoint(v, -0.25, 2.0)),
    ("DomainPoint-b", "real", "b", lambda v: DomainPoint(0.5, v, 2.0)),
    ("DomainPoint-y", "real", "y", lambda v: DomainPoint(0.5, -0.25, v)),
    ("edge_limit_value-t", "real", "t", lambda v: edge_limit_value("E1", v, P)),
    ("edge_limit_residual-t", "real", "t", lambda v: edge_limit_residual("E2", v, P)),
    ("run_suite-tol", "optional real", "tol", lambda v: run_suite("eq2", tol=v)),
    ("sweep_rows-edge_limit-start", "optional real", "edge_limit start",
     lambda v: sweep_rows("edge_limit", start=v)),
    ("sweep_rows-edge_limit-stop", "optional real", "edge_limit stop",
     lambda v: sweep_rows("edge_limit", stop=v)),
    ("sweep_rows-reduction_gain-start", "optional real", "reduction_gain start",
     lambda v: sweep_rows("reduction_gain", start=v)),
    ("sweep_rows-reduction_gain-stop", "optional real", "reduction_gain stop",
     lambda v: sweep_rows("reduction_gain", stop=v)),
    ("sweep_rows-lambert_tail-start", "optional real", "lambert_tail start",
     lambda v: sweep_rows("lambert_tail", start=v)),
    ("sweep_rows-lambert_tail-stop", "optional real", "lambert_tail stop",
     lambda v: sweep_rows("lambert_tail", stop=v)),
    ("EvalConfig-max_terms", "int", "max_terms", lambda v: EvalConfig(max_terms=v)),
    ("DomainPoint-n", "int", "n", lambda v: DomainPoint(0.5, -0.25, 2.0, v)),
    ("run_suite-count", "int", "count", lambda v: run_suite("eq2", count=v)),
    ("run_suite-n", "int", "n", lambda v: run_suite("lemma3", n=v)),
    ("sample_grid-count", "int", "count", lambda v: sample_grid(v, 0)),
    ("sample_domain_points-count", "int", "count", lambda v: sample_domain_points(v, 0)),
    ("sweep_rows-reduction_gain-steps", "int", "reduction_gain steps",
     lambda v: sweep_rows("reduction_gain", steps=v)),
    ("sweep_rows-lambert_tail-steps", "int", "lambert_tail steps",
     lambda v: sweep_rows("lambert_tail", steps=v)),
    ("integrate_closed-vertices", "vertices", "vertices", lambda v: integrate_closed(F, v)),
]
# every entry that takes a DomainPoint p
CASES += [(f"{call.__qualname__}-p", "point", "p", call) for call in (
    lambert_terms, log_theta1_lambert, inversion_log_ratio, inversion_log_ratio_lambert,
    residue_at_zero, closed_residue_sum, log_identity_residual, ResidueBreakdown.compute)]
CASES += [
    ("pole_distance-p", "point", "p", lambda v: pole_distance(0.3, v)),
    ("residue_kernel-p", "point", "p", lambda v: residue_kernel(0.3, v)),
    ("residue_imag_pole-p", "point", "p", lambda v: residue_imag_pole(1, v)),
    ("residue_real_pole-p", "point", "p", lambda v: residue_real_pole(1, v)),
    ("edge_limit_value-p", "point", "p", lambda v: edge_limit_value("E1", 0.5, v)),
    ("edge_limit_residual-p", "point", "p", lambda v: edge_limit_residual("E2", 0.5, v)),
]


@pytest.mark.parametrize("kind, name, call", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_malformed_argument_raises_domain_error(kind, name, call):
    for value, what in BAD[kind]:
        with pytest.raises(DomainError, match=f"^{re.escape(name)} must be {what}, got "):
            call(value)


@pytest.mark.parametrize("call", [
    theta1, theta2, theta3, theta4, theta1_reduced, theta1_series, inversion_rhs,
    product_terms, transformation_residual], ids=lambda call: call.__name__)
def test_tau_is_checked_before_z(call):
    # both bad: every (z, tau) entry names tau
    with pytest.raises(DomainError, match=r"^tau=\(-0-1j\) is not in the upper half-plane$"):
        call("x", -1j)


@pytest.mark.parametrize("call", [residue_imag_pole, residue_real_pole],
                         ids=["residue_imag_pole", "residue_real_pole"])
def test_pole_index_is_a_nonzero_int(call):
    for k in (0, 1.5, 1.0, "3", None, True, False):
        with pytest.raises(DomainError, match="^k must be a nonzero integer, got "):
            call(k, P)
    assert call(-1, P) != call(1, P)

