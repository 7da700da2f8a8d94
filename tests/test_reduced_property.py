"""theta1_reduced near the real axis against an independent reference.

The oracle is perfbench/reference.py: the tau-form sine series of theta1
summed in mpmath until two precisions agree to 30 digits, valid for every
Re tau (mpmath.jtheta takes the nome and is right only for -1 < Re tau <= 1).
Each call either answers within 1e-9 of it, relatively, or raises one of
the documented errors; no answer is NaN.
"""

import math

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("mpmath")
reference = pytest.importorskip("perfbench.reference")

from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from siegeltheta import ConvergenceError, DomainError, theta1_reduced  # noqa: E402

REL_TOL = 1e-9


@seed(20261018)
@settings(max_examples=80, deadline=None, database=None)
@given(
    re_z=st.floats(-2.0, 2.0),
    im_z=st.floats(-1.0, 1.0),
    re_tau=st.floats(-2.0, 2.0),
    log_im_tau=st.floats(-8.0, 0.0),
)
def test_reduced_near_the_axis_matches_the_reference(re_z, im_z, re_tau, log_im_tau):
    z, tau = complex(re_z, im_z), complex(re_tau, 10.0**log_im_tau)
    try:
        got = theta1_reduced(z, tau).value
    except (DomainError, ConvergenceError, OverflowError):
        return
    assert not (math.isnan(got.real) or math.isnan(got.imag))
    want = reference.theta_reference("theta1", z, tau)
    if want.in_range:
        assert abs(got - want.value) <= REL_TOL * abs(want.value), (z, tau, got, want.value)
