"""theta1_reduced and theta2 near the real axis, and the plain theta1
product that the proof replay checks the inversion law on, against an
independent reference.

The oracle is perfbench/reference.py: the tau-form sine series of theta1
summed in mpmath until two precisions agree to 30 digits, valid for every
Re tau (mpmath.jtheta takes the nome and is right only for -1 < Re tau <= 1).
Each call either answers within 1e-9 of it, relatively, or raises one of
the documented errors; no answer is NaN.  An OverflowError must name the
side of the binary64 range on which the reference lies outside it.

Both gates also run at the points below, where the theta1 product's
prefactor e^(i pi (z + tau/4)) underflows at Im z > 0 while the value is in
range; a product taken with that prefactor is zero or off by up to 7%.
"""

import math

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("mpmath")
reference = pytest.importorskip("perfbench.reference")

from hypothesis import example, given, seed, settings, strategies as st  # noqa: E402

from siegeltheta import (  # noqa: E402
    ConvergenceError,
    DomainError,
    theta1_reduced,
    theta2,
)
from siegeltheta.theta import _theta1_plain  # noqa: E402

REL_TOL = 1e-9
# the reference is not asked to confirm an OverflowError where its largest
# term exceeds 10^1000: its precision, and so its cost, grows with that term
_LOG_LARGEST_AFFORDABLE = 1000.0 * math.log(10.0)
# (re_z, im_z, re_tau, im_tau) where the prefactor underflows
_UNDERFLOWS = [
    (0.3, 100.0, 0.0, 900.0),
    (0.78, 0.0, 0.0, 0.002),
    (0.99, 0.0, 0.0, 0.0011),
    (0.2, 9.1, 0.0, 909.0),
    (0.2616333124507988, 66.29082895201016, 1.084665508958187, 670.4543467656059),
]


def _at_underflows(test):
    for re_z, im_z, re_tau, im_tau in _UNDERFLOWS:
        test = example(re_z=re_z, im_z=im_z, re_tau=re_tau, im_tau=im_tau)(test)
    return test


def _log_uniform(low, high):
    # Im tau, drawn log-uniform in [10^low, 10^high]
    return st.floats(low, high).map(lambda e: 10.0**e)


def _check(kind, function, re_z, im_z, re_tau, im_tau):
    z, tau = complex(re_z, im_z), complex(re_tau, im_tau)
    try:
        got = function(z, tau)
    except (DomainError, ConvergenceError):
        return
    except OverflowError as exc:
        over = "overflowed the binary64" in str(exc)
        assert over or "underflowed the binary64" in str(exc), str(exc)
        if reference._log_largest_term(kind, z, tau) <= _LOG_LARGEST_AFFORDABLE:
            # below 10^-305 log10_abs is only an upper bound, which still
            # has the sign that an underflow needs
            want = reference.theta_reference(kind, z, tau)
            assert not want.in_range and (want.log10_abs > 0) == over, (
                z, tau, str(exc), want.log10_abs)
        return
    assert not (math.isnan(got.real) or math.isnan(got.imag))
    want = reference.theta_reference(kind, z, tau)
    if want.in_range:
        assert abs(got - want.value) <= REL_TOL * abs(want.value), (z, tau, got, want.value)


@seed(20261018)
@settings(max_examples=80, deadline=None, database=None)
@given(
    re_z=st.floats(-2.0, 2.0),
    im_z=st.floats(-1.0, 1.0),
    re_tau=st.floats(-2.0, 2.0),
    im_tau=_log_uniform(-8.0, 0.0),
)
@_at_underflows
def test_reduced_near_the_axis_matches_the_reference(re_z, im_z, re_tau, im_tau):
    _check("theta1", lambda z, tau: theta1_reduced(z, tau).value,
           re_z, im_z, re_tau, im_tau)
    _check("theta2", theta2, re_z, im_z, re_tau, im_tau)


# the plain theta1 product needs about 1/Im tau factors: Im tau stops at
# 1e-2; theta2, which takes the steps, is also checked on this range
@pytest.mark.parametrize("kind", ["theta1", "theta2"])
@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(
    re_z=st.floats(-2.0, 2.0),
    im_z=st.floats(-1.0, 1.0),
    re_tau=st.floats(-2.0, 2.0),
    im_tau=_log_uniform(-2.0, 0.0),
)
@_at_underflows
def test_plain_products_match_the_reference(kind, re_z, im_z, re_tau, im_tau):
    function = {"theta1": _theta1_plain, "theta2": theta2}[kind]
    _check(kind, function, re_z, im_z, re_tau, im_tau)
