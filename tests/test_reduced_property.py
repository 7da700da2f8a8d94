"""theta1_reduced, theta1 and theta2 near the real axis, and the plain
theta1 product that the proof replay checks the inversion law on and the
series theta1_series, against an independent reference; and the length of
the series kernel wherever the T/S steps can stop.

The oracle is perfbench/reference.py: the tau-form sine series of theta1
summed in mpmath until two precisions agree to 30 digits, valid for every
Re tau (mpmath.jtheta takes the nome and is right only for -1 < Re tau <= 1).
Each call either answers within 1e-9 of it, relatively, or raises one of
the documented errors; no answer is NaN.  An OverflowError must name the
side of the binary64 range on which the reference lies outside it.  The
reference is not asked about a point whose largest term exceeds 10^1000:
its precision, and so its cost, grows with that term.

Both gates also run at the points below, where the theta1 product's
prefactor e^(i pi (z + tau/4)) underflows at Im z > 0 while the value is in
range; a product taken with that prefactor is zero or off by up to 7%.

A seeded gate checks the first-order rounding bound that the steps and
the series report against the same reference.
"""

import functools
import math
import random

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("mpmath")
reference = pytest.importorskip("perfbench.reference")

from hypothesis import example, given, seed, settings, strategies as st  # noqa: E402

from siegeltheta import (  # noqa: E402
    ConvergenceError,
    DomainError,
    theta1,
    theta1_reduced,
    theta1_series,
    theta2,
    theta3,
    theta4,
)
from siegeltheta import theta  # noqa: E402
from siegeltheta.theta import _theta1_plain  # noqa: E402

REL_TOL = 1e-9
# the reference is not asked about a point where its largest term exceeds
# 10^1000: its precision, and so its cost, grows with that term
_LOG_LARGEST_AFFORDABLE = 1000.0 * math.log(10.0)
# theta1 and theta1_reduced ask about the same point
_reference = functools.lru_cache(maxsize=64)(reference.theta_reference)
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
            want = _reference(kind, z, tau)
            assert not want.in_range and (want.log10_abs > 0) == over, (
                z, tau, str(exc), want.log10_abs)
        return
    assert not (math.isnan(got.real) or math.isnan(got.imag))
    if reference._log_largest_term(kind, z, tau) > _LOG_LARGEST_AFFORDABLE:
        return
    want = _reference(kind, z, tau)
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
# in range, but the reference would need a largest term near e^(1e6)
@example(re_z=0.0, im_z=0.5, re_tau=0.0, im_tau=8.129461005539912e-07)
def test_reduced_near_the_axis_matches_the_reference(re_z, im_z, re_tau, im_tau):
    _check("theta1", lambda z, tau: theta1_reduced(z, tau).value,
           re_z, im_z, re_tau, im_tau)
    _check("theta1", theta1, re_z, im_z, re_tau, im_tau)
    _check("theta2", theta2, re_z, im_z, re_tau, im_tau)
    _check("theta3", theta3, re_z, im_z, re_tau, im_tau)
    _check("theta4", theta4, re_z, im_z, re_tau, im_tau)


# the plain theta1 product needs about 1/Im tau factors: Im tau stops at
# 1e-2; theta2, which takes the steps, and theta1_series, which takes none
# and declines where its sum cancels, are also checked on this range
@pytest.mark.parametrize("kind", ["theta1", "theta2", "theta1_series"])
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
    reference_kind, function = {"theta1": ("theta1", _theta1_plain), "theta2": ("theta2", theta2),
                                "theta1_series": ("theta1", theta1_series)}[kind]
    _check(reference_kind, function, re_z, im_z, re_tau, im_tau)


# where the T/S steps stop: |Re tau| <= 1/2 and |tau| >= 1, so Im tau is at
# least sqrt(3)/2; z anywhere
@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(
    re_tau=st.floats(-0.5, 0.5),
    lift=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    re_z=st.floats(-2.0, 2.0),
    im_z=st.floats(-100.0, 100.0),
)
# the corner e^(2 pi i/3), with Im z at half a period
@example(re_tau=-0.5, lift=0.0, re_z=0.3, im_z=0.4330127018922193)
def test_series_takes_at_most_5_terms_at_every_reduced_point(re_tau, lift, re_z, im_z):
    tau = complex(re_tau, math.sqrt(1.0 - re_tau * re_tau) * 10.0**lift)
    terms = theta._series(complex(re_z, im_z), tau, theta._DEFAULT_CFG)[3]
    assert 1 <= terms <= 5


def _bound_draw(rng, count):
    # count fundamental-domain points (perfbench's eval_fundamental shape)
    # and count with Im tau log-uniform in 1e-4..1, Im z within 2 sqrt(Im tau)
    points = []
    for _ in range(count):
        re_tau = rng.uniform(-0.5, 0.5)
        floor = math.sqrt(1.0 - re_tau * re_tau)
        points.append((complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)),
                       complex(re_tau, rng.uniform(floor, 3.0))))
        im_tau = 10.0 ** rng.uniform(-4.0, 0.0)
        points.append((complex(rng.uniform(-1.0, 1.0),
                               2.0 * math.sqrt(im_tau) * rng.uniform(-1.0, 1.0)),
                       complex(rng.uniform(-2.0, 2.0), im_tau)))
    return points


# the draw's points whose value breaks its rounding bound, a known fault of
# the bound (see CHANGES.md): the series charges the rounding of the
# reduced z with |d log theta1/dz| <= 2 pi, but near the zero 0 that
# derivative is about 1/|z|.  Here the steps end 0.089 from it, where it is
# about 11, and the error is 1.10 times the bound
_BREAKS_THE_BOUND = {
    ("theta4", 0.014774845014643434 + 0.06097512791533739j,
     -0.5656262376234085 + 0.0023235335314697554j),
}


def test_the_rounding_bound_holds_at_seeded_points(monkeypatch):
    # _finish compares error + _EPS |exponent| with _ROUNDING_LIMIT: that
    # bound, plus the roundings of the value's exp and product after it,
    # holds the error against the reference.  eps = 1e-20 keeps the
    # truncation below an ulp
    bounds = []
    finish = theta._finish

    def captured(z, eighths, exponent, prod, error, what):
        bounds.append(error + theta._EPS * abs(exponent))
        return finish(z, eighths, exponent, prod, error, what)

    monkeypatch.setattr(theta, "_finish", captured)
    cfg = theta.EvalConfig(eps=1e-20)
    functions = (("theta1", lambda z, tau: theta1_reduced(z, tau, cfg).value),
                 ("theta2", lambda z, tau: theta2(z, tau, cfg)),
                 ("theta3", lambda z, tau: theta3(z, tau, cfg)),
                 ("theta4", lambda z, tau: theta4(z, tau, cfg)))
    checked, broken = 0, {}
    for index, (z, tau) in enumerate(_bound_draw(random.Random(20261020), 150)):
        kind, function = functions[index % 4]
        bounds.clear()
        try:
            got = function(z, tau)
        except (ConvergenceError, OverflowError):
            continue
        want = reference.theta_reference(kind, z, tau)
        if not want.in_range:
            continue
        checked += 1
        error = abs(got - want.value) / abs(want.value)
        if not error <= bounds[0] + 4.0 * theta._EPS:
            broken[kind, z, tau] = error / bounds[0]
    assert checked >= 280
    assert broken.keys() == _BREAKS_THE_BOUND, broken
