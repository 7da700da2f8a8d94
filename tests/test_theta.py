import cmath
import math
import random
import re

import pytest

from siegeltheta import (
    ConvergenceError,
    DomainError,
    EvalConfig,
    ThetaEval,
    inversion_rhs,
    product_terms,
    theta1,
    theta1_reduced,
    theta1_series,
    theta2,
    theta3,
    theta4,
)
from siegeltheta import theta
from siegeltheta.suites import sample_grid
from siegeltheta.theta import _theta1_plain

# independently computed with a 40-digit reference implementation
THETA1_HALF_I = 0.9135791381561168
THETA1_COMPLEX = 0.5829495868869269 + 0.22922958685918413j  # z=0.3+0.1i, tau=0.2+1.3i
THETA3_ZERO_I = 1.086434811213308


def test_theta1_exact_zero_at_origin():
    for tau in (1j, 0.3 + 1.1j, 2j):
        assert theta1(0.0, tau) == 0.0


def test_theta1_lattice_zeros():
    for tau in (1j, 0.3 + 1.1j, 2j):
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                assert abs(theta1(m + n * tau, tau)) < 1e-10


def test_theta1_frozen_values():
    value = theta1(0.5, 1j)
    assert abs(value - THETA1_HALF_I) < 1e-12
    assert abs(value.imag) < 1e-14
    assert abs(theta1(0.3 + 0.1j, 0.2 + 1.3j) - THETA1_COMPLEX) < 1e-12


def test_series_frozen_value():
    assert abs(theta1_series(0.5, 1j) - THETA1_HALF_I) < 1e-13
    assert theta1_series(0.0, 1j) == 0.0


def test_product_series_agree_at_quarter():
    # the plain product and the series are two independent routes
    assert abs(_theta1_plain(0.25, 1j) - theta1_series(0.25, 1j)) < 1e-12


def test_oracle_equivalence_grid():
    # plain product vs series over Im tau in [0.5, 3], |Re z|, |Im z| <= 1
    rng = random.Random(11)
    for _ in range(25):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 3.0))
        assert abs(_theta1_plain(z, tau) - theta1_series(z, tau)) < 1e-11


def test_series_declines_where_its_sum_cancels():
    # theta1(0.3, 0.001i) is about 8.4e-54 while the series' terms are
    # about 1: the sum cancels past every digit, which the rounding bound
    # reports (the series used to return about 3e-13 here)
    with pytest.raises(ConvergenceError, match="theta1 series rounding bound") as info:
        theta1_series(0.3, 0.001j)
    assert info.value.achieved > 5e-10


def test_series_reduces_re_tau_modulo_8():
    # theta1 has period 8 in tau; unreduced, the exps lost the phase of q
    # and the series declined at rounding bounds 3.148e-08 and 3.148e+01
    for tau in (1e6 + 1j, 1e15 + 1j, -1e6 + 1j):
        assert theta1_series(0.3, tau).real == 0.7371971637186816 == theta1(0.3, tau).real
    assert abs(theta1_series(0.3 + 0.2j, 4.5 + 1j) - theta1(0.3 + 0.2j, 4.5 + 1j)) < 1e-13


def test_theta3_theta4_reduce_re_tau_modulo_2():
    # T swaps theta3 and theta4, so both have period 2 in tau; unreduced,
    # the exps lost the phase of q (the product was 3.7e-2 off at
    # theta4(0.3+0.2i, 1e15+0.9i))
    for tau in (1e6 + 1j, 1e15 + 1j, -1e6 + 1j):
        assert (theta3(0.3, tau), theta4(0.3, tau)) == (theta3(0.3, 1j), theta4(0.3, 1j))
    assert abs(theta3(0.3, 1e15 + 1 + 1j) - theta4(0.3, 1j)) < 1e-15


def test_theta1_odd():
    for z, tau in sample_grid(25, seed=42):
        assert abs(theta1(-z, tau) + theta1(z, tau)) < 1e-12


def test_theta3_frozen_value():
    assert abs(theta3(0.0, 1j) - THETA3_ZERO_I) < 1e-12


def test_theta3_cosine_series_crosscheck():
    # 1 + 2 sum q^(n^2) cos(2 n pi z) as an independent route
    z, tau = 0.2 + 0.1j, 1j
    q = cmath.exp(1j * math.pi * tau)  # the nome
    expected = 1.0 + 0j
    for n in range(1, 40):
        expected += 2.0 * q ** (n * n) * cmath.cos(2.0 * n * math.pi * z)
    assert abs(theta3(z, tau) - expected) < 1e-12


def test_half_period_relations():
    z, tau = 0.2 + 0.1j, 1j
    assert abs(theta4(z, tau) - theta3(z + 0.5, tau)) < 1e-14
    assert abs(theta2(z + 0.5, tau) + theta1(z, tau)) < 1e-12
    assert theta2(0.5, tau) == 0.0


def test_theta2_sine_series_crosscheck():
    # 2 sum q^((n+1/2)^2) cos((2n+1) pi z)
    z, tau = 0.15 - 0.05j, 0.8j
    q = cmath.exp(1j * math.pi * tau)  # the nome
    expected = 0j
    for n in range(40):
        expected += 2.0 * q ** ((n + 0.5) ** 2) * cmath.cos((2 * n + 1) * math.pi * z)
    assert abs(theta2(z, tau) - expected) < 1e-12


def test_inversion_rhs_vanishes_at_zero():
    assert inversion_rhs(0.0, 1j) == 0.0


@pytest.mark.parametrize("z,tau", [(0.3 - 0.2j, 1j), (0.1, 0.5 + 0.8j)])
def test_inversion_identity_examples(z, tau):
    lhs = theta1(z / tau, -1.0 / tau)
    assert abs(lhs - inversion_rhs(z, tau)) < 1e-10


def test_inversion_rhs_is_zero_where_theta1_is():
    # theta1(30, tau) = 0, though e^(pi i z^2/tau) = e^(90000 pi) overflows
    assert inversion_rhs(30.0, 0.01j) == 0j


def test_inversion_rhs_overflow_is_the_documented_error():
    # e^(pi i z^2/tau) is about e^(1836 pi): beyond binary64
    with pytest.raises(OverflowError, match="inversion right side overflowed the binary64 range"):
        inversion_rhs(30.3, 0.5j)


def test_inversion_rhs_takes_the_product_first():
    # at the default max_terms the product declines before the exp overflows
    with pytest.raises(ConvergenceError, match="product tail bound"):
        inversion_rhs(1.5, 0.001j)


def test_plain_product_retries_at_minus_z_where_a_factor_overflows():
    # at z the factor 1 - w^-2 is about e^(400 pi): the product is taken at -z
    z, tau = 0.3 + 200j, 1000j
    want = _jtheta(1, z, tau)
    assert abs(_theta1_plain(z, tau) - want) <= 1e-13 * abs(want)
    # theta1(z/tau, -1/tau) at the binary64 z and tau: the value, about
    # 5e-122, is far below its terms, hence the digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(160):
        z_mp, tau_mp = mpmath.mpc(z.real, z.imag), mpmath.mpc(tau.real, tau.imag)
        lhs = complex(mpmath.jtheta(1, mpmath.pi * z_mp / tau_mp,
                                    mpmath.exp(-1j * mpmath.pi / tau_mp)))
    assert abs(inversion_rhs(z, tau) - lhs) <= 1e-13 * abs(lhs)


def test_plain_product_forms_its_first_factor_near_zero_by_expm1():
    # 1 - e^(-2 pi i z) rounds to 0 here as a difference; reference mpmath
    want = 8.788918969806252e-147j
    assert abs(_theta1_plain(3.085244363331525e-147j, 1j) - want) <= 1e-12 * abs(want)


def test_plain_product_forms_a_subnormal_value_through_its_log():
    # the prefactor e^(-pi 905/4) lies below the normal range, so the value
    # is the exp of the summed logs; reference mpmath
    want = 3.302460132839289e-309
    assert abs(_theta1_plain(0.3, 905j) - want) <= 1e-12 * want


def test_plain_product_keeps_its_accuracy_over_long_products():
    # every factor's powers of q^2 are products of the ones before: at
    # Im tau = 3e-3 that is 1,736 factors.  The bound is the worst error the
    # earlier form, three exps per factor, made on this draw (2.599e-13);
    # near the real axis the rounding of tau and z, which both forms share,
    # sets it.  References from perfbench/reference.py
    reference = pytest.importorskip("perfbench.reference")
    rng = random.Random(20261020)
    worst, longest = 0.0, 0
    for index in range(40):
        im = 3e-3 if index < 4 else 10.0 ** rng.uniform(math.log10(3e-3), math.log10(3e-2))
        tau = complex(rng.uniform(-0.5, 0.5), im)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * im)
        want = reference.theta_reference("theta1", z, tau).value
        worst = max(worst, abs(_theta1_plain(z, tau) - want) / abs(want))
        longest = max(longest, product_terms(z, tau))
    assert longest == 1736
    assert worst <= 2.59e-13


def test_transformation_law_on_grid():
    for z, tau in sample_grid(25, seed=3):
        rhs = inversion_rhs(z, tau)
        lhs = theta1(z / tau, -1.0 / tau)
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-10


def test_reduced_small_tau():
    value, terms, reduced = theta1_reduced(0.3, 0.02j)
    assert reduced
    assert terms < product_terms(0.3, 0.02j)
    assert abs(value - _theta1_plain(0.3, 0.02j)) < 1e-10


def test_reduced_where_the_inverted_nome_underflows():
    # Im(-1/tau) is about 330, so exp(-pi Im(-1/tau)) underflows to 0;
    # reference value from mpmath at 40 digits
    got = theta1_reduced(
        -0.03615825074009593 + 0.3494436596301864j,
        0.0014409974061324604 + 0.0019776945895184257j,
    )
    want = 2.7901147606095478e65 - 5.994699910264249e65j
    assert got.reduced and got.terms_used == 1
    assert abs(got.value - want) <= 1e-12 * abs(want)


def test_reduced_prefactor_underflow_is_overflow_error():
    with pytest.raises(OverflowError):
        theta1_reduced(
            -0.329302487086755 + 0.37492719265961993j,
            -0.0004159089461646115 + 0.0001889601792696782j,
        )


def test_reduced_answers_the_imaginary_axis_near_half_periods():
    # on the imaginary axis tau = iy, near Re z = +-1/2, the first inversion
    # prefactor e^(pi x^2/y) leaves binary64 once y falls below about 1.1e-3,
    # though theta1 there is about y^(-1/2); the steps carry it as a log.
    # References from mpmath
    for z, tau, want in [
        (0.5, 0.001j, 31.622776601683793),
        (1.5, 0.001j, -31.622776601683793),
        (0.5, 1 + 0.001j, 22.360679774997898 + 22.360679774997898j),
    ]:
        got = theta1_reduced(z, tau).value
        assert abs(got - want) <= 1e-9 * abs(want), (z, tau, got)


def test_tiny_im_tau_is_a_convergence_error():
    # the plain product: |q| rounds to 1 here, so 1 - |q|^2 must not be
    # formed from |q|
    with pytest.raises(ConvergenceError):
        _theta1_plain(0.3, 1e-17j)
    with pytest.raises(ConvergenceError):
        theta1_reduced(0.3, 0.5 + 1e-18j)
    # subnormal Im tau: the term count itself is inf
    with pytest.raises(ConvergenceError):
        _theta1_plain(0.3, 1e-320j)
    # the lattice shift n tau of a nearby zero overflows; it used to escape
    # as a raw OverflowError from round(inf)
    with pytest.raises(ConvergenceError):
        _theta1_plain(1e-10j, 1e300 + 1e-20j)
    # the series' own shift by Im z / Im tau periods is not finite
    with pytest.raises(ConvergenceError,
                       match="^series shift by inf periods of tau is not finite$"):
        theta1_series(1e10j, 1e-300j)
    # theta1 takes the steps: about e^(-pi 0.09 1e17) and e^(-pi 0.01 1e20)
    # lie below binary64, and -1/tau is not finite at a subnormal Im tau,
    # where the value underflows at 0.3 and is about 1e160 at 0.5; at
    # 0.3+0.1i the first lattice shift, by Im z / Im tau periods, is not
    # finite either
    with pytest.raises(OverflowError, match="reduced theta1 underflowed"):
        theta1(0.3, 1e-17j)
    for z in (0.3, 0.5, 0.3 + 0.1j):
        with pytest.raises(OverflowError, match="a T/S step left the binary64"):
            theta1(z, 1e-320j)
    with pytest.raises(OverflowError, match="reduced theta1 underflowed"):
        theta1(1e-10j, 1e300 + 1e-20j)


@pytest.mark.parametrize("z", [1e308j, 1e308 + 1e308j, 0.3 - 1e308j, 0.3 + 1e300j])
@pytest.mark.parametrize(
    "func", [theta1, theta2, theta3, theta4, theta1_reduced, product_terms, theta1_series]
)
def test_huge_im_z_is_a_convergence_error(func, z):
    # 2 log|w| overflows to -inf and the term count to NaN, which compares
    # False with the cap; it used to reach ceil() as a raw ValueError.  The
    # tail bound is beyond binary64 (or NaN), so achieved is inf, not the
    # exp(700) it was clamped to
    with pytest.raises(ConvergenceError) as info:
        func(z, 1j)
    assert info.value.achieved == math.inf


@pytest.mark.parametrize("z", [1e308j, 0.3 + 1e300j])
def test_series_refuses_a_huge_im_z_before_any_term(monkeypatch, z):
    # the lattice shift by Im z / Im tau periods is not finite: the series
    # refuses before any exp (an older series raised a bare OverflowError
    # from its first sine, or ran all 5000 terms)
    def no_term(w):
        raise AssertionError("a series term was evaluated")

    monkeypatch.setattr(cmath, "exp", no_term)
    with pytest.raises(ConvergenceError, match="periods of tau is not finite"):
        theta1_series(z, 1j)


def _jtheta(n, z, tau, digits=30):
    # DLMF 20.2: theta_n(z | tau) = jtheta(n, pi z, e^(i pi tau)); the
    # precision covers the integer part of pi z and digits after it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits + len(str(int(abs(complex(z).real))))):
        z = mpmath.mpc(z.real, z.imag) if isinstance(z, complex) else mpmath.mpf(z)
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
        return complex(mpmath.jtheta(n, mpmath.pi * z, q))


@pytest.mark.parametrize(
    "func, n, z",
    [
        (theta1, 1, 1e17),  # an even integer: theta1 = 0
        (theta3, 3, 1e300),  # even: theta3(0, i)
        (theta2, 2, 4503599627370497.0),  # 2^52 + 1, odd: -theta2(0, i)
        (theta1, 1, 1e308),  # pi z overflowed to a math domain error
    ],
)
def test_large_re_z_matches_mpmath(func, n, z):
    want = _jtheta(n, z, 1j)
    assert abs(func(z, 1j) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("func, n", [(theta3, 3), (theta4, 4)])
def test_theta3_theta4_answer_near_the_axis(func, n):
    # in range (5.08e-122 and 8.41e-54), where the triple product declined
    # with its tail bound; mpmath's sum cancels from terms near 1 there
    want = _jtheta(n, 0.3, 0.001j, digits=200)
    assert abs(func(0.3, 0.001j) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("im_tau", [1e4, 1e6, 1e12])
@pytest.mark.parametrize("func, n", [(theta3, 3), (theta4, 4)])
def test_theta3_theta4_keep_their_accuracy_at_a_large_im_tau(func, n, im_tau):
    # theta4's prefactor e^(i pi (u - tau/4)) cancels the series'
    # e^(i pi (tau/4 - u)) only when both are formed from the same rounded
    # u = z + tau/2: formed from z, the error grew as eps Im tau (theta4 was
    # 1.000000000001819 at the first point and Im tau = 1e4), and above
    # Im tau = 3e5 the rounding bound declined.  The reference sums the
    # terms k = -3..3 of sum (+-1)^k e^(i pi (k^2 tau + 2 k z)), which leave
    # out less than e^(-2 pi Im tau) at |Im z| <= Im tau/2; mpmath's jtheta
    # fails at the third point
    mpmath = pytest.importorskip("mpmath")
    tau = 0.123 + im_tau * 1j
    for z in (0.1 - 0.4j, 0.3, 0.5 - (im_tau / 2 - 0.1) * 1j):
        with mpmath.workdps(40):
            want = complex(sum((-1) ** (k * (n - 3)) * mpmath.exp(
                1j * mpmath.pi * (k * k * mpmath.mpc(tau) + 2 * k * mpmath.mpc(z)))
                for k in range(-3, 4)))
        assert abs(func(z, tau) - want) <= 1e-12 * abs(want)


def test_theta3_theta4_are_real_on_the_imaginary_axis():
    # the prefactor and the series' exponent cancel exactly, so no phase is
    # left for cos to round: theta3(0, i) had the imaginary part 6.7e-17
    # (cos(-pi/2)) when the prefactor was formed from z
    for tau in (1j, 2j):
        assert theta3(0.0, tau).imag == 0.0 == theta4(0.0, tau).imag


@pytest.mark.parametrize("z", [1e17 - 0.2j, 4503599627370497.0 + 0.25j, -2.5 + 0.1j, -1e300])
@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, -0.9 + 0.2j])
def test_every_entry_reduces_re_z(z, tau):
    # the plain products and theta1_reduced's S and T branches alike; |Re tau|
    # stays below 1, where mpmath's principal q^(1/4) is e^(i pi tau/4)
    for n, got in [
        (1, theta1(z, tau)),
        (1, theta1_reduced(z, tau).value),
        (1, theta1_series(z, tau)),
        (2, theta2(z, tau)),
        (3, theta3(z, tau)),
        (4, theta4(z, tau)),
    ]:
        want = _jtheta(n, z, tau)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), n


def test_re_z_reduction_is_the_identity_below_2(monkeypatch):
    tau, cfg = 0.1 + 1.2j, EvalConfig()
    points = (1.999999 + 0.1j, -1.75 - 0.3j, 0.3 + 0.1j)
    even = [(theta3(z, tau), theta4(z, tau)) for z in points]
    for z in points:
        assert theta1(z, tau) == theta._theta1_steps(z, tau, cfg)[0]
    # exact: 2^53 + 2 and 2 are one period apart, both reduce to 0
    assert theta2(2.0**53 + 2.0, 1j) == theta2(0.0, 1j)
    # theta3 and theta4 reduce Re z before their half-period shifts, so
    # that 1.999999 + 1/2 + tau/2 is not reduced
    monkeypatch.setattr(theta, "_as_z", complex)
    assert [(theta3(z, tau), theta4(z, tau)) for z in points] == even


@pytest.mark.parametrize("z, tau", [(0, 0.3 + 0.5j), (0, 2.3 + 0.5j), (1, 0.3 + 0.5j), (0, 0.2 + 1.5j)])
def test_reduced_exact_zero_keeps_positive_parts(z, tau):
    # the S branch, with and without a T step, and the product branch all
    # return the product's exact zero unsigned, as theta1 does
    value = theta1_reduced(z, tau).value
    assert value == 0
    assert math.copysign(1.0, value.real) == math.copysign(1.0, value.imag) == 1.0


@pytest.mark.parametrize("tau", [0.3 + 0.5j, 1j, -0.7 + 2.0j])
def test_theta2_exact_zero_keeps_positive_parts(tau):
    # theta2 = -theta1(z - 1/2) negates a nonzero value only
    value = theta2(0.5, tau)
    assert value == 0
    assert math.copysign(1.0, value.real) == math.copysign(1.0, value.imag) == 1.0


def test_reduced_passthrough_is_bit_identical():
    # no step: the series at (z, tau) bit for bit, at Im z >= 0 and at -z
    # below it (theta1 is odd), and within roundoff of mpmath
    for z in (0.4 - 0.1j, 0.4 + 0.1j):
        result = theta1_reduced(z, 3j)
        assert not result.reduced
        assert result.value == theta1_series(z, 3j)
        want = _jtheta(1, z, 3j)
        assert abs(result.value - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("tau0", [0.2 + 0.7j, -0.3 + 1.2j])
@pytest.mark.parametrize("k", range(-3, 4))
def test_reduced_t_step_factor(k, tau0):
    # theta1(z, tau + k) = e^(i pi k/4) theta1(z, tau), DLMF 20.7.26
    z = 0.3 + 0.1j
    got = theta1_reduced(z, tau0 + k)
    want = cmath.exp(1j * math.pi * k / 4) * theta1(z, tau0)
    assert got.reduced == (k != 0 or abs(tau0) < 1)
    assert abs(got.value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("tau", [0.5 + 0.6j, -0.5 + 0.6j, 0.5 + 1.2j, -0.5 + 1.2j, 0.3 + 0.5j])
def test_reduced_without_t_step_is_bit_identical(tau):
    # |Re tau| <= 1/2 takes no T step first: the series at (z, tau) bit for
    # bit, or an S step.  At +-0.5+0.6i a T step (k = -+1) follows the S
    # step, and 0.3+0.5i takes one too (k = -1); the S step's prefactor
    # enters through its log.  All are checked against mpmath
    z = 0.3 - 0.1j
    got = theta1_reduced(z, tau).value
    if abs(tau) >= 1:
        assert got == theta1_series(z, tau)
    want = _jtheta(1, z, tau)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize(
    "z, tau, want, terms",
    [
        # 40-digit values of the tau-form sine series (mpmath); the plain
        # product needs more than 5000 and 1761 terms, the series at the
        # reduced point 3
        (0.3, 2.02 + 0.0005j,
         -3.791028042654440742505265875989960552053
         + 3.909572254933307553878147796092063348666j, 3),
        (0.1 + 0.2j, -1.37 + 0.003j,
         2191899574035986539.812634204089102315875
         + 2262457886676065464.786944985958599969730j, 3),
        # 40-digit values of mpmath.jtheta.  The first step's z shift brings
        # Im z/Im tau back here, where the plain product used to overflow
        (0.44642555931921546 - 0.4403184370644956j,
         0.0028105819243204877 + 0.0015202489789186127j,
         -3.493721322034862155542777252755190984736e+163
         + 1.794936541863905341838335373995904965478e+163j, 1),
        (0.5901740808703522 - 0.30990042279417246j,
         0.0005167646119268454 + 0.0016548368183709101j,
         1.986245202043355322021394046665994651963e+54
         - 4.076503896149906800080638802371488589835e+53j, 1),
    ],
)
def test_reduced_t_step_reaches_near_axis_points(z, tau, want, terms):
    got = theta1_reduced(z, tau)
    assert got.reduced and got.terms_used == terms
    assert abs(got.value - want) <= 1e-12 * abs(want)


def test_reduced_checks_the_prefactor_before_a_zero():
    # the inner product underflows to 0 while the inversion prefactor leaves
    # binary64; it used to return ThetaEval(0j, 1, True).  Reference value
    # from perfbench/reference.py
    z, tau = -0.16961737446217284 + 0.3750290720711368j, 1.999716563545936 + 0.0004451271398338911j
    want = 1.2039694918084507e27 + 9.098230483765345e27j
    got = theta1_reduced(z, tau).value
    assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize(
    "z, tau, want",
    [
        # near-axis pool points where one factor of the running divisor left
        # binary64 while the value did not; references from perfbench/reference.py
        (-0.44416116540517847 - 0.39692667778212143j, 0.9995142445282976 + 0.0006633348552531604j,
         3.0329818872881877e+251 - 5.033232417941717e+251j),
        (-0.4631799132687039 - 0.22487387884286641j, 1.0001747250484394 + 0.0004637437068237925j,
         6.493268814206804e+111 - 2.236920037495003e+112j),
        (0.3280393851291499 - 0.3655550916464172j, 0.999756414735709 + 0.00027979660676854927j,
         2.7129191283553368e-14 + 5.0870768637294026e-14j),
        (-0.5444561685772302 + 0.03788919657799439j,
         -0.00010382009865317343 + 0.0006598599545897929j,
         35.56706042170406 + 9.491325878417786j),
    ],
)
def test_reduced_answers_where_a_divisor_factor_leaves_binary64(z, tau, want):
    got = theta1_reduced(z, tau).value
    assert abs(got - want) <= 1e-11 * abs(want)


def test_reduced_underflow_is_no_zero():
    # the product at the inverted point (300, 1000i) underflows to 0 while
    # theta1 is -1.7266e-230i: it used to return that exact zero, then an
    # OverflowError.  Reference from perfbench/reference.py
    got = theta1_reduced(0.3j, 0.001j).value
    want = -1.7266070484861432e-230j
    assert abs(got - want) <= 1e-12 * abs(want)


_NEAR_ZERO_ENTRIES = {
    "theta1_reduced": (1, lambda z, tau: theta1_reduced(z, tau).value),
    "theta1": (1, theta1),
    "theta2": (2, theta2),
    "theta3": (3, theta3),
    "theta4": (4, theta4),
}


def _near_zero_case(z, tau, entry="theta1_reduced"):
    # the id names the entry unless it is theta1_reduced
    return pytest.param(entry, z, tau, id=f"{z}-{tau}" if entry == "theta1_reduced"
                        else f"{entry}-{z}-{tau}")


@pytest.mark.parametrize(
    "entry, z, tau",
    [
        _near_zero_case(1j, 0.1j),  # 5.5e-17 from the zero 10 tau: 0.1 is not 1/10
        _near_zero_case(1j, 0.1j, "theta1"),
        _near_zero_case(1.9999999999999998, 1j),  # 2^-52 from the zero 2
        _near_zero_case(1.9999999999999998, 1j, "theta1"),
        _near_zero_case(0.7 + 1e-13 + 0.05j, 0.7 + 0.05j),  # 1e-13 from the zero tau
        # 1e-13 from the zero tau, with no step taken: the shift's log still applies
        _near_zero_case(0.2 + 1.5j + 1e-13, 0.2 + 1.5j),
        _near_zero_case(1.4326302389936072e-236j, 1j),  # 1 - e^(-2 pi i z) rounds to 0
        # 1e-10 from the zero 100 tau, whose shift factor e^(pi 100^2 Im tau)
        # = e^722 lies beyond binary64 while theta1 is 1.7e292
        _near_zero_case(2.3j + 1e-10, 0.023j),
        _near_zero_case(2.3j + 1e-10, 0.023j, "theta1"),
        _near_zero_case(1.5 - 1e-12, 1j, "theta2"),  # 1e-12 from the zero 3/2 of theta2
        # 1e-10 from the zero 1 + 3 tau/2 of theta4, and 1e-12 from the zero
        # -1/2 - tau/2 of theta3: theta1's zero -1 - tau and 0 at u
        _near_zero_case(1 + 1.5 * (0.1 + 1.2j) - 1e-10, 0.1 + 1.2j, "theta4"),
        _near_zero_case(-0.5 - (0.1 + 1.2j) / 2 + 1e-12, 0.1 + 1.2j, "theta3"),
    ],
)
def test_reduced_keeps_relative_accuracy_near_a_zero(entry, z, tau):
    n, function = _NEAR_ZERO_ENTRIES[entry]
    want = _jtheta(n, z, tau)
    got = function(z, tau)
    assert got != 0 and abs(got - want) <= 1e-12 * abs(want)


def _factor_at(r, phi, sign):
    # sign times the z of the cell, at Im z >= 0, with 1 - e^(2 pi i z)
    # = r e^(i phi); |phi| <= 1.2 keeps |e^(2 pi i z)| <= 1
    return sign * cmath.log(1.0 - r * cmath.exp(1j * phi)) / (2j * math.pi)


@pytest.mark.parametrize(
    "z, cancels",
    [
        # |1 - w^2| just below _CANCELS = 1/2, then just above it; the series
        # takes -z where Im z < 0
        *[(_factor_at(r, phi, (-1) ** index), r < 0.5)
          for r in (0.4995, 0.5005)
          for index, phi in enumerate((-1.2, -0.4, 0.0, 0.7, 1.2))],
        (1e-9 + 2e-9j, True),  # near the zero 0
        # 1e-10 from the zero tau and 1e-12 from 1 + tau: the series takes
        # the offset from _off_zero
        (0.1 + 1.2j + 1e-10, True),
        (1.1 + 1.2j - 1e-12j, True),
        (0.3 + 0.1j, False),
    ],
)
def test_series_forms_1_minus_w2_by_subtraction_where_it_does_not_cancel(monkeypatch, z,
                                                                         cancels):
    # 1 - w^2 is 1.0 - w^2 from |1 - w^2| >= 1/2 on and _one_minus_exp below
    calls = []
    one_minus_exp = theta._one_minus_exp

    def counted(x):
        calls.append(x)
        return one_minus_exp(x)

    monkeypatch.setattr(theta, "_one_minus_exp", counted)
    tau = 0.1 + 1.2j
    series = theta1_series(z, tau)
    reduced = theta1_reduced(z, tau)
    assert len(calls) == (2 if cancels else 0)
    # no step: theta1_reduced is theta1_series, bit for bit
    assert not reduced.reduced and repr(reduced.value) == repr(series)
    want = _jtheta(1, z, tau)
    assert abs(series - want) <= 1e-15 * abs(want)


def test_reduced_exact_zero_only_on_the_lattice():
    tau = 0.25 + 0.5j  # dyadic: 3 tau - 2 is exact in binary64
    assert theta1_reduced(3 * tau - 2, tau).value == 0
    assert theta1_reduced(3 * tau - 2 + 1e-15, tau).value != 0
    # theta3 vanishes at 1/2 + tau/2 and theta4 at tau/2, mod the lattice
    tau = 0.25 + 1.5j
    assert repr(theta3(0.625 + 0.75j, tau)) == repr(theta4(0.125 + 0.75j, tau)) == "0j"
    assert theta3(0.625 + 0.75j + 1e-15, tau) != 0 != theta4(0.125 + 0.75j + 1e-15, tau)


def test_off_zero_checks_the_exact_offset_after_its_rounding():
    # u - n tau rounds to 9.99999999999177e-05 from the zero -2 - 57 tau,
    # inside _NEAR_ZERO = 1e-4; the exact one is 1.0000000000000190e-4
    z = 0.3502911747052256 - 0.5865537452963762j
    tau = -0.04123437907042682 + 0.010289137322872111j
    assert theta._off_zero(z, tau) == (z, 0j)
    want = _theta1_plain(z, tau)
    assert abs(theta1(z, tau) - want) <= 1e-10 * abs(want)


def _count_steps(monkeypatch):
    # each S step shifts z by the lattice once; the series shifts a z that
    # lies outside its cell once more, and skips the shift inside it
    steps = []
    shift = theta._shift

    def counted(z, tau, *args):
        steps.append(tau)
        return shift(z, tau, *args)

    monkeypatch.setattr(theta, "_shift", counted)
    return steps


def test_theta3_theta4_series_takes_no_lattice_shift(monkeypatch):
    # both are even and take z at Im z <= 0, so that u = z + tau/2 lies in
    # 0 <= Im u <= Im tau/2 where |Im z| <= Im tau/2 = 0.6: the series gets
    # a point of its cell, and any shift it took would be by n = m = 0
    points, shifts = [], []
    series, shift = theta._series, theta._shift

    def recorded_series(z, tau, *args):
        points.append((z, tau))
        return series(z, tau, *args)

    def recorded_shift(*args):
        result = shift(*args)
        shifts.append(result[1:3])  # n + m and the power
        return result

    monkeypatch.setattr(theta, "_series", recorded_series)
    monkeypatch.setattr(theta, "_shift", recorded_shift)
    for z in (0.3 + 0.4j, -0.7 - 0.2j, 0.1 + 0.59j):
        theta3(z, 0.1 + 1.2j), theta4(z, 0.1 + 1.2j)
    assert len(points) == 6
    assert all(0.0 <= u.imag <= tau.imag / 2 and abs(u.real) <= 0.5 for u, tau in points)
    assert all(taken == (0, 0j) for taken in shifts)


def test_reduction_stops_where_s_maps_tau_onto_itself(monkeypatch):
    # |tau| rounds below 1 and -1/tau rounds back to about tau: without the
    # strict rise of Im tau the steps would never end
    steps = _count_steps(monkeypatch)
    tau = 0.1813811251676833 + 0.9834128773983515j
    got = theta1_reduced(0.3, tau)
    assert len(steps) <= 2
    want = _jtheta(1, 0.3, tau)
    assert abs(got.value - want) <= 1e-12 * abs(want)


def test_every_reduced_product_has_re_tau_in_the_strip(monkeypatch):
    # every step begins with its T step and keeps it where no S step
    # follows, so the series is taken at |Re tau| <= 1/2
    taus = []
    series = theta._series

    def recorded(z, tau, *args):
        taus.append(tau)
        return series(z, tau, *args)

    monkeypatch.setattr(theta, "_series", recorded)
    rng = random.Random(20261018)
    for _ in range(300):
        # Im z within 5 sqrt(Im tau), where most values lie in binary64
        tau = complex(rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-5.0, 0.0))
        z = complex(rng.uniform(-2.0, 2.0), 5.0 * math.sqrt(tau.imag) * rng.uniform(-1.0, 1.0))
        try:
            theta1_reduced(z, tau)
        except (ConvergenceError, OverflowError):
            pass
    assert len(taus) >= 300
    assert all(abs(tau.real) <= 0.5 for tau in taus)


@pytest.mark.parametrize(
    "tau", [0.6180339887498949 + 1e-12j, 0.4142135623730951 + 1e-200j, 0.5 + 1e-300j]
)
def test_reduction_near_the_real_axis_ends_quickly(monkeypatch, tau):
    # near a quadratic irrational each step multiplies Im tau by only about
    # 5.8 (sqrt 2) or 2.6 (golden ratio), and the rounding of the steps
    # swamps Im tau long before the end, which the rounding bound reports
    steps = _count_steps(monkeypatch)
    with pytest.raises((ConvergenceError, OverflowError)):
        theta1_reduced(0.3, tau)
    assert len(steps) < 400


def test_reduction_rounding_bound_is_a_convergence_error():
    with pytest.raises(ConvergenceError, match="reduced theta1 rounding bound") as info:
        theta1_reduced(0.3, 0.6180339887498949 + 1e-12j)
    assert info.value.achieved > 5e-10


def test_series_sum_that_rounds_to_zero_off_the_zero_lattice_is_an_underflow():
    # 1 - w^2 at the smallest subnormal z makes the series' product -0j
    # though z is not 0: the value is nonzero and has no binary64 digits
    with pytest.raises(OverflowError, match="^theta1 series underflowed the binary64 range$"):
        theta1_series(5e-324, 0.1j)


def test_overflow_names_the_product():
    with pytest.raises(OverflowError, match="reduced theta1 overflowed the binary64"):
        theta4(0.3 + 300j, 1j)
    # theta1 is about e^(-pi 0.09/1e-300): the log of the value lies far
    # below the binary64 range, farther than its rounding bound reaches
    with pytest.raises(OverflowError, match="reduced theta1 underflowed the binary64"):
        theta1_reduced(0.3, 1e-300j)
    # 5.5e-16 from the zero 100 tau, where theta1 is about 1e1348; the
    # plain product at z itself hit an exact zero
    with pytest.raises(OverflowError, match="theta1 product overflowed the binary64"):
        _theta1_plain(10j, 0.1j)
    # a factor overflows at Im z < 0, where no -z is left to retry at
    with pytest.raises(OverflowError, match="^theta1 product overflowed the binary64 range$"):
        _theta1_plain(-300.5j, 1j)
    for function in (theta1, theta1_reduced):
        with pytest.raises(OverflowError, match="reduced theta1 overflowed the binary64"):
            function(10j, 0.1j)
    # subnormal Im tau: -1/tau itself is infinite
    with pytest.raises(OverflowError, match="reduced theta1: a T/S step left the binary64"):
        theta1_reduced(0.3, 1e-320j)
    # the ratio bound turns negative within max_terms, but sin(3 pi z) overflows
    with pytest.raises(OverflowError, match="theta1 series overflowed the binary64"):
        theta1_series(0.3 + 200j, 1j)


def test_reduced_cross_evaluation():
    got = theta1_reduced(0.4, 0.1j)
    direct = _theta1_plain(0.4, 0.1j)
    assert got.reduced
    assert abs(got.value - direct) < 1e-10


def test_reduction_consistency_small_imaginary_axis():
    for im in (0.01, 0.02, 0.05):
        reduced = theta1_reduced(0.3, im * 1j)
        assert reduced.terms_used < product_terms(0.3, im * 1j)
        assert abs(reduced.value - _theta1_plain(0.3, im * 1j)) < 1e-9


def test_eval_config_validation():
    with pytest.raises(DomainError, match=r"^eps must lie in \(0, 1\), got 0\.0$"):
        EvalConfig(eps=0.0)
    with pytest.raises(DomainError, match=r"^eps must lie in \(0, 1\), got 1\.5$"):
        EvalConfig(eps=1.5)
    with pytest.raises(DomainError, match=r"^eps must be a finite real, got nan$"):
        EvalConfig(float("nan"))
    with pytest.raises(DomainError, match=r"^eps must be a finite real, got '1e-12'$"):
        EvalConfig(eps="1e-12")
    with pytest.raises(DomainError, match=r"^max_terms must be a positive integer, got 0$"):
        EvalConfig(max_terms=0)
    # a float cap is no term count: inf would lift it, nan would make its
    # tail bound inf, and 2.5 used to fail inside theta1_series
    for max_terms in (2.5, 1e9, math.inf, math.nan):
        with pytest.raises(DomainError, match=r"^max_terms must be a positive integer, got "):
            EvalConfig(max_terms=max_terms)
    # _replace builds a new config, which is validated the same way
    with pytest.raises(DomainError, match=r"^max_terms must be a positive integer, got -1$"):
        EvalConfig()._replace(max_terms=-1)


def test_eval_config_is_an_immutable_value():
    cfg = EvalConfig()
    assert repr(cfg) == "EvalConfig(eps=1e-12, max_terms=5000)"
    assert cfg == EvalConfig(1e-12, 5000) == EvalConfig(max_terms=5000, eps=1e-12)
    assert cfg != EvalConfig(eps=1e-6)
    assert hash(cfg) == hash(EvalConfig())
    assert len({cfg, EvalConfig(), EvalConfig(eps=1e-6)}) == 2
    assert cfg._replace(eps=1e-6) == EvalConfig(eps=1e-6)
    eps, max_terms = cfg
    assert EvalConfig._fields == ("eps", "max_terms")
    assert (eps, max_terms) == (cfg.eps, cfg.max_terms) == (1e-12, 5000)
    with pytest.raises(AttributeError):
        cfg.eps = 1e-6
    with pytest.raises(AttributeError):
        cfg.tolerance = 1e-6
    assert cfg == EvalConfig()


def test_theta_eval_is_an_immutable_record():
    result = theta1_reduced(0.3, 0.01j)
    value, terms, reduced = result
    assert ThetaEval._fields == ("value", "terms_used", "reduced")
    assert (result.value, result.terms_used, result.reduced) == (value, terms, reduced)
    assert result == ThetaEval(value, terms, True)
    assert hash(result) == hash(ThetaEval(value, terms, True))
    assert repr(ThetaEval(1 + 0j, 4, False)) == (
        "ThetaEval(value=(1+0j), terms_used=4, reduced=False)"
    )
    with pytest.raises(AttributeError):
        result.value = 0j


def test_nonconvergence_carries_bound():
    # the plain product truncates at EvalConfig()'s eps and max_terms
    with pytest.raises(ConvergenceError, match=re.escape(
            "product tail bound 1.088e-11 > eps=1.000e-12 at max_terms=5000")) as info:
        _theta1_plain(0.3, 0.001j)
    assert info.value.achieved > 1e-12


@pytest.mark.parametrize("function, want", [
    (theta1, 8.412902317300808e-54), (theta2, 5.083094154391715e-122)])
def test_the_steps_answer_where_the_plain_product_declines(function, want):
    # the plain product needs about 1/Im tau factors here; theta1 and theta2
    # take the steps and need a few.  References from perfbench/reference.py
    with pytest.raises(ConvergenceError):
        _theta1_plain(0.3, 0.001j)
    got = function(0.3, 0.001j, EvalConfig(max_terms=50))
    assert abs(got - want) <= 1e-12 * want
