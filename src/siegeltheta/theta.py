"""Jacobi theta functions from a short sine series, and theta1 from its product.

theta1 is evaluated from its sine series (DLMF 20.2.1), written as

    theta1(z, tau) = i e^(i pi (tau/4 - z)) (1 - w^2)
                     sum_k (-1)^k q^(k^2+k) w^(-2k) (1 + w^2 + ... + w^(4k))

with q = exp(pi i tau), w = exp(pi i z), tau in the upper half-plane and
z first shifted by the lattice Z + tau Z into |Im z| <= Im tau/2, at
Im z >= 0 (theta1 is odd).  Term k is then at most (2k+1) e^(-pi Im tau k^2),
so the series is cut by a closed-form tail bound relative to the value,
and its growth e^(pi Im z) q^(1/4) is kept as a log (Deconinck et al.,
Math. Comp. 73, 2004).  Its factor 1 - w^2 is the subtraction 1.0 - w^2
wherever that has modulus at least 1/2 (`_CANCELS`), and is formed by
expm1 only below, near the zero z = 0, where the subtraction cancels.
The others are theta1 at a half period:
theta2(z) = -theta1(z - 1/2), theta3(z) = theta4(z + 1/2) and
theta4(z) = -i e^(i pi (u - tau/4)) theta1(u) at u = z + tau/2
(DLMF 20.2.13), a prefactor that the series' exponent cancels exactly.

The inversion law

    theta1(z/tau, -1/tau) = -i (-i tau)^(1/2) exp(pi i z^2 / tau) theta1(z, tau)

is exposed both as an identity (`inversion_rhs`) and as an accelerator:
the four functions and theta1_reduced take one loop of T steps,
tau -> tau - k, and S steps, (z, tau) -> (z/tau, -1/tau), while S strictly
raises Im tau (see `theta1_reduced`), and sum theta1's series where it
stops, at |Re tau| <= 1/2 and |tau| >= 1, so Im tau >= sqrt(3)/2,
|q| <= 0.066 and at most 4 terms reach the default tolerance.
theta1_series is the same series at (z, tau) itself, with no step.

The plain product

    theta1(z, tau) = -i w q^(1/4) prod_{n>=1} (1-q^(2n)) (1-w^2 q^(2n)) (1-w^-2 q^(2n-2))

at (z, tau) itself, with no step, serves only the proof replay:
`inversion_rhs`, and through it the verifier, check the law on it, so that
check does not rest on the law, and the tests check the series against
it.  Where its factor 1 - w^-2 overflows at a large Im z, it is taken at -z.

Every value is formed in one place, `_scaled`: the prefactor is kept as
its exponent, the logs of the steps and of a lattice shift are added to
it, and the value is formed directly where that prefactor is a normal
binary64 number, and through one exp of the summed logs elsewhere.  That
is also the one place that decides a value has overflowed or underflowed
the binary64 range.

Every theta function has period 2 in z, so the public entries first reduce
Re z exactly into (-2, 2) with math.fmod; pi z would otherwise lose its phase
for a large |Re z|.  Near a zero of theta1, every entry then replaces the
point at which it takes theta1 by its exact offset from that zero.  All
arithmetic is binary64; a priori tail bounds truncate the series, through
`EvalConfig`, and the product, at `EvalConfig()`'s defaults.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .errors import ConvergenceError, DomainError, finite_complex, finite_real, positive_int

__all__ = [
    "EvalConfig",
    "ThetaEval",
    "format_complex",
    "inversion_rhs",
    "product_terms",
    "require_tau",
    "theta1",
    "theta1_reduced",
    "theta1_series",
    "theta2",
    "theta3",
    "theta4",
]

_PI = math.pi
_IPI = 1j * math.pi
_TWO_IPI = 2j * math.pi
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)
_EPS = sys.float_info.epsilon / 2.0  # unit roundoff
_LOG_TINY = _LOG_MIN + math.log(_EPS)  # below it a value rounds to zero
# theta1, theta1_reduced and theta1_series decline a value whose first-order
# rounding bound exceeds this
_ROUNDING_LIMIT = 5e-10
_LOG_TWO = math.log(2.0)
_LOG_THREE = math.log(3.0)
_LOG_SIX = math.log(6.0)
# at Im tau >= _SHORT the series' sum is at least 1/3 in modulus (see _series)
_SHORT = 0.5
# below _SHORT, a sum that the rounding bound accepts is at least this in
# modulus: its bound is at least _EPS / |sum|
_LOG_SUM_FLOOR = math.log(_EPS / _ROUNDING_LIMIT)
# a step that is not finite says nothing of the value: at (0.3, 1e-320i)
# it underflows, and at (0.5, 1e-320i) it is about 1e160
_STEP_RANGE = "reduced theta1: a T/S step left the binary64 range"
# "near a zero of theta1": below this |z| the plain product's first factor
# 1 - e^(-2 pi i z) is formed by expm1, and z is shifted by a lattice point
# this close to it (relative to max(1, |z|)) exactly
_NEAR_ZERO = 1e-4


class EvalConfig(namedtuple("EvalConfig", "eps max_terms")):
    """Truncation control for the theta series; immutable.

    eps: target of the truncation tail bound, relative to the value.
    max_terms: hard cap on the number of series terms.
    """

    __slots__ = ()

    def __new__(cls, eps: float = 1e-12, max_terms: int = 5000):
        if not 0.0 < finite_real(eps, "eps") < 1.0:
            raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
        return super().__new__(cls, eps, positive_int(max_terms, "max_terms"))

    @classmethod
    def _make(cls, iterable):  # _replace builds through this: validate there too
        return cls(*iterable)


_DEFAULT_CFG = EvalConfig()
# log eps at the default config, formed once: the series' length needs it
# at every call without a config, and the plain product's length, which
# always runs at the default eps, at every call
_DEFAULT_LOG_EPS = math.log(_DEFAULT_CFG.eps)

ThetaEval = namedtuple("ThetaEval", "value terms_used reduced")


def _as_z(z) -> complex:
    """finite_complex(z, "z") with Re z reduced exactly into (-2, 2).

    Every theta function has period 2 in z.  fmod is exact, and it is the
    identity below 2, so only a large |Re z| changes.
    """
    z = finite_complex(z, "z")
    x = z.real
    return complex(math.fmod(x, 2.0), z.imag) if abs(x) >= 2.0 else z


def _bound_from_log(log_bound: float) -> float:
    # a tail bound from its log: inf past the binary64 range, and for NaN
    return math.exp(log_bound) if log_bound <= _LOG_MAX else math.inf


def require_tau(tau) -> complex:
    """Validate membership of tau in the upper half-plane and return it."""
    tau = finite_complex(tau, "tau")
    if tau.imag <= 0.0:
        raise DomainError(f"tau={tau!r} is not in the upper half-plane")
    return tau


def _log_factor_scale(log_abs_w: float) -> float:
    # log of 1 + |w|^2 + |w|^-2, evaluated without overflow
    two = 2.0 * log_abs_w
    m = max(two, -two, 0.0)
    return m + math.log(math.exp(-m) + math.exp(two - m) + math.exp(-two - m))


def _product_length(log_abs_q: float, log_abs_w: float) -> int:
    """Smallest M with |q|^(2M) (1+|w|^2+|w|^-2) / (1-|q|^2) < eps, at
    `EvalConfig()`'s eps; ConvergenceError where M exceeds its max_terms.

    The left side dominates the sum of the remaining log-factors of the
    product, so the truncated product is within eps of the full one
    (relatively); everything is solved in log space to dodge overflow.
    log|q| = -pi Im tau is passed in as |q| underflows to 0 for Im tau > 237.
    """
    eps, max_terms = _DEFAULT_CFG
    log_q2 = 2.0 * log_abs_q
    # expm1: |q| rounds to 1 for Im tau < 1e-17, where log1p(-|q|^2) fails
    log_c = _log_factor_scale(log_abs_w) - math.log(-math.expm1(log_q2))
    target = _DEFAULT_LOG_EPS - log_c
    # compared before ceil, which fails on the inf a subnormal Im tau gives
    length = target / log_q2
    # NaN, from a huge Im z whose log|w| overflows, fails this test too
    if not length <= max_terms:
        achieved = _bound_from_log(max_terms * log_q2 + log_c)
        raise ConvergenceError(
            f"product tail bound {achieved:.3e} > eps={eps:.3e} at max_terms={max_terms}",
            achieved=achieved,
        )
    return max(1, math.ceil(length))


def product_terms(z, tau) -> int:
    """Product length the truncation bound dictates at (z, tau)."""
    tau = require_tau(tau)
    z = finite_complex(z, "z")
    return _product_length(-_PI * tau.imag, -_PI * z.imag)


# 1 - e^x is formed by `_one_minus_exp` where its modulus is below this, by
# the series and by the residue kernel: above it, the subtraction 1.0 - e^x
# loses at most a rounding or two
_CANCELS = 0.5


def _one_minus_exp(x: complex) -> complex:
    # 1 - e^x without the cancellation near x = 0, from expm1 and
    # cos b - 1 = -2 sin^2(b/2)
    a, b = x.real, x.imag
    half_sin = math.sin(0.5 * b)
    return complex(2.0 * half_sin * half_sin - math.expm1(a) * math.cos(b),
                   -math.exp(a) * math.sin(b))


def _theta1_product(z: complex, tau: complex):
    """(unit, exponent, prod) with theta1(z, tau) = unit e^exponent prod,
    unit e^exponent being the prefactor -i e^(i pi (z + tau/4)) and prod the
    truncated product over n >= 1 (DLMF 20.5.3), which an exactly zero
    factor (z on the zero lattice) ends with an exact zero.

    Where the factor 1 - w^-2, of size e^(2 pi Im z), overflows at Im z > 0,
    theta1 itself may be in range: theta1 is odd, and at -z that factor is
    small, so the product is taken there and unit is +i.
    """
    # the first factor 1 - w^-2 cancels near z = 0: it is taken out of the
    # product (trail 0 leaves the n >= 1 factors) and formed without it
    near = 0.0 < abs(z) < _NEAR_ZERO
    trail = 0.0 if near else -2.0
    try:  # cmath.exp raises where a factor overflows
        terms = _product_length(-_PI * tau.imag, -_PI * z.imag)
        two_z = 2.0 * z
        # factor n is (1 - q^(2n)) (1 - w^2 q^(2n)) (1 - w^-2 q^(2n+trail)):
        # each power is the one before times q^2, the largest at n = 1
        q2 = cmath.exp(_TWO_IPI * tau)
        power1 = q2
        power2 = cmath.exp(_IPI * (2.0 * tau + two_z))
        power3 = cmath.exp(_IPI * ((2.0 + trail) * tau - two_z))
        prod = 1.0 + 0.0j
        for _ in range(terms):
            prod *= (1.0 - power1) * (1.0 - power2) * (1.0 - power3)
            power1 *= q2
            power2 *= q2
            power3 *= q2
        # an exactly zero factor leaves prod exactly zero, as the powers only
        # shrink and no later factor is infinite; a product that overflowed
        # before it is NaN, and takes the overflow's path below
        if not prod:
            return -1j, 0j, 0j
        if near:
            prod *= _one_minus_exp(-2.0 * _IPI * z)
        if cmath.isfinite(prod):
            return -1j, _IPI * (z + tau / 4.0), prod
    except OverflowError:
        pass
    if z.imag > 0.0:
        unit, exponent, prod = _theta1_product(-z, tau)
        return -unit, exponent, prod
    raise OverflowError("theta1 product overflowed the binary64 range")


def _scaled(unit: complex, exponent: complex, prod: complex, what: str) -> complex:
    """unit e^exponent prod: the one place where theta1, the plain product
    and the inversion right side decide that a value has left binary64.

    Where e^exponent is a normal binary64 number the value is formed
    directly, so a plain product keeps its bits; elsewhere, and where that
    value is not finite or is zero, it is the exp of the summed logs.  An
    exact zero keeps its +0 parts.
    """
    if not prod:
        return 0j
    if _LOG_MIN <= exponent.real <= _LOG_MAX:
        value = unit * cmath.exp(exponent) * prod
        if value and cmath.isfinite(value):
            return value
    log = exponent + cmath.log(prod)
    if not log.real <= _LOG_MAX:  # also for NaN
        raise OverflowError(f"{what} overflowed the binary64 range")
    value = unit * cmath.exp(log)
    if not value:
        raise OverflowError(f"{what} underflowed the binary64 range")
    return value


def _off_zero(z: complex, tau: complex, halves=(0, 0)):
    """(d, log) with e^(i pi b (u - tau/4)) theta1(u, tau) =
    e^log e^(i pi b (d - tau/4)) theta1(d, tau) at u = z + a/2 + b tau/2,
    for halves (a, b) with b 0 or 1 (see `_theta1_steps`): where u lies
    within _NEAR_ZERO max(1, |u|) of a zero m + n tau of theta1 (other than
    0 when u is z) and pi n^2 Im tau is finite; (u, 0j) elsewhere, u rounded.

    d = u - m - n tau is rounded once from its exact value: in binary64 it
    would keep few of the digits that the relative accuracy of theta1 rests
    on.  By quasi-periodicity (DLMF 20.2.12)
    e^log = (-1)^(m+n) e^(-i pi (n^2 tau + 2 n d)) e^(i pi b (m + n tau)),
    its phase taken mod 2 from the exact d.  tau is checked.
    """
    a, b = halves
    u = z + 0.5 * (a + b * tau) if a or b else z
    near = _NEAR_ZERO * max(1.0, abs(u))
    # math.remainder is Im u - n Im tau, exact at halves (0, 0): most points
    # stop at it
    if not abs(math.remainder(u.imag, tau.imag)) < near:
        return u, 0j
    ratio = u.imag / tau.imag
    if not math.isfinite(_PI * ratio * ratio * tau.imag):  # also for an inf ratio
        return u, 0j
    n = round(ratio)
    offset = u - n * tau
    if not cmath.isfinite(offset):
        return u, 0j
    m = round(offset.real)
    if not (m or n or a or b) or not abs(offset - m) < near:
        return u, 0j
    from fractions import Fraction  # exact; needed only near a zero

    re_tau = Fraction(tau.real)
    re_d = Fraction(z.real) + Fraction(a + b * re_tau, 2) - m - n * re_tau
    d = complex(float(re_d), float(Fraction(z.imag) + Fraction(b - 2 * n, 2) * Fraction(tau.imag)))
    # the rounding of n tau in offset can hide how far u is from m + n tau
    if not abs(d) < near:
        return u, 0j
    phase = float(((n - b) * n * re_tau + (1 - b) * m + n + 2 * n * re_d) % 2)
    return d, -_IPI * complex(phase, (n - b) * (n * tau.imag) + 2.0 * n * d.imag)


def _theta1_plain(z, tau) -> complex:
    """theta1 from its product at (z, tau) itself, with no T or S step,
    taken at the exact offset from a nearby zero (see `_off_zero`).

    The proof replay's reference: `inversion_rhs` and the verifier check the
    inversion law on it, so that check does not rest on the law.
    """
    tau = require_tau(tau)
    z, log = _off_zero(_as_z(z), tau)
    unit, exponent, prod = _theta1_product(z, tau)
    return _scaled(unit, exponent + log if log else exponent, prod, "theta1 product")


def theta1_series(z, tau, cfg: EvalConfig | None = None) -> complex:
    """theta1 from its sine series at (z, tau) itself, with no T or S step.

    Re tau is first reduced exactly into [-4, 4] by math.remainder, the
    identity there: theta1 has period 8 in tau, as theta1(z, tau + 1) =
    e^(i pi/4) theta1(z, tau), and at a large |Re tau| the exps would lose
    the phase of q.  The series kernel of theta1 (see `_series`) is then
    taken after the exact offset from a nearby zero (see `_off_zero`): it
    stops on a tail bound relative to the value, so it is a relative oracle
    wherever it answers, and independent of the plain product.
    ConvergenceError: more than max_terms terms, a lattice shift that is
    not finite, or, where the sum cancels (at (0.3, 0.001i) theta1 is about
    8.4e-54 and its terms about 1), a first-order rounding bound above
    _ROUNDING_LIMIT.  OverflowError as for theta1_reduced.
    """
    tau = require_tau(tau)
    tau = complex(math.remainder(tau.real, 8.0), tau.imag)
    z, log = _off_zero(_as_z(z), tau)
    eighths, exponent, prod, _, error = _series(z, tau, cfg or _DEFAULT_CFG)
    return _finish(z, eighths, exponent + log, prod, error, "theta1 series")


def _shift(z: complex, tau: complex, dz: float, dtau: float):
    """The lattice shift z -> z - n tau - m into |Im z| <= Im tau/2 and
    |Re z| <= 1/2: (shifted z, n + m, power, dz, error) with
    theta1(z) = (-1)^(n+m) e^(-i pi power) theta1(shifted z).

    n = round(Im z / Im tau), by the quasi-periodicity
    theta1(z) = (-1)^n e^(-i pi (2 n z - n^2 tau)) theta1(z - n tau)
    (DLMF 20.2.12), whose power has its phase taken mod 2; then
    m = round(Re z), by theta1(z + m) = (-1)^m theta1(z), exact as Re z and
    a nonzero m are within a factor 2 of each other.  dz and dtau bound the
    absolute rounding errors of z and tau; the new dz bounds the shifted
    z's, and error the relative error of the shift's factor.  OverflowError
    where Im z / Im tau or the power is not finite.
    """
    periods = z.imag / tau.imag
    if not math.isfinite(periods):
        raise OverflowError(_STEP_RANGE)
    n = round(periods)
    power, error = 0j, 0.0
    if n:
        power = n * (2.0 * z - n * tau)
        if not cmath.isfinite(power):
            raise OverflowError(_STEP_RANGE)
        power = complex(math.fmod(power.real, 2.0), power.imag)
        shift = abs(n * tau)
        error = _PI * abs(n) * (2.0 * dz + abs(n) * dtau + _EPS * (2.0 * abs(z) + shift))
        dz += abs(n) * dtau + _EPS * (abs(z) + shift)
        z = z - n * tau
    m = round(z.real)
    return (complex(z.real - m, z.imag) if m else z), n + m, power, dz, error


def _series(z: complex, tau: complex, cfg: EvalConfig, dz: float = 0.0, dtau: float = 0.0):
    """(eighths, exponent, prod, terms, error) with
    theta1(z, tau) = e^(i pi eighths/4) e^exponent prod, from the sine
    series 2 sum (-1)^k q^((k+1/2)^2) sin((2k+1) pi z) (DLMF 20.2.1).

    z is first shifted into |Im z| <= Im tau/2 (see `_shift`), unless it
    lies in the cell |Im z/Im tau| < 1/2, |Re z| < 1/2 already, where the
    shift takes n = m = 0, and taken at Im z >= 0 (theta1 is odd).  With
    w = e^(i pi z) there,

        theta1 = i e^(i pi (tau/4 - z)) (1 - w^2)
                 sum_k (-1)^k q^(k^2+k) w^(-2k) (1 + w^2 + ... + w^(4k)).

    The growth e^(pi Im z) q^(1/4) stays in the exponent, and prod is
    1 - w^2 times the sum.  1 - w^2 is 1.0 - w^2, from the w^2 the terms
    take, where its modulus is at least _CANCELS, and is formed without
    the cancellation (`_one_minus_exp`) below it, near the zero z = 0.
    Term k is at most (2k+1) e^(-a k^2 - c k) <= e^(-a k^2 - (c - log 3) k),
    with a = pi Im tau and c = pi (Im tau - 2 Im z) >= 0; once
    (2k+1) a >= log 6 these bounds fall by half from one term to the next,
    so the tail from term K is at most twice term K's bound, and K is the
    root of a quadratic.  At Im tau >= 1/2 the terms after the first are at
    most 0.64 in all, so the sum is at least 1/3; below, a sum that the
    rounding bound accepts is at least e^_LOG_SUM_FLOOR.  The tail is made
    smaller than that floor times eps, so it is below eps relative to the
    value.

    dz and dtau bound the absolute rounding errors of z and tau.  error is
    a first-order bound on the relative rounding error of the value: the
    shift's, dz and dtau carried through theta1, and the sum's, relative to
    a sum that is not smaller than its terms by more than a factor 5 at
    Im tau >= 1/2 (where the terms' sizes are not formed) and by a closed
    bound on their sum below.  ConvergenceError: more than max_terms terms,
    or a shift that is not finite (achieved inf).
    """
    if -0.5 < z.imag / tau.imag < 0.5 and -0.5 < z.real < 0.5:
        # z lies in the cell: the shift would take n = m = 0
        eighths, power, error = 2, 0j, 0.0  # the prefactor's i
    else:
        try:
            z, turns, power, dz, error = _shift(z, tau, dz, dtau)
        except OverflowError:
            raise ConvergenceError(
                f"series shift by {z.imag / tau.imag:.3e} periods of tau is not finite",
                achieved=math.inf) from None
        eighths = 4 * turns + 2  # the signs of the shift and the prefactor's i
    if z.imag < 0.0:
        z, eighths = -z, eighths + 4
    short = tau.imag >= _SHORT
    a = _PI * tau.imag
    b = _PI * (tau.imag - 2.0 * z.imag) - _LOG_THREE
    # log of 2 / the sum's floor; the length solves a K^2 + b K = target
    log_scale = _LOG_TWO + (_LOG_THREE if short else -_LOG_SUM_FLOOR)
    target = log_scale - (_DEFAULT_LOG_EPS if cfg is _DEFAULT_CFG else math.log(cfg.eps))
    if b > 0.0:
        length = 2.0 * target / (b + math.sqrt(b * b + 4.0 * a * target))
    else:
        half = -0.5 * b / a
        length = half + math.sqrt(half * half + target / a)
    if not short:
        length = max(length, 0.5 * (_LOG_SIX / a - 1.0))
    # compared before ceil, which fails on the inf a subnormal Im tau gives
    if not length <= cfg.max_terms:
        m = cfg.max_terms
        achieved = (_bound_from_log(log_scale - m * (a * m + b))
                    if (2 * m + 1) * a >= _LOG_SIX else math.inf)
        raise ConvergenceError(
            f"series tail bound {achieved:.3e} > eps={cfg.eps:.3e} at max_terms={m}",
            achieved=achieved,
        )
    terms = math.ceil(length) or 1  # 0 only where b * b overflows
    x = _TWO_IPI * z
    w2 = cmath.exp(x)
    rest = 1.0 - w2
    if abs(rest) < _CANCELS:
        rest = _one_minus_exp(x)
    total = 1.0 + 0.0j
    if terms > 1:
        factor = -cmath.exp(_TWO_IPI * (tau - z))  # -q^2 w^-2, then times q^2
        q2 = cmath.exp(_TWO_IPI * tau)
        w4, rise = w2 * w2, 1.0 + w2
        term = geometric = 1.0
        odd = w2  # w^(4k-2)
        for _ in range(1, terms):
            term *= factor
            factor *= q2
            geometric += odd * rise
            odd *= w4
            total += term * geometric
    if short:
        cancel = 5.0  # the terms' moduli summed, over the sum's
    else:  # their bounds summed: 2 + 1/a + (sqrt(pi)/2 + sqrt(2/e)) / sqrt(a)
        modulus = abs(total)
        cancel = (2.0 + (1.0 + 1.75 * math.sqrt(a)) / a) / modulus if modulus else math.inf
    # term k carries about k (8 + k (3 + 2 pi (|Re tau| + |z|))) roundings,
    # from its recurrences and the arguments of the exps, whose imaginary
    # parts only scale its modulus, by O(k^2 a eps), which its bound keeps
    # to a few roundings (a k^2 e^(-a k^2) <= 1/e): so from Im z = 1 on,
    # |Re z| + 1 is charged for |z|; near the real axis d log theta1/d tau
    # is about i pi/4, and |d log theta1/dz| about pi
    size = abs(z) if z.imag < 1.0 else abs(z.real) + 1.0
    error += (_PI * (0.25 * dtau + 2.0 * dz) + _EPS * cancel * terms
              * (8.0 + terms * (3.0 + 2.0 * _PI * (abs(tau.real) + size))))
    return eighths, _IPI * (0.25 * tau - z - power), rest * total, terms, error


def _finish(z: complex, eighths: int, exponent: complex, prod: complex, error: float,
            what: str) -> complex:
    """The value e^(i pi eighths/4) e^exponent prod (see `_scaled`) of a
    series whose relative rounding error is at most error, before the
    rounding of the exponent's exp; z is the caller's point after the
    offset of `_off_zero`, before any step or shift.

    ConvergenceError where the full bound exceeds _ROUNDING_LIMIT, unless
    the value lies beyond binary64 by more than the bound (then it is
    `_scaled`'s OverflowError).  An exact zero is returned only where z is
    exactly 0, which is where the caller's point lies on the zero lattice.
    """
    error += _EPS * abs(exponent)
    if error > _ROUNDING_LIMIT and (
            not prod
            or _LOG_TINY - error <= exponent.real + math.log(abs(prod)) <= _LOG_MAX + error):
        raise ConvergenceError(
            f"{what} rounding bound {error:.3e} > {_ROUNDING_LIMIT:.0e}", achieved=error)
    if not prod and z:
        raise OverflowError(f"{what} underflowed the binary64 range")
    return _scaled(_T_FACTORS[eighths % 8], exponent, prod, what)


# each function's half periods (a, b) and sign, at which it is theta1 or,
# at b = 1, theta4 (see `_theta1_steps`): theta2(z) = -theta1(z - 1/2) and
# theta3(z) = theta4(z + 1/2)
_HALVES = {"theta1": ((0, 0), False), "theta2": ((-1, 0), True),
           "theta3": ((1, 1), False), "theta4": ((0, 1), False)}


def _evaluate(name: str, z, tau, cfg: EvalConfig | None):
    """(value, terms used) of theta function `name` at a caller's (z, tau):
    Re z is reduced before the half-period shift, and terms counts the
    series terms summed at the reduced point."""
    halves, negate = _HALVES[name]
    tau = require_tau(tau)  # before z, as in every (z, tau) entry
    value, terms, _ = _theta1_steps(_as_z(z), tau, cfg or _DEFAULT_CFG, halves)
    # 0 - value, not -value: a zero part, and an exact zero, keep +0
    return (0.0 - value if negate else value), terms


def theta1(z, tau, cfg: EvalConfig | None = None) -> complex:
    """First theta function, odd in z: theta1_reduced(z, tau, cfg).value."""
    return _evaluate("theta1", z, tau, cfg)[0]


def theta2(z, tau, cfg: EvalConfig | None = None) -> complex:
    """theta2(z) = -theta1(z - 1/2)."""
    return _evaluate("theta2", z, tau, cfg)[0]


def theta3(z, tau, cfg: EvalConfig | None = None) -> complex:
    """Third theta function, theta3(z) = theta4(z + 1/2)."""
    return _evaluate("theta3", z, tau, cfg)[0]


def theta4(z, tau, cfg: EvalConfig | None = None) -> complex:
    """Fourth theta function, -i e^(i pi (z + tau/4)) theta1(z + tau/2, tau)."""
    return _evaluate("theta4", z, tau, cfg)[0]


# the CLI's verify and sweep choices, kept here with its eval choices so that
# its parser loads no other module; suites imports them from here
SUITES = ("eq2", "lemma1", "lemma2", "lemma3", "theorem")
SWEEP_TARGETS = ("edge_limit", "reduction_gain", "lambert_tail")


def format_complex(value: complex) -> str:
    """Render re+-im i with 15 significant digits."""
    value = finite_complex(value, "value")
    return f"{value.real:.15g}{value.imag:+.15g}i"


_S = math.sqrt(0.5)
# e^(i pi k/4) for k = 0..7, exact where its parts are 0 or +-1:
# theta1(z, tau + k) = _T_FACTORS[k % 8] theta1(z, tau)
_T_FACTORS = (complex(1, 0), complex(_S, _S), complex(0, 1), complex(-_S, _S),
              complex(-1, 0), complex(-_S, -_S), complex(0, -1), complex(_S, -_S))


def inversion_rhs(z, tau) -> complex:
    """Right side of the inversion law: -i (-i tau)^(1/2) e^(pi i z^2/tau) theta1(z, tau).

    An exact zero where theta1(z, tau) is one; OverflowError where the value
    leaves the binary64 range.  The principal root joins `_scaled`'s exponent.
    """
    tau = require_tau(tau)
    z = finite_complex(z, "z")
    plain = _theta1_plain(z, tau)
    exponent = 0.5 * cmath.log(-1j * tau) + _IPI * z * z / tau
    if plain and not cmath.isfinite(exponent):
        raise OverflowError("inversion right side overflowed the binary64 range")
    return _scaled(-1j, exponent, plain, "inversion right side")


def theta1_reduced(z, tau, cfg: EvalConfig | None = None) -> ThetaEval:
    """Evaluate theta1 after T and S steps, repeated while S raises Im tau.

    Every step begins with T: tau is shifted exactly by k = round(Re tau)
    into |Re tau| <= 1/2, and the result gains the factor e^(i pi k/4)
    (DLMF 20.7.26).  S follows when the shifted |tau| < 1 and
    Im(-1/tau) = Im(tau)/|tau|^2 exceeds Im(tau) (strictly: near the unit
    circle rounding can map tau onto itself): z is shifted by the lattice
    (see `_shift`), and the inversion law is taken at (z/tau, -1/tau).  The
    steps carry their multiplier as an exact count of eighth turns and a
    log, with first-order bounds on the rounding errors of z, tau and the
    multiplier.  The series (see `_series`) is summed where they stop, at
    |Re tau| <= 1/2 and Im tau >= sqrt(3)/2, where at most 4 terms reach
    the default eps; one exp of the summed logs then forms the value (see
    `_scaled`).  A point that takes no step is theta1_series there, bit for
    bit.  terms_used counts the series terms summed.  `reduced` is true
    when a T or S step was taken.  theta1 to theta4 take these steps too.

    Near a zero m + n tau, z is first replaced by the exact offset
    z - m - n tau (see `_off_zero`), so the value keeps its relative
    accuracy there, and is an exact zero only on the zero lattice.

    OverflowError: the value lies beyond the binary64 range or underflows
    to zero, or a step's lattice shift, log, inverted z or -1/tau is not
    finite (a subnormal Im tau, say), which says nothing of the value.
    ConvergenceError: the series needs more than max_terms terms,
    Im z is so large that its lattice shift is not finite (`achieved` inf),
    or a first-order bound on the rounding error that the steps and the
    series' shift carry into the value exceeds _ROUNDING_LIMIT (its
    `achieved`), as it does for many points close to the real axis
    (Im tau below about 1e-4), where each step amplifies the rounding of
    the one before.
    """
    tau = require_tau(tau)
    return ThetaEval(*_theta1_steps(_as_z(z), tau, cfg or _DEFAULT_CFG))


def _theta1_steps(z: complex, tau: complex, cfg: EvalConfig, halves=(0, 0)):
    """theta1_reduced's (value, terms, reduced) at a checked (z, tau): the
    value is theta1(z + a/2, tau) at halves (a, 0), and at halves (a, 1)
    theta4(z + a/2, tau) = -i e^(i pi (u - tau/4)) theta1(u, tau),
    u = z + a/2 + tau/2 (DLMF 20.2.13), that prefactor formed from the u or
    offset (see `_off_zero`) that the series takes: where no step and no
    lattice shift is taken, the series' e^(i pi (tau/4 - u)) cancels it
    exactly, at any Im tau.  For theta4, T swaps theta3 and theta4,
    theta4(z, tau) = theta4(z + 1/2, tau - 1), so Re tau is first reduced
    exactly into [-1/2, 1/2] and a taken mod 2, and z is taken at
    Im z <= 0, as theta3 and theta4 are even: where |Im z| <= Im tau/2, u
    then has 0 <= Im u <= Im tau/2, and the series takes no lattice shift.
    Each pass of the loop keeps the value e^(i pi eighths/4) e^log
    theta1(z, tau), dz and dtau bounding the absolute rounding errors of z
    and tau, and error the multiplier's.
    """
    a, b = halves
    eighths = 0
    if b:
        k = round(tau.real)
        tau = complex(tau.real - k, tau.imag)  # exact
        z0, log = _off_zero(-z if z.imag > 0.0 else z, tau, ((a + k) % 2, 1))
        # theta4 has period 1: Re z0 is reduced, exactly, into [-1/2, 1/2]
        z0 -= round(z0.real)
        eighths, log = -2, log + _IPI * (z0 - 0.25 * tau)
    else:
        z0, log = _off_zero(z, tau, halves)
    z, tau0 = z0, tau
    dz, dtau, error = 0.0, 0.0, 0.0
    while True:
        k = round(tau.real)
        if k:
            tau = complex(tau.real - k, tau.imag)  # exact
            eighths += k
        if abs(tau) >= 1.0:
            break
        inverted_tau = -1.0 / tau
        if not inverted_tau.imag > tau.imag:
            break
        z, turns, power, dz, shift_error = _shift(z, tau, dz, dtau)
        # the signs of the shift, and 1/(-i) = i of the inversion prefactor
        # -i (-i tau)^(1/2) e^(i pi z^2/tau)
        eighths += 4 * turns + 2
        log -= 0.5 * cmath.log(-1j * tau) + _IPI * (power + z * z / tau)
        inverted_z = z / tau
        if not (cmath.isfinite(log) and cmath.isfinite(inverted_z)
                and cmath.isfinite(inverted_tau)):
            raise OverflowError(_STEP_RANGE)
        # first-order rounding bounds across S: the relative error of the
        # prefactor (from dz, dtau and its own exp of pi z^2/tau) and the
        # absolute errors of z/tau and -1/tau; the sums that form log add
        # _EPS |log|
        size = abs(tau)
        ratio = abs(z) / size
        exponent = _PI * ratio * abs(z)
        s_error = ((0.5 / size + exponent / size) * dtau + 2.0 * _PI * ratio * dz
                   + _EPS * (exponent + 4.0 + abs(log)))
        error += shift_error + s_error
        z, tau = inverted_z, inverted_tau
        dz, dtau = (dz + ratio * dtau) / size + _EPS * ratio, (dtau / size + _EPS) / size
    turns, exponent, prod, terms, series_error = _series(z, tau, cfg, dz, dtau)
    value = _finish(z0, eighths + turns, exponent + log, prod, error + series_error,
                    "reduced theta1")
    return value, terms, tau != tau0
