"""Jacobi theta functions from their infinite products.

theta1 is evaluated from

    theta1(z, tau) = -i w q^(1/4) prod_{n>=1} (1-q^(2n)) (1-w^2 q^(2n)) (1-w^-2 q^(2n-2)),

with q = exp(pi i tau), w = exp(pi i z) and tau in the upper half-plane.
theta3 uses the analogous triple product; theta2 and theta4 are derived
through the half-period shifts theta2(z) = -theta1(z - 1/2) and
theta4(z) = theta3(z + 1/2).

The inversion law

    theta1(z/tau, -1/tau) = -i (-i tau)^(1/2) exp(pi i z^2 / tau) theta1(z, tau)

is exposed both as an identity (`inversion_rhs`) and as an accelerator
(`theta1_reduced`).  That takes a T step, tau -> tau - k with k the integer
nearest Re tau, through theta1(z, tau + k) = e^(i pi k/4) theta1(z, tau)
(DLMF 20.7.26); then, when the shifted |tau| < 1, z is shifted by the
lattice Z + tau Z, the product converges much faster at -1/tau, and the law
is solved for theta1(z, tau) and evaluated there.  One step function takes
each T step and the S step after it; steps repeat while S strictly raises
Im tau, and the product is then taken where they stopped, at
|Re tau| <= 1/2 and with at most 6 factors over the benchmark's near-axis
pools.  The steps carry their multiplier as an exact eighth root of unity
and a log.  Where the product's factor 1 - w^-2 overflows at a large Im z,
the product is taken at -z (theta1 is odd).

theta1, theta2 and theta1_reduced form their value in one place, `_scaled`:
the product's prefactor -i e^(i pi (z + tau/4)) is kept as its exponent,
the logs of the steps and of a lattice shift are added to it, and the value
is formed directly where that prefactor is a normal binary64 number, and
through one exp of the summed logs elsewhere.  That is also the one place
that decides a value has overflowed or underflowed the binary64 range.

Every theta function has period 2 in z, so the public entries first reduce
Re z exactly into (-2, 2) with math.fmod; pi z would otherwise lose its phase
for a large |Re z|.  Near a zero of theta1 other than 0, theta1, theta2 and
theta1_reduced then replace z by its exact offset from that zero.

All arithmetic is binary64; products are truncated by an a priori
geometric tail bound controlled through `EvalConfig`.
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
    "nome",
    "principal_pow",
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
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)
_EPS = sys.float_info.epsilon / 2.0  # unit roundoff
_LOG_TINY = _LOG_MIN + math.log(_EPS)  # below it a value rounds to zero
# theta1_reduced declines a value whose first-order rounding bound exceeds this
_ROUNDING_LIMIT = 5e-10
# "near a zero of theta1": below this |z| its first factor 1 - e^(-2 pi i z)
# is formed by expm1, and theta1_reduced shifts z by a lattice point this
# close to it (relative to max(1, |z|)) exactly
_NEAR_ZERO = 1e-4


class EvalConfig(namedtuple("EvalConfig", "eps max_terms")):
    """Truncation control for the theta products and series; immutable.

    eps: target absolute tolerance for the truncation tail bound.
    max_terms: hard cap on the number of product/series terms.
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

ThetaEval = namedtuple("ThetaEval", "value terms_used reduced")


def _is_finite(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


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


def _require_finite(value: complex, what: str) -> complex:
    if not _is_finite(value):
        raise OverflowError(f"{what} overflowed the binary64 range")
    return value


def require_tau(tau) -> complex:
    """Validate membership of tau in the upper half-plane and return it."""
    tau = finite_complex(tau, "tau")
    if tau.imag <= 0.0:
        raise DomainError(f"tau={tau!r} is not in the upper half-plane")
    return tau


def nome(tau) -> complex:
    """Nome q = exp(pi i tau); |q| = exp(-pi Im tau) < 1."""
    return cmath.exp(_IPI * require_tau(tau))


def principal_pow(base, exponent) -> complex:
    """base**exponent through exp(exponent * log base) with arg in (-pi, pi].

    A real negative base gets arg = +pi even when its imaginary part is a
    negative zero.
    """
    base = finite_complex(base, "base")
    exponent = finite_complex(exponent, "exponent")
    if base == 0:
        raise DomainError("principal power of a zero base is undefined")
    if base.imag == 0.0:
        base = complex(base.real, 0.0)
    return cmath.exp(exponent * cmath.log(base))


def _log_factor_scale(log_abs_w: float) -> float:
    # log of 1 + |w|^2 + |w|^-2, evaluated without overflow
    two = 2.0 * log_abs_w
    m = max(two, -two, 0.0)
    return m + math.log(math.exp(-m) + math.exp(two - m) + math.exp(-two - m))


def _product_length(log_abs_q: float, log_abs_w: float, cfg: EvalConfig) -> int:
    """Smallest M with |q|^(2M) (1+|w|^2+|w|^-2) / (1-|q|^2) < eps.

    The left side dominates the sum of the remaining log-factors of the
    product, so the truncated product is within eps of the full one
    (relatively); everything is solved in log space to dodge overflow.
    log|q| = -pi Im tau is passed in as |q| underflows to 0 for Im tau > 237.
    """
    log_q2 = 2.0 * log_abs_q
    # expm1: |q| rounds to 1 for Im tau < 1e-17, where log1p(-|q|^2) fails
    log_c = _log_factor_scale(log_abs_w) - math.log(-math.expm1(log_q2))
    target = math.log(cfg.eps) - log_c
    # compared before ceil, which fails on the inf a subnormal Im tau gives
    length = target / log_q2
    # NaN, from a huge Im z whose log|w| overflows, fails this test too
    if not length <= cfg.max_terms:
        achieved = _bound_from_log(cfg.max_terms * log_q2 + log_c)
        raise ConvergenceError(
            f"product tail bound {achieved:.3e} > eps={cfg.eps:.3e} "
            f"at max_terms={cfg.max_terms}",
            achieved=achieved,
        )
    return max(1, math.ceil(length))


def product_terms(z, tau, cfg: EvalConfig | None = None) -> int:
    """Product length the truncation bound dictates at (z, tau)."""
    cfg = cfg or _DEFAULT_CFG
    tau = require_tau(tau)
    z = finite_complex(z, "z")
    return _product_length(-_PI * tau.imag, -_PI * z.imag, cfg)


def _triple_product(z, tau, cfg: EvalConfig, sign: float, lead: float, trail: float):
    """Truncated prod (1-q^(2n)) (1 + sign w^2 q^(2n+lead)) (1 + sign w^-2 q^(2n+trail))
    over n >= 1 and its length; an exactly zero factor (z on the zero
    lattice) ends it with an exact zero.  DLMF 20.5.1 and 20.5.3.  z is a
    finite complex already (from _as_z, or checked by _step), and tau is
    checked (by require_tau, or the result of steps from it)."""
    terms = _product_length(-_PI * tau.imag, -_PI * z.imag, cfg)
    two_z = 2.0 * z
    prod = 1.0 + 0.0j
    for n in range(1, terms + 1):
        two_n = 2.0 * n
        f1 = 1.0 - cmath.exp(_IPI * two_n * tau)
        f2 = 1.0 + sign * cmath.exp(_IPI * ((two_n + lead) * tau + two_z))
        f3 = 1.0 + sign * cmath.exp(_IPI * ((two_n + trail) * tau - two_z))
        if f1 == 0 or f2 == 0 or f3 == 0:
            return 0.0j, n
        prod *= f1 * f2 * f3
    return prod, terms


def _one_minus_exp(x: complex) -> complex:
    # 1 - e^x without the cancellation near x = 0, from expm1 and
    # cos b - 1 = -2 sin^2(b/2)
    a, b = x.real, x.imag
    half_sin = math.sin(0.5 * b)
    return complex(2.0 * half_sin * half_sin - math.expm1(a) * math.cos(b),
                   -math.exp(a) * math.sin(b))


def _theta1_product(z: complex, tau: complex, cfg: EvalConfig):
    """(unit, exponent, prod, terms) with theta1(z, tau) = unit e^exponent prod,
    unit e^exponent being the prefactor -i e^(i pi (z + tau/4)).

    Where the factor 1 - w^-2, of size e^(2 pi Im z), overflows at Im z > 0,
    theta1 itself may be in range: theta1 is odd, and at -z that factor is
    small, so the product is taken there and unit is +i.
    """
    try:  # cmath.exp raises where a factor overflows
        if 0.0 < abs(z) < _NEAR_ZERO:
            # the first factor 1 - w^-2 cancels near z = 0: it is taken out
            # of the product (whose trail 0 leaves the n >= 1 factors) and
            # formed without the cancellation
            prod, terms = _triple_product(z, tau, cfg, -1.0, 0.0, 0.0)
            prod *= _one_minus_exp(-2.0 * _IPI * z)
        else:
            prod, terms = _triple_product(z, tau, cfg, -1.0, 0.0, -2.0)
        if _is_finite(prod):
            return -1j, _IPI * (z + tau / 4.0), prod, terms
    except OverflowError:
        pass
    if z.imag > 0.0:
        unit, exponent, prod, terms = _theta1_product(-z, tau, cfg)
        return -unit, exponent, prod, terms
    raise OverflowError("theta1 product overflowed the binary64 range")


def _scaled(unit: complex, exponent: complex, prod: complex, what: str) -> complex:
    """unit e^exponent prod: the one place where theta1, theta2 and
    theta1_reduced decide that a value has left binary64.

    Where e^exponent is a normal binary64 number the value is formed
    directly, so a plain product keeps its bits; elsewhere, and where that
    value is not finite or is zero, it is the exp of the summed logs.  An
    exact zero keeps its +0 parts.
    """
    if not prod:
        return prod
    if _LOG_MIN <= exponent.real <= _LOG_MAX:
        value = unit * cmath.exp(exponent) * prod
        if value and _is_finite(value):
            return value
    log = exponent + cmath.log(prod)
    if not log.real <= _LOG_MAX:  # also for NaN
        raise OverflowError(f"{what} overflowed the binary64 range")
    value = unit * cmath.exp(log)
    if not value:
        raise OverflowError(f"{what} underflowed the binary64 range")
    return value


def _off_zero(z: complex, tau: complex):
    """(d, log) with theta1(z, tau) = e^log theta1(d, tau), where z lies
    within _NEAR_ZERO max(1, |z|) of a zero m + n tau of theta1 other than 0
    and pi n^2 Im tau is finite; (z, 0j) elsewhere.

    d = z - m - n tau is rounded once from its exact value: in binary64 it
    would keep few of the digits that the relative accuracy of theta1 rests
    on.  By quasi-periodicity e^log = (-1)^(m+n) e^(-i pi (n^2 tau + 2 n d))
    (DLMF 20.2.12), its phase taken mod 2 from the exact d.  tau is checked.
    """
    near = _NEAR_ZERO * max(1.0, abs(z))
    # math.remainder is Im z - n Im tau, exact: most points stop at it
    if not abs(math.remainder(z.imag, tau.imag)) < near:
        return z, 0j
    ratio = z.imag / tau.imag
    if not math.isfinite(_PI * ratio * ratio * tau.imag):  # also for an inf ratio
        return z, 0j
    n = round(ratio)
    offset = z - n * tau
    if not _is_finite(offset):
        return z, 0j
    m = round(offset.real)
    if not (m or n) or not abs(offset - m) < near:
        return z, 0j
    from fractions import Fraction  # exact; needed only near a zero

    re_tau = Fraction(tau.real)
    re_d = Fraction(z.real) - m - n * re_tau
    d = complex(float(re_d), float(Fraction(z.imag) - n * Fraction(tau.imag)))
    # the rounding of n tau in offset can hide how far z is from m + n tau
    if not abs(d) < near:
        return z, 0j
    phase = float((n * n * re_tau + m + n + 2 * n * re_d) % 2)
    return d, -_IPI * complex(phase, n * (n * tau.imag) + 2.0 * n * d.imag)


def _theta1_value(z: complex, tau: complex, cfg: EvalConfig):
    """theta1 and the product's terms at a checked (z, tau), with z first
    moved off a nearby zero (see _off_zero)."""
    z, log = _off_zero(z, tau)
    unit, exponent, prod, terms = _theta1_product(z, tau, cfg)
    if log:
        exponent += log
    return _scaled(unit, exponent, prod, "theta1 product"), terms


def theta1(z, tau, cfg: EvalConfig | None = None) -> complex:
    """First theta function, odd in z, from its product representation,
    taken at the exact offset from a nearby zero (see `_off_zero`)."""
    value, _ = _theta1_value(_as_z(z), require_tau(tau), cfg or _DEFAULT_CFG)
    return value


def theta1_series(z, tau, cfg: EvalConfig | None = None) -> complex:
    """theta1 from the sine series 2 sum (-1)^n q^((n+1/2)^2) sin((2n+1) pi z).

    Entirely independent of the product route, which makes it the natural
    cross-check oracle.  Truncation stops once a geometric bound on the
    remaining terms drops below cfg.eps.  That bound is absolute, so where
    |theta1| is tiny this is no relative oracle: at (0.3, 0.001i) theta1 is
    about 8.4e-54 and this returns about 3e-13.
    """
    cfg = cfg or _DEFAULT_CFG
    tau = require_tau(tau)
    z = _as_z(z)
    log_q = -_PI * tau.imag
    log_growth = 2.0 * _PI * abs(z.imag)
    log_eps = math.log(cfg.eps)
    unconverged = (f"series tail bound not below eps={cfg.eps:.3e} within "
                   f"max_terms={cfg.max_terms}")
    # the ratio bound below falls with n; not negative at the last term, it
    # leaves every tail bound infinite
    if not (2 * cfg.max_terms + 2) * log_q + log_growth < 0.0:
        raise ConvergenceError(unconverged, achieved=math.inf)
    total = 0.0j
    sign = 1.0
    try:  # cmath.sin and cmath.exp raise on overflow
        for n in range(cfg.max_terms):
            half = n + 0.5
            total += 2.0 * sign * cmath.exp(_IPI * tau * half * half) * cmath.sin(
                (2 * n + 1) * _PI * z
            )
            sign = -sign
            # bound on term n+1 and on the ratio of successive term bounds
            log_next = (math.log(2.0) + (half + 1.0) ** 2 * log_q
                        + (2 * n + 3) * _PI * abs(z.imag))
            log_ratio = (2 * n + 4) * log_q + log_growth
            if log_ratio < 0.0:
                log_tail = log_next - math.log1p(-math.exp(log_ratio))
                if log_tail < log_eps:
                    return _require_finite(total, "theta1 series")
    except OverflowError:
        raise OverflowError("theta1 series overflowed the binary64 range") from None
    raise ConvergenceError(unconverged, achieved=_bound_from_log(log_next))


def _theta3_product(z, tau, cfg: EvalConfig):
    try:  # cmath.exp raises on overflow
        prod, terms = _triple_product(z, tau, cfg, 1.0, -1.0, -1.0)
    except OverflowError:
        raise OverflowError("theta3 product overflowed the binary64 range") from None
    return _require_finite(prod, "theta3 product"), terms


def _theta2_product(z, tau, cfg: EvalConfig):
    value, terms = _theta1_value(_as_z(z) - 0.5, require_tau(tau), cfg)
    # an exact zero keeps its +0 parts, as in theta1
    return (-value if value else value), terms


def theta3(z, tau, cfg: EvalConfig | None = None) -> complex:
    """Third theta function from the triple product."""
    value, _ = _theta3_product(_as_z(z), require_tau(tau), cfg or _DEFAULT_CFG)
    return value


def theta4(z, tau, cfg: EvalConfig | None = None) -> complex:
    """theta4(z) = theta3(z + 1/2)."""
    value, _ = _theta3_product(_as_z(z) + 0.5, require_tau(tau), cfg or _DEFAULT_CFG)
    return value


def theta2(z, tau, cfg: EvalConfig | None = None) -> complex:
    """theta2(z) = -theta1(z - 1/2)."""
    value, _ = _theta2_product(z, tau, cfg or _DEFAULT_CFG)
    return value


# each function's (value, product factors used) at a caller's (z, tau), with
# Re z reduced before any half-period shift; the count falls short of
# product_terms when the product stops at an exact zero
_PRODUCTS = {
    "theta1": lambda z, tau, cfg: _theta1_value(_as_z(z), require_tau(tau), cfg),
    "theta2": _theta2_product,
    "theta3": lambda z, tau, cfg: _theta3_product(_as_z(z), require_tau(tau), cfg),
    "theta4": lambda z, tau, cfg: _theta3_product(_as_z(z) + 0.5, require_tau(tau), cfg),
}

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


def inversion_rhs(z, tau, cfg: EvalConfig | None = None) -> complex:
    """Right side of the inversion law: -i (-i tau)^(1/2) e^(pi i z^2/tau) theta1(z, tau)."""
    tau = require_tau(tau)
    z = finite_complex(z, "z")
    return _require_finite(
        -1j * principal_pow(-1j * tau, 0.5) * cmath.exp(_IPI * z * z / tau) * theta1(z, tau, cfg),
        "inversion right side"
    )


def _step(z: complex, tau: complex, eighths: int, log: complex, dz: float, dtau: float,
          error: float):
    """One T step from theta1(z0, tau0) = e^(i pi eighths/4) e^log theta1(z, tau),
    then, where S raises Im tau, a z shift and an S step.

    T: tau -> tau - k, k = round(Re tau), by theta1(z, tau + k) =
    e^(i pi k/4) theta1(z, tau) (DLMF 20.7.26).  The z shift: z -> z - n tau,
    n = round(Im z / Im tau), by the quasi-periodicity
    theta1(z) = (-1)^n e^(-i pi (2 n z - n^2 tau)) theta1(z - n tau)
    (DLMF 20.2.12), taken after T so that n tau has the shifted Re tau; then
    z -> z - m, m = round(Re z), by theta1(z + m) = (-1)^m theta1(z), exact
    as Re z and a nonzero m are within a factor 2 of each other.  S:
    (z, tau) -> (z/tau, -1/tau) by the inversion law.  The unit is kept
    exact as its count of eighth turns, and the rest of the multiplier as
    its log.  dz and dtau bound the absolute rounding errors of z and tau,
    and error the relative error of the multiplier.

    Returns the new (z, tau, eighths, log, dz, dtau, error) and True after
    an S step; the state after T alone and False where S would not raise
    Im tau (|tau - k| >= 1, or rounding near the unit circle, where S maps
    tau onto itself).  OverflowError where Im z / Im tau, the log or the
    inverted point is not finite, which only an input can cause (one with
    a subnormal Im tau, say).
    """
    k = round(tau.real)
    tau = complex(tau.real - k, tau.imag)  # exact; keeps a -0.0 real part
    eighths += k
    inverted_tau = -1.0 / tau
    if abs(tau) >= 1.0 or not inverted_tau.imag > tau.imag:
        return (z, tau, eighths, log, dz, dtau, error), False
    periods = z.imag / tau.imag
    if not math.isfinite(periods):
        raise OverflowError("reduced theta1 overflowed the binary64 range")
    n = round(periods)
    shift_error = 0.0
    if n:
        power = n * (2.0 * z - n * tau)
        if not _is_finite(power):
            raise OverflowError("reduced theta1 overflowed the binary64 range")
        # the phase is taken mod 2
        log -= _IPI * complex(math.fmod(power.real, 2.0), power.imag)
        shift = abs(n * tau)
        shift_error = _PI * abs(n) * (2.0 * dz + abs(n) * dtau + _EPS * (2.0 * abs(z) + shift))
        dz += abs(n) * dtau + _EPS * (abs(z) + shift)
        z = z - n * tau
    m = round(z.real)
    z = complex(z.real - m, z.imag)
    # the signs of both shifts, and 1/(-i) = i of the inversion prefactor
    # -i (-i tau)^(1/2) e^(i pi z^2/tau)
    eighths += 4 * (n + m) + 2
    log -= 0.5 * cmath.log(-1j * tau) + _IPI * z * z / tau
    inverted_z = z / tau
    if not (_is_finite(log) and _is_finite(inverted_z) and _is_finite(inverted_tau)):
        raise OverflowError("reduced theta1 overflowed the binary64 range")
    # first-order rounding bounds across S: the relative error of the
    # prefactor (from dz, dtau and its own exp of pi z^2/tau) and the
    # absolute errors of z/tau and -1/tau; the sums that form log add
    # _EPS |log|
    size = abs(tau)
    ratio = abs(z) / size
    exponent = _PI * ratio * abs(z)
    s_error = ((0.5 / size + exponent / size) * dtau + 2.0 * _PI * ratio * dz
               + _EPS * (exponent + 4.0 + abs(log)))
    return (inverted_z, inverted_tau, eighths, log, (dz + ratio * dtau) / size + _EPS * ratio,
            (dtau / size + _EPS) / size, error + (shift_error + s_error)), True


def theta1_reduced(z, tau, cfg: EvalConfig | None = None) -> ThetaEval:
    """Evaluate theta1 after T and S steps, repeated while S raises Im tau.

    Every step (see `_step`) begins with T: tau is shifted by k = round(Re tau)
    into |Re tau| <= 1/2 (exactly, in binary64) and the result gains the
    factor e^(i pi k/4).  S follows when the shifted |tau| < 1 and
    Im(-1/tau) = Im(tau)/|tau|^2 exceeds Im(tau), so the product at the
    inverted point needs fewer terms: z is shifted by n tau into
    |Im z| <= Im(tau)/2, Re z is reduced exactly into [-1/2, 1/2]
    (theta1(z + 1) = -theta1(z)), and the inversion law is solved for
    theta1(z, tau).  The steps carry their multiplier as an exact unit and
    a log, so they stop only where S would not raise Im tau, and the product
    is taken there, always at |Re tau| <= 1/2; one exp of the summed logs
    then forms the value (see `_scaled`).  A point that takes no step is a
    plain product evaluation, bit for bit.  `reduced` is true when a T or S
    step was taken.

    Near a zero m + n tau, z is first replaced by the exact offset
    z - m - n tau (see `_off_zero`), so the value keeps its relative
    accuracy there, and an exact zero is returned only where z lies on the
    zero lattice exactly.

    OverflowError: the value lies beyond the binary64 range or underflows
    to zero, or the input's first step is not finite (a subnormal Im tau,
    say).  ConvergenceError: the product needs more than max_terms factors,
    or a first-order bound on the rounding error the steps carry into the
    value exceeds _ROUNDING_LIMIT (its `achieved`), as it does for many
    points close to the real axis (Im tau below about 1e-4), where each step
    amplifies the rounding of the one before.
    """
    tau = require_tau(tau)
    z, log = _off_zero(_as_z(z), tau)
    state, inverted = (z, tau, 0, log, 0.0, 0.0, 0.0), True
    while inverted:
        state, inverted = _step(*state)
    reduced_z, reduced_tau, eighths, log, dz, dtau, error = state
    unit, exponent, prod, terms = _theta1_product(reduced_z, reduced_tau, cfg or _DEFAULT_CFG)
    if not prod and z:  # an exact zero only on the zero lattice
        raise OverflowError("reduced theta1 underflowed the binary64 range")
    reduced = reduced_tau != tau
    if reduced:
        unit *= _T_FACTORS[eighths % 8]
    if log:
        exponent += log
    if reduced and prod:
        # the product's own sensitivity where Im tau is large: d log theta1/d tau
        # is about i pi/4, and |d log theta1/dz| = |pi cot(pi z)| about pi; and
        # the rounding of the final exp's argument
        error += _PI * (0.25 * dtau + 2.0 * dz) + _EPS * abs(exponent)
        # a value beyond binary64 by more than the bound is _scaled's
        # OverflowError: the bound is one on the error of log |theta1|
        if error > _ROUNDING_LIMIT and (
                _LOG_TINY - error <= exponent.real + math.log(abs(prod)) <= _LOG_MAX + error):
            raise ConvergenceError(
                f"reduction rounding bound {error:.3e} > {_ROUNDING_LIMIT:.0e}", achieved=error)
    return ThetaEval(_scaled(unit, exponent, prod, "reduced theta1"), terms, reduced)
