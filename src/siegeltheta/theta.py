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
(`theta1_reduced`).  That first takes one T step, tau -> tau - k with k the
integer nearest Re tau, through theta1(z, tau + k) = e^(i pi k/4) theta1(z, tau)
(DLMF 20.7.26); then, when the shifted |tau| < 1, the product converges much
faster at -1/tau, so the law is solved for theta1(z, tau) and evaluated there.

Every theta function has period 2 in z, so the public entries first reduce
Re z exactly into (-2, 2) with math.fmod; pi z would otherwise lose its phase
for a large |Re z|.

All arithmetic is binary64; products are truncated by an a priori
geometric tail bound controlled through `EvalConfig`.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .errors import ConvergenceError, DomainError

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


class EvalConfig(namedtuple("EvalConfig", "eps max_terms")):
    """Truncation control for the theta products and series; immutable.

    eps: target absolute tolerance for the truncation tail bound.
    max_terms: hard cap on the number of product/series terms.
    """

    __slots__ = ()

    def __new__(cls, eps: float = 1e-12, max_terms: int = 5000):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
        if max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {max_terms!r}")
        return super().__new__(cls, eps, max_terms)

    @classmethod
    def _make(cls, iterable):  # _replace builds through this: validate there too
        return cls(*iterable)


_DEFAULT_CFG = EvalConfig()

ThetaEval = namedtuple("ThetaEval", "value terms_used reduced")


def _as_complex(value, name: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _as_z(z) -> complex:
    """_as_complex(z, "z") with Re z reduced exactly into (-2, 2).

    Every theta function has period 2 in z.  fmod is exact, and it is the
    identity below 2, so only a large |Re z| changes.  The check is inlined,
    as this runs once per evaluation.
    """
    z = complex(z)
    x = z.real
    if not (math.isfinite(x) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    return complex(math.fmod(x, 2.0), z.imag) if abs(x) >= 2.0 else z


def _bound_from_log(log_bound: float) -> float:
    # a tail bound from its log: inf past the binary64 range, and for NaN
    return math.exp(log_bound) if log_bound <= _LOG_MAX else math.inf


def _require_finite(value: complex, what: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"{what} overflowed the binary64 range")
    return value


def require_tau(tau) -> complex:
    """Validate membership of tau in the upper half-plane and return it."""
    tau = _as_complex(tau, "tau")
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
    base = _as_complex(base, "base")
    exponent = _as_complex(exponent, "exponent")
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
    z = _as_complex(z, "z")
    return _product_length(-_PI * tau.imag, -_PI * z.imag, cfg)


def _triple_product(z, tau, cfg: EvalConfig, sign: float, lead: float, trail: float):
    """Truncated prod (1-q^(2n)) (1 + sign w^2 q^(2n+lead)) (1 + sign w^-2 q^(2n+trail))
    over n >= 1 and its length; an exactly zero factor (z on the zero
    lattice) ends it with an exact zero.  DLMF 20.5.1 and 20.5.3.  z is a
    finite complex already (from _as_z, or checked by _require_finite)."""
    tau = require_tau(tau)
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


def _theta1_product(z: complex, tau: complex, cfg: EvalConfig):
    try:  # cmath.exp raises on overflow, in a factor or in the prefactor
        prod, terms = _triple_product(z, tau, cfg, -1.0, 0.0, -2.0)
        if prod == 0:  # an exact zero keeps +0 parts; prefactor * 0 could sign them
            return prod, terms
        prefactor = -1j * cmath.exp(_IPI * (z + tau / 4.0))
    except OverflowError:
        raise OverflowError("theta1 product overflowed the binary64 range") from None
    return _require_finite(prefactor * prod, "theta1 product"), terms


def theta1(z, tau, cfg: EvalConfig | None = None) -> complex:
    """First theta function, odd in z, from its product representation."""
    value, _ = _theta1_product(_as_z(z), complex(tau), cfg or _DEFAULT_CFG)
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
    value, terms = _theta1_product(_as_z(z) - 0.5, complex(tau), cfg)
    # an exact zero keeps its +0 parts, as in theta1
    return (-value if value else value), terms


def theta3(z, tau, cfg: EvalConfig | None = None) -> complex:
    """Third theta function from the triple product."""
    value, _ = _theta3_product(_as_z(z), tau, cfg or _DEFAULT_CFG)
    return value


def theta4(z, tau, cfg: EvalConfig | None = None) -> complex:
    """theta4(z) = theta3(z + 1/2)."""
    value, _ = _theta3_product(_as_z(z) + 0.5, tau, cfg or _DEFAULT_CFG)
    return value


def theta2(z, tau, cfg: EvalConfig | None = None) -> complex:
    """theta2(z) = -theta1(z - 1/2)."""
    value, _ = _theta2_product(z, tau, cfg or _DEFAULT_CFG)
    return value


# each function's (value, product factors used) at a caller's (z, tau), with
# Re z reduced before any half-period shift; the count falls short of
# product_terms when the product stops at an exact zero
_PRODUCTS = {
    "theta1": lambda z, tau, cfg: _theta1_product(_as_z(z), complex(tau), cfg),
    "theta2": _theta2_product,
    "theta3": lambda z, tau, cfg: _theta3_product(_as_z(z), tau, cfg),
    "theta4": lambda z, tau, cfg: _theta3_product(_as_z(z) + 0.5, tau, cfg),
}

# the CLI's verify and sweep choices, kept here with its eval choices so that
# its parser loads no other module; suites imports them from here
SUITES = ("eq2", "lemma1", "lemma2", "lemma3", "theorem")
SWEEP_TARGETS = ("edge_limit", "reduction_gain", "lambert_tail")


def format_complex(value: complex) -> str:
    """Render re+-im i with 15 significant digits."""
    value = complex(value)
    return f"{value.real:.15g}{value.imag:+.15g}i"


_S = math.sqrt(0.5)
# e^(i pi k/4) for k = 0..7, exact where its parts are 0 or +-1:
# theta1(z, tau + k) = _T_FACTORS[k % 8] theta1(z, tau)
_T_FACTORS = (complex(1, 0), complex(_S, _S), complex(0, 1), complex(-_S, _S),
              complex(-1, 0), complex(-_S, -_S), complex(0, -1), complex(_S, -_S))


def _inversion_prefactor(z: complex, tau: complex) -> complex:
    return -1j * principal_pow(-1j * tau, 0.5) * cmath.exp(_IPI * z * z / tau)


def inversion_rhs(z, tau, cfg: EvalConfig | None = None) -> complex:
    """Right side of the inversion law: -i (-i tau)^(1/2) e^(pi i z^2/tau) theta1(z, tau)."""
    tau = require_tau(tau)
    z = _as_complex(z, "z")
    return _require_finite(
        _inversion_prefactor(z, tau) * theta1(z, tau, cfg), "inversion right side"
    )


def theta1_reduced(z, tau, cfg: EvalConfig | None = None) -> ThetaEval:
    """Evaluate theta1 after one T step and, when it helps, one S step.

    T: tau is shifted by k = round(Re tau) into |Re tau| <= 1/2 (exactly, in
    binary64) and the result is multiplied by e^(i pi k/4).  S: when the
    shifted |tau| < 1, Im(-1/tau) = Im(tau)/|tau|^2 exceeds Im(tau), so the
    product at the inverted point needs far fewer terms; the inversion law
    is then solved for theta1(z, tau).  Otherwise this is a plain product
    evaluation.  `reduced` is true when either step was taken; there is no
    further T/S iteration, so a point whose shifted tau lies near the real
    axis away from 0 can still need many terms.  OverflowError: the inverted
    point, the value or the inversion prefactor left the binary64 range.
    """
    cfg = cfg or _DEFAULT_CFG
    tau = require_tau(tau)
    z = _as_z(z)
    shift = round(tau.real)
    tau = complex(tau.real - shift, tau.imag)  # exact; keeps a -0.0 real part
    if abs(tau) >= 1.0:
        value, terms = _theta1_product(z, tau, cfg)
        if shift and value:  # an exact zero keeps its +0 parts, as in theta1
            value = _require_finite(_T_FACTORS[shift % 8] * value, "reduced theta1")
        return ThetaEval(value, terms, bool(shift))
    # a subnormal Im tau sends -1/tau (and z/tau) past the binary64 range
    inverted_z = _require_finite(z / tau, "reduced theta1")
    inverted_tau = _require_finite(-1.0 / tau, "reduced theta1")
    inner, terms = _theta1_product(inverted_z, inverted_tau, cfg)
    if inner == 0:  # an exact zero keeps its +0 parts, as in theta1
        return ThetaEval(inner, terms, True)
    prefactor = _inversion_prefactor(z, tau)
    if shift:
        prefactor *= _T_FACTORS[-shift % 8]
    if prefactor == 0:
        raise OverflowError("reduced theta1 overflowed the binary64 range")
    value = inner / prefactor
    return ThetaEval(_require_finite(value, "reduced theta1"), terms, True)
