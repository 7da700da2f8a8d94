"""Numerical replay of the residue-calculus route to the theta1 inversion law.

For tau = iy the logarithm of the theta1 product expands into three Lambert
sums plus an explicit prefactor log; the same expansion at the inverted
point (z/(iy), i/y) gives three more.  Their difference

    phi(z, iy) = log theta1(z, iy) - log theta1(z/(iy), i/y)

has the closed form checked here: six Lambert sums plus
-pi z/y + pi i z - (pi/4)(y - 1/y).

The sums are reproduced a second way through a meromorphic kernel with a
triple pole at 0 and simple poles at ik/N and ky/N (N = n + 1/2): the
closed-form residues summed over |k| <= n equal the Lambert sums truncated
at n, and the kernel's edge limits on the rhombus (-i, y, i, -y) are
+-1/8, which pins the contour integral in the n -> inf limit and yields

    phi(z, iy) + pi z^2/y - pi i/2 = -(1/2) log y,

the log form of the inversion law.  Every step is exposed as an operation
so each can be verified independently at finite n.

Validity domain: z = a + ib with b < 0 < a < 1 and y > |b|.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import cached_property

from .contour import rhombus_contour
from .errors import (ConvergenceError, DomainError, PoleProximityError, finite_complex,
                     finite_real, positive_int)
# the plain product, with no T/S step, so that checking the law does not use
# it; bound as theta1, the name the benchmark's verify_all trace wraps
from .theta import _theta1_plain as theta1, inversion_rhs, require_tau

__all__ = [
    "EDGES",
    "DomainPoint",
    "ResidueBreakdown",
    "closed_residue_sum",
    "edge_endpoints",
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
    "residue_real_pole",
    "transformation_residual",
]

_PI = math.pi
_TWO_PI = 2.0 * math.pi


class DomainPoint(namedtuple("DomainPoint", "a b y n")):
    """Evaluation point (z = a + ib, tau = iy) with truncation index n.

    The constraints b < 0 < a < 1 and y > |b| make every series involved
    converge; N = n + 1/2 places the kernel's poles strictly off the
    half-integer lattice used by the contour.  Immutable, and validated on
    every construction, _replace included.
    """

    # no __slots__: the cached properties below need an instance __dict__

    def __new__(cls, a: float, b: float, y: float, n: int = 1):
        for name, value in (("a", a), ("b", b), ("y", y)):
            finite_real(value, name)
        if not b < 0.0:
            raise DomainError(f"b must be negative, got {b!r}")
        if not 0.0 < a < 1.0:
            raise DomainError(f"a must lie in (0, 1), got {a!r}")
        if not y > abs(b):
            raise DomainError(f"y must exceed |b|, got y={y!r}, b={b!r}")
        return super().__new__(cls, a, b, y, positive_int(n, "n"))

    @classmethod
    def _make(cls, iterable):  # _replace builds through this: validate there too
        return cls(*iterable)

    @property
    def z(self) -> complex:
        return complex(self.a, self.b)

    @cached_property
    def N(self) -> float:
        return self.n + 0.5

    @cached_property
    def _kernel_constants(self) -> tuple:
        # residue_kernel's zeta-free factors, each grouped as the kernel's
        # formula associates it so that hoisting them changes no bit.
        # cached_property writes the instance __dict__, so ==, hash, repr
        # and _asdict still see the four fields only
        cap, y = self.N, self.y
        return (cap, y, _PI * 1j * cap, _PI * cap, -2j * _PI * (cap / y),
                1.0 - self.z, _TWO_PI * cap, 1e-12 / cap)


def _point(p) -> None:
    # the one check of every public entry that takes a DomainPoint p
    if not isinstance(p, DomainPoint):
        raise DomainError(f"p must be a DomainPoint, got {p!r}")


# ---------------------------------------------------------------------------
# Lambert sums
# ---------------------------------------------------------------------------

# truncation of every Lambert sum: tail bound below LAMBERT_EPS within
# LAMBERT_MAX_TERMS terms, else ConvergenceError
LAMBERT_EPS = 1e-13
LAMBERT_MAX_TERMS = 4000


def _terms_for_rate(rate: float) -> int:
    # smallest M with e^(-2 pi M rate) / (M (1 - e^(-2 pi rate))) < eps,
    # conservatively dropping the helpful 1/M factor
    denom = -math.expm1(-_TWO_PI * rate)
    terms = max(1, math.ceil(-math.log(LAMBERT_EPS * denom) / (_TWO_PI * rate)))
    if terms > LAMBERT_MAX_TERMS:
        achieved = math.exp(-_TWO_PI * LAMBERT_MAX_TERMS * rate) / (LAMBERT_MAX_TERMS * denom)
        raise ConvergenceError(
            f"Lambert tail bound {achieved:.3e} > eps={LAMBERT_EPS:.3e} "
            f"at {LAMBERT_MAX_TERMS} terms",
            achieved=achieved,
        )
    return terms


def lambert_terms(p: DomainPoint) -> int:
    """Series length needed by the boundary-log sums at p.

    The three sums decay like e^(-2 pi m y), e^(-2 pi m (y-|b|)) and
    e^(-2 pi m |b|); the slowest of these sets the length.
    """
    _point(p)
    return _terms_for_rate(min(p.y - abs(p.b), abs(p.b)))


def _inverted_side_terms(p: DomainPoint) -> int:
    # inverted-point sums decay at rates 1/y, (1-a)/y, a/y
    return _terms_for_rate(min(p.a, 1.0 - p.a) / p.y)


def _lambert_term(m: int, s: float, u: complex, h: float) -> complex:
    # term m of one side's three Lambert sums, s h = 2 pi m Im tau:
    # (1/m)/(1-e^(s h)) + (e^(s u)/m)/(1-e^(s h)) + (e^(-s u)/m) e^(s h)/(1-e^(s h)),
    # rewritten through e^(-s h) so nothing overflows.  The tau side is
    # (2 pi m, i z, y) and the inverted side (2 pi m / y, z, 1).
    decay = math.exp(-s * h)
    d = 1.0 - decay
    t1 = -decay / d
    t2 = -cmath.exp(s * (u - h)) / d
    t3 = -cmath.exp(-s * u) / d
    return (t1 + t2 + t3) / m


def _six_sums(z: complex, y: float, terms: int) -> complex:
    # the three tau-side sums minus the three inverted-side sums, to m = terms
    iz = 1j * z
    total = 0.0j
    for m in range(1, terms + 1):
        total += _lambert_term(m, _TWO_PI * m, iz, y) - _lambert_term(m, _TWO_PI * m / y, z, 1.0)
    return total


def _ratio_closed_tail(z: complex, y: float) -> complex:
    return -_PI * z / y + 1j * _PI * z - (_PI / 4.0) * (y - 1.0 / y)


def log_theta1_lambert(p: DomainPoint) -> complex:
    """log theta1(z, iy) in expanded form: -i pi/2 + i pi z - pi y/4 + sums.

    The expansion fixes the branch; no principal log of the product's value
    is ever taken, so the result is directly comparable across arguments.
    """
    _point(p)
    z, y = p.z, p.y
    iz = 1j * z
    total = complex(0.0, -_PI / 2.0) + 1j * _PI * z - _PI * y / 4.0
    for m in range(1, lambert_terms(p) + 1):
        total += _lambert_term(m, _TWO_PI * m, iz, y)
    return total


def _log_theta1_inverted(p: DomainPoint) -> complex:
    # log theta1(z/(iy), i/y), same expansion with prefactor pi z/y - pi/(4y)
    z, y = p.z, p.y
    total = complex(0.0, -_PI / 2.0) + _PI * z / y - _PI / (4.0 * y)
    for m in range(1, _inverted_side_terms(p) + 1):
        total += _lambert_term(m, _TWO_PI * m / y, z, 1.0)
    return total


def inversion_log_ratio(p: DomainPoint) -> complex:
    """phi = log theta1(z, iy) - log theta1(z/(iy), i/y), both logs expanded."""
    return log_theta1_lambert(p) - _log_theta1_inverted(p)


def inversion_log_ratio_lambert(p: DomainPoint) -> complex:
    """phi in its closed arrangement: six Lambert sums plus the closed tail."""
    _point(p)
    z, y = p.z, p.y
    terms = max(lambert_terms(p), _inverted_side_terms(p))
    return _six_sums(z, y, terms) + _ratio_closed_tail(z, y)


# ---------------------------------------------------------------------------
# The residue kernel and its closed-form residues
# ---------------------------------------------------------------------------

_KERNEL_OVERFLOW = "residue kernel overflowed the binary64 range"


def _pole_distance(zeta: complex, cap: float, y: float) -> float:
    # distance from zeta to {ik/cap} U {ky/cap}, k in Z, through the
    # nearest index on each axis
    try:  # zeta is finite; round raises on an infinite index
        k_imag = round(zeta.imag * cap)
        k_real = round(zeta.real * cap / y)
    except OverflowError:
        raise OverflowError(_KERNEL_OVERFLOW) from None
    d_imag = math.hypot(zeta.real, zeta.imag - k_imag / cap)
    d_real = math.hypot(zeta.real - k_real * y / cap, zeta.imag)
    return min(d_imag, d_real)


def pole_distance(zeta: complex, p: DomainPoint) -> float:
    """Distance from zeta to the kernel's pole set {ik/N} U {ky/N}, k in Z.

    DomainError for a non-finite zeta; OverflowError where zeta is so large
    that the nearest pole's index leaves the binary64 range.
    """
    _point(p)
    return _pole_distance(finite_complex(zeta, "zeta"), p.N, p.y)


def _cot(w: complex) -> complex:
    return 1.0 / cmath.tan(w)


def _inv_one_minus_exp(s: complex) -> complex:
    # 1/(1 - e^s) without overflow for Re s >> 0
    if s.real > 0.0:
        es = cmath.exp(-s)
        return -es / (1.0 - es)
    return 1.0 / (1.0 - cmath.exp(s))


def residue_kernel(zeta, p: DomainPoint) -> complex:
    """Meromorphic kernel whose residues reproduce the Lambert sums.

        -cot(pi i N zeta) cot(pi N zeta / y) / (8 zeta)
            + [1/(1-e^(2 pi N zeta))] [e^(-2 pi i (N/y)(1-z) zeta)
               / (1-e^(-2 pi i (N/y) zeta))] / zeta

    Triple pole at 0, simple poles at ik/N and ky/N for nonzero integer k.
    Evaluation closer than 1e-12/N to any pole raises PoleProximityError, a
    non-finite zeta DomainError, and a value or intermediate outside the
    binary64 range OverflowError.  The zeta-free factors are computed once
    per DomainPoint.
    """
    _point(p)
    cap, y, pi_i_cap, pi_cap, b_scale, one_minus_z, two_pi_cap, guard = p._kernel_constants
    zeta = finite_complex(zeta, "zeta")
    if _pole_distance(zeta, cap, y) < guard:
        raise PoleProximityError(f"zeta={zeta!r} is within 1e-12/N of a kernel pole")
    try:
        first = -_cot(pi_i_cap * zeta) * _cot(pi_cap * zeta / y) / (8.0 * zeta)
        b = b_scale * zeta
        a = one_minus_z * b
        if b.real > 0.0:
            ratio = -cmath.exp(a - b) / (1.0 - cmath.exp(-b))
        else:
            ratio = cmath.exp(a) / (1.0 - cmath.exp(b))
        value = first + _inv_one_minus_exp(two_pi_cap * zeta) * ratio / zeta
        if math.isfinite(value.real) and math.isfinite(value.imag):
            return value
    except OverflowError:  # cmath.exp raises on overflow
        pass
    raise OverflowError(_KERNEL_OVERFLOW) from None


def residue_at_zero(p: DomainPoint) -> complex:
    """Residue at the triple pole: i(y - 1/y)/8 + z/2 - i z^2/(2y) + i z/(2y) - 1/4.

    Carries no N, hence no dependence on p.n.
    """
    _point(p)
    z, y = p.z, p.y
    return 0.125j * (y - 1.0 / y) + 0.5 * z - 0.5j * z * z / y + 0.5j * z / y - 0.25


def _pole_index(k) -> None:
    if not (isinstance(k, int) and k):
        raise DomainError(f"k must be a nonzero integer, got {k!r}")


def residue_imag_pole(k: int, p: DomainPoint) -> complex:
    """Residue at ik/N for nonzero integer k (closed form, N-free)."""
    _pole_index(k)
    _point(p)
    z, y = p.z, p.y
    first = 1.0 / math.tanh(_PI * k / y) / (8j * _PI * k)
    s = _TWO_PI * k / y
    if k > 0:
        second = cmath.exp(-s * z) / (1.0 - math.exp(-s)) / (2j * _PI * k)
    else:
        second = -cmath.exp(s * (1.0 - z)) / (1.0 - math.exp(s)) / (2j * _PI * k)
    return first + second


def residue_real_pole(k: int, p: DomainPoint) -> complex:
    """Residue at ky/N for nonzero integer k (closed form, N-free)."""
    _pole_index(k)
    _point(p)
    z, y = p.z, p.y
    first = -1.0 / math.tanh(_PI * k * y) / (8j * _PI * k)
    s = _TWO_PI * k * y
    if k > 0:
        second = -cmath.exp(2j * _PI * k * z - s) / (1.0 - math.exp(-s)) / (2j * _PI * k)
    else:
        second = cmath.exp(2j * _PI * k * z) / (1.0 - math.exp(s)) / (2j * _PI * k)
    return first + second


class ResidueBreakdown(
    namedtuple("ResidueBreakdown", "at_zero at_imag at_real total_times_2pi_i")
):
    """All residues enclosed by the rhombus for a given n, plus their total;
    at_imag and at_real are tuples of (k, residue) pairs."""

    __slots__ = ()

    @classmethod
    def compute(cls, p: DomainPoint) -> "ResidueBreakdown":
        _point(p)
        ks = [k for k in range(-p.n, p.n + 1) if k != 0]
        at_zero = residue_at_zero(p)
        at_imag = tuple((k, residue_imag_pole(k, p)) for k in ks)
        at_real = tuple((k, residue_real_pole(k, p)) for k in ks)
        total = at_zero + sum(v for _, v in at_imag) + sum(v for _, v in at_real)
        return cls(at_zero, at_imag, at_real, 2j * _PI * total)


def closed_residue_sum(p: DomainPoint) -> complex:
    """2 pi i times the enclosed residues, in closed summed form.

    Equals the Lambert sums truncated at n plus
    -(pi/4)(y - 1/y) + pi i z + pi z^2/y - pi z/y - pi i/2; identical to
    `ResidueBreakdown.total_times_2pi_i` up to roundoff.
    """
    _point(p)
    z, y = p.z, p.y
    return _six_sums(z, y, p.n) + _ratio_closed_tail(z, y) + _PI * z * z / y - 0.5j * _PI


# ---------------------------------------------------------------------------
# Edge limits and the closing identities
# ---------------------------------------------------------------------------

EDGES = ("E1", "E2", "E3", "E4")

def _edge_index(edge: str) -> int:
    try:
        return EDGES.index(edge)
    except ValueError:
        raise DomainError(f"unknown edge {edge!r}; expected one of {EDGES}") from None


def edge_endpoints(edge: str, y: float) -> tuple[complex, complex]:
    """Start and end of a named rhombus edge: E1 (-i,y), E2 (y,i), E3 (i,-y), E4 (-y,-i).

    Edge E(k+1) runs from vertex k of `rhombus_contour(y)` to the next one.
    """
    k = _edge_index(edge)
    vertices = rhombus_contour(y)
    return vertices[k], vertices[(k + 1) % len(vertices)]


def edge_limit_target(edge: str) -> float:
    """Limit of zeta * kernel(zeta) on the named edge: +1/8 on E2/E4, -1/8 on E1/E3."""
    return 0.125 if _edge_index(edge) % 2 else -0.125


def edge_limit_value(edge: str, t: float, p: DomainPoint) -> complex:
    """zeta * kernel(zeta) at zeta = (1-t) start + t end of the named edge.

    Poles accumulate at the vertices as n grows, so t must stay at least
    0.05 away from the endpoints.
    """
    _point(p)
    start, end = edge_endpoints(edge, p.y)
    if not 0.05 <= finite_real(t, "t") <= 0.95:
        raise DomainError(f"t={t!r} must lie in [0.05, 0.95]")
    zeta = (1.0 - t) * start + t * end
    return zeta * residue_kernel(zeta, p)


def edge_limit_residual(edge: str, t: float, p: DomainPoint) -> float:
    """|zeta F(zeta) -+ 1/8| at the named edge point."""
    return abs(edge_limit_value(edge, t, p) - edge_limit_target(edge))


def log_identity_residual(p: DomainPoint) -> float:
    """|phi + pi z^2/y - pi i/2 + (1/2) log y|, zero iff the log identity holds."""
    phi = inversion_log_ratio_lambert(p)
    return abs(phi + _PI * p.z * p.z / p.y - 0.5j * _PI + 0.5 * math.log(p.y))


def transformation_residual(z, tau, cfg=None) -> float:
    """Relative gap between theta1(z/tau, -1/tau) and the inversion right side.

    Normalized by max(1, |rhs|); works for general tau in the upper
    half-plane, not only tau = iy.
    """
    tau = require_tau(tau)
    z = finite_complex(z, "z")
    rhs = inversion_rhs(z, tau, cfg)
    lhs = theta1(z / tau, -1.0 / tau, cfg)
    return abs(lhs - rhs) / max(1.0, abs(rhs))
