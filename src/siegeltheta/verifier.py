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
from operator import sub

from .contour import rhombus_contour
from .errors import (ConvergenceError, DomainError, PoleProximityError, finite_complex,
                     finite_real, positive_int)
# the plain product, with no T/S step, so that checking the law does not use
# it; bound as theta1, the name the benchmark's verify_all trace wraps
from .theta import _CANCELS, _one_minus_exp, _theta1_plain as theta1, inversion_rhs, require_tau

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
    "residue_kernel_pair",
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

    # The cached properties below write the instance __dict__, so ==, hash,
    # repr and _asdict still see the four fields only, and __reduce__ keeps
    # them out of pickle and copy.

    def __reduce__(self):
        return type(self), tuple(self)

    @cached_property
    def _sides(self) -> tuple[list[complex], list[complex]]:
        # the tau side's and the inverted side's Lambert terms, both to the
        # longer side's length: phi's two arrangements share them
        terms = max(lambert_terms(self), _inverted_side_terms(self))
        return _both_sides(self.z, self.y, terms)

    @cached_property
    def _kernel(self):
        # kernel(zeta): (K(zeta), K(-zeta)) at this point for a finite
        # complex zeta, residue_kernel being the first; the zeta-free
        # factors are bound once
        cap, y = self.N, self.y
        two_pi_cap, b_scale = _TWO_PI * cap, -2j * _PI * (cap / y)
        one_minus_z, guard = 1.0 - self.z, 1e-12 / cap
        exp, isfinite, one_minus_exp = cmath.exp, cmath.isfinite, _one_minus_exp

        def kernel(zeta: complex):
            # every pole lies on an axis, and _pole_distance keeps Re zeta and
            # Im zeta as legs of its hypots, so it is below guard only where
            # one of them is; the pole set is symmetric about 0, so the guard
            # at zeta is the guard at -zeta
            if abs(zeta.real) < guard or abs(zeta.imag) < guard:
                if _pole_distance(zeta, cap, y) < guard:
                    raise PoleProximityError(f"zeta={zeta!r} is within 1e-12/N of a kernel pole")
            # with s = 2 pi N zeta, b = -2 pi i (N/y) zeta and a = (1 - z) b,
            # the kernel is -cot_s cot_b/(8 zeta) + f_s f_b e^a/zeta, where
            # f_w = 1/(1 - e^w), cot_s = cot(pi i N zeta) = -i (1 - 2 f_s)
            # and cot_b = cot(pi N zeta/y) = -i (1 - 2 f_b).  Take E_w = e^w
            # and g_w = 1/(1 - E_w), or where Re w > 0, E_w = e^-w and
            # g_w = 1/(E_w - 1); then f_w = g_w or e^-w g_w, that e^-w joins
            # e^a's exponent, f_s f_b e^a = g_s g_b e^power, and in both
            # branches 1 - 2 f_w = -(1 + E_w) g_w, so the kernel is
            # g_s g_b ((1 + E_s)(1 + E_b)/8 + e^power)/zeta.  As 0 < Re z < 1
            # and y > -Im z > 0, power's real part is never positive, and no
            # exponential exceeds 1 in modulus.  1 - E_s cancels near the
            # poles ik/N, 1 - E_b near the poles ky/N and where b is small (a
            # large y), and both near the triple pole at 0; each is formed by
            # `_one_minus_exp` there, below _CANCELS: theta's one rule for
            # 1 - e^x, which its series applies to 1 - w^2.  lemma2's
            # circles, 1/16 of the way to the next pole, take it at every
            # node for the factors of the pole they enclose, whose |w| is at
            # most pi/8 there; at y = 2 its rhombus nodes have
            # |1 - E_s| >= 0.99 and |1 - E_b| >= 0.77, and none takes it.
            # At -zeta, s, b and a change sign: E_w is the same, g_w changes
            # sign, the cotangents' product is the same, and f_-s f_-b e^-a
            # = g_s g_b e^mirror, mirror being -a plus each of s and b that
            # the branch above did not subtract; so K(-zeta) is
            # -g_s g_b ((1 + E_s)(1 + E_b)/8 + e^mirror)/zeta.  mirror is
            # power at -zeta up to a pure imaginary s or b, so its real part
            # is never positive either; its own exp, not E_s E_b/e^power,
            # since e^power underflows at a large N
            try:
                s, b = two_pi_cap * zeta, b_scale * zeta
                power = one_minus_z * b
                mirror = -power
                if s.real > 0.0:
                    e_s = exp(-s)
                    d_s = e_s - 1.0
                    if abs(d_s) < _CANCELS:
                        d_s = -one_minus_exp(-s)
                    power -= s
                else:
                    e_s = exp(s)
                    d_s = 1.0 - e_s
                    if abs(d_s) < _CANCELS:
                        d_s = one_minus_exp(s)
                    mirror += s
                if b.real > 0.0:
                    e_b = exp(-b)
                    power -= b
                    d_b = e_b - 1.0
                    if abs(d_b) < _CANCELS:
                        d_b = -one_minus_exp(-b)
                else:
                    e_b = exp(b)
                    d_b = 1.0 - e_b
                    if abs(d_b) < _CANCELS:
                        d_b = one_minus_exp(b)
                    mirror += b
                g = 1.0 / d_s / d_b
                even = (1.0 + e_s) * (1.0 + e_b) * 0.125
                value = g * (even + exp(power)) / zeta
                other = -g * (even + exp(mirror)) / zeta
                if isfinite(value) and isfinite(other):
                    return value, other
            except (OverflowError, ValueError):
                # exp: an infinite imaginary part; or an overflow, as the
                # joined exponent is not positive in exact arithmetic only
                pass
            raise OverflowError(_KERNEL_OVERFLOW) from None

        return kernel


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
    target = LAMBERT_EPS * denom
    # compared before ceil, which fails on the inf an underflowed target gives
    length = -math.log(target) / (_TWO_PI * rate) if target else math.inf
    if not length <= LAMBERT_MAX_TERMS:
        achieved = (math.exp(-_TWO_PI * LAMBERT_MAX_TERMS * rate) / (LAMBERT_MAX_TERMS * denom)
                    if target else math.inf)
        raise ConvergenceError(
            f"Lambert tail bound {achieved:.3e} > eps={LAMBERT_EPS:.3e} "
            f"at {LAMBERT_MAX_TERMS} terms",
            achieved=achieved,
        )
    return max(1, math.ceil(length))


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


def _lambert_side(u: complex, h: float, div: float, terms: int) -> list[complex]:
    # terms m = 1..terms of one side's three Lambert sums, with s = 2 pi m/div
    # and s h = 2 pi m Im tau:
    # (1/m)/(1-e^(s h)) + (e^(s u)/m)/(1-e^(s h)) + (e^(-s u)/m) e^(s h)/(1-e^(s h)),
    # rewritten through e^(-s h) as -(e^(-s h) + e^(s (u-h)) + e^(-s u))/(m (1 - e^(-s h)))
    # so nothing overflows, and 1 - e^(-s h) through expm1 where it cancels.
    # The three exponentials are the m-th powers of their values at m = 1,
    # each below 1 in modulus in the domain, so term m takes one product
    # each from term m - 1's.  The tau side is (i z, y, 1) and the inverted
    # side (z, 1, y); s = 2 pi m/1.0 is exact.
    step = _TWO_PI / div
    decay_ratio = math.exp(-step * h)
    rise_ratio, fall_ratio = cmath.exp(step * (u - h)), cmath.exp(-step * u)
    decay, rise, fall = decay_ratio, rise_ratio, fall_ratio
    side = []
    for m in range(1, terms + 1):
        d = 1.0 - decay if decay < 0.5 else -math.expm1(-(_TWO_PI * m / div) * h)
        side.append(-(decay + rise + fall) / (m * d))
        decay *= decay_ratio
        rise *= rise_ratio
        fall *= fall_ratio
    return side


def _both_sides(z: complex, y: float, terms: int) -> tuple[list[complex], list[complex]]:
    return _lambert_side(1j * z, y, 1.0, terms), _lambert_side(z, 1.0, y, terms)


def _six_sums(tau_side: list[complex], inverted_side: list[complex]) -> complex:
    # the three tau-side sums minus the three inverted-side sums, term by term
    return sum(map(sub, tau_side, inverted_side), 0j)


def _ratio_closed_tail(z: complex, y: float) -> complex:
    return -_PI * z / y + 1j * _PI * z - (_PI / 4.0) * (y - 1.0 / y)


def _tau_prefix(p: DomainPoint) -> complex:
    return complex(0.0, -_PI / 2.0) + 1j * _PI * p.z - _PI * p.y / 4.0


def log_theta1_lambert(p: DomainPoint) -> complex:
    """log theta1(z, iy) in expanded form: -i pi/2 + i pi z - pi y/4 + sums.

    The expansion fixes the branch; no principal log of the product's value
    is ever taken, so the result is directly comparable across arguments.
    """
    _point(p)
    # its own terms, not p._sides: the inverted side may be past the cap
    return sum(_lambert_side(1j * p.z, p.y, 1.0, lambert_terms(p)), _tau_prefix(p))


def inversion_log_ratio(p: DomainPoint) -> complex:
    """phi = log theta1(z, iy) - log theta1(z/(iy), i/y), both logs expanded."""
    _point(p)
    tau_side, inverted_side = p._sides
    z, y = p.z, p.y
    # log theta1(z/(iy), i/y): the same expansion, prefactor pi z/y - pi/(4y)
    inverted = complex(0.0, -_PI / 2.0) + _PI * z / y - _PI / (4.0 * y)
    return (sum(tau_side[:lambert_terms(p)], _tau_prefix(p))
            - sum(inverted_side[:_inverted_side_terms(p)], inverted))


def inversion_log_ratio_lambert(p: DomainPoint) -> complex:
    """phi in its closed arrangement: six Lambert sums plus the closed tail."""
    _point(p)
    return _six_sums(*p._sides) + _ratio_closed_tail(p.z, p.y)


# ---------------------------------------------------------------------------
# The residue kernel and its closed-form residues
# ---------------------------------------------------------------------------

_KERNEL_OVERFLOW = "residue kernel overflowed the binary64 range"


def _finite(value: complex, what: str) -> complex:
    # the one range check that ends every closed form below
    if not cmath.isfinite(value):
        raise OverflowError(f"{what} overflowed the binary64 range")
    return value


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


def residue_kernel(zeta, p: DomainPoint) -> complex:
    """Meromorphic kernel whose residues reproduce the Lambert sums.

        -cot(pi i N zeta) cot(pi N zeta / y) / (8 zeta)
            + [1/(1-e^(2 pi N zeta))] [e^(-2 pi i (N/y)(1-z) zeta)
               / (1-e^(-2 pi i (N/y) zeta))] / zeta

    Triple pole at 0, simple poles at ik/N and ky/N for nonzero integer k.
    Both cotangents and both fractions are formed from three exponentials,
    none of modulus above 1 (see DomainPoint._kernel).  This is the first
    value of residue_kernel_pair, whose one body also forms the kernel at
    -zeta.  Evaluation closer than 1e-12/N to any pole raises
    PoleProximityError, a non-finite zeta DomainError, and a zeta so large
    that the nearest pole's index, an exponent or the kernel at zeta or at
    -zeta leaves the binary64 range OverflowError.  The zeta-free factors
    are computed once per DomainPoint.
    """
    # both checks inline: the quadrature calls this once per node, with a
    # finite complex zeta
    if not isinstance(p, DomainPoint):
        _point(p)  # raises
    if type(zeta) is complex and cmath.isfinite(zeta):
        return p._kernel(zeta)[0]
    return p._kernel(finite_complex(zeta, "zeta"))[0]


def residue_kernel_pair(zeta, p: DomainPoint) -> tuple[complex, complex]:
    """(residue_kernel(zeta, p), the kernel at -zeta), from one evaluation.

    The first value is residue_kernel's, bit for bit.  The second shares
    its exponentials, its two differences 1 - e^w and its pole guard (the
    pole set is symmetric about 0), and takes one exp of its own: four
    exps for the pair, where two calls take six.  It matches a separate
    call at -zeta to rounding, not bit for bit.  The arguments are checked
    and the errors raised as in residue_kernel; OverflowError where either
    value leaves the binary64 range.
    """
    if not isinstance(p, DomainPoint):
        _point(p)  # raises
    if type(zeta) is complex and cmath.isfinite(zeta):
        return p._kernel(zeta)
    return p._kernel(finite_complex(zeta, "zeta"))


def residue_at_zero(p: DomainPoint) -> complex:
    """Residue at the triple pole: i(y - 1/y)/8 + z/2 - i z^2/(2y) + i z/(2y) - 1/4.

    Carries no N, hence no dependence on p.n.  z^2/y is formed as z (z/y):
    as y > |Im z| and 0 < Re z < 1, |z/y| is at most about 1 where z is
    large, so that product is in range wherever the residue is.
    """
    _point(p)
    z, y = p.z, p.y
    return _finite(0.125j * (y - 1.0 / y) + 0.5 * z - 0.5j * z * (z / y) + 0.5j * z / y - 0.25,
                   "residue at 0")


def _pole_index(k) -> None:
    if not (isinstance(k, int) and not isinstance(k, bool) and k):
        raise DomainError(f"k must be a nonzero integer, got {k!r}")


def residue_imag_pole(k: int, p: DomainPoint) -> complex:
    """Residue at ik/N for nonzero integer k (closed form, N-free): with
    t = 2 pi |k|/y, coth(t/2)/(8 pi i |k|) + e^(-t u)/((1 - e^-t) 2 pi i |k|),
    u = z at k > 0 and 1 - z at k < 0, no exponential above 1 in modulus."""
    _pole_index(k)
    _point(p)
    m = abs(k)
    t = _TWO_PI * m / p.y
    u = 1.0 - p.z if k < 0 else p.z
    return _finite(1.0 / math.tanh(0.5 * t) / (8j * _PI * m)
                   + cmath.exp(-t * u) / -math.expm1(-t) / (2j * _PI * m), "imaginary-axis residue")


def residue_real_pole(k: int, p: DomainPoint) -> complex:
    """Residue at ky/N for nonzero integer k (closed form, N-free): with
    t = 2 pi |k| y and x = 2 pi i |k| z, -coth(t/2)/(8 pi i |k|)
    - e^v/((1 - e^-t) 2 pi i |k|), v = x - t at k > 0 and -x at k < 0."""
    _pole_index(k)
    _point(p)
    m = abs(k)
    t = _TWO_PI * m * p.y
    x = 2j * _PI * m * p.z
    return _finite(-1.0 / math.tanh(0.5 * t) / (8j * _PI * m)
                   - cmath.exp(-x if k < 0 else x - t) / -math.expm1(-t) / (2j * _PI * m),
                   "real-axis residue")


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
        return cls(at_zero, at_imag, at_real, _finite(2j * _PI * total, "residue total"))


def closed_residue_sum(p: DomainPoint) -> complex:
    """2 pi i times the enclosed residues, in closed summed form.

    Equals the Lambert sums truncated at n plus
    -(pi/4)(y - 1/y) + pi i z + pi z^2/y - pi z/y - pi i/2; identical to
    `ResidueBreakdown.total_times_2pi_i` up to roundoff.
    """
    _point(p)
    z, y = p.z, p.y
    sums = _six_sums(*_both_sides(z, y, p.n))
    return _finite(sums + _ratio_closed_tail(z, y) + _PI * z * z / y - 0.5j * _PI,
                   "closed residue sum")


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


def transformation_residual(z, tau) -> float:
    """Relative gap between theta1(z/tau, -1/tau) and the inversion right side.

    Normalized by max(1, |rhs|); works for general tau in the upper
    half-plane, not only tau = iy.  OverflowError, naming the inverted
    point, where z/tau or -1/tau is not finite or Im(-1/tau) underflows.
    """
    tau = require_tau(tau)
    z = finite_complex(z, "z")
    rhs = inversion_rhs(z, tau)
    inverted_z, inverted_tau = z / tau, -1.0 / tau
    if not (inverted_tau.imag > 0.0 and cmath.isfinite(inverted_z)
            and cmath.isfinite(inverted_tau)):
        raise OverflowError(f"inverted point (z/tau, -1/tau) = ({inverted_z!r}, "
                            f"{inverted_tau!r}) left the binary64 range")
    lhs = theta1(inverted_z, inverted_tau)
    return abs(lhs - rhs) / max(1.0, abs(rhs))
