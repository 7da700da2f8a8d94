"""Independent high-precision reference for the theta functions.

Each function is summed from its tau-form Fourier series in mpmath,

    theta1 = 2 sum_{n>=0} (-1)^n q^((n+1/2)^2) sin((2n+1) pi z)
    theta2 = 2 sum_{n>=0}        q^((n+1/2)^2) cos((2n+1) pi z)
    theta3 = 1 + 2 sum_{n>=1}        q^(n^2) cos(2 n pi z)
    theta4 = 1 + 2 sum_{n>=1} (-1)^n q^(n^2) cos(2 n pi z)

with q^a read as exp(i pi tau a).  No modular transformation and no
q^(1/4) root is taken, so the branch is that of the tau-parametrized
product for every Re tau (mpmath.jtheta takes q and differs from it
outside -1 < Re tau <= 1).  The working precision is raised until two
precisions agree to AGREE_DIGITS significant digits; near the real axis
the terms exceed the sum by hundreds of orders, and the precision covers
that cancellation.

The e^(+i..) and e^(-i..) halves of each series are summed separately,
walking outward from their largest term: mpmath gives the start term and
ratios, and the walk itself runs in fixed-point Python integers, about ten
times faster than mpc arithmetic and exact up to one unit per step.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpc

AGREE_DIGITS = 30
RANGE_DIGITS = 300  # binary64 answers exist for 1e-300 <= |theta| <= 1e300
KINDS = ("theta1", "theta2", "theta3", "theta4")
_LN2 = math.log(2.0)
_LOG10_2 = math.log10(2.0)


class Reference:
    """theta_kind(z, tau) as a binary64 complex plus its exact log10 magnitude.

    ``log10_abs`` stays meaningful where ``value`` under- or overflows.
    """

    __slots__ = ("value", "log10_abs")

    def __init__(self, value: complex, log10_abs: float):
        self.value = value
        self.log10_abs = log10_abs

    @property
    def in_range(self) -> bool:
        return -RANGE_DIGITS <= self.log10_abs <= RANGE_DIGITS


def _shape(kind: str):
    # (offset c of n in the exponent, first n, sign alternates, sine series)
    half = kind in ("theta1", "theta2")
    return (0.5 if half else 0.0), (0 if half else 1), kind in ("theta1", "theta4"), kind == "theta1"


def _log_term(tau: complex, z: complex, s: int, m: float) -> float:
    """Natural log of |q^(m^2) e^(2 i pi s z m)|."""
    return -math.pi * m * (tau.imag * m + 2.0 * s * z.imag)


def _peak(kind: str, tau: complex, z: complex, s: int) -> int:
    # index n of the largest term of the s-series
    c, first, _, _ = _shape(kind)
    return max(first, round(-s * z.imag / tau.imag - c))


def _log_largest_term(kind: str, z: complex, tau: complex) -> float:
    c = _shape(kind)[0]
    best = max(_log_term(tau, z, s, _peak(kind, tau, z, s) + c) for s in (1, -1))
    return max(best, 0.0) if c == 0.0 else best


def _fixed(value, shift: int):
    """An mpc scaled by 2^shift as a pair of integers."""
    return int(mpmath.nint(mpmath.ldexp(value.real, shift))), int(
        mpmath.nint(mpmath.ldexp(value.imag, shift))
    )


def _sum_from_peak(kind: str, z, tau, s: int, bits: int, unit_exp: int) -> tuple[int, int]:
    """Sum of sign_n q^((n+c)^2) e^(2 i pi s z (n+c)) over n >= first, in
    integer units of 2^unit_exp, walking outward from the largest term.

    Every step away from the peak shrinks the terms, so the fixed-point
    rounding of each step stays at one unit and never gets amplified.
    """
    c, first, alternating, _ = _shape(kind)
    q = bits + 16  # fractional bits of the ratios
    ipi = mpc(0, 1) * mp.pi
    z_mp = mpc(z.real, z.imag)
    tau_mp = mpc(tau.real, tau.imag)
    n0 = _peak(kind, tau, z, s)
    m0 = n0 + c
    sign = -1 if alternating and n0 % 2 else 1
    term0 = sign * mp.exp(ipi * tau_mp * m0 * m0 + 2 * ipi * s * z_mp * m0)
    flip = -1 if alternating else 1
    # term_{n+1}/term_n = flip q^(2m+1) e^(2 i pi s z); consecutive ratios differ by q^2
    rot = 2 * ipi * s * z_mp
    up = flip * mp.exp(ipi * tau_mp * (2 * m0 + 1) + rot)
    down = flip * mp.exp(-ipi * tau_mp * (2 * m0 - 1) - rot)
    step = _fixed(mp.exp(2 * ipi * tau_mp), q)
    sr, si = step
    total_r, total_i = _fixed(term0, -unit_exp)
    for ratio, stop in ((up, None), (down, first)):
        tr, ti = _fixed(term0, -unit_exp)
        rr, ri = _fixed(ratio, q)
        n = n0
        while True:
            if stop is not None and n <= stop:
                break
            tr, ti = (tr * rr - ti * ri) >> q, (tr * ri + ti * rr) >> q
            if -2 < tr < 2 and -2 < ti < 2:
                break
            total_r += tr
            total_i += ti
            rr, ri = (rr * sr - ri * si) >> q, (rr * si + ri * sr) >> q
            n = n + 1 if stop is None else n - 1
    return total_r, total_i


def _run(kind: str, z: complex, tau: complex, bits: int, log2_big: float):
    """Evaluate with absolute accuracy about 2^-bits times the largest term.

    Returns the value as an mpc and log10 of its magnitude.
    """
    unit_exp = math.ceil(log2_big) - bits
    with mp.workprec(bits + 40):
        plus = _sum_from_peak(kind, z, tau, 1, bits, unit_exp)
        minus = _sum_from_peak(kind, z, tau, -1, bits, unit_exp)
        c, _, _, sine = _shape(kind)
        if sine:
            # 2 sin x = -i (e^(ix) - e^(-ix))
            re, im = plus[1] - minus[1], minus[0] - plus[0]
        else:
            re, im = plus[0] + minus[0], plus[1] + minus[1]
        value = mpc(mpmath.ldexp(re, unit_exp), mpmath.ldexp(im, unit_exp))
        if c == 0.0:
            value += 1
        log10_abs = float(mpmath.log10(abs(value))) if value != 0 else -math.inf
    return value, log10_abs


def theta_reference(kind: str, z: complex, tau: complex) -> Reference:
    """Evaluate theta_kind(z, tau) until two precisions agree to AGREE_DIGITS.

    A magnitude outside 10^+-RANGE_DIGITS only needs to be established, not
    resolved to AGREE_DIGITS; such a Reference has ``in_range`` False.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    z = complex(z)
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise ValueError("tau must lie in the upper half-plane")
    log2_big = _log_largest_term(kind, z, tau) / _LN2
    big = log2_big * _LOG10_2  # log10 of the largest term
    agree = math.ceil(AGREE_DIGITS / _LOG10_2)
    runs = {}  # bits -> value, so no precision is summed twice

    def run(bits):
        if bits not in runs:
            runs[bits] = _run(kind, z, tau, bits, log2_big)
        return runs[bits]

    # a cheap pass finds the magnitude unless the terms cancel by > 35 digits
    value, size = run(agree + 50)
    if size < big - 35:
        # resolve down to 10^-(RANGE_DIGITS+10): below that it is out of range
        value, size = run(math.ceil((big + RANGE_DIGITS + 10) / _LOG10_2))
        if size < -RANGE_DIGITS - 5:
            return Reference(complex(value), size)
    if abs(size) > RANGE_DIGITS + 5:
        return Reference(complex(value), size)
    bits = agree + 50 + math.ceil(max(0.0, big - size) / _LOG10_2)
    for _ in range(8):
        low, _ = run(bits)
        high, size = run(bits + 64)
        with mp.workprec(bits + 64):
            if high != 0 and abs(high - low) <= mpmath.mpf(10) ** (-AGREE_DIGITS) * abs(high):
                return Reference(complex(high), size)
        bits += 128
    raise RuntimeError(f"reference for {kind}({z}, {tau}) did not settle")
