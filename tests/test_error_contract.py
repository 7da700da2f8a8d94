"""The error contract of the proof replay: every call either answers with a
finite value or raises DomainError, ConvergenceError, OverflowError or
PoleProximityError, on arguments from the subnormal range to 1e300.

A seeded draw calls each replay entry; no hypothesis, so the gate is the
same on every run and takes well under a second.  The named cases below
are points where an entry used to leak a ValueError, a ZeroDivisionError or
a NaN, or raised an error that named the wrong point or refused a value in
range; where they answer, they are checked against mpmath.
"""

import cmath
import math
import random

import pytest

from siegeltheta import (
    ConvergenceError,
    DomainError,
    DomainPoint,
    PoleProximityError,
    ResidueBreakdown,
    closed_residue_sum,
    edge_limit_residual,
    inversion_log_ratio,
    inversion_log_ratio_lambert,
    inversion_rhs,
    lambert_terms,
    log_identity_residual,
    log_theta1_lambert,
    residue_at_zero,
    residue_imag_pole,
    residue_kernel,
    residue_kernel_pair,
    residue_real_pole,
    transformation_residual,
)
from siegeltheta.verifier import EDGES

DOCUMENTED = (DomainError, ConvergenceError, OverflowError, PoleProximityError)


def _size(rng):
    # a magnitude: an edge, one near 1, or log-uniform from the subnormal
    # range to 1e300
    draw = rng.random()
    if draw < 0.1:
        return rng.choice([5e-324, 1e-320, 1e-300, 1e-30, 1.0, 1e30, 1e300])
    return 10.0 ** (rng.uniform(-2.0, 1.0) if draw < 0.5 else rng.uniform(-323.0, 300.0))


def _signed(rng):
    return math.copysign(_size(rng), rng.random() - 0.5)


def _point(rng):
    # a in (0, 1), b < 0 and y > |b|, each side of the domain at any scale
    a = rng.choice([_size(rng) % 1.0 or 0.5, 1.0 - 10.0 ** rng.uniform(-16.0, -0.01),
                    rng.uniform(0.01, 0.99)])
    b = -_size(rng)
    y = min(abs(b) + rng.choice([_size(rng), abs(b) * 10.0 ** rng.uniform(-15.0, 3.0)]), 1e300)
    return DomainPoint(a, b, max(y, math.nextafter(-b, math.inf)), rng.randint(1, 9))


def _calls(rng):
    """One call of each replay entry at seeded arguments, as (name, thunk)."""
    z, zeta = complex(_signed(rng), _signed(rng)), complex(_signed(rng), _signed(rng))
    tau = complex(_signed(rng), _size(rng))
    p = _point(rng)
    k = rng.choice([1, -1, 2, -3]) * rng.choice([1, 1, 10 ** rng.randint(1, 18)])
    edge, t = rng.choice(EDGES), rng.uniform(0.0, 1.0)
    return [
        ("inversion_rhs", lambda: inversion_rhs(z, tau)),
        ("transformation_residual", lambda: transformation_residual(z, tau)),
        ("lambert_terms", lambda: lambert_terms(p)),
        ("log_theta1_lambert", lambda: log_theta1_lambert(p)),
        ("inversion_log_ratio", lambda: inversion_log_ratio(p)),
        ("inversion_log_ratio_lambert", lambda: inversion_log_ratio_lambert(p)),
        ("log_identity_residual", lambda: log_identity_residual(p)),
        ("closed_residue_sum", lambda: closed_residue_sum(p)),
        ("residue_at_zero", lambda: residue_at_zero(p)),
        ("residue_imag_pole", lambda: residue_imag_pole(k, p)),
        ("residue_real_pole", lambda: residue_real_pole(k, p)),
        ("ResidueBreakdown.compute", lambda: ResidueBreakdown.compute(p)),
        ("residue_kernel", lambda: residue_kernel(zeta, p)),
        ("residue_kernel_pair", lambda: residue_kernel_pair(zeta, p)),
        ("edge_limit_residual", lambda: edge_limit_residual(edge, t, p)),
    ]


def _all_finite(value) -> bool:
    if isinstance(value, ResidueBreakdown):
        return all(map(_all_finite, (value.at_zero, value.total_times_2pi_i,
                                 *(v for _, v in value.at_imag + value.at_real))))
    if isinstance(value, tuple):  # the kernel's pair
        return all(map(_all_finite, value))
    return cmath.isfinite(value)


def _breaches(seed: int, draws: int) -> list[str]:
    rng = random.Random(seed)
    found = []
    for _ in range(draws):
        for name, call in _calls(rng):
            try:
                value = call()
            except DOCUMENTED:
                continue
            except Exception as error:  # a leak: the contract names no other type
                found.append(f"{name}: {error!r}")
                continue
            if not _all_finite(value):
                found.append(f"{name}: {value!r}")
    return found


def test_seeded_replay_calls_answer_or_raise_a_documented_error():
    assert _breaches(20261020, 1000) == []


# ---------------------------------------------------------------------------
# The named cases
# ---------------------------------------------------------------------------

WIDE_Y = DomainPoint(0.5, -0.25, 1e20)  # 1 - e^(-2 pi/y) rounds to 0
SUBNORMAL_Y = DomainPoint(0.5, -1e-320, 2e-320)  # eps (1 - e^(-2 pi |b|)) underflows
FLAT = DomainPoint(1e-300, -0.25, 1e30)  # the inverted side's rate a/y underflows


@pytest.mark.parametrize("call,error,match", [
    # z^2 overflows in the exponent pi i z^2/tau
    (lambda: inversion_rhs(9.539244166519702e+265 - 2.290611591617558j,
                           8.308145596475298e+63 + 1.0709004573895002j),
     OverflowError, "^inversion right side overflowed the binary64 range$"),
    # Im(-1/tau) underflows: the error names the inverted point, not the
    # caller's tau
    (lambda: transformation_residual(0.3, 1e200 + 1j), OverflowError,
     r"^inverted point \(z/tau, -1/tau\) = \(\(3e-201-0j\), \(-1e-200\+0j\)\) "
     "left the binary64 range$"),
    # coth(pi y)/(8 pi) is about 5e318
    (lambda: residue_real_pole(1, SUBNORMAL_Y),
     OverflowError, "^real-axis residue overflowed the binary64 range$"),
    # i (y - 1/y)/8 is about 6e318
    (lambda: ResidueBreakdown.compute(SUBNORMAL_Y),
     OverflowError, "^residue at 0 overflowed the binary64 range$"),
    (lambda: lambert_terms(SUBNORMAL_Y),
     ConvergenceError, r"^Lambert tail bound inf > eps=1\.000e-13 at 4000 terms$"),
    (lambda: inversion_log_ratio(FLAT), ConvergenceError, "^Lambert tail bound inf "),
    (lambda: inversion_log_ratio_lambert(FLAT), ConvergenceError, "^Lambert tail bound inf "),
    (lambda: log_identity_residual(FLAT), ConvergenceError, "^Lambert tail bound inf "),
])
def test_named_cases_raise_the_documented_error(call, error, match):
    with pytest.raises(error, match=match) as caught:
        call()
    if error is ConvergenceError:
        assert caught.value.achieved == math.inf


def test_named_cases_that_answer_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpc, pi = mpmath.mpc, mpmath.pi

    def close(value, want, tol):
        assert abs(value - want) <= tol * abs(want), (value, complex(want))

    with mpmath.workdps(60):
        # the principal root joins the exponent, which alone is e^727
        z, tau = math.nextafter(5.0, 6.0), 0.108j
        want = (-1j * mpmath.sqrt(-1j * mpc(tau)) * mpmath.exp(1j * pi * z * z / mpc(tau))
                * mpmath.jtheta(1, pi * z, mpmath.exp(1j * pi * mpc(tau))))
        close(inversion_rhs(z, tau), want, 1e-12)

        # Lemma 2's residues at y = 1e20, and 2 pi i times their sum
        p = WIDE_Y
        zm, y = mpc(p.z), mpmath.mpf(p.y)

        def imag(k):
            return (mpmath.coth(pi * k / y) / (8j * pi * k)
                    + mpmath.exp(-2 * pi * k * zm / y) / (1 - mpmath.exp(-2 * pi * k / y))
                    / (2j * pi * k))

        def real(k):
            return (-mpmath.coth(pi * k * y) / (8j * pi * k)
                    - mpmath.exp(2j * pi * k * zm - 2 * pi * k * y)
                    / (1 - mpmath.exp(-2 * pi * k * y)) / (2j * pi * k))

        for k in (1, -1, 3, -3):
            close(residue_imag_pole(k, p), imag(k), 1e-14)
            close(residue_real_pole(k, p), real(k), 1e-14)
        at_zero = (1j * (y - 1 / y) / 8 + zm / 2 - 1j * zm * zm / (2 * y)
                   + 1j * zm / (2 * y) - mpmath.mpf(1) / 4)
        total = 2j * pi * (at_zero + imag(1) + imag(-1) + real(1) + real(-1))
        close(ResidueBreakdown.compute(p).total_times_2pi_i, total, 1e-14)
        close(closed_residue_sum(p), total, 1e-14)

        # the kernel on the imaginary axis, where e^(-2 pi i (N/y) zeta) rounds to 1
        zeta, cap = 0.3j, mpmath.mpf(p.N)
        b = -2j * pi * (cap / y) * zeta
        want = (-mpmath.cot(1j * pi * cap * zeta) * mpmath.cot(pi * cap * zeta / y) / (8 * zeta)
                + mpmath.exp((1 - zm) * b) / (1 - mpmath.exp(2 * pi * cap * zeta))
                / (1 - mpmath.exp(b)) / zeta)
        close(residue_kernel(zeta, p), want, 1e-14)

        # z^2 overflows, but z (z/y) does not: the residue is about 6.3e288i
        p = DomainPoint(0.97095088934662, -4.195108307611371e+288, 6.640907113846415e+289, 5)
        zm, y = mpc(p.z), mpmath.mpf(p.y)
        close(residue_at_zero(p), 1j * (y - 1 / y) / 8 + zm / 2 - 1j * zm * zm / (2 * y)
              + 1j * zm / (2 * y) - mpmath.mpf(1) / 4, 1e-15)
