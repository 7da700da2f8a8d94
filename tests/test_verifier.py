import cmath
import copy
import math
import pickle
import random
import re

import pytest

from siegeltheta import (
    ConvergenceError,
    DomainError,
    DomainPoint,
    PoleProximityError,
    ResidueBreakdown,
    closed_residue_sum,
    edge_limit_residual,
    edge_limit_target,
    edge_limit_value,
    inversion_log_ratio,
    inversion_log_ratio_lambert,
    lambert_terms,
    log_identity_residual,
    log_theta1_lambert,
    pole_distance,
    residue_at_zero,
    residue_by_circle,
    residue_imag_pole,
    residue_kernel,
    residue_kernel_pair,
    residue_pair_by_circle,
    residue_real_pole,
    theta1,
    transformation_residual,
)
from siegeltheta.suites import (_lemma2_circles, _lemma2_radius, _lemma2_rhombus,
                                sample_domain_points, sample_grid)
from siegeltheta.theta import _one_minus_exp
from siegeltheta.verifier import LAMBERT_EPS, LAMBERT_MAX_TERMS, _both_sides, _inverted_side_terms

PI = math.pi

P0 = DomainPoint(0.5, -0.25, 2.0)
REFERENCE_POINTS = [
    DomainPoint(0.5, -0.25, 2.0),
    DomainPoint(0.3, -0.1, 1.5),
    DomainPoint(0.7, -0.05, 4.0),
]


def test_domain_point_validation():
    with pytest.raises(DomainError):
        DomainPoint(0.5, 0.1, 2.0)  # b must be negative
    with pytest.raises(DomainError):
        DomainPoint(1.2, -0.1, 2.0)  # a outside (0, 1)
    with pytest.raises(DomainError):
        DomainPoint(0.5, -0.5, 0.4)  # y <= |b|
    with pytest.raises(DomainError):
        DomainPoint(0.5, -0.1, 2.0, n=0)
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    assert p.z == 0.5 - 0.25j
    assert p.N == 3.5
    # _replace and _make build new points, validated the same way
    with pytest.raises(DomainError, match="n must be a positive integer"):
        p._replace(n=0)
    with pytest.raises(DomainError, match="b must be negative"):
        DomainPoint._make((0.5, 0.1, 2.0, 1))
    assert p._replace(n=4) == DomainPoint(0.5, -0.25, 2.0, 4)


def test_domain_point_repr_hash_and_equality():
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    assert repr(p) == "DomainPoint(a=0.5, b=-0.25, y=2.0, n=3)"
    assert hash(p) == hash((0.5, -0.25, 2.0, 3))
    assert p == DomainPoint(a=0.5, b=-0.25, y=2.0, n=3)
    assert p != DomainPoint(0.5, -0.25, 2.0, 4)
    assert p == (0.5, -0.25, 2.0, 3)  # a namedtuple equals its plain tuple


@pytest.mark.parametrize("p", REFERENCE_POINTS, ids=lambda p: f"y={p.y}")
def test_log_lambert_matches_product(p):
    expanded = cmath.exp(log_theta1_lambert(p))
    product = theta1(p.z, complex(0.0, p.y))
    assert abs(expanded - product) / abs(product) < 1e-10


def test_lambert_term_at_cutoff_is_below_eps():
    p = P0
    m = lambert_terms(p)
    # m-th term of the three boundary sums, written directly
    z, y = p.z, p.y
    e = math.exp(2 * m * PI * y)
    term = (
        (1.0 / m) / (1.0 - e)
        + (cmath.exp(2j * m * PI * z) / m) / (1.0 - e)
        + (cmath.exp(-2j * m * PI * z) / m) * e / (1.0 - e)
    )
    assert abs(term) < 10.0 * LAMBERT_EPS


def test_lambert_terms_past_the_cap_is_a_convergence_error():
    # rate |b| = 1e-6: e^(-2 pi 4000 rate) / (4000 (1 - e^(-2 pi rate))) is about 38.8
    with pytest.raises(ConvergenceError, match=r"Lambert tail bound 3\.880e\+01 "
                       r"> eps=1\.000e-13 at 4000 terms") as info:
        lambert_terms(DomainPoint(0.5, -1e-6, 2.0))
    assert info.value.achieved == pytest.approx(38.8, rel=1e-3)


def test_lambert_terms_do_not_grow_with_y():
    fast = DomainPoint(0.5, -0.25, 5.0)
    slow = DomainPoint(0.5, -0.25, 2.0)
    assert lambert_terms(fast) <= lambert_terms(slow)


@pytest.mark.parametrize("p", REFERENCE_POINTS, ids=lambda p: f"y={p.y}")
def test_phi_arrangements_agree(p):
    assert abs(inversion_log_ratio(p) - inversion_log_ratio_lambert(p)) < 1e-10


def test_phi_arrangements_agree_on_seeded_points():
    for p in sample_domain_points(10, seed=7):
        assert abs(inversion_log_ratio(p) - inversion_log_ratio_lambert(p)) < 1e-10


def _lambert_as_first_written(p, sums):
    # the sums with each side's terms formed afresh for every sum, as they
    # were before the points shared their Lambert terms between arrangements:
    # term m is -(e^(-s h) + e^(s (u-h)) + e^(-s u))/(m (1 - e^(-s h))),
    # s = 2 pi m/div, each exponential the one of term m - 1 times its value
    # at m = 1; sums names the function to rebuild
    def side(u, h, div, count):
        step = 2.0 * PI / div
        decay_ratio = math.exp(-step * h)
        rise_ratio, fall_ratio = cmath.exp(step * (u - h)), cmath.exp(-step * u)
        decay, rise, fall = decay_ratio, rise_ratio, fall_ratio
        terms = []
        for m in range(1, count + 1):
            assert decay < 0.5  # these points never take the expm1 branch
            terms.append(-(decay + rise + fall) / (m * (1.0 - decay)))
            decay, rise, fall = decay * decay_ratio, rise * rise_ratio, fall * fall_ratio
        return terms

    def tau_terms(count):
        return side(1j * z, y, 1.0, count)

    def inverted_terms(count):
        return side(z, 1.0, y, count)

    def six_sums(count):
        total = 0.0j
        for tau_term, inverted_term in zip(tau_terms(count), inverted_terms(count)):
            total += tau_term - inverted_term
        return total

    z, y = p.z, p.y
    tail = -PI * z / y + 1j * PI * z - (PI / 4.0) * (y - 1.0 / y)
    tau_log = complex(0.0, -PI / 2.0) + 1j * PI * z - PI * y / 4.0
    for tau_term in tau_terms(lambert_terms(p)):
        tau_log += tau_term
    if sums is log_theta1_lambert:
        return tau_log
    if sums is closed_residue_sum:
        return six_sums(p.n) + tail + PI * z * z / y - 0.5j * PI
    inverted_count = _inverted_side_terms(p)
    if sums is inversion_log_ratio:
        inverted_log = complex(0.0, -PI / 2.0) + PI * z / y - PI / (4.0 * y)
        for inverted_term in inverted_terms(inverted_count):
            inverted_log += inverted_term
        return tau_log - inverted_log
    assert sums is inversion_log_ratio_lambert
    return six_sums(max(lambert_terms(p), inverted_count)) + tail


def test_lambert_sums_match_their_per_term_formula_bit_for_bit():
    rng = random.Random(20261019)
    points = []
    for _ in range(60):
        a = rng.choice([rng.uniform(0.04, 0.06), rng.uniform(0.94, 0.96), rng.uniform(0.05, 0.95)])
        b = -rng.uniform(0.01, 0.45)
        points.append(DomainPoint(a, b, rng.uniform(max(0.5, 0.05 - b), 4.0), rng.randint(1, 30)))
    longer = [lambert_terms(p) > _inverted_side_terms(p) for p in points]
    assert 5 < sum(longer) < 55  # each side is the longer one at some points
    for p in points:
        for sums in (log_theta1_lambert, inversion_log_ratio, inversion_log_ratio_lambert,
                     closed_residue_sum):
            # on a fresh point, and on p, whose terms the earlier sums formed
            for fresh in (p._replace(), p):
                assert repr(sums(fresh)) == repr(_lambert_as_first_written(p, sums)), (sums, p)


def test_lambert_sides_keep_their_accuracy_near_the_term_cap():
    # term m's exponentials are the m-th powers of three ratios, by one
    # product each from term m - 1's; here the sides run to up to 3,960 of
    # the LAMBERT_MAX_TERMS = 4000 terms.  The reference is each side's
    # three sums at 30 digits for the same binary64 point; the bound is the
    # worst error the earlier form, three exps per term, made on this draw
    # (4.339e-15), relative to max(1, |sum|)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261020)
    worst, longest = 0.0, 0
    for index in range(4):
        rate = 10.0 ** rng.uniform(math.log10(0.00138), math.log10(0.00145))
        if index % 2 == 0:  # the tau side is the long one
            p = DomainPoint(rng.uniform(0.05, 0.95), -rate, rng.uniform(0.5, 3.0))
        else:  # the inverted side, at a near 0 or near 1
            y = rng.uniform(1.0, 3.0)
            a = rate * y if index == 1 else 1.0 - rate * y
            p = DomainPoint(a, -rng.uniform(0.05, 0.45), y)
        terms = max(lambert_terms(p), _inverted_side_terms(p))
        longest = max(longest, terms)
        for side, (u, h, div) in zip(_both_sides(p.z, p.y, terms),
                                     ((1j * p.z, p.y, 1.0), (p.z, 1.0, p.y))):
            with mpmath.workdps(30):
                step = 2 * mpmath.pi / div
                ratios = (mpmath.exp(-step * h), mpmath.exp(step * (mpmath.mpc(u) - h)),
                          mpmath.exp(-step * mpmath.mpc(u)))
                powers, want = ratios, mpmath.mpc(0)
                for m in range(1, terms + 1):
                    want -= sum(powers) / (m * (1 - powers[0]))
                    powers = [power * ratio for power, ratio in zip(powers, ratios)]
                want = complex(want)
            worst = max(worst, abs(sum(side, 0j) - want) / max(1.0, abs(want)))
    assert 3900 < longest < LAMBERT_MAX_TERMS
    assert worst <= 4.3e-15


def test_shared_lambert_terms_do_not_widen_failures():
    # the inverted side is past the term cap here, the tau side is not
    p = DomainPoint(1e-4, -0.25, 2.0)
    assert repr(log_theta1_lambert(p)) == "(-1.018460934952166-1.5703172852959717j)"
    for sums in (inversion_log_ratio, inversion_log_ratio_lambert, log_identity_residual):
        with pytest.raises(ConvergenceError, match=r"^Lambert tail bound 2\.265e-01 "
                           r"> eps=1\.000e-13 at 4000 terms$"):
            sums(p)
    assert repr(log_theta1_lambert(p)) == "(-1.018460934952166-1.5703172852959717j)"


def test_log_identity_at_y_equal_one():
    # log(1) = 0, so phi + pi z^2 - i pi/2 must vanish
    p = DomainPoint(0.5, -0.25, 1.0)
    phi = inversion_log_ratio_lambert(p)
    assert abs(phi + PI * p.z * p.z - 0.5j * PI) < 1e-10


def test_kernel_pole_guard():
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    with pytest.raises(PoleProximityError):
        residue_kernel(1j / p.N, p)
    with pytest.raises(PoleProximityError):
        residue_kernel(p.y / p.N + 1e-14, p)
    with pytest.raises(PoleProximityError):
        residue_kernel(0.0, p)


def test_pole_distance():
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    assert pole_distance(0.0, p) == 0.0
    assert abs(pole_distance(0.5j / p.N, p) - 0.5 / p.N) < 1e-15


def test_kernel_finite_at_generic_points():
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    zeta = 0.123 + 0.077j
    for point in (zeta, -zeta):
        value = residue_kernel(point, p)
        assert math.isfinite(value.real) and math.isfinite(value.imag)


def _exp_and_difference(w):
    # (E, D, shift): E = e^w and D = 1 - E, or where Re w > 0, E = e^-w and
    # D = E - 1, shift being the w that e^a's exponent gives up there
    if w.real > 0.0:
        e = cmath.exp(-w)
        return e, e - 1.0, w
    e = cmath.exp(w)
    return e, 1.0 - e, 0.0


def _difference(w):
    # D of _exp_and_difference, formed by expm1 where it is below 1/2 in
    # modulus
    d = _exp_and_difference(w)[1]
    if abs(d) < 0.5:
        d = -_one_minus_exp(-w) if w.real > 0.0 else _one_minus_exp(w)
    return d


def _kernel_per_call(zeta, p):
    # the kernel with every factor recomputed per call:
    # ((1 + E_s)(1 + E_b)/8 + e^(a - shift_s - shift_b))/(D_s D_b zeta), the
    # two divisions by D_s and D_b taken one at a time, and D_s and D_b
    # formed by expm1 where they are below 1/2 in modulus
    zeta = complex(zeta)
    if pole_distance(zeta, p) < 1e-12 / p.N:
        raise PoleProximityError(f"zeta={zeta!r} is within 1e-12/N of a kernel pole")
    cap, y, z = p.N, p.y, p.z
    s = 2.0 * PI * cap * zeta
    b = -2j * PI * (cap / y) * zeta
    e_s, _, shift_s = _exp_and_difference(s)
    e_b, _, shift_b = _exp_and_difference(b)
    d_s, d_b = _difference(s), _difference(b)
    a = (1.0 - z) * b - shift_s - shift_b
    return 1.0 / d_s / d_b * ((1.0 + e_s) * (1.0 + e_b) * 0.125 + cmath.exp(a)) / zeta


def _kernel_outcome(kernel, zeta, p):
    try:
        return repr(kernel(zeta, p))
    except PoleProximityError:
        return "pole"


def test_kernel_matches_its_unhoisted_formula_bit_for_bit():
    rng = random.Random(20240611)
    points = [
        DomainPoint(rng.uniform(0.05, 0.95), -rng.uniform(0.02, 0.45),
                    rng.uniform(0.5, 4.0), rng.randint(1, 25))
        for _ in range(40)
    ]
    poles = cancels = near_zero = 0
    for index in range(2000):
        p = points[index % len(points)]
        if index % 4 == 0:  # around a pole, some within the 1e-12/N guard
            k = rng.randint(-p.n, p.n)
            pole = 1j * k / p.N if rng.random() < 0.5 else k * p.y / p.N
            offset = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            zeta = pole + offset * 10.0 ** rng.uniform(-14.0, -10.0) / p.N
        else:
            zeta = complex(rng.uniform(-1.2, 1.2) * p.y, rng.uniform(-1.2, 1.2))
        expected = _kernel_outcome(_kernel_per_call, zeta, p)
        assert _kernel_outcome(residue_kernel, zeta, p) == expected, (zeta, p)
        # the pair's first value is residue_kernel's
        first = _kernel_outcome(lambda w, q: residue_kernel_pair(w, q)[0], zeta, p)
        assert first == expected, (zeta, p)
        poles += expected == "pole"
        cancels += abs(_exp_and_difference(-2j * PI * (p.N / p.y) * zeta)[1]) < 0.5
        near_zero += (expected != "pole"
                      and abs(_exp_and_difference(2.0 * PI * p.N * zeta)[1]) < 0.5)
    assert 100 < poles < 500
    assert 100 < cancels < 1900  # both forms of D_b are reached
    assert 10 < near_zero < 500  # and of D_s, near the triple pole


@pytest.mark.parametrize("n", [1, 3, 25])
def test_kernel_guard_is_the_pole_distance_below_1e_12_over_n(n):
    # the kernel skips the exact distance off both axes; at every pole, and
    # along, across and diagonally off its axis, it must still raise
    # exactly where pole_distance is below the guard
    p = DomainPoint(0.5, -0.25, 2.0, n)
    guard = 1e-12 / p.N
    poles = [0j]
    for k in {1, n}:
        poles += [1j * k / p.N, -1j * k / p.N, k * p.y / p.N, -k * p.y / p.N]
    for pole in poles:
        along, across = (1j, 1.0) if pole.real == 0.0 else (1.0, 1j)
        for direction in (along, across, along + across, along - across):
            for s in (0.5, 0.99, 1.01, 2.0, -0.5, -0.99, -1.01, -2.0):
                zeta = pole + s * guard * direction / abs(direction)
                if pole_distance(zeta, p) < guard:
                    with pytest.raises(PoleProximityError):
                        residue_kernel(zeta, p)
                else:
                    assert cmath.isfinite(residue_kernel(zeta, p)), (pole, zeta)


def test_kernel_constants_leave_the_point_unchanged():
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    before = (repr(p), hash(p), p._asdict())
    residue_kernel(0.1 + 0.2j, p)
    phi = inversion_log_ratio(p)
    assert (repr(p), hash(p), p._asdict()) == before
    assert p == DomainPoint(0.5, -0.25, 2.0, 3)
    # a replaced point forms its own terms and kernel
    moved = p._replace(y=3.0)
    fresh = DomainPoint(0.5, -0.25, 3.0, 3)
    assert repr(inversion_log_ratio(moved)) == repr(inversion_log_ratio(fresh))
    assert repr(inversion_log_ratio(moved)) != repr(phi)
    assert repr(residue_kernel(0.1 + 0.2j, moved)) == repr(residue_kernel(0.1 + 0.2j, fresh))
    # pickle and copy carry the four fields only, and rebuild through the
    # validating constructor
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and type(clone) is DomainPoint and not vars(clone)
        assert repr(inversion_log_ratio(clone)) == repr(phi)


@pytest.mark.parametrize(
    "zeta",
    [complex(math.nan, 0.0), complex(0.1, math.nan), complex(math.inf, 0.0),
     complex(0.0, -math.inf), complex(-math.inf, math.inf)],
    ids=repr,
)
def test_kernel_rejects_non_finite_zeta(zeta):
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    with pytest.raises(DomainError, match="zeta must be finite"):
        residue_kernel(zeta, p)
    with pytest.raises(DomainError, match="zeta must be finite"):
        pole_distance(zeta, p)


@pytest.mark.parametrize(
    "zeta",
    [1e308, -1e308j,  # the nearest pole's index overflows
     # off both axes, so no index is formed: 2 pi N zeta has an infinite
     # imaginary part, on which cmath.exp raises ValueError
     0.3 + 1e307j, 0.3 + 1e308j],
    ids=repr,
)
def test_kernel_overflow_is_the_documented_error(zeta):
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    with pytest.raises(OverflowError, match="^residue kernel overflowed the binary64 range$"):
        residue_kernel(zeta, p)


def test_kernel_answers_where_its_factors_leave_the_binary64_range():
    # e^a alone overflows at both points; joined with e^-s it does not.
    # mpmath at 50 digits gives the first value, and -6.1e-50i for the
    # second, where cot(pi N zeta/y) vanishes and binary64's pi leaves
    # 1e-14 of it
    value = residue_kernel(532.3037904003828 + 29.66979061487317j,
                           DomainPoint(0.5, -0.25, 2.0, 3))
    expected = 0.00023410101168363143 - 1.3048428594053323e-05j
    assert abs(value - expected) <= 1e-15 * abs(expected)
    assert abs(residue_kernel(2 + 0j, DomainPoint(0.5, -0.25, 2.0, 452))) <= 1e-13


def _kernel_mpmath(mp, zeta, p):
    # the kernel in mp's precision, from its cotangent form, at the same
    # binary64 inputs
    w, cap, y = mp.mpc(zeta), mp.mpf(p.n) + mp.mpf(0.5), mp.mpf(p.y)
    b = -2j * mp.pi * (cap / y) * w
    return complex(-mp.cot(mp.pi * 1j * cap * w) * mp.cot(mp.pi * cap * w / y) / (8 * w)
                   + mp.exp((1 - mp.mpc(p.a, p.b)) * b)
                   / ((1 - mp.exp(2 * mp.pi * cap * w)) * (1 - mp.exp(b)) * w))


def test_kernel_matches_mpmath_at_generic_points():
    # 40-digit cotangents and exponentials of the same binary64 inputs; a
    # point is generic at a quarter of the pole spacing or more from every
    # pole, where lemma2's circles run.  Both values of the pair too
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    rng = random.Random(20240611)
    points = [
        DomainPoint(rng.uniform(0.05, 0.95), -rng.uniform(0.02, 0.45),
                    rng.uniform(0.5, 4.0), rng.randint(1, 25))
        for _ in range(40)
    ]
    checked = 0
    while checked < 2000:
        p = points[checked % len(points)]
        zeta = complex(rng.uniform(-1.2, 1.2) * p.y, rng.uniform(-1.2, 1.2))
        if pole_distance(zeta, p) < 0.25 / p.N:
            continue
        exact, mirror = _kernel_mpmath(mp, zeta, p), _kernel_mpmath(mp, -zeta, p)
        assert abs(residue_kernel(zeta, p) - exact) <= 1e-13 * abs(exact), (zeta, p)
        at, mirrored = residue_kernel_pair(zeta, p)
        assert abs(at - exact) <= 1e-13 * abs(exact), (zeta, p)
        assert abs(mirrored - mirror) <= 1e-13 * abs(mirror), (zeta, p)
        checked += 1


@pytest.mark.parametrize("zeta", [1e-2 * (1 + 1j), 1e-5 * (1 + 1j), 1e-9 * (1 + 1j),
                                  1e-11 * (1 + 1j), 3e-7 - 2e-8j, -4e-10j + 1e-13],
                         ids=repr)
def test_kernel_keeps_its_accuracy_near_its_triple_pole(zeta):
    # s = 2 pi N zeta is small, and 1 - e^s cancels unless it is formed by
    # expm1: as a difference it was 1.8e-13 off at 1e-5 (1+i) and 1.5e-7
    # at 1e-11 (1+i).  Judged against the larger of the value and the
    # kernel's scale 1/(8|zeta|), as near a vertex the value is far below
    # that scale and near 0 far above it
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    for w, value in zip((zeta, -zeta), residue_kernel_pair(zeta, p)):
        exact = _kernel_mpmath(mp, w, p)
        assert abs(value - exact) <= 1e-15 * max(abs(exact), 0.125 / abs(w)), w
    assert residue_kernel(zeta, p) == residue_kernel_pair(zeta, p)[0]


@pytest.mark.parametrize("y", [2.0, 1e6, 1e10, 1e12, 1e14, 1e20])
def test_kernel_keeps_its_accuracy_at_a_large_y(y):
    # b = -2 pi i (N/y) zeta is small here, and 1 - e^b cancels unless it
    # is formed by expm1: as a difference it is 4e-4 off at y = 1e14
    mpmath = pytest.importorskip("mpmath")
    p = DomainPoint(0.5, -0.25, y, 3)
    with mpmath.workdps(50):
        cap, y_mp = mpmath.mpf(p.N), mpmath.mpf(y)
        for zeta in (0.3j, 0.2 + 0.3j, -0.1 - 0.25j):
            w = mpmath.mpc(zeta)
            b = -2j * mpmath.pi * (cap / y_mp) * w
            exact = complex(
                -mpmath.cot(mpmath.pi * 1j * cap * w) * mpmath.cot(mpmath.pi * cap * w / y_mp)
                / (8 * w)
                + mpmath.exp((1 - mpmath.mpc(p.z)) * b)
                / ((1 - mpmath.exp(2 * mpmath.pi * cap * w)) * (1 - mpmath.exp(b)) * w))
            assert abs(residue_kernel(zeta, p) - exact) <= 1e-13 * abs(exact), zeta


def test_pole_distance_overflow_is_typed():
    with pytest.raises(OverflowError, match="binary64"):
        pole_distance(1e308, DomainPoint(0.5, -0.25, 2.0, 3))


def test_residue_zero_against_circle_oracle():
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    oracle, _, _ = residue_by_circle(
        lambda zeta: residue_kernel(zeta, p), 0.0, _lemma2_radius(p, 0.0),
        tol=1e-12,
    )
    assert abs(residue_at_zero(p) - oracle) < 1e-9


def test_residue_zero_structure():
    # the (y - 1/y) part drops at y = 1, and nothing depends on n
    p = DomainPoint(0.5, -0.25, 1.0)
    z = p.z
    assert residue_at_zero(p) == 0.5 * z - 0.5j * z * z + 0.5j * z - 0.25
    assert residue_at_zero(DomainPoint(0.5, -0.25, 2.0, 1)) == residue_at_zero(
        DomainPoint(0.5, -0.25, 2.0, 7)
    )


@pytest.mark.parametrize("k", [1, -1, 2])
def test_residue_imag_against_circle_oracle(k):
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    oracle, _, _ = residue_by_circle(
        lambda zeta: residue_kernel(zeta, p), 1j * k / p.N, _lemma2_radius(p, 1j * k / p.N),
        tol=1e-12,
    )
    assert abs(residue_imag_pole(k, p) - oracle) < 1e-9


def test_residue_real_against_circle_oracle():
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    oracle, _, _ = residue_by_circle(
        lambda zeta: residue_kernel(zeta, p), p.y / p.N, _lemma2_radius(p, p.y / p.N),
        tol=1e-12,
    )
    assert abs(residue_real_pole(1, p) - oracle) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_residue_imag_pair_sum(k):
    # +-k pairs collapse to the four-piece even/odd arrangement
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    z, y = p.z, p.y
    pair = residue_imag_pole(k, p) + residue_imag_pole(-k, p)
    e = math.exp(2 * PI * k / y)
    display = (
        (1.0 / (4j * PI)) * (1.0 / k)
        - (1.0 / (2j * PI)) / (k * (1.0 - e))
        - (1.0 / (2j * PI)) * cmath.exp(-2 * PI * k * z / y) * e / (k * (1.0 - e))
        - (1.0 / (2j * PI)) * cmath.exp(2 * PI * k * z / y) / (k * (1.0 - e))
    )
    assert abs(pair - display) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_residue_real_pair_sum(k):
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    z, y = p.z, p.y
    pair = residue_real_pole(k, p) + residue_real_pole(-k, p)
    e = math.exp(2 * PI * k * y)
    display = (
        -(1.0 / (4j * PI)) * (1.0 / k)
        + (1.0 / (2j * PI)) / (k * (1.0 - e))
        + (1.0 / (2j * PI)) * cmath.exp(2j * PI * k * z) / (k * (1.0 - e))
        + (1.0 / (2j * PI)) * cmath.exp(-2j * PI * k * z) * e / (k * (1.0 - e))
    )
    assert abs(pair - display) < 1e-12


def test_residues_do_not_depend_on_n():
    p5 = DomainPoint(0.5, -0.25, 2.0, 5)
    p9 = DomainPoint(0.5, -0.25, 2.0, 9)
    for k in (1, -2, 3):
        assert abs(residue_imag_pole(k, p5) - residue_imag_pole(k, p9)) < 1e-13
        assert abs(residue_real_pole(k, p5) - residue_real_pole(k, p9)) < 1e-13


def test_residue_k_zero_rejected():
    with pytest.raises(DomainError):
        residue_imag_pole(0, P0)
    with pytest.raises(DomainError):
        residue_real_pole(0, P0)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_breakdown_matches_closed_sum(n):
    p = DomainPoint(0.5, -0.25, 2.0, n)
    breakdown = ResidueBreakdown.compute(p)
    # internal consistency of the stored total
    recomputed = 2j * PI * (
        breakdown.at_zero
        + sum(v for _, v in breakdown.at_imag)
        + sum(v for _, v in breakdown.at_real)
    )
    assert abs(breakdown.total_times_2pi_i - recomputed) < 1e-13
    assert abs(breakdown.total_times_2pi_i - closed_residue_sum(p)) < 1e-12


def test_partial_sums_converge_to_log_ratio():
    p = DomainPoint(0.5, -0.25, 2.0, 25)
    limit = inversion_log_ratio_lambert(p) + PI * p.z * p.z / p.y - 0.5j * PI
    assert abs(closed_residue_sum(p) - limit) < 1e-8


def test_edge_midpoint_limits():
    p = DomainPoint(0.5, -0.25, 1.5, 10)
    assert abs(edge_limit_value("E2", 0.5, p) - 0.125) < 1e-8
    assert abs(edge_limit_value("E1", 0.5, p) + 0.125) < 1e-8
    assert edge_limit_target("E4") == 0.125
    assert edge_limit_target("E3") == -0.125


def test_edge_residual_decays_with_n():
    for edge in ("E1", "E2", "E3", "E4"):
        residuals = [
            edge_limit_residual(edge, 0.5, DomainPoint(0.5, -0.25, 1.5, n))
            for n in (2, 5, 10, 20)
        ]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_edge_parameter_domain():
    with pytest.raises(DomainError):
        edge_limit_value("E2", 0.01, P0)
    with pytest.raises(DomainError):
        edge_limit_value("E9", 0.5, P0)


def test_log_identity_residual_small():
    for p in REFERENCE_POINTS[:2]:
        assert log_identity_residual(p) < 1e-10
    for p in sample_domain_points(10, seed=7):
        assert log_identity_residual(p) < 1e-9


def test_transformation_residual_zero_argument():
    assert transformation_residual(0.0, 1j) == 0.0


def test_transformation_residual_at_a_zero_and_past_the_range():
    # theta1(30, tau) = 0 on both sides; e^(pi i z^2/tau) overflows at 30.3
    assert transformation_residual(30.0, 0.01j) == 0.0
    with pytest.raises(OverflowError, match="inversion right side overflowed the binary64 range"):
        transformation_residual(30.3, 0.5j)


def test_transformation_residual_general_tau():
    assert transformation_residual(0.25 - 0.15j, 0.4 + 0.9j) < 1e-10
    for z, tau in sample_grid(25, seed=5):
        assert transformation_residual(z, tau) < 1e-10


@pytest.mark.parametrize("n", [1, 3, 5, 10, 25, 100, 400, 2002, 5000])
def test_rhombus_integral_matches_the_closed_residue_sum(n, monkeypatch):
    # the lemma2 contour check at its point, far below its 1e-8 tolerance
    from siegeltheta import suites

    p = DomainPoint(0.5, -0.25, 2.0, n)
    calls = []

    def pair(zeta, point):
        calls.append(zeta)
        return residue_kernel_pair(zeta, point)

    monkeypatch.setattr(suites, "residue_kernel_pair", pair)
    value, nodes = _lemma2_rhombus(p)
    assert abs(value - closed_residue_sum(p)) <= 2e-15
    # the node count returned is the pair evaluations made, one per node
    # of E1's and E2's last rules (their shared vertex y twice): 130 at
    # lemma2's n = 3
    assert nodes == len(calls) == len(set(calls)) + 1
    assert n != 3 or nodes == 130


@pytest.mark.parametrize("scale", [1.0 + 1e-3, 0.0])
def test_rhombus_integral_does_not_rest_on_the_subtracted_residues(scale, monkeypatch):
    # the principal parts taken out at the vertex poles come back in closed
    # form, so wrong coefficients leave the integral as it is and only cost
    # nodes: at n = 3 the edges need their 129-node rules again
    from siegeltheta import suites

    p = DomainPoint(0.5, -0.25, 2.0, 3)
    monkeypatch.setattr(suites, "residue_imag_pole", lambda k, q: scale * residue_imag_pole(k, q))
    monkeypatch.setattr(suites, "residue_real_pole", lambda k, q: scale * residue_real_pole(k, q))
    value, nodes = _lemma2_rhombus(p)
    assert abs(value - closed_residue_sum(p)) <= 2e-15
    assert nodes >= 258


def test_every_lemma2_kernel_node_goes_through_the_suites_global(monkeypatch):
    # a trace that wraps suites.residue_kernel and suites.residue_kernel_pair
    # sees each evaluation the circles and the rhombus make: one pair per
    # node of the zero circle, of each pair of circles (whose two lines
    # report the same rule) and of the rhombus, and no single kernel call
    from siegeltheta import run_suite, suites

    singles, calls = [], []

    def counted(kernel, seen):
        def call(zeta, p):
            seen.append(zeta)
            return kernel(zeta, p)
        return call

    monkeypatch.setattr(suites, "residue_kernel", counted(residue_kernel, singles))
    monkeypatch.setattr(suites, "residue_kernel_pair", counted(residue_kernel_pair, calls))
    reports = run_suite("lemma2", seed=0)
    nodes = {r.check_name: 0 for r in reports}
    for r in reports:  # the lines of a pair of circles once
        if r.check_name.endswith("_vs_circle") and r.parameters.get("k", 0) > 0:
            continue
        nodes[r.check_name] += r.terms_or_nodes
    # each circle stops at 16 nodes, the first rule its rate stop may take
    assert all(r.terms_or_nodes == 16 for r in reports if r.check_name.endswith("_vs_circle"))
    assert nodes["lemma2_residue_zero_vs_circle"] == 16
    assert nodes["lemma2_residue_imag_vs_circle"] == nodes["lemma2_residue_real_vs_circle"] == 32
    assert nodes["lemma2_residue_theorem_contour"] == 130
    assert singles == []
    assert len(calls) == 16 + 32 + 32 + 130 == 210
    # the zero circle's 16 come first, on its circle around 0
    radius = _lemma2_radius(DomainPoint(*suites.LEMMA2_POINT, 3), 0.0)
    assert all(abs(abs(zeta) - radius) <= 1e-15 for zeta in calls[:16])
    assert all(r.passed for r in reports)


def _circle_gate(ys, stretch=1.0):
    # lemma2's circles at tol 1e-12, at its radii times stretch, on a grid of
    # points; the worst error against the closed forms, relative to
    # max(1, |residue|), of each circle alone and of each pair of circles
    # around c and -c
    worst = 0.0
    for y in ys:
        for n in (1, 3, 10, 100, 451):
            for a, b in ((0.5, -0.25), (0.1, -0.2), (0.9, -0.29)):
                p = DomainPoint(a, b, y, n)
                residues = {center: residue for _, _, center, residue
                            in _lemma2_circles(p, ResidueBreakdown.compute(p))}
                found = []
                for center, residue in residues.items():
                    radius = stretch * _lemma2_radius(p, center)
                    oracle, _, _ = residue_by_circle(
                        lambda zeta: residue_kernel(zeta, p), center, radius, tol=1e-12)
                    found.append((oracle, residue))
                    if center:
                        at, mirrored, _, _ = residue_pair_by_circle(
                            lambda zeta: residue_kernel_pair(zeta, p), center, radius,
                            tol=1e-12)
                        found += [(at, residue), (mirrored, residues[-center])]
                for oracle, residue in found:
                    worst = max(worst, abs(oracle - residue) / max(1.0, abs(residue)))
    return worst


def test_lemma2_circles_meet_their_tol():
    # lemma2's radii keep the contract (at most 1/16 of the distance to the
    # next pole) at every y, so each circle may stop at the rate it gives.
    # At (0.5, -0.25, 0.5, 1) the rules of 15 and 30 nodes used to share
    # their leading alias, and the zero circle stopped 1.6e-11 off with a
    # gap of 1.5e-17
    assert _circle_gate((0.3, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 4.0)) <= 1e-12
    # at four times those radii the circles break the contract: the decay
    # guard must keep the rate stop from taking a rule that misses tol
    assert _circle_gate((0.3, 1.0), stretch=4.0) <= 1e-12


def test_zero_circle_at_its_contract_radius_stops_at_the_rate():
    # at (0.5, -0.25, 0.5, 1) the radius min(1, y)/(16N) = 1/48 is exactly
    # 1/16 of the distance to the real pole 1/3, so the gaps decay at the
    # contract's rate 16^-M itself, beside the triple pole at the center:
    # the rule of 16 nodes is taken at a gap of 4.1e-12, 8^-4 of the one
    # before it at most
    p = DomainPoint(0.5, -0.25, 0.5, 1)
    assert _lemma2_radius(p, 0.0) == (p.y / p.N) / 16.0
    value, gap, nodes = residue_by_circle(lambda zeta: residue_kernel(zeta, p), 0.0,
                                          _lemma2_radius(p, 0.0), tol=1e-12)
    assert nodes == 16 and gap > 1e-12
    assert abs(value - residue_at_zero(p)) <= 1e-14


@pytest.mark.parametrize("suite", ["lemma2", "lemma3"])
def test_fixed_point_suites_do_not_read_the_seed(suite):
    from siegeltheta import run_suite
    from siegeltheta.suites import report_json_line

    lines = [[report_json_line(r) for r in run_suite(suite, seed=seed)] for seed in (0, 12345)]
    assert lines[0] == lines[1]


def test_theorem_reads_the_lambert_terms_lemma1_formed(monkeypatch):
    # within one verify all, theorem iterates lemma1's points and their
    # Lambert terms: 2 sides each for lemma1's 10 points and 6 for lemma2,
    # none for theorem (which formed 20 more on points of its own)
    from siegeltheta import run_suite, suites, verifier
    from siegeltheta.suites import report_json_line

    calls = []
    side = verifier._lambert_side

    def counted(*args):
        calls.append(args)
        return side(*args)

    monkeypatch.setattr(verifier, "_lambert_side", counted)
    monkeypatch.setattr(suites, "_last_draw", (None, ()))  # no point carries terms yet
    theorem = [report_json_line(r) for r in run_suite("all", seed=90210)
               if r.check_name == "theorem_log_identity"]
    assert len(calls) == 26 and len(theorem) == 10
    # alone, on points drawn afresh, theorem forms its own terms: same bytes
    suites._last_draw = (None, ())
    calls.clear()
    assert [report_json_line(r) for r in run_suite("theorem", seed=90210)] == theorem
    assert len(calls) == 20


def test_sample_domain_points_shares_a_draw_only_between_equal_sequences():
    from siegeltheta import run_suite

    first, second = sample_domain_points(4, 11), sample_domain_points(4, 11)
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()  # a new list each call: the draw is not the caller's list
    assert sample_domain_points(4, 11) == second
    assert sample_domain_points(3, 11) == second[:3]
    # a bytearray cannot be hashed; it seeds as its bytes do
    assert sample_domain_points(3, bytearray(b"ab")) == sample_domain_points(3, b"ab")
    assert run_suite("lemma1", seed=bytearray(b"ab"))
    # 2**70 == 2.0**70, but random.Random seeds a float by its hash
    assert sample_domain_points(3, 2**70) != sample_domain_points(3, 2.0**70)
    # without a seed, each call draws a new sequence
    assert sample_domain_points(3, None) != sample_domain_points(3, None)


def test_kernel_fast_path_changes_no_value_and_no_check():
    p = DomainPoint(0.5, -0.25, 2.0, 3)

    class Complex(complex):
        pass

    for value in (1, -2, 3):
        same = [repr(residue_kernel(zeta, p))
                for zeta in (value, float(value), complex(value), Complex(value))]
        assert len(set(same)) == 1, same
    for zeta, message in ((complex(math.nan, 0.0), "zeta must be finite, got (nan+0j)"),
                          (complex(0.0, math.inf), "zeta must be finite, got infj"),
                          ("x", "zeta must be a complex number, got 'x'"),
                          (True, "zeta must be a complex number, got True")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            residue_kernel(zeta, p)
    for point in (tuple(p), None):
        message = f"p must be a DomainPoint, got {point!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            residue_kernel(0.3 + 0j, point)


def test_the_proof_replay_never_takes_the_steps_it_checks(monkeypatch):
    # the replay checks the inversion law on the plain product; a T or S
    # step would apply that law to check it
    from siegeltheta import run_suite, sweep_rows, theta

    def no_step(*args):
        raise AssertionError("the proof replay took a T/S step")

    monkeypatch.setattr(theta, "_theta1_steps", no_step)
    reports = run_suite("all", seed=42)
    assert reports and all(report.passed for report in reports)
    for target in ("lambert_tail", "edge_limit"):
        assert sweep_rows(target)[1]
    for z, tau in sample_grid(25, seed=5):
        assert transformation_residual(z, tau) < 1e-10
