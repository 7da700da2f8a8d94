import cmath
import math
import random

import pytest

from siegeltheta import (
    DomainError,
    DomainPoint,
    PoleProximityError,
    ResidueBreakdown,
    closed_residue_sum,
    edge_limit_residual,
    edge_limit_target,
    edge_limit_value,
    integrate_closed,
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
    residue_real_pole,
    rhombus_contour,
    theta1,
    transformation_residual,
)
from siegeltheta.suites import sample_domain_points, sample_grid
from siegeltheta.verifier import LAMBERT_EPS

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


def _kernel_as_first_written(zeta, p):
    # the kernel with every factor recomputed per call, as it was before the
    # zeta-free factors were hoisted into the DomainPoint
    from siegeltheta.verifier import _cot, _inv_one_minus_exp

    zeta = complex(zeta)
    if pole_distance(zeta, p) < 1e-12 / p.N:
        raise PoleProximityError(f"zeta={zeta!r} is within 1e-12/N of a kernel pole")
    cap, y, z = p.N, p.y, p.z
    first = -_cot(PI * 1j * cap * zeta) * _cot(PI * cap * zeta / y) / (8.0 * zeta)
    b = -2j * PI * (cap / y) * zeta
    a = (1.0 - z) * b
    if b.real > 0.0:
        ratio = -cmath.exp(a - b) / (1.0 - cmath.exp(-b))
    else:
        ratio = cmath.exp(a) / (1.0 - cmath.exp(b))
    second = _inv_one_minus_exp(2.0 * PI * cap * zeta) * ratio / zeta
    return first + second


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
    poles = 0
    for index in range(2000):
        p = points[index % len(points)]
        if index % 4 == 0:  # around a pole, some within the 1e-12/N guard
            k = rng.randint(-p.n, p.n)
            pole = 1j * k / p.N if rng.random() < 0.5 else k * p.y / p.N
            offset = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            zeta = pole + offset * 10.0 ** rng.uniform(-14.0, -10.0) / p.N
        else:
            zeta = complex(rng.uniform(-1.2, 1.2) * p.y, rng.uniform(-1.2, 1.2))
        expected = _kernel_outcome(_kernel_as_first_written, zeta, p)
        assert _kernel_outcome(residue_kernel, zeta, p) == expected, (zeta, p)
        poles += expected == "pole"
    assert 100 < poles < 500


def test_kernel_constants_leave_the_point_unchanged():
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    before = (repr(p), hash(p), p._asdict())
    residue_kernel(0.1 + 0.2j, p)
    assert (repr(p), hash(p), p._asdict()) == before
    assert p == DomainPoint(0.5, -0.25, 2.0, 3)


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
     532.3037904003828 + 29.66979061487317j],  # an exponential overflows
    ids=repr,
)
def test_kernel_overflow_is_the_documented_error(zeta):
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    with pytest.raises(OverflowError, match="^residue kernel overflowed the binary64 range$"):
        residue_kernel(zeta, p)


def test_pole_distance_overflow_is_typed():
    with pytest.raises(OverflowError, match="binary64"):
        pole_distance(1e308, DomainPoint(0.5, -0.25, 2.0, 3))


def test_residue_zero_against_circle_oracle():
    p = DomainPoint(0.5, -0.25, 2.0, 3)
    oracle = residue_by_circle(
        lambda zeta: residue_kernel(zeta, p), 0.0, 1.0 / (4.0 * p.N),
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
    oracle = residue_by_circle(
        lambda zeta: residue_kernel(zeta, p), 1j * k / p.N, 1.0 / (4.0 * p.N),
        tol=1e-12,
    )
    assert abs(residue_imag_pole(k, p) - oracle) < 1e-9


def test_residue_real_against_circle_oracle():
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    oracle = residue_by_circle(
        lambda zeta: residue_kernel(zeta, p), p.y / p.N, 1.0 / (4.0 * p.N),
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


def test_transformation_residual_general_tau():
    assert transformation_residual(0.25 - 0.15j, 0.4 + 0.9j) < 1e-10
    for z, tau in sample_grid(25, seed=5):
        assert transformation_residual(z, tau) < 1e-10


@pytest.mark.parametrize("n", [1, 3, 5, 10, 25, 100, 400])
def test_rhombus_integral_matches_the_closed_residue_sum(n):
    # the lemma2 contour check at its point, far below its 1e-8 tolerance
    p = DomainPoint(0.5, -0.25, 2.0, n)
    value, _ = integrate_closed(lambda zeta: residue_kernel(zeta, p), rhombus_contour(p.y))
    assert abs(value - closed_residue_sum(p)) <= 2e-15


def test_the_proof_replay_never_takes_the_steps_it_checks(monkeypatch):
    # the replay checks the inversion law on the plain product; a T or S
    # step would apply that law to check it
    from siegeltheta import run_suite, sweep_rows, theta

    def no_step(*args):
        raise AssertionError("the proof replay took a T/S step")

    monkeypatch.setattr(theta, "_step", no_step)
    reports = run_suite("all", seed=42)
    assert reports and all(report.passed for report in reports)
    for target in ("lambert_tail", "edge_limit"):
        assert sweep_rows(target)[1]
    for z, tau in sample_grid(25, seed=5):
        assert transformation_residual(z, tau) < 1e-10
