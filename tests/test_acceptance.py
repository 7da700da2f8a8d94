"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import cmath
import math
import time

from siegeltheta import (
    DomainPoint,
    ResidueBreakdown,
    closed_residue_sum,
    edge_limit_residual,
    integrate_closed,
    inversion_log_ratio,
    inversion_log_ratio_lambert,
    log_identity_residual,
    product_terms,
    residue_at_zero,
    residue_by_circle,
    residue_imag_pole,
    residue_kernel,
    residue_real_pole,
    rhombus_contour,
    theta1_reduced,
    theta1_series,
    transformation_residual,
)
from siegeltheta.suites import _lemma2_radius, sample_domain_points, sample_grid
from siegeltheta.theta import _theta1_plain

GRID_SEED = 2024
POINT_SEED = 7
PI = math.pi


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")


def test_criterion_1_transformation_law():
    started = time.perf_counter()
    worst = max(transformation_residual(z, tau) for z, tau in sample_grid(25, GRID_SEED))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    report("criterion 1 (inversion law, 25-point grid)", ok,
           f"max relative residual {worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_product_series_equivalence():
    started = time.perf_counter()
    # the plain product and the series: two independent routes
    worst = max(
        abs(_theta1_plain(z, tau) - theta1_series(z, tau))
        for z, tau in sample_grid(25, GRID_SEED)
    )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-11 and elapsed < 1.0
    report("criterion 2 (product vs series oracle)", ok,
           f"max |difference| {worst:.3e} (tol 1e-11), {elapsed:.2f}s")
    assert worst < 1e-11
    assert elapsed < 1.0


def test_criterion_3_log_series_equivalence():
    started = time.perf_counter()
    worst = max(
        abs(inversion_log_ratio(p) - inversion_log_ratio_lambert(p))
        for p in sample_domain_points(10, POINT_SEED)
    )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    report("criterion 3 (log-ratio arrangements, 10 points)", ok,
           f"max |difference| {worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_4_closed_residues_vs_quadrature():
    started = time.perf_counter()
    p = DomainPoint(0.5, -0.25, 2.0, 5)
    kernel = lambda zeta: residue_kernel(zeta, p)

    def oracle(center):  # at the radius lemma2 gives the circle around center
        return residue_by_circle(kernel, center, _lemma2_radius(p, center), tol=1e-12)[0]

    worst = abs(residue_at_zero(p) - oracle(0.0))
    for k in range(-p.n, p.n + 1):
        if k == 0:
            continue
        worst = max(worst, abs(residue_imag_pole(k, p) - oracle(1j * k / p.N)))
        worst = max(worst, abs(residue_real_pole(k, p) - oracle(k * p.y / p.N)))
    totals_gap = abs(
        ResidueBreakdown.compute(p).total_times_2pi_i - closed_residue_sum(p)
    )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and totals_gap < 1e-12 and elapsed < 5.0
    report("criterion 4 (closed residues vs circle oracle, n=5)", ok,
           f"max residue gap {worst:.3e} (tol 1e-9), totals gap {totals_gap:.3e} "
           f"(tol 1e-12), {elapsed:.2f}s")
    assert worst < 1e-9
    assert totals_gap < 1e-12
    assert elapsed < 5.0


def test_criterion_5_residue_theorem_on_contour():
    started = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        p = DomainPoint(0.5, -0.25, 2.0, n)
        value, _, _ = integrate_closed(
            lambda zeta: residue_kernel(zeta, p),
            rhombus_contour(p.y),
            tol=1e-10,
        )
        worst = max(worst, abs(value - closed_residue_sum(p)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 30.0
    report("criterion 5 (residue theorem, n in {1,2,3})", ok,
           f"max |contour - closed sum| {worst:.3e} (tol 1e-8), {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_6_edge_limits():
    started = time.perf_counter()
    edges = ("E1", "E2", "E3", "E4")
    worst10 = max(
        edge_limit_residual(e, 0.5, DomainPoint(0.5, -0.25, 1.5, 10)) for e in edges
    )
    decay_ok = True
    worst_ratio = 0.0
    for e in edges:
        r2 = edge_limit_residual(e, 0.5, DomainPoint(0.5, -0.25, 1.5, 2))
        r20 = edge_limit_residual(e, 0.5, DomainPoint(0.5, -0.25, 1.5, 20))
        worst_ratio = max(worst_ratio, r20 / r2)
        decay_ok = decay_ok and r20 < 1e-3 * r2
    elapsed = time.perf_counter() - started
    ok = worst10 < 1e-8 and decay_ok and elapsed < 1.0
    report("criterion 6 (edge limits +-1/8)", ok,
           f"max midpoint residual at n=10 {worst10:.3e} (tol 1e-8), "
           f"n=20/n=2 ratio {worst_ratio:.3e} (tol 1e-3), {elapsed:.2f}s")
    assert worst10 < 1e-8
    assert decay_ok
    assert elapsed < 1.0


def test_criterion_7_theorem_identity():
    started = time.perf_counter()
    worst = max(log_identity_residual(p) for p in sample_domain_points(10, POINT_SEED))
    deep = DomainPoint(0.5, -0.25, 2.0, 25)
    limit = inversion_log_ratio_lambert(deep) + PI * deep.z * deep.z / deep.y - 0.5j * PI
    partial_gap = abs(closed_residue_sum(deep) - limit)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and partial_gap < 1e-8 and elapsed < 2.0
    report("criterion 7 (closed identity + n=25 partial sums)", ok,
           f"max identity residual {worst:.3e} (tol 1e-9), partial-sum gap "
           f"{partial_gap:.3e} (tol 1e-8), {elapsed:.2f}s")
    assert worst < 1e-9
    assert partial_gap < 1e-8
    assert elapsed < 2.0


def test_criterion_8_reduction_acceleration():
    started = time.perf_counter()
    worst = 0.0
    gains = []
    for eps_im in (0.01, 0.02, 0.05):
        reduced = theta1_reduced(0.3, eps_im * 1j)
        direct_terms = product_terms(0.3, eps_im * 1j)
        assert reduced.reduced
        assert reduced.terms_used < direct_terms
        gains.append(f"{direct_terms}->{reduced.terms_used}")
        worst = max(worst, abs(reduced.value - _theta1_plain(0.3, eps_im * 1j)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 1.0
    report("criterion 8 (argument-reduction acceleration)", ok,
           f"max |reduced - direct| {worst:.3e} (tol 1e-9), terms {', '.join(gains)}, "
           f"{elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_9_quadrature_self_tests():
    started = time.perf_counter()
    path = rhombus_contour(2.0)
    poly, _, _ = integrate_closed(lambda w: (2 - 3j) * w**3 + w - 5.0, path)
    forward, _, _ = integrate_closed(lambda w: 1.0 / w, path)
    backward, _, _ = integrate_closed(lambda w: 1.0 / w, path[::-1])
    unit = abs(forward - 2j * PI)
    orientation = abs(forward + backward)
    elapsed = time.perf_counter() - started
    ok = (abs(poly) < 1e-11 and orientation < 1e-13 and unit < 1e-10
          and elapsed < 1.0)
    report("criterion 9 (quadrature self-tests)", ok,
           f"polynomial {abs(poly):.3e} (tol 1e-11), orientation {orientation:.3e} "
           f"(tol 1e-13), 1/z {unit:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert abs(poly) < 1e-11
    assert orientation < 1e-13
    assert unit < 1e-10
    assert elapsed < 1.0
