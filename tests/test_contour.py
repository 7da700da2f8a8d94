import cmath
import math

import pytest

from siegeltheta import (
    ConvergenceError,
    DomainError,
    integrate_closed,
    integrate_edge,
    residue_by_circle,
    residue_pair_by_circle,
    rhombus_contour,
)
from siegeltheta.contour import _clenshaw_curtis
from siegeltheta.suites import LEMMA2_POINT
from siegeltheta.verifier import DomainPoint, residue_kernel

LEMMA2_P = DomainPoint(*LEMMA2_POINT, 3)

TWO_PI_I = 2j * math.pi


def test_rhombus_geometry():
    assert rhombus_contour(2.0) == (-1j, 2 + 0j, 1j, -2 + 0j)


def test_rhombus_unit_square_on_circle():
    assert all(abs(abs(v) - 1.0) < 1e-15 for v in rhombus_contour(1.0))


def test_rhombus_encloses_kernel_poles():
    # poles ik/N and ky/N with |k| <= n satisfy |Re/y| + |Im| = k/N < 1
    y, n = 2.0, 7
    cap = n + 0.5
    for k in range(1, n + 1):
        assert k / cap < 1.0
        assert abs(k * y / cap) / y + 0.0 < 1.0


def test_rhombus_rejects_bad_y():
    with pytest.raises(DomainError):
        rhombus_contour(0.0)
    with pytest.raises(DomainError):
        rhombus_contour(-1.0)


def test_clenshaw_curtis_weights_integrate_polynomials_exactly():
    # the rule with count + 1 nodes is exact up to degree count
    for count in (16, 32, 64):
        weights = _clenshaw_curtis(count)
        nodes = [math.cos(math.pi * j / count) for j in range(count + 1)]
        assert weights == weights[::-1]
        for k in range(count + 1):
            moment = math.fsum(w * x**k for x, w in zip(nodes, weights))
            assert abs(moment - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) < 1e-14, (count, k)


def test_edge_integral_of_inverse():
    value, err, _ = integrate_edge(lambda w: 1.0 / w, 2.0, 1j)
    assert abs(value - (-math.log(2.0) + 0.5j * math.pi)) < 1e-12
    assert err <= 1e-10


def test_edge_integral_of_constant():
    value, _, _ = integrate_edge(lambda w: 1.0 + 0j, 0.3 + 0.2j, -1.5 + 0.9j)
    assert abs(value - (-1.8 + 0.7j)) < 1e-13


def test_closed_integral_of_entire_function():
    value, _, _ = integrate_closed(lambda w: w * w, rhombus_contour(2.0))
    assert abs(value) < 1e-12


def test_closed_integral_cauchy_zero_for_polynomials():
    poly = lambda w: (2 - 3j) * w**3 + w - 5.0
    for path in (rhombus_contour(2.0), (0j, 1 + 0j, 1 + 1j, 0.5j)):
        value, _, _ = integrate_closed(poly, path)
        assert abs(value) < 1e-11


def test_closed_integral_unit_residue():
    value, _, _ = integrate_closed(lambda w: 1.0 / w, rhombus_contour(2.0))
    assert abs(value - TWO_PI_I) < 1e-10


def test_closed_integral_pole_outside():
    value, _, _ = integrate_closed(lambda w: 1.0 / (w - 5.0), rhombus_contour(2.0))
    assert abs(value) < 1e-10


def test_orientation_reversal_negates():
    path = rhombus_contour(2.0)
    forward, _, _ = integrate_closed(lambda w: 1.0 / w, path)
    backward, _, _ = integrate_closed(lambda w: 1.0 / w, path[::-1])
    assert abs(forward + backward) < 1e-13


def test_edge_split_additivity():
    f = lambda w: cmath.exp(w) * w
    a, b = -1 + 0.2j, 2 - 0.5j
    whole, _, _ = integrate_edge(f, a, b)
    mid = a + 0.37 * (b - a)
    first, _, _ = integrate_edge(f, a, mid)
    second, _, _ = integrate_edge(f, mid, b)
    assert abs(whole - (first + second)) < 1e-10


def test_closed_needs_two_vertices():
    with pytest.raises(DomainError):
        integrate_closed(lambda w: w, (1 + 0j,))


def test_edge_quadrature_reports_failure():
    # a pole 1e-6 off the segment is not resolved to 1e-14 by 2,049 nodes
    with pytest.raises(ConvergenceError) as info:
        integrate_edge(lambda w: 1.0 / (w - (0.5 + 1e-6j)), 0.0, 1.0, tol=1e-14)
    assert info.value.achieved > 1e-14


def test_residue_by_circle_simple_pole():
    value, _, _ = residue_by_circle(lambda w: 1.0 / w, 0.0, 0.7)
    assert abs(value - 1.0) < 1e-13


def test_residue_by_circle_double_pole():
    # e^w / w^2 has residue d/dw e^w |_0 = 1
    value, _, _ = residue_by_circle(lambda w: cmath.exp(w) / (w * w), 0.0, 0.5)
    assert abs(value - 1.0) < 1e-12


@pytest.mark.parametrize("center", [0j, 2 - 1j, -0.3 + 0.4j])
def test_residue_by_circle_shifted_pole(center):
    for radius in (0.1, 0.25, 1.0):
        value, _, _ = residue_by_circle(lambda w: 1.0 / (w - center), center, radius)
        assert abs(value - 1.0) < 1e-12


def _call_order(node, count, last, ends):
    # the nodes a nested rule evaluates, in call order: each node j of the
    # first rule (count + ends of them), then the new odd j of each doubled
    # rule up to the last rule's count, in index order
    order = [node(j, count) for j in range(count + ends)]
    while count < last:
        count *= 2
        order += [node(j, count) for j in range(1, count, 2)]
    return order


def _circle_without_reuse(f, center, radius, tol):
    # every level re-evaluates all of its nodes: the rule before nesting.
    # It stops at a gap within tol, or where the gap has shrunk by at least
    # 8^-(M/2) since the last one and the gap times 8^-M is within tol, M
    # being the coarser rule's node count
    count = 4
    previous = last_gap = None
    for _ in range(19):
        total = 0.0j
        for j in range(count):
            direction = cmath.exp(2j * math.pi * j / count)
            total += f(center + radius * direction) * direction
        approx = total * radius / count
        if previous is not None:
            gap = abs(approx - previous)
            if gap <= tol:
                return approx, gap, count
            if last_gap is not None and gap <= last_gap * 0.125 ** (count // 4) \
                    and gap * 0.125 ** (count // 2) <= tol:
                return approx, gap, count
            last_gap = gap
        previous = approx
        count *= 2
    raise AssertionError("reference rule did not settle")


@pytest.mark.parametrize(
    "f,center,radius,tol",
    [
        (lambda w: cmath.exp(w) / (w * w), 0.0, 0.5, 1e-12),
        (lambda w: 1.0 / (w - (0.3 - 0.2j)) + w**3, 0.3 - 0.2j, 0.25, 1e-10),
        (lambda w: 1.0 / cmath.sin(w), 0.1j, 2.0, 1e-12),
        (lambda w: cmath.exp(1j * w) / (w - 2.0) ** 3, 2.0, 0.05, 1e-13),
        # lemma2's zero circle: its kernel, at radius min(1, y)/(16 N)
        (lambda w: residue_kernel(w, LEMMA2_P), 0.0,
         min(1.0, LEMMA2_P.y) / (16 * LEMMA2_P.N), 1e-12),
    ],
)
def test_residue_by_circle_reuses_nodes_bit_for_bit(f, center, radius, tol):
    expected, expected_gap, count = _circle_without_reuse(f, center, radius, tol)
    nodes = []

    def counted(w):
        nodes.append(w)
        return f(w)

    value, gap, returned_nodes = residue_by_circle(counted, center, radius, tol)
    assert repr(value) == repr(expected) and gap == expected_gap
    # once per node of the last rule, every node a distinct point, and
    # within each rule in index order; the count returned is the calls made
    assert returned_nodes == len(nodes) == count > 8  # past the second doubling
    assert len(set(nodes)) == count
    center = complex(center)
    assert nodes == _call_order(
        lambda j, n: center + radius * cmath.exp(2j * math.pi * j / n), 4, count, 0)


def _edge_without_reuse(f, start, end, tol):
    # every rule re-evaluates all of its nodes: the rule before nesting
    mid, half = 0.5 * (start + end), 0.5 * (end - start)
    count = 16
    previous = None
    for _ in range(8):
        total = 0.0j
        for j, weight in enumerate(_clenshaw_curtis(count)):
            total += weight * f(mid + half * math.cos(math.pi * j / count))
        approx = half * total
        if previous is not None and abs(approx - previous) <= tol:
            return approx, count + 1
        previous = approx
        count *= 2
    raise AssertionError("reference rule did not settle")


@pytest.mark.parametrize(
    "f,start,end,tol",
    [
        (lambda w: cmath.exp(5 * w) * w, -1 + 0.2j, 2 - 0.5j, 1e-12),
        (lambda w: 1.0 / w, 2.0, 1j, 1e-10),
        (lambda w: 1.0 / (w - (0.5 + 0.1j)), 0.0, 1.0, 1e-12),
        (lambda w: 1.0 / cmath.cos(w), -1.5j, 1.5, 1e-13),
    ],
)
def test_edge_quadrature_reuses_nodes_bit_for_bit(f, start, end, tol):
    expected, count = _edge_without_reuse(f, start, end, tol)
    nodes = []

    def counted(w):
        nodes.append(w)
        return f(w)

    value, gap, returned_nodes = integrate_edge(counted, start, end, tol)
    assert repr(value) == repr(expected) and gap <= tol
    # once per node of the last rule, every node a distinct point, and the
    # last rule has 16 * 2^k + 1 nodes; the count returned is the calls made
    assert returned_nodes == len(nodes) == count > 33  # past the first doubling
    assert len(set(nodes)) == count
    doublings = (count - 1) // 16
    assert (count - 1) % 16 == 0 and doublings & (doublings - 1) == 0
    # within each rule in index order
    mid, half = 0.5 * (complex(start) + end), 0.5 * (end - complex(start))
    assert nodes == _call_order(
        lambda j, n: mid + half * math.cos(math.pi * j / n), 16, count - 1, 1)


@pytest.mark.parametrize(
    "f,vertices,tol",
    [
        (lambda w: 1.0 / w, rhombus_contour(2.0), 1e-10),
        (lambda w: cmath.exp(w) / (w - (0.3 + 0.3j)), (0j, 1 + 0j, 1 + 1j, 0.5j), 1e-12),
        (lambda w: w**3 - 1j * w, (0.5 - 1j, 1.5 + 0.5j, -0.5 + 1j), 1e-12),
    ],
)
def test_closed_quadrature_reuses_vertex_values_bit_for_bit(f, vertices, tol):
    # each edge on its own, with both its ends; at these vertices an edge's
    # end nodes mid +- half are the vertices themselves, bit for bit
    edges = [integrate_edge(f, a, b, tol) for a, b in zip(vertices, vertices[1:] + vertices[:1])]
    expected = 0.0j
    for value, _, _ in edges:
        expected += value
    nodes = []

    def counted(w):
        nodes.append(w)
        return f(w)

    value, err, returned_nodes = integrate_closed(counted, vertices, tol)
    assert repr(value) == repr(expected) and err == sum(gap for _, gap, _ in edges)
    # once per vertex, which ends one edge and starts the next, and once per
    # other node of each edge's last rule; the count returned is the calls
    assert returned_nodes == len(nodes) == len(set(nodes))
    assert returned_nodes == sum(count for _, _, count in edges) - len(vertices)
    assert nodes[:len(vertices)] == list(vertices)


def test_edge_quadrature_stops_at_a_non_finite_integrand():
    for value in (math.nan, math.inf, complex(0.0, -math.inf)):
        calls = []

        def f(w):
            calls.append(w)
            return value

        with pytest.raises(ConvergenceError, match="not finite"):
            integrate_edge(f, 0.0, 1.0)
        assert len(calls) == 17  # the first rule only


def test_residue_by_circle_stops_at_a_non_finite_estimate():
    calls = []

    def f(w):
        calls.append(w)
        return math.nan if w.real < 0 else 1.0 / w

    with pytest.raises(ConvergenceError, match="not finite at 4 nodes"):
        residue_by_circle(f, 0.0, 1.0)
    assert len(calls) == 4


def test_residue_by_circle_stops_at_the_rate_of_its_radius_contract():
    # a pole sixteen radii out, the contract's limit: the rules err like
    # 16^-M.  The rule of 16 nodes differs from that of 8 by 2.3e-10, at
    # most 8^-4 of the gap before it, which leaves 2.3e-10 * 8^-8 = 1.4e-17
    # of error at most; the gap alone would take the rule of 32
    value, gap, nodes = residue_by_circle(lambda w: 1.0 / w + 1.0 / (w - 16.0), 0.0, 1.0,
                                          tol=1e-12)
    assert nodes == 16 and gap > 1e-12
    assert abs(value - 1.0) <= 1e-15


def test_residue_by_circle_stops_at_the_rate_beside_a_triple_pole():
    # a triple pole sixteen radii out, and another at the center: the rules
    # err like M^2 16^-M, within the 8^-M the stop assumes, and the rule of
    # 4 nodes already leaves the center's w^-3 term off the residue.  The
    # rule of 16 is taken at a gap of 1.3e-7, at most 8^-4 of the one before
    f = lambda w: 1.0 / w**3 + 1.0 / w + (16.0 / (w - 16.0)) ** 3  # noqa: E731
    value, gap, nodes = residue_by_circle(f, 0.0, 1.0, tol=1e-12)
    assert nodes == 16 and gap > 1e-12
    assert abs(value - 1.0) <= 1e-12


@pytest.mark.parametrize("pole", [4.0, 1.5, 1.2, 1.05])
def test_residue_by_circle_past_its_radius_contract_stops_at_the_gap(pole):
    # a pole closer than sixteen radii: the gaps shrink slower than
    # 8^-(M/2), and the decay guard leaves the stop to the gap.  Four radii
    # out, the rule of 16 is 2.3e-10 off, and its gap is 4e-3 of the one
    # before it, more than 8^-4: the guard refuses it, and the gap takes
    # the rule of 64
    value, gap, _ = residue_by_circle(lambda w: 1.0 / w + 1.0 / (w - pole), 0.0, 1.0,
                                      tol=1e-12)
    assert gap <= 1e-12
    assert abs(value - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "f,center,radius,tol",
    [
        (lambda w: 1.0 / (w - 0.5j) + 2.0 / (w + 0.5j) + w * w, 0.5j, 0.2, 1e-12),
        (lambda w: cmath.exp(w) / (w - 1.0 + 0.3j) - 1j / (w + 1.0 - 0.3j) ** 2,
         1.0 - 0.3j, 0.5, 1e-10),
        (lambda w: 1.0 / cmath.sin(w), math.pi, 1.0, 1e-12),
    ],
)
def test_residue_pair_by_circle_takes_both_residues_from_one_rule(f, center, radius, tol):
    calls = []

    def pair(w):
        calls.append(w)
        return f(w), f(-w)

    value, mirrored, gap, nodes = residue_pair_by_circle(pair, center, radius, tol)
    alone, _, alone_nodes = _circle_without_reuse(f, center, radius, tol)
    assert nodes == len(calls) == alone_nodes
    # the residue at center is the single rule's, at the same nodes in the
    # same order
    assert repr(value) == repr(alone)
    assert calls == _call_order(
        lambda j, n: center + radius * cmath.exp(2j * math.pi * j / n), 4, nodes, 0)
    # the one at -center is the rule on the negated nodes, directions -d_j,
    # its terms added in index order
    directions = [cmath.exp(2j * math.pi * j / nodes) for j in range(nodes)]
    total = 0j
    for d in directions:
        total += f(-(center + radius * d)) * d
    assert repr(mirrored) == repr(-total * radius / nodes)
    assert abs(mirrored - _circle_without_reuse(f, -center, radius, tol)[0]) <= 1e-12


def test_residue_pair_by_circle_stops_once_both_rules_do():
    # a pole 1.5 radii from -center, none near center: the circle around
    # -center needs more nodes, and the pair takes them for both
    f = lambda w: 1.0 / (w - 1.0) + 1.0 / (w + 1.0) + 1.0 / (w + 1.0 + 0.3)  # noqa: E731
    value, mirrored, gap, nodes = residue_pair_by_circle(lambda w: (f(w), f(-w)), 1.0, 0.2,
                                                       tol=1e-12)
    fast = residue_by_circle(f, 1.0, 0.2, tol=1e-12)[2]
    assert nodes == residue_by_circle(f, -1.0, 0.2, tol=1e-12)[2] > fast
    assert gap <= 1e-12
    assert abs(value - 1.0) <= 1e-12 and abs(mirrored - 1.0) <= 1e-12


def test_residue_pair_by_circle_stops_at_a_non_finite_estimate():
    # a NaN in the mirrored values alone ends the pair at its first rule
    with pytest.raises(ConvergenceError, match="^circle quadrature estimate is not finite at 4 "):
        residue_pair_by_circle(lambda w: (1.0 / w, math.nan), 0.0, 1.0)


def test_residue_by_circle_rejects_bad_radius():
    with pytest.raises(DomainError):
        residue_by_circle(lambda w: 1.0 / w, 0.0, 0.0)


def test_residue_by_circle_reports_failure():
    # a pole 1e-9 outside the circle stalls the node doubling: the gap
    # shrinks like (1 + 1e-9)^-n, still far above tol at 1048576 nodes, and
    # far slower than the 8^-n that the radius contract lets the stop assume
    with pytest.raises(ConvergenceError) as info:
        residue_by_circle(lambda w: 1.0 / (w - (1.0 + 1e-9)), 0.0, 1.0)
    assert "1048576 nodes" in str(info.value)


def test_quadrature_config_validation():
    # tol is the one quadrature setting; it must be positive, and NaN is not
    f = lambda w: 1.0 / w
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(DomainError):
            integrate_edge(f, 1.0, 1j, tol=tol)
        with pytest.raises(DomainError):
            integrate_closed(f, rhombus_contour(1.0), tol=tol)
        with pytest.raises(DomainError):
            residue_by_circle(f, 0.0, 0.5, tol=tol)
