"""Polygonal contours in the complex plane, and nested-rule quadrature:
Clenshaw-Curtis on segments, the trapezoid rule on circles."""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from operator import mul, sub

from .errors import ConvergenceError, DomainError, finite_complex, finite_real

Integrand = Callable[[complex], complex]

# node doublings before ConvergenceError: a circle goes from 4 to 1,048,576
# nodes; an edge from 17 to 2,049, as its weights take O(N^2) work to form
_MAX_LEVELS = 18
_EDGE_LEVELS = 7
# a circle's rate stop assumes the rule of M nodes errs like _RATE^M: its
# radius contract gives (radius/R)^M <= 16^-M, and the factor 2 absorbs the
# M^2 that a triple pole R away puts on it
_RATE = 0.125
# node tables by interval count, formed on first use: the Clenshaw-Curtis
# weights, the edge cosines cos(pi j/count) and the circle directions
# e^(2 pi i j/count).  A circle past 2,048 intervals, an edge's last rule,
# forms its directions per call, so a stalled circle leaves no large table
_WEIGHTS: dict[int, tuple[float, ...]] = {}
_COSINES: dict[int, tuple[float, ...]] = {}
_DIRECTIONS: dict[int, tuple[complex, ...]] = {}
_TABLED_COUNT = 2048


def _positive(value, name: str) -> None:
    if not finite_real(value, name) > 0.0:
        raise DomainError(f"{name} must be positive, got {value!r}")


def _clenshaw_curtis(count: int) -> tuple[float, ...]:
    """Weights on [-1, 1] of the nodes cos(pi j/count), j = 0..count, for an
    even count, from the closed-form cosine sum (Waldvogel, BIT 46, 2006):
    the end weights are e = 1/(count^2 - 1), and the others
    (2/count) (1 + (-1)^(j+1) e - sum_{0<k<count/2} 2 cos(2 pi k j/count)/(4k^2 - 1)).
    """
    weights = _WEIGHTS.get(count)
    if weights is None:
        cosines = [math.cos(2.0 * math.pi * m / count) for m in range(count)]
        end = 1.0 / (count * count - 1)
        half = []  # w_1 .. w_(count/2); the rule is symmetric
        for j in range(1, count // 2 + 1):
            tail = 0.0
            for k in range(count // 2 - 1, 0, -1):  # smallest terms first
                tail += cosines[k * j % count] / (4 * k * k - 1)
            half.append((1.0 + (end if j % 2 else -end) - 2.0 * tail) * 2.0 / count)
        weights = _WEIGHTS[count] = (end, *half, *reversed(half[:-1]), end)
    return weights


def _cosines(count: int) -> tuple[float, ...]:
    # edge nodes on [-1, 1], j = 0..count
    table = _COSINES.get(count)
    if table is None:
        table = _COSINES[count] = tuple(math.cos(math.pi * j / count) for j in range(count + 1))
    return table


def _directions(count: int) -> tuple[complex, ...]:
    # circle nodes on the unit circle, j = 0..count-1; the angle 2 pi j/count
    # is exact under doubling j and count together
    table = _DIRECTIONS.get(count)
    if table is None:
        table = tuple(cmath.exp(2j * math.pi * j / count) for j in range(count))
        if count <= _TABLED_COUNT:
            _DIRECTIONS[count] = table
    return table


def _nested(values_at, nodes, estimate, count: int, levels: int, tol: float, what: str,
            rate: float = 1.0):
    """(estimates, gap, nodes in the last rule) from nested rules of count,
    2 count, 4 count, ... intervals.

    nodes(count) is the table of the rule's nodes, in index order, and
    values_at(table) the list of the summands at a table's nodes, in its
    order.  Node 2j of a doubled rule is node j of the one before, bit for
    bit, so each doubling asks only for the new odd j, once per node of the
    last rule in all; estimate(values, count) combines them into a tuple of
    estimates, one per integral that the rules share, and the gap is the
    largest of their changes.

    Stops once two successive estimates differ by at most tol.  Where the
    rule of M intervals is known to err like rate^M, it also accepts the
    rule of 2M once the last gap is at most the gap before it times
    rate^(M/2), the decay that rate predicts, and the gap times rate^M,
    the error that decay leaves in the finer rule, is at most tol; at
    rate 1, the default, that adds nothing to the gap test.  Raises
    ConvergenceError after `levels` doublings, or at the first estimate
    that is not finite.
    """
    values = values_at(nodes(count))
    previous, gap = None, math.inf
    for level in range(levels + 1):
        if level:
            count *= 2
            fresh = values_at(nodes(count)[1::2])
            merged = values + fresh
            merged[::2], merged[1::2] = values, fresh
            values = merged
        approx = estimate(values, count)
        if not all(map(cmath.isfinite, approx)):
            raise ConvergenceError(f"{what} estimate is not finite at {len(values)} nodes")
        if previous is not None:
            last_gap, gap = gap, max(map(abs, map(sub, approx, previous)))
            if gap <= tol or (level > 1
                              and gap <= last_gap * rate ** (count // 4)
                              and gap * rate ** (count // 2) <= tol):
                return approx, gap, len(values)
        previous = approx
    raise ConvergenceError(
        f"{what} did not settle below tol={tol:.3e} within {len(values)} nodes",
        achieved=gap,
    )


def rhombus_contour(y: float) -> tuple[complex, ...]:
    """Vertices of the closed rhombus -i -> y -> i -> -y, counterclockwise."""
    _positive(y, "y")
    return (-1j, complex(y), 1j, complex(-y))


def integrate_edge(f: Integrand, start, end, tol: float = 1e-10) -> tuple[complex, float, int]:
    """Integrate f along the straight segment start -> end.

    Clenshaw-Curtis rules on the whole segment, at the nodes
    mid + half cos(pi j/N), j = 0..N, both ends included, with N = 16
    doubled at most 7 times (see `_nested`) until two estimates differ by
    at most tol, the absolute error target.  Returns (value, that gap,
    nodes), f being called once per node; ConvergenceError past 2,049
    nodes or at an estimate that is not finite, DomainError for a
    non-finite start or end.
    """
    _positive(tol, "tol")
    start = finite_complex(start, "start")
    end = finite_complex(end, "end")
    mid = 0.5 * (start + end)
    half = 0.5 * (end - start)

    def values_at(xs):
        return [f(mid + half * x) for x in xs]

    def estimate(values, count):
        return (half * sum(map(mul, _clenshaw_curtis(count), values), 0j),)

    (value,), gap, nodes = _nested(values_at, _cosines, estimate, 16, _EDGE_LEVELS, tol,
                                   "edge quadrature")
    return value, gap, nodes


def integrate_closed(
    f: Integrand, vertices: list[complex] | tuple[complex, ...], tol: float = 1e-10
) -> tuple[complex, float, int]:
    """Sum of edge integrals around the closed polygon vertices[0] -> ... ->
    vertices[-1] -> vertices[0], as (value, error estimate, nodes): the
    sums, in edge order, of `integrate_edge`'s values, gaps and node counts,
    each edge meeting tol on its own.  So f is called at each vertex once
    per edge that meets there.  DomainError where vertices is not a list
    or a tuple of at least two points."""
    if not isinstance(vertices, (list, tuple)):
        raise DomainError(f"vertices must be a list or tuple of points, got {vertices!r}")
    if len(vertices) < 2:
        raise DomainError("a closed path needs at least two vertices")
    _positive(tol, "tol")
    points = [finite_complex(v, "vertex") for v in vertices]
    total = 0.0j
    err = 0.0
    nodes = 0
    for a, b in zip(points, points[1:] + points[:1]):
        value, edge_err, edge_nodes = integrate_edge(f, a, b, tol)
        total += value
        err += edge_err
        nodes += edge_nodes
    return total, err, nodes


def residue_by_circle(f: Integrand, center, radius: float,
                      tol: float = 1e-10) -> tuple[complex, float, int]:
    """(1/2 pi i) times the integral of f over the circle around center,
    as (value, error estimate, nodes), f being called once per node.

    Periodic trapezoid rules from 4 nodes, nested and doubled at most 18
    times, to 1,048,576 (see `_nested`).  The caller must keep radius at
    most R/16, R being the distance to the nearest other singularity, and
    that singularity and the pole at center poles of order at most 3: the
    rule of M nodes then errs like M^2 (radius/R)^M <= M^2 16^-M
    (Trefethen and Weideman, SIAM Rev. 56, 2014), and no rule aliases the
    center's zeta^-3 term onto its residue, 4 being the fewest nodes that
    do not.  So besides a gap within tol, the circle accepts the rule of
    2M nodes once its gap is at most 8^-(M/2) times the gap before it, the
    decay that the rate 8^-M predicts, and the gap times 8^-M is within
    tol; the factor 2 over 16^-M absorbs the M^2.  Where a radius breaks
    the contract, the gaps decay more slowly, that guard fails, and the
    gap alone stops the rules.
    It is `residue_pair_by_circle` with a zero mirror, whose gap is 0.
    DomainError for a non-finite center.
    """
    value, _, gap, nodes = residue_pair_by_circle(
        lambda zeta: (f(zeta), 0j), center, radius, tol)
    return value, gap, nodes


def residue_pair_by_circle(pair: Callable[[complex], tuple[complex, complex]], center,
                           radius: float, tol: float = 1e-10
                           ) -> tuple[complex, complex, float, int]:
    """The residues of f at center and at -center, from one nested
    trapezoid rule, as (residue at center, residue at -center, the larger
    of their gaps, nodes), pair(zeta) being (f(zeta), f(-zeta)), called
    once per node.

    The circle around center takes the nodes center + radius d_j of
    `residue_by_circle`, and the one around -center their negations,
    -center + radius (-d_j): a trapezoid rule turned by pi, with the same
    error.  So each node gives a term of each rule, and both rules stop
    together, by residue_by_circle's stop applied to the larger gap.  The
    caller keeps residue_by_circle's radius contract around both centers,
    as an f whose poles are symmetric about 0 does around one where it
    does around the other.  The residue at center is residue_by_circle's,
    bit for bit, wherever both circles stop at the same rule.  DomainError
    for a non-finite center.
    """
    _positive(tol, "tol")
    center = finite_complex(center, "center")
    _positive(radius, "radius")

    def values_at(ds):
        terms = []
        for d in ds:
            at, mirrored = pair(center + radius * d)
            terms.append((at * d, mirrored * d))
        return terms

    def estimate(terms, count):
        # each rule's terms in index order, as a single pass would add them;
        # the mirrored rule's directions are -d_j
        at, mirrored = zip(*terms)
        return sum(at, 0j) * radius / count, -sum(mirrored, 0j) * radius / count

    (value, mirrored), gap, nodes = _nested(values_at, _directions, estimate, 4, _MAX_LEVELS,
                                            tol, "circle quadrature", rate=_RATE)
    return value, mirrored, gap, nodes
