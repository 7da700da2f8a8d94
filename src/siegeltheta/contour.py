"""Polygonal contours in the complex plane, adaptive edge quadrature, and
trapezoid-rule residue extraction on circles."""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence

from .errors import ConvergenceError, DomainError

__all__ = [
    "integrate_closed",
    "integrate_edge",
    "residue_by_circle",
    "rhombus_contour",
]

Integrand = Callable[[complex], complex]

# 15-point Gauss-Legendre rule on [-1, 1]: (node, weight) for the nonnegative
# nodes, mirrored. The literals are tabulated, not computed: a rule recomputed
# here differs in the last bit of some of them, which changes the verify output
# bytes. tests/test_contour.py checks them bit for bit.
_HALF_RULE = (
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.1984314853271116),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699398),
    (0.7244177313601701, 0.13957067792615444),
    (0.8482065834104272, 0.10715922046717141),
    (0.9372733924007058, 0.0703660474881084),
    (0.9879925180204854, 0.030753241996117203),
)
_GAUSS_RULE = tuple((-x, w) for x, w in reversed(_HALF_RULE[1:])) + _HALF_RULE


# bisection levels of an edge, and node doublings of a circle, before
# ConvergenceError
_MAX_LEVELS = 16


def _require_tol(tol: float) -> None:
    if not tol > 0.0:  # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol!r}")


def _finite_point(value, name: str) -> complex:
    value = complex(value)
    if not _is_finite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _is_finite(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


def rhombus_contour(y: float) -> tuple[complex, ...]:
    """Vertices of the closed rhombus -i -> y -> i -> -y, counterclockwise."""
    if not (isinstance(y, (int, float)) and math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive finite real, got {y!r}")
    return (-1j, complex(y), 1j, complex(-y))


def integrate_edge(f: Integrand, start, end, tol: float = 1e-10) -> tuple[complex, float]:
    """Integrate f along the straight segment start -> end.

    Gauss-Legendre panels refined by adaptive bisection until the local
    error estimate (coarse vs refined panel) is below a share of tol, the
    absolute error target.  Returns (value, error estimate); raises
    ConvergenceError if the total estimate still exceeds tol after 16
    levels of bisection, or as soon as a panel sum or an estimate is not
    finite.  DomainError for a non-finite start or end.
    """
    _require_tol(tol)
    start = _finite_point(start, "start")
    end = _finite_point(end, "end")

    def panel(a: complex, b: complex) -> complex:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * sum(w * f(mid + half * x) for x, w in _GAUSS_RULE)

    def refine(a, b, coarse, depth, tol):
        mid = 0.5 * (a + b)
        left = panel(a, mid)
        right = panel(mid, b)
        err = abs(left + right - coarse)
        # err is not finite iff a panel sum is not, and a NaN err would
        # slip past the final err > tol test
        if not math.isfinite(err):
            raise ConvergenceError(f"edge quadrature panel sum is not finite at level {depth}")
        if err <= tol or depth >= _MAX_LEVELS:
            return left + right, err
        lv, le = refine(a, mid, left, depth + 1, 0.5 * tol)
        rv, re = refine(mid, b, right, depth + 1, 0.5 * tol)
        return lv + rv, le + re

    value, err = refine(start, end, panel(start, end), 1, tol)
    if err > tol:
        raise ConvergenceError(
            f"edge quadrature error estimate {err:.3e} > tol={tol:.3e} "
            f"after {_MAX_LEVELS} levels",
            achieved=err,
        )
    return value, err


def integrate_closed(
    f: Integrand, vertices: Sequence[complex], tol: float = 1e-10
) -> tuple[complex, float]:
    """Sum of edge integrals around the closed polygon vertices[0] -> ... ->
    vertices[-1] -> vertices[0]; error estimates add up, and each edge
    meets tol on its own."""
    if len(vertices) < 2:
        raise DomainError("a closed path needs at least two vertices")
    total = 0.0j
    err = 0.0
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        value, edge_err = integrate_edge(f, a, b, tol)
        total += value
        err += edge_err
    return total, err


def residue_by_circle(f: Integrand, center, radius: float, tol: float = 1e-10) -> complex:
    """(1/2 pi i) times the integral of f over the circle around center.

    Periodic trapezoid rule with node doubling from 15 nodes; spectrally
    accurate as long as f is analytic in a neighborhood of the circle, so the
    caller must keep radius at most half the distance to the nearest other
    singularity.  The rules are nested: node 2j of a doubled rule is node j
    of the one before, bit for bit, so each doubling evaluates f only at the
    new odd nodes, and f runs once per node of the last rule.  Stops once
    two successive estimates differ by at most tol; raises ConvergenceError
    after 16 doublings, or at the first estimate that is not finite.
    DomainError for a non-finite center.
    """
    _require_tol(tol)
    center = _finite_point(center, "center")
    if not (math.isfinite(radius) and radius > 0.0):
        raise DomainError(f"radius must be a positive finite real, got {radius!r}")
    count = len(_GAUSS_RULE)

    def term(j):
        # the angle 2 pi j / count is exact under doubling j and count together
        direction = cmath.exp(2j * math.pi * j / count)
        return f(center + radius * direction) * direction

    previous = None
    gap = math.inf
    for level in range(_MAX_LEVELS + 1):
        if level:
            count *= 2
            doubled = [None] * count
            doubled[0::2] = terms
            doubled[1::2] = [term(j) for j in range(1, count, 2)]
            terms = doubled
        else:
            terms = [term(j) for j in range(count)]
        total = 0.0j
        for value in terms:  # in index order, as a single pass would add them
            total += value
        approx = total * radius / count
        if not _is_finite(approx):
            raise ConvergenceError(f"circle quadrature estimate is not finite at {count} nodes")
        if previous is not None:
            gap = abs(approx - previous)
            if gap <= tol:
                return approx
        previous = approx
    raise ConvergenceError(
        f"circle quadrature did not settle below tol={tol:.3e} "
        f"within {count} nodes",
        achieved=gap,
    )
