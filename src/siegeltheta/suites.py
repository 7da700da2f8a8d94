"""Check suites, seeded samplers, sweeps, and the report records they emit."""

from __future__ import annotations

import cmath
import math
import random
import time
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain

# json.dumps quotes a str with this C function; importing it from _json, not
# json.encoder, keeps the json package (decoder and scanner too) out of verify
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without CPython's accelerator module
    from json.encoder import encode_basestring_ascii as _quote

# integrate_closed, residue_by_circle and residue_kernel have no caller here:
# they stay bound because the benchmark's verify_all trace wraps them on this
# module, and tests/test_trace_names.py checks that they are bound
from .contour import (  # noqa: F401
    integrate_closed,
    integrate_edge,
    residue_by_circle,
    residue_pair_by_circle,
    rhombus_contour,
)
from .errors import DomainError, finite_real, positive_int
from .theta import (
    SUITES,
    SWEEP_TARGETS,
    EvalConfig,
    _theta1_plain,
    format_complex,
    product_terms,
    theta1_reduced,
)
from .verifier import (
    EDGES,
    LAMBERT_EPS,
    DomainPoint,
    ResidueBreakdown,
    closed_residue_sum,
    edge_limit_residual,
    inversion_log_ratio,
    inversion_log_ratio_lambert,
    lambert_terms,
    log_identity_residual,
    log_theta1_lambert,
    residue_imag_pole,
    residue_kernel,  # noqa: F401
    residue_kernel_pair,
    residue_real_pole,
    transformation_residual,
)

# canonical evaluation points for the fixed-point checks
LEMMA2_POINT = (0.5, -0.25, 2.0)
LEMMA3_POINT = (0.5, -0.25, 1.5)

# wall_ms stays 0 unless run_suite is asked for timing
VerificationReport = namedtuple(
    "VerificationReport",
    "check_name parameters residual tolerance passed terms_or_nodes wall_ms",
    defaults=(0.0,),
)


def _report(check_name, parameters, residual, tolerance, terms_or_nodes) -> VerificationReport:
    residual = float(residual)
    tolerance = float(tolerance)
    return VerificationReport(
        check_name, dict(parameters), residual, tolerance, residual <= tolerance,
        int(terms_or_nodes),
    )


def _format_float(value: float) -> str:
    return format(float(value), ".17g")


def _to_json(value) -> str:
    # deterministic JSON: sorted keys, floats at 17 significant digits
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        items = [f"{_quote(str(k))}: {_to_json(v)}" for k, v in sorted(value.items())]
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([_to_json(v) for v in value]) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_json_line(report: VerificationReport) -> str:
    """One report as a single JSON line.

    For every report the suites build these are the bytes of
    ``_to_json(report._asdict())``.
    """
    # keys in sorted order; only the parameters need the generic walk
    name, parameters, residual, tolerance, passed, terms_or_nodes, wall_ms = report
    return (
        f'{{"check_name": {_quote(name)}, "parameters": {_to_json(parameters)}, '
        f'"passed": {"true" if passed else "false"}, "residual": {residual:.17g}, '
        f'"terms_or_nodes": {terms_or_nodes!r}, "tolerance": {tolerance:.17g}, '
        f'"wall_ms": {wall_ms:.17g}}}'
    )


# ---------------------------------------------------------------------------
# Seeded samplers
# ---------------------------------------------------------------------------

def sample_grid(count: int, seed: int) -> list[tuple[complex, complex]]:
    """Seeded (z, tau) pairs with Im tau in [0.3, 3] and general Re tau."""
    rng = random.Random(seed)
    grid = []
    for _ in range(positive_int(count, "count")):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))
        grid.append((z, tau))
    return grid


# the last draw of sample_domain_points, keyed by its count and the
# generator's state: lemma1 and theorem draw the same points, and theorem
# then reads the Lambert terms that lemma1 formed on them.  Keyed by the
# state, not the seed, so every seed random.Random takes works (a bytearray
# cannot be hashed) and two seeds share a draw only where their sequences
# agree
_last_draw = (None, ())


def sample_domain_points(count: int, seed: int) -> list[DomainPoint]:
    """Seeded DomainPoints (n = 1) kept away from the slow-convergence boundary.

    A new list on each call; two calls in a row with the same count and
    the same random sequence share their DomainPoint instances.
    """
    global _last_draw
    rng = random.Random(seed)
    key = (positive_int(count, "count"), rng.getstate())
    last = _last_draw  # one read: another thread may replace the slot
    if last[0] != key:
        last = _last_draw = key, tuple(
            DomainPoint(
                a=rng.uniform(0.3, 0.7),
                b=-rng.uniform(0.15, 0.35),
                y=rng.uniform(1.2, 2.5),
            )
            for _ in range(count)
        )
    return list(last[1])


# ---------------------------------------------------------------------------
# Suites: each generator takes (seed, size, tol), size being a point count or
# the truncation index n
# ---------------------------------------------------------------------------

def _suite_eq2(seed, count, tol):
    for index, (z, tau) in enumerate(sample_grid(count, seed)):
        yield _report(
            "eq2_inversion_law",
            {"index": index, "z": format_complex(z), "tau": format_complex(tau)},
            transformation_residual(z, tau),
            tol,
            product_terms(z, tau),
        )


def _suite_lemma1(seed, count, tol):
    for index, p in enumerate(sample_domain_points(count, seed)):
        residual = abs(inversion_log_ratio(p) - inversion_log_ratio_lambert(p))
        params = {"index": index, **p._asdict()}
        yield _report("lemma1_log_series_equivalence", params, residual, tol, lambert_terms(p))


def _lemma2_circles(p: DomainPoint, breakdown: ResidueBreakdown) -> list:
    """lemma2's circle checks at p, as (check, extra parameters, center,
    closed-form residue): the pole at 0, then each pair of poles ik/N and
    ky/N with |k| <= 2."""
    circles = [("lemma2_residue_zero_vs_circle", {}, 0.0, breakdown.at_zero)]
    for (k, imag), (_, real) in zip(breakdown.at_imag, breakdown.at_real):
        if abs(k) <= 2:
            circles.append(("lemma2_residue_imag_vs_circle", {"k": k}, 1j * k / p.N, imag))
            circles.append(("lemma2_residue_real_vs_circle", {"k": k}, k * p.y / p.N, real))
    return circles


def _lemma2_radius(p: DomainPoint, center: complex) -> float:
    """The radius of lemma2's circle around the kernel pole center, R/16 as
    residue_by_circle's contract allows, R being the distance to the next
    pole.  The poles are ik/N and ky/N, the one at 0 triple, so R is 1/N
    around ik/N, y/N around ky/N (k != 0) and min(1, y)/N around 0."""
    if not center:
        reach = min(1.0, p.y)
    elif complex(center).imag:
        reach = 1.0
    else:
        reach = p.y
    return reach / (16.0 * p.N)


def _lemma2_rhombus(p: DomainPoint) -> tuple[complex, int]:
    """(the kernel's integral over the rhombus (-i, y, i, -y), pair
    evaluations): E3 and E4 are E1 and E2 turned by pi, orientation kept,
    so it is the integral of the odd K(u) - K(-u) over E1 and E2, each edge
    at tol 2e-10, as it stands for two edges at 1e-10.

    The poles +-in/N and +-ny/N sit just inside the vertices, 1/(2N) and
    y/(2N) from them.  On each edge the quadrature takes the odd kernel
    less the principal parts c/(u - q) at the two of them nearest its ends,
    and each part comes back as c Log((end - q)/(start - q)), exact as a
    segment subtends less than pi at a point off it; at n = 3 each edge
    then settles at 65 nodes, not 129.  The odd kernel's residue at q and
    at -q is c = r_q + r_-q, from the closed forms; any c gives the same
    integral, and a wrong one only leaves a pole for the rule to resolve,
    at more nodes.
    """
    n = p.n
    imag, real = 1j * n / p.N, n * p.y / p.N
    # through the module globals, which a caller may replace
    c_imag = residue_imag_pole(n, p) + residue_imag_pole(-n, p)
    c_real = residue_real_pole(n, p) + residue_real_pole(-n, p)

    def edge(start, end, q0, c0, q1, c1):
        def smooth(u):  # through the module global, which a trace may wrap
            at, mirrored = residue_kernel_pair(u, p)
            return at - mirrored - c0 / (u - q0) - c1 / (u - q1)

        value, _, nodes = integrate_edge(smooth, start, end, tol=2e-10)
        return (value + c0 * cmath.log((end - q0) / (start - q0))
                + c1 * cmath.log((end - q1) / (start - q1)), nodes)

    bottom, right, top, _ = rhombus_contour(p.y)
    # E1 (-i -> y) passes -in/N and ny/N, E2 (y -> i) ny/N and in/N
    e1, nodes1 = edge(bottom, right, -imag, c_imag, real, c_real)
    e2, nodes2 = edge(right, top, real, c_real, imag, c_imag)
    return e1 + e2, nodes1 + nodes2


def _suite_lemma2(seed, n, tol):
    a, b, y = LEMMA2_POINT
    p = DomainPoint(a, b, y, n)
    params = p._asdict()

    def pair(zeta):  # through the module global, which a trace may wrap
        return residue_kernel_pair(zeta, p)

    closed = closed_residue_sum(p)
    breakdown = ResidueBreakdown.compute(p)
    residual = abs(breakdown.total_times_2pi_i - closed)
    poles = 1 + len(breakdown.at_imag) + len(breakdown.at_real)
    yield _report("lemma2_breakdown_vs_closed_sum", params, residual, tol, poles)

    # the circles around c and -c (k and -k on one axis) share one rule, and
    # both report its nodes; around 0 the two are one circle, and as the key
    # -0.0 is 0.0, the residue written last, at center, is the one kept
    oracles = {}
    for check, extra, center, residue in _lemma2_circles(p, breakdown):
        if center not in oracles:
            at, mirrored, _, nodes = residue_pair_by_circle(
                pair, center, _lemma2_radius(p, center), tol=1e-12)
            oracles[-center] = mirrored, nodes
            oracles[center] = at, nodes
        oracle, nodes = oracles[center]
        yield _report(check, {**extra, **params}, abs(residue - oracle), tol, nodes)

    value, nodes = _lemma2_rhombus(p)
    yield _report("lemma2_residue_theorem_contour", params, abs(value - closed), tol, nodes)

    deep = DomainPoint(a, b, y, 25)
    limit = (
        inversion_log_ratio_lambert(deep)
        + math.pi * deep.z * deep.z / deep.y
        - 0.5j * math.pi
    )
    # its own 25 terms per side: deep._sides holds only the 20 that phi needs
    residual = abs(closed_residue_sum(deep) - limit)
    yield _report("lemma2_partial_sum_limit", deep._asdict(), residual, tol, deep.n)


def _suite_lemma3(seed, n, tol):
    a, b, y = LEMMA3_POINT
    p = DomainPoint(a, b, y, n)
    for edge in EDGES:
        residual = edge_limit_residual(edge, 0.5, p)
        params = {"edge": edge, "t": 0.5, **p._asdict()}
        yield _report("lemma3_edge_limit", params, residual, tol, n)


def _suite_theorem(seed, count, tol):
    for index, p in enumerate(sample_domain_points(count, seed)):
        params = {"index": index, **p._asdict()}
        yield _report(
            "theorem_log_identity", params, log_identity_residual(p), tol, lambert_terms(p)
        )


# name -> (generator, default tol, default size, whether --count (else --n)
# sets the size); in the order of theta.SUITES
_SUITES = {
    "eq2": (_suite_eq2, 1e-10, 25, True),
    "lemma1": (_suite_lemma1, 1e-10, 10, True),
    "lemma2": (_suite_lemma2, 1e-8, 3, False),
    "lemma3": (_suite_lemma3, 1e-6, 10, False),
    "theorem": (_suite_theorem, 1e-9, 10, True),
}


def _check_arguments(suite, count, tol, n) -> None:
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    for name, value in (("count", count), ("n", n)):
        if value is not None:
            positive_int(value, name)
    if tol is not None and not finite_real(tol, "tol") >= 0.0:
        raise DomainError(f"tol must be >= 0, got {tol!r}")


def iter_suite(
    suite: str,
    seed: int = 0,
    count: int | None = None,
    tol: float | None = None,
    n: int | None = None,
    timing: bool = False,
) -> Iterator[VerificationReport]:
    """run_suite's reports one at a time, each as its check produces it, so
    a check that raises leaves those before it with the caller.

    The arguments are checked at the call, before any check runs; 'all'
    starts each suite as the one before it ends.  With timing, each
    report's wall_ms is the time taken to produce it, not counting the
    caller's time between reports.
    """
    _check_arguments(suite, count, tol, n)
    if suite == "all":
        return chain.from_iterable(
            iter_suite(name, seed=seed, count=count, tol=tol, n=n, timing=timing)
            for name in SUITES
        )
    generate, default_tol, default_size, sized_by_count = _SUITES[suite]
    size = count if sized_by_count else n
    reports = generate(
        seed, default_size if size is None else size, default_tol if tol is None else tol
    )
    return _timed(reports) if timing else reports


def _timed(reports):
    started = time.perf_counter()
    for report in reports:
        yield report._replace(wall_ms=(time.perf_counter() - started) * 1e3)
        started = time.perf_counter()


def run_suite(
    suite: str,
    seed: int = 0,
    count: int | None = None,
    tol: float | None = None,
    n: int | None = None,
    timing: bool = False,
) -> list[VerificationReport]:
    """Run one named suite (or 'all') and return its reports in emission order.

    count and n must be >= 1 and tol finite and >= 0 when given; otherwise
    DomainError is raised before any check runs.  eq2, lemma1 and theorem
    draw their points from seed; lemma2 and lemma3 run at LEMMA2_POINT and
    LEMMA3_POINT and never read it.  With timing, each report's wall_ms is
    the time taken to produce it.
    """
    if suite != "all":
        return list(iter_suite(suite, seed=seed, count=count, tol=tol, n=n, timing=timing))
    _check_arguments(suite, count, tol, n)
    # through the module global, with the name first: a caller may wrap
    # run_suite and see each suite's own call
    return [report for name in SUITES
            for report in run_suite(name, seed=seed, count=count, tol=tol, n=n, timing=timing)]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _grid(target: str, start, stop, steps, default_start: float, default_stop: float,
          geometric: bool) -> list[float]:
    """steps values (10 by default) from start to stop, spaced evenly, or
    by a constant ratio where geometric; [] where start > stop."""
    first = default_start if start is None else float(finite_real(start, f"{target} start"))
    last = default_stop if stop is None else float(finite_real(stop, f"{target} stop"))
    count = 10 if steps is None else positive_int(steps, f"{target} steps")
    if geometric and not first > 0.0:
        raise DomainError(f"{target} start must be a positive Im tau, got {first!r}")
    if first > last:
        return []
    if count == 1 or first == last:
        return [first]
    if geometric:
        ratio = (last / first) ** (1.0 / (count - 1))
        return [first * ratio**i for i in range(count)]
    step = (last - first) / (count - 1)
    return [first + step * i for i in range(count)]


def _integer_bound(name: str, value, default: int) -> int:
    # the CLI passes --start and --stop as floats: an integer-valued one is taken
    if value is None:
        return default
    if finite_real(value, f"edge_limit {name}") != int(value):
        raise DomainError(f"edge_limit {name} must be an integer, got {value!r}")
    return int(value)


def sweep_rows(target, start=None, stop=None, steps=None):
    """Header and rows for a named sweep target."""
    if target == "edge_limit":
        if steps is not None:  # one row per n from start to stop
            raise DomainError(f"edge_limit takes no steps, got {steps!r}")
        first = _integer_bound("start", start, 2)
        last = _integer_bound("stop", stop, 20)
        header = ["n", "edge", "t", "a", "b", "y", "residual"]
        rows = []
        for n in range(first, last + 1):
            p = DomainPoint(*LEMMA2_POINT, n)
            rows.append([n, "E2", 0.5, p.a, p.b, p.y, edge_limit_residual("E2", 0.5, p)])
        return header, rows

    if target == "reduction_gain":
        values = _grid(target, start, stop, steps, 0.01, 1.0, geometric=True)
        header = ["im_tau", "z", "eps", "terms_direct", "terms_reduced", "gain", "abs_diff"]
        z = 0.3
        eps = EvalConfig().eps  # the tolerance of both sides
        rows = []
        for im_tau in values:
            tau = complex(0.0, im_tau)
            reduced = theta1_reduced(z, tau)
            direct_terms = product_terms(z, tau)
            rows.append([
                im_tau, z, eps, direct_terms, reduced.terms_used,
                direct_terms / reduced.terms_used,
                abs(reduced.value - _theta1_plain(z, tau)),
            ])
        return header, rows

    if target == "lambert_tail":
        values = _grid(target, start, stop, steps, 1.1, 5.0, geometric=False)
        header = ["y", "a", "b", "eps", "terms", "residual"]
        a, b, _ = LEMMA2_POINT
        rows = []
        for y in values:
            p = DomainPoint(a, b, y)
            product = _theta1_plain(p.z, complex(0.0, y))
            expanded = cmath.exp(log_theta1_lambert(p))
            residual = abs(expanded - product) / max(1.0, abs(product))
            rows.append([y, p.a, p.b, LAMBERT_EPS, lambert_terms(p), residual])
        return header, rows

    raise DomainError(f"unknown sweep target {target!r}; expected one of {SWEEP_TARGETS}")


def render_sweep_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_sweep_json(header, rows) -> str:
    records = [dict(zip(header, row)) for row in rows]
    return _to_json(records) + "\n"
