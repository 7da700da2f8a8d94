"""Seeded inputs for the workloads; nothing here imports siegeltheta.

The eval pools are stratified: the (Im tau, Re tau) rectangle is cut into
a grid with one point per cell, and Re z and Im z are Latin-hypercube
draws over the same points.  The marginals are those the workloads name
(log-uniform Im tau, uniform Re tau, uniform z), but the share of cheap
and expensive points no longer depends much on the seed, so throughput and
latency quantiles differ between seeds far less than with independent
draws.
"""

from __future__ import annotations

import math
import random

FUNCTIONS = ("theta1_reduced", "theta2", "theta3", "theta4")


def _cells(rng: random.Random, side: int):
    """(u, v) in [0, 1)^2, one per cell of a side x side grid, in seeded order."""
    cells = [((i + rng.random()) / side, (j + rng.random()) / side)
             for i in range(side) for j in range(side)]
    rng.shuffle(cells)
    return cells


def _latin(rng: random.Random, count: int) -> list[float]:
    """count values in [0, 1), one in each of count equal strata, shuffled."""
    values = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return values


def near_axis_candidates(seed: int, side: int):
    """side^2 theta1_reduced candidates (function, z, tau) near the real axis.

    Im tau is log-uniform in [1e-4, 1], Re tau uniform in [-2, 2], Re z in
    [-1, 1], Im z in [-0.5, 0.5].  The caller drops the candidates whose
    reference magnitude has no binary64 value.
    """
    rng = random.Random(f"near_axis:{seed}")
    cells = _cells(rng, side)
    count = len(cells)
    return [
        ("theta1_reduced", complex(-1.0 + 2.0 * a, -0.5 + b),
         complex(-2.0 + 4.0 * v, 10.0 ** (-4.0 + 4.0 * u)))
        for (u, v), a, b in zip(cells, _latin(rng, count), _latin(rng, count))
    ]


def fundamental_points(seed: int, side: int):
    """side^2 points (function, z, tau) in the fundamental domain.

    Re tau = -1/2 + v and Im tau runs from the unit circle up to 3 as u
    runs over [0, 1], one (u, v) per grid cell; so |Re tau| <= 1/2,
    |tau| >= 1 and Im tau <= 3.  Re z in [-1, 1], Im z in [-0.5, 0.5].
    The function cycles through theta1_reduced, theta2, theta3, theta4.
    """
    rng = random.Random(f"fundamental:{seed}")
    cells = _cells(rng, side)
    count = len(cells)
    points = []
    for index, ((u, v), a, b) in enumerate(zip(cells, _latin(rng, count), _latin(rng, count))):
        re = -0.5 + v
        floor = math.sqrt(1.0 - re * re)
        tau = complex(re, floor + (3.0 - floor) * u)
        z = complex(-1.0 + 2.0 * a, -0.5 + b)
        points.append((FUNCTIONS[index % len(FUNCTIONS)], z, tau))
    return points


def verify_seed_stream(seed: int):
    """Endless run_suite seeds, one per op, drawn from the workload seed."""
    rng = random.Random(f"verify_all:{seed}")
    while True:
        yield rng.randrange(1, 10**9)


def cli_commands(seed: int, count: int):
    """The cli_cold op sequence: three eval invocations, then one verify.

    Each op is (argv, function, z, tau); a verify has function None.
    theta1 evals use --reduce half of the time.  Points have Im tau in
    [0.5, 2], where every function needs few terms.
    """
    rng = random.Random(f"cli_cold:{seed}")
    ops = []
    for index in range(count):
        if index % 4 == 3:
            ops.append((["verify", "all", "--seed", str(rng.randrange(1, 10**9))], None, None, None))
            continue
        function = ("theta1", "theta2", "theta3", "theta4")[rng.randrange(4)]
        tau = complex(round(rng.uniform(-1.0, 1.0), 6), round(rng.uniform(0.5, 2.0), 6))
        z = complex(round(rng.uniform(-1.0, 1.0), 6), round(rng.uniform(-0.5, 0.5), 6))
        argv = ["eval", function, f"--z={_literal(z)}", f"--tau={_literal(tau)}"]
        if function == "theta1" and rng.random() < 0.5:
            argv.append("--reduce")
        ops.append((argv, function, z, tau))
    return ops


def _literal(value: complex) -> str:
    # the CLI's compact complex literal, e.g. 0.5-0.25i
    return f"{value.real!r}{value.imag:+}i"
