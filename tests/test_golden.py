"""Byte-for-byte regression gate on the CLI's verify, sweep and eval output,
and on the T/S steps of theta1_reduced and theta2.

The verify and sweep files under tests/golden/ were written by the CLI before
the product, Lambert-term and suite-runner code was consolidated, the eval
files before the tolerance configs were folded into constants; any refactor
of those paths must reproduce them exactly.  The verify files were rewritten
twice on purpose.  When the circle quadrature began to reuse the nodes of its
previous rule, terms_or_nodes (the kernel calls) of the lemma2 circle records
moved and no other byte.  When the rhombus edges moved from Gauss-Legendre
bisection to nested Clenshaw-Curtis rules, the residual and terms_or_nodes
of the lemma2_residue_theorem_contour record moved (1380 to 516 kernel
calls) and no other byte.  The eval files eval_reduce_t_step.txt and
eval_reduce_t_and_s_step.txt were rewritten on purpose when theta1_reduced
took one step function for every T/S step: the first step now shifts z by
n tau as well, and a last T step is kept where no S step follows it.  Both
moved in their last digits only, and both stay within 1e-12 of the 40-digit
values in test_theta.py.  Four files were rewritten on purpose when the
steps began to carry their multiplier as a log and one exp formed the
value: eval_reduce_s_step.txt (its -0i became +0i), the last digits of
eval_reduce_t_and_s_step.txt, and the abs_diff column of
sweep_reduction_gain.csv and sweep_reduction_gain.json in 6 of their 10
rows (the reduced side of that difference moved; the direct side did not).
Four files were rewritten on purpose when theta1, theta2 and eval began to
take theta1_reduced's steps, with the product at the reduced point taken at
Im z <= 0: eval_theta1_fundamental.txt, eval_theta2_fundamental.txt and
eval_reduce_fundamental.txt moved from 1.5e-13 to 4.2e-14 relative of the
values of perfbench/reference.py, and eval_theta1_eps_max_terms.txt from
1.5e-7 to 2.8e-13, with 2 factors where the plain product took 5.  The
verify and sweep files, which the plain product serves, kept every byte.
Eight files were rewritten on purpose when the steps began to sum a short
sine series at the reduced point instead of the product:
eval_theta1_fundamental.txt, eval_theta2_fundamental.txt and
eval_reduce_fundamental.txt moved from 4.2e-14 to 8e-16 relative of the
values of perfbench/reference.py, with 3 terms where the product took 4;
eval_reduce_t_step.txt and eval_reduce_t_and_s_step.txt moved in their last
digits, with 3 terms for 4; eval_theta1_eps_max_terms.txt moved from
2.8e-13 to 8.2e-14 (eps = 1e-6); and in sweep_reduction_gain.csv and
sweep_reduction_gain.json the abs_diff column moved in 5 of their 10 rows
and, in the last row (Im tau = 1, no step), terms_reduced from 5 to 3 and
gain with it.  The verify, edge_limit and lambert_tail files kept every
byte.
eval_theta3_fundamental.txt and eval_theta4_fundamental.txt were rewritten
on purpose when theta3 and theta4 left the triple product for theta1's
steps and series at z + tau/2: both moved in their last digits, from
2.6e-15 to 2.3e-16 and from 2.9e-15 to 2.2e-15 relative of the values of
perfbench/reference.py, with 3 series terms where the product took 4
factors.  No other file moved.  eval_theta4_fundamental.txt moved again in
its last digit (7.9e-16 to 7.0e-16 relative) when theta4's prefactor
began to be formed from the rounded point u = z + tau/2 that the series
takes, with Re u and Re tau reduced so that both exponents cancel exactly.

steps_seeded_points.txt was written before the T/S steps were folded from
a step function and its state tuple into one loop, which had to leave it
and every other file byte-identical.  It holds the repr of
theta1_reduced's (value, terms_used, reduced) and of theta2's (value,
terms), or the error's type and message, at 400 seeded points (Im tau
log-uniform in 1e-7..3, |Re tau| and |Re z| up to 3, Im z within
5 sqrt(Im tau)) and at a subnormal Im tau, a value beyond binary64, an
exact zero of theta1 and a huge Im z.  No CLI command prints it: the
CASES entry is a function that returns the text.  After the fold, six of
its lines were rewritten on purpose, and no other byte: where a step's
lattice shift, log, inverted z or -1/tau is not finite (at 0.3 and 0.5
with tau = 1e-320i, and at 0.3+1e300i with tau = 0.5i), theta1_reduced
and theta2 now say "reduced theta1: a T/S step left the binary64 range"
for "reduced theta1 overflowed the binary64 range", which was untrue
where the value underflows.  Five more lines were rewritten on purpose
when the series' rounding bound stopped charging 2 pi |Im z| per term
where the imaginary parts only scale the terms' moduli: at three declined
points, whose series runs at Im tau = 61 to 641 after the S steps, the
reported bound moved in its fourth digit (1.381e-09 to 1.380e-09, say);
no value, term count or decision moved.

Run as a script to rewrite golden files from the current code, only those
named on the command line:

    PYTHONPATH=src python tests/test_golden.py eval_reduce_t_step.txt
"""

import contextlib
import io
import math
import random
import sys
from functools import partial
from pathlib import Path

import pytest

from siegeltheta import ConvergenceError, theta
from siegeltheta.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_all_seed42.jsonl": ["verify", "all", "--seed", "42"],
    "verify_all_seed7_count40.jsonl": ["verify", "all", "--seed", "7", "--count", "40"],
}
for _target in ("edge_limit", "reduction_gain", "lambert_tail"):
    for _fmt in ("csv", "json"):
        CASES[f"sweep_{_target}.{_fmt}"] = ["sweep", _target, "--format", _fmt]
# a fundamental-domain point for each function, then theta1_reduced with no
# step, the S step, a T step, and both
_FUNDAMENTAL = ["--z=0.3+0.1i", "--tau=0.1+1.2i"]
for _function in ("theta1", "theta2", "theta3", "theta4"):
    CASES[f"eval_{_function}_fundamental.txt"] = ["eval", _function, *_FUNDAMENTAL]
CASES["eval_theta1_eps_max_terms.txt"] = [
    "eval", "theta1", "--z=0.3", "--tau=0.5i", "--eps=1e-6", "--max-terms=100"]
CASES["eval_reduce_fundamental.txt"] = ["eval", "theta1", "--reduce", *_FUNDAMENTAL]
CASES["eval_reduce_s_step.txt"] = ["eval", "theta1", "--reduce", "--z=0.3", "--tau=0.01i"]
CASES["eval_reduce_t_step.txt"] = [
    "eval", "theta1", "--reduce", "--z=0.3", "--tau=2.02+0.0005i"]
CASES["eval_reduce_t_and_s_step.txt"] = [
    "eval", "theta1", "--reduce", "--z=0.1+0.2i", "--tau=-1.37+0.003i"]


def _seeded_points():
    """theta1_reduced and theta2, one line each, at 400 seeded points and a
    few edge inputs: the value, terms and reduced flag, or the error."""
    rng = random.Random(20261019)
    points = []
    for _ in range(400):
        # Im z within 5 sqrt(Im tau), where most values lie in binary64
        tau = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-7.0, math.log10(3.0)))
        z = complex(rng.uniform(-3.0, 3.0), 5.0 * math.sqrt(tau.imag) * rng.uniform(-1.0, 1.0))
        points.append((z, tau))
    # a subnormal Im tau, a value beyond binary64, the zero 3 tau - 2 (exact,
    # tau being dyadic) and an Im z whose lattice shift is not finite
    points += [(0.3, 1e-320j), (0.5, 1e-320j), (10j, 0.1j),
               (3 * (0.25 + 0.5j) - 2, 0.25 + 0.5j), (0.3 + 1e300j, 1j), (0.3 + 1e300j, 0.5j)]
    lines = []
    for z, tau in points:
        for name, function in (("theta1_reduced", theta.theta1_reduced),
                               ("theta2", partial(theta._evaluate, "theta2"))):
            try:
                got = tuple(function(z, tau, theta.EvalConfig()))
            except (ConvergenceError, OverflowError) as exc:
                got = f"{type(exc).__name__}: {exc}"
            lines.append(f"{name} {complex(z)!r} {complex(tau)!r} {got}\n")
    return "".join(lines)


# theta1_reduced and theta2 through the T/S steps, away from the CLI
CASES["steps_seeded_points.txt"] = _seeded_points


def _output(case):
    """(exit code, stdout) of a CASES entry: CLI argv, or a callable that
    returns the text itself."""
    if callable(case):
        return 0, case()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(case)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name):
    code, out = _output(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def rewrite(names):
    """Write each named golden file from its CASES argv; reject unknown names."""
    unknown = [name for name in names if name not in CASES]
    if unknown or not names:
        sys.exit(f"unknown golden files: {' '.join(unknown)}" if unknown
                 else "name the golden files to rewrite")
    for name in names:
        code, out = _output(CASES[name])
        if code != 0:
            sys.exit(f"{name}: siegeltheta exited {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
        print(f"rewrote {name}")


def test_rewrite_rejects_unknown_names_before_writing():
    # every name is checked before any file is written
    with pytest.raises(SystemExit, match="^unknown golden files: bogus.txt$"):
        rewrite(["eval_reduce_t_step.txt", "bogus.txt"])


if __name__ == "__main__":
    rewrite(sys.argv[1:])
