"""Byte-for-byte regression gate on the CLI's verify, sweep and eval output.

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

Run as a script to rewrite golden files from the current CLI, only those
named on the command line:

    PYTHONPATH=src python tests/test_golden.py eval_reduce_t_step.txt
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def rewrite(names):
    """Write each named golden file from its CASES argv; reject unknown names."""
    unknown = [name for name in names if name not in CASES]
    if unknown or not names:
        sys.exit(f"unknown golden files: {' '.join(unknown)}" if unknown
                 else "name the golden files to rewrite")
    for name in names:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(CASES[name])
        if code != 0:
            sys.exit(f"{name}: siegeltheta exited {code}")
        (GOLDEN / name).write_text(out.getvalue(), encoding="utf-8")
        print(f"rewrote {name}")


def test_rewrite_rejects_unknown_names_before_writing():
    # every name is checked before any file is written
    with pytest.raises(SystemExit, match="^unknown golden files: bogus.txt$"):
        rewrite(["eval_reduce_t_step.txt", "bogus.txt"])


if __name__ == "__main__":
    rewrite(sys.argv[1:])
