"""Command-line interface: evaluate theta functions, stream verification
suites as JSON lines, and write convergence sweeps as CSV or JSON tables.

Exit codes: 0 success (all checks passed), 1 some check failed, 2 bad
arguments (including tau outside the upper half-plane, and a kernel
evaluated within 1e-12/N of one of its poles), 3 no binary64 result
(non-convergence or overflow), 4 unwritable output path.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConvergenceError, DomainError, PoleProximityError, finite_complex
# eval loads only theta; verify and sweep import the suites module when they run
from .theta import _HALVES, SUITES, SWEEP_TARGETS, EvalConfig, _evaluate, format_complex


def parse_complex(text: str) -> complex:
    """Parse a compact complex literal: 0.5, i, 2i, 0.5-0.25i, 1+i.

    Whitespace inside the literal is rejected.
    """
    if not any(ch.isspace() for ch in text):
        try:  # the message names the literal as given, not its j form
            return finite_complex(text.replace("i", "j").replace("I", "J"), "literal")
        except DomainError:
            pass
    raise DomainError(f"invalid complex literal {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegeltheta",
        description="Jacobi theta evaluation and inversion-law verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a theta function at (z, tau)")
    ev.add_argument("function", choices=sorted(_HALVES))
    ev.add_argument("--z", required=True, help="complex literal, e.g. 0.5-0.25i")
    ev.add_argument("--tau", required=True, help="complex literal with Im > 0")
    defaults = EvalConfig()
    ev.add_argument("--eps", type=float, default=defaults.eps, help="truncation tolerance")
    ev.add_argument("--max-terms", type=int, default=defaults.max_terms)
    ev.add_argument(
        "--reduce", action="store_true",
        help="accepted and ignored: every function always takes the modular reduction",
    )
    ev.set_defaults(handler=_cmd_eval)

    vf = sub.add_parser("verify", help="run a verification suite as JSON lines")
    vf.add_argument("suite", choices=SUITES + ("all",))
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--count", type=int, default=None, help="points per sampled suite")
    vf.add_argument("--tol", type=float, default=None, help="override the suite tolerance")
    vf.add_argument("--n", type=int, default=None, help="truncation index for lemma2/lemma3")
    vf.add_argument(
        "--timing", action="store_true",
        help="measure wall_ms per check (breaks byte-level reproducibility)",
    )
    vf.set_defaults(handler=_cmd_verify)

    sw = sub.add_parser("sweep", help="write a convergence sweep table")
    sw.add_argument("target", choices=SWEEP_TARGETS)
    sw.add_argument("--start", type=float, default=None)
    sw.add_argument("--stop", type=float, default=None)
    sw.add_argument("--steps", type=int, default=None)
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--out", default="-", help="output path, '-' for stdout")
    sw.set_defaults(handler=_cmd_sweep)

    return parser


def _cmd_eval(args) -> int:
    z = parse_complex(args.z)
    tau = parse_complex(args.tau)
    cfg = EvalConfig(eps=args.eps, max_terms=args.max_terms)
    value, terms = _evaluate(args.function, z, tau, cfg)
    print(f"{format_complex(value)} terms={terms}")
    return 0


def _cmd_verify(args) -> int:
    from .suites import report_json_line, run_suite

    # one suite at a time, each written as it returns: a suite that raises
    # keeps the lines of those that ran before it
    passed = True
    for suite in SUITES if args.suite == "all" else (args.suite,):
        reports = run_suite(
            suite,
            seed=args.seed,
            count=args.count,
            tol=args.tol,
            n=args.n,
            timing=args.timing,
        )
        for report in reports:
            sys.stdout.write(report_json_line(report) + "\n")
        passed = passed and all(r.passed for r in reports)
    return 0 if passed else 1


def _cmd_sweep(args) -> int:
    from .suites import render_sweep_csv, render_sweep_json, sweep_rows

    header, rows = sweep_rows(args.target, args.start, args.stop, args.steps)
    rendered = (
        render_sweep_csv(header, rows)
        if args.format == "csv"
        else render_sweep_json(header, rows)
    )
    if args.out == "-":
        sys.stdout.write(rendered)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(rendered)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, PoleProximityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
