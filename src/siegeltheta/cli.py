"""Command-line interface: evaluate theta functions, stream verification
suites as JSON lines, and write convergence sweeps as CSV or JSON tables.

Exit codes: 0 success (all checks passed, or -h), 1 some check failed, 2
bad arguments (a usage error, tau outside the upper half-plane, a kernel
within 1e-12/N of a pole), 3 no binary64 result (non-convergence or
overflow), 4 unwritable output (the --out path, or a closed stdout).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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


def _cmd_eval(args) -> int:
    z = parse_complex(args.z)
    tau = parse_complex(args.tau)
    cfg = EvalConfig(eps=args.eps, max_terms=args.max_terms)
    value, terms = _evaluate(args.function, z, tau, cfg)
    print(f"{format_complex(value)} terms={terms}")
    return 0


def _cmd_verify(args) -> int:
    from .suites import iter_suite, report_json_line

    # each report written as its check produces it: a check that raises
    # keeps the lines of those that ran before it
    passed = True
    for report in iter_suite(args.suite, seed=args.seed, count=args.count, tol=args.tol,
                             n=args.n, timing=args.timing):
        sys.stdout.write(report_json_line(report) + "\n")
        passed = passed and report.passed
    return 0 if passed else 1


def _cmd_sweep(args) -> int:
    from .suites import render_sweep_csv, render_sweep_json, sweep_rows

    header, rows = sweep_rows(args.target, args.start, args.stop, args.steps)
    rendered = (render_sweep_csv if args.format == "csv" else render_sweep_json)(header, rows)
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


# each command's handler, help, positional (name, choices) and options
# {name: (converter, default, help)}: the converter is a callable, a tuple of
# choices, or None for a flag; a default of ... marks a required option
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate a theta function at (z, tau)", ("function", tuple(_HALVES)), {
        "z": (str, ..., "complex literal, e.g. 0.5-0.25i"),
        "tau": (str, ..., "complex literal with Im > 0"),
        "eps": (float, EvalConfig().eps, "truncation tolerance"),
        "max-terms": (int, EvalConfig().max_terms, "cap on series terms"),
        "reduce": (None, False, "ignored: every function always takes the modular reduction"),
    }),
    "verify": (_cmd_verify, "run a suite of checks as JSON lines", ("suite", (*SUITES, "all")), {
        "seed": (int, 0, "seed of the sampled points"),
        "count": (int, None, "points per sampled suite"),
        "tol": (float, None, "override the suite tolerance"),
        "n": (int, None, "truncation index for lemma2/lemma3"),
        "timing": (None, False, "measure wall_ms per check (breaks byte-level reproducibility)"),
    }),
    "sweep": (_cmd_sweep, "write a convergence sweep table", ("target", SWEEP_TARGETS), {
        "start": (float, None, "first grid value"), "stop": (float, None, "last grid value"),
        "steps": (int, None, "grid size"), "format": (("csv", "json"), "csv", "table format"),
        "out": (str, "-", "output path, '-' for stdout"),
    }),
}


def _help(command) -> int:
    """Print one command's help, or every command's for None; exit code 0."""
    lines = [f"usage: siegeltheta {{{','.join(_COMMANDS)}}} ... [-h]"]
    for name in (command,) if command else _COMMANDS:
        _, about, (_, choices), options = _COMMANDS[name]
        lines.append(f"\nsiegeltheta {name} {{{','.join(choices)}}} [options]: {about}")
        for option, (kind, default, text) in options.items():
            value = "" if kind is None else " " + (
                f"{{{','.join(kind)}}}" if isinstance(kind, tuple) else option.upper())
            note = "" if kind is None or default is None else (
                " (required)" if default is ... else f" (default {default})")
            lines.append(f"  --{option}{value}  {text}{note}")
    print("\n".join(lines))
    return 0


def _convert(label: str, kind, text: str):
    try:  # tuple.index raises ValueError, as int and float do
        return kind[kind.index(text)] if isinstance(kind, tuple) else kind(text)
    except ValueError:
        wanted = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else kind.__name__
        raise DomainError(f"invalid {label} {text!r}: expected {wanted}") from None


def _parse(argv):
    """(handler, args) for argv by _COMMANDS, (_help, command) for -h; DomainError on misuse."""
    command, *words = argv or [""]
    if command in ("-h", "--help"):
        return _help, None
    handler, _, (positional, choices), options = _COMMANDS[
        _convert("command", tuple(_COMMANDS), command)]
    values = {positional: ..., **{name: default for name, (_, default, _) in options.items()}}
    words = iter(words)
    for word in words:  # an option's value is the next word, even one starting with -
        name, given, text = word[2:].partition("=")
        if word in ("-h", "--help"):
            return _help, command
        if not word.startswith("--"):
            if values[positional] is not ...:
                raise DomainError(f"unexpected argument {word!r}")
            values[positional] = _convert(positional, choices, word)
        elif name not in options or given and options[name][0] is None:
            raise DomainError(f"unknown option {word!r} for {command}")
        elif options[name][0] is None:  # a flag
            values[name] = True
        else:
            text = text if given else next(words, None)
            if text is None:
                raise DomainError(f"--{name} needs a value")
            values[name] = _convert("--" + name, options[name][0], text)
    for name, value in values.items():
        if value is ...:
            raise DomainError(f"missing {'--' * (name in options)}{name}")
    return handler, SimpleNamespace(**{k.replace("-", "_"): v for k, v in values.items()})


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except (DomainError, PoleProximityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError as exc:
        # the reader has gone: what is left, and the flush at exit, go nowhere
        with open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
