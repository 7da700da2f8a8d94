"""Byte-for-byte regression gate on the CLI's verify, sweep and eval output,
and on the T/S steps of theta1_reduced and theta2 to theta4.

Each CASES entry names a file under tests/golden/ and the CLI argv that
writes it, or a callable that returns its text.  verify_all_seeds.csv is
one: the exit code and a hash of the output of `verify all --seed S` for
S = 0..59.  The steps_*.txt files are others: one line per function at each
of 400 seeded points (Im tau log-uniform in 1e-7..3, |Re tau| and |Re z| up
to 3, Im z within 5 sqrt(Im tau)) and six edge inputs, holding the repr of
the result or the error's type and message.  The gate compares the output with its file byte
for byte, so a refactor of these paths must reproduce every file exactly.
CHANGES.md names each file that was rewritten on purpose, and what moved.

Run as a script to rewrite golden files from the current code, only those
named on the command line:

    PYTHONPATH=src python tests/test_golden.py eval_reduce_t_step.txt

or, with --compare, to print how the current output differs from the named
files, writing nothing: each record that differs (a line of a .jsonl or
.txt file, a data row of a .csv file, an element of a .json file), its
fields that differ with their old and new values, for each numeric field
that moved its largest change and its largest value before and after, and
for each complex field that moved its largest relative change.  A .txt
line is read as its value, term count, and reduced flag or error (see
`_text_record`), and each .txt file also prints how many records moved
in each of those fields:

    PYTHONPATH=src python tests/test_golden.py --compare verify_lemma2_n1.jsonl
"""

import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from siegeltheta import ConvergenceError, theta, verifier
from siegeltheta.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_all_seed42.jsonl": ["verify", "all", "--seed", "42"],
    "verify_all_seed7_count40.jsonl": ["verify", "all", "--seed", "7", "--count", "40"],
    # fewer poles than lemma2's |k| <= 2 circles, then more
    "verify_lemma2_n1.jsonl": ["verify", "lemma2", "--n", "1"],
    "verify_lemma2_n9.jsonl": ["verify", "lemma2", "--n", "9"],
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
    """400 seeded (z, tau) and a few edge inputs."""
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
    return points


def _steps(names):
    """One line per seeded point and named function, theta1_reduced or a
    theta function through `theta._evaluate`: its result tuple, or the
    error."""
    lines = []
    for z, tau in _seeded_points():
        for name in names:
            function = (theta.theta1_reduced if name == "theta1_reduced"
                        else partial(theta._evaluate, name))
            try:
                got = tuple(function(z, tau, theta.EvalConfig()))
            except (ConvergenceError, OverflowError) as exc:
                got = f"{type(exc).__name__}: {exc}"
            lines.append(f"{name} {complex(z)!r} {complex(tau)!r} {got}\n")
    return "".join(lines)


# the T/S steps away from the CLI: theta1_reduced and theta2 at halves b = 0,
# theta3 and theta4 through the b = 1 branch
CASES["steps_seeded_points.txt"] = partial(_steps, ("theta1_reduced", "theta2"))
CASES["steps_theta3_theta4.txt"] = partial(_steps, ("theta3", "theta4"))


def _verify_all_seeds():
    """A CSV row per seed S = 0..59 of `verify all --seed S`: S, the exit
    code and the sha256 of the output; record S + 1 under --compare."""
    rows = ["seed,exit_code,stdout_sha256\n"]
    for seed in range(60):
        code, out = _output(["verify", "all", "--seed", str(seed)])
        rows.append(f"{seed},{code},{hashlib.sha256(out.encode()).hexdigest()}\n")
    return "".join(rows)


CASES["verify_all_seeds.csv"] = _verify_all_seeds


def _replay_closed_forms():
    """A CSV row per seeded DomainPoint (a in 0.1..0.9, y log-uniform in
    1.05..20, b in (-y, 0), n in 1..40): the repr of each closed form of
    the replay, or the error's type and message.  The verify_* files write
    |residual| only, so they miss a sign of zero or an imaginary part; at
    k = +-1000n e^-t underflows, and real-axis residues carry a zero real
    part."""
    ks = ("1", "-1", "n", "-n", "1000n", "-1000n")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["a", "b", "y", "n", "closed_residue_sum", "log_identity_residual",
                     "inversion_log_ratio_lambert", "residue_at_zero",
                     *[f"imag_{k}" for k in ks], *[f"real_{k}" for k in ks]])
    rng = random.Random(20261022)
    for _ in range(120):
        y = 10.0 ** rng.uniform(math.log10(1.05), math.log10(20.0))
        p = verifier.DomainPoint(rng.uniform(0.1, 0.9), -y * rng.uniform(0.01, 0.99), y,
                                 rng.randint(1, 40))
        signed = [s * m for m in (1, p.n, 1000 * p.n) for s in (1, -1)]
        forms = [partial(f, p) for f in (verifier.closed_residue_sum,
                                         verifier.log_identity_residual,
                                         verifier.inversion_log_ratio_lambert,
                                         verifier.residue_at_zero)]
        forms += [partial(f, k, p) for f in (verifier.residue_imag_pole,
                                             verifier.residue_real_pole) for k in signed]
        cells = [repr(p.a), repr(p.b), repr(p.y), p.n]
        for form in forms:
            try:
                cells.append(repr(form()))
            except (ConvergenceError, OverflowError) as exc:
                cells.append(f"{type(exc).__name__}: {exc}")
        writer.writerow(cells)
    return out.getvalue()


CASES["replay_closed_forms.csv"] = _replay_closed_forms


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


def test_every_golden_file_has_a_case():
    # a file with no CASES entry would never be compared
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


def _known(names, what):
    # every name is checked before any file is read or written
    unknown = [name for name in names if name not in CASES]
    if unknown or not names:
        sys.exit(f"unknown golden files: {' '.join(unknown)}" if unknown
                 else f"name the golden files to {what}")


def _current(name):
    code, out = _output(CASES[name])
    if code != 0:
        sys.exit(f"{name}: siegeltheta exited {code}")
    return out


def rewrite(names):
    """Write each named golden file from its CASES argv; reject unknown names."""
    _known(names, "rewrite")
    for name in names:
        (GOLDEN / name).write_text(_current(name), encoding="utf-8")
        print(f"rewrote {name}")


def _flat(row, prefix=""):
    # a record's fields, nested keys joined by dots
    fields = {}
    for key, value in row.items():
        if isinstance(value, dict):
            fields.update(_flat(value, f"{prefix}{key}."))
        else:
            fields[prefix + key] = value
    return fields


# the fields of a .txt record, in the order the tally prints them
_TEXT_FIELDS = ("value", "terms", "reduced", "error")


def _text_record(line):
    """A steps_* line, "name z tau result", as its point and either the
    result tuple's value, term count and reduced flag (theta1_reduced
    only) or the error; an eval_* line, "value terms=N", as its value and
    term count."""
    if " terms=" in line:
        value, terms = line.split(" terms=")
        return {"value": complex(value.replace("i", "j")), "terms": int(terms)}
    name, z, tau, result = line.split(" ", 3)
    record = {"point": f"{name} {z} {tau}"}
    if not result.startswith("("):
        return {**record, "error": result}
    record["value"], record["terms"], *flag = ast.literal_eval(result)
    if flag:
        record["reduced"] = flag[0]
    return record


def _records(name, text):
    if name.endswith(".jsonl"):
        rows = [json.loads(line) for line in text.splitlines()]
    elif name.endswith(".json"):
        rows = json.loads(text)
    elif name.endswith(".csv"):
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        rows = [_text_record(line) for line in text.splitlines()]
    return [_flat(row) for row in rows]


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def compare(names):
    """Print how the current output differs from each named golden file,
    field by field; write nothing.  Reject unknown names."""
    _known(names, "compare")
    for name in names:
        old = _records(name, (GOLDEN / name).read_text(encoding="utf-8"))
        new = _records(name, _current(name))
        differ = 0
        largest = {}  # field -> (|new - old|, record, old, new), where it moved
        tops = {}  # numeric field -> (its largest value before, now)
        relative = {}  # complex field -> (|new - old|/|old|, record, old, new)
        moved = Counter()  # field -> records where it moved
        for index, (before, after) in enumerate(zip(old, new), 1):
            # by repr, so a zero's sign moves a field as it moves the bytes
            fields = [key for key in sorted(before.keys() | after.keys())
                      if repr(before.get(key)) != repr(after.get(key))]
            if fields:
                differ += 1
                print(f"{name} record {index}: " + ", ".join(
                    f"{key} {before.get(key)!r} -> {after.get(key)!r}" for key in fields))
            moved.update(fields)
            for key in before.keys() & after.keys():
                x, y = before[key], after[key]
                if isinstance(x, complex) and isinstance(y, complex):
                    change = abs(y - x) / abs(x) if x else (math.inf if y else 0.0)
                    if change > relative.get(key, (0.0,))[0]:
                        relative[key] = (change, index, x, y)
                    continue
                x, y = _number(x), _number(y)
                if x is None or y is None:
                    continue
                top_old, top_new = tops.get(key, (x, y))
                tops[key] = (max(top_old, x), max(top_new, y))
                if x != y and abs(y - x) > largest.get(key, (-1.0,))[0]:
                    largest[key] = (abs(y - x), index, x, y)
        if len(old) != len(new):
            print(f"{name}: {len(old)} records before, {len(new)} now")
        print(f"{name}: {differ} of {len(old)} records differ")
        for key, (change, index, x, y) in sorted(largest.items()):
            print(f"{name}: largest change in {key} {change:.3g} at record {index} "
                  f"({x!r} -> {y!r}); largest {key} {tops[key][0]!r} -> {tops[key][1]!r}")
        for key, (change, index, x, y) in sorted(relative.items()):
            print(f"{name}: largest relative change in {key} {change:.3g} at record {index} "
                  f"({x!r} -> {y!r})")
        if name.endswith(".txt"):
            print(f"{name}: records moved by field: "
                  + ", ".join(f"{key} {moved[key]}" for key in _TEXT_FIELDS))


def test_rewrite_rejects_unknown_names_before_writing():
    # every name is checked before any file is written
    with pytest.raises(SystemExit, match="^unknown golden files: bogus.txt$"):
        rewrite(["eval_reduce_t_step.txt", "bogus.txt"])


def test_compare_prints_the_fields_that_differ_and_writes_nothing(tmp_path, monkeypatch,
                                                                  capsys):
    # a copy of the current output with one record changed
    name = "verify_lemma2_n1.jsonl"
    lines = _current(name).splitlines(keepends=True)
    largest = max(json.loads(line)["residual"] for line in lines)
    record = json.loads(lines[1])
    residual = record["residual"]
    record["residual"], record["terms_or_nodes"] = 1e-3, 7
    lines[1] = json.dumps(record) + "\n"
    (tmp_path / name).write_text("".join(lines), encoding="utf-8")
    before = (tmp_path / name).read_bytes()
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    compare([name])
    out = capsys.readouterr().out.splitlines()
    assert (tmp_path / name).read_bytes() == before
    assert out == [
        f"{name} record 2: residual 0.001 -> {residual!r}, terms_or_nodes 7 -> 16",
        f"{name}: 1 of {len(lines)} records differ",
        f"{name}: largest change in residual {abs(residual - 1e-3):.3g} at record 2 "
        f"(0.001 -> {residual!r}); largest residual 0.001 -> {largest!r}",
        f"{name}: largest change in terms_or_nodes 9 at record 2 (7.0 -> 16.0); "
        "largest terms_or_nodes 130.0 -> 130.0",
    ]
    with pytest.raises(SystemExit, match="^unknown golden files: bogus.txt$"):
        compare([name, "bogus.txt"])


def test_compare_reads_a_txt_line_as_its_value_terms_flag_or_error(tmp_path, monkeypatch,
                                                                     capsys):
    # a copy of the current steps output with a value nudged, a reduced flag
    # and a term count changed, and an error reworded
    name = "steps_seeded_points.txt"
    lines = _current(name).splitlines(keepends=True)
    records = [_text_record(line.rstrip("\n")) for line in lines]
    first, second = records[0], records[1]
    assert first["point"].startswith("theta1_reduced ") and first["reduced"] is True
    assert second["point"].startswith("theta2 ") and "reduced" not in second
    failed = next(index for index, record in enumerate(records) if "error" in record)
    value, terms = first["value"], second["terms"]
    nudged = value * (1.0 + 1e-6)
    lines[0] = f"{first['point']} {(nudged, first['terms'], False)}\n"
    lines[1] = f"{second['point']} {(second['value'], terms + 1)}\n"
    lines[failed] = f"{records[failed]['point']} ConvergenceError: reworded\n"
    (tmp_path / name).write_text("".join(lines), encoding="utf-8")
    before = (tmp_path / name).read_bytes()
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    compare([name])
    out = capsys.readouterr().out.splitlines()
    assert (tmp_path / name).read_bytes() == before
    top = max(float(record["terms"]) for record in records if "terms" in record)
    assert out == [
        f"{name} record 1: reduced False -> True, value {nudged!r} -> {value!r}",
        f"{name} record 2: terms {terms + 1} -> {terms}",
        f"{name} record {failed + 1}: error 'ConvergenceError: reworded' -> "
        f"{records[failed]['error']!r}",
        f"{name}: 3 of {len(lines)} records differ",
        f"{name}: largest change in terms 1 at record 2 ({terms + 1.0!r} -> {float(terms)!r}); "
        f"largest terms {max(top, terms + 1.0)!r} -> {top!r}",
        f"{name}: largest relative change in value {abs(value - nudged) / abs(nudged):.3g} "
        f"at record 1 ({nudged!r} -> {value!r})",
        f"{name}: records moved by field: value 1, terms 1, reduced 1, error 1",
    ]
    # an eval_* line: its value and term count
    assert _text_record("0.647914765883838-0.1634820531528i terms=3") == {
        "value": 0.647914765883838 - 0.1634820531528j, "terms": 3}


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        compare(sys.argv[2:])
    else:
        rewrite(sys.argv[1:])
