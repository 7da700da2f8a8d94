import json
import math
import os
import subprocess
import sys
import time

import pytest

from siegeltheta import (
    DomainError, DomainPoint, EvalConfig, format_complex, residue_kernel, theta1,
    theta1_reduced, theta2, theta3,
)
from siegeltheta import suites
from siegeltheta import cli
from siegeltheta.cli import main, parse_complex
from siegeltheta.theta import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# complex literal parsing
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("i", 1j),
        ("2i", 2j),
        ("-i", -1j),
        ("0.5", 0.5 + 0j),
        ("0.5-0.25i", 0.5 - 0.25j),
        ("1+i", 1 + 1j),
        ("1e-3i", 1e-3j),
    ],
)
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


@pytest.mark.parametrize("text", ["", "1 + i", "abc", "0.5- 0.25i", "nan", "1e400i"])
def test_parse_complex_rejects(text):
    with pytest.raises(DomainError):
        parse_complex(text)


# --------------------------------------------------------------------------
# the command table: parsing, help and usage errors
# --------------------------------------------------------------------------

_EVAL_DEFAULTS = {"eps": 1e-12, "max_terms": 5000, "reduce": False}
_VERIFY_DEFAULTS = {"seed": 0, "count": None, "tol": None, "n": None, "timing": False}
_SWEEP_DEFAULTS = {"start": None, "stop": None, "steps": None, "format": "csv", "out": "-"}


# the namespaces that argparse's build_parser().parse_args gave for these
# argv, less the handler and the command's name, which no handler reads
@pytest.mark.parametrize("argv, parsed", [
    (["eval", "theta1", "--z", "0.5", "--tau", "i"],
     {"function": "theta1", "z": "0.5", "tau": "i", **_EVAL_DEFAULTS}),
    (["eval", "theta2", "--z=0.5-0.25i", "--tau=2i", "--eps", "1e-10", "--max-terms=50",
      "--reduce"],
     {"function": "theta2", "z": "0.5-0.25i", "tau": "2i", "eps": 1e-10,
      "max_terms": 50, "reduce": True}),
    (["eval", "--z", "0.3", "--tau=i", "--reduce", "theta3"],
     {"function": "theta3", "z": "0.3", "tau": "i", "eps": 1e-12,
      "max_terms": 5000, "reduce": True}),
    (["eval", "theta4", "--z", "1", "--z=2", "--tau", "i", "--eps=1e-3", "--eps", "1e-5"],
     {"function": "theta4", "z": "2", "tau": "i", "eps": 1e-05,
      "max_terms": 5000, "reduce": False}),
    (["verify", "all"], {"suite": "all", **_VERIFY_DEFAULTS}),
    (["verify", "lemma2", "--seed", "-3"],
     {"suite": "lemma2", **_VERIFY_DEFAULTS, "seed": -3}),
    (["verify", "--seed=1", "--seed", "2", "all"],
     {"suite": "all", **_VERIFY_DEFAULTS, "seed": 2}),
    (["verify", "theorem", "--count", "5", "--tol", "1e-9", "--n=3", "--timing"],
     {"suite": "theorem", "seed": 0, "count": 5, "tol": 1e-09, "n": 3,
      "timing": True}),
    (["sweep", "edge_limit"], {"target": "edge_limit", **_SWEEP_DEFAULTS}),
    (["sweep", "--format=json", "lambert_tail", "--start", "0.5", "--stop=2", "--steps", "4",
      "--out", "t.json"],
     {"target": "lambert_tail", "start": 0.5, "stop": 2.0, "steps": 4,
      "format": "json", "out": "t.json"}),
    (["sweep", "reduction_gain", "--format", "csv", "--format=json", "--out=-"],
     {"target": "reduction_gain", **_SWEEP_DEFAULTS, "format": "json"}),
])
def test_parse_reads_argv_as_argparse_did(argv, parsed):
    handler, args = cli._parse(argv)
    assert handler is {"eval": cli._cmd_eval, "verify": cli._cmd_verify,
                       "sweep": cli._cmd_sweep}[argv[0]]
    assert vars(args) == parsed
    assert all(type(args.__dict__[k]) is type(v) for k, v in parsed.items())


def test_defaults_come_from_eval_config():
    _, args = cli._parse(["eval", "theta1", "--z=0", "--tau=i"])
    assert (args.eps, args.max_terms) == tuple(EvalConfig())


def test_an_option_value_may_start_with_a_minus(capsys):
    # argparse took -0.5+2i for an option and exited 2
    _, args = cli._parse(["eval", "theta1", "--z", "-0.5", "--tau", "-0.5+2i"])
    assert (args.z, args.tau) == ("-0.5", "-0.5+2i")
    assert run_cli(capsys, "eval", "theta1", "--z", "0.3", "--tau", "-0.5+2i") == run_cli(
        capsys, "eval", "theta1", "--z=0.3", "--tau=-0.5+2i")


@pytest.mark.parametrize("argv", [
    [],
    ["evaluate", "theta1"],
    ["eval", "theta1", "--z", "0", "--tau", "i", "--zz", "1"],
    ["eval", "theta1", "--z", "0", "--tau"],
    ["verify", "all", "--seed"],
    ["eval", "theta1", "--tau", "i"],
    ["eval", "theta1", "--z", "0"],
    ["eval", "--z", "0", "--tau", "i"],
    ["eval", "theta5", "--z", "0", "--tau", "i"],
    ["verify", "lemma4"],
    ["sweep", "nosuch"],
    ["sweep", "edge_limit", "--format", "xml"],
    ["verify", "all", "--seed", "x"],
    ["eval", "theta1", "--z", "0", "--tau", "i", "--eps", "x"],
    ["sweep", "lambert_tail", "--steps", "1.5"],
    ["verify", "all", "extra"],
    ["eval", "theta1", "--z", "0", "--ta", "i"],
    ["eval", "theta1", "--z", "0", "--tau", "i", "--reduce=yes"],
])
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["eval", "-h"], ["verify", "all", "--help"],
                                  ["sweep", "--out", "x", "-h", "--format"]])
def test_help_names_every_option_and_choice(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    commands = list(cli._COMMANDS) if len(argv) == 1 else [argv[0]]
    for command in cli._COMMANDS:
        _, about, (_, choices), options = cli._COMMANDS[command]
        words = [about, *choices, *("--" + option for option in options)]
        words += [choice for kind, _, _ in options.values() if isinstance(kind, tuple)
                  for choice in kind]
        if command in commands:
            assert all(word in out for word in words), command
        else:
            assert about not in out


def test_closed_stdout_exits_4_with_one_line():
    # the reader takes one line and goes; the 265 kB of lines fill the pipe,
    # so a later write meets the closed pipe; 1 would read as "a check failed"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen(
        [sys.executable, "-m", "siegeltheta.cli", "verify", "eq2", "--count", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b'{"check_name": ')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 4
    assert err.startswith("error: cannot write to stdout: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def test_eval_zero(capsys):
    code, out, _ = run_cli(capsys, "eval", "theta1", "--z", "0", "--tau", "i")
    assert code == 0
    assert out.split()[0] == "0+0i"


def test_eval_value_round_trips(capsys):
    code, out, _ = run_cli(capsys, "eval", "theta1", "--z", "0.5", "--tau", "i")
    assert code == 0
    token, terms_token = out.split()
    assert terms_token.startswith("terms=")
    parsed = parse_complex(token)
    value = theta1(0.5, 1j)
    # printed with 15 significant digits: re-parse within one unit in the
    # last printed place, per component
    for got, want in ((parsed.real, value.real), (parsed.imag, value.imag)):
        unit = 10.0 ** (math.floor(math.log10(abs(want))) - 14) if want else 1e-15
        assert abs(got - want) <= unit


def test_eval_reduce_matches_direct(capsys):
    # --reduce selects nothing: eval theta1 always takes the steps, and
    # counts the factors at the reduced point, not the plain product's 246
    from siegeltheta import product_terms

    code, plain, _ = run_cli(capsys, "eval", "theta1", "--z", "0.3", "--tau", "0.02i")
    assert code == 0
    assert run_cli(capsys, "eval", "theta1", "--z", "0.3", "--tau", "0.02i", "--reduce") == (
        0, plain, "")
    assert int(plain.split()[1].split("=")[1]) < product_terms(0.3, 0.02j)


def test_eval_lower_half_plane_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "theta1", "--z", "0.5", "--tau=-i")
    assert code == 2
    assert "upper half-plane" in err


def test_eval_nonconvergence_exits_3(capsys):
    # theta3's series at tau = i needs 4 terms
    code, _, err = run_cli(
        capsys, "eval", "theta3", "--z", "0.3", "--tau", "i", "--max-terms", "1",
    )
    assert code == 3
    assert err.startswith("error: series tail bound")


@pytest.mark.parametrize(
    "argv",
    [
        ["theta1", "--reduce", "--z=-0.329302487086755+0.37492719265961993i",
         "--tau=-0.0004159089461646115+0.0001889601792696782i"],
        ["theta1", "--z=0.3+40i", "--tau=i"],
        ["theta3", "--z=0.3+300i", "--tau=i"],
        ["theta1", "--z=0.3", "--tau=1e-300i", "--reduce"],
        ["theta1", "--reduce", "--z=0.3", "--tau=1e-320i"],
    ],
)
def test_eval_overflow_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "binary64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, value",
    [
        (["theta1", "--z=1e17"], 0j),
        (["theta1", "--z=1e308"], 0j),
        (["theta1", "--z=-1e308", "--reduce"], 0j),
        (["theta3", "--z=1e300"], theta3(0.0, 1j)),
        (["theta2", "--z=4503599627370497"], theta2(1.0, 1j)),
    ],
)
def test_eval_large_re_z_prints_the_reduced_value(capsys, argv, value):
    # Re z is reduced exactly by the period 2; pi z used to lose every digit
    # (wrong values, exit 0) or raise a math domain error (exit 1)
    code, out, err = run_cli(capsys, "eval", *argv, "--tau=i")
    assert (code, err) == (0, "")
    assert out.startswith(format_complex(value) + " terms=")


@pytest.mark.parametrize(
    "argv",
    [
        ["theta1", "--z=1e308i"],
        ["theta3", "--z=1e308+1e308i"],
        ["theta1", "--z=-1e308i", "--reduce"],
        ["theta1", "--z=0.3+1e300i"],
    ],
)
def test_eval_huge_im_z_exits_3(capsys, argv):
    # was a raw "cannot convert float NaN to integer" with exit 1, then a
    # bound of 1.014e+304 (exp(700)) that was never obtained
    code, out, err = run_cli(capsys, "eval", *argv, "--tau=i")
    assert code == 3
    assert out == ""
    # the series cannot shift z by that many periods of tau; theta3, which
    # is even, is taken at Im z <= 0
    periods = parse_complex(argv[1][len("--z="):]).imag
    if argv[0] == "theta3":
        periods = -periods
    assert err == f"error: series shift by {periods:.3e} periods of tau is not finite\n"


def test_eval_reduce_takes_the_t_step(capsys):
    # the plain product declined this point (exit 3); with or without
    # --reduce, eval now takes the T step and then the S step, and sums 3
    # series terms there
    argv = ["eval", "theta1", "--z=0.3", "--tau=2.02+0.0005i"]
    code, out, _ = run_cli(capsys, *argv, "--reduce")
    assert code == 0
    assert out.split()[1] == "terms=3"
    assert run_cli(capsys, *argv) == (0, out, "")


def test_eval_reduce_exact_zero_is_unsigned(capsys):
    # the S branch returns the series' exact zero, with or without
    # --reduce, and reports the series terms summed at the reduced point
    argv = ["eval", "theta1", "--z=0", "--tau=0.3+0.5i"]
    assert run_cli(capsys, *argv, "--reduce") == (0, "0+0i terms=3\n", "")
    assert run_cli(capsys, *argv) == (0, "0+0i terms=3\n", "")
    # Re z = 3 is reduced to 1 first, so the inverted point is -100i, not the
    # -300i whose product overflowed
    argv = ["eval", "theta1", "--reduce", "--z=3", "--tau=0.01i"]
    assert run_cli(capsys, *argv) == (0, "0+0i terms=1\n", "")


def test_eval_reduce_reduces_re_z_before_the_s_step(capsys):
    # Re z = 1.9 becomes -0.1 (and the sign flips) before the S step; the
    # inverted point used to be -190i, whose product overflowed (exit 3).
    # Reference -1.4790346159618202e-21 from perfbench/reference.py
    argv = ["eval", "theta1", "--reduce", "--z=1.9", "--tau=0.01i"]
    assert run_cli(capsys, *argv) == (0, "-1.47903461596182e-21+0i terms=1\n", "")


def test_eval_theta2_exact_zero_is_unsigned(capsys):
    # theta2 = -theta1(z - 1/2) must not negate the zero into -0-0i, nor a
    # zero imaginary part into -0i
    argv = ["eval", "theta2", "--z=0.5", "--tau=0.3+0.5i"]
    assert run_cli(capsys, *argv) == (0, "0+0i terms=3\n", "")
    argv = ["eval", "theta2", "--z=0.3", "--tau=2i"]
    assert run_cli(capsys, *argv) == (0, "0.244375719531955+0i terms=2\n", "")


def test_eval_reduce_changes_no_byte_of_theta3(capsys):
    argv = ["eval", "theta3", "--z", "0.1", "--tau", "i"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--reduce") == (0, out, "")


def test_eval_theta4_matches_library(capsys):
    from siegeltheta import theta4

    code, out, _ = run_cli(capsys, "eval", "theta4", "--z", "0.2", "--tau", "2i")
    assert code == 0
    assert abs(parse_complex(out.split()[0]) - theta4(0.2, 2j)) < 1e-14


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_theorem_count_and_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "theorem", "--count", "5", "--tol", "1e-9"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 5
    assert all(r["passed"] for r in records)
    assert all(r["tolerance"] == 1e-9 for r in records)


def test_verify_lemma2_residue_theorem_record(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma2", "--n", "3")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    names = {r["check_name"] for r in records}
    assert "lemma2_residue_theorem_contour" in names
    contour = next(r for r in records if r["check_name"] == "lemma2_residue_theorem_contour")
    assert contour["residual"] < 1e-8
    assert contour["parameters"]["n"] == 3


def test_verify_reports_follow_schema(capsys):
    _, out, _ = run_cli(capsys, "verify", "lemma3")
    for line in out.splitlines():
        record = json.loads(line)
        assert set(record) == {
            "check_name", "parameters", "residual", "tolerance",
            "passed", "terms_or_nodes", "wall_ms",
        }
        assert record["passed"] == (record["residual"] <= record["tolerance"])


def test_suite_table_follows_the_cli_choices():
    assert tuple(suites._SUITES) == SUITES


def test_verify_all_is_byte_deterministic(capsys):
    code1, first, _ = run_cli(capsys, "verify", "all", "--seed", "42")
    code2, second, _ = run_cli(capsys, "verify", "all", "--seed", "42")
    assert code1 == code2 == 0
    assert first == second


def test_verify_timing_fills_wall_ms_only(capsys):
    _, plain, _ = run_cli(capsys, "verify", "lemma2")
    code, timed, _ = run_cli(capsys, "verify", "lemma2", "--timing")
    assert code == 0
    plain = [json.loads(line) for line in plain.splitlines()]
    timed = [json.loads(line) for line in timed.splitlines()]
    assert len(timed) == len(plain) > 0
    assert all(record.pop("wall_ms") > 0 for record in timed)
    assert all(record.pop("wall_ms") == 0 for record in plain)
    assert timed == plain


def test_iter_suite_checks_first_and_times_only_its_own_work(monkeypatch):
    # the arguments are checked at the call, before any check runs
    ran = []

    def instant(seed, size, tol):
        for index in range(3):
            ran.append(index)
            yield suites._report("instant", {"index": index}, 0.0, tol, size)

    monkeypatch.setitem(suites._SUITES, "lemma3", (instant, 1e-6, 10, False))
    for kwargs in ({"n": 0}, {"tol": math.nan}, {"count": -1}):
        with pytest.raises(DomainError):
            suites.iter_suite("lemma3", **kwargs)
        with pytest.raises(DomainError):
            suites.iter_suite("all", **kwargs)
        with pytest.raises(DomainError):
            suites.run_suite("all", **kwargs)
    assert ran == []
    # wall_ms leaves out the caller's time between reports
    reports = []
    for report in suites.iter_suite("lemma3", timing=True):
        reports.append(report)
        time.sleep(0.02)
    assert [r.parameters["index"] for r in reports] == [0, 1, 2]
    assert all(0.0 < r.wall_ms < 10.0 for r in reports)
    # run_suite is the same reports in a list
    assert suites.run_suite("lemma3") == list(suites.iter_suite("lemma3"))


@pytest.mark.parametrize("n", [452, 1000, 2002, 5000])
def test_verify_lemma2_past_the_kernels_factor_range(capsys, n):
    # from n = 452 the kernel's e^a leaves the binary64 range on the
    # rhombus, where its value does not; from n = 2002 the rhombus edges
    # settle only with the vertex poles' principal parts taken out
    code, out, err = run_cli(capsys, "verify", "lemma2", "--n", str(n))
    assert (code, err) == (0, "")
    assert all(json.loads(line)["passed"] for line in out.splitlines())


def test_verify_writes_each_suite_before_the_next_runs(capsys):
    # at n = 7370 a rhombus edge needs more than the 2,049-node cap: lemma2
    # raises, and eq2's 25 and lemma1's 10 lines are out already, and so
    # are lemma2's own breakdown and circle lines, which it yields before
    # the rhombus
    code, out, err = run_cli(capsys, "verify", "all", "--n", "7370")
    _, passing, _ = run_cli(capsys, "verify", "all")
    assert code == 3
    assert err.startswith("error: edge quadrature did not settle")
    lines = out.splitlines()
    assert len(lines) == 45
    assert lines[:35] == passing.splitlines()[:35]
    code, alone, err = run_cli(capsys, "verify", "lemma2", "--n", "7370")
    assert code == 3 and err.startswith("error: edge quadrature did not settle")
    assert alone.splitlines() == lines[35:]
    records = [json.loads(line) for line in lines[35:]]
    assert [r["check_name"] for r in records] == (
        ["lemma2_breakdown_vs_closed_sum", "lemma2_residue_zero_vs_circle"]
        + ["lemma2_residue_imag_vs_circle", "lemma2_residue_real_vs_circle"] * 4)
    assert all(r["passed"] and r["parameters"]["n"] == 7370 for r in records)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "eq2", "--tol", "nan"],
        ["verify", "eq2", "--tol", "inf"],
        ["verify", "all", "--tol=-1e-9"],
        ["verify", "eq2", "--count", "0"],
        ["verify", "theorem", "--count=-3"],
        ["verify", "lemma2", "--n", "0"],
        ["sweep", "reduction_gain", "--start", "0"],
        ["sweep", "edge_limit", "--start", "nan"],
        ["sweep", "edge_limit", "--stop", "inf"],
        ["sweep", "edge_limit", "--start", "2.5"],
        ["sweep", "reduction_gain", "--steps", "0"],
        ["sweep", "reduction_gain", "--start", "inf"],
        ["sweep", "lambert_tail", "--steps=-2"],
        ["sweep", "edge_limit", "--steps=-3"],
    ],
)
def test_bad_suite_and_sweep_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_kernel_pole_proximity_exits_2_with_one_line(capsys, monkeypatch):
    # no verify argument puts a kernel node within 1e-12/N of a pole; a
    # suite that evaluates one exits 2, the code of an argument outside an
    # operation's domain, with the one-line message and no traceback
    def near_a_pole(seed, size, tol):
        yield residue_kernel(0.0, DomainPoint(0.5, -0.25, 2.0, 3))

    monkeypatch.setitem(suites._SUITES, "lemma2", (near_a_pole, 1e-8, 3, False))
    code, out, err = run_cli(capsys, "verify", "lemma2")
    assert (code, out) == (2, "")
    assert err == "error: zeta=0j is within 1e-12/N of a kernel pole\n"


# what the eval path must not import: the proof-replay harness and the stdlib
# modules only it uses
_NOT_ON_THE_EVAL_PATH = (
    "siegeltheta.suites", "siegeltheta.verifier", "siegeltheta.contour",
    "json", "dataclasses", "inspect", "typing", "random", "argparse", "gettext", "locale",
)


def test_cli_import_loads_no_thread_pool_or_numpy():
    probe = (
        "import sys, siegeltheta.cli; "
        "print('concurrent.futures' in sys.modules, 'numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"
    # -S: a .pth file in site-packages can load typing and random on its
    # own, which would hide what eval itself imports
    probe = (
        "import sys\n"
        "from siegeltheta.cli import main\n"
        "codes = [main(['eval', 'theta1', '--z=0.3', '--tau=0.01i', *extra])\n"
        "         for extra in ([], ['--reduce'])]\n"
        f"print(codes, [m for m in {_NOT_ON_THE_EVAL_PATH!r} if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] []"
    # the proof replay's records are namedtuples too, and its JSON lines are
    # quoted by _json's C encoder without loading the json package
    probe = (
        "import sys\n"
        "from siegeltheta.cli import main\n"
        "codes = [main(['verify', 'lemma3']), main(['verify', 'all']),\n"
        "         main(['sweep', 'lambert_tail', '--format', 'json', '--out', '-'])]\n"
        "print(codes, [m for m in ('dataclasses', 'inspect', 'json', 'argparse', 'gettext',\n"
        "                          'locale') if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_verify_failing_tolerance_exits_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma3", "--tol", "1e-30")
    assert code == 1
    assert any(not json.loads(line)["passed"] for line in out.splitlines())


def test_verify_unknown_suite_exits_2(capsys):
    assert run_cli(capsys, "verify", "nosuch") == (
        2, "", "error: invalid suite 'nosuch': expected one of eq2, lemma1, lemma2, lemma3, "
               "theorem, all\n")
    # the library entries behind the CLI's choices
    with pytest.raises(DomainError, match="^unknown suite 'nope'"):
        suites.run_suite("nope")
    with pytest.raises(DomainError, match="^unknown sweep target 'nope'"):
        suites.sweep_rows("nope")


def test_report_serializer_rejects_an_unknown_type():
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        suites._to_json(object())


def test_report_line_writes_the_generic_serializers_bytes():
    # the golden verify_* files pin the lines of real reports
    made = [
        suites.VerificationReport("zero", {}, 0.0, 1.0, True, 0),
        suites.VerificationReport("integral", {"n": 3}, 1.0, 0.0, False, 129, 0.0),
        suites.VerificationReport(
            'quote " backslash \\ and \u00e9', {"note": 'a "b" \\ \u03b6', "x": -0.0},
            5e-324, 1e300, True, 1, 12.5,
        ),
    ]
    assert [suites.report_json_line(report) for report in made] == [
        '{"check_name": "zero", "parameters": {}, "passed": true, '
        '"residual": 0, "terms_or_nodes": 0, "tolerance": 1, "wall_ms": 0}',
        '{"check_name": "integral", "parameters": {"n": 3}, "passed": false, '
        '"residual": 1, "terms_or_nodes": 129, "tolerance": 0, "wall_ms": 0}',
        # ASCII-only, as json.dumps quotes
        '{"check_name": "quote \\" backslash \\\\ and \\u00e9", '
        '"parameters": {"note": "a \\"b\\" \\\\ \\u03b6", "x": -0}, "passed": true, '
        '"residual": 4.9406564584124654e-324, "terms_or_nodes": 1, '
        '"tolerance": 1.0000000000000001e+300, "wall_ms": 12.5}',
    ]


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_edge_limit_monotone(tmp_path, capsys):
    out_file = tmp_path / "edges.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "edge_limit", "--start", "2", "--stop", "20",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,edge,t,a,b,y,residual"
    residuals = [float(line.split(",")[-1]) for line in lines[1:]]
    assert len(residuals) == 19
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_sweep_reduction_gain(tmp_path, capsys):
    out_file = tmp_path / "gain.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "reduction_gain", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    gain_col = header.index("gain")
    assert all(float(line.split(",")[gain_col]) >= 1.0 for line in lines[1:])


def test_sweep_reduction_gain_past_the_nome_underflow(capsys):
    # at Im tau = 0.003 the inverted nome exp(-pi/0.003) underflows to 0
    code, out, _ = run_cli(capsys, "sweep", "reduction_gain", "--start", "0.003")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "1"


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "lambert_tail", "--steps", "3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert all(row["residual"] < 1e-10 for row in rows)


def test_sweep_empty_range_writes_header_only(tmp_path, capsys):
    out_file = tmp_path / "empty.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "edge_limit", "--start", "5", "--stop", "3",
        "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == "n,edge,t,a,b,y,residual\n"
    # a grid of real start and stop: empty past stop, one row at stop
    assert suites.sweep_rows("lambert_tail", start=3.0, stop=2.0)[1] == []
    (row,) = suites.sweep_rows("lambert_tail", start=2.0, stop=2.0)[1]
    assert row[0] == 2.0


def test_sweep_unwritable_path_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "edge_limit", "--start", "2", "--stop", "3",
        "--out", "/nonexistent/dir/output.csv",
    )
    assert code == 4
    assert "cannot write" in err
