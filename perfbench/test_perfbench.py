"""Self-tests of the benchmark: its correctness check, its inputs, its span
arithmetic and its metric names.  Run with

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import re
from pathlib import Path

import mpmath
import pytest

from perfbench import inputs, reference, run, worker
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# the correctness check
# ---------------------------------------------------------------------------

def _job(points, seconds=0.02):
    rows = [[f, z.real, z.imag, t.real, t.imag, r.real, r.imag] for f, z, t, r in points]
    return {"workload": "eval_fundamental", "mode": "run", "seconds": seconds, "points": rows,
            "tail": 0.99, "setup_code": "print(0.2, 0.1)", "setups": 1}


def test_eval_check_accepts_the_reference():
    z, tau = 0.3 + 0.1j, 0.2 + 1.1j
    ref = reference.theta_reference("theta3", z, tau).value
    result = worker.run_eval(_job([("theta3", z, tau, ref)]))
    assert result["failed"] == 0 and result["passed"] == result["attempted"] > 0
    assert result["setup_s"] == [[0.2, 0.1]] and result["faulty_points"] == 0


def test_eval_check_rejects_a_relative_perturbation_of_1e_6():
    z, tau = 0.3 + 0.1j, 0.2 + 1.1j
    ref = reference.theta_reference("theta3", z, tau).value * (1 + 1e-6)
    result = worker.run_eval(_job([("theta3", z, tau, ref)]))
    assert result["passed"] == 0
    assert result["failures"] == {"wrong": result["attempted"]}


def test_eval_check_counts_a_convergence_error_as_declined():
    # far off the imaginary axis and close to the real one: too many terms
    z, tau = 0.3 + 0.0j, 1.5 + 1e-4j
    result = worker.run_eval(_job([("theta1_reduced", z, tau, 1.0 + 0j)]))
    assert result["passed"] == 0 and result["failed"] == 0
    assert result["declined"] == {"ConvergenceError": result["attempted"]}


def test_eval_pool_drops_points_that_raise_other_errors(monkeypatch):
    import siegeltheta

    def broken(z, tau):
        raise ValueError("math domain error")

    monkeypatch.setattr(siegeltheta, "theta2", broken)
    z, tau = 0.3 + 0.1j, 0.2 + 1.1j
    ref = reference.theta_reference("theta3", z, tau).value
    job = _job([("theta3", z, tau, ref), ("theta2", z, tau, ref)])
    pool, faulty = worker._eval_pool(job)
    assert [point[0] for point in pool] == ["theta3"] and faulty == 1


def test_eval_check_rejects_nan():
    class Out:
        value = complex(math.nan, 0.0)

    assert worker._judge("theta1_reduced", Out(), 1.0 + 0j) == ("nonfinite", None)
    assert worker.check(complex(0.0, math.nan), 1.0 + 0j) == ("nonfinite", None)
    assert worker.check(complex(math.inf, 0.0), 1.0 + 0j) == ("nonfinite", None)


def test_loop_stats_scale_each_stretch_by_its_calibrations():
    ref = worker.calib.REF_S
    cals = iter([ref, 2 * ref])
    stats = worker.LoopStats(tail=0.5, declining=("ConvergenceError",),
                             calibrate=lambda: next(cals))
    stats.fresh()  # the loop takes REF_S before the stretch ...
    stats.record(0.010, None)
    stats.record(0.030, None)
    stats.record(0.001, "ConvergenceError")
    stats.record(0.002, "wrong")
    stats.calibrate()  # ... and twice that after it: the ops ran at 2/3 speed
    stats.add(0.040, None, 2 * ref, 2 * ref)  # one op at half speed
    result = stats.result()
    assert result["attempted"] == 5 and result["passed"] == 3 and result["failed"] == 1
    assert result["failures"] == {"wrong": 1}
    assert result["declined"] == {"ConvergenceError": 1}
    # calibrated latencies 0.010 * 2/3, 0.030 * 2/3 and 0.040 / 2
    assert result["latency_p50_s"] == pytest.approx(0.020, rel=1e-3)
    busy = (0.010 + 0.030 + 0.001 + 0.002) * 2 / 3 + 0.040 / 2
    assert result["ops_per_s"] == pytest.approx(3 / busy)
    assert result["wall_ops_per_s"] == pytest.approx(3 / 0.083)
    assert result["calibration_s_p50"] == pytest.approx(1.5 * ref)


def test_histogram_percentiles_are_nearest_rank_within_a_bin():
    hist = worker.Histogram()
    assert hist.percentile(0.5) == 0.0
    for k in range(1, 101):
        hist.add(k * 1e-3)
    for share, expected in ((0.01, 1e-3), (0.5, 50e-3), (0.99, 99e-3), (1.0, 100e-3)):
        assert hist.percentile(share) == pytest.approx(expected, rel=1e-3)


def test_setup_clock_spreads_set_ups_over_the_loop():
    runs = []
    clock = worker.SetupClock(lambda: runs.append(1) or 0.5, count=3, seconds=60.0)
    assert clock.due() == 0.0 and not runs  # the first is due after 10 s
    assert clock.finish() == [0.5, 0.5, 0.5]
    eager = worker.SetupClock(lambda: 0.25, count=2, seconds=0.0)
    assert eager.due() > 0.0 and eager.due() > 0.0 and eager.due() == 0.0
    assert eager.finish() == [0.25, 0.25]


def test_cli_overhead_compares_like_op_kinds():
    walls = {(False, "eval"): [0.1, 0.1, 0.1], (False, "verify"): [0.4],
             (True, "eval"): [0.12, 0.12, 0.12], (True, "verify"): [0.44]}
    found = run.cli_overhead(walls)
    # weighted by the plain mix: (3 * 0.1 + 0.4) / 4 against (3 * 0.12 + 0.44) / 4
    assert found["trace.untraced_ms"] == pytest.approx(175.0)
    assert found["trace.overhead_share"] == pytest.approx(0.8 / 0.7 - 1.0)


def test_cli_check_rejects_wrong_output_stderr_and_exit_code():
    checker = run.CliChecker()
    argv, function, z, tau = next(op for op in inputs.cli_commands(3, 8) if op[1])
    ref = reference.theta_reference(function, z, tau).value
    good = f"{ref.real:.15g}{ref.imag:+.15g}i terms=5\n".encode()
    bad = f"{ref.real * (1 + 1e-6):.15g}{ref.imag:+.15g}i terms=5\n".encode()
    op = (argv, function, z, tau)
    assert checker.failure(op, good, b"", 0) is None
    assert checker.failure(op, bad, b"", 0) == "wrong"
    assert checker.failure(op, b"nan+nani terms=5\n", b"", 0) == "nonfinite"
    assert checker.failure(op, b"error\n", b"", 0) == "wrong"
    assert checker.failure(op, good, b"warning\n", 0) == "stderr"
    assert checker.failure(op, good, b"", 3) == "exit_nonzero"


# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,kind", enumerate(reference.KINDS, start=1))
def test_reference_matches_mpmath_jtheta_where_branches_agree(n, kind):
    # jtheta takes the nome q; for -1 < Re tau <= 1 its q^(1/4) is ours
    z, tau = 0.37 - 0.21j, -0.4 + 0.03j
    with mpmath.workdps(60):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        expected = complex(mpmath.jtheta(n, mpmath.pi * mpmath.mpc(z), q))
    got = reference.theta_reference(kind, z, tau)
    assert got.in_range
    assert abs(got.value - expected) <= 1e-15 * abs(expected)


def test_reference_marks_out_of_range_magnitudes():
    # |theta1| ~ exp(pi (Im z)^2 / Im tau) is far beyond binary64 here
    ref = reference.theta_reference("theta1", 0.1 + 0.45j, 0.2 + 2e-4j)
    assert not ref.in_range and ref.log10_abs > 300


# ---------------------------------------------------------------------------
# inputs come from the seed only
# ---------------------------------------------------------------------------

GENERATORS = {
    "near_axis": lambda seed: inputs.near_axis_candidates(seed, 8),
    "fundamental": lambda seed: inputs.fundamental_points(seed, 8),
    "verify": lambda seed: [s for s, _ in zip(inputs.verify_seed_stream(seed), range(20))],
    "cli": lambda seed: inputs.cli_commands(seed, 12),
}


@pytest.mark.parametrize("name", GENERATORS)
def test_same_seed_same_inputs_and_other_seed_other_inputs(name):
    make = GENERATORS[name]
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_fundamental_points_lie_in_the_fundamental_domain():
    for _, z, tau in inputs.fundamental_points(5, 16):
        assert abs(tau.real) <= 0.5 and abs(tau) >= 1.0 - 1e-12 and tau.imag <= 3.0
        assert -1.0 <= z.real <= 1.0 and -0.5 <= z.imag <= 0.5


def test_near_axis_candidates_cover_every_stratum():
    side = 8
    points = inputs.near_axis_candidates(2, side)
    cells = {(math.floor((math.log10(t.imag) + 4.0) / 4.0 * side),
              math.floor((t.real + 2.0) / 4.0 * side)) for _, _, t in points}
    assert len(points) == side * side == len(cells)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    tracer = Tracer()
    root = tracer.add("root", 0.0, 10.0)
    a = tracer.add("a", 1.0, 4.0, parent=root)
    tracer.add("b", 3.0, 5.0, parent=root)  # overlaps a: union is [1, 5]
    tracer.add("c", 8.0, 12.0, parent=root)  # clipped to the parent: [8, 10]
    tracer.add("d", 2.0, 3.0, parent=a)
    own = tracer.self_times()
    assert own[root] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[a] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(2.0) and own[4] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_report_absent_names():
    import types

    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    assert tracer.install(module, "inner", "inner")
    assert tracer.install(module, "outer", "outer")
    assert not tracer.install(module, "renamed_away", "gone")
    assert module.outer(1) == 4
    tracer.uninstall()
    assert module.outer(1) == 4 and len(tracer) == 2
    outer, inner = (tracer.names.index(n) for n in ("outer", "inner"))
    # spans are numbered in call order: outer opens first
    assert list(tracer.name) == [outer, inner]
    outer, inner = 0, 1
    assert tracer.parent[inner] == outer and tracer.parent[outer] == -1
    assert tracer.absent == ["gone"]


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    for name in declared_e2e + declared_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(declared_e2e) == set(run.END_TO_END)
    assert set(declared_layer) == set(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run._unit(metric["name"]), metric["name"]
