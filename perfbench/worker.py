"""The process that runs one workload's closed loop against the library.

Started by run.py as ``python -m perfbench.worker`` with PYTHONPATH=src; it
reads one JSON job on stdin and writes one JSON result on stdout.  It
imports siegeltheta and nothing heavier, so its peak RSS is the library's
plus the inputs.  Jobs:

  run        timed loop, no tracing: latencies and failures per op
  trace      each op once untraced and once traced (spans around the
             library's public names), for per-layer metrics and overhead
  cli_main   in-process cli.main(argv) after import
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array

from perfbench import calib, inputs
from perfbench.spans import Tracer

REL_TOL = 1e-9
# errors by which the library declines an eval op that it cannot answer in
# binary64 by its method: a product longer than the term cap, or an
# intermediate beyond the binary64 range
DECLINING_ERRORS = ("ConvergenceError", "OverflowError")
SEGMENT_S = 0.02  # wall seconds of eval ops between two calibrations
EVAL_WORKLOADS = ("eval_near_axis", "eval_fundamental")


def percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an ascending sequence; share in (0, 1]."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _eval_pool(job):
    """The job's points, less those on which the library raises an error
    that is not a declining one, and the number of those dropped.

    Such a raise is a fault of the library (at this writing, a ValueError
    from math.log when the inverted nome underflows to 0, on about one
    point in 10,000); it cannot stay among the timed ops, which must not
    fail, so the run drops the point and reports its share instead.  The
    untimed call also warms up every point."""
    import siegeltheta

    pool = []
    faulty = 0
    for name, zr, zi, tr, ti, rr, ri in job["points"]:
        func = getattr(siegeltheta, name)
        z, tau = complex(zr, zi), complex(tr, ti)
        try:
            func(z, tau)
        except Exception as exc:
            if type(exc).__name__ not in DECLINING_ERRORS:
                faulty += 1
                continue
        pool.append((name, func, z, tau, complex(rr, ri)))
    return pool, faulty


def check(value: complex, ref: complex):
    """(failure kind or None, relative error or None) of one computed value."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return "nonfinite", None
    err = abs(value - ref) / abs(ref)
    return (None if err <= REL_TOL else "wrong"), err


def _judge(name, out, ref):
    # theta1_reduced returns a ThetaEval, the others a complex
    return check(out.value if name == "theta1_reduced" else out, ref)


# ---------------------------------------------------------------------------
# Untraced timed loops
# ---------------------------------------------------------------------------

class Histogram:
    """Counts of positive values in log-spaced bins (0.05% wide), so a run of
    millions of ops keeps a fixed few hundred KB and its peak RSS stays the
    library's.  Percentiles interpolate within a bin by rank."""

    LOW = 1e-7
    RATIO = 1.0005
    BINS = 41500  # up to about 100 s

    def __init__(self):
        self.counts = array("q", bytes(8 * self.BINS))
        self.total = 0
        self._log_ratio = math.log(self.RATIO)

    def add(self, value: float) -> None:
        index = int(math.log(max(value, self.LOW) / self.LOW) / self._log_ratio)
        self.counts[min(index, self.BINS - 1)] += 1
        self.total += 1

    def percentile(self, share: float) -> float:
        """Nearest-rank percentile, share in (0, 1]; 0.0 when empty."""
        if not self.total:
            return 0.0
        rank = max(1, math.ceil(share * self.total))
        seen = 0
        for index, count in enumerate(self.counts):
            if count and seen + count >= rank:
                inside = (rank - seen - 0.5) / count
                return self.LOW * self.RATIO ** (index + inside)
            seen += count
        raise AssertionError("rank beyond the histogram")


class LoopStats:
    """Outcomes and calibrated latencies of a timed loop.

    The loop calls ``calibrate()`` between stretches of ops (about every
    SEGMENT_S of work, or around each long op); each op's wall time is
    scaled by ``calib.REF_S`` over the mean of the calibration times on
    either side of its stretch (see perfbench.calib).  Latency percentiles
    and throughput are taken over every op of the run.

    An op is answered (its output passed the check), declined (it raised
    one of the ``declining`` error types, by name) or failed (anything
    else).  Latencies are those of answered ops; throughput is answered
    ops per second of all ops' time.
    """

    def __init__(self, tail: float, declining=(), calibrate=calib.calibrate):
        self.tail = tail
        self.declining = declining
        self._calibrate = calibrate
        self.attempted = 0
        self.passed = 0
        self.declined: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.hist = Histogram()
        self.busy = 0.0  # calibrated seconds of every op
        self.wall_busy = 0.0
        self.cal_times = array("d")
        self._last_cal: float | None = None
        self._open = array("d")  # wall times of the open stretch's answered ops
        self._open_busy = 0.0

    def measure(self) -> float:
        """Seconds of one run of the calibration loop, kept for the record."""
        cal = self._calibrate()
        self.cal_times.append(cal)
        return cal

    @staticmethod
    def factor(before: float, after: float) -> float:
        return calib.REF_S / ((before + after) / 2.0)

    def _count(self, outcome: str | None) -> None:
        self.attempted += 1
        if outcome is None:
            self.passed += 1
        elif outcome in self.declining:
            self.declined[outcome] = self.declined.get(outcome, 0) + 1
        else:
            self.failures[outcome] = self.failures.get(outcome, 0) + 1

    def add(self, elapsed: float, outcome: str | None, before: float, after: float) -> None:
        """One op timed between the calibrations ``before`` and ``after``."""
        self._count(outcome)
        factor = self.factor(before, after)
        if outcome is None:
            self.hist.add(elapsed * factor)
        self.busy += elapsed * factor
        self.wall_busy += elapsed

    def record(self, elapsed: float, outcome: str | None) -> None:
        """One op of the open stretch, scaled when the stretch closes."""
        self._count(outcome)
        self._open_busy += elapsed
        if outcome is None:
            self._open.append(elapsed)

    def calibrate(self) -> None:
        """Close the open stretch: time the loop, scale the stretch's ops."""
        cal = self.measure()
        factor = self.factor(cal if self._last_cal is None else self._last_cal, cal)
        self._last_cal = cal
        for elapsed in self._open:
            self.hist.add(elapsed * factor)
        self.busy += self._open_busy * factor
        self.wall_busy += self._open_busy
        self._open = array("d")
        self._open_busy = 0.0

    def fresh(self) -> None:
        """The next stretch follows untimed work: calibrate anew before it."""
        self._last_cal = None
        self.calibrate()

    def result(self) -> dict:
        if self._open_busy:
            self.calibrate()
        return {
            "attempted": self.attempted,
            "failed": sum(self.failures.values()),
            "failures": self.failures,
            "declined": self.declined,
            "passed": self.passed,
            "ops_per_s": self.passed / self.busy if self.busy else 0.0,
            "latency_p50_s": self.hist.percentile(0.5),
            "latency_tail_s": self.hist.percentile(self.tail),
            "wall_ops_per_s": self.passed / self.wall_busy if self.wall_busy else 0.0,
            "calibration_s_p50": statistics.median(self.cal_times) if self.cal_times else 0.0,
            "peak_rss_mb": _peak_rss_mb(),
        }


class SetupClock:
    """Set-up times of fresh interpreters, spread evenly over a timed loop.

    ``due()`` is asked between ops; when a set-up is due it runs one
    (the loop waits, so there is still one child at a time) and returns the
    seconds it took, by which the loop moves its deadline on.  ``finish()``
    runs any that a short loop left over.  ``run_one`` starts one
    interpreter and returns its set-up seconds, wall and calibrated.
    """

    def __init__(self, run_one, count: int, seconds: float):
        self.run_one = run_one
        self.count = count
        self.seconds = seconds
        self.times: list[list[float]] = []
        self.start = time.perf_counter()

    def ready(self) -> bool:
        """Whether the next set-up is due."""
        if len(self.times) >= self.count:
            return False
        elapsed = time.perf_counter() - self.start
        return elapsed >= self.seconds * (len(self.times) + 0.5) / self.count

    def due(self) -> float:
        if not self.ready():
            return 0.0
        now = time.perf_counter()
        self.times.append(self.run_one())
        spent = time.perf_counter() - now
        self.start += spent
        return spent

    def finish(self) -> list[list[float]]:
        while len(self.times) < self.count:
            self.times.append(self.run_one())
        return self.times


def _setup_once(code: str) -> list[float]:
    """[wall s, calibrated s] of one fresh interpreter's set-up."""
    # the worker's environment already points PYTHONPATH at the library
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    if done.returncode != 0 or done.stderr:
        raise RuntimeError(f"set-up failed: {done.stderr.decode(errors='replace')[-2000:]}")
    return [float(word) for word in done.stdout.split()]


def _setup_clock(job) -> SetupClock:
    return SetupClock(lambda: _setup_once(job["setup_code"]), job["setups"], job["seconds"])


def run_eval(job) -> dict:
    pool, faulty = _eval_pool(job)
    clock = time.perf_counter
    stats = LoopStats(job["tail"], DECLINING_ERRORS)
    setups = _setup_clock(job)
    deadline = clock() + job["seconds"]
    stats.fresh()
    segment_end = clock() + SEGMENT_S
    while clock() < deadline:
        if setups.ready():
            stats.calibrate()  # close the open stretch before the untimed set-up
            deadline += setups.due()
            stats.fresh()
            segment_end = clock() + SEGMENT_S
        # whole passes over the pool, so every run of a seed has the same
        # share of each input
        for name, func, z, tau, ref in pool:
            t0 = clock()
            try:
                out = func(z, tau)
                t1 = clock()
            except Exception as exc:
                t1 = clock()
                stats.record(t1 - t0, type(exc).__name__)
            else:
                stats.record(t1 - t0, _judge(name, out, ref)[0])
            if t1 >= segment_end:
                stats.calibrate()
                segment_end = clock() + SEGMENT_S
    return {**stats.result(), "setup_s": setups.finish(), "faulty_points": faulty}


def run_verify(job) -> dict:
    from siegeltheta.suites import report_json_line, run_suite

    run_suite("all", seed=0)  # warm-up, untimed
    clock = time.perf_counter
    stats = LoopStats(job["tail"])
    setups = _setup_clock(job)
    seeds = inputs.verify_seed_stream(job["seed"])
    deadline = clock() + job["seconds"]
    while clock() < deadline:
        deadline += setups.due()
        seed = next(seeds)
        before = stats.measure()  # each op sits between two calibrations
        t0 = clock()
        try:
            reports = run_suite("all", seed=seed)
            t1 = clock()
        except Exception as exc:
            t1 = clock()
            outcome = type(exc).__name__
            after = stats.measure()
        else:
            after = stats.measure()
            outcome = _verify_failure(reports, seed, report_json_line, run_suite)
        stats.add(t1 - t0, outcome, before, after)
    return {**stats.result(), "setup_s": setups.finish()}


def _verify_failure(reports, seed, report_json_line, run_suite):
    if not all(r.passed for r in reports):
        return "check_failed"
    lines = [report_json_line(r) for r in reports]
    again = [report_json_line(r) for r in run_suite("all", seed=seed)]
    return None if lines == again else "bytes_differ"


# ---------------------------------------------------------------------------
# Traced loops
# ---------------------------------------------------------------------------

def trace_eval(job) -> dict:
    import siegeltheta

    pool, faulty = _eval_pool(job)
    tracer = Tracer()
    traced = {name: tracer.wrap(getattr(siegeltheta, name), f"theta.{name}")
              for name in inputs.FUNCTIONS}
    clock = time.perf_counter
    plain_s = traced_s = 0.0
    calls = []  # (span index, name, z, tau, result or None)
    errors: dict[str, int] = {}
    wrong = 0
    rel_errors = []
    size = len(pool)
    deadline = clock() + job["seconds"]
    op = 0
    while clock() < deadline:
        name, func, z, tau, ref = pool[op % size]
        # the same point untraced, then traced; alternate the order by op
        order = (False, True) if op % 2 == 0 else (True, False)
        for with_trace in order:
            call = traced[name] if with_trace else func
            tracer.current_op = op
            index = len(tracer)
            t0 = clock()
            try:
                out = call(z, tau)
            except Exception as exc:
                out = None
                error = type(exc).__name__
            else:
                error = None
            elapsed = clock() - t0
            if with_trace:
                traced_s += elapsed
                calls.append((index, name, z, tau, out))
                if error is not None:
                    errors[error] = errors.get(error, 0) + 1
                else:
                    kind, err = _judge(name, out, ref)
                    if kind is None:
                        rel_errors.append(err)
                    elif kind == "wrong":
                        wrong += 1
                    else:
                        errors["other"] = errors.get("other", 0) + 1
            else:
                plain_s += elapsed
        op += 1
    metrics = _theta_metrics(tracer, calls, errors, wrong, rel_errors)
    metrics["theta.faulty_share"] = faulty / len(job["points"]) if job["points"] else 0.0
    metrics.update(_overhead(plain_s, traced_s))
    _write_spans(tracer, job)
    # a declined op is not a failed one (see LoopStats)
    failed = sum(n for kind, n in errors.items() if kind not in DECLINING_ERRORS) + wrong
    return {"metrics": per_op(metrics, op), "absent": tracer.absent, "ops": op,
            "failed": failed}


def _theta_metrics(tracer, calls, errors, wrong, rel_errors) -> dict:
    from siegeltheta import product_terms

    terms = []
    busy = busy_ok = 0.0
    reduced = reduced_of = 0
    for index, name, z, tau, out in calls:
        busy += tracer.duration(index)
        if out is None:
            continue
        busy_ok += tracer.duration(index)
        if name == "theta1_reduced":
            terms.append(out.terms_used)
            reduced_of += 1
            reduced += bool(out.reduced)
        else:
            # theta2/theta4 shift z by a real half period: same length
            terms.append(product_terms(z, tau))
    return _theta_summary(len(calls), busy, busy_ok, terms, reduced, reduced_of, errors, wrong,
                          rel_errors)


def _theta_summary(calls, busy, busy_ok, terms, reduced, reduced_of, errors, wrong,
                   rel_errors) -> dict:
    """theta-layer metrics; busy covers every call, busy_ok those that
    returned (and so have a term count)."""
    terms = sorted(terms)
    rel_errors = sorted(rel_errors)
    total_terms = sum(terms)
    known = ("ConvergenceError", "OverflowError")
    return {
        "theta.calls": calls,
        "theta.busy_ms": busy * 1e3,
        "theta.terms": total_terms,
        "theta.terms_max": terms[-1] if terms else 0,
        "theta.terms_p50": percentile(terms, 0.5),
        "theta.terms_p90": percentile(terms, 0.9),
        "theta.us_per_term": busy_ok * 1e6 / total_terms if total_terms else 0.0,
        "theta.reduced_share": reduced / reduced_of if reduced_of else 0.0,
        "theta.errors.ConvergenceError": errors.get("ConvergenceError", 0),
        "theta.errors.OverflowError": errors.get("OverflowError", 0),
        "theta.errors.other": sum(v for k, v in errors.items() if k not in known),
        "theta.wrong": wrong,
        "theta.rel_err_p50": percentile(rel_errors, 0.5),
        "theta.rel_err_max": rel_errors[-1] if rel_errors else 0.0,
    }


# work counts and times are reported per op, so runs of any length compare
PER_OP_SUFFIXES = (".calls", ".busy_ms", ".self_ms", ".terms", ".nodes", ".checks",
                   ".untraced_ms")


def per_op(metrics: dict, ops: int) -> dict:
    return {name: value / ops if ops and name.endswith(PER_OP_SUFFIXES) else value
            for name, value in metrics.items()}


def _overhead(plain_s: float, traced_s: float) -> dict:
    return {
        "trace.untraced_ms": plain_s * 1e3,
        "trace.overhead_share": traced_s / plain_s - 1.0 if plain_s else 0.0,
    }


# names that suites and verifier bound at import, by layer
_SUITES_NAMES = {
    "run_suite": "suites.run_suite",
    "residue_kernel": "verifier.residue_kernel",
    "integrate_closed": "contour.integrate_closed",
    "residue_by_circle": "contour.residue_by_circle",
    "transformation_residual": "verifier.transformation_residual",
    "edge_limit_residual": "verifier.edge_limit",
    "inversion_log_ratio": "verifier.lambert",
    "inversion_log_ratio_lambert": "verifier.lambert",
    "log_identity_residual": "verifier.lambert",
    "closed_residue_sum": "verifier.lambert",
}
_VERIFIER_NAMES = {"theta1": "theta.theta1", "inversion_rhs": "theta.inversion_rhs"}


def trace_verify(job) -> dict:
    from siegeltheta import suites, verifier
    from siegeltheta.suites import report_json_line

    run_suite = suites.run_suite
    run_suite("all", seed=0)  # warm-up, untimed
    tracer = Tracer()
    notes = {"suite": [], "zeta": [], "point": [], "closed": [], "theta": []}

    def note(key):
        def after(index, args, kwargs, result, error):
            notes[key].append((index, args))
        return after

    hooks = {"run_suite": note("suite"), "residue_kernel": note("zeta"),
             "inversion_log_ratio": note("point"), "inversion_log_ratio_lambert": note("point"),
             "log_identity_residual": note("point"), "closed_residue_sum": note("closed")}
    clock = time.perf_counter
    plain_s = traced_s = 0.0
    checks = failed_checks = failed_ops = 0
    seeds = inputs.verify_seed_stream(job["seed"])
    deadline = clock() + job["seconds"]
    op = 0
    while clock() < deadline:
        seed = next(seeds)
        outputs = {}
        for with_trace in ((False, True) if op % 2 == 0 else (True, False)):
            if with_trace:
                tracer.current_op = op
                for attr, name in _SUITES_NAMES.items():
                    tracer.install(suites, attr, name, hooks.get(attr))
                for attr, name in _VERIFIER_NAMES.items():
                    tracer.install(verifier, attr, name, note("theta"))
            t0 = clock()
            try:
                reports = suites.run_suite("all", seed=seed)
            finally:
                elapsed = clock() - t0
                tracer.uninstall()
            if with_trace:
                traced_s += elapsed
            else:
                plain_s += elapsed
            outputs[with_trace] = [report_json_line(r) for r in reports]
        if outputs[True] != outputs[False]:
            raise RuntimeError(f"traced run of seed {seed} changed the report bytes")
        checks += len(reports)
        failed_here = sum(not r.passed for r in reports)
        failed_checks += failed_here
        failed_ops += failed_here > 0
        op += 1
    tracer.absent = sorted(set(tracer.absent))
    metrics = _verify_metrics(tracer, notes)
    metrics["suites.checks"] = checks
    metrics["suites.checks_failed"] = failed_checks
    metrics.update(_overhead(plain_s, traced_s))
    _write_spans(tracer, job)
    return {"metrics": per_op(metrics, op), "absent": tracer.absent, "ops": op,
            "failed": failed_ops}


def _verify_metrics(tracer, notes) -> dict:
    from siegeltheta import product_terms, verifier

    self_times = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for index, nid in enumerate(tracer.name):
        by_name.setdefault(tracer.names[nid], []).append(index)

    def busy(name):
        return sum(tracer.duration(i) for i in by_name.get(name, ())) * 1e3

    def own(name):
        return sum(self_times[i] for i in by_name.get(name, ())) * 1e3

    metrics = {}
    # theta layer inside the proof replay: theta1(z/tau, -1/tau) and
    # inversion_rhs(z, tau) each run one product at their own arguments
    theta_spans = [index for index, _ in notes["theta"]]
    theta_terms = [product_terms(complex(args[0]), complex(args[1])) for _, args in notes["theta"]]
    theta_busy = sum(tracer.duration(i) for i in theta_spans)
    metrics.update(_theta_summary(len(theta_spans), theta_busy, theta_busy, theta_terms,
                                  0, 0, {}, 0, []))

    kernels = by_name.get("verifier.residue_kernel", [])
    metrics["verifier.residue_kernel.calls"] = len(kernels)
    metrics["verifier.residue_kernel.busy_ms"] = busy("verifier.residue_kernel")
    lambert = by_name.get("verifier.lambert", [])
    metrics["verifier.lambert.calls"] = len(lambert)
    metrics["verifier.lambert.busy_ms"] = busy("verifier.lambert")
    metrics["verifier.lambert.terms"] = sum(
        _lambert_terms(verifier, args[0]) for _, args in notes["point"]
    ) + sum(args[0].n for _, args in notes["closed"])
    metrics["verifier.transformation_residual.busy_ms"] = busy("verifier.transformation_residual")
    metrics["verifier.edge_limit.busy_ms"] = busy("verifier.edge_limit")

    # contour layer: self time excludes the kernel calls it makes
    kernel_parent = {i: tracer.parent[i] for i in kernels}
    for name in ("contour.integrate_closed", "contour.residue_by_circle"):
        spans = set(by_name.get(name, ()))
        metrics[f"{name}.calls"] = len(spans)
        metrics[f"{name}.self_ms"] = own(name)
        metrics[f"{name}.nodes"] = sum(1 for p in kernel_parent.values() if p in spans)
    distinct: dict[int, set] = {}
    for index, args in notes["zeta"]:
        zeta = complex(args[0])
        distinct.setdefault(tracer.parent[index], set()).add(
            (round(zeta.real * 1e13), round(zeta.imag * 1e13)))
    evaluations = len(notes["zeta"])
    metrics["contour.distinct_node_share"] = (
        sum(len(s) for s in distinct.values()) / evaluations if evaluations else 0.0)

    # suites: per-suite busy time from the inner run_suite spans
    suite_busy = {name: 0.0 for name in ("eq2", "lemma1", "lemma2", "lemma3", "theorem")}
    for index, args in notes["suite"]:
        name = args[0] if args else None
        if name in suite_busy:
            suite_busy[name] += tracer.duration(index)
    for name, seconds in suite_busy.items():
        metrics[f"suites.{name}.busy_ms"] = seconds * 1e3
    metrics["suites.self_ms"] = own("suites.run_suite")
    return metrics


def _lambert_terms(verifier, p) -> int:
    # the ratio arrangements run to the longer of both sides' lengths (the
    # inverted side's length is private, so it may be absent)
    tau_side = verifier.lambert_terms(p)
    inverted = getattr(verifier, "_inverted_terms", None)
    if inverted is None:
        return tau_side
    return max(tau_side, inverted(p, verifier.SeriesConfig()))


SPAN_DUMP_OPS = 20  # ops whose spans are written out after a traced run


def _write_spans(tracer: Tracer, job) -> None:
    path = job.get("spans_out")
    if path:
        tracer.write_tsv(path, max_ops=SPAN_DUMP_OPS)


def cli_main(job) -> dict:
    """Median ms of in-process cli.main(argv) per argv, import excluded."""
    from siegeltheta import cli

    times = []
    for argv in job["argvs"]:
        for _ in range(3):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(argv)
            times.append(time.perf_counter() - t0)
    return {"metrics": {"cli.main_ms": statistics.median(times) * 1e3}}


JOBS = {
    ("run", "eval"): run_eval,
    ("run", "verify"): run_verify,
    ("trace", "eval"): trace_eval,
    ("trace", "verify"): trace_verify,
}


def main() -> int:
    job = json.load(sys.stdin)
    if job["mode"] == "cli_main":
        result = cli_main(job)
    else:
        family = "eval" if job["workload"] in EVAL_WORKLOADS else "verify"
        result = JOBS[(job["mode"], family)](job)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
