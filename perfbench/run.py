"""siegeltheta benchmark: closed-loop workloads, checked against a reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
./src).  Workloads: eval_near_axis, eval_fundamental, verify_all, cli_cold,
or ``all`` for every one in turn.  Each is a closed loop with one caller
and one thread; the loop runs in one child process (or, for cli_cold,
spawns one CLI process at a time).  Every output is checked against an
independent reference before it counts.

Every timing is calibrated: stretches of ops (about 20 ms of eval ops,
one verify op, one CLI spawn) sit between runs of a fixed pure-Python loop,
and their wall times are scaled to the host speed at which that loop takes
1 ms (see perfbench.calib), because the speed of this kind of shared host
changes by up to 2x from one moment to the next.  Latency percentiles and
throughput are then taken over every op of the run.  Set-up time is the
median of 10 fresh interpreters spread over the loop, each calibrated by
the same loop run inside it.  cli_cold keeps itself and its spawns on one
CPU, so that the calibrations in the parent meet the spawn's host speed.
The inputs line gives the uncalibrated figures too.

An eval op that raises ConvergenceError (the product would pass the term
cap) or OverflowError (an intermediate left the binary64 range) is
declined, not failed: the library refuses instead of answering wrongly.
Declined ops lower answered_share, and their time counts in throughput.
Every other raise, a non-finite value or a miss of the reference fails
the op; an eval point on which the library raises any other error is
dropped from the pool before timing and reported as theta.faulty_share.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics from a separate
traced run, in which every op runs once untraced and once traced so the
tracing overhead is measured too.  Earlier lines give the environment,
input properties and a readable table.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"  # caches and span dumps, never committed
sys.path.insert(0, str(ROOT))

from perfbench import inputs, reference  # noqa: E402
from perfbench.worker import (  # noqa: E402
    EVAL_WORKLOADS, PER_OP_SUFFIXES, LoopStats, SetupClock, check)

# tail: the percentile of answered-op latency reported as latency_tail_ms,
# with well over 10 samples beyond it in a run of the default length (see
# BENCHMARK.json).  p99 where the tail is input cost (long near-axis
# products); p90 where ops are alike and a p99 reads the host's jitter.
WORKLOADS = {
    "eval_near_axis": {"tail": 0.99},
    "eval_fundamental": {"tail": 0.9},
    "verify_all": {"tail": 0.9},
    "cli_cold": {"tail": 0.85},
}
END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "answered_share",
              "peak_rss_mb")
# every traced run reports all of these; a layer a workload does not reach
# reads 0, and a wrapped name that no longer exists is left out
PER_LAYER = (
    "theta.calls", "theta.busy_ms", "theta.terms", "theta.terms_max", "theta.terms_p50",
    "theta.terms_p90", "theta.us_per_term", "theta.reduced_share", "theta.excluded_share",
    "theta.faulty_share",
    "theta.errors.ConvergenceError", "theta.errors.OverflowError", "theta.errors.other",
    "theta.wrong", "theta.rel_err_p50", "theta.rel_err_max",
    "verifier.residue_kernel.calls", "verifier.residue_kernel.busy_ms",
    "verifier.lambert.calls", "verifier.lambert.busy_ms", "verifier.lambert.terms",
    "verifier.transformation_residual.busy_ms", "verifier.edge_limit.busy_ms",
    "contour.integrate_closed.calls", "contour.integrate_closed.self_ms",
    "contour.integrate_closed.nodes", "contour.residue_by_circle.calls",
    "contour.residue_by_circle.self_ms", "contour.residue_by_circle.nodes",
    "contour.distinct_node_share",
    "suites.eq2.busy_ms", "suites.lemma1.busy_ms", "suites.lemma2.busy_ms",
    "suites.lemma3.busy_ms", "suites.theorem.busy_ms", "suites.self_ms",
    "suites.checks", "suites.checks_failed",
    "cli.interpreter_ms", "cli.import_ms", "cli.numpy_import_ms", "cli.main_ms",
    "cli.child_cpu_ms", "cli.exit_nonzero", "cli.eval_share",
    "trace.untraced_ms", "trace.overhead_share",
)
NEAR_AXIS_SIDE = 45  # 2025 candidates, about 1800 kept
FUNDAMENTAL_SIDE = 32
SETUP_REPEATS = 10  # fresh interpreters per run, spread over the loop
CHILD_GRACE_S = 120.0
PYTHON = sys.executable


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a child misbehaved)."""


# ---------------------------------------------------------------------------
# Child processes: one at a time, output drained, resource use from wait4
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SIEGELTHETA_THREADS"] = "1"  # one thread per process, whatever the caller set
    return env


def spawn(argv, stdin: bytes = b"", timeout: float = 60.0):
    """Run argv to completion; returns (stdout, stderr, exit code, wall s, rusage)."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        if stdin:
            proc.stdin.write(stdin)
        proc.stdin.close()
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                left = started + timeout - time.perf_counter()
                if left <= 0:
                    raise BenchError(f"{argv[:4]} ran longer than {timeout:.0f} s")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), proc.returncode, wall, usage


def run_worker(job: dict) -> dict:
    out, err, code, _, _ = spawn([PYTHON, "-m", "perfbench.worker"], json.dumps(job).encode(),
                                 timeout=job.get("seconds", 0) + CHILD_GRACE_S)
    if code != 0:
        raise BenchError(f"worker exited {code}: {err.decode(errors='replace')[-2000:]}")
    return json.loads(out)


# ---------------------------------------------------------------------------
# Inputs with their references (outside every timed region, cached by seed)
# ---------------------------------------------------------------------------

def _source_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cached(name: str, compute):
    # the name carries the pool size; these two files make the points
    key = _source_digest([BENCH / "inputs.py", BENCH / "reference.py"])
    path = STATE / "cache" / f"{name}-{key}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pass
    data = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data), encoding="utf-8")
    os.replace(tmp, path)
    return data


def _row(function, z, tau, ref):
    return [function, z.real, z.imag, tau.real, tau.imag, ref.real, ref.imag]


def eval_pool(workload: str, seed: int) -> dict:
    def near_axis():
        rows = []
        candidates = inputs.near_axis_candidates(seed, NEAR_AXIS_SIDE)
        for function, z, tau in candidates:
            ref = reference.theta_reference("theta1", z, tau)
            if ref.in_range:
                rows.append(_row(function, z, tau, ref.value))
        return {"points": rows, "excluded_share": 1.0 - len(rows) / len(candidates)}

    def fundamental():
        rows = []
        for function, z, tau in inputs.fundamental_points(seed, FUNDAMENTAL_SIDE):
            kind = "theta1" if function == "theta1_reduced" else function
            rows.append(_row(function, z, tau, reference.theta_reference(kind, z, tau).value))
        return {"points": rows, "excluded_share": 0.0}

    if workload == "eval_near_axis":
        return _cached(f"{workload}-{seed}-{NEAR_AXIS_SIDE}", near_axis)
    return _cached(f"{workload}-{seed}-{FUNDAMENTAL_SIDE}", fundamental)


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters, import to the end of one warm-up call
# ---------------------------------------------------------------------------

_SETUP = {
    "eval_near_axis": (
        "import siegeltheta\n"
        "siegeltheta.theta1_reduced(0.3+0.1j, 0.02+0.01j)\n"
    ),
    "eval_fundamental": (
        "import siegeltheta\n"
        "for f in (siegeltheta.theta1_reduced, siegeltheta.theta2, siegeltheta.theta3,"
        " siegeltheta.theta4):\n"
        "    f(0.3+0.1j, 0.1+1.2j)\n"
    ),
    "verify_all": (
        "import siegeltheta\n"
        "from siegeltheta.suites import report_json_line, run_suite\n"
        "[report_json_line(r) for r in run_suite('all', seed=1)]\n"
    ),
    "cli_cold": (
        "import siegeltheta.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    siegeltheta.cli.main(['eval', 'theta1', '--z=0.3', '--tau=0.1+1.2i'])\n"
        "    siegeltheta.cli.main(['verify', 'all', '--seed', '1'])\n"
    ),
}


def setup_code(workload: str) -> str:
    """Code for a fresh interpreter that prints its own set-up seconds."""
    # io, contextlib and time are loaded before the clock starts; everything
    # the library imports on top is inside the measured interval
    body = "\n".join("    " + line for line in _SETUP[workload].splitlines())
    # the calibration loop runs once to warm up, then on either side
    return (
        "import contextlib, io, time\n"
        "from perfbench.calib import REF_S, calibrate\n"
        "calibrate()\n"
        "before = calibrate()\n"
        "t0 = time.perf_counter()\n"
        "def setup():\n" + body + "\n"
        "setup()\n"
        "elapsed = time.perf_counter() - t0\n"
        "print(elapsed, elapsed * REF_S / ((before + calibrate()) / 2.0))\n"
    )


def _setup_once(code: str) -> list[float]:
    out, err, status, _, _ = spawn([PYTHON, "-c", code])
    if status != 0 or err:
        raise BenchError(f"set-up failed: {err.decode(errors='replace')[-2000:]}")
    return [float(word) for word in out.split()]


# ---------------------------------------------------------------------------
# cli_cold: cold CLI processes, checked against the reference and in-process
# ---------------------------------------------------------------------------

_EVAL_LINE = re.compile(r"^(\S+) terms=(\d+)\n$")


class CliChecker:
    """Expected output of each cli_cold op, computed untimed."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        from siegeltheta.suites import report_json_line, run_suite

        self._report = report_json_line
        self._run_suite = run_suite

    def failure(self, op, out: bytes, err: bytes, code: int) -> str | None:
        argv, function, z, tau = op
        if code != 0:
            return "exit_nonzero"
        if err:
            return "stderr"
        text = out.decode("utf-8", errors="replace")
        if function is None:
            seed = int(argv[3])
            reports = self._run_suite("all", seed=seed)
            expected = "".join(self._report(r) + "\n" for r in reports)
            if '"passed": false' in text:
                return "check_failed"
            return None if text == expected else "wrong"
        match = _EVAL_LINE.match(text)
        try:
            value = complex(match.group(1).replace("i", "j"))
        except (AttributeError, ValueError):  # no match, or not a number
            return "wrong"
        return check(value, reference.theta_reference(function, z, tau).value)[0]


def _cli_argv(argv, importtime: bool = False):
    flags = ["-X", "importtime"] if importtime else []
    return [PYTHON, *flags, "-m", "siegeltheta.cli", *argv]


CLI_BLOCK_OPS = 4  # one round of the 3:1 eval/verify mix


@contextlib.contextmanager
def one_cpu():
    """Keep this process and the children it starts on one CPU, so that the
    calibrations around a spawn meet the host speed the spawn met."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_cli(seed: int, seconds: float, tail: float, setups: int = 0,
            traced: bool = False) -> dict:
    """The cli_cold loop, to be run under one_cpu().  With traced, whole
    rounds of the eval/verify mix alternate between plain spawns and spawns
    under -X importtime, which gives the import breakdown and, kind by
    kind, the tracing overhead."""
    checker = CliChecker()
    stats = LoopStats(tail)
    setup_src = setup_code("cli_cold")
    setup = SetupClock(lambda: _setup_once(setup_src), setups, seconds)
    kinds = {"eval": 0, "verify": 0}
    walls = {(with_trace, kind): [] for with_trace in (False, True) for kind in kinds}
    peak_kb = 0
    cpu, imports, numpy_imports = [], [], []
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(inputs.cli_commands(seed, int(seconds * 20) + 8)):
        # a traced run ends no sooner than one plain and one traced round
        if time.perf_counter() >= deadline and (not traced or index >= 2 * CLI_BLOCK_OPS):
            break
        if index % CLI_BLOCK_OPS == 0:
            deadline += setup.due()
        kind = "eval" if op[1] else "verify"
        with_trace = traced and (index // CLI_BLOCK_OPS) % 2 == 1
        before = stats.measure()  # each spawn sits between two calibrations
        out, err, code, wall, usage = spawn(_cli_argv(op[0], with_trace))
        after = stats.measure()
        peak_kb = max(peak_kb, usage.ru_maxrss)
        cpu.append(usage.ru_utime + usage.ru_stime)
        if with_trace:
            found = _import_times(err)
            imports.append(found.get("siegeltheta", 0.0))
            numpy_imports.append(found.get("numpy", 0.0))
            err = b"".join(line + b"\n" for line in err.splitlines()
                           if not line.startswith(b"import time:"))
        walls[(with_trace, kind)].append(wall)
        failure = checker.failure(op, out, err, code)
        stats.add(wall, failure, before, after)
        if failure is None:
            kinds[kind] += 1
    result = stats.result()
    result.update({
        "setup_s": setup.finish(),
        "peak_rss_mb": peak_kb / 1024.0,
        "eval_ops": kinds["eval"],
        "verify_ops": kinds["verify"],
        "child_cpu_s": cpu,
        "import_s": imports,
        "numpy_import_s": numpy_imports,
        "walls": walls,
    })
    return result


def cli_overhead(walls: dict) -> dict:
    """Tracing overhead of -X importtime, comparing like op kinds.

    Each kind's median wall time is weighted by how many plain ops of that
    kind ran, so both sides have the plain set's eval/verify mix."""
    # a traced run holds at least one plain and one traced round of each kind
    counts = {kind: len(walls[(False, kind)]) for kind in ("eval", "verify")}

    def mix(with_trace):
        return sum(statistics.median(walls[(with_trace, kind)]) * n
                   for kind, n in counts.items()) / sum(counts.values())

    plain = mix(False)
    return {"trace.untraced_ms": plain * 1e3, "trace.overhead_share": mix(True) / plain - 1.0}


def _import_times(stderr: bytes) -> dict:
    """Cumulative import seconds per top-level module from -X importtime."""
    found = {}
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("siegeltheta", "numpy"):
            found[name] = int(parts[1]) / 1e6
    return found


# ---------------------------------------------------------------------------
# cli probes for the per-layer cli metrics on every workload
# ---------------------------------------------------------------------------

_PROBE_ARGV = {
    "eval_near_axis": ["eval", "theta1", "--z=0.3+0.1i", "--tau=0.02+0.01i", "--reduce"],
    "eval_fundamental": ["eval", "theta3", "--z=0.3+0.1i", "--tau=0.1+1.2i"],
    "verify_all": ["verify", "all", "--seed", "1"],
}
PROBES = 5


def interpreter_ms() -> float:
    """Median wall ms of a bare ``python -c pass``: the floor under every spawn."""
    bare = []
    for _ in range(PROBES):
        _, _, _, wall, _ = spawn([PYTHON, "-c", "pass"])
        bare.append(wall)
    return statistics.median(bare) * 1e3


def cli_probe(workload: str) -> dict:
    imports, numpy_imports, cpu = [], [], []
    nonzero = 0
    for _ in range(PROBES):
        _, err, code, _, usage = spawn(_cli_argv(_PROBE_ARGV[workload], importtime=True))
        found = _import_times(err)
        imports.append(found.get("siegeltheta", 0.0))
        numpy_imports.append(found.get("numpy", 0.0))
        cpu.append(usage.ru_utime + usage.ru_stime)
        nonzero += code != 0
    return {
        "cli.interpreter_ms": interpreter_ms(),
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.numpy_import_ms": statistics.median(numpy_imports) * 1e3,
        "cli.child_cpu_ms": statistics.median(cpu) * 1e3,
        "cli.exit_nonzero": nonzero,
    }


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit() -> str | None:
    # only when the checkout itself is a git work tree (it need not be)
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def environment() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(list((SRC / "siegeltheta").glob("*.py"))),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    tail = WORKLOADS[workload]["tail"]
    props = {}
    if workload == "cli_cold":
        with one_cpu():
            loop = run_cli(seed, seconds, tail, setups=SETUP_REPEATS)
        props = {"cli.eval_ops": loop["eval_ops"], "cli.verify_ops": loop["verify_ops"]}
    else:
        job = {"workload": workload, "mode": "run", "seconds": seconds, "seed": seed,
               "tail": tail, "setup_code": setup_code(workload), "setups": SETUP_REPEATS}
        if workload in EVAL_WORKLOADS:
            pool = eval_pool(workload, seed)
            job["points"] = pool["points"]
            props = {"pool_points": len(pool["points"]),
                     "theta.excluded_share": pool["excluded_share"]}
        loop = run_worker(job)
    wall_setups, setups = zip(*loop["setup_s"])
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(loop["ops_per_s"], "1/s"),
        "latency_p50_ms": _metric(loop["latency_p50_s"] * 1e3, "ms"),
        "latency_tail_ms": _metric(loop["latency_tail_s"] * 1e3, "ms"),
        "answered_share": _metric(loop["passed"] / loop["attempted"], "ratio"),
        "peak_rss_mb": _metric(loop["peak_rss_mb"], "MB"),
    }
    props.update({
        "tail_percentile": tail,
        "latency_samples": loop["passed"],
        "declined_share": sum(loop["declined"].values()) / loop["attempted"],
        "declined": loop["declined"],
        "faulty_points": loop.get("faulty_points", 0),
        "fail_share": loop["failed"] / loop["attempted"],
        "failures": loop["failures"],
        "setup_s_calibrated": list(setups),
        "wall": {"setup_s": statistics.median(wall_setups), "ops_per_s": loop["wall_ops_per_s"],
                 "calibration_ms_p50": loop["calibration_s_p50"] * 1e3},
    })
    return {"attempted": loop["attempted"], "failed": loop["failed"],
            "wrong": _wrong(loop["failures"]), "metrics": metrics}, props


def _wrong(failures: dict) -> int:
    # a raised documented error is a failed op; a wrong answer is incorrect
    return sum(failures.get(kind, 0) for kind in ("wrong", "nonfinite", "check_failed",
                                                   "bytes_differ", "stderr"))


def _unit(name: str) -> str:
    per = "/op" if name.endswith(PER_OP_SUFFIXES) else ""
    if name.endswith("_ms"):
        return "ms" + per
    if name.endswith("_share") or name.startswith("theta.rel_err"):
        return "ratio"
    if name.endswith("us_per_term"):
        return "us"
    return "count" + per


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    props = {}
    absent = []
    layer = dict.fromkeys(PER_LAYER, 0)
    if workload == "cli_cold":
        with one_cpu():
            loop = run_cli(seed, seconds, WORKLOADS[workload]["tail"], traced=True)
        layer.update(cli_overhead(loop["walls"]))
        attempted, failed = loop["attempted"], loop["failed"]
        wrong = _wrong(loop["failures"])
        argvs = [op[0] for op in inputs.cli_commands(seed, CLI_BLOCK_OPS)]
        probe = {
            "cli.interpreter_ms": interpreter_ms(),
            "cli.import_ms": statistics.median(loop["import_s"]) * 1e3,
            "cli.numpy_import_ms": statistics.median(loop["numpy_import_s"]) * 1e3,
            "cli.child_cpu_ms": statistics.median(loop["child_cpu_s"]) * 1e3,
            "cli.exit_nonzero": loop["failures"].get("exit_nonzero", 0),
        }
        total = loop["eval_ops"] + loop["verify_ops"]
        layer["cli.eval_share"] = loop["eval_ops"] / total if total else 0.0
    else:
        job = {"workload": workload, "mode": "trace", "seconds": seconds, "seed": seed,
               "spans_out": str(STATE / f"spans-{workload}-{seed}.tsv")}
        STATE.mkdir(exist_ok=True)
        excluded = 0.0
        if workload in EVAL_WORKLOADS:
            pool = eval_pool(workload, seed)
            job["points"] = pool["points"]
            excluded = pool["excluded_share"]
            argvs = [_PROBE_ARGV[workload]]
        else:
            argvs = [["verify", "all", "--seed", str(next(inputs.verify_seed_stream(seed)))]]
        traced = run_worker(job)
        absent = traced["absent"]
        layer.update(traced["metrics"])
        layer["theta.excluded_share"] = excluded
        layer["cli.eval_share"] = 1.0 if workload != "verify_all" else 0.0
        attempted, failed = traced["ops"], traced["failed"]
        wrong = int(layer.get("theta.wrong", 0)) + int(layer.get("suites.checks_failed", 0))
        probe = cli_probe(workload)
    main = run_worker({"mode": "cli_main", "argvs": argvs, "seconds": 0})
    layer.update(probe)
    layer.update(main["metrics"])
    for name in absent:
        for key in [k for k in layer if k == name or k.startswith(name + ".")]:
            del layer[key]
    unknown = set(layer) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"undeclared per-layer metrics {sorted(unknown)}")
    metrics = {name: _metric(value, _unit(name)) for name, value in layer.items()}
    props["absent"] = absent
    return {"attempted": max(1, attempted), "failed": failed, "wrong": wrong,
            "metrics": metrics}, props


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    measure = per_layer if trace else end_to_end
    result, props = measure(workload, seed, seconds)
    env["loadavg_after"] = list(os.getloadavg())
    print(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                      "trace": int(trace), "env": env, "inputs": props}))
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        print(f"  {workload:17s} {name:{width}s} {metric['value']:>14.6g} {metric['unit']}")
    return result


def _compile_library() -> None:
    # an installed package ships its bytecode; compile it once, untimed
    if not compileall.compile_dir(str(SRC / "siegeltheta"), quiet=1):
        raise BenchError("the library does not compile")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "siegeltheta" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        _compile_library()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    final = {
        "correct": all(r["wrong"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
