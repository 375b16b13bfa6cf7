"""stabkit benchmark: seeded workloads through ``stabkit.cli.run``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload propagate --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one client in this process.  An op is
one ``cli.run([... , "--out", report])`` call (or one library call where the
CLI has no entry point) on inputs ``generate.py`` makes from the seed.  The
loop repeats the workload's pass of ops until ``--seconds`` have elapsed
and at least 100 ops have run, always finishing the pass it is in, so every
run measures the same mix.  Every report is checked (``checks.py``).  A run
whose pass the hard cap cuts short, or that holds fewer than 100 ops, is
reported not correct.

Op times are host-normalised.  Right before and right after each op the
runner times a fixed calibration kernel (``HOST_KERNELS``; the op's
``host`` names which), and scales the op's wall time by the kernel's
reference time over the mean of those two timings.  On the shared host the
speed of a core moves by up to 1.7x within seconds, and the kernel moves
with it; the scaled time is what the op would take on the host in its
reference state.  The raw wall-clock figures are printed too.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics per traced pass,
plus the tracing overhead; spans are written to
``.perfbench_run/trace-<workload>-seed<seed>.jsonl``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A line starting
with ``DIAG`` carries diagnostics that are not metrics (host calibration,
failure counts) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The benchmark process runs BLAS on one thread, so that each op runs on
# the one core the runner pins and calibrates.  The set-up children get the
# caller's environment, as a CLI user's interpreter would.
CALLER_ENV = dict(os.environ)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import generate  # noqa: E402
import tracer as tracer_mod  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

SETUP_SAMPLES = 15
# about the median start of a bare interpreter on the 2-core host
BARE_START_REF_S = 0.08
MIN_OPS = 100
OP_TIMEOUT_S = 60.0
# a run stops starting ops after this long, so it exits well within 180 s
HARD_CAP_S = 140.0
CHOOSE_INTERVAL_S = 0.25

_now = time.perf_counter

# per-call costs every CLI op pays once, whatever its analysis
FIXED_COST_GROUPS = ("cli.run", "schema.load", "schema.build", "schema.report",
                     "expr.parse", "expr.compile")


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _spawn_s(code: str, env: dict) -> float:
    """Seconds from spawning ``python3 -c code`` to its exit."""
    t0 = _now()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=60)
    elapsed = _now() - t0
    if proc.returncode != 0:
        fail(f"python3 -c {code!r} failed with src/ on the path: "
             + proc.stderr.decode(errors="replace").strip()[-400:])
    return elapsed


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to ``import stabkit.cli`` returning.

    Returns the host-normalised samples and the raw ones.  A bare
    interpreter (``python3 -c pass``) is timed before and after each
    sample, and the sample is scaled by ``BARE_START_REF_S`` over their
    mean.  Process start on the shared host moves between two states for
    tens of seconds at a time (set-up medians near 0.22 s and 0.40 s), more
    than the op kernels do; the bare start moves with it.  On the 2-core
    host, medians of 15 samples varied 8% raw and 2% scaled.
    """
    env = dict(CALLER_ENV, PYTHONPATH=str(SRC))
    bare = [_spawn_s("pass", env)]
    scaled, raw = [], []
    for _ in range(samples):
        raw.append(_spawn_s("import stabkit.cli", env))
        bare.append(_spawn_s("pass", env))
        scaled.append(raw[-1] * 2.0 * BARE_START_REF_S / (bare[-2] + bare[-1]))
    return scaled, raw


def calibrate() -> float:
    """A fixed Python-plus-numpy kernel; its time tracks host speed."""
    t0 = _now()
    acc = 0.0
    for i in range(4000):
        acc += math.sin(i * 1e-3)
    m = np.full((24, 24), 1.0 / 24)
    for _ in range(20):
        m = m @ m + acc * 1e-9
    return _now() - t0


_LAPACK_M = np.random.default_rng(0).standard_normal((200, 200))


def calibrate_lapack() -> float:
    """Singular values of a fixed 200 x 200 matrix (320 KB, cache-resident).

    Tracks the large ``--solve`` ops, whose time is a LAPACK SVD; the
    Python kernel does not (on the 2-core host it correlated 0.55 with an
    n = 24 solve, this one 0.75).
    """
    t0 = _now()
    np.linalg.svd(_LAPACK_M, compute_uv=False)
    return _now() - t0


HOST_WINDOW_S = 4e-3
# kernel and its reference time per op ``host``: about the kernel's median
# on a quiet core of the 2-core host, so scaled times read as that state
HOST_KERNELS = {"python": (calibrate, 0.45e-3),
                "lapack": (calibrate_lapack, 3.5e-3)}


def host_time(kernel) -> float:
    """Mean time of ``kernel`` over ``HOST_WINDOW_S``, after one untimed call.

    One timing is noisy: right after an op, with the kernel's code and data
    evicted, it ran 8-10% slower than right before, and single timings
    spread 20% around that.  The fastest of several timings tracks the host
    worse than their mean: it picks the quiet moments of a slow state (on
    six desk runs, p50 spread 0.068 scaled by the fastest of three, 0.043
    by the mean over 4 ms).
    """
    kernel()
    times = [kernel()]
    while sum(times) < HOST_WINDOW_S:
        times.append(kernel())
    return sum(times) / len(times)


class CoreChooser:
    """Keeps the benchmark's main thread on the least-contended CPU.

    On a shared host each CPU slows down on its own, by up to 1.7x for
    seconds to minutes at a time, while other tenants load it.  At most
    every ``CHOOSE_INTERVAL_S`` seconds, :meth:`choose` times the
    calibration kernel on each allowed CPU and pins the calling thread to
    the fastest.  It is called between ops, outside every timed region.
    On the 2-core host, ten propagate runs without it spread 0.27-0.31
    (quartiles over median) in wall-clock time; with it, 0.08-0.13.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.due = 0.0

    def _speed(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(calibrate(), calibrate())

    def choose(self) -> None:
        if len(self.cpus) < 2 or _now() < self.due:
            return
        os.sched_setaffinity(0, {min(self.cpus, key=self._speed)})
        self.due = _now() + CHOOSE_INTERVAL_S


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of all order statistics, centred on rank ``q n``.
    Op latencies form clusters, one per kind of op; a plain order statistic
    jumps between clusters when two neighbouring ops swap order from run to
    run, while the weighted mean moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 40 * n + 1)
    pdf = np.zeros_like(t)
    pdf[1:-1] = np.exp((a - 1.0) * np.log(t[1:-1])
                       + (b - 1.0) * np.log1p(-t[1:-1])
                       - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def run_sylvester(stabkit: dict, form: str, x_points: str,
                  time_samples: str) -> dict:
    """The one library op: ``sylvester_tv`` has no CLI entry point."""
    spec = generate.SYLVESTER_FORMS[form]
    lyap = stabkit["lyapunov"]
    q = lyap.QuadraticFormTV(spec["entries"], params=dict(spec["params"]))
    rep = lyap.sylvester_tv(q, t0=spec["t0"], x_points=int(x_points),
                            time_samples=int(time_samples))
    return {"result": stabkit["schema"].to_jsonable(rep)}


class Runner:
    """Runs and checks ops; owns the work directory of one run."""

    def __init__(self, workload: str, seed: int, stabkit, reference: dict):
        self.stabkit = stabkit
        self.reference = reference
        self.files, self.ops = generate.generate(workload, seed)
        self.work = RUN_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        for name, body in self.files.items():
            (self.work / name).write_bytes(body)
        self.systems = {name: json.loads(body)
                        for name, body in self.files.items()
                        if not name.startswith("p_")}
        self.report = self.work / "report.json"
        self.cli_run = stabkit["cli"].run
        self.calib: list[float] = []
        self.problems: list[str] = []
        # host speed factor of the last op: reference over kernel time
        self.last_scale = 1.0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def run_op(self, op: dict, timeout: float) -> tuple[float, bool]:
        """Latency in seconds and whether the op passed its check."""
        argv = [a.replace("{work}", str(self.work)) for a in op["argv"]]
        if self.report.exists():
            self.report.unlink()
        report = None
        host = op.get("host", "python")
        kernel, ref_s = HOST_KERNELS[host]
        before = host_time(kernel)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        t0 = _now()
        try:
            if op["kind"] == "cli":
                rc = self.cli_run(argv + ["--out", str(self.report)])
            else:
                report = run_sylvester(self.stabkit, *argv)
                rc = 0
            latency = _now() - t0
        except OpTimeout:
            return timeout, self._failed(op, [f"timed out after {timeout} s"])
        except Exception as exc:  # an op that raises counts as failed
            return _now() - t0, self._failed(
                op, [f"raised {type(exc).__name__}: {exc}"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            host_s = (before + host_time(kernel)) / 2.0
            self.last_scale = ref_s / host_s
        if host == "python":
            self.calib.append(host_s)
        if rc != 0:
            return latency, self._failed(op, [f"exit code {rc}"])
        try:
            if report is None:
                report = json.loads(self.report.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return latency, self._failed(op, [f"unreadable report: {exc}"])
        system = None
        if "--system" in argv:
            name = Path(argv[argv.index("--system") + 1]).name
            system = self.systems.get(name)
        problems = checks.check(op, report, system, self.reference)
        return latency, not problems or self._failed(op, problems)

    def _failed(self, op: dict, problems: list[str]) -> bool:
        label = " ".join(op["argv"][:3]).replace("{work}/", "")
        self.problems.append(f"{label}: {'; '.join(problems)}")
        return False


def run_pass(runner: Runner, chooser: CoreChooser, start: float, stats: dict,
             tracer=None) -> bool:
    """One pass over the op list; False when the hard cap cut it short."""
    cli_mod = runner.stabkit["cli"]
    if tracer is not None:
        tracer.install()
        traced_run = tracer.span("cli.run", cli_mod.run)
        runner.cli_run = traced_run
    try:
        for op in runner.ops:
            left = HARD_CAP_S - (_now() - start)
            if left <= 0:
                return False
            chooser.choose()
            if tracer is not None:
                tracer.op = stats["attempted"]
                before = dict(tracer.self_s)
            latency, ok = runner.run_op(op, min(OP_TIMEOUT_S, left))
            if tracer is not None:
                stats["per_op"].append((latency, {
                    g: v - before.get(g, 0.0)
                    for g, v in tracer.self_s.items()}))
            stats["attempted"] += 1
            scaled = latency * runner.last_scale
            stats["latencies"].append(scaled if ok else OP_TIMEOUT_S)
            stats["busy"] += scaled
            stats["raw_latencies"].append(latency if ok else OP_TIMEOUT_S)
            stats["raw_busy"] += latency
            stats["passed" if ok else "failed"] += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            runner.cli_run = cli_mod.run
    stats["passes"] += 1
    return True


def _new_stats() -> dict:
    """Counts; host-normalised and raw busy time and latencies of a run."""
    return {"attempted": 0, "passed": 0, "failed": 0, "busy": 0.0,
            "raw_busy": 0.0, "passes": 0, "latencies": [],
            "raw_latencies": [], "per_op": []}


def layer_metrics(tr, passes: int, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics per traced pass, from the tracer's totals."""
    s, c, k = tr.self_s, tr.calls, tr.counts
    out: dict[str, tuple[float, str]] = {}

    def t(name, *groups):
        out[name] = (sum(s.get(g, 0.0) for g in groups) / passes, "s")

    def n(name, value):
        out[name] = (value / passes, "count")

    t("cli.self_s", "cli.run")
    n("schema.load_calls", c.get("schema.load", 0))
    t("schema.load_s", "schema.load")
    n("schema.build_calls", c.get("schema.build", 0))
    t("schema.build_s", "schema.build")
    t("schema.report_s", "schema.report")
    n("expr.parse_calls", c.get("expr.parse", 0))
    t("expr.parse_s", "expr.parse")
    n("expr.compile_calls", c.get("expr.compile", 0))
    t("expr.compile_s", "expr.compile")
    n("expr.evals", c.get("expr.eval", 0))
    t("expr.eval_s", "expr.eval")
    n("expr.batch_evals", c.get("expr.batch_eval", 0))
    n("expr.batch_rows", k.get("expr.batch_eval.rows", 0))
    t("expr.batch_eval_s", "expr.batch_eval")
    n("odeint.rk4_steps", k.get("odeint.rk4_steps", 0))
    t("odeint.integrate_s", "odeint.integrate")
    t("odeint.integrate_matrix_s", "odeint.integrate_matrix")
    t("odeint.integrate_dde_s", "odeint.integrate_dde")
    n("odeint.coeff_evals", c.get("odeint.coeff_eval", 0))
    t("odeint.coeff_eval_s", "odeint.coeff_eval")
    n("odeint.rhs_calls", c.get("odeint.rhs", 0))
    t("odeint.rhs_s", "odeint.rhs")
    t("odeint.setup_s", "odeint.setup")
    t("odeint.to_csv_s", "odeint.to_csv")
    n("sampling.points", k.get("sampling.points", 0))
    n("sampling.halton_points", k.get("sampling.halton_points", 0))
    draws = k.get("sampling.ball_draws", 0)
    out["sampling.accept_ratio"] = (
        k.get("sampling.points", 0) / draws if draws else 0.0, "ratio")
    t("sampling.halton_s", "sampling.halton")
    t("sampling.ball_points_s", "sampling.ball_points")
    n("lyapunov.scan_points", k.get("lyapunov.scan_points", 0))
    t("lyapunov.check_s", "lyapunov.check")
    t("lyapunov.sylvester_s", "lyapunov.sylvester")
    t("lyapunov.attraction_s", "lyapunov.attraction")
    t("lyapunov.solve_s", "lyapunov.solve")
    n("lyapunov.solve_calls", c.get("lyapunov.solve", 0))
    n("lyapunov.solve_n", k.get("lyapunov.solve_n", 0))
    for fn in tracer_mod.LINALG:
        n(f"linalg.{fn}.calls", c.get(f"linalg.{fn}", 0))
        t(f"linalg.{fn}_s", f"linalg.{fn}")
    t("autonomous.newton_s", "autonomous.newton")
    n("autonomous.jacobian_calls", c.get("autonomous.jacobian", 0))
    t("autonomous.jacobian_s", "autonomous.jacobian")
    t("autonomous.classify_s", "autonomous.classify")
    t("alpha.certify_s", "alpha.certify")
    t("alpha.rde_residual_s", "alpha.rde_residual")
    t("alpha.rate_inputs_s", "alpha.rate_inputs")
    t("floquet.report_s", "floquet.report")
    t("floquet.monodromy_s", "floquet.monodromy")
    t("floquet.liouville_s", "floquet.liouville")
    t("discrete.classify_s", "discrete.classify")
    t("discrete.iterate_s", "discrete.iterate")
    n("discrete.iterate_steps", k.get("discrete.iterate_steps", 0))
    traced_rate = traced["passed"] / traced["busy"]
    untraced_rate = untraced["passed"] / untraced["busy"]
    out["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    out["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    out["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    # wall clock, like the self times above, so that they add up to it
    out["trace.pass_s"] = (traced["raw_busy"] / passes, "s")
    # where the time of the cheaper half of the ops goes: the fixed per-call
    # costs that set p50
    median = statistics.median(lat for lat, _ in traced["per_op"])
    cheap = [d for lat, d in traced["per_op"] if lat <= median]
    total = sum(sum(d.values()) for d in cheap)
    fixed = sum(d.get(g, 0.0) for d in cheap for g in FIXED_COST_GROUPS)
    out["trace.p50_fixed_share"] = (fixed / total if total else 0.0, "ratio")
    return out


def load_stabkit() -> dict:
    if not (SRC / "stabkit" / "cli.py").is_file():
        fail(f"no stabkit source at {SRC / 'stabkit'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    mods = {}
    for name in ("cli", "schema", "expr", "odeint", "sampling", "lyapunov",
                 "linalg", "autonomous", "alpha", "floquet", "discrete"):
        mods[name] = importlib.import_module(f"stabkit.{name}")
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        fail(f"imported stabkit from {origin}, not from {SRC}")
    return mods


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in generate.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(generate.WORKLOADS)}")
    if not (generate.GALLERY.is_dir() and (SRC / "stabkit").is_dir()):
        fail(f"no stabkit source under {SRC}; run from a checkout")
    stabkit = load_stabkit()
    # before the first choose(): set-up children inherit the CPU affinity
    setup, raw_setup = measure_setup(SETUP_SAMPLES) if not args.trace \
        else ([], [])
    chooser = CoreChooser()
    reference = checks.load_reference()
    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner(args.workload, args.seed, stabkit, reference)
    try:
        # first-call costs (lazy imports, caches) are paid once, unmeasured
        seen: set[str] = set()
        for op in runner.ops:
            if op["check"] not in seen:
                seen.add(op["check"])
                runner.run_op(op, OP_TIMEOUT_S)
        runner.calib.clear()
        runner.problems.clear()
        start = _now()
        # False when the hard cap cut a pass short
        whole = True
        if args.trace:
            tr = tracer_mod.Tracer(stabkit)
            untraced, traced = _new_stats(), _new_stats()
            while whole:
                whole = run_pass(runner, chooser, start, untraced) and \
                    run_pass(runner, chooser, start, traced, tr)
                if _now() - start >= args.seconds:
                    break
            stats = {key: untraced[key] + traced[key]
                     for key in ("attempted", "passed", "failed")}
        else:
            stats = _new_stats()
            while whole:
                whole = run_pass(runner, chooser, start, stats)
                if _now() - start >= args.seconds and \
                        stats["attempted"] >= MIN_OPS:
                    break
        elapsed = _now() - start
    finally:
        runner.close()

    attempted, failed = stats["attempted"], stats["failed"]
    if not attempted:
        fail(f"no op started within the {HARD_CAP_S:.0f} s cap")
    # a cut pass measures a partial mix, and fewer than MIN_OPS latencies
    # leave fewer than ten beyond p90: such a run is not correct
    if not whole:
        runner.problems.append(f"the {HARD_CAP_S:.0f} s cap cut a pass short "
                               f"after {attempted} ops")
    if not args.trace and attempted < MIN_OPS:
        runner.problems.append(f"only {attempted} ops, fewer than {MIN_OPS}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"ops/pass {len(runner.ops)}  elapsed {elapsed:.1f} s  "
          f"trace {args.trace}")
    for line in runner.problems[:20]:
        print(f"FAILED {line}")
    calib_ms = 1e3 * statistics.median(runner.calib) if runner.calib else 0.0
    if args.trace:
        if traced["passes"] == 0 or untraced["passes"] == 0 \
                or not traced["passed"] or not untraced["passed"]:
            fail("the traced run finished no complete pair of passes")
        RUN_DIR.mkdir(exist_ok=True)
        span_file = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.write_spans(span_file)
        metrics = layer_metrics(tr, traced["passes"], traced, untraced)
        print(f"per traced pass ({traced['passes']} traced, "
              f"{untraced['passes']} untraced passes); spans in "
              f"{span_file.relative_to(ROOT)}")
    else:
        lat = stats["latencies"]
        ops_per_s = stats["passed"] / stats["busy"]
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_latency_p50_s": (percentile(lat, 0.5), "s"),
            "op_latency_p90_s": (percentile(lat, 0.9), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        raw = stats["raw_latencies"]
        raw_metrics = {"ops_per_s": stats["passed"] / stats["raw_busy"],
                       "op_latency_p50_s": percentile(raw, 0.5),
                       "op_latency_p90_s": percentile(raw, 0.9),
                       "setup_s": statistics.median(raw_setup)}
        print(f"{stats['passes']} passes; latency samples {len(lat)}; "
              f"setup samples {len(setup)}")
        print("wall clock, not host-normalised: " + "  ".join(
            f"{k} {v:.6g}" for k, v in raw_metrics.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'ops_failed_ratio':34s} {ratio:14.6g} ({failed}/{attempted})")
    diag = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "calib_ms": calib_ms, "ops_failed_ratio": ratio,
            "passes": traced["passes"] if args.trace else stats["passes"]}
    if not args.trace:
        diag["raw"] = raw_metrics
        diag["setup_samples"] = raw_setup
    print("DIAG " + json.dumps(diag))
    result = {"correct": failed == 0 and not runner.problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
