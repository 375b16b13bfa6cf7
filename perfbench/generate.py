"""Seeded inputs for the three workloads.

``generate(workload, seed)`` returns the system documents (as bytes, keyed
by file name) and the op list of one *pass*.  Every cost-setting property of
an op (dimension, step, horizon, sample count, levels, directions) is fixed
by its slot in the pass; the seed draws only properties that leave the cost
unchanged: the coefficients of generated systems, initial states, rates,
Newton seeds, and the order of the ops.  That keeps one seed's pass as
expensive as another's, so run-to-run spread measures the program, not the
draw.

An op is a dict:

``kind``   ``"cli"`` (argv for ``stabkit.cli.run``) or ``"sylvester"``
           (library call; the CLI has no entry point for it).
``argv``   CLI arguments; ``{work}/`` stands for the directory the files
           are written to.  ``--out`` is appended at run time.
``check``  name of the output check (see ``checks.py``).
``ref``    key into ``reference.json`` for gallery ops, else ``None``.
``expect`` analytic expectations for generated systems.
``host``   the calibration kernel that tracks the host speed this op's
           time follows (``run.HOST_KERNELS``): ``"python"`` for
           interpreter-bound ops, ``"lapack"`` for the large dense solves.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("propagate", "scan", "desk")
ROOT = Path(__file__).resolve().parents[1]
GALLERY = ROOT / "src" / "stabkit" / "gallery"

# --- gallery menus --------------------------------------------------------------
# Each menu lists every variant a seed may draw; reference.json holds the
# expected output of each, keyed by ``ref``.  Variants of one slot cost the
# same (same system, same step count or sample count).

SIM_SYSTEMS = {
    "pendulum": ("0.5,0", "1,0", "0.2,0.3"),
    "damped_pendulum": ("1,0", "0.5,0.5", "2,0"),
    "vanderpol": ("0.5,0", "0.2,0.2", "0.1,-0.3"),
    "cubic_damping": ("1,0", "0.5,0.5", "0,1"),
    "prey_predator": ("1,0.5", "2,0.5", "1.5,1"),
    "bilinear_decay": ("0.5,0.5", "0.2,0.8", "0.9,0.1"),
}
# (t1, ops per pass).  Latency quantiles are steadiest inside a block of
# equal-cost ops: in a propagate pass of 40 ops the six 2 s runs come first,
# then the fourteen 3 s runs with the two rde checks of equal cost, which
# hold p50; p90 falls inside the six delay_rotating certificates at the top.
SIM_SLOTS = ((2.0, 6), (3.0, 14))

ALPHA_MENU = {
    "delay_coupled": {"route": "rate-inequality", "alphas": (0.2, 0.3, 0.4),
                      "horizon": 4.0, "p": None, "max_alpha": True,
                      "per_pass": 2},
    "delay_two_lag": {"route": "rate-inequality", "alphas": (0.1, 0.2, 0.3),
                      "horizon": 4.0, "p": None, "max_alpha": True,
                      "per_pass": 2},
    # the DDE step of delay_rotating makes RK4 escape near t = 8.1
    # (a0 = 0.5 - exp(t) pushes h*|lambda| past the stability limit), so its
    # cross-check horizon stays below that.  Its ops are the slowest of the
    # pass, and p90 falls among them.
    "delay_rotating": {"route": "rate-inequality", "alphas": (0.1, 0.2),
                       "horizon": 2.0, "p": "decay", "max_alpha": False,
                       "per_pass": 6},
    "delay_gain_scheduled": {"route": "rde", "alphas": (0.5, 1.0),
                             "horizon": 0.0, "p": "gain", "max_alpha": False,
                             "per_pass": 2},
}

# no seed list or initial state starts with "-": argparse would read it as
# an option
LINEARIZE_SEEDS = {
    "quadratic_drag": ("0.1,0.1;1.8,0.2", "0.2,-0.1;2.3,-0.1"),
    "cubic_circuit": ("0.1,0.05;0.9,0.1", "0.05,0.1;0.5,-0.2"),
    "prey_predator": ("0.05,0.05;1.9,0.6", "0.1,-0.1;2.2,0.4"),
    "pendulum": ("0.2,0.1;2.94,0.1", "0.1,0.05;3.3,-0.1"),
    "damped_pendulum": ("0.3,0.1;3.0,0.0", "0.2,0.2;3.2,0.1"),
    "vanderpol": ("0.1,0.1;-0.2,0.3", "0.3,-0.1;0.05,0.05"),
    "cross_coupled": ("0.1,0.1;1.1,1.9", "0.1,0.2;0.9,2.1"),
    "bilinear_decay": ("0.1,0.1;-0.1,0.2", "0.2,-0.2;0.05,0.1"),
    "cubic_damping": ("0.1,0.1;0.2,-0.1", "0.05,0.1;0.1,-0.2"),
    "spring_mass": ("0.1,0.1;0.2,-0.1", "0.3,0.1;0.1,0.2"),
    "vanderpol_integral": ("0.1,0.1;0.2,-0.1", "0.05,0.1;0.1,-0.2"),
    # a double root at 0: Newton stops near 6e-6, where the Jacobian -2*x1
    # is slightly negative, so this commit reports asymptotically-stable
    "algebraic_decay": ("0.1;0.3", "0.2;0.05"),
}
LINEAR_GALLERY = ("coupled_decay", "damped_oscillator", "damped_rotation",
                  "damped_spring", "harmonic_center", "saddle", "uniform_growth")
# harmonic_center and saddle have eigenvalue pairs summing to zero: their
# Lyapunov operator is singular and --solve exits 3 by design, so only
# classify runs on them
SOLVABLE_GALLERY = ("coupled_decay", "damped_oscillator", "damped_rotation",
                    "damped_spring", "uniform_growth")
ATTRACTION_GALLERY = {"vanderpol": 1.0, "cross_coupled": 4.0,
                      "vanderpol_integral": 3.0}
ITERATE_GALLERY = {"cubic_map": ("0.1,0.1", "0.2,-0.1", "0.05,0.15"),
                   "cubic_map_neutral": ("0.1,0.1", "0.2,-0.1", "0.05,0.15")}
DISCRETE_V = "0.5*x1^2 + 2*x1*x2 + 4*x2^2"

SCAN_GALLERY = (
    # (system, flag, expression, radius, samples)
    ("cubic_damping", "--candidate", "x1^2 + x2^2", 1.0, 16384),
    ("vanderpol", "--candidate", "x1^2 + x2^2", 0.9, 16384),
    ("cubic_modulated", "--candidate", "x1^2/2", 1.0, 8192),
    ("exponential_feedback", "--candidate", "x1^2 + (1 + exp(-2*t))*x2^2",
     1.0, 8192),
    ("uniform_growth", "--instability", "x1^2 + x2^2", 1.0, 16384),
    ("damped_spring", "--candidate", "7*x1^2 + 2*x1*x2 + 3*x2^2", 1.0, 4096),
)
SYLVESTER_FORMS = {
    "growing": {"entries": (("t", "-cos(t)"), ("-cos(t)", "t")),
                "params": {}, "t0": 1.0},
    "amplitude_half": {"entries": (("1 - a*cos((x1^2 + x2^2)*t)",
                                    "a*sin((x1^2 + x2^2)*t)"),
                                   ("a*sin((x1^2 + x2^2)*t)",
                                    "1 + a*cos((x1^2 + x2^2)*t)")),
                       "params": {"a": 0.5}, "t0": 0.0},
    "amplitude_one": {"entries": (("1 - a*cos((x1^2 + x2^2)*t)",
                                   "a*sin((x1^2 + x2^2)*t)"),
                                  ("a*sin((x1^2 + x2^2)*t)",
                                   "1 + a*cos((x1^2 + x2^2)*t)")),
                      "params": {"a": 1.0}, "t0": 0.0},
}


def _num(x: float) -> float:
    return float(f"{x:.6g}")


def _fmt(x: float) -> str:
    return f"({_num(x)!r})"


def dumps(doc) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def _gallery_bytes(name: str) -> bytes:
    return (GALLERY / f"{name}.json").read_bytes()


def _cli(argv, check, ref=None, expect=None, host="python") -> dict:
    return {"kind": "cli", "argv": list(argv), "check": check, "ref": ref,
            "expect": expect or {}, "host": host}


# --- generated systems ------------------------------------------------------------

def _orthogonal(rng: random.Random, n: int) -> list[list[float]]:
    """Random orthogonal matrix by Gram-Schmidt on Gaussian columns.

    Entries keep full precision: rounding them would break orthogonality,
    and with it the exact multipliers the Floquet check compares against.
    """
    cols: list[list[float]] = []
    while len(cols) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        for c in cols:
            d = sum(a * b for a, b in zip(v, c))
            v = [a - d * b for a, b in zip(v, c)]
        norm = math.sqrt(sum(a * a for a in v))
        if norm > 1e-3:
            cols.append([a / norm for a in v])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def periodic_system(rng: random.Random, name: str, n: int, period: float,
                    unstable: bool) -> tuple[dict, dict]:
    """``A(t) = S blockdiag(a_b(t) M_b) S'`` with ``a_b`` averaging 1.

    Each block's scalar modulation ``1 + e1 sin(wt) + e2 cos(wt)`` integrates
    to the period, so the monodromy is ``S exp(T blockdiag(M_b)) S'`` and the
    multipliers are ``exp(T lambda(M_b))`` exactly.  Eigenvalue real parts
    stay at least 0.1 from zero, so the verdict is clear of the unit circle.
    """
    w = 2.0 * math.pi / period
    sizes = {2: (2,), 3: (2, 1), 4: (2, 2)}[n]
    blocks, mods, reals = [], [], []
    for b, size in enumerate(sizes):
        sign = 1.0 if (unstable and b == 0) else -1.0
        sigma = sign * rng.uniform(0.1, 0.6)
        if size == 2:
            beta = rng.uniform(0.5, 2.0)
            blocks.append([[sigma, beta], [-beta, sigma]])
            reals += [sigma, sigma]
        else:
            blocks.append([[sigma]])
            reals.append(sigma)
        e1, e2 = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        mods.append(f"(1 + {_fmt(e1)}*sin({w!r}*t) + {_fmt(e2)}*cos({w!r}*t))")
    blocks = [[[_num(v) for v in row] for row in blk] for blk in blocks]
    reals = [blk[i][i] for blk in blocks for i in range(len(blk))]
    s = _orthogonal(rng, n)
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    offset = [sum(sizes[:b]) for b in range(len(sizes))]
    coeffs = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = []
            for b, size in enumerate(sizes):
                c = 0.0
                for k in range(size):
                    for m in range(size):
                        c += (s[i][offset[b] + k] * blocks[b][k][m]
                              * s[j][offset[b] + m])
                if abs(c) > 1e-12:
                    terms.append(f"({c!r})*{mods[b]}")
            row.append(" + ".join(terms) if terms else "0")
        coeffs.append(row)
    doc = {"name": name, "kind": "periodic", "dimension": n,
           "coefficients": coeffs, "period": period,
           "comment": "generated: rotated blocks with averaged modulation"}
    moduli = sorted(math.exp(period * r) for r in reals)
    expect = {"moduli": moduli,
              "liouville": math.exp(period * sum(reals)),
              "verdict": "unstable" if unstable else "asymptotically-stable"}
    # the exact monodromy, for the numpy check: S exp(T M) S'
    expect["blocks"] = blocks
    expect["rotation"] = s
    return doc, expect


def stable_linear(rng: random.Random, name: str, n: int) -> dict:
    """``A = -(B B'/n + c I) + (K - K')/2``: symmetric part negative definite."""
    b = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    k = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    c = rng.uniform(0.2, 1.0)
    a = [[_num(-sum(b[i][m] * b[j][m] for m in range(n)) / n
               - (c if i == j else 0.0) + 0.5 * (k[i][j] - k[j][i]))
          for j in range(n)] for i in range(n)]
    return {"name": name, "kind": "linear", "dimension": n, "a": a,
            "comment": "generated: negative definite symmetric part"}


def cubic_chain(rng: random.Random, name: str, n: int, time_varying: bool,
                growing: bool) -> dict:
    """Skew-coupled chain with cubic damping (or anti-damping) per state.

    ``x_i' = s_i x_{i+1} - s_{i-1} x_{i-1} -/+ d_i(t) x_i^3`` with
    ``d_i(t) >= a_i - b_i > 0``.  Along ``V = sum x_i^2`` the coupling
    cancels, so ``Vdot = -/+ 2 sum d_i(t) x_i^4``: negative definite
    (quartic) for the damped chain, positive definite for the growing one.
    """
    s = [_num(rng.uniform(0.5, 2.0)) for _ in range(n - 1)]
    exprs = []
    for i in range(n):
        terms = []
        if i + 1 < n:
            terms.append(f"{_fmt(s[i])}*x{i + 2}")
        if i > 0:
            terms.append(f"-{_fmt(s[i - 1])}*x{i}")
        a = _num(rng.uniform(0.5, 2.0))
        d = _fmt(a)
        if time_varying:
            b = _num(a * rng.uniform(0.2, 0.6))
            d = f"({_fmt(a)} + {_fmt(b)}*sin({_fmt(rng.uniform(0.5, 2.0))}*t))"
        terms.append(f"{'+' if growing else '-'}{d}*x{i + 1}^3")
        exprs.append(" ".join(terms))
    return {"name": name, "kind": "nonlinear", "dimension": n,
            "expressions": exprs,
            "comment": "generated: skew-coupled chain, cubic "
                       + ("anti-damping" if growing else "damping")}


def _quadratic(n: int) -> str:
    return " + ".join(f"x{i + 1}^2" for i in range(n))


# --- workloads ------------------------------------------------------------------

# (dimension, period, step) per floquet slot; steps run from 1e-3 down to the
# CLI default of 1e-4
FLOQUET_SLOTS = ((2, 2.0, 1e-3), (3, 2.0, 1e-3), (4, 1.0, 1e-3),
                 (2, 1.0, 5e-4), (3, 1.0, 5e-4), (4, 0.5, 5e-4),
                 (2, 0.5, 2e-4), (3, 0.25, 1e-4))


def _propagate(rng: random.Random, pick, files: dict, ops: list) -> None:
    for i, (n, period, step) in enumerate(FLOQUET_SLOTS):
        name = f"periodic_{i:02d}"
        doc, expect = periodic_system(rng, name, n, period,
                                      unstable=rng.random() < 0.25)
        files[f"{name}.json"] = dumps(doc)
        ops.append(_cli(["floquet", "--system", f"{{work}}/{name}.json",
                         "--step", repr(step)], "floquet", expect=expect))
    files["p_decay.json"] = _sampled_p(lambda t: [[math.exp(-t), 0.0],
                                                  [0.0, math.exp(-t)]])
    files["p_gain.json"] = _sampled_p(lambda t: [[math.exp(-9.0 * t), 0.0],
                                                 [0.0, 1.0]])
    for name, spec in ALPHA_MENU.items():
        files[f"{name}.json"] = _gallery_bytes(name)
        for _ in range(spec["per_pass"]):
            ops += [_alpha_op(name, spec, a) for a in pick(spec["alphas"])]
    names = list(SIM_SYSTEMS)
    for name in names:
        files[f"{name}.json"] = _gallery_bytes(name)
    for t1, count in SIM_SLOTS:
        for j in range(count):
            name = names[j % len(names)]
            ops += [_simulate_op(name, x0, t1) for x0 in pick(SIM_SYSTEMS[name])]


def _sampled_p(fn, t1: float = 5.0, samples: int = 4001) -> bytes:
    times = [t1 * i / (samples - 1) for i in range(samples)]
    return dumps({"times": times, "values": [fn(t) for t in times]})


def _alpha_op(name: str, spec: dict, alpha: float) -> dict:
    argv = ["alpha", "--system", f"{{work}}/{name}.json", "--alpha",
            repr(alpha), "--route", spec["route"], "--horizon",
            repr(spec["horizon"])]
    if spec["p"]:
        argv += ["--p-file", f"{{work}}/p_{spec['p']}.json"]
    if spec["max_alpha"]:
        argv.append("--max-alpha")
    return _cli(argv, "alpha", ref=f"alpha:{name}:{alpha!r}")


def _simulate_op(name: str, x0: str, t1: float) -> dict:
    return _cli(["simulate", "--system", f"{{work}}/{name}.json", "--x0", x0,
                 "--t1", repr(t1), "--csv", "{work}/trajectory.csv"],
                "simulate", ref=f"simulate:{name}:{x0}:{t1!r}")


# (dimension, samples, time-varying) per generated candidate slot: dimension
# exposes the rejection cost of ball_points, samples the per-point loops
# Vdot of a damped chain is negative definite but quartic, so the truth is
# uniform asymptotic stability.  The baseline commit also reports
# exponentially-stable when no sample falls close enough to the origin to
# expose the quartic (n >= 3 here): a sampled over-claim, accepted as the
# seed's known behaviour so that a fix does not count as a failed op.
CHAIN_EXPECT = {"vdot_verdict": "negative-definite",
                "conclusions": ["uniformly-asymptotically-stable",
                                "exponentially-stable"]}
CHAIN_SLOTS = ((2, 65536, False), (2, 16384, True), (3, 16384, False),
               (3, 16384, True), (4, 8192, False), (4, 8192, True),
               (5, 4096, False), (5, 4096, True), (6, 4096, False),
               (6, 4096, True))
INSTABILITY_SLOTS = ((2, 16384, False), (3, 8192, True), (4, 4096, False),
                     (2, 4096, True), (3, 4096, False))
DISCRETE_SLOTS = (("cubic_map", 8192), ("cubic_map_neutral", 4096),
                  ("cubic_map", 2048), ("cubic_map_neutral", 2048))
ATTRACTION_SLOTS = (("vanderpol", 192, 2048), ("cross_coupled", 96, 2048),
                    ("vanderpol_integral", 96, 1024), ("vanderpol", 96, 1024),
                    ("cross_coupled", 192, 1024),
                    ("vanderpol_integral", 192, 2048))
# (form, x_points, time_samples): the first is the library default, 32,768
# principal_minors calls
SYLVESTER_SLOTS = (("amplitude_half", 256, 128), ("growing", 128, 64),
                   ("amplitude_one", 64, 64))


def _scan(rng: random.Random, pick, files: dict, ops: list) -> None:
    for i, (n, samples, tv) in enumerate(CHAIN_SLOTS):
        name = f"chain_{i:02d}"
        files[f"{name}.json"] = dumps(cubic_chain(rng, name, n, tv, False))
        ops.append(_cli(["lyapunov", "--system", f"{{work}}/{name}.json",
                         "--candidate", _quadratic(n), "--samples",
                         str(samples)], "candidate",
                        expect=CHAIN_EXPECT))
    for i, (n, samples, tv) in enumerate(INSTABILITY_SLOTS):
        name = f"growing_{i:02d}"
        files[f"{name}.json"] = dumps(cubic_chain(rng, name, n, tv, True))
        ops.append(_cli(["lyapunov", "--system", f"{{work}}/{name}.json",
                         "--instability", _quadratic(n), "--samples",
                         str(samples)], "instability",
                        expect={"unstable": True}))
    for name, flag, expr, radius, samples in SCAN_GALLERY:
        files[f"{name}.json"] = _gallery_bytes(name)
        ops.append(_cli(["lyapunov", "--system", f"{{work}}/{name}.json",
                         flag, expr, "--radius", repr(radius), "--samples",
                         str(samples)],
                        "candidate" if flag == "--candidate" else "instability",
                        ref=f"lyapunov:{name}:{samples}"))
    for name, samples in DISCRETE_SLOTS:
        files[f"{name}.json"] = _gallery_bytes(name)
        ops.append(_cli(["discrete", "--system", f"{{work}}/{name}.json",
                         "--candidate", DISCRETE_V, "--samples", str(samples)],
                        "discrete", ref=f"discrete:{name}:{samples}"))
    for name, levels, directions in ATTRACTION_SLOTS:
        files[f"{name}.json"] = _gallery_bytes(name)
        cmax = ATTRACTION_GALLERY[name]
        ops.append(_cli(["attraction", "--system", f"{{work}}/{name}.json",
                         "--cmax", repr(cmax), "--levels", str(levels),
                         "--directions", str(directions)], "attraction",
                        ref=f"attraction:{name}:{levels}:{directions}"))
    for form, x_points, time_samples in SYLVESTER_SLOTS:
        ops.append({"kind": "sylvester", "argv": [form, str(x_points),
                                                   str(time_samples)],
                    "check": "sylvester",
                    "ref": f"sylvester:{form}:{x_points}:{time_samples}",
                    "expect": {}, "host": "python"})


# generated stable linear systems, n = 2 .. 30; the dense Kronecker solve is
# O(n^6), so the largest sizes set ops_per_s
# and p90 on desk: six n = 24 solves put p90 inside one block of equal ops.
# No n = 40: its 1600 x 1600 operator (20 MB) spills the cache, and its time
# follows the host's memory bandwidth, which no short kernel tracks.
DESK_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 24, 24, 24, 24, 24, 30, 30)
# from this size on, the LAPACK SVD of the n^2 x n^2 operator is most of
# a --solve op, and the op's time follows the LAPACK kernel
LAPACK_BOUND_N = 24


def _desk(rng: random.Random, pick, files: dict, ops: list) -> None:
    for name in LINEAR_GALLERY:
        files[f"{name}.json"] = _gallery_bytes(name)
        ops.append(_cli(["classify", "--system", f"{{work}}/{name}.json"],
                        "classify", ref=f"classify:{name}"))
    for name in SOLVABLE_GALLERY:
        ops.append(_cli(["lyapunov", "--system", f"{{work}}/{name}.json",
                         "--solve"], "solve", ref=f"solve:{name}"))
    for name, seed_sets in LINEARIZE_SEEDS.items():
        files[f"{name}.json"] = _gallery_bytes(name)
        ops += [_cli(["linearize", "--system", f"{{work}}/{name}.json",
                      "--seeds", seeds], "linearize",
                     ref=f"linearize:{name}:{seeds}")
                for seeds in pick(seed_sets)]
    for name, cmax in ATTRACTION_GALLERY.items():
        files[f"{name}.json"] = _gallery_bytes(name)
        ops.append(_cli(["attraction", "--system", f"{{work}}/{name}.json",
                         "--cmax", repr(cmax)], "attraction",
                        ref=f"attraction:{name}:48:512"))
    for name, starts in ITERATE_GALLERY.items():
        files[f"{name}.json"] = _gallery_bytes(name)
        ops += [_cli(["discrete", "--system", f"{{work}}/{name}.json",
                      "--iterate", "50", "--x0", x0], "iterate",
                     ref=f"iterate:{name}:{x0}") for x0 in pick(starts)]
    for i, n in enumerate(DESK_SIZES):
        name = f"linear_{i:02d}"
        files[f"{name}.json"] = dumps(stable_linear(rng, name, n))
        ops.append(_cli(["classify", "--system", f"{{work}}/{name}.json"],
                        "classify", expect={"kind": "asymptotically-stable"}))
        ops.append(_cli(["lyapunov", "--system", f"{{work}}/{name}.json",
                         "--solve"], "solve",
                        expect={"p_definiteness": "positive-definite"},
                        host="lapack" if n >= LAPACK_BOUND_N else "python"))


_BUILDERS = {"propagate": _propagate, "scan": _scan, "desk": _desk}


def generate(workload: str, seed: int) -> tuple[dict[str, bytes], list[dict]]:
    """Files and the op list of one pass of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, bytes] = {}
    ops: list[dict] = []
    _BUILDERS[workload](rng, lambda options: [rng.choice(options)], files, ops)
    rng.shuffle(ops)
    return files, ops


def menu() -> tuple[dict[str, bytes], list[dict]]:
    """Every gallery op any seed may draw, and the files they read.

    The ops' ``ref`` keys are the keys of ``reference.json``.
    """
    files: dict[str, bytes] = {}
    ops: dict[str, dict] = {}
    for build in _BUILDERS.values():
        built: list[dict] = []
        build(random.Random(0), list, files, built)
        for op in built:
            if op["ref"] is not None:
                ops.setdefault(op["ref"], op)
    return files, list(ops.values())
