"""Command-line front end.

Eight subcommands map onto the library: ``classify``, ``linearize``,
``lyapunov``, ``attraction``, ``alpha``, ``floquet``, ``discrete``, and
``simulate``.  Systems come from JSON definition files (see
``stabkit/schemas/system.schema.json``); reports are JSON on stdout or
``--out``; trajectories and orbits export as CSV.

Exit codes: 0 success; 2 an input error (:class:`SchemaError` for a file or
flag that does not fit the system, :class:`InvalidArgumentError` for a value
out of range, an expression that does not parse, or a named file that cannot
be read or written); 3 an analysis error (every other
:class:`StabkitError`, e.g. a domain error during evaluation or a scan
beyond the sample cap).

Output is deterministic for identical inputs: all sampling rides a fixed
Halton sequence.

The argument parser is built once per process, on the first :func:`run`,
and reused by every later call; each parse gets a fresh namespace.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from . import __version__, alpha as alpha_mod, autonomous, discrete as discrete_mod
from . import floquet as floquet_mod, linalg, lyapunov as lyap_mod
from .errors import (ArityMismatchError, DimensionMismatchError,
                     InvalidArgumentError, NonFiniteStateError, ParseError,
                     SchemaError, StabkitError, UnknownIdentifierError)
from .odeint import HistoryFn, dde_step, integrate, integrate_dde
from .schema import KINDS, build_report, load_system

SCHEMA_POINTER = "see stabkit/schemas/system.schema.json for the file format"

#: errors that exit 2; every other StabkitError exits 3
_INPUT_ERRORS = (SchemaError, InvalidArgumentError, ParseError,
                 UnknownIdentifierError, ArityMismatchError)
_CONTINUOUS = ("nonlinear", "linear")
#: the largest number a vector or matrix flag takes: the analyses form norms,
#: sums and products of a few of them, which must stay in float range
FLAG_LIMIT = 1e150


def _numbers(flag: str, text: str, n: int, rows: int | None = 1) -> np.ndarray:
    """The numbers of a vector or matrix flag, checked against dimension n.

    Rows are separated by ';' and hold n comma-separated numbers each:
    ``rows=1`` gives a vector (1-D), ``rows=n`` an n x n matrix, and
    ``rows=None`` one or more points (one per row).
    """
    try:
        values = [[float(v) for v in row.split(",") if v.strip()]
                  for row in text.split(";") if row.strip()]
    except ValueError:  # a word that is not a number
        values = []
    if not values or (rows and len(values) != rows) or \
            any(len(row) != n for row in values):
        shape = "" if rows == 1 else \
            f"{rows or 'one or more'} ';'-separated rows of "
        raise SchemaError(
            f"--{flag} needs {shape}{n} comma-separated numbers, got {text!r}")
    if not all(abs(v) <= FLAG_LIMIT for row in values for v in row):
        raise InvalidArgumentError(f"--{flag} needs finite numbers of size at "
                                   f"most {FLAG_LIMIT:g}, got {text!r}")
    return np.array(values[0] if rows == 1 else values)


@contextlib.contextmanager
def _named_file(flag: str, path: str):
    """Report an ``OSError`` on the file ``--flag`` names as an input error."""
    try:
        yield
    except OSError as exc:
        raise SchemaError(f"--{flag} {path}: {exc.strerror or exc}") from None


def _emit(report: dict, out: str | None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with _named_file("out", out), open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _orbit(system, args, steps: int) -> dict:
    """Iterate a discrete system from ``--x0``; export ``--csv`` if given."""
    orbit = discrete_mod.iterate(
        system, _numbers("x0", args.x0, system.dimension), steps)
    if args.csv:
        with _named_file("csv", args.csv):
            orbit.to_csv(args.csv)
    return {"steps": int(orbit.indices[-1]), "escaped": orbit.escaped,
            "final_state": orbit.states[-1], "csv": args.csv}


def _load_p_file(path: str, n: int):
    """``--p-file``: ``{"matrix": n x n}``, or ``{"times": [...], "values":
    [...]}`` with n x n values (the grid rules are
    :class:`alpha.SampledMatrixFunction`'s); every number finite."""
    with _named_file("p-file", path), open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"--p-file is not JSON: {exc}") from None
    doc = doc if isinstance(doc, dict) else {}
    try:  # numpy refuses ragged, non-numeric and oversized entries
        if "matrix" in doc:
            p = np.array(doc["matrix"], dtype=float)
            if p.shape == (n, n) and np.isfinite(p).all():
                return p
        elif "times" in doc and "values" in doc:
            times = np.array(doc["times"], dtype=float)
            values = np.array(doc["values"], dtype=float)
            if values.shape[-2:] == (n, n) and \
                    np.isfinite(times).all() and np.isfinite(values).all():
                return alpha_mod.SampledMatrixFunction(times, values)
    except (TypeError, ValueError, OverflowError):
        pass
    except DimensionMismatchError as exc:
        raise SchemaError(f"--p-file: {exc}") from None
    raise SchemaError(f"--p-file needs 'matrix' ({n}x{n}), or 'times' and "
                      f"'values' ({n}x{n} each), all finite numbers")


# --- subcommand handlers: each returns (result, tolerances) ----------------------

def _classify(args, system):
    a = system.rhs.a
    verdict = autonomous.classify_linear(a, args.tol)
    result = {
        "kind": verdict.kind,
        "eigenvalues": list(verdict.eigenvalues),
        "sign_classes": list(verdict.sign_classes),
        "bibo": verdict.bibo,
    }
    if system.dimension == 2:
        try:
            result["critical_point"] = autonomous.classify_critical_point_2d(
                a, args.tol)
        except StabkitError as exc:
            result["critical_point"] = None
            result["critical_point_note"] = str(exc)
    return result, {"eigen_tol": args.tol, "tol_band": verdict.tol_band}


def _linearize(args, system):
    dropped = 0
    if args.point:
        points = list(_numbers("point", args.point, system.dimension, None))
    else:
        if not args.seeds:
            raise SchemaError("provide --seeds 'x1,x2;...' or --point")
        seeds = list(_numbers("seeds", args.seeds, system.dimension, None))
        found = autonomous.find_equilibria(system, seeds, tol=args.tol)
        dropped = len(seeds) - len(found)
        points = [eq.point for eq in found]
    reports = []
    for pt in points:
        rep = autonomous.local_stability(system, pt, tol=max(args.tol, 1e-8))
        reports.append({
            "point": rep.point,
            "jacobian": rep.jacobian,
            "eigenvalues": list(rep.linear_verdict.eigenvalues),
            "linear_kind": rep.linear_verdict.kind,
            "conclusion": rep.conclusion,
            "critical_point": rep.critical_point,
            "local": rep.local,
            "note": rep.note,
        })
    return ({"equilibria": reports, "seeds_dropped": dropped},
            {"newton_tol": args.tol})


def _lyapunov_kinds(args) -> tuple[str, ...]:
    """The kinds ``lyapunov`` takes, which depend on its one mode flag."""
    modes = (args.solve, args.candidate, args.instability)
    if sum(bool(v) for v in modes) != 1:
        raise SchemaError("choose exactly one of --solve / --candidate / "
                          "--instability")
    return ("linear",) if args.solve else _CONTINUOUS


def _lyapunov(args, system):
    if args.solve:
        a = system.rhs.a
        q = np.eye(system.dimension) if args.q is None else \
            _numbers("q", args.q, system.dimension, system.dimension)
        p = lyap_mod.solve_lyapunov(a, q)
        residual = linalg.spectral_norm(a.T @ p + p @ a + q)
        verdict = linalg.definiteness(p)
        return {
            "p": p,
            "residual": residual,
            "p_definiteness": verdict.kind,
            "asymptotically_stable": verdict.is_positive_definite,
            "q": q,
        }, {"residual_tol": 1e-9}
    scan = lyap_mod.ScanConfig(points=args.samples, t0=args.t0,
                               time_span=args.tspan)
    check = lyap_mod.check_candidate if args.candidate \
        else lyap_mod.check_instability
    v = lyap_mod.CandidateV(args.candidate or args.instability,
                            params=dict(system.params))
    return check(system, v, radius=args.radius, scan=scan), {
        "scan_samples": args.samples, "radius": args.radius,
        "t0": args.t0, "time_span": args.tspan}


def _attraction(args, system):
    p = np.eye(system.dimension) if args.p is None else \
        _numbers("p", args.p, system.dimension, system.dimension)
    c_star = lyap_mod.attraction_region(system, p, args.cmax,
                                        levels=args.levels,
                                        directions=args.directions)
    return ({"c_star": c_star, "p": p, "cmax": args.cmax,
             "region": "x' P x <= c_star"},
            {"levels": args.levels, "directions": args.directions})


def _alpha(args, system):
    route = alpha_mod.CertificateRoute(args.route)
    p = None if args.p_file is None else \
        _load_p_file(args.p_file, system.dimension)
    cert = alpha_mod.certify(system, args.alpha, route, p=p,
                             horizon=args.horizon,
                             residual_tol=args.residual_tol)
    result = {"certificate": cert, "valid": cert.valid}
    if args.max_alpha and cert.inputs is not None:
        result["max_alpha"] = alpha_mod.max_alpha(
            cert.inputs.eta, cert.inputs.p_norm, cert.inputs.a_norm_sq,
            cert.inputs.m, cert.inputs.h)
    return result, {"residual_tol": args.residual_tol, "horizon": args.horizon}


def _floquet(args, system):
    if args.period is not None:
        system = dataclasses.replace(system, period=args.period)
    report = floquet_mod.floquet_report(system, h=args.step, tol=args.tol)
    return {
        "monodromy": report.monodromy,
        "multipliers": list(report.multipliers),
        "liouville_lhs": report.liouville_lhs,
        "liouville_rhs": report.liouville_rhs,
        "relative_gap": report.relative_gap,
        "verdict": report.verdict,
    }, {"step": args.step, "modulus_tol": args.tol}


def _discrete(args, system):
    if args.iterate is not None:
        if args.x0 is None:
            raise SchemaError("--iterate needs --x0")
        return _orbit(system, args, args.iterate), {}
    if not args.candidate:
        raise SchemaError("provide --candidate EXPR or --iterate K --x0 ...")
    v = lyap_mod.CandidateV(args.candidate, params=dict(system.params))
    report = discrete_mod.classify_discrete(system, v, radius=args.radius,
                                            samples=args.samples)
    return report, {"radius": args.radius, "samples": args.samples}


def _simulate(args, system):
    if isinstance(system, discrete_mod.DiscreteSystem):
        if args.steps is None:
            raise SchemaError("discrete systems simulate with --steps K")
        return _orbit(system, args, args.steps), {"steps": args.steps}
    result: dict = {"csv": args.csv}
    x0 = _numbers("x0", args.x0, system.dimension)
    step = 1e-3 if args.step is None else args.step  # the integrators refuse 0
    try:
        if system.delays:
            history = HistoryFn.constant(
                x0 if args.history is None else
                _numbers("history", args.history, system.dimension),
                system.max_lag)
            traj = integrate_dde(system, history, args.t1, dde_step(
                [d.lag for d in system.delays]) if args.step is None else step)
        else:
            traj = integrate(system, x0, args.t0, args.t1, step)
        if args.csv:
            with _named_file("csv", args.csv):
                traj.to_csv(args.csv)
        result.update({
            "escaped": False,
            "t_end": float(traj.times[-1]),
            "final_state": traj.states[-1],
            "final_norm": float(np.linalg.norm(traj.states[-1])),
            "samples": int(len(traj.times)),
        })
    except NonFiniteStateError as exc:
        result.update({"escaped": True, "escape_time": exc.t,
                       "note": "state escaped the finite range "
                               "(finite-time escape or divergence)"})
    return result, {"step": step}


# --- parser -------------------------------------------------------------------------

@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; callers must not
    change it."""
    parser = argparse.ArgumentParser(
        prog="stabkit",
        description="Stability analysis of dynamical systems.",
        epilog=SCHEMA_POINTER,
    )
    parser.add_argument("--version", action="version",
                        version=f"stabkit {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, epilog=SCHEMA_POINTER)
        p.add_argument("--system", required=True, help="system JSON file")
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        return p

    p = add("classify", "eigenvalue classification of a linear system")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative tolerance band for Re(lambda) = 0 (default 1e-9)")

    p = add("linearize", "equilibria and local linearized stability")
    p.add_argument("--seeds", help="Newton seeds: 'x1,x2;x1,x2;...'")
    p.add_argument("--point", help="skip the search, analyze these points")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="Newton residual tolerance (default 1e-10)")

    p = add("lyapunov", "direct method: matrix equation or candidate check")
    p.add_argument("--solve", action="store_true",
                   help="solve A'P + PA = -Q for a linear system")
    p.add_argument("--q", help="right-hand side Q as 'a,b;c,d' (default identity)")
    p.add_argument("--candidate", help="candidate V expression")
    p.add_argument("--instability", help="instability witness W expression")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--tspan", type=float, default=50.0)

    p = add("attraction", "sublevel-set attraction region for V = x'Px")
    p.add_argument("--p", help="P as 'a,b;c,d' (default identity)")
    p.add_argument("--cmax", type=float, required=True,
                   help="largest level to certify")
    p.add_argument("--levels", type=int, default=48)
    p.add_argument("--directions", type=int, default=512)

    p = add("alpha", "alpha-stability certificate for a delay system")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--route", default="rate-inequality",
                   choices=[r.value for r in alpha_mod.CertificateRoute])
    p.add_argument("--p-file", help="JSON with 'matrix' or 'times'+'values'")
    p.add_argument("--horizon", type=float, default=20.0,
                   help="trajectory cross-check horizon (0 disables)")
    p.add_argument("--residual-tol", type=float, default=1e-6)
    p.add_argument("--max-alpha", action="store_true",
                   help="also report the largest feasible rate")

    p = add("floquet", "monodromy analysis of a periodic system")
    p.add_argument("--period", type=float, help="override the file's period")
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="multiplier modulus tolerance at the unit circle")

    p = add("discrete", "discrete direct method / orbit iteration")
    p.add_argument("--candidate", help="candidate V expression")
    p.add_argument("--radius", type=float, default=0.3)
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--iterate", type=int, help="iterate K steps instead")
    p.add_argument("--x0", help="initial state 'a,b'")
    p.add_argument("--csv", help="write the orbit as CSV")

    p = add("simulate", "integrate and export a trajectory")
    p.add_argument("--x0", required=True, help="initial state 'a,b'")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=10.0)
    p.add_argument("--step", type=float, help="fixed step (default 1e-3)")
    p.add_argument("--steps", type=int, help="iteration count (discrete systems)")
    p.add_argument("--history", help="constant DDE history (default: x0)")
    p.add_argument("--csv", help="write the trajectory as CSV")

    return parser


#: subcommand -> (system kinds it takes, or a function of the arguments
#: returning them; handler returning (result, tolerances))
_COMMANDS = {
    "classify": (("linear",), _classify),
    "linearize": (_CONTINUOUS, _linearize),
    "lyapunov": (_lyapunov_kinds, _lyapunov),
    "attraction": (_CONTINUOUS, _attraction),
    "alpha": (("delay",), _alpha),
    "floquet": (("periodic",), _floquet),
    "discrete": (("discrete",), _discrete),
    "simulate": (KINDS, _simulate),
}


def run(argv: list[str]) -> int:
    """Entry point used by tests: parse, load, analyse, write the report."""
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    kinds, handler = _COMMANDS[args.cmd]
    try:
        started = time.perf_counter()
        sf = load_system(args.system)
        system = sf.build()
        kinds = kinds(args) if callable(kinds) else kinds
        if sf.kind not in kinds:
            raise SchemaError(f"subcommand needs a {' or '.join(kinds)} "
                              f"system, got {sf.kind!r}")
        result, tolerances = handler(args, system)
        _emit(build_report(args.cmd, argv, sf.meta(), result, tolerances,
                           started), args.out)
    except _INPUT_ERRORS as exc:
        print(f"stabkit: input error: {exc}\n{SCHEMA_POINTER}", file=sys.stderr)
        return 2
    except StabkitError as exc:
        print(f"stabkit: analysis error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
