"""Command-line front end.

Eight subcommands map onto the library: ``classify``, ``linearize``,
``lyapunov``, ``attraction``, ``alpha``, ``floquet``, ``discrete``, and
``simulate``.  Systems come from JSON definition files (see
``stabkit/schemas/system.schema.json``); reports are JSON on stdout or
``--out``; trajectories and orbits export as CSV.  Exit codes: 0 success,
2 input/schema errors, 3 analysis errors.

Output is deterministic for identical inputs: all sampling rides a fixed
Halton sequence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__, alpha as alpha_mod, autonomous, discrete as discrete_mod
from . import floquet as floquet_mod, linalg, lyapunov as lyap_mod
from .errors import (ArityMismatchError, NonFiniteStateError, ParseError,
                     SchemaError, StabkitError, UnknownIdentifierError)
from .odeint import HistoryFn, dde_step, integrate, integrate_dde
from .schema import build_report, load_system

SCHEMA_POINTER = "see stabkit/schemas/system.schema.json for the file format"


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise SchemaError(f"cannot parse vector {text!r} (comma-separated numbers)")


def _parse_points(text: str) -> list[np.ndarray]:
    return [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]
    return np.vstack(rows)


def _emit(report: dict, out: str | None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _load(path: str):
    sf = load_system(path)
    return sf, sf.build()


def _orbit(sys_obj, args, steps: int) -> dict:
    """Iterate a discrete system from ``--x0``; export ``--csv`` if given."""
    orbit = discrete_mod.iterate(sys_obj, _parse_vector(args.x0), steps)
    if args.csv:
        orbit.to_csv(args.csv)
    return {"steps": int(orbit.indices[-1]), "escaped": orbit.escaped,
            "final_state": orbit.states[-1], "csv": args.csv}


def _require_kind(sf, *kinds: str):
    if sf.kind not in kinds:
        raise SchemaError(
            f"subcommand needs a {' or '.join(kinds)} system, got {sf.kind!r}")


# --- subcommand handlers ------------------------------------------------------------

def _cmd_classify(args, argv) -> dict:
    started = time.perf_counter()
    sf, sys_obj = _load(args.system)
    _require_kind(sf, "linear")
    a = sys_obj.rhs.a
    verdict = autonomous.classify_linear(a, args.tol)
    result = {
        "kind": verdict.kind,
        "eigenvalues": list(verdict.eigenvalues),
        "sign_classes": list(verdict.sign_classes),
        "bibo": verdict.bibo,
    }
    if sf.dimension == 2:
        try:
            result["critical_point"] = autonomous.classify_critical_point_2d(
                a, args.tol)
        except StabkitError as exc:
            result["critical_point"] = None
            result["critical_point_note"] = str(exc)
    return build_report("classify", argv, sf.meta(), result,
                        {"eigen_tol": args.tol, "tol_band": verdict.tol_band},
                        started)


def _cmd_linearize(args, argv) -> dict:
    started = time.perf_counter()
    sf, sys_obj = _load(args.system)
    _require_kind(sf, "nonlinear", "linear")
    points: list[np.ndarray] = []
    dropped = 0
    if args.point:
        points = _parse_points(args.point)
    else:
        if not args.seeds:
            raise SchemaError("provide --seeds 'x1,x2;...' or --point")
        seeds = _parse_points(args.seeds)
        found = autonomous.find_equilibria(sys_obj, seeds, tol=args.tol)
        dropped = len(seeds) - len(found)
        points = [eq.point for eq in found]
    reports = []
    for pt in points:
        rep = autonomous.local_stability(sys_obj, pt, tol=max(args.tol, 1e-8))
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
    result = {"equilibria": reports, "seeds_dropped": dropped}
    return build_report("linearize", argv, sf.meta(), result,
                        {"newton_tol": args.tol}, started)


def _cmd_lyapunov(args, argv) -> dict:
    started = time.perf_counter()
    sf, sys_obj = _load(args.system)
    modes = sum(bool(v) for v in (args.solve, args.candidate, args.instability))
    if modes != 1:
        raise SchemaError("choose exactly one of --solve / --candidate / "
                          "--instability")
    tolerances = {"scan_samples": args.samples, "radius": args.radius,
                  "t0": args.t0, "time_span": args.tspan}
    if args.solve:
        _require_kind(sf, "linear")
        a = sys_obj.rhs.a
        q = np.eye(sf.dimension) if args.q is None else _parse_matrix(args.q)
        p = lyap_mod.solve_lyapunov(a, q)
        residual = linalg.spectral_norm(a.T @ p + p @ a + q)
        verdict = linalg.definiteness(p)
        result = {
            "p": p,
            "residual": residual,
            "p_definiteness": verdict.kind,
            "asymptotically_stable": verdict.is_positive_definite,
            "q": q,
        }
        return build_report("lyapunov", argv, sf.meta(), result,
                            {"residual_tol": 1e-9}, started)
    _require_kind(sf, "nonlinear", "linear")
    scan = lyap_mod.ScanConfig(points=args.samples, t0=args.t0,
                               time_span=args.tspan)
    if args.candidate:
        v = lyap_mod.CandidateV(args.candidate, params=dict(sys_obj.params))
        report = lyap_mod.check_candidate(sys_obj, v, radius=args.radius,
                                          scan=scan)
        return build_report("lyapunov", argv, sf.meta(), report,
                            tolerances, started)
    w = lyap_mod.CandidateV(args.instability, params=dict(sys_obj.params))
    report = lyap_mod.check_instability(sys_obj, w, radius=args.radius,
                                        scan=scan)
    return build_report("lyapunov", argv, sf.meta(), report, tolerances, started)


def _cmd_attraction(args, argv) -> dict:
    started = time.perf_counter()
    sf, sys_obj = _load(args.system)
    _require_kind(sf, "nonlinear", "linear")
    p = np.eye(sf.dimension) if args.p is None else _parse_matrix(args.p)
    c_star = lyap_mod.attraction_region(sys_obj, p, args.cmax,
                                        levels=args.levels,
                                        directions=args.directions)
    result = {"c_star": c_star, "p": p, "cmax": args.cmax,
              "region": "x' P x <= c_star"}
    return build_report("attraction", argv, sf.meta(), result,
                        {"levels": args.levels, "directions": args.directions},
                        started)


def _load_p_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "matrix" in doc:
        return np.asarray(doc["matrix"], dtype=float)
    if "times" in doc and "values" in doc:
        return alpha_mod.SampledMatrixFunction(
            np.asarray(doc["times"], dtype=float),
            np.asarray(doc["values"], dtype=float))
    raise SchemaError("P file needs 'matrix' or 'times'+'values'")


def _cmd_alpha(args, argv) -> dict:
    started = time.perf_counter()
    sf, sys_obj = _load(args.system)
    _require_kind(sf, "delay")
    route = alpha_mod.CertificateRoute(args.route)
    p = None if args.p_file is None else _load_p_file(args.p_file)
    cert = alpha_mod.certify(sys_obj, args.alpha, route, p=p,
                             horizon=args.horizon,
                             residual_tol=args.residual_tol)
    result = {"certificate": cert, "valid": cert.valid}
    if args.max_alpha and cert.inputs is not None:
        result["max_alpha"] = alpha_mod.max_alpha(
            cert.inputs.eta, cert.inputs.p_norm, cert.inputs.a_norm_sq,
            cert.inputs.m, cert.inputs.h)
    return build_report("alpha", argv, sf.meta(), result,
                        {"residual_tol": args.residual_tol,
                         "horizon": args.horizon}, started)


def _cmd_floquet(args, argv) -> dict:
    started = time.perf_counter()
    sf, sys_obj = _load(args.system)
    _require_kind(sf, "periodic")
    if args.period is not None:
        sys_obj = dataclasses.replace(sys_obj, period=args.period)
    report = floquet_mod.floquet_report(sys_obj, h=args.step, tol=args.tol)
    result = {
        "monodromy": report.monodromy,
        "multipliers": list(report.multipliers),
        "liouville_lhs": report.liouville_lhs,
        "liouville_rhs": report.liouville_rhs,
        "relative_gap": report.relative_gap,
        "verdict": report.verdict,
    }
    return build_report("floquet", argv, sf.meta(), result,
                        {"step": args.step, "modulus_tol": args.tol}, started)


def _cmd_discrete(args, argv) -> dict:
    started = time.perf_counter()
    sf, sys_obj = _load(args.system)
    _require_kind(sf, "discrete")
    if args.iterate is not None:
        if args.x0 is None:
            raise SchemaError("--iterate needs --x0")
        return build_report("discrete", argv, sf.meta(),
                            _orbit(sys_obj, args, args.iterate), {}, started)
    if not args.candidate:
        raise SchemaError("provide --candidate EXPR or --iterate K --x0 ...")
    v = lyap_mod.CandidateV(args.candidate, params=dict(sys_obj.params))
    report = discrete_mod.classify_discrete(sys_obj, v, radius=args.radius,
                                            samples=args.samples)
    return build_report("discrete", argv, sf.meta(), report,
                        {"radius": args.radius, "samples": args.samples},
                        started)


def _cmd_simulate(args, argv) -> dict:
    started = time.perf_counter()
    sf, sys_obj = _load(args.system)
    result: dict = {"csv": args.csv}
    if sf.kind == "discrete":
        if args.steps is None:
            raise SchemaError("discrete systems simulate with --steps K")
        return build_report("simulate", argv, sf.meta(),
                            _orbit(sys_obj, args, args.steps),
                            {"steps": args.steps}, started)
    x0 = _parse_vector(args.x0)
    step = 1e-3 if args.step is None else args.step  # the integrators refuse 0
    try:
        if sf.kind == "delay":
            history = HistoryFn.constant(
                x0 if args.history is None else _parse_vector(args.history),
                sys_obj.max_lag)
            traj = integrate_dde(sys_obj, history, args.t1, dde_step(
                [d.lag for d in sys_obj.delays]) if args.step is None else step)
        else:
            _require_kind(sf, "linear", "nonlinear", "periodic")
            traj = integrate(sys_obj, x0, args.t0, args.t1, step)
        if args.csv:
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
    return build_report("simulate", argv, sf.meta(), result, {"step": step},
                        started)


# --- parser -------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
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


_HANDLERS = {
    "classify": _cmd_classify,
    "linearize": _cmd_linearize,
    "lyapunov": _cmd_lyapunov,
    "attraction": _cmd_attraction,
    "alpha": _cmd_alpha,
    "floquet": _cmd_floquet,
    "discrete": _cmd_discrete,
    "simulate": _cmd_simulate,
}


def run(argv: list[str]) -> int:
    """Entry point used by tests: parse, dispatch, write the report."""
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = _HANDLERS[args.cmd](args, argv)
    except (SchemaError, ValueError, FileNotFoundError, json.JSONDecodeError,
            ParseError, UnknownIdentifierError, ArityMismatchError) as exc:
        print(f"stabkit: input error: {exc}\n{SCHEMA_POINTER}", file=sys.stderr)
        return 2
    except StabkitError as exc:
        print(f"stabkit: analysis error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    _emit(report, args.out)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
