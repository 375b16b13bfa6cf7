"""Builders for the golden regression payloads.

Each entry produces a JSON-serializable analysis payload for one worked
example; ``make_goldens.py`` freezes them to ``tests/goldens/`` and
``test_goldens.py`` re-generates and compares within floating tolerance.
Horizons and grids here are trimmed for speed: goldens pin regressions,
the acceptance suite owns the tight tolerances.
"""

from __future__ import annotations

import json
import math

import numpy as np

from stabkit import alpha as al
from stabkit import autonomous as aut
from stabkit import discrete as dc
from stabkit import floquet as fl
from stabkit import lyapunov as ly
from stabkit import odeint
from stabkit.lyapunov import CandidateV, ScanConfig
from stabkit.schema import load_system, to_jsonable
from conftest import gallery_doc, gallery_system

FAST_SCAN = ScanConfig(points=1024)

# (gallery system or None for the frozen probe system, V, params, radius):
# every candidate the goldens check
GOLDEN_CANDIDATES = [
    ("cubic_damping", "x1^2 + x2^2", {}, 1.0),
    ("bilinear_decay", "0.5*x1^2 + x2^2", {}, 0.5),
    ("cross_coupled", "x1^2 + x2^2", {}, 0.5),
    ("spring_mass", "0.5*k*x1^2 + 0.5*x2^2", {"k": 2.0}, 1.0),
    ("damped_spring", "7*x1^2 + 2*x1*x2 + 3*x2^2", {}, 1.0),
    ("vanderpol", "x1^2 + x2^2", {}, 0.9),
    ("vanderpol_integral", "x1^2 + x2^2", {}, 0.9),
    ("cubic_modulated", "x1^2/2", {}, 1.0),
    ("exponential_feedback", "x1^2 + (1 + exp(-2*t))*x2^2", {}, 1.0),
    (None, "(x1^2 + x2^2)*exp(-0.2*t)", {}, 1.0),
    (None, "(x1^2 + x2^2)*(t^2 + 1)/(x1^2 + 2)", {}, 1.0),
    (None, "(x1^2 + x2^2)*(t^2 + 1)", {}, 1.0),
    (None, "(x1^2 + x2^2)/(x1^2 + 1)", {}, 1.0),
]


def candidate_system(name):
    """The system of a golden candidate: its gallery system, or for None the
    frozen probe system x' = 0."""
    if name is None:
        return odeint.SystemDef(2, odeint.Nonlinear(("0", "0")))
    return gallery_system(name)


def scan_candidates(generate, seed: int):
    """``(where, what, system, V, t0)`` for every ``lyapunov`` op of the
    perfbench ``scan`` pass of ``seed`` (``generate`` is
    ``perfbench/generate.py``), V a candidate or an instability witness:
    ``where`` is the seed and op index, ``what`` the file and V."""
    files, ops = generate.generate("scan", seed)
    for index, op in enumerate(ops):
        argv = op["argv"]
        if argv[0] != "lyapunov":
            continue
        name = argv[argv.index("--system") + 1].replace("{work}/", "")
        sysd = load_system(json.loads(files[name])).build()
        flag = "--candidate" if "--candidate" in argv else "--instability"
        expression = argv[argv.index(flag) + 1]
        t0 = float(argv[argv.index("--t0") + 1]) if "--t0" in argv else 0.0
        yield (f"{seed} {index}", f"{name} {expression}", sysd,
               CandidateV(expression, params=dict(sysd.params)), t0)


def _classify(name: str) -> dict:
    sysd = gallery_system(name)
    verdict = aut.classify_linear(sysd.rhs.a)
    payload = {
        "kind": verdict.kind,
        "eigenvalues": list(verdict.eigenvalues),
        "sign_classes": list(verdict.sign_classes),
        "bibo": verdict.bibo,
        "critical_point": None,
    }
    try:
        payload["critical_point"] = aut.classify_critical_point_2d(sysd.rhs.a)
    except Exception:
        pass
    return _wrap("classify", name, payload)


def _wrap(analysis: str, name: str, payload) -> dict:
    return {
        "analysis": analysis,
        "system": gallery_doc(name).meta() if name else None,
        "result": to_jsonable(payload),
    }


def _linearize(name: str, seeds) -> dict:
    sysd = gallery_system(name)
    eqs = aut.find_equilibria(sysd, seeds, tol=1e-10)
    payload = []
    for eq in eqs:
        rep = aut.local_stability(sysd, eq.point)
        payload.append({
            "point": rep.point,
            "eigenvalues": list(rep.linear_verdict.eigenvalues),
            "conclusion": rep.conclusion,
            "critical_point": rep.critical_point,
        })
    return _wrap("linearize", name, {"equilibria": payload})


def _candidate(name: str, expression: str, params=None, radius=1.0) -> dict:
    sysd = gallery_system(name)
    v = CandidateV(expression, params=dict(params or {}))
    rep = ly.check_candidate(sysd, v, radius=radius, scan=FAST_SCAN)
    return _wrap("lyapunov", name, rep)


def _candidate_probe(expression: str, tag: str) -> dict:
    rep = ly.check_candidate(candidate_system(None), CandidateV(expression),
                             scan=FAST_SCAN)
    out = _wrap("lyapunov", None, rep)
    out["system"] = {"name": tag, "kind": "probe", "dimension": 2}
    return out


def _solve(name: str) -> dict:
    sysd = gallery_system(name)
    p = ly.solve_lyapunov(sysd.rhs.a, np.eye(sysd.dimension))
    from stabkit import linalg
    return _wrap("lyapunov", name, {
        "p": p, "p_definiteness": linalg.definiteness(p).kind})


def _attraction(name: str, cmax: float) -> dict:
    c = ly.attraction_region(gallery_system(name), np.eye(2), cmax,
                             directions=256)
    return _wrap("attraction", name, {"c_star": c, "cmax": cmax})


def _alpha(name: str, rate: float, route: str, p=None) -> dict:
    cert = al.certify(gallery_system(name), rate,
                      al.CertificateRoute(route), p=p, horizon=0.0,
                      rde_grid=(0.0, 5.0, 20001))
    return _wrap("alpha", name, {"certificate": cert, "valid": cert.valid})


def _sylvester(entries, params, t0: float, tag: str) -> dict:
    form = ly.QuadraticFormTV(entries, params=dict(params or {}))
    rep = ly.sylvester_tv(form, t0=t0, x_points=64, time_samples=64)
    out = _wrap("lyapunov", None, rep)
    out["system"] = {"name": tag, "kind": "quadratic-form", "dimension": 2}
    return out


def _floquet(name: str) -> dict:
    rep = fl.floquet_report(gallery_system(name), h=1e-3)
    return _wrap("floquet", name, {
        "multipliers": list(rep.multipliers),
        "liouville_lhs": rep.liouville_lhs,
        "liouville_rhs": rep.liouville_rhs,
        "relative_gap": rep.relative_gap,
        "verdict": rep.verdict,
    })


def _discrete(name: str) -> dict:
    rep = dc.classify_discrete(gallery_system(name),
                               CandidateV("0.5*x1^2 + 2*x1*x2 + 4*x2^2"),
                               samples=1024)
    return _wrap("discrete", name, rep)


def _envelope(name: str, t1: float) -> dict:
    traj = odeint.integrate(gallery_system(name), [1.0], 0.0, t1, 1e-3)
    env = al.fit_envelope(traj)
    return _wrap("alpha", name, {"envelope": env})


_MODULATED_FORM = (
    ("1 - a*cos((x1^2 + x2^2)*t)", "a*sin((x1^2 + x2^2)*t)"),
    ("a*sin((x1^2 + x2^2)*t)", "1 + a*cos((x1^2 + x2^2)*t)"),
)


def generate_all() -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name in ("coupled_decay", "uniform_growth", "saddle",
                 "harmonic_center", "damped_rotation"):
        out[f"classify_{name}"] = _classify(name)

    out["linearize_quadratic_drag"] = _linearize(
        "quadratic_drag", [[0.1, 0.1], [1.8, 0.2]])
    out["linearize_cubic_circuit"] = _linearize(
        "cubic_circuit", [[0.1, 0.05], [0.9, 0.1]])
    out["linearize_prey_predator"] = _linearize(
        "prey_predator", [[0.05, 0.05], [1.9, 0.6]])
    out["linearize_pendulum"] = _linearize(
        "pendulum", [[0.2, 0.1], [math.pi - 0.2, 0.1]])

    out["candidate_cubic_damping"] = _candidate("cubic_damping", "x1^2 + x2^2")
    out["candidate_bilinear_decay"] = _candidate(
        "bilinear_decay", "0.5*x1^2 + x2^2", radius=0.5)
    out["candidate_cross_coupled"] = _candidate(
        "cross_coupled", "x1^2 + x2^2", radius=0.5)
    out["candidate_spring_energy"] = _candidate(
        "spring_mass", "0.5*k*x1^2 + 0.5*x2^2", params={"k": 2.0})
    out["candidate_damped_spring"] = _candidate(
        "damped_spring", "7*x1^2 + 2*x1*x2 + 3*x2^2")
    out["candidate_vanderpol"] = _candidate(
        "vanderpol", "x1^2 + x2^2", radius=0.9)
    out["candidate_vanderpol_integral"] = _candidate(
        "vanderpol_integral", "x1^2 + x2^2", radius=0.9)
    out["candidate_cubic_modulated"] = _candidate("cubic_modulated", "x1^2/2")
    out["candidate_exponential_feedback"] = _candidate(
        "exponential_feedback", "x1^2 + (1 + exp(-2*t))*x2^2")

    out["probe_fading_quadratic"] = _candidate_probe(
        "(x1^2 + x2^2)*exp(-0.2*t)", "fading_quadratic")
    out["probe_rational_growth"] = _candidate_probe(
        "(x1^2 + x2^2)*(t^2 + 1)/(x1^2 + 2)", "rational_growth")
    out["probe_polynomial_growth"] = _candidate_probe(
        "(x1^2 + x2^2)*(t^2 + 1)", "polynomial_growth")
    out["probe_saturating"] = _candidate_probe(
        "(x1^2 + x2^2)/(x1^2 + 1)", "saturating")

    out["solve_damped_oscillator"] = _solve("damped_oscillator")

    out["attraction_cross_coupled"] = _attraction("cross_coupled", 4.0)
    out["attraction_vanderpol"] = _attraction("vanderpol", 1.0)
    out["attraction_vanderpol_integral"] = _attraction(
        "vanderpol_integral", 3.0)

    out["alpha_gain_scheduled"] = _alpha(
        "delay_gain_scheduled", 1.0, "rde",
        p=lambda t: np.diag([math.exp(-9.0 * t), 1.0]))
    out["alpha_two_lag"] = _alpha(
        "delay_two_lag", 0.5, "algebraic-rde",
        p=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    out["alpha_rotating"] = _alpha(
        "delay_rotating", 0.2, "rate-inequality",
        p=al.SampledMatrixFunction.from_callable(
            lambda t: math.exp(-t) * np.eye(2), 0.0, 5.0, 20001))
    out["alpha_coupled"] = _alpha("delay_coupled", 0.4, "rate-inequality")

    out["sylvester_growing"] = _sylvester(
        (("t", "-cos(t)"), ("-cos(t)", "t")), None, 1.0, "growing_form")
    out["sylvester_amplitude_half"] = _sylvester(
        _MODULATED_FORM, {"a": 0.5}, 0.0, "amplitude_half")
    out["sylvester_amplitude_one"] = _sylvester(
        _MODULATED_FORM, {"a": 1.0}, 0.0, "amplitude_one")

    out["floquet_periodic_rotation"] = _floquet("periodic_rotation")

    out["discrete_cubic_map"] = _discrete("cubic_map")
    out["discrete_cubic_map_neutral"] = _discrete("cubic_map_neutral")

    out["envelope_modulated_decay"] = _envelope("modulated_decay", 20.0)
    out["envelope_algebraic_decay"] = _envelope("algebraic_decay", 10.0)
    return out


def compare(got, want, path="$", rel=1e-6, abs_tol=1e-9) -> list[str]:
    """Recursive comparison up to floating tolerance; returns mismatches."""
    diffs: list[str] = []
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: type {type(got).__name__} != dict"]
        for key in sorted(set(want) | set(got)):
            if key not in want:
                diffs.append(f"{path}.{key}: unexpected")
            elif key not in got:
                diffs.append(f"{path}.{key}: missing")
            else:
                diffs += compare(got[key], want[key], f"{path}.{key}",
                                 rel, abs_tol)
        return diffs
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list shape mismatch"]
        for i, (g, w) in enumerate(zip(got, want)):
            diffs += compare(g, w, f"{path}[{i}]", rel, abs_tol)
        return diffs
    if type(got) is not type(want):  # 1 is not True, nor 3.0 the integer 3
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol):
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
