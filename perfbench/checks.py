"""Output checks: every report is checked two ways.

1. Against a reference: verdict strings must be equal, and numbers must
   agree within the goldens' tolerances (relative 1e-6, absolute 1e-9).
   Gallery ops are compared with ``reference.json``; generated systems
   with the expectations the generator derived from their construction.
2. Against cheap independent recomputations in numpy: the Lyapunov
   residual ``||A'P + PA + Q||``, the Floquet ``relative_gap`` against the
   report's tolerance and the exact monodromy, and the eigenvalue signs
   against ``classify``'s kind.

``check(op, report, system)`` returns a list of problems; an empty list
means the op passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL, ABS = 1e-6, 1e-9
REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def compare(got, want, path="$") -> list[str]:
    """Recursive comparison within the goldens' tolerances."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {got!r}"]
        out = []
        for key in want:
            out += compare(got.get(key), want[key], f"{path}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected {len(want)} items, got {got!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]")
        return out
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REL, abs_tol=ABS):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def _complex(values) -> np.ndarray:
    return np.array([complex(v["re"], v["im"]) for v in values])


# --- what each op kind is compared on ------------------------------------------------
# The signature picks the verdicts and headline numbers of a report; the
# reference stores the signature the commit that made it produced.

def signature(kind: str, result: dict) -> dict:
    if kind == "classify":
        return {"kind": result["kind"], "eigenvalues": result["eigenvalues"],
                "bibo": result["bibo"],
                "critical_point": result.get("critical_point")}
    if kind == "solve":
        return {"p": result["p"], "p_definiteness": result["p_definiteness"],
                "asymptotically_stable": result["asymptotically_stable"]}
    if kind == "linearize":
        return {"equilibria": [{"point": e["point"],
                                "linear_kind": e["linear_kind"],
                                "conclusion": e["conclusion"],
                                "critical_point": e["critical_point"]}
                               for e in result["equilibria"]],
                "seeds_dropped": result["seeds_dropped"]}
    if kind == "attraction":
        return {"c_star": result["c_star"]}
    if kind == "iterate":
        return {"steps": result["steps"], "escaped": result["escaped"],
                "final_state": result["final_state"]}
    if kind == "simulate":
        return {"escaped": result["escaped"], "samples": result["samples"],
                "final_state": result["final_state"]}
    if kind == "alpha":
        cert = result["certificate"]
        out = {"valid": result["valid"],
               "p_semidefinite": cert["p_semidefinite"],
               "inequality_margin": cert["inequality_margin"]}
        if cert["trajectory_check"] is not None:
            out["trajectory_verified"] = cert["trajectory_check"]["verified"]
        if "max_alpha" in result:
            out["max_alpha"] = result["max_alpha"]
        return out
    if kind in ("candidate", "discrete"):
        out = {"conclusion": result["conclusion"], "samples": result["samples"]}
        if kind == "candidate":
            out["vdot_verdict"] = result["vdot_verdict"]
            out["worst_vdot"] = result["worst_vdot"]
        else:
            out["worst_delta"] = result["worst_delta"]
        return out
    if kind == "instability":
        return {"unstable": result["unstable"], "samples": result["samples"],
                "worst_wdot": result["worst_wdot"]}
    if kind == "sylvester":
        return {"positive_definite": result["positive_definite"],
                "min_minors": result["min_minors"],
                "samples": result["samples"]}
    raise ValueError(f"no signature for op kind {kind!r}")


# --- independent numpy checks --------------------------------------------------------

_SIGN_KIND = {"asymptotically-stable": lambda re: np.all(re < 0),
              "unstable": lambda re: np.any(re > 0) and not np.all(re > 0),
              "completely-unstable": lambda re: np.all(re > 0)}


def _classify(result, system) -> list[str]:
    a = np.asarray(system["a"], dtype=float)
    mine = np.sort_complex(np.linalg.eigvals(a))
    theirs = np.sort_complex(_complex(result["eigenvalues"]))
    out = []
    scale = 1.0 + np.linalg.norm(a)
    if len(mine) != len(theirs) or \
            np.max(np.abs(mine - theirs)) > 1e-8 * scale:
        out.append("eigenvalues differ from numpy's")
    rule = _SIGN_KIND.get(result["kind"])
    re = mine.real
    band = 1e-6 * scale
    if rule is not None and not rule(np.where(np.abs(re) < band, 0.0, re)):
        out.append(f"eigenvalue signs contradict kind {result['kind']!r}")
    return out


def _solve(result, system) -> list[str]:
    a = np.asarray(system["a"], dtype=float)
    p = np.asarray(result["p"], dtype=float)
    q = np.asarray(result["q"], dtype=float)
    residual = np.linalg.norm(a.T @ p + p @ a + q, 2)
    bound = 1e-9 * (1.0 + 2.0 * np.linalg.norm(a, 2) * np.linalg.norm(p, 2))
    out = []
    if not residual <= bound:
        out.append(f"Lyapunov residual {residual:.3e} exceeds {bound:.3e}")
    eig = np.linalg.eigvalsh(0.5 * (p + p.T))
    pd = bool(eig[0] > 0)
    if (result["p_definiteness"] == "positive-definite") != pd:
        out.append("p_definiteness contradicts the eigenvalues of P")
    return out


def _block_exp(block, period: float) -> np.ndarray:
    if len(block) == 1:
        return np.array([[math.exp(period * block[0][0])]])
    sigma, beta = block[0][0], block[0][1]
    c, s = math.cos(beta * period), math.sin(beta * period)
    return math.exp(sigma * period) * np.array([[c, s], [-s, c]])


def _floquet(result, tolerances, expect, system) -> list[str]:
    out = []
    if result["verdict"] != expect["verdict"]:
        out.append(f"verdict {result['verdict']!r} != {expect['verdict']!r}")
    moduli = np.sort(np.abs(_complex(result["multipliers"])))
    if not np.allclose(moduli, expect["moduli"], rtol=REL, atol=ABS):
        out.append("multiplier moduli differ from exp(T * Re lambda)")
    if not result["relative_gap"] <= tolerances["modulus_tol"]:
        out.append(f"relative_gap {result['relative_gap']:.3e} above "
                   f"modulus_tol {tolerances['modulus_tol']}")
    if not math.isclose(result["liouville_lhs"], expect["liouville"],
                        rel_tol=REL, abs_tol=ABS):
        out.append("Liouville product differs from exp(integral of trace)")
    s = np.asarray(expect["rotation"])
    blocks = [_block_exp(b, system["period"]) for b in expect["blocks"]]
    n = len(s)
    exact = np.zeros((n, n))
    at = 0
    for blk in blocks:
        k = len(blk)
        exact[at:at + k, at:at + k] = blk
        at += k
    exact = s @ exact @ s.T
    got = np.asarray(result["monodromy"], dtype=float)
    if np.max(np.abs(got - exact)) > REL * (1.0 + np.max(np.abs(exact))):
        out.append("monodromy differs from S exp(T M) S'")
    return out


def _consistency(kind: str, result: dict, op: dict) -> list[str]:
    """Checks any report of ``kind`` must pass, reference or not."""
    out = []
    argv = op["argv"]
    if "--samples" in argv:
        want = int(argv[argv.index("--samples") + 1])
        if result.get("samples") != want:
            out.append(f"samples {result.get('samples')} != --samples {want}")
    if kind == "candidate" and result["vdot_verdict"] != "indefinite" \
            and not result["worst_vdot"] <= 1e-9:
        out.append("Vdot verdict is semidefinite but worst_vdot > 0")
    if kind == "instability" and result["unstable"] \
            and not result["worst_wdot"] > 0:
        out.append("unstable claimed with a non-positive Wdot sample")
    if kind == "attraction":
        cmax = float(argv[argv.index("--cmax") + 1])
        if not 0.0 < result["c_star"] <= cmax:
            out.append(f"c_star {result['c_star']} outside (0, cmax]")
    if kind == "simulate" and not result["escaped"]:
        norm = float(np.linalg.norm(result["final_state"]))
        if not math.isclose(norm, result["final_norm"], rel_tol=1e-12):
            out.append("final_norm differs from |final_state|")
    if kind == "linearize":
        for e in result["equilibria"]:
            jac = np.asarray(e["jacobian"], dtype=float)
            rule = _SIGN_KIND.get(e["linear_kind"])
            re = np.linalg.eigvals(jac).real
            if rule is not None and not rule(re):
                out.append(f"Jacobian spectrum contradicts {e['linear_kind']!r}")
    return out


def check(op: dict, report: dict, system: dict | None,
          reference: dict) -> list[str]:
    """Problems found in one op's report (empty: the op passed)."""
    kind = op["check"]
    result = report["result"]
    try:
        out = _consistency(kind, result, op)
        expect = op["expect"]
        if op["ref"] is not None:
            if op["ref"] not in reference:
                return out + [f"no reference for {op['ref']!r}"]
            out += compare(signature(kind, result), reference[op["ref"]])
        else:
            for key in ("kind", "p_definiteness", "unstable", "vdot_verdict"):
                if key in expect and result.get(key) != expect[key]:
                    out.append(f"{key} {result.get(key)!r} != {expect[key]!r}")
            if "conclusions" in expect and \
                    result["conclusion"] not in expect["conclusions"]:
                out.append(f"conclusion {result['conclusion']!r} not in "
                           f"{expect['conclusions']}")
        if kind == "classify":
            out += _classify(result, system)
        elif kind == "solve":
            out += _solve(result, system)
        elif kind == "floquet":
            out += _floquet(result, report["tolerances"], expect, system)
        return out
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
