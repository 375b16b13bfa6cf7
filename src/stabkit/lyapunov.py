"""Lyapunov's direct method.

Candidate functions are user supplied (there is no general construction
rule); the toolkit checks them.  All definiteness findings here come from
deterministic Halton scans, so they are one-sided by design: a "definite"
verdict means *definite on the sampled points, with margin*, while a single
violating sample is conclusive for "not definite".  Conclusions only ever
claim what the sufficient conditions support; a failed candidate yields
``NO_CONCLUSION``, never "unstable".

The scans are evaluated in batches, ``BLOCK`` rows per call of the strict
batch evaluator :func:`~stabkit.expr.compile_expr_vec`, each batch under
:func:`~stabkit.expr.strict_rows`: V and Vdot (central differences on the
stacked rows ``x +- h e_i``), the Sylvester minors, the attraction ladder,
the origin checks, the W3 stencil and the radial rays.  A domain error
names the first failing sample in the order of a point-by-point scan.

The module also owns the continuous Lyapunov matrix equation (solved by
Kronecker vectorization), the generalized time-varying Sylvester scan for
quadratic forms, instability witnesses, and sublevel-set estimation of the
domain of attraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import expr as ex
from . import linalg
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidArgumentError,
    InvalidCandidateError,
    NoRegionError,
    NotAnEquilibriumError,
    SingularLyapunovOperatorError,
)
from .odeint import SystemDef, _cap_samples, _params
from .sampling import ball_points, halton, sphere_directions

__all__ = [
    "solve_lyapunov", "CandidateV", "ScanConfig",
    "SignVerdict", "Probe", "Conclusion", "LyapunovReport", "check_candidate",
    "InstabilityReport", "check_instability", "QuadraticFormTV",
    "SylvesterReport", "sylvester_tv", "attraction_region",
]

#: sampled-definiteness margin: min ratio must reach this fraction of the max
MARGIN = 1e-4
#: probes on time windows must keep at least this fraction of their bound
TREND_FLOOR = 0.5
#: rows per batch evaluation in the sampled scans; bounds their memory
BLOCK = 16384
#: relative eigen-sum separation that lets ``solve_lyapunov`` skip its
#: O(n^6) singular-value test: 100 times that test's 1e-12
SKIP_MARGIN = 1e-10


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve the continuous Lyapunov matrix equation ``A'P + PA = -Q``.

    Vectorized as ``L vec(P) = -vec(Q)`` with the Kronecker operator
    ``L = I (x) A' + A' (x) I`` and solved densely; fine for the n <= ~50
    systems this toolkit targets.  The result is symmetrized before return.

    Raises :class:`SingularLyapunovOperatorError` when A and -A share an
    eigenvalue, that is when the singular values of L have
    ``sigma_min <= 1e-12 sigma_max`` (no unique solution), and
    :class:`DimensionMismatchError` for an empty A or a Q of another size.

    The singular values of L cost O(n^6), so they are skipped when an O(n^3)
    bound already shows the test would pass.  With ``A = V diag(lam) V^-1``
    the operator is similar to the diagonal of the sums ``lam_i + lam_j``,
    which gives ``sigma_min(L) >= min |lam_i + lam_j| / kappa_2(V)^2``, and
    ``sigma_max(L) <= 2 ||A||_2``.  The skip needs
    ``min |lam_i + lam_j| > 1e-10 kappa_2(V)^2 2 ||A||_2``: 100 times the
    test's own threshold, which leaves room for the rounding of ``eig`` and
    of the singular values the test would compute.  Defective, strongly
    non-normal and nearly singular A miss the bound, and in that gray zone
    the singular-value test decides as before: a rule on the eigen-sums
    alone would change which inputs are refused.  Either way the same
    operator is solved, so P does not depend on which path decided.
    """
    am = linalg.as_matrix(a, square=True)
    qm = linalg.as_matrix(q, square=True)
    n = am.shape[0]
    if n == 0:
        raise DimensionMismatchError("A must be at least 1 x 1")
    if qm.shape != (n, n):
        raise DimensionMismatchError("A and Q must have equal size")
    eye = np.eye(n)
    op = np.kron(eye, am.T) + np.kron(am.T, eye)
    if not _separation_certified(am):
        sv = np.linalg.svd(op, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
            raise SingularLyapunovOperatorError(
                "A and -A share an eigenvalue: no unique Lyapunov solution")
    vec_p = np.linalg.solve(op, -qm.reshape(-1, order="F"))
    p = vec_p.reshape((n, n), order="F")
    return 0.5 * (p + p.T)


def _separation_certified(am: np.ndarray) -> bool:
    """True when the eigen-sum bound of :func:`solve_lyapunov` proves that
    its singular-value test accepts ``am``; False when it cannot tell."""
    try:
        lam, vecs = np.linalg.eig(am)
    except np.linalg.LinAlgError:
        return False
    sv = np.linalg.svd(vecs, compute_uv=False)
    if not sv[-1] > 0.0:
        return False
    kappa = float(sv[0]) / float(sv[-1])  # Python floats: inf, no warning
    sep = float(np.abs(lam[:, None] + lam[None, :]).min())
    return sep > SKIP_MARGIN * kappa * kappa * 2.0 * float(np.linalg.norm(am, 2))


# --- candidate functions ---------------------------------------------------------

@dataclass
class CandidateV:
    """A candidate scalar function V(x) or V(x, t).

    ``expression`` may be a tree, source text, or a number; gradients are
    taken by central differences with step ``fd_step``.
    """

    expression: ex.Expr
    params: dict = field(default_factory=dict)
    fd_step: float = 1e-5

    def __post_init__(self):
        self.params = _params(self.params)
        self.expression = ex.as_expr(self.expression, set(self.params))
        self._vec = ex.compile_expr_vec(self.expression, self.params)
        self.time_dependent = "t" in ex.free_vars(self.expression)

    @classmethod
    def quadratic(cls, p) -> "CandidateV":
        """Build V(x) = x' P x as an expression tree."""
        m = linalg.as_matrix(p, square=True)
        n = m.shape[0]
        terms = None
        for i in range(n):
            for j in range(n):
                if m[i, j] == 0.0:
                    continue
                term = ex.Binary("*", ex.Binary("*", ex.Number(float(m[i, j])),
                                                ex.Var(f"x{i + 1}")),
                                 ex.Var(f"x{j + 1}"))
                terms = term if terms is None else ex.Binary("+", terms, term)
        return cls(terms if terms is not None else ex.Number(0.0))

    def value(self, x, t: float = 0.0) -> float:  # one row of ``values``
        return float(self.values(np.asarray(x, dtype=float)[None], t)[0])

    def values(self, X: np.ndarray, t) -> np.ndarray:
        """V over the rows of ``X`` at one time or at per-row times ``t``."""
        return self._vec(X, t)

    def max_state_index(self) -> int:
        return ex.max_state_index(self.expression)


def _batch_values(sys: SystemDef, v: CandidateV, X: np.ndarray,
                  T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and Vdot at the sample rows ``(X[k], T[k])``, in batches.

    ``Vdot = grad_x V . f + dV/dt`` by central differences: each block
    stacks the rows ``x``, ``x +- h e_i`` (and ``t +- h`` when V mentions t)
    into one call of the batch evaluator.
    """
    n = sys.dimension
    h = v.fd_step
    f = sys.rhs_vectorized()
    shifts = h * np.eye(n)
    copies = 2 * n + 1 + 2 * v.time_dependent
    v_vals = np.empty(len(X))
    vd_vals = np.empty(len(X))
    per = max(1, BLOCK // copies)
    for s in range(0, len(X), per):
        x, t = X[s:s + per], T[s:s + per]
        rows = [x] + [x + e for e in shifts] + [x - e for e in shifts]
        times = [t] * (2 * n + 1)
        if v.time_dependent:
            rows += [x, x]
            times += [t + h, t - h]
        vals = v.values(np.concatenate(rows), np.concatenate(times))
        vals = vals.reshape(copies, len(x))
        fx = f(x, t)
        total = np.zeros(len(x))
        for i in range(n):
            total += (vals[1 + i] - vals[1 + n + i]) / (2.0 * h) * fx[:, i]
        if v.time_dependent:
            total += (vals[-2] - vals[-1]) / (2.0 * h)
        v_vals[s:s + per] = vals[0]
        vd_vals[s:s + per] = total
    return v_vals, vd_vals


def _sample_values(sys: SystemDef, v: CandidateV, X: np.ndarray,
                   T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and Vdot at every sample row.  A domain error names the first
    sample at which V fails, or else the first at which Vdot does."""
    return ex.strict_rows(lambda r: _batch_values(sys, v, X[r], T[r]),
                          len(X), lambda k: _sample_label(X[k], T[k]),
                          prior=(lambda r: v.values(X[r], T[r]),))


def _sample_label(x, t) -> str:
    return f"x={tuple(float(c) for c in x)}, t={float(t)!r}"


def _require_samples(count: int) -> None:
    if not count >= 1:
        raise InvalidArgumentError(f"need at least one sample, got {count}")


def _require_dimension(v: CandidateV, n: int) -> None:
    if v.max_state_index() > n:
        raise DimensionMismatchError(
            "candidate references state variables beyond the system dimension")


# --- scan reports ----------------------------------------------------------------

@dataclass(frozen=True)
class ScanConfig:
    """Scan resolution: Halton points in the ball x a time window.

    Raises :class:`InvalidArgumentError` unless ``t0`` is finite and
    ``time_span`` finite and non-negative; the scans also refuse an empty
    window when the system or the candidate depends on t.
    """

    points: int = 4096
    time_samples: int = 32
    t0: float = 0.0
    time_span: float = 50.0

    def __post_init__(self):
        _check_window(self.t0, self.time_span)


def _check_window(t0: float, time_span: float,
                  time_dependent: bool = False) -> None:
    """Reject a non-finite or negative window, and an empty one when the
    problem depends on t (it would sample no time variation)."""
    if not np.isfinite(t0):
        raise InvalidArgumentError(f"t0 must be finite, got {t0!r}")
    if not (np.isfinite(time_span) and time_span >= 0.0):
        raise InvalidArgumentError(
            f"time span must be finite and >= 0, got {time_span!r}")
    if not np.isfinite(t0 + time_span):
        raise InvalidArgumentError(
            f"window end t0 + time span overflows: {t0!r} + {time_span!r}")
    if time_dependent and time_span == 0.0:
        raise InvalidArgumentError(
            "time span must be > 0 when the system or the candidate "
            "depends on t")


class SignVerdict(Enum):
    NEGATIVE_DEFINITE = "negative-definite"
    NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
    INDEFINITE = "indefinite"


class Conclusion(Enum):
    STABLE = "stable"
    UNIFORMLY_STABLE = "uniformly-stable"
    UNIFORMLY_ASYMPTOTICALLY_STABLE = "uniformly-asymptotically-stable"
    EXPONENTIALLY_STABLE = "exponentially-stable"
    NO_CONCLUSION = "no-conclusion"


# each verdict of the ladder implies the ones declared before it
_LEVELS = {c: tuple(d.value for d in list(Conclusion)[:i + 1])
           for i, c in enumerate(Conclusion)}
_LEVELS[Conclusion.NO_CONCLUSION] = ()

_THEOREM = {
    Conclusion.STABLE: "direct-method:stability",
    Conclusion.UNIFORMLY_STABLE: "direct-method:uniform-stability",
    Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE:
        "direct-method:uniform-asymptotic-stability",
    Conclusion.EXPONENTIALLY_STABLE: "direct-method:exponential-stability",
    Conclusion.NO_CONCLUSION: "",
}


@dataclass(frozen=True)
class Probe:
    """Outcome of one sampled bound fit.

    ``coefficient`` is the fitted constant of a ``coefficient * ||x||^exponent``
    bound; ``trend`` compares the bound over the late half of the time window
    against the early half (1.0 = steady; values well below 1 mean the bound
    decays with time and cannot hold on an unbounded window).
    """

    established: bool
    exponent: int | None = None
    coefficient: float | None = None
    trend: float = 1.0
    worst_point: tuple[float, ...] | None = None
    note: str = ""


@dataclass(frozen=True)
class LyapunovReport:
    conclusion: Conclusion
    levels: tuple[str, ...]
    theorem: str
    v_positive: Probe
    vdot_verdict: SignVerdict
    vdot_margin: Probe | None
    decrescent: Probe
    radially_unbounded: bool
    global_claim: bool
    w3_minors: tuple[float, ...] | None
    samples: int
    radius: float
    time_window: tuple[float, float]
    worst_vdot: float
    notes: tuple[str, ...] = ()


# --- scan machinery ---------------------------------------------------------------

def _time_dependent(sys: SystemDef, v: CandidateV) -> bool:
    return (not sys.is_autonomous()) or v.time_dependent


def _scan_points(sys: SystemDef, v: CandidateV, radius: float,
                 scan: ScanConfig):
    """Joint (x, t) samples: ball points paired with Halton times."""
    n = sys.dimension
    X = ball_points(scan.points, n, radius, exclude=1e-9 * radius)
    time_dep = _time_dependent(sys, v)
    if time_dep:
        u = halton(scan.points, 1, start=11)[:, 0]
        T = scan.t0 + scan.time_span * u
    else:
        T = np.full(scan.points, scan.t0)
    return X, T, time_dep


def _scan(sys: SystemDef, v: CandidateV, radius: float, scan: ScanConfig,
          zero_at_origin: bool):
    """Checks, then ``(X, T, time_dep, norms, V, Vdot)`` on the samples."""
    _require_samples(scan.points)
    _require_dimension(v, sys.dimension)
    _check_window(scan.t0, scan.time_span, _time_dependent(sys, v))
    _check_origin_equilibrium(sys, scan)
    if zero_at_origin:
        _check_candidate_zero(v, sys.dimension, scan)
    X, T, time_dep = _scan_points(sys, v, radius, scan)
    return (X, T, time_dep, np.linalg.norm(X, axis=1),
            *_sample_values(sys, v, X, T))


def _fit_lower_bound(values: np.ndarray, norms: np.ndarray, T: np.ndarray,
                     time_dep: bool, scan: ScanConfig, X: np.ndarray,
                     exponents=(2, 4)) -> Probe:
    """Fit values >= kappa * ||x||^p on samples, with margin and time trend."""
    best: Probe | None = None
    mid = scan.t0 + 0.5 * scan.time_span
    for p in exponents:
        ratios = values / norms**p
        kappa = float(ratios.min())
        # compare the worst ratio against the typical one: ratios can be
        # unbounded above near the origin, so the max is no reference
        typical = float(np.median(ratios))
        if kappa <= 0.0 or typical <= 0.0 or kappa <= MARGIN * typical:
            continue
        trend = 1.0
        if time_dep:
            early = ratios[T <= mid]
            late = ratios[T > mid]
            if len(early) and len(late):
                trend = float(late.min() / early.min()) if early.min() > 0 else 0.0
        candidate = Probe(trend >= TREND_FLOOR, p, kappa, trend,
                          tuple(X[int(ratios.argmin())]),
                          "" if trend >= TREND_FLOOR else
                          "bound decays across the time window")
        if candidate.established:
            return candidate
        best = best or candidate
    if best is not None:
        return best
    worst = int((values / norms**2).argmin())
    return Probe(False, None, None, 1.0, tuple(X[worst]),
                 "no sampled power bound with margin")


def _origin_values(fn, n: int, times: np.ndarray) -> np.ndarray:
    zero = np.zeros((len(times), n))
    return ex.strict_rows(lambda r: fn(zero[r], times[r]), len(times),
                          lambda k: f"t={float(times[k])!r}")


def _check_origin_equilibrium(sys: SystemDef, scan: ScanConfig,
                              tol: float = 1e-9) -> None:
    times = np.linspace(scan.t0, scan.t0 + scan.time_span, 16) \
        if not sys.is_autonomous() else np.array([scan.t0])
    f0 = _origin_values(sys.rhs_vectorized(), sys.dimension, times)
    worst = float(np.linalg.norm(f0, axis=1).max())
    if worst >= tol:
        raise NotAnEquilibriumError(
            f"||f(0, t)|| reaches {worst:.3e}; origin is not an equilibrium")


def _check_candidate_zero(v: CandidateV, n: int, scan: ScanConfig) -> None:
    times = np.linspace(scan.t0, scan.t0 + scan.time_span, 16)
    if np.abs(_origin_values(v.values, n, times)).max() > 1e-9:
        raise InvalidCandidateError("candidate must satisfy V(0, t) = 0")


def _w3_quadratic_minors(sys: SystemDef, v: CandidateV, t0: float,
                         h: float = 1e-3) -> tuple[float, ...] | None:
    """Leading minors of the quadratic form fitted to -Vdot(., t0) at 0, from
    Vdot at 0, ``+-h e_i`` and ``+-h e_i +-h e_j``; None on a domain error."""
    n = sys.dimension
    e = h * np.eye(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    stencil = np.array([np.zeros(n), *e, *(-e), *(
        s * e[i] + u * e[j] for i, j in pairs
        for s, u in ((1, 1), (1, -1), (-1, 1), (-1, -1)))])
    try:
        vd = ex.strict_rows(lambda r: _batch_values(
            sys, v, stencil[r], np.full(len(stencil[r]), t0))[1],
            len(stencil), lambda k: _sample_label(stencil[k], t0))
    except DomainError:
        return None
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (vd[1 + i] - 2.0 * vd[0] + vd[1 + n + i]) / h**2
    for (i, j), (pp, pm, mp, mm) in zip(pairs, vd[1 + 2 * n:].reshape(-1, 4)):
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h**2)
    m = -0.5 * hess
    return tuple(float(v) for v in linalg.principal_minors(m))


def _decrescent_probe(sys: SystemDef, v: CandidateV, radius: float,
                      scan: ScanConfig) -> Probe:
    """Is sup_t V(x, t) dominated by a time-free quadratic on the ball?"""
    if not v.time_dependent:
        return Probe(True, 2, None, 1.0, None, "time-invariant candidate")
    n = sys.dimension
    X = ball_points(min(256, scan.points), n, radius, exclude=1e-6 * radius)
    times = scan.t0 + np.linspace(0.0, scan.time_span, scan.time_samples + 1)
    mid = scan.t0 + 0.5 * scan.time_span
    vals = np.empty((len(times), len(X)))
    for i, t in enumerate(times):
        vals[i] = ex.strict_rows(lambda r: v.values(X[r], t), len(X),
                                 lambda k: _sample_label(X[k], t))
    norms2 = np.einsum("ij,ij->i", X, X)
    sup_all = np.abs(vals).max(axis=0)
    coefficient = float((sup_all / norms2).max())
    early = np.abs(vals[times <= mid]).max(axis=0)
    late = np.abs(vals[times > mid]).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = np.where(early > 0, late / np.maximum(early, 1e-300), 1.0)
    worst = float(growth.max())
    established = worst <= 1.2
    note = "" if established else \
        "sup_t V grows across the time window; no time-free upper bound"
    return Probe(established, 2, coefficient, worst,
                 tuple(X[int(growth.argmax())]), note)


def _radial_probe(v: CandidateV, n: int, t0: float, radius: float) -> bool:
    """Does V grow without bound along rays out to radius 1e3?  A ray whose
    V grows and then leaves float range counts as unbounded."""
    dirs = sphere_directions(32, n)
    radii = np.array([max(radius, 1.0), 10.0, 100.0, 1000.0])
    points = (dirs[:, None, :] * radii[:, None]).reshape(-1, n)
    failed = np.isin(np.arange(len(points)), list(ex.failing_rows(
        lambda r: v.values(points[r], t0), len(points))))
    values = np.zeros(len(points))
    values[~failed] = v.values(points[~failed], t0)
    for ray, bad in zip(values.reshape(len(dirs), -1),
                        failed.reshape(len(dirs), -1)):
        grown = ray[:int(bad.argmax())]  # up to the first failing radius
        if bad.any() and not (len(grown) >= 2 and grown[-1] > grown[0]):
            return False
        if not bad.any() and (np.any(ray[1:] < ray[:-1])
                              or ray[-1] < 100.0 * max(ray[0], 1e-12)):
            return False
    return True


def check_candidate(sys: SystemDef, v: CandidateV, radius: float = 1.0,
                    scan: ScanConfig = ScanConfig()) -> LyapunovReport:
    """Check a candidate V on a ball around the origin.

    Requires the origin to be an equilibrium and V(0, t) = 0.  The verdict
    ladder (stable / uniformly stable / uniformly asymptotically stable /
    exponentially stable) follows the classical sufficient conditions:
    sampled positive definiteness of V, the sign of Vdot along trajectories,
    the decrescence probe, and a power-bound fit for the exponential upgrade.
    Uniform labels are only used when the dynamics are time-dependent;
    for autonomous systems uniformity is vacuous and the plain labels of the
    autonomous theory are reported.
    """
    X, T, time_dep, norms, v_vals, vd_vals = _scan(sys, v, radius, scan, True)

    v_positive = _fit_lower_bound(v_vals, norms, T, time_dep, scan, X)
    notes: list[str] = []
    if time_dep:
        notes.append("definiteness over unbounded t approximated on a "
                     f"finite window [{scan.t0}, {scan.t0 + scan.time_span}]")

    worst_vdot = float(vd_vals.max())
    scale = float(np.abs(vd_vals).max())
    nsd_tol = 1e-9 * (1.0 + scale)
    vdot_margin = None
    if worst_vdot > nsd_tol:
        vdot_verdict = SignVerdict.INDEFINITE
    else:
        margin = _fit_lower_bound(-vd_vals, norms, T, time_dep, scan, X)
        if margin.established:
            vdot_verdict = SignVerdict.NEGATIVE_DEFINITE
            vdot_margin = margin
        else:
            vdot_verdict = SignVerdict.NEGATIVE_SEMIDEFINITE

    decrescent = _decrescent_probe(sys, v, radius, scan)
    radial = _radial_probe(v, sys.dimension, scan.t0, radius)

    nonautonomous = not sys.is_autonomous()
    conclusion = Conclusion.NO_CONCLUSION
    if v_positive.established and vdot_verdict is not SignVerdict.INDEFINITE:
        if vdot_verdict is SignVerdict.NEGATIVE_SEMIDEFINITE:
            conclusion = (Conclusion.UNIFORMLY_STABLE
                          if nonautonomous and decrescent.established
                          else Conclusion.STABLE)
        else:
            # the asymptotic upgrade needs decrescence (automatic for a
            # time-free candidate); a negative derivative alone only pins
            # plain stability
            if not decrescent.established:
                conclusion = Conclusion.STABLE
            else:
                conclusion = Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE
                if _exponential_fit(v_vals, norms, vdot_margin):
                    conclusion = Conclusion.EXPONENTIALLY_STABLE

    w3 = None
    if vdot_verdict is SignVerdict.NEGATIVE_DEFINITE:
        w3 = _w3_quadratic_minors(sys, v, scan.t0)

    return LyapunovReport(
        conclusion=conclusion,
        levels=_LEVELS[conclusion],
        theorem=_THEOREM[conclusion],
        v_positive=v_positive,
        vdot_verdict=vdot_verdict,
        vdot_margin=vdot_margin,
        decrescent=decrescent,
        radially_unbounded=radial,
        global_claim=bool(radial and conclusion is not Conclusion.NO_CONCLUSION),
        w3_minors=w3,
        samples=scan.points,
        radius=radius,
        time_window=(scan.t0, scan.t0 + scan.time_span),
        worst_vdot=worst_vdot,
        notes=tuple(notes),
    )


def _exponential_fit(v_vals, norms, vdot_margin) -> bool:
    """Power bounds K1 ||x||^2 <= V <= K2 ||x||^2 and Vdot <= -K3 ||x||^2."""
    if vdot_margin is None or vdot_margin.exponent != 2:
        return False
    ratios = v_vals / norms**2
    k1 = float(ratios.min())
    return k1 > 0.0 and k1 > MARGIN * float(np.median(ratios))


@dataclass(frozen=True)
class InstabilityReport:
    unstable: bool
    w_zero_at_origin: bool
    w_nonnegative: bool
    w_nontrivial: bool
    wdot_positive_definite: bool
    worst_wdot: float
    samples: int
    radius: float


def check_instability(sys: SystemDef, w: CandidateV, radius: float = 1.0,
                      scan: ScanConfig = ScanConfig()) -> InstabilityReport:
    """Instability witness: W(0)=0, W >= 0, and Wdot > 0 away from the origin.

    All three conditions sampled on the ball; ``unstable=True`` only when
    every one holds with margin.  The conditions are sufficient, not
    necessary: a False result does not certify stability.
    """
    X, T, time_dep, norms, w_vals, wd_vals = _scan(sys, w, radius, scan, False)
    times = np.linspace(scan.t0, scan.t0 + scan.time_span, 8)
    w_zero = bool(np.abs(_origin_values(w.values, sys.dimension,
                                        times)).max() <= 1e-9)
    scale = float(np.abs(w_vals).max()) if len(w_vals) else 0.0
    w_nonneg = bool(w_vals.min() >= -1e-9 * (1.0 + scale))
    w_nontrivial = bool(w_vals.max() > 1e-9 * (1.0 + scale))
    margin = _fit_lower_bound(wd_vals, norms, T, time_dep, scan, X)
    wdot_pd = margin.established
    return InstabilityReport(
        unstable=bool(w_zero and w_nonneg and w_nontrivial and wdot_pd),
        w_zero_at_origin=w_zero,
        w_nonnegative=w_nonneg,
        w_nontrivial=w_nontrivial,
        wdot_positive_definite=wdot_pd,
        worst_wdot=float(wd_vals.min()),
        samples=scan.points,
        radius=radius,
    )


# --- generalized Sylvester criterion ----------------------------------------------

@dataclass
class QuadraticFormTV:
    """Quadratic form ``V(x, t) = x' M(x, t) x`` with expression entries.

    The coefficient grid is symmetrized structurally: entries are read from
    the upper triangle and mirrored, so the form is symmetric by
    construction.
    """

    entries: tuple[tuple[ex.Expr, ...], ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = _params(self.params)
        grid = [[ex.as_expr(e, set(self.params)) for e in row]
                for row in self.entries]
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise DimensionMismatchError("coefficient grid must be square")
        for i in range(n):
            for j in range(i + 1, n):
                grid[j][i] = grid[i][j]
        self.entries = tuple(tuple(row) for row in grid)
        self._vec = [(i, j, ex.compile_expr_vec(grid[i][j], self.params))
                     for i in range(n) for j in range(i, n)]
        self.time_dependent = any(
            "t" in ex.free_vars(e) for row in self.entries for e in row)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def matrices(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """The ``(N, n, n)`` coefficient matrices at the rows ``(X[k], T[k])``."""
        n = self.dimension
        out = np.empty((len(X), n, n))
        for i, j, fn in self._vec:
            out[:, i, j] = out[:, j, i] = fn(X, T)
        return out


@dataclass(frozen=True)
class SylvesterReport:
    positive_definite: bool
    min_minors: tuple[float, ...]
    deltas: tuple[float, ...]
    worst_point: tuple[float, ...]
    worst_time: float
    samples: int


def sylvester_tv(q: QuadraticFormTV, t0: float, time_span: float = 50.0,
                 mu: float = 1.0, deltas=1e-6, x_points: int = 256,
                 time_samples: int = 128) -> SylvesterReport:
    """Generalized Sylvester criterion scan for a time-varying quadratic form.

    Positive definite iff every leading minor of the coefficient matrix
    stays at or above its delta across the sampled region
    ``sum x_j^2 < mu, t in [t0, t0 + time_span]``.  Raises
    :class:`InvalidArgumentError` for fewer than one point or time sample,
    a non-finite ``t0``, a non-finite or negative ``time_span``, and a zero
    ``time_span`` when the form depends on t, and :class:`SampleCapError`
    when ``x_points * time_samples`` exceeds ``SAMPLE_CAP``.
    """
    _require_samples(x_points)
    _require_samples(time_samples)
    _cap_samples(x_points * time_samples, "x_points x time_samples")
    _check_window(t0, time_span, q.time_dependent)
    n = q.dimension
    if np.isscalar(deltas):
        deltas_t = tuple(float(deltas) for _ in range(n))
    else:
        deltas_t = tuple(float(d) for d in deltas)
        if len(deltas_t) != n:
            raise DimensionMismatchError("need one delta per minor")
    X = ball_points(x_points, n, np.sqrt(mu) * (1.0 - 1e-12))
    times = t0 + np.linspace(0.0, time_span, time_samples)
    min_minors, worst = _sylvester_batch(q, X, times)
    x_row, t_col = divmod(worst, len(times))
    worst_x, worst_t = tuple(X[x_row]), float(times[t_col])
    ok = bool(np.all(min_minors >= np.asarray(deltas_t)))
    return SylvesterReport(ok, tuple(float(v) for v in min_minors), deltas_t,
                           worst_x, worst_t, x_points * time_samples)


def _sylvester_batch(q: QuadraticFormTV, X: np.ndarray, times: np.ndarray):
    """Running minima of the leading minors over the rows ``(x, t)``, x outer.

    Returns the minima and the worst row: the last row at which some minor
    sets a strict new running minimum, as a point-by-point scan finds it.
    One determinant call per leading block size.
    """
    n = q.dimension
    rows = len(X) * len(times)
    running = np.full(n, np.inf)
    worst = 0
    for s in range(0, rows, BLOCK):
        r = np.arange(s, min(s + BLOCK, rows))
        xs, ts = X[r // len(times)], times[r % len(times)]

        def leading_minors(k):
            m = q.matrices(xs[k], ts[k])
            return np.column_stack([np.linalg.det(m[:, :j, :j])
                                    for j in range(1, n + 1)])

        minors = ex.strict_rows(leading_minors, len(r),
                                lambda k: _sample_label(xs[k], ts[k]))
        prior = np.minimum.accumulate(np.vstack([running, minors]), axis=0)
        hits = np.flatnonzero((minors < prior[:-1]).any(axis=1))
        if hits.size:
            worst = s + int(hits[-1])
        running = prior[-1]
    return running, worst


# --- domain of attraction -----------------------------------------------------------

def attraction_region(sys: SystemDef, p, cmax: float, levels: int = 48,
                      directions: int = 512, t: float = 0.0,
                      iterations: int = 40) -> float:
    """Largest c <= cmax whose sublevel set {x'Px <= c} has Vdot < 0 throughout.

    Every level set {V = c'} on a ladder below c is sampled along Halton
    directions (points within 1e-6 of the origin excluded); bisection runs
    ``iterations`` rounds.  The region certified by one quadratic V is in
    general only part of the true domain of attraction.  Raises
    :class:`NoRegionError` when violations appear arbitrarily close to the
    origin.  Raises :class:`InvalidArgumentError` unless ``levels`` and
    ``directions`` are at least 1 and ``cmax`` is finite and positive, and
    :class:`SampleCapError` when ``levels * directions`` exceeds
    ``SAMPLE_CAP``.

    The ladder is checked in batches of levels (``BLOCK`` sample rows per
    call); a :class:`DomainError` names the first level that meets it,
    unless a lower level already fails the check.
    """
    if levels < 1 or directions < 1:
        raise InvalidArgumentError(
            f"need levels >= 1 and directions >= 1, got {levels} and "
            f"{directions}")
    _cap_samples(levels * directions, "levels x directions")
    if not (np.isfinite(cmax) and cmax > 0.0):
        raise InvalidArgumentError(f"cmax must be finite and > 0, got {cmax!r}")
    pm = linalg.as_matrix(p, square=True)
    verdict = linalg.definiteness(pm)
    if not verdict.is_positive_definite:
        raise InvalidArgumentError("P must be positive definite")
    fv = sys.rhs_vectorized()
    if float(np.linalg.norm(fv(np.zeros((1, sys.dimension)), t))) >= 1e-9:
        raise NotAnEquilibriumError("origin is not an equilibrium")
    dirs = sphere_directions(directions, sys.dimension)
    quad = np.einsum("ij,jk,ik->i", dirs, pm, dirs)  # d'Pd per direction
    per = max(1, BLOCK // directions)  # levels per batch

    def passes(c: float) -> bool:
        for first in range(1, levels + 1, per):
            ladder = np.arange(first, min(first + per, levels + 1))

            def negative(r) -> bool:  # Vdot < 0 on the levels ladder[r]
                X = dirs * np.sqrt(c * ladder[r, None] / levels / quad)[..., None]
                pts = X[np.linalg.norm(X, axis=-1) > 1e-6]
                if not len(pts):
                    return True
                vdot = 2.0 * np.einsum("ij,ij->i", pts @ pm, fv(pts, t))
                if not np.isfinite(vdot).all():  # einsum raises no flag
                    raise DomainError("non-finite value of x'P f(x)")
                return bool(np.all(vdot < 0.0))

            try:
                if not ex.strict_rows(negative, len(ladder), lambda k: (
                        f"level c={float(c) * int(ladder[k]) / levels!r}")):
                    return False
            except DomainError as exc:
                if exc.row is not None and not negative(slice(0, exc.row)):
                    return False
                raise
        return True

    if passes(cmax):
        return float(cmax)
    tiny = cmax * 1e-9
    if not passes(tiny):
        raise NoRegionError("Vdot >= 0 on level sets arbitrarily close to 0")
    lo, hi = tiny, cmax
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)
