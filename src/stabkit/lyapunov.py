"""Lyapunov's direct method.

Candidate functions are user supplied (there is no general construction
rule); the toolkit checks them.  All definiteness findings here come from
deterministic Halton scans, so they are one-sided by design: a "definite"
verdict means *definite on the sampled points, with margin*, while a single
violating sample is conclusive for "not definite".  Conclusions only ever
claim what the sufficient conditions support; a failed candidate yields
``NO_CONCLUSION``, never "unstable".

The direct-method ladders (:func:`check_candidate`,
:func:`check_instability` and the discrete ``classify_discrete``) run on
one scan core: :func:`_direct_scan` checks the origin, samples ball points
with Halton times and evaluates V with its rate (Vdot, or Delta V), and
:func:`_sign_test` reads the rate's sign against the one sign floor.  A
premise that must hold uniformly in t is read once more on the window
ladder of :func:`_ladder` (Khalil, *Nonlinear Systems*, Def. 4.4).

The scans are evaluated in batches, ``BLOCK`` rows per call of a strict
batch evaluator (:func:`~stabkit.expr.compile_expr_vec`, compiled once
per candidate, per form and per system), each batch under
:func:`~stabkit.expr.strict_rows`: V and its rate, the Sylvester minors,
the attraction ladder, the origin checks and the radial rays.  A domain
error names the first failing sample in the order of a point-by-point
scan.  Vdot is exact, one tree from the derivative trees of V (for
attraction, x'Px) and the system's field trees, built and compiled with V
once per scan; the W3 minors come from its exact Hessian at the origin,
one evaluation of that tree on second-order jets
(:func:`~stabkit.expr.hessian`), with no second derivative tree built.

The module also owns the continuous Lyapunov matrix equation (solved in
the eigenbasis where a separation certificate holds, else by Kronecker
vectorization), the generalized time-varying Sylvester scan for
quadratic forms, instability witnesses, and sublevel-set estimation of the
domain of attraction.
"""

from __future__ import annotations

import functools
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
from .sampling import ball_points, column_norms, halton, sphere_directions

__all__ = [
    "solve_lyapunov", "CandidateV", "ScanConfig",
    "SignVerdict", "Probe", "Conclusion", "LyapunovReport", "check_candidate",
    "InstabilityReport", "check_instability", "QuadraticFormTV",
    "SylvesterReport", "sylvester_tv", "attraction_region",
]

#: sampled-definiteness margin: min ratio must reach this fraction of the max
MARGIN = 1e-4
#: the window ladder (:func:`_ladder`): on every window a lower bound keeps
#: ``TREND_FLOOR`` of its constant and sup |V| / ||x||^2 grows by at most
#: ``GROWTH_LIMIT``; ``LADDER_DEPTH`` windows of ``LADDER_POINTS`` samples
TREND_FLOOR, GROWTH_LIMIT = 0.5, 1.2
LADDER_DEPTH, LADDER_POINTS = 3, 256
#: rows per batch evaluation in the sampled scans; bounds their memory
BLOCK = 16384
#: relative eigen-sum separation that lets ``solve_lyapunov`` skip its
#: O(n^6) singular-value test: 100 times that test's 1e-12
SKIP_MARGIN = 1e-10
#: relative residual bound of the eigenbasis solve, against max|Q| + 2n
#: max|A| max|P|: about 10,000 times the worst measured (1.0e-16 on 2,543
#: certified random, generated and gallery inputs, n = 2..40)
GATE = 1e-12
#: the smallest scan radius: the fits divide by ``||x||^4`` down to the
#: excluded core of radius ``1e-9 * radius``, where it must not underflow
MIN_SCAN_RADIUS = 1e9 * float(np.finfo(float).tiny) ** 0.25


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve the continuous Lyapunov matrix equation ``A'P + PA = -Q``.

    The result is symmetrized before return.  Raises
    :class:`SingularLyapunovOperatorError` when A and -A share an
    eigenvalue, that is when the singular values of the Kronecker operator
    ``L = I (x) A' + A' (x) I`` (``L vec(P) = -vec(Q)``) have
    ``sigma_min <= 1e-12 sigma_max`` (no unique solution), and
    :class:`DimensionMismatchError` for an empty A or a Q of another size.

    With ``A = V diag(lam) V^-1``, L is similar to the diagonal of the sums
    ``lam_i + lam_j``, which gives ``sigma_min(L) >= min |lam_i + lam_j| /
    kappa_2(V)^2``, and ``sigma_max(L) <= 2 ||A||_2``.  When
    ``min |lam_i + lam_j| > 1e-10 kappa_2(V)^2 2 ||A||_2`` (100 times the
    singular-value test's threshold, which leaves room for the rounding of
    ``eig`` and of the singular values the test would compute) the test
    would pass, and P is solved in O(n^3) in that eigenbasis:
    ``X = -(V'QV) / (lam_i + lam_j)``, ``P = V^-T X V^-1`` (real part),
    then two refinement steps on the residual ``A'P + PA + Q``.  A fixed
    gate keeps that path sound: unless ``max|A'P + PA + Q| <= 1e-12
    (max|Q| + 2n max|A| max|P|)``, P is solved from L instead.

    Defective, strongly non-normal and nearly singular A miss the bound.
    In that gray zone the singular-value test of L decides and L is solved
    densely, as O(n^6) work: a rule on the eigen-sums alone would change
    which inputs are refused.  So the refused inputs do not depend on the
    path, and P from either path solves the same equation.
    """
    am = linalg.as_matrix(a, square=True)
    qm = linalg.as_matrix(q, square=True)
    n = am.shape[0]
    if n == 0:
        raise DimensionMismatchError("A must be at least 1 x 1")
    if qm.shape != (n, n):
        raise DimensionMismatchError("A and Q must have equal size")
    basis = _separation_certified(am)
    p = None if basis is None else _eigenbasis_solve(am, qm, *basis)
    if p is None:
        eye = np.eye(n)
        op = np.kron(eye, am.T) + np.kron(am.T, eye)
        if basis is None:
            sv = np.linalg.svd(op, compute_uv=False)
            if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
                raise SingularLyapunovOperatorError(
                    "A and -A share an eigenvalue: no unique Lyapunov "
                    "solution")
        vec_p = np.linalg.solve(op, -qm.reshape(-1, order="F"))
        p = vec_p.reshape((n, n), order="F")
    return 0.5 * (p + p.T)


def _separation_certified(am: np.ndarray):
    """``(lam, vecs)`` from ``eig(am)`` when the eigen-sum bound of
    :func:`solve_lyapunov` proves that its singular-value test accepts
    ``am``; None when it cannot tell."""
    try:
        lam, vecs = np.linalg.eig(am)
    except np.linalg.LinAlgError:
        return None
    sv = np.linalg.svd(vecs, compute_uv=False)
    if not sv[-1] > 0.0:
        return None
    kappa = float(sv[0]) / float(sv[-1])  # Python floats: inf, no warning
    sep = float(np.abs(lam[:, None] + lam[None, :]).min())
    if sep > SKIP_MARGIN * kappa * kappa * 2.0 * float(np.linalg.norm(am, 2)):
        return lam, vecs
    return None


def _eigenbasis_solve(am, qm, lam, vecs):
    """P with ``A'P + PA = -Q`` from ``am = vecs diag(lam) vecs^-1``, or
    None when the residual gate of :func:`solve_lyapunov` fails.

    The certificate bounds ``kappa(vecs)^2 < 1e10`` (the eigen-sum
    separation is at most ``2 ||A||_2``), so ``vecs`` inverts safely and
    the eigen-sums are nonzero.  The gate also refuses a non-finite P, so
    an overflow here ends in the Kronecker solve.
    """
    inv = np.linalg.inv(vecs)
    sums = lam[:, None] + lam[None, :]

    def step(r):
        return (inv.T @ (-(vecs.T @ r @ vecs) / sums) @ inv).real

    with np.errstate(all="ignore"):
        p = step(qm)
        for _ in range(2):
            p = p + step(am.T @ p + p @ am + qm)
        residual = np.abs(am.T @ p + p @ am + qm).max()
        scale = np.abs(qm).max() + 2 * len(am) * np.abs(am).max() \
            * np.abs(p).max()
    return p if residual <= GATE * scale < np.inf else None


# --- candidate functions ---------------------------------------------------------

@dataclass
class CandidateV:
    """A candidate scalar function V(x) or V(x, t).

    ``expression`` may be a tree, source text, or a number; ``tree`` is the
    tree with ``params`` bound.
    """

    expression: ex.Expr
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = _params(self.params)
        self.expression = ex.as_expr(self.expression, set(self.params))
        self.tree = ex.bind(self.expression, self.params)
        self._vec = ex.compile_expr_vec(self.tree)
        self.time_dependent = ex.reads_time(self.expression, self.params)

    @classmethod
    def quadratic(cls, p) -> "CandidateV":
        """Build V(x) = x' P x as an expression tree."""
        m = linalg.as_matrix(p, square=True)
        x = [ex.Var(f"x{i + 1}") for i in range(m.shape[0])]
        return cls(ex.total(
            ex.fold("*", ex.fold("*", ex.Number(float(m[i, j])), xi), xj)
            for i, xi in enumerate(x) for j, xj in enumerate(x)))

    def value(self, x, t: float = 0.0) -> float:  # one row of ``values``
        return float(self.values(np.asarray(x, dtype=float)[None], t)[0])

    def values(self, X: np.ndarray, t) -> np.ndarray:
        """V over the rows of ``X`` at one time or at per-row times ``t``."""
        return self._vec(X, t)

    def max_state_index(self) -> int:
        return ex.max_state_index(self.expression)


def _trees(sys: SystemDef, v: CandidateV) -> tuple[ex.Expr, ex.Expr]:
    """V and ``Vdot = sum_i dV/dx_i f_i + dV/dt`` as trees, with the
    parameters of the candidate and of the system bound."""
    return v.tree, ex.total([
        *(ex.fold("*", ex.derivative(v.tree, f"x{i + 1}"), f)
          for i, f in enumerate(sys.field_trees)),
        ex.derivative(v.tree, "t")])


def _batch_values(both, X: np.ndarray,
                  T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and Vdot at the sample rows ``(X[k], T[k])``: ``both``, the
    two-column evaluator of the trees of :func:`_trees`, ``BLOCK`` rows
    per call."""
    out = np.empty((len(X), 2))
    for s in range(0, len(X), BLOCK):
        out[s:s + BLOCK] = both(X[s:s + BLOCK], T[s:s + BLOCK])
    return out[:, 0], out[:, 1]


def _time_label(t) -> str:
    return f"t={float(t)!r}"


def _sample_label(x, t, clock=_time_label) -> str:
    return f"x={tuple(float(c) for c in x)}, {clock(t)}"


def _require_samples(count: int) -> None:
    if not count >= 1:
        raise InvalidArgumentError(f"need at least one sample, got {count}")


# --- scan reports ----------------------------------------------------------------

@dataclass(frozen=True)
class ScanConfig:
    """Scan resolution: Halton points in the ball x a time window.

    Raises :class:`InvalidArgumentError` unless ``t0`` is finite and
    ``time_span`` finite and non-negative; the scans also refuse an empty
    window when the system or the candidate depends on t.
    """

    points: int = 4096
    t0: float = 0.0
    time_span: float = 50.0

    def __post_init__(self):
        _check_window(self.t0, self.time_span)


def _check_window(t0: float, time_span: float,
                  time_dependent: bool = False) -> None:
    """Reject a non-finite or negative window, and, when the problem depends
    on t, one that is empty or whose midpoint rounds onto an end."""
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
    if time_dependent and not t0 < t0 + 0.5 * time_span < t0 + time_span:
        raise InvalidArgumentError(
            f"time span {time_span!r} is lost to rounding at t0 = {t0!r}")


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

    ``coefficient`` is the constant of a ``coefficient * ||x||^exponent``
    bound: a lower bound's fitted on the main window, decrescence's the
    largest ``|V|/||x||^2`` on the main window and the ladder.  When the
    bound depends on t, ``trend`` reads it on the window ladder
    (:func:`_ladder`; else 1.0): a lower bound's least constant there over
    ``coefficient`` (decaying below ``TREND_FLOOR``), or decrescence's
    largest ``|V|/||x||^2`` there over the main window's (growing above
    ``GROWTH_LIMIT``).
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


def _scan_points(n: int, radius: float, scan: ScanConfig, time_dep: bool):
    """The samples of a direct-method scan: ball points (whose messages
    cover the radii no ball can take), then the radius floor, then Halton
    times on the window (``t0`` when ``time_dep`` is False)."""
    X = ball_points(scan.points, n, radius, exclude=1e-9 * radius)
    if radius < MIN_SCAN_RADIUS:
        raise InvalidArgumentError(
            f"radius {radius!r} is too small: ||x||^4 underflows near the "
            f"origin (the scans need at least {MIN_SCAN_RADIUS:.3g})")
    if time_dep:
        return X, scan.t0 + scan.time_span * halton(scan.points, 1,
                                                    start=11)[:, 0]
    return X, np.full(scan.points, scan.t0)


def _direct_scan(v: CandidateV, n: int, radius: float, scan: ScanConfig,
                 time_dep: bool, at_origin, evaluate, clock=_time_label,
                 zero: str | None = "t"):
    """The sampled scan of every direct-method ladder, continuous or
    discrete: ``(X, norms, V, D, ladder)`` on the samples ``X`` of
    :func:`_scan_points`, with their norms.

    Checks come first: the sample count, the dimension, the window,
    ``at_origin()`` (the equilibrium or fixed-point check) and, unless
    ``zero`` is None, ``V(0, zero) = 0`` at 16 times of the window.  Then
    ``evaluate(X, T)`` gives V and its rate D (Vdot, or Delta V) under
    :func:`~stabkit.expr.strict_rows`, V first; ``clock`` labels a sample's
    time.  ``ladder`` is :func:`_ladder` of ``evaluate`` if ``time_dep``,
    else ``(None, None, "")``.
    """
    _require_samples(scan.points)
    if v.max_state_index() > n:
        raise DimensionMismatchError(
            "candidate references state variables beyond the system dimension")
    _check_window(scan.t0, scan.time_span, time_dep)
    at_origin()
    if zero is not None:
        times = np.linspace(scan.t0, scan.t0 + scan.time_span, 16)
        if np.abs(_origin_values(v.values, n, times, clock)).max() > 1e-9:
            raise InvalidCandidateError(
                f"candidate must satisfy V(0, {zero}) = 0")
    X, T = _scan_points(n, radius, scan, time_dep)
    v_vals, d_vals = ex.strict_rows(
        lambda r: evaluate(X[r], T[r]), len(X),
        lambda k: _sample_label(X[k], T[k], clock),
        prior=(lambda r: v.values(X[r], T[r]),))
    return X, column_norms(X.T), v_vals, d_vals, \
        _ladder(evaluate, X, T, scan) if time_dep else (None, None, "")


def _ladder(evaluate, X, T, scan: ScanConfig):
    """``(V, D, stop)``: V and its rate D, ``(windows, points)``, at the
    first ``LADDER_POINTS`` samples with their times moved to the windows
    ``[t0 + S(10^k - 1), t0 + S 10^k]``, k = 1 .. ``LADDER_DEPTH``, after
    ``[t0, t0 + S]``, in one ``evaluate(X, T)``.  If some time leaves float
    range or some row fails to evaluate, no window counts: V and D are
    empty and the note ``stop`` says why (else it is "")."""
    m = min(LADDER_POINTS, len(X))
    with np.errstate(over="ignore"):
        times = (T[:m] + scan.time_span * (
            10.0 ** np.arange(1, LADDER_DEPTH + 1) - 1.0)[:, None]).ravel()
    try:
        if not np.isfinite(times).all():
            raise DomainError("its times leave float range")
        v, d = evaluate(np.tile(X[:m], (LADDER_DEPTH, 1)), times)
        return v.reshape(-1, m), d.reshape(-1, m), ""
    except DomainError as exc:
        end = scan.t0 + scan.time_span * 10.0 ** LADDER_DEPTH
        return np.empty((0, m)), np.empty((0, m)), (
            f"the window ladder up to t={end!r} fails to evaluate "
            f"({exc.reason}): uniformity in t is not established")


def _scan(sys: SystemDef, v: CandidateV, radius: float, scan: ScanConfig,
          zero: str | None):
    """:func:`_direct_scan` of V and Vdot along the trajectories of ``sys``,
    then the Vdot tree: :func:`_trees` is built and compiled once, after
    the checks."""
    sys.check_undelayed("a candidate scan")

    @functools.cache
    def built():
        trees = _trees(sys, v)
        return trees[1], ex.compile_expr_vec(trees)

    return (*_direct_scan(
        v, sys.dimension, radius, scan, _time_dependent(sys, v),
        lambda: _check_origin_equilibrium(sys, scan),
        lambda X, T: _batch_values(built()[1], X, T), zero=zero), built()[0])


def _above_floor(values: np.ndarray) -> bool:
    """Is some value above the sign floor ``1e-9 * (1 + max|values|)``?"""
    return bool(values.max() > 1e-9 * (1.0 + np.abs(values).max()))


def _sign_test(d_vals: np.ndarray, norms: np.ndarray, X: np.ndarray,
               late=None, stop: str = "") -> tuple[SignVerdict, Probe | None]:
    """The sign of a rate D that should be <= 0: indefinite when some
    sample is above the floor, of the main window or, if D depends on t, of
    the window ladder (``late``: D there), else negative definite with the
    margin :func:`_fit_lower_bound` of -D when it is established, else
    semidefinite."""
    if any(_above_floor(d) for d in (d_vals, late)
           if d is not None and d.size):
        return SignVerdict.INDEFINITE, None
    margin = _fit_lower_bound(-d_vals, norms, X,
                              None if late is None else -late, stop)
    if margin.established:
        return SignVerdict.NEGATIVE_DEFINITE, margin
    return SignVerdict.NEGATIVE_SEMIDEFINITE, None


def _fit_lower_bound(values: np.ndarray, norms: np.ndarray, X: np.ndarray,
                     late=None, stop: str = "") -> Probe:
    """Fit values >= kappa * ||x||^p on the samples, with margin: the first
    exponent p of (2, 4) whose least ratio keeps ``MARGIN`` of the median
    and, for a bound that depends on t, whose least ratio on the window
    ladder (``late``: the values there; ``trend``: that ratio over kappa)
    keeps ``TREND_FLOOR``.  A ladder that failed (``stop``, its note)
    establishes no such bound."""
    held = None
    for p in (2, 4):
        ratios = values / norms**p
        kappa = float(ratios.min())
        # compare the worst ratio against the typical one: ratios can be
        # unbounded above near the origin, so the max is no reference
        typical = float(np.median(ratios))
        if not (kappa > 0.0 and typical > 0.0 and kappa > MARGIN * typical):
            continue
        trend = 1.0 if late is None or stop else float(
            (late / norms[:late.shape[1]]**p).min()) / kappa
        note = "" if late is None else stop or (
            "bound decays across the window ladder" if trend < TREND_FLOOR
            else "")
        probe = Probe(not note, p, kappa, trend,
                      tuple(X[int(ratios.argmin())]), note)
        if probe.established:
            return probe
        held = held or probe
    worst = int((values / norms**2).argmin())
    return held or Probe(False, None, None, 1.0, tuple(X[worst]),
                         "no sampled power bound with margin")


def _decrescent(v_vals: np.ndarray, norms: np.ndarray, X: np.ndarray,
                late: np.ndarray, stop: str) -> Probe:
    """Is sup_t |V| dominated by a time-free quadratic?  The largest
    ``|V| / ||x||^2`` on the window ladder (``late``: V there) may exceed
    the main window's by at most ``GROWTH_LIMIT``."""
    main = np.abs(v_vals) / norms**2
    top = (np.abs(late) / norms[:late.shape[1]]**2).max(axis=0, initial=0.0)
    growth = float(top.max()) / max(float(main.max()), np.finfo(float).tiny)
    grows = growth > GROWTH_LIMIT
    top = main if growth <= 1.0 else top  # where the largest ratio lies
    return Probe(not (grows or stop), 2, float(top.max()), growth,
                 tuple(X[int(top.argmax())]), stop or (
                     "sup_t V grows across the window ladder; no time-free "
                     "upper bound" if grows else ""))


def _origin_values(fn, n: int, times: np.ndarray,
                   clock=_time_label) -> np.ndarray:
    zero = np.zeros((len(times), n))
    return ex.strict_rows(lambda r: fn(zero[r], times[r]), len(times),
                          lambda k: clock(times[k]))


def _check_origin_equilibrium(sys: SystemDef, scan: ScanConfig) -> None:
    times = np.linspace(scan.t0, scan.t0 + scan.time_span, 16) \
        if not sys.is_autonomous() else np.array([scan.t0])
    f0 = _origin_values(sys.batch_field, sys.dimension, times)
    worst = float(np.linalg.norm(f0, axis=1).max())
    if worst >= 1e-9:
        raise NotAnEquilibriumError(
            f"||f(0, t)|| reaches {worst:.3e}; origin is not an equilibrium")


def _w3_quadratic_minors(n: int, vdot: ex.Expr,
                         t0: float) -> tuple[float, ...] | None:
    """Leading minors of the quadratic form of -Vdot(., t0) at 0 in R^n,
    half its exact Hessian there (:func:`~stabkit.expr.hessian`, one jet
    evaluation of the tree); None where a second derivative tree of Vdot
    would fail there."""
    try:
        h = ex.hessian(vdot, np.zeros(n), t0)
    except DomainError:
        return None
    return tuple(float(m) for m in linalg.principal_minors(-0.5 * h))


def _radial_probe(v: CandidateV, n: int, t0: float, radius: float) -> bool:
    """Does V grow without bound along rays out to radius 1e3?  A ray whose
    V grows and then leaves float range counts as unbounded.  One call when
    no point fails; else radius by radius over the rays not yet failed, and
    ray by ray at a radius whose call fails."""
    dirs = sphere_directions(32, n)
    radii = np.array([max(radius, 1.0), 10.0, 100.0, 1000.0])
    points = dirs[:, None, :] * radii[:, None]  # (rays, radii, n)
    failed = np.zeros(points.shape[:2], dtype=bool)
    try:
        return _radial_verdict(v.values(points.reshape(-1, n), t0).reshape(
            failed.shape), failed)
    except DomainError:
        values = np.zeros(failed.shape)
    for j in range(len(radii)):
        alive = np.flatnonzero(~failed.any(axis=1))
        try:
            values[alive, j] = v.values(points[alive, j], t0)
            continue
        except DomainError:
            if j < 2:  # a ray failing this early never grew
                return False
        for i in alive:
            try:
                values[i, j] = v.values(points[i, j][None], t0)[0]
            except DomainError:
                failed[i, j] = True
    return _radial_verdict(values, failed)


def _radial_verdict(values: np.ndarray, failed: np.ndarray) -> bool:
    """:func:`_radial_probe` on its ``(rays, radii)`` V values and failures:
    a failing ray must grow up to its first failure, two radii at least, and
    any other must be nondecreasing and reach 100 times its first value."""
    first = failed.argmax(axis=1)  # the first failing radius, or 0
    last = values[np.arange(len(values)), np.maximum(first - 1, 0)]
    grew = (first >= 2) & (last > values[:, 0])
    steady = ~((values[:, 1:] < values[:, :-1]).any(axis=1)
               | (values[:, -1] < 100.0 * np.maximum(values[:, 0], 1e-12)))
    return bool(np.where(failed.any(axis=1), grew, steady).all())


def check_candidate(sys: SystemDef, v: CandidateV, radius: float = 1.0,
                    scan: ScanConfig = ScanConfig()) -> LyapunovReport:
    """Check a candidate V on a ball around the origin.

    Requires the origin to be an equilibrium and V(0, t) = 0.  The verdict
    ladder (stable / uniformly stable / uniformly asymptotically stable /
    exponentially stable) follows Khalil, *Nonlinear Systems*, Thms
    4.8-4.10: sampled positive definiteness of V, the sign of Vdot along
    trajectories, decrescence, and for the exponential rung V and -Vdot
    fitted at exponent 2 with the exact ``w3_minors`` (-Vdot at 0 and t0)
    all positive.  Each of these bounds that depends on t holds uniformly
    only if it also holds on the window ladder (:func:`_ladder`, out to t0
    plus 1000 spans), where Vdot must not be positive either; a ladder
    that fails to evaluate is noted.  Uniform labels are only used when the
    dynamics are time-dependent; for autonomous systems uniformity is
    vacuous and the plain labels of the autonomous theory are reported.
    """
    X, norms, v_vals, vd_vals, (late_v, late_d, stop), vdot = _scan(
        sys, v, radius, scan, "t")
    late_v = late_v if v.time_dependent else None
    v_positive = _fit_lower_bound(v_vals, norms, X, late_v, stop)
    notes = [] if late_d is None else [
        "definiteness over unbounded t approximated on a finite window "
        f"[{scan.t0}, {scan.t0 + scan.time_span}]", *[stop] * bool(stop)]
    vdot_verdict, vdot_margin = _sign_test(vd_vals, norms, X, late_d, stop)
    decrescent = Probe(True, 2, None, 1.0, None, "time-invariant candidate") \
        if late_v is None else _decrescent(v_vals, norms, X, late_v, stop)
    radial = _radial_probe(v, sys.dimension, scan.t0, radius)
    w3 = None
    if vdot_verdict is SignVerdict.NEGATIVE_DEFINITE:
        w3 = _w3_quadratic_minors(sys.dimension, vdot, scan.t0)

    conclusion = Conclusion.NO_CONCLUSION
    if v_positive.established and vdot_verdict is not SignVerdict.INDEFINITE:
        if vdot_verdict is SignVerdict.NEGATIVE_SEMIDEFINITE:
            conclusion = (Conclusion.UNIFORMLY_STABLE
                          if not sys.is_autonomous() and decrescent.established
                          else Conclusion.STABLE)
        elif not decrescent.established:
            # the asymptotic upgrade needs decrescence (automatic for a
            # time-free candidate); a negative derivative alone only pins
            # plain stability
            conclusion = Conclusion.STABLE
        elif v_positive.exponent == vdot_margin.exponent == 2 and w3 \
                and min(w3) > 0.0:
            conclusion = Conclusion.EXPONENTIALLY_STABLE
        else:
            conclusion = Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE

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
        worst_vdot=float(vd_vals.max()),
        notes=tuple(notes),
    )


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
    X, norms, w_vals, wd_vals, (_, late_d, stop), _ = _scan(
        sys, w, radius, scan, None)
    times = np.linspace(scan.t0, scan.t0 + scan.time_span, 8)
    w_zero = bool(np.abs(_origin_values(w.values, sys.dimension,
                                        times)).max() <= 1e-9)
    w_nonneg = not _above_floor(-w_vals)
    w_nontrivial = _above_floor(w_vals)
    wdot_pd = _sign_test(-wd_vals, norms, X, None if late_d is None else
                         -late_d, stop)[0] is SignVerdict.NEGATIVE_DEFINITE
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
        self._upper = np.triu_indices(n)  # row by row: errors name the first
        self._vec = ex.compile_expr_vec(
            [ex.bind(grid[i][j], self.params) for i, j in zip(*self._upper)])
        self.time_dependent = any(
            ex.reads_time(e, self.params) for row in self.entries for e in row)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def matrices(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """The ``(N, n, n)`` coefficient matrices at the rows ``(X[k], T[k])``."""
        n = self.dimension
        out = np.empty((len(X), n, n))
        i, j = self._upper
        out[:, i, j] = out[:, j, i] = self._vec(X, T)
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
        xs, ts = X.T[:, r // len(times)].T, times[r % len(times)]

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
                      directions: int = 512) -> float:
    """Largest c <= cmax whose sublevel set {x'Px <= c} has Vdot < 0 throughout.

    Every level set {V = c'} on a ladder below c is sampled along Halton
    directions (points within 1e-6 of the origin excluded); bisection runs
    40 rounds.  The region certified by one quadratic V is in
    general only part of the true domain of attraction.  Raises
    :class:`NoRegionError` when violations appear arbitrarily close to the
    origin.  Raises :class:`InvalidArgumentError` unless ``levels`` and
    ``directions`` are at least 1, ``cmax`` is finite and positive and the
    system is autonomous (a sublevel set of a time-free V bounds no
    trajectory of a field that reads t or a delay), and
    :class:`SampleCapError` when ``levels * directions`` exceeds
    ``SAMPLE_CAP``.

    The ladder is checked in batches of levels (``BLOCK`` sample rows per
    call) of ``(n, levels, directions)`` components; a :class:`DomainError`
    names the first level that meets it, unless a lower level already fails
    the check.
    """
    if levels < 1 or directions < 1:
        raise InvalidArgumentError(
            f"need levels >= 1 and directions >= 1, got {levels} and "
            f"{directions}")
    _cap_samples(levels * directions, "levels x directions")
    if not (np.isfinite(cmax) and cmax > 0.0):
        raise InvalidArgumentError(f"cmax must be finite and > 0, got {cmax!r}")
    if not sys.is_autonomous():
        raise InvalidArgumentError(
            "attraction regions need an autonomous system: this one reads t "
            "or has delays")
    pm = linalg.as_matrix(p, square=True)
    if not linalg.definiteness(pm).is_positive_definite:
        raise InvalidArgumentError("P must be positive definite")
    _check_origin_equilibrium(sys, ScanConfig())
    vdot = ex.compile_expr_vec(_trees(sys, CandidateV.quadratic(pm))[1])
    dirs = sphere_directions(directions, sys.dimension)
    quad = np.einsum("ij,jk,ik->i", dirs, pm, dirs)  # d'Pd per direction
    cols = dirs.T[:, None, :]  # (n, 1, directions), C-contiguous
    per = max(1, BLOCK // directions)  # levels per batch

    def passes(c: float) -> bool:
        for first in range(1, levels + 1, per):
            ladder = np.arange(first, min(first + per, levels + 1))

            def negative(r) -> bool:  # Vdot < 0 on the levels ladder[r]
                X = (cols * np.sqrt(c * ladder[r, None] / levels / quad)
                     ).reshape(len(cols), -1)
                away = column_norms(X) > 1e-6
                if not away.all():
                    X = X[:, away]
                return bool(np.all(vdot(X.T, 0.0) < 0.0))

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
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)
