"""Exponential envelopes and alpha-stability certificates for delay systems.

A linear multi-delay system ``x'(t) = A0(t) x(t) + sum_i A_i(t) x(t - h_i)``
is alpha-stable when every solution is bounded by ``c * exp(-alpha t)``.
Three certificate routes are implemented:

* ``RDE``: verify a supplied time-varying P(t) against the Riccati
  differential equation (residual check; the toolkit never solves the RDE,
  it only verifies exhibited solutions),
* ``ALGEBRAIC_RDE``: the same for a constant P,
* ``RATE_INEQUALITY``: solve the delay Lyapunov equation for P and certify
  the largest rate alpha satisfying the scalar inequality
  ``eta(A0) + alpha ||P+I|| + (m/2) e^(2 alpha h) ||P+I||^2 ||A||^2 <= 0``.

The system is a :class:`~stabkit.odeint.SystemDef` with a linear
right-hand side (constant ``A0`` or an expression grid ``A0(t)``) and at
least one delay; a ``delay`` definition file builds exactly that.  Every
entry point raises :class:`InvalidArgumentError` for any other system.
Certificates embed every scalar input, and optionally a simulated
trajectory cross-check of the claimed envelope.

Every residual comes from one kernel, ``_defect``: the Riccati form on the
``RDE`` routes, the rate form on ``RATE_INEQUALITY``, for constant and
sampled P alike.  A defect or rate inequality past float range reads inf
(an invalid certificate), never an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    ZeroTrajectoryError,
)
from .lyapunov import solve_lyapunov
from .odeint import (
    HistoryFn,
    SystemDef,
    Trajectory,
    _at,
    dde_step,
    integrate_dde,
)
from .odeint import compile_matrix  # noqa: F401  (the perfbench tracer wraps it)

__all__ = [
    "SampledMatrixFunction", "shifted_matrices", "rde_residual",
    "solve_delay_lyapunov", "rate_inequality_lhs", "max_alpha", "RateInputs",
    "rate_bound_inputs", "EnvelopeFit", "fit_envelope", "CertificateRoute",
    "AlphaCertificate", "certify",
]

#: default time grid for supremum scans over t >= 0
SUP_GRID = (0.0, 50.0, 4001)
#: default grid on which a callable P(t) is sampled
RDE_GRID = (0.0, 5.0, 80001)
#: relative slack of the trajectory cross-check's envelope
ENVELOPE_SLACK = 1e-9


def _check_delay_system(sys: SystemDef) -> None:
    if not sys.delays:
        raise InvalidArgumentError("alpha certificates need a delay system; "
                                   "this system has no delays")


def _varies(sys: SystemDef, delayed: bool = True) -> bool:
    """Whether ``A0`` (or, with ``delayed``, any ``A_i``) depends on t."""
    coeffs = [sys.rhs.a] + ([d.coeff for d in sys.delays] if delayed else [])
    return not all(isinstance(c, np.ndarray) for c in coeffs)


@dataclass(frozen=True)
class SampledMatrixFunction:
    """Matrix function sampled on a uniform grid, with finite-difference rate.

    The derivative uses central differences on interior nodes; endpoint
    samples carry no derivative and are skipped by residual scans.
    """

    times: np.ndarray
    values: np.ndarray  # (N, n, n)

    @classmethod
    def from_callable(cls, fn, t0: float, t1: float,
                      num: int) -> "SampledMatrixFunction":
        times = np.linspace(t0, t1, num)
        values = np.stack([np.asarray(fn(t), dtype=float) for t in times])
        return cls(times, values)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or len(t) < 3:
            raise DimensionMismatchError("need at least 3 samples")
        steps = np.diff(t)
        if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
            raise DimensionMismatchError("sample grid must be uniform ascending")
        if v.shape[0] != len(t) or v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise DimensionMismatchError("values must be (N, n, n)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def derivative(self) -> np.ndarray:
        """Central-difference dP/dt on interior nodes: shape (N-2, n, n)."""
        return (self.values[2:] - self.values[:-2]) / (2.0 * self.step)


def shifted_matrices(sys: SystemDef, alpha: float):
    """Rate-shifted coefficients ``A0 + alpha I`` and ``exp(alpha h_i) A_i``.

    Constant systems get arrays; time-varying ones get ``t -> ndarray``
    callables.  Exact arithmetic per the defining formulas.
    """
    linalg.check_nonnegative(alpha, "alpha")
    _check_delay_system(sys)
    a0, coeffs = sys.linear_coefficient, sys.delay_coefficients
    eye = np.eye(sys.dimension)
    scales = [float(np.exp(alpha * d.lag)) for d in sys.delays]
    if not _varies(sys):
        return a0 + alpha * eye, [s * c for s, c in zip(scales, coeffs)]
    a0a = lambda t: _at(a0, t) + alpha * eye
    ais = [(lambda t, _c=c, _s=s: _s * _at(_c, t))
           for s, c in zip(scales, coeffs)]
    return a0a, ais


def _as_p(p, n: int, grid: tuple[float, float, int] = RDE_GRID):
    """A claimed ``n x n`` P as a :class:`SampledMatrixFunction` (a callable
    is sampled on ``grid``) or a finite square matrix."""
    p = SampledMatrixFunction.from_callable(p, *grid) if callable(p) else p
    sampled = isinstance(p, SampledMatrixFunction)
    m = p.values if sampled else linalg.as_matrix(p)
    if m.shape[-1] != n:
        raise DimensionMismatchError(
            f"P must be {n}x{n}, got {m.shape[-1]}x{m.shape[-1]}")
    return p if sampled else m


def _defect(sys: SystemDef, p, alpha: float | None = None) -> float:
    """Largest spectral norm of ``Pdot + A0'Q + Q A0 + m I (+ sum_i Q A_i
    A_i' Q')`` over the nodes of P: a sampled P's interior nodes and its
    central-difference Pdot, or a constant P as one node with Pdot = 0.
    With ``alpha``, the Riccati form: Q = P + I, shifted A0 and A_i, the sum;
    else the rate form: Q = P and A0.  A non-finite defect gives inf."""
    sampled = isinstance(p, SampledMatrixFunction)
    if not sampled and _varies(sys, delayed=alpha is not None):
        raise DimensionMismatchError("time-varying system needs a sampled P(t)")
    a0, ais = (sys.linear_coefficient, []) if alpha is None else \
        shifted_matrices(sys, alpha)
    eye = np.eye(sys.dimension)
    with np.errstate(over="ignore", invalid="ignore"):
        times, q, d = (p.times[1:-1], p.values[1:-1], p.derivative()) \
            if sampled else (None, p[None], 0.0)
        q = q if alpha is None else q + eye
        a0s = _at(a0, times)
        d = d + np.swapaxes(a0s, -1, -2) @ q + q @ a0s + len(sys.delays) * eye
        for ai in ais:
            a = _at(ai, times)
            d = d + q @ (a @ np.swapaxes(a, -1, -2)) @ np.swapaxes(q, -1, -2)
    if not np.all(np.isfinite(d)):
        return math.inf
    return linalg.spectral_norm(d)


def rde_residual(sys: SystemDef, alpha: float, p,
                 t_grid: tuple[float, float, int] = RDE_GRID) -> float:
    """Defect norm of a claimed Riccati-equation solution.

    For constant ``p`` the algebraic equation is evaluated once; for a
    sampled P(t) the residual is the supremum of the defect spectral norm
    over interior grid nodes, with dP/dt by central differences.
    """
    _check_delay_system(sys)
    return _defect(sys, _as_p(p, sys.dimension, t_grid), alpha)


def solve_delay_lyapunov(a0, m: int) -> np.ndarray:
    """Solve ``A0' P + P A0 + m I = 0`` for the delay-count right-hand side."""
    a0m = linalg.as_matrix(a0)
    return solve_lyapunov(a0m, m * np.eye(a0m.shape[0]))


def rate_inequality_lhs(eta: float, p_norm: float, a_norm_sq: float,
                        m: int, h: float, alpha: float) -> float:
    """Left side of the convergence-rate inequality; feasible iff <= 0."""
    if p_norm == 0.0 or a_norm_sq == 0.0:  # no delayed feedback term
        return eta + alpha * p_norm
    try:
        growth = math.exp(2.0 * alpha * h)
    except OverflowError:  # too large a rate: the left side is +inf
        growth = math.inf
    square = p_norm * p_norm  # saturates to inf where ** would raise
    return eta + alpha * p_norm + 0.5 * m * growth * square * a_norm_sq


def max_alpha(eta: float, p_norm: float, a_norm_sq: float, m: int,
              h: float) -> float | None:
    """Largest feasible rate in (0, 100], to 1e-9, or None when none exists.

    The left side is strictly increasing in alpha (for positive p_norm), so
    bisection applies directly.
    """
    if rate_inequality_lhs(eta, p_norm, a_norm_sq, m, h, 0.0) > 0.0:
        return None
    if rate_inequality_lhs(eta, p_norm, a_norm_sq, m, h, 100.0) <= 0.0:
        return 100.0
    lo, up = 0.0, 100.0
    while up - lo > 1e-9:
        mid = 0.5 * (lo + up)
        if rate_inequality_lhs(eta, p_norm, a_norm_sq, m, h, mid) <= 0.0:
            lo = mid
        else:
            up = mid
    return lo


@dataclass(frozen=True)
class RateInputs:
    """Scalar ingredients of the rate inequality, as computed by the pipeline."""

    eta: float          # matrix measure of A0 (sup over t when time-varying)
    p_norm: float       # sup ||P(t) + I||
    a_norm_sq: float    # max_i sup_t ||A_i(t)||^2
    m: int
    h: float


def rate_bound_inputs(sys: SystemDef, p) -> RateInputs:
    """Compute (eta, ||P+I||, ||A||^2, m, h) for the rate inequality.

    A coefficient that varies with t enters through its supremum over the
    grid ``SUP_GRID``; a constant one through its single value.
    """
    _check_delay_system(sys)
    times = np.linspace(*SUP_GRID)
    eta = linalg.matrix_measure(_at(sys.linear_coefficient, times))
    a_norm = max(linalg.spectral_norm(_at(c, times))
                 for c in sys.delay_coefficients)
    a_norm_sq = a_norm * a_norm  # saturates to inf where ** raises
    pv = _as_p(p, sys.dimension)
    pv = pv.values if isinstance(pv, SampledMatrixFunction) else pv
    p_norm = linalg.spectral_norm(pv + np.eye(sys.dimension))
    return RateInputs(eta, p_norm, a_norm_sq,
                      len(sys.delays), sys.max_lag)


# --- envelopes --------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeFit:
    """Exponential envelope ``||x(t)|| <= coefficient * exp(-rate * t)``."""

    coefficient: float
    rate: float
    verified: bool
    window: tuple[float, float]


def fit_envelope(traj: Trajectory, t_lo: float | None = None) -> EnvelopeFit:
    """Fit a decay envelope to a trajectory.

    The rate is the negated least-squares slope of ``log ||x(t)||`` on
    ``[t_lo, end]`` (default: drop the first 10% as transient); the
    coefficient is the supremum of ``||x(t)|| exp(+rate t)`` over the window,
    making the bound tight and true by construction.  ``verified`` is False
    when the fitted slope is not negative.
    """
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    if t_lo is None:
        t_lo = t0 + 0.1 * (t1 - t0)
    mask = traj.times >= t_lo
    times = traj.times[mask]
    norms = traj.norms()[mask]
    if len(times) < 2 or np.any(norms <= 0.0):
        raise ZeroTrajectoryError("trajectory vanishes on the fit window")
    slope = np.polyfit(times, np.log(norms), 1)[0]
    rate = -float(slope)
    coefficient = float(np.max(norms * np.exp(rate * times)))
    return EnvelopeFit(coefficient, rate, rate > 0.0, (float(t_lo), t1))


def envelope_cross_check(traj: Trajectory, alpha: float) -> EnvelopeFit:
    """Check a trajectory against a claimed rate.

    The coefficient is fitted on the first half of the window only and the
    bound is then required to hold over the whole of it, so a trajectory
    decaying slower than ``alpha`` fails.
    """
    norms = traj.norms()
    t1 = float(traj.times[-1])
    # an envelope past float range (alpha * t beyond ~709) verifies nothing
    with np.errstate(over="ignore", invalid="ignore"):
        grow = norms * np.exp(alpha * traj.times)
        first = traj.times <= 0.5 * t1
        c = float(grow[first].max())
        verified = math.isfinite(c) and bool(np.all(
            norms <= c * np.exp(-alpha * traj.times) * (1 + ENVELOPE_SLACK)))
    return EnvelopeFit(c, alpha, verified, (float(traj.times[0]), t1))


# --- certificates -----------------------------------------------------------------

class CertificateRoute(Enum):
    RDE = "rde"
    ALGEBRAIC_RDE = "algebraic-rde"
    RATE_INEQUALITY = "rate-inequality"


@dataclass(frozen=True)
class AlphaCertificate:
    alpha: float
    route: CertificateRoute
    residual: float
    residual_tol: float
    p_semidefinite: bool
    inequality_margin: float | None
    inputs: RateInputs | None
    trajectory_check: EnvelopeFit | None
    p_kind: str

    @property
    def valid(self) -> bool:
        ok = self.residual < self.residual_tol and self.p_semidefinite
        if self.route is CertificateRoute.RATE_INEQUALITY:
            ok = ok and self.inequality_margin is not None \
                and self.inequality_margin <= 0.0
        return ok


def _p_semidefinite(p) -> bool:
    if isinstance(p, SampledMatrixFunction):  # every node, by one band
        return bool(linalg.semidefinite_nodes(p.values).all())
    return linalg.definiteness(p).is_positive_semidefinite


def certify(sys: SystemDef, alpha: float, route: CertificateRoute,
            p=None, horizon: float = 20.0, residual_tol: float = 1e-6,
            rde_grid: tuple[float, float, int] = RDE_GRID) -> AlphaCertificate:
    """Assemble an alpha-stability certificate along the chosen route.

    ``p`` is the claimed certificate matrix: required for the residual
    routes, computed from the delay Lyapunov equation when omitted on the
    rate-inequality route (constant systems only).  With ``horizon > 0`` a
    trajectory cross-check is attached: the delay system is simulated from
    the constant history of ones and required to stay under a fitted
    ``c * exp(-alpha t)`` envelope.
    """
    linalg.check_nonnegative(alpha, "alpha")
    linalg.check_nonnegative(horizon, "horizon")
    linalg.check_nonnegative(residual_tol, "residual_tol")
    _check_delay_system(sys)
    route = CertificateRoute(route)  # ValueError for an unknown route
    rate = route is CertificateRoute.RATE_INEQUALITY
    if p is None and not rate:
        raise InvalidArgumentError("residual routes verify a supplied P")
    if p is None:
        if _varies(sys):
            raise InvalidArgumentError(
                "time-varying rate route verifies a supplied P(t)")
        p = solve_delay_lyapunov(sys.rhs.a, len(sys.delays))
    p = _as_p(p, sys.dimension, rde_grid)
    inputs = margin = None
    if rate:
        residual = _defect(sys, p)
        inputs = rate_bound_inputs(sys, p)
        margin = rate_inequality_lhs(inputs.eta, inputs.p_norm,
                                     inputs.a_norm_sq, inputs.m, inputs.h,
                                     alpha)
    else:
        residual = rde_residual(sys, alpha, p, t_grid=rde_grid)
    p_kind = "sampled" if isinstance(p, SampledMatrixFunction) else "constant"

    check = None
    if horizon > 0.0:
        history = HistoryFn.constant(np.ones(sys.dimension), sys.max_lag)
        traj = integrate_dde(sys, history, horizon,
                             dde_step([d.lag for d in sys.delays]))
        check = envelope_cross_check(traj, alpha)

    return AlphaCertificate(
        alpha=float(alpha),
        route=route,
        residual=float(residual),
        residual_tol=residual_tol,
        p_semidefinite=_p_semidefinite(p),
        inequality_margin=None if margin is None else float(margin),
        inputs=inputs,
        trajectory_check=check,
        p_kind=p_kind,
    )
