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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
    LinearTimeVarying,
    Nonlinear,
    SystemDef,
    Trajectory,
    _at,
    _delay_coefficients,
    _linear_coefficient,
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


def _check_delay_system(sys: SystemDef) -> None:
    if not sys.delays:
        raise InvalidArgumentError("alpha certificates need a delay system; "
                                   "this system has no delays")
    if isinstance(sys.rhs, Nonlinear):
        raise InvalidArgumentError("alpha certificates need a linear "
                                   "right-hand side")


def _coefficients(sys: SystemDef) -> list:
    """``[A0, A_1, ..., A_m]`` as arrays or compiled grids ``t -> A(t)``,
    which evaluate a whole array of times in one call."""
    _check_delay_system(sys)
    return [_linear_coefficient(sys), *_delay_coefficients(sys)]


def _varies(sys: SystemDef) -> bool:
    """Whether ``A0`` or any ``A_i`` depends on t."""
    return isinstance(sys.rhs, LinearTimeVarying) or any(
        not isinstance(d.coeff, np.ndarray) for d in sys.delays)


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
    a0, *coeffs = _coefficients(sys)
    eye = np.eye(sys.dimension)
    scales = [float(np.exp(alpha * d.lag)) for d in sys.delays]
    if not _varies(sys):
        return a0 + alpha * eye, [s * c for s, c in zip(scales, coeffs)]
    a0a = lambda t: _at(a0, t) + alpha * eye
    ais = [(lambda t, _c=c, _s=s: _s * _at(_c, t))
           for s, c in zip(scales, coeffs)]
    return a0a, ais


def _rde_defect(a0a: np.ndarray, aias: Sequence[np.ndarray], p: np.ndarray,
                pdot: np.ndarray | None, m: int) -> np.ndarray:
    n = p.shape[0]
    q = p + np.eye(n)
    out = a0a.T @ q + q @ a0a + m * np.eye(n)
    for aia in aias:
        out = out + q @ (aia @ aia.T) @ q
    if pdot is not None:
        out = out + pdot
    return out


def rde_residual(sys: SystemDef, alpha: float, p,
                 t_grid: tuple[float, float, int] = (0.0, 5.0, 80001)) -> float:
    """Defect norm of a claimed Riccati-equation solution.

    For constant ``p`` the algebraic equation is evaluated once; for a
    sampled P(t) the residual is the supremum of the defect spectral norm
    over interior grid nodes, with dP/dt by central differences.
    """
    _check_delay_system(sys)
    m = len(sys.delays)
    if isinstance(p, np.ndarray) and p.ndim == 2:
        pm = linalg.as_matrix(p, square=True)
        if _varies(sys):
            raise DimensionMismatchError(
                "time-varying system needs a sampled P(t)")
        a0a, aias = shifted_matrices(sys, alpha)
        return linalg.spectral_norm(_rde_defect(a0a, aias, pm, None, m))
    if callable(p):
        p = SampledMatrixFunction.from_callable(p, *t_grid)
    if not isinstance(p, SampledMatrixFunction):
        raise InvalidArgumentError(
            "p must be a matrix, callable, or SampledMatrixFunction")
    a0a, aias = shifted_matrices(sys, alpha)
    times = p.times[1:-1]
    n = sys.dimension
    eye = np.eye(n)
    q = p.values[1:-1] + eye
    qt = np.swapaxes(q, 1, 2)
    a0s = _at(a0a, times)
    defect = p.derivative() + np.swapaxes(a0s, -1, -2) @ q + q @ a0s + m * eye
    for aia in aias:
        ais = _at(aia, times)
        defect = defect + q @ (ais @ np.swapaxes(ais, -1, -2)) @ qt
    return float(np.linalg.svd(defect, compute_uv=False).max())


def solve_delay_lyapunov(a0, m: int) -> np.ndarray:
    """Solve ``A0' P + P A0 + m I = 0`` for the delay-count right-hand side."""
    a0m = linalg.as_matrix(a0, square=True)
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
    return eta + alpha * p_norm + 0.5 * m * growth * p_norm**2 * a_norm_sq


def max_alpha(eta: float, p_norm: float, a_norm_sq: float, m: int,
              h: float, hi: float = 100.0, tol: float = 1e-9) -> float | None:
    """Largest feasible rate in (0, hi], or None when none exists.

    The left side is strictly increasing in alpha (for positive p_norm), so
    bisection applies directly.
    """
    if rate_inequality_lhs(eta, p_norm, a_norm_sq, m, h, 0.0) > 0.0:
        return None
    if rate_inequality_lhs(eta, p_norm, a_norm_sq, m, h, hi) <= 0.0:
        return hi
    lo, up = 0.0, hi
    while up - lo > tol:
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


def rate_bound_inputs(sys: SystemDef, p,
                      t_grid: tuple[float, float, int] = SUP_GRID) -> RateInputs:
    """Compute (eta, ||P+I||, ||A||^2, m, h) for the rate inequality.

    A coefficient that varies with t enters through its supremum over the
    grid ``t_grid``; a constant one through its single value.
    """
    eye = np.eye(sys.dimension)
    a0, *coeffs = _coefficients(sys)
    times = np.linspace(*t_grid)
    eta = np.max(linalg.matrix_measure(_at(a0, times)))
    a_norm_sq = max(float(np.max(linalg.spectral_norm(_at(c, times))))**2
                    for c in coeffs)
    if isinstance(p, SampledMatrixFunction):
        p_norm = np.max(linalg.spectral_norm(p.values + eye))
    else:
        p_norm = linalg.spectral_norm(linalg.as_matrix(p, square=True) + eye)
    return RateInputs(float(eta), float(p_norm), float(a_norm_sq),
                      len(coeffs), sys.max_lag)


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


def envelope_cross_check(traj: Trajectory, alpha: float,
                         slack: float = 1e-9) -> EnvelopeFit:
    """Check a trajectory against a claimed rate.

    The coefficient is fitted on the first half of the window only and the
    bound is then required to hold over the whole of it, so a trajectory
    decaying slower than ``alpha`` fails.
    """
    norms = traj.norms()
    t1 = float(traj.times[-1])
    grow = norms * np.exp(alpha * traj.times)
    first = traj.times <= 0.5 * t1
    c = float(grow[first].max())
    verified = bool(np.all(norms <= c * np.exp(-alpha * traj.times) * (1 + slack)))
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
    if isinstance(p, SampledMatrixFunction):
        v = p.values
        lowest = np.linalg.eigvalsh(0.5 * (v + np.swapaxes(v, 1, 2)))[:, 0]
        return bool(np.all(lowest >= -1e-9))
    pm = linalg.as_matrix(p, square=True)
    return linalg.definiteness(pm).is_positive_semidefinite


def _lyapunov_defect(sys: SystemDef, p) -> float:
    m = len(sys.delays)
    eye = np.eye(sys.dimension)
    a0 = _coefficients(sys)[0]
    if isinstance(p, SampledMatrixFunction):
        pv = p.values[1:-1]
        a0s = _at(a0, p.times[1:-1])
        defect = p.derivative() + np.swapaxes(a0s, -1, -2) @ pv \
            + pv @ a0s + m * eye
        return float(np.linalg.svd(defect, compute_uv=False).max())
    pm = linalg.as_matrix(p, square=True)
    if callable(a0):
        raise DimensionMismatchError("time-varying system needs a sampled P(t)")
    return linalg.spectral_norm(a0.T @ pm + pm @ a0 + m * eye)


def certify(sys: SystemDef, alpha: float, route: CertificateRoute,
            p=None, history: HistoryFn | None = None, horizon: float = 20.0,
            residual_tol: float = 1e-6, step_target: float = 1e-3,
            rde_grid: tuple[float, float, int] = (0.0, 5.0, 80001),
            ) -> AlphaCertificate:
    """Assemble an alpha-stability certificate along the chosen route.

    ``p`` is the claimed certificate matrix: required for the residual
    routes, computed from the delay Lyapunov equation when omitted on the
    rate-inequality route (constant systems only).  With ``horizon > 0`` a
    trajectory cross-check is attached: the delay system is simulated from
    ``history`` (default: constant ones) and required to stay under a fitted
    ``c * exp(-alpha t)`` envelope.
    """
    linalg.check_nonnegative(alpha, "alpha")
    linalg.check_nonnegative(horizon, "horizon")
    linalg.check_nonnegative(residual_tol, "residual_tol")
    _check_delay_system(sys)
    inputs = None
    margin = None
    if route in (CertificateRoute.RDE, CertificateRoute.ALGEBRAIC_RDE):
        if p is None:
            raise InvalidArgumentError("residual routes verify a supplied P")
        if callable(p) and not isinstance(p, SampledMatrixFunction):
            p = SampledMatrixFunction.from_callable(p, *rde_grid)
        residual = rde_residual(sys, alpha, p, t_grid=rde_grid)
    elif route is CertificateRoute.RATE_INEQUALITY:
        if p is None:
            if _varies(sys):
                raise InvalidArgumentError(
                    "time-varying rate route verifies a supplied P(t)")
            p = solve_delay_lyapunov(sys.rhs.a, len(sys.delays))
        if callable(p) and not isinstance(p, SampledMatrixFunction):
            p = SampledMatrixFunction.from_callable(p, *rde_grid)
        residual = _lyapunov_defect(sys, p)
        inputs = rate_bound_inputs(sys, p)
        margin = rate_inequality_lhs(inputs.eta, inputs.p_norm,
                                     inputs.a_norm_sq, inputs.m, inputs.h,
                                     alpha)
    else:
        raise ValueError(f"unknown route {route!r}")
    p_kind = "sampled" if isinstance(p, SampledMatrixFunction) else "constant"

    check = None
    if horizon > 0.0:
        if history is None:
            history = HistoryFn.constant(np.ones(sys.dimension), sys.max_lag)
        h = dde_step([d.lag for d in sys.delays], step_target)
        traj = integrate_dde(sys, history, horizon, h)
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
