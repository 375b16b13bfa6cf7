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

Certificates embed every scalar input, and optionally a simulated
trajectory cross-check of the claimed envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    ZeroTrajectoryError,
)
from .lyapunov import solve_lyapunov
from .odeint import (
    Delay,
    HistoryFn,
    SystemDef,
    LinearConstant,
    LinearTimeVarying,
    Trajectory,
    compile_matrix,
    dde_step,
    fold_constant_grid,
    integrate_dde,
)

__all__ = [
    "DelaySystem", "SampledMatrixFunction", "shifted_matrices", "rde_residual",
    "solve_delay_lyapunov", "rate_inequality_lhs", "max_alpha", "RateInputs",
    "rate_bound_inputs", "EnvelopeFit", "fit_envelope", "CertificateRoute",
    "AlphaCertificate", "certify",
]

#: default time grid for supremum scans over t >= 0
SUP_GRID = (0.0, 50.0, 4001)


@dataclass
class DelaySystem:
    """Linear multi-delay system; coefficients constant or expressions of t."""

    a0: object
    delays: tuple[tuple[float, object], ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self._sysdef = SystemDef(
            dimension=self._dim(),
            rhs=self._rhs(),
            delays=tuple(Delay(lag, coeff) for lag, coeff in self.delays),
            params=self.params,
        )
        self.a0 = self._sysdef.rhs.a if isinstance(self._sysdef.rhs, LinearConstant) \
            else self._sysdef.rhs.entries
        self.delays = tuple((d.lag, d.coeff) for d in self._sysdef.delays)
        if not self.delays:
            raise DimensionMismatchError("a delay system needs at least one delay")

    def _dim(self) -> int:
        return len(self.a0)

    def _rhs(self):
        if _is_numeric_grid(self.a0):
            return LinearConstant(np.asarray(self.a0, dtype=float))
        folded = fold_constant_grid(self.a0, self.params)
        if folded is not None:
            return LinearConstant(folded)
        return LinearTimeVarying(tuple(tuple(row) for row in self.a0))

    @property
    def dimension(self) -> int:
        return self._sysdef.dimension

    @property
    def m(self) -> int:
        return len(self.delays)

    @property
    def max_lag(self) -> float:
        return max(lag for lag, _ in self.delays)

    @property
    def time_varying(self) -> bool:
        return isinstance(self._sysdef.rhs, LinearTimeVarying) or \
            any(not isinstance(c, np.ndarray) for _, c in self.delays)

    def as_systemdef(self) -> SystemDef:
        return self._sysdef

    def a0_fn(self) -> Callable[[float], np.ndarray]:
        rhs = self._sysdef.rhs
        if isinstance(rhs, LinearConstant):
            a = rhs.a
            return lambda t: a
        return compile_matrix(rhs.entries, self.params)

    def delay_fns(self) -> list[Callable[[float], np.ndarray]]:
        return self._sysdef.delay_coeff_callables()


def _is_numeric_grid(grid) -> bool:
    if isinstance(grid, np.ndarray) and grid.dtype != object:
        return True
    try:
        return all(isinstance(v, (int, float)) for row in grid for v in row)
    except TypeError:
        return False


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


def shifted_matrices(sys: DelaySystem, alpha: float):
    """Rate-shifted coefficients ``A0 + alpha I`` and ``exp(alpha h_i) A_i``.

    Constant systems get arrays; time-varying ones get ``t -> ndarray``
    callables.  Exact arithmetic per the defining formulas.
    """
    _check_rate(alpha)
    n = sys.dimension
    eye = np.eye(n)
    if not sys.time_varying:
        a0a = np.asarray(sys.a0, dtype=float) + alpha * eye
        ais = [np.exp(alpha * lag) * np.asarray(c, dtype=float)
               for lag, c in sys.delays]
        return a0a, ais
    a0 = sys.a0_fn()
    fns = sys.delay_fns()
    a0a = lambda t: a0(t) + alpha * eye
    ais = [(lambda t, _f=f, _s=float(np.exp(alpha * lag)): _s * _f(t))
           for (lag, _), f in zip(sys.delays, fns)]
    return a0a, ais


def _check_rate(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise InvalidArgumentError(
            f"alpha must be finite and nonnegative, got {alpha!r}")


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


def rde_residual(sys: DelaySystem, alpha: float, p,
                 t_grid: tuple[float, float, int] = (0.0, 5.0, 80001)) -> float:
    """Defect norm of a claimed Riccati-equation solution.

    For constant ``p`` the algebraic equation is evaluated once; for a
    sampled P(t) the residual is the supremum of the defect spectral norm
    over interior grid nodes, with dP/dt by central differences.
    """
    m = sys.m
    if isinstance(p, np.ndarray) and p.ndim == 2:
        pm = linalg.as_matrix(p, square=True)
        if sys.time_varying:
            raise DimensionMismatchError(
                "time-varying system needs a sampled P(t)")
        a0a, aias = shifted_matrices(sys, alpha)
        return linalg.spectral_norm(_rde_defect(a0a, aias, pm, None, m))
    if callable(p):
        p = SampledMatrixFunction.from_callable(p, *t_grid)
    if not isinstance(p, SampledMatrixFunction):
        raise TypeError("p must be a matrix, callable, or SampledMatrixFunction")
    a0a, aias = shifted_matrices(sys, alpha)
    times = p.times[1:-1]
    n = sys.dimension
    eye = np.eye(n)
    q = p.values[1:-1] + eye
    qt = np.swapaxes(q, 1, 2)
    a0s = _stack(a0a, times)
    defect = p.derivative() + np.swapaxes(a0s, -1, -2) @ q + q @ a0s + m * eye
    for aia in aias:
        ais = _stack(aia, times)
        defect = defect + q @ (ais @ np.swapaxes(ais, -1, -2)) @ qt
    return float(np.linalg.svd(defect, compute_uv=False).max())


def _stack(matrix_or_fn, times: np.ndarray) -> np.ndarray:
    """A coefficient on a time grid: ``(N, n, n)``, or ``(n, n)`` if constant.

    Coefficient functions here are compiled grids (or constants), which
    evaluate a whole array of times in one call.
    """
    return matrix_or_fn(times) if callable(matrix_or_fn) else matrix_or_fn


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


def rate_bound_inputs(sys: DelaySystem, p,
                      t_grid: tuple[float, float, int] = SUP_GRID) -> RateInputs:
    """Compute (eta, ||P+I||, ||A||^2, m, h) for the rate inequality."""
    eye = np.eye(sys.dimension)
    if sys.time_varying:
        times = np.linspace(*t_grid)
        eta = np.max(linalg.matrix_measure(_stack(sys.a0_fn(), times)))
        a_norm_sq = max(
            float(np.max(linalg.spectral_norm(_stack(fn, times))))**2
            for fn in sys.delay_fns())
    else:
        eta = linalg.matrix_measure(np.asarray(sys.a0, dtype=float))
        a_norm_sq = max(linalg.spectral_norm(np.asarray(c, dtype=float))**2
                        for _, c in sys.delays)
    if isinstance(p, SampledMatrixFunction):
        p_norm = np.max(linalg.spectral_norm(p.values + eye))
    else:
        p_norm = linalg.spectral_norm(linalg.as_matrix(p, square=True) + eye)
    return RateInputs(float(eta), float(p_norm), float(a_norm_sq),
                      sys.m, sys.max_lag)


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


def _lyapunov_defect(sys: DelaySystem, p) -> float:
    m = sys.m
    n = sys.dimension
    if isinstance(p, SampledMatrixFunction):
        times = p.times[1:-1]
        pv = p.values[1:-1]
        a0s = _stack(sys.a0_fn() if sys.time_varying
                     else np.asarray(sys.a0, dtype=float), times)
        defect = p.derivative() + np.swapaxes(a0s, -1, -2) @ pv \
            + pv @ a0s + m * np.eye(n)
        return float(np.linalg.svd(defect, compute_uv=False).max())
    pm = linalg.as_matrix(p, square=True)
    a = np.asarray(sys.a0, dtype=float)
    return linalg.spectral_norm(a.T @ pm + pm @ a + m * np.eye(n))


def certify(sys: DelaySystem, alpha: float, route: CertificateRoute,
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
    _check_rate(alpha)
    inputs = None
    margin = None
    if route in (CertificateRoute.RDE, CertificateRoute.ALGEBRAIC_RDE):
        if p is None:
            raise ValueError("residual routes verify a supplied P")
        if callable(p) and not isinstance(p, SampledMatrixFunction):
            p = SampledMatrixFunction.from_callable(p, *rde_grid)
        residual = rde_residual(sys, alpha, p, t_grid=rde_grid)
        p_kind = "sampled" if isinstance(p, SampledMatrixFunction) else "constant"
    elif route is CertificateRoute.RATE_INEQUALITY:
        if p is None:
            if sys.time_varying:
                raise ValueError(
                    "time-varying rate route verifies a supplied P(t)")
            p = solve_delay_lyapunov(np.asarray(sys.a0, dtype=float), sys.m)
        if callable(p) and not isinstance(p, SampledMatrixFunction):
            p = SampledMatrixFunction.from_callable(p, *rde_grid)
        residual = _lyapunov_defect(sys, p)
        inputs = rate_bound_inputs(sys, p)
        margin = rate_inequality_lhs(inputs.eta, inputs.p_norm,
                                     inputs.a_norm_sq, inputs.m, inputs.h,
                                     alpha)
        p_kind = "sampled" if isinstance(p, SampledMatrixFunction) else "constant"
    else:
        raise ValueError(f"unknown route {route!r}")

    check = None
    if horizon > 0.0:
        lags = [lag for lag, _ in sys.delays]
        if history is None:
            history = HistoryFn.constant(np.ones(sys.dimension), max(lags))
        h = dde_step(lags, step_target)
        traj = integrate_dde(sys.as_systemdef(), history, horizon, h)
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
