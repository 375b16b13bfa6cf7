"""Discrete-time systems: iteration, Euler discretization, and the
discrete direct method.

The derivative of the continuous theory is replaced by the one-step
difference ``Delta V(x, k) = V(f(x, k), k+1) - V(x, k)``; classification by
a candidate V follows the same one-sided sampling semantics as the
continuous module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import expr as ex
from .errors import (DimensionMismatchError, InvalidArgumentError,
                     NotAFixedPointError)
from .lyapunov import (
    BLOCK,
    CandidateV,
    Probe,
    ScanConfig,
    _fit_lower_bound,
    _require_dimension,
    _require_samples,
)
from .odeint import (
    ESCAPE_THRESHOLD,
    LinearConstant,
    Nonlinear,
    SystemDef,
    _cap_samples,
    _params,
    _write_csv,
)
from .sampling import ball_points

__all__ = [
    "DiscreteSystem", "Orbit", "euler_discretize", "iterate", "delta_v",
    "DiscreteConclusion", "DiscreteReport", "classify_discrete",
]


@dataclass
class DiscreteSystem:
    """Update map ``x(k+1) = f(x(k), k)``, one expression per component."""

    dimension: int
    update: tuple[ex.Expr, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = _params(self.params)
        comps = tuple(ex.as_expr(c, set(self.params)) for c in self.update)
        if len(comps) != self.dimension:
            raise DimensionMismatchError(
                f"need {self.dimension} update expressions, got {len(comps)}")
        for c in comps:
            if ex.max_state_index(c) > self.dimension:
                raise DimensionMismatchError(
                    f"update {ex.to_string(c)!r} references a state variable "
                    f"beyond dimension {self.dimension}")
        self.update = comps
        self._fused = ex.compile_vector(comps, self.params)
        self._vec = None

    def step(self, x, k: float = 0.0) -> np.ndarray:
        return np.array(self._fused(np.asarray(x, dtype=float).tolist(),
                                    float(k)))

    def steps(self, X: np.ndarray, k: float = 0.0) -> np.ndarray:
        """The update applied to every row of ``X`` (strict batch evaluation)."""
        if self._vec is None:
            self._vec = [ex.compile_expr_vec(c, self.params) for c in self.update]
        return np.column_stack([fn(X, k) for fn in self._vec])


@dataclass(frozen=True)
class Orbit:
    """Iterates 0..K; truncated with ``escaped=True`` past the escape bound."""

    indices: np.ndarray
    states: np.ndarray
    escaped: bool

    def to_csv(self, target) -> None:
        """Write ``k,x1,...,xn`` rows at full precision."""
        _write_csv(target, "k", map(int, self.indices.tolist()), self.states)


def euler_discretize(sys: SystemDef, T: float) -> DiscreteSystem:
    """First-order discretization ``x(k+1) = x(k) + T f(x(k), kT)``.

    The update expressions are built structurally from the continuous
    right-hand side (no numeric evaluation); any occurrence of continuous
    time becomes ``k * T``.
    """
    if T <= 0:
        raise InvalidArgumentError("sampling period must be positive")
    comps = _component_exprs(sys)
    kt = ex.Binary("*", ex.Number(float(T)), ex.Var("k"))
    update = []
    for i, f in enumerate(comps):
        f = ex.substitute(f, "t", kt)
        update.append(ex.Binary("+", ex.Var(f"x{i + 1}"),
                                ex.Binary("*", ex.Number(float(T)), f)))
    return DiscreteSystem(sys.dimension, tuple(update), dict(sys.params))


def _component_exprs(sys: SystemDef) -> tuple[ex.Expr, ...]:
    rhs = sys.rhs
    if isinstance(rhs, Nonlinear):
        return rhs.components
    if isinstance(rhs, LinearConstant):
        out = []
        for i in range(sys.dimension):
            total: ex.Expr | None = None
            for j in range(sys.dimension):
                coeff = float(rhs.a[i, j])
                if coeff == 0.0:
                    continue
                term = ex.Binary("*", ex.Number(coeff), ex.Var(f"x{j + 1}"))
                total = term if total is None else ex.Binary("+", total, term)
            out.append(total if total is not None else ex.Number(0.0))
        return tuple(out)
    raise InvalidArgumentError(
        "euler_discretize needs a constant-linear or nonlinear system")


def iterate(sys: DiscreteSystem, x0, K: int) -> Orbit:
    """Apply the recurrence K times (at most ``SAMPLE_CAP`` states, as for
    a trajectory); truncate with a flag on escape."""
    if K < 0:
        raise InvalidArgumentError("iteration count must be nonnegative")
    _cap_samples(K + 1, "orbit")
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.dimension,):
        raise DimensionMismatchError(f"x0 must have length {sys.dimension}")
    states = np.empty((K + 1, sys.dimension))
    states[0] = x
    x = x.tolist()
    last = K
    for k in range(K):
        x = sys._fused(x, float(k))  # raises on a non-finite value
        if max(map(abs, x)) > ESCAPE_THRESHOLD:
            last = k
            break
        states[k + 1] = x
    return Orbit(np.arange(last + 1), states[:last + 1].copy(), last < K)


def delta_v(sys: DiscreteSystem, v: CandidateV, x, k: int = 0) -> float:
    """One-step difference of the candidate: ``V(f(x,k), k+1) - V(x, k)``."""
    return float(_batch_deltas(sys, v, np.asarray(x, dtype=float)[None], k)[1][0])


def _batch_deltas(sys: DiscreteSystem, v: CandidateV, X: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """V and Delta V at every row of ``X``, ``BLOCK`` rows per batch."""
    v_vals = np.empty(len(X))
    d_vals = np.empty(len(X))
    for s in range(0, len(X), BLOCK):
        x = X[s:s + BLOCK]
        v_vals[s:s + BLOCK] = v.values(x, float(k))
        after = v.values(sys.steps(x, float(k)), float(k + 1))
        d_vals[s:s + BLOCK] = after - v_vals[s:s + BLOCK]
    return v_vals, d_vals


class DiscreteConclusion(Enum):
    STABLE = "stable"
    ASYMPTOTICALLY_STABLE = "asymptotically-stable"
    NO_CONCLUSION = "no-conclusion"


@dataclass(frozen=True)
class DiscreteReport:
    conclusion: DiscreteConclusion
    v_positive: Probe
    delta_margin: Probe | None
    worst_delta: float
    samples: int
    radius: float


def classify_discrete(sys: DiscreteSystem, v: CandidateV, radius: float = 0.3,
                      samples: int = 2048, k0: int = 0) -> DiscreteReport:
    """Direct-method classification of the origin for a discrete system.

    Requires the origin to be a fixed point of the update.  On sampled ball
    points: V positive definite and ``Delta V <= 0`` gives stability;
    ``Delta V`` negative definite (with sampled power margin) upgrades to
    asymptotic stability; anything else is no conclusion, with the same
    one-sided semantics as the continuous scans.  The default radius 0.3
    matches the scale at which local sign analyses of cubic-term updates
    hold.  A :class:`DomainError` names the first failing sample of V, else
    of Delta V.
    """
    _require_samples(samples)
    _require_dimension(v, sys.dimension)
    zero = np.zeros((1, sys.dimension))
    if float(np.linalg.norm(sys.steps(zero, float(k0)))) > 1e-12:
        raise NotAFixedPointError("update(0) != 0: origin is not a fixed point")
    X = ball_points(samples, sys.dimension, radius, exclude=1e-9 * radius)
    T = np.full(samples, float(k0))
    norms = np.linalg.norm(X, axis=1)
    scan = ScanConfig(points=samples, t0=float(k0), time_span=0.0)
    v_vals, d_vals = ex.strict_rows(
        lambda r: _batch_deltas(sys, v, X[r], k0), samples,
        lambda i: f"x={tuple(float(c) for c in X[i])}, k={k0}",
        prior=(lambda r: v.values(X[r], float(k0)),))

    v_positive = _fit_lower_bound(v_vals, norms, T, False, scan, X)
    worst = float(d_vals.max())
    scale = float(np.abs(d_vals).max()) if len(d_vals) else 0.0
    delta_margin = None
    if not v_positive.established or worst > 1e-9 * (1.0 + scale):
        conclusion = DiscreteConclusion.NO_CONCLUSION
    else:
        margin = _fit_lower_bound(-d_vals, norms, T, False, scan, X)
        if margin.established:
            conclusion = DiscreteConclusion.ASYMPTOTICALLY_STABLE
            delta_margin = margin
        else:
            conclusion = DiscreteConclusion.STABLE
    return DiscreteReport(conclusion, v_positive, delta_margin, worst,
                          samples, radius)
