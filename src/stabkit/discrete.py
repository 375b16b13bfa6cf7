"""Discrete-time systems: iteration, Euler discretization, and the
discrete direct method.

The derivative of the continuous theory is replaced by the one-step
difference ``Delta V(x, k) = V(f(x, k), k+1) - V(x, k)`` (Kalman &
Bertram, "Second method of Lyapunov, II", *J. Basic Eng.* 1960): V's batch
evaluator at the update's batch evaluator, less V, each compiled once.
Classification by a candidate V runs on the continuous module's scan core
(``lyapunov._direct_scan`` and ``lyapunov._sign_test``): the same sampler,
checks, one-sided semantics and sign floor; this module supplies only the
fixed-point check and ``Delta V``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import expr as ex
from .errors import (DimensionMismatchError, InvalidArgumentError,
                     NotAFixedPointError)
from .lyapunov import (
    CandidateV,
    Probe,
    ScanConfig,
    SignVerdict,
    _direct_scan,
    _fit_lower_bound,
    _sign_test,
)
from .odeint import (
    ESCAPE_THRESHOLD,
    SystemDef,
    _cap_samples,
    _components,
    _params,
    _write_csv,
)
from .sampling import ball_points  # noqa: F401  (the perfbench tracer wraps it)

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
        self.update = _components(self.update, self.dimension, self.params,
                                  "update")
        self._bound = tuple(ex.bind(c, self.params) for c in self.update)

    @functools.cached_property  # compiled once, on first use
    def _fused(self):
        return ex.compile_vector(self._bound)

    @functools.cached_property
    def _batch(self):
        return ex.compile_expr_vec(self._bound)

    def steps(self, X: np.ndarray, k: float = 0.0) -> np.ndarray:
        """The update applied to every row of ``X`` (strict batch evaluation)."""
        return self._batch(X, k)


@dataclass(frozen=True)
class Orbit:
    """Iterates 0..K; truncated with ``escaped=True`` past the escape bound."""

    indices: np.ndarray
    states: np.ndarray
    escaped: bool

    def to_csv(self, target) -> None:
        """Write ``k,x1,...,xn`` rows at full precision."""
        _write_csv(target, "k", map(str, map(int, self.indices.tolist())),
                   self.states)


def euler_discretize(sys: SystemDef, T: float) -> DiscreteSystem:
    """First-order discretization ``x(k+1) = x(k) + T f(x(k), kT)``.

    The update trees are built from the field trees of ``sys``, whose
    parameters are bound, so the result has none; continuous time (``t``,
    or a ``k`` no parameter names) becomes ``T * k``.  Systems with delays
    raise :class:`InvalidArgumentError`.
    """
    if T <= 0:
        raise InvalidArgumentError("sampling period must be positive")
    sys.check_undelayed("euler_discretize")
    kt = ex.Binary("*", ex.Number(float(T)), ex.Var("k"))
    return DiscreteSystem(sys.dimension, tuple(
        ex.Binary("+", ex.Var(f"x{i + 1}"), ex.Binary(
            "*", ex.Number(float(T)), ex.bind(f, {"t": kt, "k": kt})))
        for i, f in enumerate(sys.field_trees)))


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
    """One-step difference of the candidate: ``V(f(x,k), k+1) - V(x, k)``
    at the state ``x`` (length ``sys.dimension``, else
    :class:`DimensionMismatchError`, as for a V that reads a state past it)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dimension,):
        raise DimensionMismatchError(f"x must have length {sys.dimension}")
    v.check_dimension(sys.dimension)
    return float(_delta(sys, v)(x[None], float(k))[0])


def _delta(sys: DiscreteSystem, v: CandidateV):
    """``Delta V`` as a batch evaluator ``f(X, k)``, ``k`` one step or one
    per row: V at the update of each row and step ``k + 1``, less V."""
    return lambda X, k: v.values(sys.steps(X, k), k + 1.0) - v.values(X, k)


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

    Requires the origin to be a fixed point of the update and V(0, k0) = 0
    (else :class:`InvalidCandidateError`).  On sampled ball points: V
    positive definite and ``Delta V <= 0`` gives stability; ``Delta V``
    negative definite (with sampled power margin) upgrades to asymptotic
    stability; anything else is no conclusion, with the same one-sided
    semantics and the same sign test as the continuous scans.  The default
    radius 0.3 matches the scale at which local sign analyses of cubic-term
    updates hold.  A :class:`DomainError` names the first failing sample of
    V, else of Delta V.
    """
    def fixed_point():
        zero = np.zeros((1, sys.dimension))
        if float(np.linalg.norm(sys.steps(zero, float(k0)))) > 1e-12:
            raise NotAFixedPointError(
                "update(0) != 0: origin is not a fixed point")

    X, norms, v_vals, d_vals, _ = _direct_scan(
        v, sys.dimension, radius,
        ScanConfig(points=samples, t0=float(k0), time_span=0.0), False,
        fixed_point, lambda: _delta(sys, v), lambda t: f"k={k0}", "k")
    v_positive = _fit_lower_bound(v_vals, norms, X)
    verdict, margin = _sign_test(d_vals, norms, X)
    if not v_positive.established or verdict is SignVerdict.INDEFINITE:
        conclusion, margin = DiscreteConclusion.NO_CONCLUSION, None
    elif verdict is SignVerdict.NEGATIVE_DEFINITE:
        conclusion = DiscreteConclusion.ASYMPTOTICALLY_STABLE
    else:
        conclusion = DiscreteConclusion.STABLE
    return DiscreteReport(conclusion, v_positive, margin,
                          float(d_vals.max()), samples, radius)
