"""Stability of linear systems with periodic coefficients.

The fundamental matrix over one period (the monodromy matrix) carries the
whole story: its eigenvalues, the characteristic multipliers, decide
stability by their moduli against the unit circle.  Because the monodromy
matrix comes from numerical integration, every report carries an accuracy
check: the multiplier product must match the exponential of the integrated
trace (the Liouville formula), computed on an independent quadrature grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import expr as ex
from . import linalg
from .errors import DimensionMismatchError
from .odeint import LinearTimeVarying, SystemDef, compile_matrix, integrate_matrix

__all__ = [
    "PeriodicSystem", "PeriodicVerdict", "FloquetReport",
    "monodromy", "multipliers", "liouville_check", "classify_periodic",
    "floquet_report",
]


@dataclass
class PeriodicSystem:
    """``x' = P(t) x`` with entries periodic in t of fixed period.

    Periodicity is the caller's assertion; it is spot-checked on 16 sample
    times at tolerance 1e-9 during construction.
    """

    entries: tuple[tuple[ex.Expr, ...], ...]
    period: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        grid = tuple(tuple(ex.as_expr(e, set(self.params)) for e in row)
                     for row in self.entries)
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise DimensionMismatchError("coefficient matrix must be square")
        self.entries = grid
        self._at = compile_matrix(grid, self.params)
        self._spot_check_period()

    def _spot_check_period(self):
        ts = np.linspace(0.137, self.period, 16)
        # interleaved (t, t + T) so a domain error names the time the
        # time-by-time check would have reached first
        both = self._at(np.column_stack([ts, ts + self.period]).ravel())
        a, b = both[0::2], both[1::2]
        gaps = np.linalg.norm(a - b, "fro", axis=(1, 2))
        bad = gaps > 1e-9 * (1.0 + np.linalg.norm(a, "fro", axis=(1, 2)))
        if bad.any():
            t = ts[np.argmax(bad)]
            raise ValueError(
                f"entries are not {self.period}-periodic (checked t={t:.4f})")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def coefficient_at(self, t):
        """``P(t)``; a 1-D array of times gives the ``(N, n, n)`` stack."""
        return self._at(t)

    def trace_at(self, t: float) -> float:
        return float(np.trace(self._at(t)))

    def as_systemdef(self) -> SystemDef:
        return SystemDef(dimension=self.dimension,
                         rhs=LinearTimeVarying(self.entries),
                         period=self.period, params=self.params)


class PeriodicVerdict(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically-stable"
    STABLE_NOT_ASYMPTOTIC = "stable-not-asymptotic"
    UNSTABLE = "unstable"


def monodromy(sys: PeriodicSystem, h: float) -> np.ndarray:
    """Fundamental matrix after one period, ``X(T)`` with ``X(0) = I``.

    ``h`` should divide the period; a trailing partial step is taken
    otherwise (the integrator trims it automatically).
    """
    return integrate_matrix(sys.as_systemdef(), 0.0, sys.period, h)


def multipliers(a) -> list[complex]:
    """Characteristic multipliers: eigenvalues of the monodromy matrix."""
    return linalg.eigenvalues(a)


def liouville_check(sys: PeriodicSystem, mults, h: float | None = None,
                    panels: int = 10_000) -> tuple[float, float, float]:
    """Accuracy check: multiplier product against the integrated trace.

    Returns ``(lhs, rhs, relative_gap)`` where ``lhs = |prod multipliers|``
    (their product is real for real systems; an imaginary residue above
    1e-9 of the magnitude is an error) and ``rhs`` integrates the trace of
    the coefficient matrix over one period by composite Simpson on its own
    grid, independent of the ODE discretization.
    """
    prod = complex(1.0, 0.0)
    for m in mults:
        prod *= complex(m)
    if abs(prod.imag) > 1e-9 * max(abs(prod), 1e-300):
        raise ValueError("multiplier product has a non-real residue; "
                         "multipliers of a real system must close under "
                         "conjugation")
    lhs = abs(prod)
    if panels % 2 == 1:
        panels += 1
    ts = np.linspace(0.0, sys.period, panels + 1)
    traces = np.trace(sys.coefficient_at(ts), axis1=1, axis2=2)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = float((sys.period / panels) / 3.0 * (w @ traces))
    rhs = float(np.exp(integral))
    gap = abs(lhs - rhs) / abs(rhs)
    return lhs, rhs, gap


def classify_periodic(mults, tol: float = 1e-6) -> PeriodicVerdict:
    """Unit-circle test on multiplier moduli.

    All inside the circle (below ``1 - tol``): asymptotically stable; any
    outside (above ``1 + tol``): unstable; moduli on the circle with the
    rest inside: stable but not asymptotically.
    """
    if not mults:
        raise ValueError("need at least one multiplier")
    moduli = [abs(complex(m)) for m in mults]
    if any(m > 1.0 + tol for m in moduli):
        return PeriodicVerdict.UNSTABLE
    if any(m >= 1.0 - tol for m in moduli):
        return PeriodicVerdict.STABLE_NOT_ASYMPTOTIC
    return PeriodicVerdict.ASYMPTOTICALLY_STABLE


@dataclass(frozen=True)
class FloquetReport:
    monodromy: np.ndarray
    multipliers: tuple[complex, ...]
    liouville_lhs: float
    liouville_rhs: float
    relative_gap: float
    verdict: PeriodicVerdict
    step: float
    modulus_tol: float


def floquet_report(sys: PeriodicSystem, h: float = 1e-4,
                   tol: float = 1e-6) -> FloquetReport:
    """One-call analysis: monodromy, multipliers, accuracy check, verdict."""
    a = monodromy(sys, h)
    mults = multipliers(a)
    lhs, rhs, gap = liouville_check(sys, mults)
    return FloquetReport(a, tuple(mults), lhs, rhs, gap,
                         classify_periodic(mults, tol), h, tol)
