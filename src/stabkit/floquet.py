"""Stability of linear systems with periodic coefficients.

The fundamental matrix over one period (the monodromy matrix) carries the
whole story: its eigenvalues, the characteristic multipliers, decide
stability by their moduli against the unit circle.  Because the monodromy
matrix comes from numerical integration, every report carries an accuracy
check: the multiplier product must match the exponential of the integrated
trace (the Liouville formula), computed on an independent quadrature grid.

The system is a :class:`~stabkit.odeint.SystemDef` with a linear,
undelayed right-hand side and a ``period``, which ``SystemDef`` validates
and spot-checks for periodicity when it is built; a ``periodic``
definition file builds exactly that.  Every entry point raises
:class:`InvalidArgumentError` for any other system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import InvalidArgumentError
from .odeint import Nonlinear, SystemDef, _at, integrate_matrix
from .odeint import compile_matrix  # noqa: F401  (the perfbench tracer wraps it)

__all__ = [
    "PeriodicVerdict", "FloquetReport",
    "monodromy", "multipliers", "liouville_check", "classify_periodic",
    "floquet_report",
]


def _check_periodic(sys: SystemDef) -> None:
    if sys.period is None:
        raise InvalidArgumentError("Floquet analysis needs a system with a "
                                   "period")
    if isinstance(sys.rhs, Nonlinear) or sys.delays:
        raise InvalidArgumentError("Floquet analysis needs a linear "
                                   "right-hand side without delays")


class PeriodicVerdict(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically-stable"
    STABLE_NOT_ASYMPTOTIC = "stable-not-asymptotic"
    UNSTABLE = "unstable"


def monodromy(sys: SystemDef, h: float) -> np.ndarray:
    """Fundamental matrix after one period, ``X(T)`` with ``X(0) = I``.

    ``h`` should divide the period; a trailing partial step is taken
    otherwise (the integrator trims it automatically).
    """
    _check_periodic(sys)
    return integrate_matrix(sys, 0.0, sys.period, h)


def multipliers(a) -> list[complex]:
    """Characteristic multipliers: eigenvalues of the monodromy matrix."""
    return linalg.eigenvalues(a)


def liouville_check(sys: SystemDef, mults) -> tuple[float, float, float]:
    """Accuracy check: multiplier product against the integrated trace.

    Returns ``(lhs, rhs, relative_gap)`` where ``lhs = |prod multipliers|``
    (their product is real for real systems; an imaginary residue above
    1e-9 of the magnitude is an error) and ``rhs`` integrates the trace of
    the coefficient matrix over one period by composite Simpson on its own
    grid of 10,000 panels, independent of the ODE discretization.
    """
    _check_periodic(sys)
    prod = complex(1.0, 0.0)
    for m in mults:
        prod *= complex(m)
    if abs(prod.imag) > 1e-9 * max(abs(prod), 1e-300):
        raise InvalidArgumentError(
            "multiplier product has a non-real residue; multipliers of a "
            "real system must close under conjugation")
    lhs = abs(prod)
    ts = np.linspace(0.0, sys.period, 10_001)
    # a constant A has one trace, filled in over the grid
    traces = np.full(ts.shape, np.trace(_at(sys.linear_coefficient, ts),
                                        axis1=-2, axis2=-1))
    w = np.ones(10_001)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = float((sys.period / 10_000) / 3.0 * (w @ traces))
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
        raise InvalidArgumentError("need at least one multiplier")
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


def floquet_report(sys: SystemDef, h: float = 1e-4,
                   tol: float = 1e-6) -> FloquetReport:
    """One-call analysis: monodromy, multipliers, accuracy check, verdict."""
    linalg.check_nonnegative(tol)
    a = monodromy(sys, h)
    mults = multipliers(a)
    lhs, rhs, gap = liouville_check(sys, mults)
    return FloquetReport(a, tuple(mults), lhs, rhs, gap,
                         classify_periodic(mults, tol), h, tol)
