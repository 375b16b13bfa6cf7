"""Stability classification of autonomous systems.

Linear systems are classified by the eigenvalue criterion; planar systems
additionally get the classical critical-point taxonomy (node / saddle /
center / spiral).  Nonlinear systems are handled locally: find equilibria
by damped Newton from user seeds, linearize by central differences, and
classify the Jacobian, with the verdict demoted to inconclusive whenever
the spectrum is marginal (linearization is silent there).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    ContinuumOfEquilibriaError,
    DomainError,
    InvalidArgumentError,
    NotAnEquilibriumError,
    SingularError,
)
from .odeint import SystemDef

__all__ = [
    "StabilityKind", "StabilityVerdict", "CriticalPointKind", "Equilibrium",
    "LocalStabilityReport", "classify_linear", "classify_critical_point_2d",
    "equilibrium_affine", "jacobian_fd", "find_equilibria", "local_stability",
]


class StabilityKind(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically-stable"
    STABLE_MARGINAL = "stable-marginal"
    UNSTABLE = "unstable"
    COMPLETELY_UNSTABLE = "completely-unstable"
    INCONCLUSIVE = "inconclusive"


class CriticalPointKind(Enum):
    IMPROPER_NODE = "improper-node"
    PROPER_NODE = "proper-node"
    SADDLE = "saddle"
    CENTER = "center"
    SPIRAL = "spiral"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class StabilityVerdict:
    kind: StabilityKind
    eigenvalues: tuple[complex, ...]
    sign_classes: tuple[str, ...]  # 'neg' | 'zero' | 'pos' per eigenvalue
    tol_band: float                # |Re| <= tol_band counted as zero

    @property
    def bibo(self) -> bool:
        """Bounded-input bounded-output flag, a corollary of asymptotic stability."""
        return self.kind is StabilityKind.ASYMPTOTICALLY_STABLE


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    residual: float
    isolated: bool


@dataclass(frozen=True)
class LocalStabilityReport:
    """Linearization verdict at one equilibrium.  Always a *local* statement."""

    point: np.ndarray
    jacobian: np.ndarray
    linear_verdict: StabilityVerdict
    conclusion: StabilityKind       # demoted to INCONCLUSIVE when marginal
    critical_point: CriticalPointKind | None
    local: bool = True
    note: str = ""


def classify_linear(a, tol: float = linalg.DEFAULT_TOL) -> StabilityVerdict:
    """Eigenvalue stability criterion for ``x' = A x``.

    Asymptotically stable iff every eigenvalue has real part below the
    tolerance band; unstable as soon as one sits above it (completely
    unstable when all do).  When the largest real part falls inside the
    band the criterion degenerates: simple in-band eigenvalues give the
    marginal verdict (pure rotation / neutral directions), repeated ones
    are reported inconclusive.  The band used is ``tol * (1 + ||A||_F)``
    and travels with the verdict.
    """
    linalg.check_nonnegative(tol)
    m = linalg.as_matrix(a, square=True)
    vals = linalg.eigenvalues(m)
    band = tol * (1.0 + float(np.linalg.norm(m, "fro")))
    signs = tuple(
        "pos" if v.real > band else ("neg" if v.real < -band else "zero")
        for v in vals
    )
    if all(s == "pos" for s in signs):
        kind = StabilityKind.COMPLETELY_UNSTABLE
    elif any(s == "pos" for s in signs):
        kind = StabilityKind.UNSTABLE
    elif all(s == "neg" for s in signs):
        kind = StabilityKind.ASYMPTOTICALLY_STABLE
    else:
        marginal = [v for v, s in zip(vals, signs) if s == "zero"]
        kind = (StabilityKind.STABLE_MARGINAL if _all_simple(marginal, m)
                else StabilityKind.INCONCLUSIVE)
    return StabilityVerdict(kind, tuple(vals), signs, band)


def _all_simple(values: list[complex], m: np.ndarray) -> bool:
    cluster = 1e-6 * (1.0 + float(np.linalg.norm(m, "fro")))
    for i, v in enumerate(values):
        for w in values[i + 1:]:
            if abs(v - w) <= cluster:
                return False
    return True


def classify_critical_point_2d(a, tol: float = linalg.DEFAULT_TOL,
                               ) -> CriticalPointKind:
    """Critical-point taxonomy for a planar linear system.

    Requires a nonsingular matrix: a singular one means the equilibrium is
    a continuum of points, reported as
    :class:`ContinuumOfEquilibriaError`.
    """
    m = linalg.as_matrix(a, square=True)
    if m.shape != (2, 2):
        raise InvalidArgumentError(
            "critical-point taxonomy is defined for 2x2 systems")
    scale = 1.0 + float(np.linalg.norm(m, "fro"))
    band = tol * scale
    if abs(np.linalg.det(m)) <= band * scale:
        raise ContinuumOfEquilibriaError(
            "singular matrix: continuum of equilibria")
    l1, l2 = linalg.eigenvalues(m)
    if abs(l1.imag) > band or abs(l2.imag) > band:
        if abs(l1.real) <= band:
            return CriticalPointKind.CENTER
        return CriticalPointKind.SPIRAL
    r1, r2 = l1.real, l2.real
    if abs(r1 - r2) <= 1e-6 * scale:
        # repeated eigenvalue: full eigenspace (A = lambda I) is a proper
        # node, a defective one is degenerate
        lam = 0.5 * (r1 + r2)
        sv = np.linalg.svd(m - lam * np.eye(2), compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * scale))
        return (CriticalPointKind.PROPER_NODE if rank == 0
                else CriticalPointKind.DEGENERATE)
    if r1 * r2 < 0.0:
        return CriticalPointKind.SADDLE
    return CriticalPointKind.IMPROPER_NODE


def equilibrium_affine(a, b, ue) -> np.ndarray:
    """Equilibrium ``x_e`` of ``x' = A x + B u`` under the constant input ``ue``.

    Solves ``A x_e + B ue = 0``; a singular ``A`` means the equilibrium set
    is a continuum, raised as :class:`ContinuumOfEquilibriaError`.
    """
    m = linalg.as_matrix(a, square=True)
    bm = np.asarray(b, dtype=float)
    u = np.atleast_1d(np.asarray(ue, dtype=float))
    rhs = -(bm @ u) if bm.ndim == 2 else -(bm * u)
    try:
        return linalg.solve_dense(m, rhs)
    except SingularError:
        raise ContinuumOfEquilibriaError(
            "singular state matrix: continuum of equilibria") from None


def jacobian_fd(sys: SystemDef, x, t: float = 0.0, h: float = 1e-5) -> np.ndarray:
    """Jacobian of the right-hand side by central differences.

    Second-order accurate; exact up to rounding for affine and quadratic
    components.
    """
    f = sys.rhs_callable()
    x = np.asarray(x, dtype=float)
    n = sys.dimension
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (f(x + e, t) - f(x - e, t)) / (2.0 * h)
    return jac


def find_equilibria(sys: SystemDef, seeds, tol: float = 1e-10,
                    max_iter: int = 100, max_halvings: int = 30,
                    merge_tol: float = 1e-6) -> list[Equilibrium]:
    """Damped Newton on ``f(x) = 0`` from each seed; converged roots merged.

    Seeds that fail to converge are dropped; duplicates within ``merge_tol``
    collapse to the first representative after lexicographic sorting, which
    makes the result order deterministic.
    """
    linalg.check_nonnegative(tol)
    f = sys.rhs_callable()
    roots: list[np.ndarray] = []
    for seed in seeds:
        x = np.asarray(seed, dtype=float).copy()
        ok = False
        for _ in range(max_iter):
            try:
                fx = f(x, 0.0)
                r0 = float(np.linalg.norm(fx))
                if r0 < tol:
                    ok = True
                    break
                step = linalg.solve_dense(jacobian_fd(sys, x), -fx)
            except (SingularError, DomainError):
                break  # seed dropped: Newton cannot proceed from here
            lam = 1.0
            for _ in range(max_halvings):
                trial = x + lam * step
                try:
                    r1 = float(np.linalg.norm(f(trial, 0.0)))
                except DomainError:
                    r1 = np.inf
                if r1 < r0:
                    x = trial
                    break
                lam *= 0.5
            else:
                break
        if ok:
            roots.append(x)
    roots.sort(key=lambda p: tuple(p))
    merged: list[np.ndarray] = []
    for r in roots:
        if not any(np.linalg.norm(r - m) < merge_tol for m in merged):
            merged.append(r)
    out = []
    for r in merged:
        residual = float(np.linalg.norm(f(r, 0.0)))
        jac = jacobian_fd(sys, r)
        sv = np.linalg.svd(jac, compute_uv=False)
        isolated = bool(sv[-1] > 1e-9 * max(sv[0], 1.0))
        out.append(Equilibrium(r, residual, isolated))
    return out


def local_stability(sys: SystemDef, x_star, tol: float = 1e-8,
                    fd_step: float = 1e-5) -> LocalStabilityReport:
    """Linearized stability at an equilibrium point.

    The verdict is a *local* statement about the linearization; whenever the
    spectrum is marginal the conclusion is demoted to inconclusive, because
    the linearization says nothing there.  For planar systems the
    critical-point taxonomy of the Jacobian is attached when it applies.
    """
    linalg.check_nonnegative(tol)
    x = np.asarray(x_star, dtype=float)
    f = sys.rhs_callable()
    residual = float(np.linalg.norm(f(x, 0.0)))
    if residual >= tol:
        raise NotAnEquilibriumError(
            f"||f(x*)|| = {residual:.3e} exceeds tolerance {tol:.1e}")
    jac = jacobian_fd(sys, x, h=fd_step)
    verdict = classify_linear(jac)
    note = ""
    conclusion = verdict.kind
    if verdict.kind in (StabilityKind.STABLE_MARGINAL, StabilityKind.INCONCLUSIVE):
        conclusion = StabilityKind.INCONCLUSIVE
        note = ("marginal linearized spectrum: linearization cannot decide "
                "local stability here")
    kind2d = None
    if sys.dimension == 2:
        try:
            kind2d = classify_critical_point_2d(jac)
        except ContinuumOfEquilibriaError:
            kind2d = None
    return LocalStabilityReport(x, jac, verdict, conclusion, kind2d, True, note)
