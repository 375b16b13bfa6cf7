"""Dense real-matrix kernel.

Eigenvalues, symmetric definiteness, leading principal minors, matrix
measure, spectral norm, and linear solves, at the desk scale (n <= ~50)
the rest of the toolkit works at.  Backed by LAPACK through numpy; the
module owns the tolerance policy and the error taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    AsymmetricError,
    InvalidArgumentError,
    NoConvergenceError,
    NonSquareError,
    SingularError,
)

__all__ = [
    "DEFAULT_TOL", "Definiteness", "DefinitenessVerdict",
    "check_nonnegative", "as_matrix", "eigenvalues", "definiteness",
    "principal_minors", "matrix_measure", "spectral_norm", "solve_dense",
]

#: relative tolerance for sign decisions, applied against the Frobenius norm
DEFAULT_TOL = 1e-9
#: absolute floor guarding the zero-matrix norm
NORM_FLOOR = 1e-12


def check_nonnegative(value: float, name: str = "tolerance") -> None:
    """Raise :class:`InvalidArgumentError` unless ``value`` is finite and
    >= 0: every comparison against a NaN tolerance is False."""
    if not (np.isfinite(value) and value >= 0.0):
        raise InvalidArgumentError(
            f"{name} must be finite and nonnegative, got {value!r}")


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a float64 2-D array with finite entries."""
    return _checked(a, square, stack=False)


def _checked(a, square: bool, stack: bool) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        want = "a 2-D matrix or an (N, r, c) stack" if stack else "a 2-D matrix"
        raise NonSquareError(f"expected {want}, got shape {m.shape}")
    if square and m.shape[-2] != m.shape[-1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("matrix entries must be finite")
    return m


def _scale(m: np.ndarray) -> float:
    return max(float(np.linalg.norm(m, "fro")), NORM_FLOOR)


def eigenvalues(m) -> list[complex]:
    """Eigenvalues of a square real matrix, with multiplicity.

    The spectrum of a real matrix is closed under conjugation; values are
    returned sorted by (real, imag) for reproducibility, to LAPACK accuracy.
    """
    a = as_matrix(m, square=True)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # iteration cap exceeded
        raise NoConvergenceError(str(exc)) from None
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive-definite"
    POSITIVE_SEMIDEFINITE = "positive-semidefinite"
    NEGATIVE_DEFINITE = "negative-definite"
    NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class DefinitenessVerdict:
    kind: Definiteness
    eigenvalues: tuple[float, ...]  # witness, ascending
    tol_band: float                 # |lambda| <= tol_band counted as zero

    @property
    def is_positive_definite(self) -> bool:
        return self.kind is Definiteness.POSITIVE_DEFINITE

    @property
    def is_positive_semidefinite(self) -> bool:
        return self.kind in (Definiteness.POSITIVE_DEFINITE,
                             Definiteness.POSITIVE_SEMIDEFINITE)


def definiteness(s, tol: float = DEFAULT_TOL) -> DefinitenessVerdict:
    """Classify a symmetric matrix by the signs of its eigenvalues.

    Inputs within ``tol * ||s||`` of symmetric are averaged with their
    transpose before testing (Lyapunov solves return numerically
    near-symmetric results); anything farther raises
    :class:`AsymmetricError`.  The zero matrix reports positive-semidefinite.
    """
    a = as_matrix(s, square=True)
    scale = _scale(a)
    if np.linalg.norm(a - a.T, "fro") > tol * scale:
        raise AsymmetricError("matrix is not symmetric within tolerance")
    sym = 0.5 * (a + a.T)
    vals = np.linalg.eigvalsh(sym)
    band = tol * scale
    pos = bool(np.any(vals > band))
    neg = bool(np.any(vals < -band))
    if pos and neg:
        kind = Definiteness.INDEFINITE
    elif pos:
        kind = (Definiteness.POSITIVE_DEFINITE if np.all(vals > band)
                else Definiteness.POSITIVE_SEMIDEFINITE)
    elif neg:
        kind = (Definiteness.NEGATIVE_DEFINITE if np.all(vals < -band)
                else Definiteness.NEGATIVE_SEMIDEFINITE)
    else:
        # everything inside the band, zero matrix included
        kind = Definiteness.POSITIVE_SEMIDEFINITE
    return DefinitenessVerdict(kind, tuple(float(v) for v in vals), band)


def principal_minors(s) -> np.ndarray:
    """Leading principal minors D_1 .. D_n (determinants of top-left blocks)."""
    a = as_matrix(s, square=True)
    n = a.shape[0]
    return np.array([float(np.linalg.det(a[:k, :k])) for k in range(1, n + 1)])


def matrix_measure(a):
    """Matrix measure: half the largest eigenvalue of ``a + a.T``.

    A one-sided growth bound: ``d||x||/dt <= measure(a) * ||x||`` along
    solutions of ``x' = a x``.  An ``(N, n, n)`` stack gives the N measures
    as an array.
    """
    m = _checked(a, square=True, stack=True)
    top = 0.5 * np.linalg.eigvalsh(m + np.swapaxes(m, -1, -2))[..., -1]
    return float(top) if m.ndim == 2 else top


def spectral_norm(a):
    """Largest singular value; an ``(N, r, c)`` stack gives N of them."""
    m = _checked(a, square=False, stack=True)
    if m.shape[-2] == 0 or m.shape[-1] == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[0])
    top = np.linalg.svd(m, compute_uv=False).max(axis=-1)
    return float(top) if m.ndim == 2 else top


def solve_dense(a, b, tol: float = NORM_FLOOR):
    """Solve ``a x = b`` for square ``a``; raise :class:`SingularError` when
    the smallest singular value falls below ``tol`` times the largest."""
    m = as_matrix(a, square=True)
    rhs = np.asarray(b, dtype=float)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0 or sv[-1] <= tol * sv[0]:
        raise SingularError("matrix is singular to working precision")
    return np.linalg.solve(m, rhs)
