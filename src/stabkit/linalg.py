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
    "DEFAULT_TOL", "Definiteness", "DefinitenessVerdict", "check_nonnegative",
    "as_matrix", "eigenvalues", "definiteness", "semidefinite_nodes",
    "symmetric_part",
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


def _exponent(m: np.ndarray) -> np.ndarray:
    """Per node, ``e`` with max|entry| in ``[2**(e-1), 2**e)``, 0 if none."""
    return np.frexp(np.abs(m).max(axis=(-2, -1), keepdims=True,
                                  initial=0.0))[1]


def _band(a: np.ndarray):
    """``(e, 2**-e a, band)`` per node (:func:`_exponent`): an eigenvalue
    ``lam`` is zero when ``|2**-e lam| <= band`` (see :func:`definiteness`)."""
    e = _exponent(a)
    m = np.ldexp(a, -e)
    norm = np.linalg.norm(m, axis=(-2, -1), keepdims=True)
    return e, m, DEFAULT_TOL * np.maximum(norm, np.ldexp(NORM_FLOOR, -e))


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


def definiteness(s) -> DefinitenessVerdict:
    """Classify a symmetric matrix by the signs of its eigenvalues.

    Inputs within ``DEFAULT_TOL * ||s||`` of symmetric are averaged with their
    transpose before testing (Lyapunov solves return numerically
    near-symmetric results); anything farther raises
    :class:`AsymmetricError`.  The zero matrix reports positive-semidefinite.
    Norms and signs compare on ``s`` rescaled exactly by a power of two."""
    a = as_matrix(s, square=True)
    e, m, band = _band(a)
    e, band = e.item(), band.item()
    if float(np.linalg.norm(m - m.T, "fro")) > band:
        raise AsymmetricError("matrix is not symmetric within tolerance")
    vals = np.linalg.eigvalsh(symmetric_part(a))
    pos, neg = np.ldexp(vals, -e) > band, np.ldexp(vals, -e) < -band
    if pos.any() and neg.any():
        kind = Definiteness.INDEFINITE
    elif pos.any():
        kind = (Definiteness.POSITIVE_DEFINITE if pos.all()
                else Definiteness.POSITIVE_SEMIDEFINITE)
    elif neg.any():
        kind = (Definiteness.NEGATIVE_DEFINITE if neg.all()
                else Definiteness.NEGATIVE_SEMIDEFINITE)
    else:
        # everything inside the band, zero matrix included
        kind = Definiteness.POSITIVE_SEMIDEFINITE
    return DefinitenessVerdict(kind, tuple(float(v) for v in vals),
                               float(np.ldexp(band, e)))


def semidefinite_nodes(s) -> np.ndarray:
    """Per node of a matrix or an ``(N, n, n)`` stack: is no eigenvalue of
    its symmetric part below the band of :func:`definiteness`?"""
    a = _checked(s, square=True, stack=True)
    e, _, band = _band(a)
    lowest = np.linalg.eigvalsh(symmetric_part(a))[..., :1, None]
    return (np.ldexp(lowest, -e) >= -band)[..., 0, 0]


def symmetric_part(m) -> np.ndarray:
    """``(m + m')/2`` of a matrix or a stack, halved first past float range."""
    mt = np.swapaxes(m, -1, -2)
    with np.errstate(over="ignore"):
        sym = 0.5 * (m + mt)
    return sym if np.isfinite(sym).all() else 0.5 * m + 0.5 * mt


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
    """Largest singular value; an ``(N, r, c)`` stack gives N of them.

    The root of the top ``eigvalsh`` of the Gram matrix of each node's
    smaller side, on the node rescaled exactly by a power of two (no over-
    or underflow).  For a real ``r x c`` node the relative error is below
    ``(max(r, c) + 4) min(r, c) 2**-53`` (Gram rounding, Higham 3.5).
    """
    m = _checked(a, square=False, stack=True)
    if m.shape[-2] == 0 or m.shape[-1] == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[0])
    e = _exponent(m)
    s = np.ldexp(m, -e)
    st = np.swapaxes(s, -1, -2)
    top = np.linalg.eigvalsh(st @ s if s.shape[-1] <= s.shape[-2] else s @ st)
    with np.errstate(over="ignore"):  # a norm past float range is inf
        top = np.ldexp(np.sqrt(top[..., -1] + 0.0), e[..., 0, 0])  # no -0.0
    return float(top) if m.ndim == 2 else top


def solve_dense(a, b):
    """Solve ``a x = b`` for square ``a``; :class:`SingularError` when the
    smallest singular value is at most ``NORM_FLOOR`` times the largest."""
    m = as_matrix(a, square=True)
    rhs = np.asarray(b, dtype=float)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0 or sv[-1] <= NORM_FLOOR * sv[0]:
        raise SingularError("matrix is singular to working precision")
    return np.linalg.solve(m, rhs)
