"""Dense real-matrix kernel.

Eigenvalues, symmetric definiteness, leading principal minors, matrix
measure, spectral norm, and linear solves, at the desk scale (n <= ~50)
the rest of the toolkit works at.  Backed by LAPACK through numpy; the
module owns the tolerance policy and the error taxonomy.

Over an ``(N, r, c)`` stack (a coefficient sampled in time), cheap
per-node bounds decide which nodes need ``eigvalsh``; the results are bit
for bit those of running it on every node.
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


def as_matrix(a) -> np.ndarray:
    """``a`` as a square float64 2-D array with finite entries, validated."""
    return _checked(a, square=True, stack=False)


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
    a = as_matrix(m)
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
    a = as_matrix(s)
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
    its symmetric part below the band of :func:`definiteness`?

    A node passes without ``eigvalsh`` when the lowest end of its Gershgorin
    discs, less slack (:func:`_disc_end`), is at least 0, or at least
    ``-band`` on the node's scale; the others are decided by their lowest
    eigenvalue, as in :func:`definiteness`."""
    a = _checked(s, square=True, stack=True)
    nodes = a if a.ndim == 3 else a[None]
    sym = symmetric_part(nodes)
    lowest = _disc_end(sym, -1)
    ok = lowest >= 0.0
    near = np.flatnonzero(~ok)
    if near.size:
        e, _, band = _band(nodes[near])
        e, band = e[:, 0, 0], band[:, 0, 0]
        clear = np.ldexp(lowest[near], -e) >= -band
        low = ~clear
        ok[near[clear]] = True
        if low.any():
            eigs = np.linalg.eigvalsh(sym[near[low]])[:, 0]
            ok[near[low]] = np.ldexp(eigs, -e[low]) >= -band[low]
    return ok if a.ndim == 3 else ok[0]


def symmetric_part(m) -> np.ndarray:
    """``(m + m')/2`` of a matrix or a stack.  An entry whose sum overflows
    is halved first, so each entry depends on its own pair alone."""
    m = np.asarray(m, dtype=float)
    mt = np.swapaxes(m, -1, -2)
    with np.errstate(over="ignore"):
        sym = 0.5 * (m + mt)
    if not np.isfinite(sym).all():
        far = ~np.isfinite(sym)
        sym[far] = 0.5 * m[far] + 0.5 * mt[far]
    return sym


def _slack(nodes: np.ndarray, scale) -> np.ndarray:
    """Margin of a cheap bound on ``(N, r, c)`` nodes of size ``scale``:
    ``2**-44 (r + 4)(c + 4) (scale + 2**-1000)``, thousands of times the
    rounding of the bound and of the exact value it bounds (including the
    subnormal range, which the absolute part covers)."""
    r, c = nodes.shape[-2:]
    return 2.0 ** -44 * (r + 4) * (c + 4) * (scale + 2.0 ** -1000)


def _line_sums(x: np.ndarray) -> np.ndarray:
    """The row sums, then the column sums, of each node of an ``(N, r, c)``
    stack, as an ``(r + c, N)`` array: one product with a 0/1 matrix, whose
    sums round like any others; numpy's reductions over axes this short
    are many times slower."""
    r, c = x.shape[1:]
    ones = np.concatenate([np.repeat(np.eye(r), c, axis=1),
                           np.tile(np.eye(c), r)])
    with np.errstate(over="ignore"):
        return ones @ x.reshape(len(x), r * c).T


def _disc_end(sym: np.ndarray, side: int) -> np.ndarray:
    """Per node of a symmetric stack, the outer end of its Gershgorin discs
    on one side (``side`` 1: the highest, -1: the lowest), moved out by
    its slack: every eigenvalue ``eigvalsh`` computes lies inside."""
    n = sym.shape[-1]
    rows = _line_sums(np.abs(sym))[:n]
    diag = np.diagonal(sym, axis1=-2, axis2=-1).T
    with np.errstate(over="ignore"):
        end = (side * diag + (rows - np.abs(diag))).max(axis=0)
        return side * (end + _slack(sym, rows.max(axis=0)))


def _largest(nodes: np.ndarray, bounds, exact) -> float:
    """``max(exact(nodes))``, with ``exact`` run only where it can reach the
    maximum: at the node of the largest upper bound, then at the other
    nodes whose bound is not below that value (a non-finite bound
    included).  ``bounds`` and ``exact`` map a stack to one value per node,
    and a node's exact value does not depend on the stack it is in.  When
    no other node is pruned, the whole stack is passed as it is, not
    gathered."""
    if len(nodes) <= 1:
        if len(nodes) == 0:
            raise InvalidArgumentError("an empty stack has no largest value")
        return float(exact(nodes)[0])
    upper = bounds(nodes)
    k = int(np.argmax(upper))
    top = exact(nodes[k:k + 1])[0]
    keep = ~(upper < top)
    keep[k] = False
    kept = np.count_nonzero(keep)
    if kept:
        top = max(top, exact(nodes if kept == len(nodes) - 1
                             else nodes[keep]).max())
    return float(top)


def principal_minors(s) -> np.ndarray:
    """Leading principal minors D_1 .. D_n (determinants of top-left blocks)."""
    a = as_matrix(s)
    n = a.shape[0]
    return np.array([float(np.linalg.det(a[:k, :k])) for k in range(1, n + 1)])


def matrix_measure(a) -> float:
    """Matrix measure: the largest eigenvalue of the symmetric part of
    ``a``; of an ``(N, n, n)`` stack, the largest over its nodes.

    A one-sided growth bound: ``d||x||/dt <= measure(a) * ||x||`` along
    solutions of ``x' = a x``.  The symmetric part halves first past float
    range (:func:`symmetric_part`), so a finite ``a`` has a finite measure.
    A stack runs ``eigvalsh`` only at the nodes whose Gershgorin bound
    (the highest end of the discs of the symmetric part, plus slack)
    is not below the exact measure at the node of the highest bound; the
    result is bit for bit the largest of the per-node measures.
    """
    m = _checked(a, square=True, stack=True)
    if m.shape[-1] == 0:
        raise InvalidArgumentError("a 0 x 0 matrix has no measure")
    sym = symmetric_part(m if m.ndim == 3 else m[None])
    return _largest(sym, lambda x: _disc_end(x, 1),
                    lambda x: np.linalg.eigvalsh(x)[:, -1])


def spectral_norm(a) -> float:
    """Largest singular value; of an ``(N, r, c)`` stack, the largest over
    its nodes.

    The root of the top ``eigvalsh`` of the Gram matrix of each node's
    smaller side, on the node rescaled exactly by a power of two (no over-
    or underflow).  For a real ``r x c`` node the relative error is below
    ``(max(r, c) + 4) min(r, c) 2**-53`` (Gram rounding, Higham 3.5).  A
    stack takes that root only at the nodes whose upper bound
    ``min(||m||_F, sqrt(||m||_1 ||m||_inf))`` (Higham 6.3), plus slack, is
    not below the norm of the node of the largest bound; the result is bit
    for bit the largest of the per-node norms.
    """
    m = _checked(a, square=False, stack=True)
    if m.size == 0:
        return 0.0
    return _largest(m if m.ndim == 3 else m[None], _norm_bounds, _norms)


def _norm_bounds(m: np.ndarray) -> np.ndarray:
    """Per node of a stack, ``min(||m||_F, sqrt(||m||_1 ||m||_inf))`` plus
    slack: an upper bound on the norm :func:`_norms` computes.  A sum of
    squares that may have lost its tiny terms to underflow gives no bound
    (inf)."""
    sums = _line_sums(np.abs(m))
    r = m.shape[1]
    with np.errstate(over="ignore"):
        squares = np.einsum("nij,nij->n", m, m)
        bound = np.minimum(
            np.where(squares > 2.0 ** -1000, np.sqrt(squares), np.inf),
            np.sqrt(sums[:r].max(axis=0)) * np.sqrt(sums[r:].max(axis=0)))
        return bound + _slack(m, bound)


def _norms(m: np.ndarray) -> np.ndarray:
    """The spectral norm of each node of a nonempty stack."""
    e = _exponent(m)
    s = np.ldexp(m, -e)
    st = np.swapaxes(s, -1, -2)
    top = np.linalg.eigvalsh(st @ s if s.shape[-1] <= s.shape[-2] else s @ st)
    with np.errstate(over="ignore"):  # a norm past float range is inf
        return np.ldexp(np.sqrt(top[:, -1] + 0.0), e[:, 0, 0])  # no -0.0


def solve_dense(a, b):
    """Solve ``a x = b`` for square ``a``; :class:`SingularError` when the
    smallest singular value is at most ``NORM_FLOOR`` times the largest."""
    m = as_matrix(a)
    rhs = np.asarray(b, dtype=float)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0 or sv[-1] <= NORM_FLOOR * sv[0]:
        raise SingularError("matrix is singular to working precision")
    return np.linalg.solve(m, rhs)
