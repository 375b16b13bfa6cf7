"""Deterministic low-discrepancy point sets.

All scan-based verdicts in the toolkit sample on Halton sequences so that
repeated runs see exactly the same points; there is no RNG anywhere.
The first ``count`` points of a longer draw are always a prefix of it,
which makes "denser sampling can only discover more violations" a theorem
rather than a hope.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import InvalidArgumentError
from .odeint import _cap_samples

__all__ = ["halton", "ball_points", "sphere_directions", "column_norms"]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


#: the lowest digits of an index are read from a table of this many entries
_TABLE = 4096
#: most cube points one ``ball_points`` draw takes: bounds its memory
DRAW_CAP = 1 << 17


@functools.cache
def _low_digit_sums(base: int) -> tuple[int, np.ndarray, float]:
    """Radical-inverse sums over the lowest K digits of 0 .. base^K - 1.

    ``base^K <= _TABLE``.  Returns ``base^K``, the sums, and the digit
    weight ``f`` the digit loop holds after K steps.
    """
    span, digits = 1, 0
    while span * base <= _TABLE:
        span, digits = span * base, digits + 1
    inv = np.zeros(span)
    f = 1.0 / base
    i = np.arange(span)
    for _ in range(digits):
        inv += f * (i % base)
        i //= base
        f /= base
    inv.flags.writeable = False  # shared by every later call
    return span, inv, f


def _radical_inverse(start: int, base: int, out: np.ndarray) -> None:
    """Van der Corput radical inverses of ``start .. start+len(out)-1``,
    written into ``out``.

    Every value is bit-identical to the per-index recurrence
    ``inv += f*(i % base); i //= base; f /= base``, run from ``inv = 0.0``,
    ``f = 1/base`` while ``i > 0``: the same operations in the same order.
    The sums over the lowest K digits depend only on ``i % base^K`` and come
    from a table built by that loop; each run of ``base^K`` consecutive
    indices shares its higher digits, whose terms are added to the whole run
    as scalars.
    """
    span, low, f_low = _low_digit_sums(base)
    stop = start + len(out)
    for high in range(start // span, -(-stop // span)):
        first, last = max(start, high * span), min(stop, (high + 1) * span)
        run = out[first - start:last - start]
        run[:] = low[first - high * span:last - high * span]
        i, f = high, f_low
        while i > 0:
            run += f * (i % base)
            i //= base
            f /= base


def halton(count: int, dims: int, start: int = 1) -> np.ndarray:
    """First ``count`` Halton points in (0, 1)^dims, indices from ``start``.

    The points are the rows; they are stored component-major, so the
    transpose of the result is C-contiguous, one row per base.
    """
    if dims > len(_PRIMES):
        raise InvalidArgumentError(
            f"halton sampling supports up to {len(_PRIMES)} dimensions")
    out = np.empty((dims, count))
    for j in range(dims):
        _radical_inverse(start, _PRIMES[j], out[j])
    return out.T


def column_norms(cols: np.ndarray) -> np.ndarray:
    """Euclidean norms along the first axis of ``cols`` (one component per
    row): the root of the squares summed in component order, whatever the
    memory layout."""
    total = cols[0] * cols[0]
    for c in cols[1:]:
        total += c * c
    return np.sqrt(total)


def ball_points(count: int, dim: int, radius: float,
                exclude: float = 0.0) -> np.ndarray:
    """``count`` points inside the ball of ``radius``, outside ``exclude``.

    Cube points are drawn from the Halton sequence and rejected outside the
    ball; the accepted set is a deterministic function of (count, dim,
    radius, exclude) and is prefix-stable in ``count``.  Each draw is sized
    from the ball's share of the cube to accept every missing point, up to
    ``DRAW_CAP`` cube points; the points are stored like :func:`halton`'s.
    Raises :class:`InvalidArgumentError` unless ``dim >= 1``, ``radius`` is
    finite and ``radius > exclude >= 0`` (an empty shell would never accept
    a point) and ``radius^2`` is a normal number with ``radius^2 * dim``
    finite (past either end the norms underflow to 0 or overflow), and
    :class:`SampleCapError` for more than ``SAMPLE_CAP`` points.
    """
    if count < 0:
        raise InvalidArgumentError(f"point count must be >= 0, got {count}")
    _cap_samples(count, "the ball sample")
    if dim < 1:
        raise InvalidArgumentError(f"need dimension >= 1, got {dim}")
    if not (math.isfinite(radius) and radius > exclude >= 0.0):
        raise InvalidArgumentError(
            f"need a finite radius > exclude >= 0, got radius {radius!r} "
            f"and exclude {exclude!r}")
    if not math.isfinite(radius * radius * dim):
        raise InvalidArgumentError(
            f"radius {radius!r} is too large: sample norms overflow")
    if radius * radius < sys.float_info.min:
        raise InvalidArgumentError(
            f"radius {radius!r} is too small: sample norms underflow")
    share = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) / 2.0 ** dim
    points = np.empty((dim, count))
    got = 0
    # index 1 maps to a coordinate of exactly 0.0 in base 2 (radical inverse
    # 1/2), i.e. a point exactly on an axis; later indices never do, so
    # skipping it keeps samples off the measure-zero sets where classic
    # semidefinite derivatives vanish.
    index = 2
    while got < count:
        missing = count - got
        draw = min(DRAW_CAP, max(64, math.ceil(1.25 * missing / share)))
        cube = halton(draw, dim, start=index).T  # (2 h - 1) r in place
        cube *= 2.0
        cube -= 1.0
        cube *= radius
        index += draw
        norms = column_norms(cube)
        keep = np.flatnonzero((norms <= radius) & (norms > exclude))[:missing]
        np.take(cube, keep, axis=1, out=points[:, got:got + len(keep)])
        got += len(keep)
    return points.T


def sphere_directions(count: int, dim: int) -> np.ndarray:
    """``count`` unit directions: ball points pushed to the sphere."""
    raw = ball_points(count, dim, 1.0, exclude=1e-3).T
    return (raw / column_norms(raw)).T
