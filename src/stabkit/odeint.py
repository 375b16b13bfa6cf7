"""Deterministic fixed-step integration.

Classical RK4 for vector ODEs and fundamental-matrix ODEs, plus the method
of steps for linear multi-delay equations.  Fixed step, no adaptivity.
All three run one march with three step sources.  A linear system (one
:class:`Linear` right-hand side, whether or not ``A`` varies) steps on
per-step RK4 maps ``W_k``, formed from the coefficients at whole chunks of
stage times at once: a block of steps per prefix scan of their products,
one product a step past ``SCAN_WIDTH``.  An undelayed nonlinear system steps
on its RK4 kernel, generated once per system: the four stages inline on the
components as Python locals, a chunk of steps per call.  Every other step
(a delayed field, a linear chunk whose maps fail, a linear trailing partial
step) is one RK4 stage loop on Python floats of the fused field.  Kernel
and stage loop keep numpy's operation order, so they give the same bits;
stage times are ``t0 + k*h + s``.  The maps agree with them to within
rounding, below 1e-12 of the state's scale after 1e4 steps.  A state
component beyond ``ESCAPE_THRESHOLD`` (or non-finite) aborts the run with
:class:`NonFiniteStateError` at the first escaping step, the finite-time-
escape verdict: each chunk of states is checked once, and an escape wins
over a later domain error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import expr as ex
from .errors import (
    DimensionMismatchError,
    DomainError,
    HistoryGapError,
    InvalidArgumentError,
    NonFiniteStateError,
    SampleCapError,
)

__all__ = [
    "Linear", "Nonlinear", "Delay", "SystemDef",
    "Trajectory", "HistoryFn", "integrate", "integrate_matrix", "integrate_dde",
    "compile_matrix", "coefficient_grid", "dde_step",
]

ESCAPE_THRESHOLD = 1e12
SAMPLE_CAP = 10_000_000
#: steps per batch of RK4 step maps; bounds the (CHUNK, n, M) map stacks
CHUNK = 1024
#: widest ``n + p`` (state rows plus columns) a block of linear steps scans;
#: past it log2(block) (n + p)-square products outweigh a product per step
SCAN_WIDTH = 8


# --- system definitions --------------------------------------------------------

ExprEntry = Union[ex.Expr, float, int, str]


def _expr_grid(entries, params) -> tuple[tuple[ex.Expr, ...], ...]:
    """A coefficient grid as trees, which may depend on ``t`` only."""
    grid = tuple(tuple(ex.as_expr(e, params) for e in row) for row in entries)
    for e in (e for row in grid for e in row if ex.max_state_index(e)):
        raise InvalidArgumentError(
            f"coefficient {ex.to_string(e)!r} names a state variable")
    return grid


def _components(entries, n: int, params, what: str) -> tuple[ex.Expr, ...]:
    """``n`` trees, one per component, over the states ``x1 .. xn``."""
    comps = tuple(ex.as_expr(c, set(params)) for c in entries)
    if len(comps) != n:
        raise DimensionMismatchError(
            f"need {n} {what} expressions, got {len(comps)}")
    for c in (c for c in comps if ex.max_state_index(c) > n):
        raise DimensionMismatchError(
            f"{what} {ex.to_string(c)!r} references a state variable "
            f"beyond dimension {n}")
    return comps


def compile_matrix(entries: Sequence[Sequence[ExprEntry]],
                   params: Mapping[str, float] | None = None,
                   ) -> Callable[[float | np.ndarray], np.ndarray]:
    """Compile a grid of entries, ``params`` bound, to a ``t -> ndarray``.

    A scalar ``t`` gives the ``(n, n)`` matrix from one fused scalar
    function (:func:`~stabkit.expr.compile_vector`).  A 1-D array of ``N``
    times gives the ``(N, n, n)`` stack from the batch evaluator of the
    grid (:func:`~stabkit.expr.compile_expr_vec`) under
    :func:`~stabkit.expr.strict_rows`: a floating-point flag other than
    underflow, or a non-finite entry, raises :class:`DomainError` naming
    the first of the given times that fails.
    """
    params = dict(params or {})
    grid = _expr_grid(entries, set(params))
    flat = [ex.bind(e, params) for row in grid for e in row]
    vector = ex.compile_vector(flat)
    batch = ex.compile_expr_vec(flat)
    shape = (len(grid), len(grid[0]) if grid else 0)

    def at(t):
        if not (isinstance(t, np.ndarray) and t.ndim == 1):
            return np.array(vector((), float(t))).reshape(shape)
        stateless = np.empty((len(t), 0))  # a grid reads t only
        out = ex.strict_rows(lambda r: batch(stateless[r], t[r]), len(t),
                             lambda k: f"t={float(t[k])!r}")
        return out.reshape((len(t),) + shape)

    return at


def coefficient_grid(entries, n: int, params: Mapping[str, float]):
    """An ``n x n`` coefficient from a grid of numbers or expressions.

    Returns a float ndarray when no entry depends on ``t``, so definition
    files may spell constants exactly ("exp(-0.4)/3") and still describe a
    time-invariant coefficient; otherwise the expression grid.  An entry
    naming a state variable raises :class:`InvalidArgumentError`.
    """
    params = _params(params)
    rows = entries.tolist() if isinstance(entries, np.ndarray) else entries
    if not isinstance(rows, (list, tuple)) or len(rows) != n or not all(
            isinstance(row, (list, tuple)) and len(row) == n for row in rows):
        raise DimensionMismatchError(f"coefficient must be an {n}x{n} matrix")
    if not all(issubclass(k, (int, float, np.integer, np.floating))
               for k in {type(v) for row in rows for v in row}):
        grid = _expr_grid(rows, set(params))
        if any(ex.reads_time(e, params) for row in grid for e in row):
            return grid
        flat = [ex.bind(e, params) for row in grid for e in row]
        try:
            rows = np.reshape(ex.compile_vector(flat)((), 0.0), (n, n))
        except DomainError:  # the first failing entry, as its file spells it
            for text, e in zip((v for row in rows for v in row), flat):
                try:
                    ex.compile_vector([e])((), 0.0)
                except DomainError as exc:
                    raise DomainError(f"coefficient entry {text!r}: "
                                      f"{exc.reason}", e) from None
            raise
    return _finite(rows, "coefficient entries")


def _params(params: Mapping[str, float]) -> dict:
    """``params`` as a dict of finite values.  ``t`` and ``xK`` always mean
    time and state in an expression, so they cannot name a parameter."""
    params = dict(params)
    for name in params:
        if name == "t" or ex._VAR_RE.match(name):
            raise InvalidArgumentError(
                f"parameter name {name!r} is reserved for time or a state "
                f"variable")
    _finite(list(params.values()), "parameters")
    return params


def _finite(values, what: str) -> np.ndarray:
    """``values`` as a float array; every entry must be finite."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidArgumentError(f"{what} must be finite")
    return a


@dataclass(frozen=True)
class Linear:
    """Right-hand side ``x' = A(t) x``: ``a`` is a constant matrix or a grid
    of expressions of ``t`` (``b`` kept for equilibrium analysis)."""
    a: object
    b: np.ndarray | None = None


@dataclass(frozen=True)
class Nonlinear:
    """Right-hand side ``x_i' = f_i(x, t)``, one expression per component."""
    components: tuple[ex.Expr, ...]


@dataclass(frozen=True)
class Delay:
    """One delayed feedback term ``coeff * x(t - lag)``.

    ``coeff`` is a constant matrix or a grid of expressions of ``t``.
    """
    lag: float
    coeff: object


@dataclass
class SystemDef:
    """A continuous system: undelayed right-hand side plus optional delays.

    One type covers autonomous, time-varying, delayed and periodic systems.
    Construction normalizes entries (strings parse, numbers wrap, the linear
    ``A`` and every delay coefficient go through :func:`coefficient_grid`,
    so each is an ndarray exactly when no entry reads ``t``) and validates
    dimensions, lags and the period; instances are treated as immutable
    after that.
    """

    dimension: int
    rhs: Linear | Nonlinear
    delays: tuple[Delay, ...] = ()
    period: float | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        n = self.dimension
        if n < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        self.params = _params(self.params)
        rhs = self.rhs
        if isinstance(rhs, Linear):
            a = coefficient_grid(rhs.a, n, self.params)
            b = None if rhs.b is None else _finite(rhs.b, "B")
            if b is not None and b.shape[0] != n:
                raise DimensionMismatchError("B must have n rows")
            self.rhs = Linear(a, b)
        elif isinstance(rhs, Nonlinear):
            self.rhs = Nonlinear(_components(rhs.components, n, self.params,
                                             "component"))
        else:
            raise TypeError(f"unsupported rhs {rhs!r}")

        last = 0.0
        for d in self.delays:
            if not (math.isfinite(d.lag) and d.lag > 0):
                raise InvalidArgumentError(
                    f"delay lags must be finite and positive, got {d.lag!r}")
            if d.lag < last:
                raise DimensionMismatchError("delays must be sorted ascending")
            last = d.lag
        self.delays = tuple(Delay(float(d.lag),
                                  coefficient_grid(d.coeff, n, self.params))
                            for d in self.delays)
        if self.period is not None:
            self._check_period()

    def _check_period(self) -> None:
        """Validate the period; spot-check periodicity of a varying grid on
        16 sample times at tolerance 1e-9."""
        if not (math.isfinite(self.period) and self.period > 0):
            raise InvalidArgumentError(
                f"period must be finite and positive, got {self.period!r}")
        if not math.isfinite(2.0 * self.period):  # the check reads t + period
            raise InvalidArgumentError(f"period {self.period!r} is too large")
        self.period = float(self.period)
        at = self.linear_coefficient
        if at is None or isinstance(at, np.ndarray):
            return
        ts = np.linspace(0.137, self.period, 16)
        # interleaved (t, t + T) so a domain error names the time the
        # time-by-time check would have reached first
        both = at(np.column_stack([ts, ts + self.period]).ravel())
        a, b = both[0::2], both[1::2]
        gaps = np.linalg.norm(a - b, "fro", axis=(1, 2))
        bad = gaps > 1e-9 * (1.0 + np.linalg.norm(a, "fro", axis=(1, 2)))
        if bad.any():
            t = ts[np.argmax(bad)]
            raise InvalidArgumentError(
                f"entries are not {self.period}-periodic (checked t={t:.4f})")

    # -- helpers ---------------------------------------------------------------

    @property
    def max_lag(self) -> float:
        return self.delays[-1].lag if self.delays else 0.0

    def is_autonomous(self) -> bool:
        return not self.delays and not any(ex.reads_time(e, ())
                                           for e in self.field_trees)

    def check_undelayed(self, what: str) -> None:
        """:class:`InvalidArgumentError` when ``what``, which reads only the
        undelayed field, is given a system with delays."""
        if self.delays:
            raise InvalidArgumentError(f"{what} needs a system without delays")

    # -- built and compiled once per instance, on first use --------------------

    @functools.cached_property
    def field_trees(self) -> tuple[ex.Expr, ...]:
        """The undelayed right-hand side, one tree per component, with the
        parameters bound; a linear row is the sum of ``a_ij * xj`` with its
        zero terms folded away."""
        rhs = self.rhs
        if isinstance(rhs, Nonlinear):
            return tuple(ex.bind(c, self.params) for c in rhs.components)
        return tuple(ex.total(ex.fold("*", ex.bind(ex.as_expr(a), self.params),
                                      ex.Var(f"x{j + 1}"))
                              for j, a in enumerate(row)) for row in rhs.a)

    @functools.cached_property
    def linear_coefficient(self):
        """``A``: a constant array, a compiled grid ``t -> A(t)``, or None."""
        return None if isinstance(self.rhs, Nonlinear) \
            else self._compiled(self.rhs.a)

    @functools.cached_property
    def delay_coefficients(self) -> tuple:
        """``(A_1, ..., A_m)``: constant arrays or compiled grids."""
        return tuple(self._compiled(d.coeff) for d in self.delays)

    def _compiled(self, coeff):
        """A normalised coefficient as itself, if constant, or compiled."""
        return coeff if isinstance(coeff, np.ndarray) \
            else compile_matrix(coeff, self.params)

    @functools.cached_property
    def scalar_field(self):  # the fused f(x, t) -> list
        return ex.compile_vector(self.field_trees)

    @functools.cached_property
    def rk4_kernel(self):  # RK4 over a run of steps, stages inline
        return ex._generate(self.field_trees, "rk4")

    @functools.cached_property
    def batch_field(self):  # F(X, t) -> (N, n); t one time or one per row
        return ex.compile_expr_vec(self.field_trees)

    @functools.cached_property
    def jacobian(self):  # J(x, t) -> (n, n) from the n^2 derivative trees
        n, a = self.dimension, self.linear_coefficient
        if a is not None:  # those trees are A's entries: skip O(n^3) deriving
            return lambda x, t=0.0: np.array(_at(a, t), dtype=float)
        fused = ex.compile_vector([ex.derivative(f, f"x{j + 1}")
                                   for f in self.field_trees for j in range(n)])
        return lambda x, t=0.0: np.reshape(fused(list(map(float, x)), t), (n, n))

    def rhs_callable(self) -> Callable[[np.ndarray, float], np.ndarray]:
        """Compiled evaluator of the undelayed right-hand side."""
        f = _field(self, (self.dimension,))[1]
        return lambda x, t: np.array(
            f(np.asarray(x, dtype=float).tolist(), float(t), 0, 0.0))


# --- trajectories ---------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Dense solution samples on a uniform grid (trailing partial step allowed)."""

    times: np.ndarray
    states: np.ndarray
    step: float

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def to_csv(self, target) -> None:
        """Write ``t,x1,...,xn`` rows at full precision."""
        times = np.asarray(self.times, dtype=float).tolist()
        _write_csv(target, "t", map(repr, times), self.states)


def _write_csv(target, index_name: str, labels, states) -> None:
    """Write ``index_name,x1,...,xn`` and one row per state, led by its label.

    ``target`` is a path or an open text file; values print as
    ``repr(float)``, the shortest string that reads back to the same double.
    """
    rows = np.asarray(states, dtype=float)
    names = ",".join(f"x{i + 1}" for i in range(rows.shape[1]))
    lines = [f"{index_name},{names}\n"]
    lines += [f"{label},{','.join(map(repr, row))}\n"
              for label, row in zip(labels, rows.tolist())]
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        target.writelines(lines)


@dataclass(frozen=True)
class HistoryFn:
    """Sampled history on ``[-span, 0]`` with piecewise-linear interpolation."""

    times: np.ndarray
    values: np.ndarray

    @classmethod
    def constant(cls, value, span: float) -> "HistoryFn":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        times = np.array([-float(span), 0.0])
        return cls(times, np.vstack([v, v]))

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2 or np.any(np.diff(t) <= 0):
            raise HistoryGapError("history times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def span(self) -> float:
        return -float(self.times[0])

    def __call__(self, t):
        """State at ``t``; a 1-D array of times gives one row per time."""
        ts = self.times
        tt = np.asarray(t, dtype=float)
        outside = (tt < ts[0] - 1e-12) | (tt > ts[-1] + 1e-12)
        if outside.any():
            bad = t if tt.ndim == 0 else float(tt[outside][0])
            raise HistoryGapError(f"history not defined at t={bad!r}")
        j = np.clip(np.searchsorted(ts, tt, side="right") - 1, 0, len(ts) - 2)
        w = np.clip((tt - ts[j]) / (ts[j + 1] - ts[j]), 0.0, 1.0)[..., None]
        return (1.0 - w) * self.values[j] + w * self.values[j + 1]


# --- integrators ----------------------------------------------------------------

def _cap_samples(count: int, what: str) -> None:
    """Refuse more than ``SAMPLE_CAP`` samples before anything allocates."""
    if count > SAMPLE_CAP:
        raise SampleCapError(f"{what} would exceed {SAMPLE_CAP} samples")


def _grid(t0: float, t1: float, h: float) -> tuple[int, float]:
    """Number of full steps and the (possibly zero) trailing remainder."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvalidArgumentError(
            f"t0 and t1 must be finite, got t0={t0!r}, t1={t1!r}")
    if not (math.isfinite(h) and h > 0):
        raise InvalidArgumentError(f"step must be finite and positive, got {h!r}")
    if t1 <= t0:
        raise InvalidArgumentError("t1 must exceed t0")
    span = t1 - t0
    # n_full + 2 <= SAMPLE_CAP, checked before the int conversion so that an
    # overflowing span (inf) fails here too
    if not span / h + 1e-9 < SAMPLE_CAP - 1:
        raise SampleCapError(f"trajectory would exceed {SAMPLE_CAP} samples")
    n_full = int(math.floor(span / h + 1e-9))
    rem = span - n_full * h
    if rem < 1e-9 * max(1.0, abs(t1)):
        rem = 0.0
    return n_full, rem


def _times(t0: float, t1: float, h: float) -> np.ndarray:
    """``t0 + k*h`` at the full steps, then ``t1`` after a partial step."""
    n_full, rem = _grid(t0, t1, h)
    times = t0 + np.arange(n_full + 1) * h
    return np.append(times, t1) if rem > 0.0 else times


def _check_rows(rows: np.ndarray, t_of: Callable[[int], float]) -> None:
    """Raise at ``t_of(j)`` for the first row ``j`` beyond the threshold."""
    bad = ~(np.abs(rows).max(axis=1) <= ESCAPE_THRESHOLD)
    if bad.any():
        raise NonFiniteStateError(t_of(int(bad.argmax())))


def _rk4(f, x: list, k: int, tk: float, dt: float) -> list:
    """One RK4 step of ``dt`` from step ``k``'s start ``tk`` on a flat list,
    in numpy's order; ``f(x, t, k, s)`` is the field ``s`` into the step."""
    half = 0.5 * dt
    k1 = f(x, tk, k, 0.0)
    k2 = f([a + half * b for a, b in zip(x, k1)], tk + half, k, half)
    k3 = f([a + half * b for a, b in zip(x, k2)], tk + half, k, half)
    k4 = f([a + dt * b for a, b in zip(x, k3)], tk + dt, k, dt)
    return [a + dt / 6.0 * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(x, k1, k2, k3, k4)]


def _march(buf: np.ndarray, base: int, t0: float, t1: float, h: float, f,
           a=None, delays: Sequence = (), lags: Sequence[int] = (),
           kernel=None) -> int:
    """Advance ``buf[base]`` from ``t0`` to ``t1``; returns the final row.

    Step ``k`` writes ``buf[base + k + 1]`` (a shorter buffer restarts at
    ``buf[base]`` each chunk).  Linear full steps (``a``, ``delays`` at
    ``lags`` steps back) are :func:`_linear_steps`; the other steps run on
    ``kernel`` (a ``SystemDef.rk4_kernel``) if given, else on :func:`_rk4`.
    """
    t0, h = float(t0), float(h)
    n_full, rem = _grid(t0, t1, h)
    flat = buf.reshape(len(buf), -1)
    states = buf.reshape(len(buf), buf.shape[1], -1)  # a vector is (n, 1)
    row = base  # the row of the latest state

    def run(k: int, stop: int, dt: float, maps=None) -> None:
        # steps k .. stop-1, then one escape check of their rows
        nonlocal row
        lo, x, rows = row + 1, flat[row].tolist(), []
        try:
            if maps is not None:
                row = _linear_steps(states, row, stop - k, maps, lags)
            elif kernel:
                kernel(x, t0, h, k, stop, dt, rows)
            else:
                for j in range(k, stop):
                    x = _rk4(f, x, j, t0 + j * h, dt)
                    row += 1
                    flat[row] = x  # a delayed field reads it
        finally:  # an escape before a domain error wins
            if rows:
                flat[lo:lo + len(rows)] = rows
                row += len(rows)
            _check_rows(flat[lo:row + 1], lambda j: t1 if k + j == n_full
                        else t0 + (k + j + 1) * h)

    with np.errstate(all="ignore"):  # the row checks catch what overflows
        for start in range(0, n_full, CHUNK):
            tk = t0 + np.arange(start, min(start + CHUNK, n_full)) * h
            if row + len(tk) >= len(buf):
                buf[base], row = buf[row], base
            run(start, start + len(tk), h, None if a is None else
                _step_maps(a, delays, (tk, tk + 0.5 * h, tk + h), h))
        if rem > 0.0:
            run(n_full, n_full + 1, rem)
    return row


def _linear_steps(states: np.ndarray, row: int, count: int, maps: np.ndarray,
                  lags: Sequence[int]) -> int:
    """``count`` steps ``x_{k+1} = W_k [x_k, delayed rows]`` from
    ``states[row]``; returns the final row.  In a block of at most the
    shortest lag every delayed row is written, so a step is affine,
    ``w_k x_k + c_k``: one product a step, or up to ``SCAN_WIDTH`` the running
    products of ``[[w_k, c_k], [0, I]]`` (``x_0`` in ``c_0``, ``w_0 = 0``),
    a Hillis-Steele scan of log2(block) products."""
    n, p = states.shape[1:]
    reads = np.array([o for b in lags for o in (-b, 1 - b)], dtype=int)
    done, size = 0, min((CHUNK, *lags))
    while done < count:
        b = min(size, count - done)
        m = maps if maps.ndim == 2 else maps[done:done + b]
        w = m[..., :n]  # one matrix if the maps do not vary
        y = states[row + np.arange(b)[:, None] + reads]  # (b, 2 lags, n, p)
        c = m[..., n:] @ y.reshape(b, -1, p) if lags else 0.0
        kept = b
        if n + p > SCAN_WIDTH:
            for i in range(b):
                x = np.matmul(w if w.ndim == 2 else w[i], states[row + i],
                              out=states[row + i + 1])
                if lags:
                    x += c[i]
        else:
            g = np.zeros((b, n + p, n + p))
            g[:, :n, :n], g[:, :n, n:], g[:, n:, n:] = w, c, np.eye(p)
            g[0, :n, n:] += g[0, :n, :n] @ states[row]
            g[0, :n, :n] = 0.0
            for d in (1 << k for k in range((b - 1).bit_length())):
                g[d:] = g[d:] @ g[:-d]  # row i: the product of i-2d+1 .. i
            # a composed map can overflow where the state does not (inf * 0 on
            # a stable manifold): keep the rows before the first, restart there
            ok = np.isfinite(g[:, :n, :n]).all(axis=(1, 2))
            kept = b if ok.all() else int(ok.argmin())
            states[row + 1:row + 1 + kept] = g[:kept, :n, n:]
        row, done, size = row + kept, done + kept, min((CHUNK, *lags, 2 * kept))
    return row


def integrate(sys: SystemDef, x0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical RK4 on ``[t0, t1]`` with fixed step ``h``.

    Fourth-order accurate on smooth systems: halving ``h`` cuts the endpoint
    error roughly 16x.  Raises :class:`NonFiniteStateError` at the first
    escaping step (cf. finite-time escape systems).
    """
    if sys.delays:
        raise InvalidArgumentError("system has delays; use integrate_dde")
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.dimension,):
        raise DimensionMismatchError(
            f"x0 must have length {sys.dimension}, got shape {x.shape}")
    a, f = _field(sys, x.shape)
    times = _times(t0, t1, h)
    buf = np.empty((len(times), sys.dimension))
    buf[0] = x
    _march(buf, 0, t0, t1, h, f, a, kernel=a is None and sys.rk4_kernel)
    return Trajectory(times, buf, h)


def _field(sys: SystemDef, shape: tuple[int, ...]):
    """``(A, f)``: the linear coefficient (None if nonlinear) and the
    undelayed field ``f(x, t, k, s)`` of :func:`_rk4` on flat ``shape``."""
    a = sys.linear_coefficient
    if a is not None:
        return a, lambda x, t, k, s: \
            (_at(a, t) @ np.reshape(x, shape)).ravel().tolist()
    fused = sys.scalar_field
    return None, lambda x, t, k, s: fused(x, t)


def _at(coeff, t):
    """A coefficient (constant array or compiled grid) at time(s) ``t``."""
    return coeff if isinstance(coeff, np.ndarray) else coeff(t)


def _step_maps(a, delays: Sequence, stages, h: float) -> np.ndarray | None:
    """RK4 step maps for ``x' = A(t) x + sum_i D_i(t) x(t - lag_i)``.

    ``stages`` holds the step starts, midpoints and ends; coefficients that
    vary are evaluated there in one batch each.  Returns ``W`` of shape
    ``(..., n, n (1 + 2m))`` with ``x_{k+1} = W_k [x_k, y_1, y_1', ...]``,
    where ``y_i`` and ``y_i'`` are the grid nodes at ``t_k - lag_i`` and one
    step later (the midpoint stages read their mean, as the stage loop does).
    Without varying coefficients ``W`` is one ``(n, M)`` matrix.  None when
    a coefficient raises :class:`DomainError` or ``W`` is not finite.
    """
    t_now, t_mid, t_end = stages
    try:
        a_mid = _at(a, t_mid)
        n = a_mid.shape[-1]
        width = n * (1 + 2 * len(delays))
        eye = np.eye(n, width)

        def delayed(t, w_now: float, w_next: float):
            if not delays:
                return 0.0
            values = [_at(d, t) for d in delays]
            out = np.zeros(np.broadcast_shapes(*(v.shape for v in values))[:-2]
                           + (n, width))
            for i, v in enumerate(values):
                lo = n * (1 + 2 * i)
                if w_now:
                    out[..., lo:lo + n] = w_now * v
                if w_next:
                    out[..., lo + n:lo + 2 * n] = w_next * v
            return out

        # k1 + 2 k2 + 2 k3 + k4 accumulates in place to keep the stacks few
        b_mid = delayed(t_mid, 0.5, 0.5)
        k = _at(a, t_now) @ eye + delayed(t_now, 1.0, 0.0)
        total = k.copy()
        k = a_mid @ (eye + 0.5 * h * k) + b_mid
        total += 2.0 * k
        k = a_mid @ (eye + 0.5 * h * k) + b_mid
        total += 2.0 * k
        k = _at(a, t_end) @ (eye + h * k) + delayed(t_end, 0.0, 1.0)
        total += k
    except DomainError:
        return None
    w = eye + (h / 6.0) * total
    return w if np.isfinite(w).all() else None


def integrate_matrix(sys: SystemDef, t0: float, t1: float, h: float) -> np.ndarray:
    """Fundamental matrix ``X(t1)`` with ``X(t0) = I`` for a linear system.

    Columns are the fundamental system of solutions (unit initial
    conditions), advanced together by matrix-valued RK4 on the step maps
    ``W_k``.  The march keeps one chunk of states.
    """
    if isinstance(sys.rhs, Nonlinear):
        raise InvalidArgumentError("integrate_matrix requires a linear system")
    sys.check_undelayed("integrate_matrix")
    n = sys.dimension
    a, f = _field(sys, (n, n))
    buf = np.empty((min(_grid(t0, t1, h)[0], CHUNK) + 2, n, n))
    buf[0] = np.eye(n)
    return buf[_march(buf, 0, t0, t1, h, f, a)].copy()


def dde_step(lags: Sequence[float]) -> float:
    """A step near 1e-3 that divides every lag to within 1e-9."""
    smallest = min(lags)
    m = max(1, round(smallest / 1e-3))
    for extra in range(0, 1000):
        h = smallest / (m + extra)
        if all(abs(lag - round(lag / h) * h) <= 1e-9 for lag in lags):
            return h
    raise InvalidArgumentError(
        f"no common step near 0.001 divides lags {lags}")


def integrate_dde(sys: SystemDef, history: HistoryFn, t1: float,
                  h: float) -> Trajectory:
    """Method of steps for ``x'(t) = f(x, t) + sum_i A_i(t) x(t - lag_i)``.

    Starts at ``t = 0`` with ``x(t) = history(t)`` on ``[-max lag, 0]``.
    Delayed values are read from the accumulating grid by linear
    interpolation; ``h`` must divide every lag (within 1e-9) so lookups at
    whole steps land on grid nodes.
    """
    if not sys.delays:
        raise InvalidArgumentError("system has no delays; use integrate")
    times = _times(0.0, t1, h)
    lags = [d.lag for d in sys.delays]
    lag_steps = [round(lag / h) for lag in lags]
    for lag, back in zip(lags, lag_steps):  # 0 steps back is the next state
        if back < 1 or abs(lag - back * h) > 1e-9:
            raise InvalidArgumentError(
                f"step {h} does not divide delay lag {lag}")
    if history.span < sys.max_lag - 1e-12:
        raise HistoryGapError(
            f"history covers [{-history.span}, 0] but max lag is {sys.max_lag}")

    a, f0 = _field(sys, (sys.dimension,))
    coeffs = sys.delay_coefficients
    base = round(sys.max_lag / h)  # index of the t=0 grid node
    _cap_samples(base + len(times), "trajectory")
    buf = np.empty((base + len(times), sys.dimension))
    buf[:base + 1] = history(-(base - np.arange(base + 1)) * h)

    def f(x, t, k, s):
        # delayed values at (k + c)*h - lag: nodes, or within a partial step
        dx = np.array(f0(x, t, k, s))
        c = s / h
        for coeff, back in zip(coeffs, lag_steps):
            pos = base + k - back
            y = buf[pos] if c <= 0.0 else buf[pos + 1] if c >= 1.0 else \
                (1.0 - c) * buf[pos] + c * buf[pos + 1]
            dx = dx + _at(coeff, t) @ y
        return dx.tolist()

    _march(buf, base, 0.0, t1, h, f, a, coeffs, lag_steps)
    return Trajectory(times, buf[base:], h)
