"""Deterministic fixed-step integration.

Classical RK4 for vector ODEs and fundamental-matrix ODEs, plus the method
of steps for linear multi-delay equations.  Fixed step, no adaptivity.
All three run one march with two step sources.  Full steps of a linear
system are products with per-step RK4 maps ``W_k``, formed from the
coefficients at whole chunks of stage times at once.  Every other step
(nonlinear, a chunk whose maps fail, a trailing partial step) is one RK4
stage loop on Python floats, in numpy's operation order, of one fused
function per right-hand side.  Stage times are ``t0 + k*h + s``.  The two
sources agree to within rounding, below 1e-12 of the state's scale after
1e4 steps.  A state component beyond ``ESCAPE_THRESHOLD`` (or non-finite)
aborts the run with :class:`NonFiniteStateError` at the first escaping
step, the finite-time-escape verdict: each chunk of states is checked once,
and an escape wins over a later domain error.
"""

from __future__ import annotations

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
    "LinearConstant", "LinearTimeVarying", "Nonlinear", "Delay", "SystemDef",
    "Trajectory", "HistoryFn", "integrate", "integrate_matrix", "integrate_dde",
    "compile_matrix", "coefficient_grid", "dde_step",
]

ESCAPE_THRESHOLD = 1e12
SAMPLE_CAP = 10_000_000
#: steps per batch of RK4 step maps; bounds the (CHUNK, n, M) map stacks
CHUNK = 1024


# --- system definitions --------------------------------------------------------

ExprEntry = Union[ex.Expr, float, int, str]


def _expr_grid(entries, params) -> tuple[tuple[ex.Expr, ...], ...]:
    return tuple(tuple(ex.as_expr(e, params) for e in row) for row in entries)


def _batch_filler(grid, params: Mapping[str, float]):
    """One generated function ``fill(x, t, out)`` writing every entry of the
    grid at the times ``t`` into the columns of ``out`` (shape ``(N, n*n)``)."""
    body = "".join(f"\n    out[:, {j}] = {ex._codegen(e, params)}"
                   for j, e in enumerate(e for row in grid for e in row))
    namespace = {"__builtins__": {}, **ex.VEC_NS}
    exec(compile(f"def fill(x, t, out):{body or ' pass'}", "<stabkit-grid>",
                 "exec"), namespace)
    return namespace["fill"]


def compile_matrix(entries: Sequence[Sequence[ExprEntry]],
                   params: Mapping[str, float] | None = None,
                   ) -> Callable[[float | np.ndarray], np.ndarray]:
    """Compile a grid of expression entries to a fast ``t -> ndarray``.

    A scalar ``t`` gives the ``(n, n)`` matrix from one fused scalar
    function (:func:`~stabkit.expr.compile_vector`).  A 1-D array of ``N``
    times gives the ``(N, n, n)`` stack from one numpy pass over the whole
    grid under :func:`~stabkit.expr.strict_rows`: a floating-point flag
    other than underflow, or a non-finite entry, raises
    :class:`DomainError` naming the first of the given times that fails.
    """
    params = dict(params or {})
    grid = _expr_grid(entries, set(params))
    vector = ex.compile_vector([e for row in grid for e in row], params)
    shape = (len(grid), len(grid[0]) if grid else 0)
    fill = None

    def at(t):
        nonlocal fill
        if not (isinstance(t, np.ndarray) and t.ndim == 1):
            return np.array(vector((), float(t))).reshape(shape)
        if fill is None:  # compiled on first use: many grids see only scalars
            fill = _batch_filler(grid, params)
        out = np.empty((len(t), shape[0] * shape[1]))

        def rows(r):
            fill((), t[r], out[r])
            if not np.isfinite(out[r]).all():
                raise DomainError("non-finite evaluation result")

        ex.strict_rows(rows, len(t), lambda k: f"t={float(t[k])!r}")
        return out.reshape((len(t),) + shape)

    return at


def coefficient_grid(entries, n: int, params: Mapping[str, float]):
    """An ``n x n`` coefficient from a grid of numbers or expressions.

    Returns a float ndarray when no entry depends on ``t`` or the state, so
    definition files may spell constants exactly ("exp(-0.4)/3") and still
    describe a time-invariant coefficient; otherwise the expression grid.
    """
    params = _params(params)
    rows = entries.tolist() if isinstance(entries, np.ndarray) else entries
    if not isinstance(rows, (list, tuple)) or len(rows) != n or not all(
            isinstance(row, (list, tuple)) and len(row) == n for row in rows):
        raise DimensionMismatchError(f"coefficient must be an {n}x{n} matrix")
    if not all(isinstance(v, (int, float)) for row in rows for v in row):
        grid = _expr_grid(rows, set(params))
        names = set().union(*(ex.free_vars(e) for row in grid for e in row))
        names -= set(params)
        if names & {"t", "k"} or any(name.startswith("x") for name in names):
            return grid
        rows = compile_matrix(grid, params)(0.0)
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
class LinearConstant:
    """Right-hand side ``x' = a x`` (``b`` kept for equilibrium analysis)."""
    a: np.ndarray
    b: np.ndarray | None = None


@dataclass(frozen=True)
class LinearTimeVarying:
    """Right-hand side ``x' = P(t) x`` with expression entries."""
    entries: tuple[tuple[ex.Expr, ...], ...]


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
    Construction normalizes entries (strings parse, numbers wrap, delay
    coefficients go through :func:`coefficient_grid`) and validates
    dimensions, lags and the period; instances are treated as immutable
    after that.
    """

    dimension: int
    rhs: LinearConstant | LinearTimeVarying | Nonlinear
    delays: tuple[Delay, ...] = ()
    period: float | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        n = self.dimension
        if n < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        self.params = _params(self.params)
        rhs = self.rhs
        if isinstance(rhs, LinearConstant):
            a = _finite(rhs.a, "A")
            if a.shape != (n, n):
                raise DimensionMismatchError(f"A must be {n}x{n}, got {a.shape}")
            b = None if rhs.b is None else _finite(rhs.b, "B")
            if b is not None and b.shape[0] != n:
                raise DimensionMismatchError("B must have n rows")
            self.rhs = LinearConstant(a, b)
        elif isinstance(rhs, LinearTimeVarying):
            grid = _expr_grid(rhs.entries, set(self.params))
            if len(grid) != n or any(len(row) != n for row in grid):
                raise DimensionMismatchError(f"coefficient grid must be {n}x{n}")
            self.rhs = LinearTimeVarying(grid)
        elif isinstance(rhs, Nonlinear):
            comps = tuple(ex.as_expr(c, set(self.params)) for c in rhs.components)
            if len(comps) != n:
                raise DimensionMismatchError(
                    f"need {n} component expressions, got {len(comps)}")
            for c in comps:
                if ex.max_state_index(c) > n:
                    raise DimensionMismatchError(
                        f"expression {ex.to_string(c)!r} references a state "
                        f"variable beyond dimension {n}")
            self.rhs = Nonlinear(comps)
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
        if not isinstance(self.rhs, LinearTimeVarying):
            return
        ts = np.linspace(0.137, self.period, 16)
        # interleaved (t, t + T) so a domain error names the time the
        # time-by-time check would have reached first
        at = compile_matrix(self.rhs.entries, self.params)
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
        if self.delays:
            return False
        if isinstance(self.rhs, LinearConstant):
            return True
        if isinstance(self.rhs, LinearTimeVarying):
            return not any("t" in ex.free_vars(e)
                           for row in self.rhs.entries for e in row)
        return not any("t" in ex.free_vars(c) for c in self.rhs.components)

    def rhs_callable(self) -> Callable[[np.ndarray, float], np.ndarray]:
        """Compiled evaluator of the undelayed right-hand side."""
        f = _field(self, (self.dimension,))[1]
        return lambda x, t: np.array(
            f(np.asarray(x, dtype=float).tolist(), float(t), 0, 0.0))

    def rhs_vectorized(self) -> Callable[[np.ndarray, float], np.ndarray]:
        """Batch evaluator ``F(X, t) -> (N, n)`` over rows of sample points.

        ``t`` is one time for every row or a 1-D array of per-row times.
        """
        a = _linear_coefficient(self)
        if isinstance(a, np.ndarray):
            return lambda X, t: X @ a.T
        if a is not None:

            def fv(X: np.ndarray, t) -> np.ndarray:
                if np.ndim(t) == 0:
                    return X @ a(t).T
                out = np.einsum("kij,kj->ki", a(np.asarray(t, dtype=float)), X)
                if not np.isfinite(out).all():  # einsum raises no flag
                    raise DomainError("non-finite evaluation result")
                return out

            return fv
        fns = [ex.compile_expr_vec(c, self.params) for c in self.rhs.components]
        return lambda X, t: np.column_stack([fn(X, t) for fn in fns])


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
           a=None, delays: Sequence = (), reads=None, keep: bool = True) -> int:
    """Advance ``buf[base]`` from ``t0`` to ``t1``; returns the final row.

    Step ``k`` writes ``buf[base + k + 1]``; with ``keep`` off each chunk
    restarts at ``buf[base]``.  Linear full steps (coefficients ``a``,
    ``delays``) multiply the rows ``base + k + reads`` (None: the state) by
    their step maps; the other steps are :func:`_rk4` of ``f``.
    """
    t0, h = float(t0), float(h)
    n_full, rem = _grid(t0, t1, h)
    flat = buf.reshape(len(buf), -1)
    row = base  # the row of the latest state

    def check(lo: int, k: int) -> None:  # rows lo..row hold steps k, k+1, ...
        _check_rows(flat[lo:row + 1], lambda j: t1 if k + j == n_full
                    else t0 + (k + j + 1) * h)

    with np.errstate(all="ignore"):  # the row checks catch what overflows
        for start in range(0, n_full, CHUNK):
            stop = min(start + CHUNK, n_full)
            if not keep and start:
                buf[base] = buf[row]
                row = base
            lo, tk = row + 1, t0 + np.arange(start, stop) * h
            maps = None if a is None else \
                _step_maps(a, delays, (tk, tk + 0.5 * h, tk + h), h)
            if maps is None:
                x = flat[row].tolist()
                try:
                    for k in range(start, stop):
                        x = _rk4(f, x, k, t0 + k * h, h)
                        row += 1
                        flat[row] = x
                except DomainError:
                    check(lo, start)  # an escape before the error wins
                    raise
            else:
                for j in range(stop - start):
                    x = buf[row] if reads is None else \
                        buf.take(reads + row, axis=0).ravel()
                    np.matmul(maps[j] if maps.ndim == 3 else maps, x,
                              out=buf[row + 1])
                    row += 1
            check(lo, start)
        if rem > 0.0:
            x = _rk4(f, flat[row].tolist(), n_full, t0 + n_full * h, rem)
            row += 1
            flat[row] = x
            check(row, n_full)
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
    _march(buf, 0, t0, t1, h, f, a)
    return Trajectory(times, buf, h)


def _linear_coefficient(sys: SystemDef):
    """``A`` of a linear right-hand side: the constant matrix, or the compiled
    grid ``t -> A(t)``; None for a nonlinear one."""
    rhs = sys.rhs
    if isinstance(rhs, LinearConstant):
        return rhs.a
    if isinstance(rhs, LinearTimeVarying):
        return compile_matrix(rhs.entries, sys.params)
    return None


def _field(sys: SystemDef, shape: tuple[int, ...]):
    """``(A, f)``: the linear coefficient (None if nonlinear) and the
    undelayed field ``f(x, t, k, s)`` of :func:`_rk4` on flat ``shape``."""
    a = _linear_coefficient(sys)
    if a is not None:
        return a, lambda x, t, k, s: \
            (_at(a, t) @ np.reshape(x, shape)).ravel().tolist()
    fused = ex.compile_vector(sys.rhs.components, sys.params)
    return None, lambda x, t, k, s: fused(x, t)


def _delay_coefficients(sys: SystemDef) -> list:
    """``[A_1, ..., A_m]``: constant arrays, or compiled grids ``t -> A_i(t)``."""
    return [d.coeff if isinstance(d.coeff, np.ndarray)
            else compile_matrix(d.coeff, sys.params) for d in sys.delays]


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
    conditions), advanced together by matrix-valued RK4: one product with
    the step map ``W_k`` per step.  The march keeps one chunk of states.
    """
    if isinstance(sys.rhs, Nonlinear):
        raise InvalidArgumentError("integrate_matrix requires a linear system")
    n = sys.dimension
    a, f = _field(sys, (n, n))
    buf = np.empty((min(_grid(t0, t1, h)[0], CHUNK) + 2, n, n))
    buf[0] = np.eye(n)
    return buf[_march(buf, 0, t0, t1, h, f, a, keep=False)].copy()


def dde_step(lags: Sequence[float], target: float = 1e-3) -> float:
    """A step near ``target`` that divides every lag to within 1e-9."""
    smallest = min(lags)
    m = max(1, round(smallest / target))
    for extra in range(0, 1000):
        h = smallest / (m + extra)
        if all(abs(lag - round(lag / h) * h) <= 1e-9 for lag in lags):
            return h
    raise InvalidArgumentError(
        f"no common step near {target} divides lags {lags}")


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
    for lag in lags:
        if abs(lag - round(lag / h) * h) > 1e-9:
            raise InvalidArgumentError(
                f"step {h} does not divide delay lag {lag}")
    if history.span < sys.max_lag - 1e-12:
        raise HistoryGapError(
            f"history covers [{-history.span}, 0] but max lag is {sys.max_lag}")

    a, f0 = _field(sys, (sys.dimension,))
    coeffs = _delay_coefficients(sys)
    lag_steps = [round(lag / h) for lag in lags]
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

    # rows of buf a step map reads: x_k, then each lag's node pair
    reads = np.array([0] + [o for b in lag_steps for o in (-b, 1 - b)])
    _march(buf, base, 0.0, t1, h, f, a, coeffs, reads)
    return Trajectory(times, buf[base:], h)
