"""Scalar oracle: a tree-walking evaluator, the per-point scans built on it,
and RK4 taken stage by stage.

The library evaluates every sampled scan through the strict numpy batch
evaluator.  These reference implementations evaluate one point at a time
with Python floats and libm, checking every intermediate for finiteness, so
the tests can pin the batches to an independent evaluator: same values
within rounding, and the same first failing sample.  The integrators march
on step maps and a Python-float stage loop with one escape check per
chunk; :func:`stage_loop` is RK4 on numpy arrays with a check after every
step, as the integrators once were.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from stabkit import expr as ex
from stabkit import linalg, odeint
from stabkit.errors import (
    DimensionMismatchError,
    DomainError,
    NonFiniteStateError,
    UnboundVariableError,
    UnknownIdentifierError,
)
from stabkit.odeint import Nonlinear


@dataclass
class EvalContext:
    """Bindings for one evaluation: state vector, time, and parameters.

    ``state[k-1]`` backs ``xk``; ``time`` backs both ``t`` and the discrete
    index ``k``; everything else is looked up in ``params``.
    """

    state: Sequence[float] = ()
    time: float | None = None
    params: Mapping[str, float] | None = None


def _check_finite(value: float, node: ex.Expr) -> float:
    if not math.isfinite(value):
        raise DomainError(f"non-finite value from {ex.to_string(node)!r}", node)
    return value


def _apply_call(name: str, args: list[float], node: ex.Expr) -> float:
    try:
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
        if name == "tan":
            return math.tan(args[0])
        if name == "exp":
            return math.exp(args[0])
        if name == "log":
            if args[0] <= 0.0:
                raise DomainError(f"log of non-positive value {args[0]!r}", node)
            return math.log(args[0])
        if name == "sqrt":
            if args[0] < 0.0:
                raise DomainError(f"sqrt of negative value {args[0]!r}", node)
            return math.sqrt(args[0])
        if name == "abs":
            return abs(args[0])
        if name == "pow":
            return math.pow(args[0], args[1])
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{name}() failed: {exc}", node) from None
    raise UnknownIdentifierError(name)


def evaluate(e: ex.Expr, ctx: EvalContext) -> float:
    """Evaluate the tree at the given context.

    Raises :class:`DomainError` on division by zero, invalid function
    operands, or any non-finite intermediate, and
    :class:`UnboundVariableError` when a variable has no binding.
    """
    if isinstance(e, ex.Number):
        return e.value
    if isinstance(e, ex.Var):
        return _lookup(e.name, ctx)
    if isinstance(e, ex.Unary):
        return -evaluate(e.child, ctx)
    if isinstance(e, ex.Binary):
        a = evaluate(e.left, ctx)
        b = evaluate(e.right, ctx)
        if e.op == "+":
            return _check_finite(a + b, e)
        if e.op == "-":
            return _check_finite(a - b, e)
        if e.op == "*":
            return _check_finite(a * b, e)
        if e.op == "/":
            if b == 0.0:
                raise DomainError("division by zero", e)
            return _check_finite(a / b, e)
        if e.op == "^":
            try:
                return _check_finite(math.pow(a, b), e)
            except (ValueError, OverflowError) as exc:
                raise DomainError(f"power failed: {exc}", e) from None
    if isinstance(e, ex.Call):
        args = [evaluate(a, ctx) for a in e.args]
        return _check_finite(_apply_call(e.func, args, e), e)
    raise TypeError(f"not an expression node: {e!r}")


def _lookup(name: str, ctx: EvalContext) -> float:
    if name == "t":
        if ctx.time is None:
            raise UnboundVariableError(name)
        return float(ctx.time)
    m = ex._VAR_RE.match(name)
    if m:
        idx = int(m.group(1))
        if idx > len(ctx.state):
            raise UnboundVariableError(name)
        return float(ctx.state[idx - 1])
    if ctx.params is not None and name in ctx.params:
        return float(ctx.params[name])
    if name == "k":  # discrete orbit index, unless declared as a parameter
        if ctx.time is None:
            raise UnboundVariableError(name)
        return float(ctx.time)
    raise UnboundVariableError(name)


# --- per-point scans ----------------------------------------------------------------

def value(v, x, t: float = 0.0) -> float:
    """A candidate V at one point, by the tree walker."""
    return evaluate(v.expression, EvalContext(tuple(map(float, x)), t, v.params))


def rhs(sys, x, t: float) -> np.ndarray:
    """The undelayed right-hand side at one point; expression components
    go through the tree walker."""
    if isinstance(sys.rhs, Nonlinear):
        ctx = EvalContext(tuple(map(float, x)), t, sys.params)
        return np.array([evaluate(c, ctx) for c in sys.rhs.components])
    return sys.rhs_callable()(np.asarray(x, dtype=float), t)


def vdot_along(sys, v):
    """Evaluator of the derivative of V along trajectories of ``sys``.

    ``Vdot(x, t) = grad_x V . f(x, t) + dV/dt``, with both the gradient and
    the time partial taken by central differences (the time term only when
    V actually mentions t).
    """
    if v.max_state_index() > sys.dimension:
        raise DimensionMismatchError(
            "candidate references state variables beyond the system dimension")
    n = sys.dimension
    h = v.fd_step

    def vdot(x, t: float = 0.0) -> float:
        x = np.asarray(x, dtype=float)
        fx = rhs(sys, x, t)
        total = 0.0
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            total += (value(v, x + e, t) - value(v, x - e, t)) / (2.0 * h) * fx[i]
        if v.time_dependent:
            total += (value(v, x, t + h) - value(v, x, t - h)) / (2.0 * h)
        return float(total)

    return vdot


def sample_values(sys, v, X, T):
    """V at every sample, then Vdot at every sample: the per-point scan."""
    vdot = vdot_along(sys, v)
    return (np.array([value(v, x, t) for x, t in zip(X, T)]),
            np.array([vdot(x, t) for x, t in zip(X, T)]))


def delta_values(sys, v, X, k: int):
    """V and Delta V at every row of ``X``, V over all rows first."""
    def update(x):
        ctx = EvalContext(tuple(map(float, x)), float(k), sys.params)
        return [evaluate(c, ctx) for c in sys.update]

    v_vals = np.array([value(v, x, float(k)) for x in X])
    d_vals = np.array([value(v, update(x), float(k + 1)) - value(v, x, float(k))
                       for x in X])
    return v_vals, d_vals


def matrix_at(q, x, t: float) -> np.ndarray:
    """Coefficient matrix of a quadratic form at one point."""
    ctx = EvalContext(tuple(map(float, x)), t, q.params)
    return np.array([[evaluate(e, ctx) for e in row] for row in q.entries])


def sylvester_loop(q, X, times):
    """Point-by-point Sylvester scan, x outer: running minima of the leading
    minors and the last row that sets a strict new minimum.  The entries go
    through the scalar closures of ``compile_expr``: libm, like the tree
    walker, and fast enough for the 32k-point scans compared here."""
    fns = [[ex.compile_expr(e, q.params) for e in row] for row in q.entries]
    min_minors = np.full(q.dimension, np.inf)
    worst = 0
    for row, (x, t) in enumerate((x, t) for x in X for t in times):
        m = np.array([[f(x, t) for f in entries] for entries in fns])
        minors = linalg.principal_minors(m)
        k = int(np.argmin(minors - min_minors))
        if minors[k] < min_minors[k]:
            worst = row
        min_minors = np.minimum(min_minors, minors)
    return min_minors, worst


def first_failure(fn, rows):
    """Index and error of the first row at which ``fn`` raises, or None."""
    for k, row in enumerate(rows):
        try:
            fn(*row)
        except DomainError as exc:
            return k, exc
    return None


# --- RK4 stage by stage ------------------------------------------------------------

def _check_state(x: np.ndarray, t: float) -> None:
    # one reduction: a NaN propagates through max and fails the comparison
    if not np.abs(x).max() <= odeint.ESCAPE_THRESHOLD:
        raise NonFiniteStateError(t)


def _rk4_step(f, x, t, h):
    k1 = f(x, t)
    k2 = f(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(x + h * k3, t + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def stage_loop(sys, x0, t0: float, t1: float, h: float, f=None) -> np.ndarray:
    """States of ``x' = f(x, t)`` (default ``rhs_callable``) from ``x0`` at
    every step on ``[t0, t1]``: numpy RK4 stage by stage, each state
    checked."""
    f = f or sys.rhs_callable()
    n_full, rem = odeint._grid(t0, t1, h)
    x = np.asarray(x0, dtype=float)
    states = [x]
    for k in range(n_full):
        x = _rk4_step(f, x, t0 + k * h, h)
        _check_state(x, t0 + (k + 1) * h)
        states.append(x)
    if rem > 0.0:
        x = _rk4_step(f, x, t0 + n_full * h, rem)
        _check_state(x, t1)
        states.append(x)
    return np.array(states)


def _stage_loop_matrix(sysd, t0, t1, h):
    """Matrix RK4 taken stage by stage: the fundamental matrix at ``t1``."""
    a = odeint._linear_coefficient(sysd)
    return stage_loop(sysd, np.eye(sysd.dimension), t0, t1, h,
                      lambda X, t: odeint._at(a, t) @ X)[-1]
