"""Scalar oracle: a tree-walking evaluator, the per-point scans built on it,
the ball sampler one Halton index at a time, and RK4 taken stage by stage.

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
from stabkit import linalg, lyapunov, odeint
from stabkit.errors import (
    DimensionMismatchError,
    DomainError,
    InvalidArgumentError,
    NonFiniteStateError,
    UnboundVariableError,
    UnknownIdentifierError,
)
from stabkit.odeint import Nonlinear
from stabkit.sampling import sphere_directions

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


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
    """Evaluator of the derivative of V along trajectories of ``sys``: the
    library's Vdot tree (``grad_x V . f(x, t) + dV/dt``, parameters bound)
    walked point by point.  ``test_expr`` checks the derivative trees it is
    built from against central differences of the walker."""
    if v.max_state_index() > sys.dimension:
        raise DimensionMismatchError(
            "candidate references state variables beyond the system dimension")
    tree = lyapunov._trees(sys, v)[1]
    return lambda x, t=0.0: evaluate(tree, EvalContext(tuple(map(float, x)), t))


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
    fns = [[ex.compile_expr(ex.bind(e, q.params)) for e in row]
           for row in q.entries]
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


def hessian_trees(e: ex.Expr, x, t: float) -> np.ndarray | None:
    """The Hessian of ``e`` at ``(x, t)`` by the symbolic route: n gradient
    trees, then one tree per entry of the upper triangle (the derivative by
    x_j of the one by x_i, i <= j), compiled together and mirrored; None
    where a tree fails there or breaks the size limits."""
    n = len(x)
    rows, cols = np.triu_indices(n)
    try:
        grad = [ex.derivative(e, f"x{i + 1}") for i in range(n)]
        upper = ex.compile_vector([ex.derivative(grad[i], f"x{j + 1}")
                                   for i, j in zip(rows, cols)])(list(x), t)
    except (DomainError, InvalidArgumentError):
        return None
    h = np.empty((n, n))
    h[rows, cols] = h[cols, rows] = upper
    return h


def w3_minors(n: int, vdot: ex.Expr, t0: float) -> tuple[float, ...] | None:
    """The W3 minors of ``check_candidate`` the symbolic way: the leading
    minors of half the :func:`hessian_trees` of -Vdot at (0, t0)."""
    h = hessian_trees(vdot, [0.0] * n, t0)
    return None if h is None else tuple(
        float(m) for m in linalg.principal_minors(-0.5 * h))


def quadratic_vdot(sys, p):
    """The derivative of V = x'Px along ``sys`` at the rows of ``X``, as
    ``2 x'P f(x, t)`` from the batch field: no derivative tree."""
    return lambda X, t: 2.0 * np.einsum("ij,ij->i", X @ p,
                                        sys.batch_field(X, t))


def attraction_loop(sys, p, cmax, levels=48, directions=512, iterations=40):
    """c* of ``attraction_region`` level by level on :func:`quadratic_vdot`:
    the same ladder of levels and directions, and the same bisection."""
    vdot = quadratic_vdot(sys, p)
    dirs = sphere_directions(directions, sys.dimension)
    quad = np.einsum("ij,jk,ik->i", dirs, p, dirs)

    def passes(c):
        for k in range(1, levels + 1):
            X = dirs * np.sqrt(c * k / levels / quad)[:, None]
            X = X[np.linalg.norm(X, axis=1) > 1e-6]
            if len(X) and not np.all(vdot(X, 0.0) < 0.0):
                return False
        return True

    if passes(cmax):
        return float(cmax)
    lo, hi = cmax * 1e-9, cmax
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return float(lo)


def radial_loop(values, failed) -> bool:
    """The radial-unboundedness decision ray by ray, from the ``(rays,
    radii)`` V values and failure mask of ``lyapunov._radial_probe``: a
    ray with a failure must grow up to its first failing radius, one
    without must be nondecreasing and reach 100x its first value."""
    for ray, bad in zip(values, failed):
        grown = ray[:int(bad.argmax())]  # up to the first failing radius
        if bad.any() and not (len(grown) >= 2 and grown[-1] > grown[0]):
            return False
        if not bad.any() and (np.any(ray[1:] < ray[:-1])
                              or ray[-1] < 100.0 * max(ray[0], 1e-12)):
            return False
    return True


def radial_probe(v, n: int, t0: float, radius: float) -> bool:
    """``lyapunov._radial_probe`` point by point on the tree walker: the
    same rays and radii, a point failing where the walker raises."""
    dirs = sphere_directions(32, n)
    radii = [max(radius, 1.0), 10.0, 100.0, 1000.0]
    values = np.zeros((len(dirs), len(radii)))
    failed = np.zeros(values.shape, dtype=bool)
    for i, d in enumerate(dirs):
        for j, r in enumerate(radii):
            try:
                values[i, j] = value(v, d * r, t0)
            except DomainError:
                failed[i, j] = True
    return radial_loop(values, failed)


def radical_inverse(index: int, base: int) -> float:
    """The van der Corput radical inverse of one index, digit by digit."""
    inv = 0.0
    f = 1.0 / base
    i = index
    while i > 0:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


def ball_loop(count: int, dim: int, radius: float, exclude: float = 0.0):
    """``ball_points`` one Halton index at a time: from index 2 on, each
    cube point is kept when its norm (the root of the squares summed in
    component order) lies in ``(exclude, radius]``, until ``count`` are.
    A point is rejected as soon as a partial sum leaves the ball: adding a
    square never makes a rounded sum smaller."""
    points = []
    index = 1
    while len(points) < count:
        index += 1
        x, total = [], 0.0
        for base in PRIMES[:dim]:
            x.append((2.0 * radical_inverse(index, base) - 1.0) * radius)
            total += x[-1] * x[-1]
            if math.sqrt(total) > radius:
                break
        else:
            if math.sqrt(total) > exclude:
                points.append(x)
    return np.array(points, dtype=float).reshape(count, dim)


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
    a = sysd.linear_coefficient
    return stage_loop(sysd, np.eye(sysd.dimension), t0, t1, h,
                      lambda X, t: odeint._at(a, t) @ X)[-1]
