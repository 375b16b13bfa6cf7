"""Per-layer tracing of stabkit from outside the package.

The tracer replaces module bindings with timing wrappers and restores them
on :meth:`Tracer.uninstall`.  Consumer modules bind names at import time
(``from .odeint import integrate_matrix``), so each binding is wrapped where
it is used, not only where it is defined.

Two kinds of wrapper:

* **spans** at layer boundaries record ``(name, start, end, parent, op)``
  in memory; :meth:`Tracer.write_spans` writes them out at the end.
* **hot** wrappers for closures and helpers that run up to millions of
  times per op (compiled expressions, coefficient grids, right-hand sides,
  ``linalg``) only add to summed counters.

Both kinds keep one stack, so every wrapper's *self time* is its duration
minus the time of the wrappers it called, and the self times of one op add
up to the op's wall time.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

_now = time.perf_counter

# (module, attribute, group) for functions traced as spans.  The group names
# the layer metric the self time lands in.
SPANS = (
    ("cli", "load_system", "schema.load"),
    ("cli", "build_report", "schema.report"),
    ("schema", "SystemFile.build", "schema.build"),
    ("expr", "parse", "expr.parse"),
    ("cli", "integrate", "odeint.integrate"),
    ("floquet", "integrate_matrix", "odeint.integrate_matrix"),
    ("alpha", "integrate_dde", "odeint.integrate_dde"),
    ("cli", "integrate_dde", "odeint.integrate_dde"),
    ("odeint", "Trajectory.to_csv", "odeint.to_csv"),
    ("sampling", "halton", "sampling.halton"),
    ("lyapunov", "halton", "sampling.halton"),
    ("sampling", "ball_points", "sampling.ball_points"),
    ("lyapunov", "ball_points", "sampling.ball_points"),
    ("discrete", "ball_points", "sampling.ball_points"),
    ("lyapunov", "solve_lyapunov", "lyapunov.solve"),
    ("alpha", "solve_lyapunov", "lyapunov.solve"),
    ("lyapunov", "check_candidate", "lyapunov.check"),
    ("lyapunov", "check_instability", "lyapunov.check"),
    ("lyapunov", "attraction_region", "lyapunov.attraction"),
    ("lyapunov", "sylvester_tv", "lyapunov.sylvester"),
    ("autonomous", "find_equilibria", "autonomous.newton"),
    ("autonomous", "classify_linear", "autonomous.classify"),
    ("autonomous", "classify_critical_point_2d", "autonomous.classify"),
    ("autonomous", "local_stability", "autonomous.classify"),
    ("alpha", "certify", "alpha.certify"),
    ("alpha", "max_alpha", "alpha.certify"),
    ("alpha", "rde_residual", "alpha.rde_residual"),
    ("alpha", "rate_bound_inputs", "alpha.rate_inputs"),
    ("floquet", "floquet_report", "floquet.report"),
    ("floquet", "monodromy", "floquet.monodromy"),
    ("floquet", "liouville_check", "floquet.liouville"),
    ("discrete", "classify_discrete", "discrete.classify"),
    ("discrete", "iterate", "discrete.iterate"),
)
# functions whose result is a closure that runs per point or per step: the
# factory is a span, the closure a hot counter
FACTORIES = (
    ("expr", "compile_expr", "expr.compile", "expr.eval"),
    ("expr", "compile_expr_vec", "expr.compile", "expr.batch_eval"),
    ("odeint", "SystemDef.rhs_callable", "odeint.setup", "odeint.rhs"),
    ("odeint", "compile_matrix", "odeint.setup", "odeint.coeff_eval"),
    ("floquet", "compile_matrix", "odeint.setup", "odeint.coeff_eval"),
    ("alpha", "compile_matrix", "odeint.setup", "odeint.coeff_eval"),
)
LINALG = ("as_matrix", "eigenvalues", "definiteness", "principal_minors",
          "matrix_measure", "spectral_norm", "solve_dense")
HOT = (("autonomous", "jacobian_fd", "autonomous.jacobian"),)


def rk4_steps(span: float, h: float) -> int:
    """Steps the fixed-step integrators take over ``span``: ceil(span/h)."""
    return max(0, math.ceil(span / h - 1e-9))


class Tracer:
    """Spans and summed counters for one benchmark process."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        # one frame per active wrapper: [child time, span id]
        self._stack: list[list] = [[0.0, -1]]
        self._undo: list[tuple] = []

    # --- wrappers -------------------------------------------------------------

    def span(self, group: str, fn, on_call=None):
        stack, spans = self._stack, self.spans
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            sid = len(spans)
            parent = stack[-1][1]
            spans.append((group,))
            frame = [0.0, sid]
            stack.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dt = t1 - t0
                self_s[group] += dt - frame[0]
                calls[group] += 1
                stack[-1][0] += dt
                spans[sid] = (group, t0, t1, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def hot(self, group: str, fn, rows: bool = False):
        stack, self_s, calls, counts = (self._stack, self.self_s, self.calls,
                                        self.counts)
        rows_key = group + ".rows"

        def counted(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                stack.pop()
                self_s[group] += dt - frame[0]
                calls[group] += 1
                stack[-1][0] += dt
                if rows:
                    counts[rows_key] += len(args[0])

        counted.__wrapped__ = fn
        return counted

    def factory(self, group: str, closure_group: str, fn, rows: bool = False):
        hot = self.hot

        def make(*args, **kwargs):
            return hot(closure_group, fn(*args, **kwargs), rows)

        return self.span(group, make)

    # --- installation -----------------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        owner = self.modules[module]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced binding; :meth:`uninstall` restores them."""
        counts = self.counts
        steps = "odeint.rk4_steps"

        def on_integrate(args, kwargs):  # (sys, x0, t0, t1, h)
            counts[steps] += rk4_steps(args[3] - args[2], args[4])

        def on_matrix(args, kwargs):     # (sys, t0, t1, h)
            counts[steps] += rk4_steps(args[2] - args[1], args[3])

        def on_dde(args, kwargs):        # (sys, history, t1, h)
            counts[steps] += rk4_steps(args[2], args[3])

        def on_ball(args, kwargs):       # (count, dim, radius, ...)
            counts["sampling.points"] += args[0]

        def on_halton(args, kwargs):     # (count, dims, start)
            counts["sampling.halton_points"] += args[0]
            sid = self._stack[-1][1]
            if sid >= 0 and self.spans[sid][0] == "sampling.ball_points":
                counts["sampling.ball_draws"] += args[0]

        def on_solve(args, kwargs):      # (a, q)
            counts["lyapunov.solve_n"] += len(args[0])

        def on_check(args, kwargs):      # (sys, v, radius, scan)
            scan = kwargs.get("scan", args[3] if len(args) > 3 else None)
            counts["lyapunov.scan_points"] += scan.points

        def on_iterate(args, kwargs):    # (sys, x0, K)
            counts["discrete.iterate_steps"] += args[2]

        hooks = {"cli.integrate": on_integrate,
                 "floquet.integrate_matrix": on_matrix,
                 "alpha.integrate_dde": on_dde, "cli.integrate_dde": on_dde,
                 "halton": on_halton, "ball_points": on_ball,
                 "solve_lyapunov": on_solve, "check_candidate": on_check,
                 "check_instability": on_check, "discrete.iterate": on_iterate}
        for module, attr, group in SPANS:
            hook = hooks.get(f"{module}.{attr}", hooks.get(attr))
            self._patch(module, attr, lambda f, g=group, h=hook:
                        self.span(g, f, h))
        for module, attr, group, closure in FACTORIES:
            self._patch(module, attr, lambda f, g=group, c=closure:
                        self.factory(g, c, f, rows=c == "expr.batch_eval"))
        for name in LINALG:
            self._patch("linalg", name,
                        lambda f, n=name: self.hot(f"linalg.{n}", f))
        for module, attr, group in HOT:
            self._patch(module, attr, lambda f, g=group: self.hot(g, f))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
