"""Arithmetic expressions over state variables, time, and named parameters.

This is the representation of every nonlinear right-hand side: a small tree
language with variables ``x1 .. xn``, time ``t`` (``k`` in discrete contexts),
numeric literals, the arithmetic operators ``+ - * / ^``, and the function
table ``sin cos tan exp log sqrt abs pow``.

Grammar (EBNF, also published in ``docs/expression-grammar.md``)::

    expr    = term   { ("+" | "-") term }
    term    = factor { ("*" | "/") factor }
    factor  = "-" factor | power
    power   = atom [ "^" factor ]          (right associative)
    atom    = NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")"

Unary minus binds tighter than ``*``/``/`` but looser than ``^``, so
``-2^2 == -(2^2) == -4``.  There is no implicit multiplication: ``2x1`` is a
syntax error.  Non-finite evaluation results are reported as
:class:`~stabkit.errors.DomainError`, never returned as values.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ArityMismatchError,
    DomainError,
    InvalidArgumentError,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
)

__all__ = [
    "Number", "Var", "Unary", "Binary", "Call", "Expr",
    "parse", "to_string", "free_vars", "substitute", "compile_vector",
    "compile_expr", "compile_expr_vec", "strict_rows", "failing_rows",
    "FUNCTIONS",
]

# function name -> arity
FUNCTIONS: dict[str, int] = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1,
    "log": 1, "sqrt": 1, "abs": 1, "pow": 2,
}

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Number | Var | Unary | Binary | Call


# --- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tail
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# binding powers; '^' handled right-associatively in the loop
_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25  # between mul/div and power


class _Parser:
    def __init__(self, text: str, param_names: Iterable[str] | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.param_names = None if param_names is None else set(param_names)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expression(0)
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def expression(self, rbp: int) -> Expr:
        left = self.prefix()
        while True:
            kind, value, _pos = self.peek()
            if kind != "op" or value not in _BP or _BP[value] <= rbp:
                break
            self.advance()
            if value == "^":
                # right associative: bind the rest at bp-1
                right = self.expression(_BP[value] - 1)
            else:
                right = self.expression(_BP[value])
            left = Binary(value, left, right)
        return left

    def prefix(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            if math.isinf(float(value)):
                raise ParseError(f"numeric literal {value!r} overflows", pos)
            return Number(float(value))
        if kind == "op" and value == "-":
            return Unary("-", self.expression(_UNARY_BP))
        if kind == "op" and value == "+":
            return self.expression(_UNARY_BP)
        if kind == "op" and value == "(":
            e = self.expression(0)
            self.expect_op(")")
            return e
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                return self.call(value, pos)
            if value in FUNCTIONS:
                raise UnknownIdentifierError(value, pos)
            self.check_var(value, pos)
            return Var(value)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)

    def call(self, name: str, pos: int) -> Expr:
        if name not in FUNCTIONS:
            raise UnknownIdentifierError(name, pos)
        self.expect_op("(")
        args = [self.expression(0)]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ",":
                self.advance()
                args.append(self.expression(0))
            else:
                break
        self.expect_op(")")
        if len(args) != FUNCTIONS[name]:
            raise ArityMismatchError(name, FUNCTIONS[name], len(args))
        return Call(name, tuple(args))

    def check_var(self, name: str, pos: int):
        # "t" and "xK" are always state/time; "k" doubles as the discrete
        # index unless declared as a parameter (pendulum-style constants).
        if name in ("t", "k") or _VAR_RE.match(name):
            return
        if self.param_names is not None and name not in self.param_names:
            raise UnknownIdentifierError(name, pos)


def parse(text: str, params: Iterable[str] | None = None) -> Expr:
    """Parse ``text`` into an expression tree.

    Parameters
    ----------
    text : str
        Source, e.g. ``"-3*x1 + x2"`` or ``"cos(t)*x1 - x2 - sin(t)*x3"``.
    params : iterable of str, optional
        Declared parameter names.  When given, any bare identifier that is
        not ``t``, ``k``, ``xK``, or one of these names raises
        :class:`UnknownIdentifierError`; when omitted, arbitrary identifiers
        are accepted and validated later against the owning system.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, params).parse()


# --- structure helpers ----------------------------------------------------------

def free_vars(e: Expr) -> set[str]:
    """Names of all variables appearing in ``e`` (including parameters)."""
    out: set[str] = set()
    _collect_vars(e, out)
    return out


def _collect_vars(e: Expr, out: set[str]) -> None:
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Unary):
        _collect_vars(e.child, out)
    elif isinstance(e, Binary):
        _collect_vars(e.left, out)
        _collect_vars(e.right, out)
    elif isinstance(e, Call):
        for a in e.args:
            _collect_vars(a, out)


def max_state_index(e: Expr) -> int:
    """Largest K such that xK appears in ``e`` (0 when no state variable does)."""
    best = 0
    for name in free_vars(e):
        m = _VAR_RE.match(name)
        if m:
            best = max(best, int(m.group(1)))
    return best


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Return a copy of ``e`` with every ``Var(name)`` replaced."""
    if isinstance(e, Number):
        return e
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.child, name, replacement))
    if isinstance(e, Binary):
        return Binary(e.op, substitute(e.left, name, replacement),
                      substitute(e.right, name, replacement))
    if isinstance(e, Call):
        return Call(e.func, tuple(substitute(a, name, replacement) for a in e.args))
    raise TypeError(f"not an expression node: {e!r}")


# --- printing -------------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _BP[e.op]
    if isinstance(e, Unary):
        return _UNARY_BP
    if isinstance(e, Number) and math.copysign(1.0, e.value) < 0:
        return _UNARY_BP  # prints with a leading minus
    return 100


def to_string(e: Expr) -> str:
    """Render with minimal parentheses; ``parse(to_string(e))`` equals ``e``."""
    if isinstance(e, Number):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        child = to_string(e.child)
        # parens at lower or equal precedence: -(x + 1), -(-x); x^2 binds
        # tighter than unary minus and prints bare
        if _prec(e.child) <= _UNARY_BP:
            child = f"({child})"
        return f"-{child}"
    if isinstance(e, Binary):
        lp, rp = _prec(e.left), _prec(e.right)
        left, right = to_string(e.left), to_string(e.right)
        if lp < _BP[e.op] or (e.op == "^" and lp == _BP[e.op]):
            left = f"({left})"
        # right operand: left-assoc ops need parens at equal precedence
        if rp < _BP[e.op] or (e.op != "^" and rp == _BP[e.op]):
            right = f"({right})"
        return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_string(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


# --- compilation ----------------------------------------------------------------

def _codegen(e: Expr, params: Mapping[str, float]) -> str:
    if isinstance(e, Number):
        return repr(e.value)
    if isinstance(e, Var):
        if e.name == "t":
            return "t"
        m = _VAR_RE.match(e.name)
        if m:
            return f"x[{int(m.group(1)) - 1}]"
        if e.name in params:
            return repr(float(params[e.name]))
        if e.name == "k":  # discrete orbit index rides the time slot
            return "t"
        raise UnboundVariableError(e.name)
    if isinstance(e, Unary):
        return f"(-({_codegen(e.child, params)}))"
    if isinstance(e, Binary):
        a, b = _codegen(e.left, params), _codegen(e.right, params)
        if e.op == "^":
            return f"_pow({a}, {b})"
        if e.op == "/":
            return f"_div({a}, {b})"
        return f"({a} {e.op} {b})"
    if isinstance(e, Call):
        args = ", ".join(_codegen(a, params) for a in e.args)
        return f"_{e.func}({args})"
    raise TypeError(f"not an expression node: {e!r}")


def _checked_div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    if b - b:  # nan exactly when b is inf or nan
        raise DomainError(f"division by non-finite value {b!r}")
    return a / b


def _checked_log(a: float) -> float:
    if a <= 0.0:
        raise DomainError(f"log of non-positive value {a!r}")
    return math.log(a)


def _checked_sqrt(a: float) -> float:
    if a < 0.0:
        raise DomainError(f"sqrt of negative value {a!r}")
    return math.sqrt(a)


def _checked_exp(a: float) -> float:
    if a - a:
        raise DomainError(f"exp of non-finite value {a!r}")
    return math.exp(a)


def _checked_pow(a: float, b: float) -> float:
    if a - a or b - b:
        raise DomainError(f"power of non-finite operands {a!r}, {b!r}")
    return math.pow(a, b)


# Scalar evaluation on Python floats.  An overflowing intermediate becomes
# inf and every operation carries inf or nan on to the result, except a
# divisor, an exponent argument and a power operand, which would absorb it
# (x/inf, exp(-inf), pow(nan, 0)): those raise, so a compiled evaluator
# fails exactly where a walk checking every intermediate would.
_COMPILE_NS = {
    "_sin": math.sin, "_cos": math.cos, "_tan": math.tan, "_exp": _checked_exp,
    "_log": _checked_log, "_sqrt": _checked_sqrt, "_abs": abs,
    "_pow": _checked_pow, "_div": _checked_div,
}

#: numpy counterparts of ``_COMPILE_NS`` for batch evaluators over arrays
VEC_NS = {
    "_sin": np.sin, "_cos": np.cos, "_tan": np.tan, "_exp": np.exp,
    "_log": np.log, "_sqrt": np.sqrt, "_abs": np.abs,
    "_pow": np.power, "_div": np.divide,
}


def compile_vector(exprs: Sequence[Expr],
                   params: Mapping[str, float] | None = None,
                   ) -> Callable[[Sequence[float], float], list[float]]:
    """Compile trees to one fused scalar ``f(x, t) -> [f_1, ..., f_n]``.

    The evaluator of the marches (RK4 stage loops, orbits, Newton, a grid
    at one time) on Python floats; sampled scans use
    :func:`compile_expr_vec`.  Parameter values are frozen in.  The first
    failing component raises :class:`DomainError`: an invalid operand, or
    (see ``_COMPILE_NS``) any intermediate that is not finite.
    """
    exprs, params = tuple(exprs), dict(params or {})
    body = "".join(f"\n    try:\n        v{i} = {_codegen(e, params)}"
                   f"\n    except _ERRORS as exc:\n        _fail(exc, {i})"
                   f"\n    if v{i} - v{i}:\n        _fail(None, {i})"  # inf, nan
                   for i, e in enumerate(exprs))
    names = ", ".join(f"v{i}" for i in range(len(exprs)))

    def fail(exc, i):  # a DomainError of the namespace passes unchanged
        raise DomainError(str(exc or "non-finite evaluation result"),
                          exprs[i]) from None

    namespace = {"__builtins__": {}, **_COMPILE_NS, "_fail": fail,
                 "_ERRORS": (ValueError, OverflowError, ZeroDivisionError)}
    exec(_compiled(f"def f(x, t):{body}\n    return [{names}]"), namespace)
    return namespace["f"]


# Newton compiles its right-hand side per iteration, a CLI call builds its
# system twice: code objects are kept by source
@functools.lru_cache(maxsize=256)
def _compiled(src: str):
    return compile(src, "<stabkit-vector>", "exec")


def compile_expr(e: Expr, params: Mapping[str, float] | None = None,
                 ) -> Callable[[Sequence[float], float], float]:
    """Compile one tree to a scalar ``f(state, t) -> float``, as
    :func:`compile_vector` does."""
    f = compile_vector((e,), params)
    return lambda x, t: f(x, t)[0]


def compile_expr_vec(e: Expr, params: Mapping[str, float] | None = None):
    """Compile to a batch evaluator ``f(X, t) -> ndarray``.

    ``X`` has one sample per row; ``t`` is a scalar or a per-row array.  The
    pass runs on numpy ufuncs under strict flags: a floating-point flag other
    than underflow (division by zero, an invalid operand, overflow) on any
    intermediate, or a non-finite output, raises one :class:`DomainError`
    for the whole batch, the "overflow is an error" rule of the grammar.
    :func:`strict_rows` then names the first sample that raises on its own.
    """
    params = dict(params or {})
    src = _codegen(e, params)
    fn = eval(compile(f"lambda x, t: {src}", "<stabkit-expr-vec>", "eval"),
              {"__builtins__": {}, **VEC_NS})

    def wrapped(X, t):
        cols = np.asarray(X, dtype=float).T
        try:
            with np.errstate(all="raise", under="ignore"):
                value = fn(cols, t)
        except FloatingPointError as exc:
            raise DomainError(str(exc), e) from None
        value = np.asarray(value, dtype=float)
        if value.ndim == 0:
            value = np.full(cols.shape[1] if cols.ndim > 1 else 1, float(value))
        if not np.isfinite(value).all():
            raise DomainError("non-finite evaluation result", e)
        return value

    return wrapped


# --- strict row evaluation --------------------------------------------------------

def failing_rows(fn, count: int, first: bool = False) -> dict[int, DomainError]:
    """The rows ``0 .. count-1`` that raise on their own under strict flags,
    with their errors: every range ``fn(slice)`` raises on is halved (rows
    must not depend on each other).  With ``first``, only the first row."""
    found: dict[int, DomainError] = {}

    def search(lo: int, hi: int) -> None:
        if first and found:
            return
        try:
            with np.errstate(all="raise", under="ignore"):
                fn(slice(lo, hi))
            return
        except (FloatingPointError, DomainError) as exc:
            error = exc if isinstance(exc, DomainError) else DomainError(str(exc))
        if hi - lo <= 1:
            found[lo] = error
        else:
            search(lo, (lo + hi) // 2)
            search((lo + hi) // 2, hi)

    search(0, count)
    return found


def strict_rows(fn, count: int, label: Callable[[int], str], prior=()):
    """``fn(slice(0, count))`` with every floating-point flag but underflow
    an error, as in :func:`compile_expr_vec`: scans and coefficient grids
    run their rows, generated code and the arithmetic around it, through
    this.  On failure, the :class:`DomainError` of the first row failing on
    its own, by each of ``prior`` over all rows and then by ``fn``, is
    raised with ``row`` set and ``label(row)`` ending its message."""
    try:
        with np.errstate(all="raise", under="ignore"):
            return fn(slice(0, count))
    except (FloatingPointError, DomainError) as exc:
        error = exc
    for stage in (*prior, fn):
        for row, cause in failing_rows(stage, count, first=True).items():
            raise DomainError(cause.reason, cause.node, row, label(row))
    raise DomainError(str(error), getattr(error, "node", None))


def as_expr(entry: "Expr | float | int | str",
            params: Iterable[str] | None = None) -> Expr:
    """Coerce a number, source string, or tree into an :class:`Expr`."""
    if isinstance(entry, (Number, Var, Unary, Binary, Call)):
        return entry
    if isinstance(entry, str):
        return parse(entry, params)
    if isinstance(entry, (int, float)):
        if not math.isfinite(entry):
            raise InvalidArgumentError(
                f"numeric entries must be finite, got {entry!r}")
        return Number(float(entry))
    raise TypeError(f"cannot interpret {entry!r} as an expression")
