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
import operator
import re
from dataclasses import dataclass, fields
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
    "parse", "to_string", "free_vars", "reads_time", "substitute", "bind",
    "fold", "total", "derivative", "compile_vector", "compile_expr",
    "compile_expr_vec", "hessian", "strict_rows", "FUNCTIONS",
]

# function name -> arity
FUNCTIONS: dict[str, int] = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1,
    "log": 1, "sqrt": 1, "abs": 1, "pow": 2,
}

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


class _Node:
    """Structural ``==``, ``hash`` and ``repr`` for the five node classes.

    They give what the dataclass-generated ones give (equal class and equal
    fields; the hash of the field tuple; ``Class(field=value, ...)``), but
    walk the tree with a stack: the generated ones recurse about twice per
    level and exhaust Python's recursion limit on trees the parser accepts
    (``MAX_DEPTH``), and on deeper trees built by hand.
    """

    __slots__ = ()

    def _parts(self) -> tuple[tuple, tuple]:
        """The fields that are not nodes, and the child nodes."""
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            (head_a, kids_a), (head_b, kids_b) = a._parts(), b._parts()
            if head_a != head_b or len(kids_a) != len(kids_b):
                return False
            stack.extend(zip(kids_a, kids_b))
        return True

    def __hash__(self):
        done: dict[int, _Hashed] = {}
        stack = [self]
        while stack:
            node = stack[-1]
            head, kids = node._parts()
            todo = [k for k in kids if id(k) not in done]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            hashed = tuple(done[id(k)] for k in kids)
            # a Call's children are one field, the tuple ``args``
            done[id(node)] = _Hashed(hash(
                head + ((hashed,) if isinstance(node, Call) else hashed)))
        return hash(done[id(self)])

    def __repr__(self):
        out, stack = [], [self]
        while stack:  # text to emit, or a node to expand, last piece first
            item = stack.pop()
            if not isinstance(item, _Node):
                out.append(item)
                continue
            pieces = [f"{item.__class__.__name__}("]
            for f in fields(item):
                value = getattr(item, f.name)
                pieces.append(f"{', ' * (len(pieces) > 1)}{f.name}=")
                if isinstance(value, tuple):  # a Call's args
                    inner = [x for arg in value for x in (", ", arg)][1:]
                    pieces += ["(", *inner, "," * (len(value) == 1), ")"]
                else:
                    pieces.append(value if isinstance(value, _Node)
                                  else repr(value))
            stack.extend(reversed([*pieces, ")"]))
        return "".join(out)


class _Hashed:
    """A hash value that hashes to itself inside a tuple, as the node it
    stands for would (``hash`` of a large int would reduce it)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


@dataclass(frozen=True, eq=False, repr=False)
class Number(_Node):
    value: float

    def _parts(self):
        return (self.value,), ()


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str

    def _parts(self):
        return (self.name,), ()


@dataclass(frozen=True, eq=False, repr=False)
class Unary(_Node):
    op: str
    child: "Expr"

    def _parts(self):
        return (self.op,), (self.child,)


@dataclass(frozen=True, eq=False, repr=False)
class Binary(_Node):
    op: str
    left: "Expr"
    right: "Expr"

    def _parts(self):
        return (self.op,), (self.left, self.right)


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    func: str
    args: tuple["Expr", ...]

    def _parts(self):
        return (self.func,), self.args


Expr = Number | Var | Unary | Binary | Call
_NODES = (Number, Var, Unary, Binary, Call)


# --- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # whitespace matches no alternative
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# binding powers; '^' handled right-associatively in the loop
_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25  # between mul/div and power

#: Bounds on a tree, checked by :func:`_bounded` once it is built.  The tree
#: walkers (printing, code generation, substitution) recurse once per level
#: of depth; the generated code nests one parenthesis per level that does not
#: continue a ``+``/``-`` or ``*`` chain (see :func:`_chains`), and Python
#: refuses 200.  Parentheses in the text count towards the nesting too.
MAX_DEPTH = 600
MAX_NESTING = 100


def _bounded(e: Expr, error, level: int = 1, memo: dict | None = None):
    """The depth of ``e`` (its root ``level`` deep in the tree) and the
    parenthesis nesting of its code (a level that continues the chain of its
    left operand, see :func:`_chains`, opens none); ``error(reason)`` beyond
    the bounds, raised before the walk recurses deeper than ``MAX_DEPTH``.
    The one size check of :func:`parse` and :func:`derivative`."""
    memo = {} if memo is None else memo
    if id(e) not in memo:
        if level > MAX_DEPTH:
            raise error(f"expression deeper than {MAX_DEPTH} levels")
        kids = []
        for k in e._parts()[1]:  # a loop: one frame per level
            kids.append(_bounded(k, error, level + 1, memo))
        depth, nesting = 0, -1  # a leaf is (1, 0)
        if kids:
            (depth, nesting), *rest = kids
            nesting -= e.__class__ is Binary and _chains(e.op, e.left)
            for d, n in rest:
                depth, nesting = max(depth, d), max(nesting, n)
        if depth >= MAX_DEPTH:
            raise error(f"expression deeper than {MAX_DEPTH} levels")
        if nesting >= MAX_NESTING:
            raise error(f"expression nested deeper than {MAX_NESTING} levels")
        memo[id(e)] = depth + 1, nesting + 1
    return memo[id(e)]


class _Parser:
    def __init__(self, text: str, param_names: Iterable[str] | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.level = 0
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
        # the parser itself recurses once per level of nesting
        if self.level > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels",
                self.peek()[2])
        self.level += 1
        left = self.prefix()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in _BP or _BP[value] <= rbp:
                break
            self.advance()
            # '^' is right associative: bind the rest at bp-1
            right = self.expression(_BP[value] - (value == "^"))
            left = Binary(value, left, right)
        self.level -= 1
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
    tree = _Parser(text, params).parse()
    _bounded(tree, lambda why: ParseError(why, len(text)))
    return tree


# --- structure helpers ----------------------------------------------------------

def free_vars(e: Expr) -> set[str]:
    """Names of all variables appearing in ``e`` (including parameters)."""
    out: set[str] = set()
    stack = [e]
    while stack:  # a stack, not recursion: any depth
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        stack.extend(node._parts()[1])
    return out


def reads_time(e: Expr, params: Iterable[str]) -> bool:
    """Whether ``e`` reads the time slot: it names ``t``, or ``k`` when no
    parameter of ``params`` does (the discrete orbit index, which the
    generated code reads as time)."""
    return bool((free_vars(e) - set(params)) & {"t", "k"})


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
    return bind(e, {name: replacement})


def bind(e: Expr, values: Mapping[str, "Expr | float"]) -> Expr:
    """``e`` with each variable that ``values`` names replaced by its tree
    or number (parameters bound, as the generated code reads them)."""
    if isinstance(e, Var):
        value = values.get(e.name, e)
        return value if isinstance(value, _NODES) else Number(float(value))
    if isinstance(e, Unary):
        return Unary(e.op, bind(e.child, values))
    if isinstance(e, Binary):
        return Binary(e.op, bind(e.left, values), bind(e.right, values))
    if isinstance(e, Call):
        return Call(e.func, tuple(bind(a, values) for a in e.args))
    if isinstance(e, Number):
        return e
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

def _chains(op: str, left: Expr) -> bool:
    """Whether ``left op right`` continues the chain ``left`` ends: a
    ``+``/``-`` or ``*`` into the same precedence, which Python evaluates left
    to right as the tree does, so ``left`` needs no parentheses of its own."""
    return isinstance(left, Binary) and (
        op == left.op == "*" or (op in "+-" and left.op in "+-"))


def _codegen(e: Expr, state: str = "x[{}]", bare: bool = False,
             literal: str = "{!r}") -> str:
    """Python code for the bound tree ``e``; ``state.format(i)`` spells
    ``x{i + 1}`` and ``literal.format(c)`` a number ``c`` of the tree."""
    if isinstance(e, Number):
        return literal.format(e.value)
    if isinstance(e, Var):
        if e.name in ("t", "k"):  # k, the orbit index, rides the time slot
            return "t"
        m = _VAR_RE.match(e.name)
        if m:
            return state.format(int(m.group(1)) - 1)
        raise UnboundVariableError(e.name)
    if isinstance(e, Unary):
        return f"(-{_codegen(e.child, state, literal=literal)})"
    if isinstance(e, Binary):
        a = _codegen(e.left, state, _chains(e.op, e.left), literal)
        b = _codegen(e.right, state, literal=literal)
        if e.op == "^":
            return f"_pow({a}, {b})"
        if e.op == "/":
            return f"_div({a}, {b})"
        return f"{a} {e.op} {b}" if bare else f"({a} {e.op} {b})"
    if isinstance(e, Call):
        args = ", ".join(_codegen(a, state, literal=literal) for a in e.args)
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
_SCALAR_NS = {
    "_sin": math.sin, "_cos": math.cos, "_tan": math.tan, "_exp": _checked_exp,
    "_log": _checked_log, "_sqrt": _checked_sqrt, "_abs": abs,
    "_pow": _checked_pow, "_div": _checked_div,
    "_ERRORS": (ValueError, OverflowError, ZeroDivisionError),
}


def _batch_pow(a, b):
    """``a ^ b``: a float64 array to a constant integer power 3-16 by binary
    powering, within b - 1 roundings (Higham 2002, 3.1), as ``np.power`` is
    slow on signed bases; all else, and a raising product, by ``np.power``."""
    if b.__class__ is float and 3.0 <= b <= 16.0 and b.is_integer() \
            and a.__class__ is np.ndarray and a.dtype.char == "d" and a.ndim:
        try:
            r = a
            for bit in bin(int(b))[3:]:  # after the leading 1
                r = r * r
                if bit == "1":
                    r *= a
            return r
        except FloatingPointError:
            pass
    return np.power(a, b)


# Batch evaluation on numpy ufuncs under strict flags; integer powers are
# products, so they may differ from the marches' libm ``pow`` in the last
# bits.  ``_finite`` reduces outside the generated code: numpy's first-use
# imports need real builtins
_BATCH_NS = {
    "_sin": np.sin, "_cos": np.cos, "_tan": np.tan, "_exp": np.exp,
    "_log": np.log, "_sqrt": np.sqrt, "_abs": np.abs,
    "_pow": _batch_pow, "_div": np.divide,
    "_ERRORS": FloatingPointError, "_finite": lambda a: np.isfinite(a).all(),
}


# --- derivatives ------------------------------------------------------------------

_ZERO, _ONE = Number(0.0), Number(1.0)
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def fold(op: str, left: Expr, right: Expr) -> Expr:
    """``Binary(op, left, right)`` with two numbers added, subtracted or
    multiplied (where the result is finite) and 0 and 1 folded away; a
    folded ``0 * e`` drops the domain errors of ``e``."""
    a = left.value if left.__class__ is Number else None
    b = right.value if right.__class__ is Number else None
    if a is not None and b is not None and op in _ARITH \
            and math.isfinite(_ARITH[op](a, b)):
        return Number(_ARITH[op](a, b))
    if (op in "+-" and b == 0.0) or (op in "*/^" and b == 1.0):
        return left
    if op in "+-" and a == 0.0:
        return right if op == "+" else Unary("-", right)
    if (op in "*/" and a == 0.0) or (op == "*" and b == 0.0):
        return _ZERO
    return right if op == "*" and a == 1.0 else Binary(op, left, right)


def total(terms: Iterable[Expr]) -> Expr:
    """The folded sum of ``terms``, added in pairs: its depth grows with
    the logarithm of their number."""
    level = list(terms) or [_ZERO]
    while len(level) > 1:
        level += [_ZERO] * (len(level) % 2)
        level = [fold("+", a, b) for a, b in zip(level[::2], level[1::2])]
    return level[0]


def derivative(e: Expr, name: str) -> Expr:
    """The partial derivative of ``e`` by ``name``, folded (:func:`fold`).

    Bind parameters first: by ``t``, a ``k`` left in the tree is time, as
    :func:`reads_time` reads it.  The tree raises :class:`DomainError` where
    no derivative exists: ``abs`` and ``sqrt`` at 0, and a power whose
    exponent varies at a base <= 0.  Chain-rule factors lead, so nested
    calls derive to one flat ``*`` chain; a result beyond the parser's
    bounds raises :class:`InvalidArgumentError`.
    """
    d = _derive(e, name, {})
    _bounded(d, InvalidArgumentError)
    return d


# f'(a) of the other functions f, from the argument a and the call e = f(a)
_OUTER = {
    "sin": lambda a, e: Call("cos", (a,)),
    "cos": lambda a, e: fold("-", _ZERO, Call("sin", (a,))),
    "tan": lambda a, e: fold("+", _ONE, Binary("^", e, Number(2.0))),
    "exp": lambda a, e: e,
    "sqrt": lambda a, e: Binary("/", Number(0.5), e),
    "abs": lambda a, e: Binary("/", a, e),
}


def _derive(e: Expr, name: str, memo: dict) -> Expr:
    if id(e) in memo:  # derived trees share subtrees
        return memo[id(e)]
    (op,), kids = e._parts()
    if not kids:
        return _ONE if e.__class__ is Var and (
            op == name or (op == "k" and name == "t")) else _ZERO
    # -a is 0 - a; a call of one argument has b = 0
    a, b = (_ZERO, *kids) if e.__class__ is Unary else (*kids, _ZERO)[:2]
    da, db = _derive(a, name, memo), _derive(b, name, memo)
    if op in ("+", "-"):
        d = fold(op, da, db)
    elif op == "*":
        d = fold("+", fold("*", da, b), fold("*", db, a))
    elif op == "/":
        d = fold("/", fold("-", da, fold("*", db, e)), b)
    elif op in ("^", "pow") and db == _ZERO:
        d = fold("*", da, fold("*", b, fold("^", a, fold("-", b, _ONE))))
    elif op in ("^", "pow"):  # (b' log a + a' b / a) a^b
        d = fold("*", fold("+", fold("*", db, Call("log", (a,))),
                            fold("*", da, fold("/", b, a))), e)
    else:
        d = fold("/", da, a) if op == "log" else fold("*", da, _OUTER[op](a, e))
    memo[id(e)] = d
    return d


# --- second-order jets ------------------------------------------------------------

class _Lit(float):
    """A number of the tree in the jet form.  ``fold`` tells a ``Number``
    from a subtree of the same value: a literal 0 factor drops the other's
    derivative, a literal exponent 0 or 1 folds the power's, and a literal
    factor keeps the derivatives of an affine term numbers."""

    __slots__ = ()


def _plus(p, q):
    """``p + q`` of Hessians, None standing for a structural 0."""
    return q if p is None else p if q is None else p + q


def _minus(p, q):
    """``p - q`` of Hessians, None standing for a structural 0."""
    return p if q is None else -q if p is None else p - q


def _times(h, c):
    """``h * c`` of a Hessian, None standing for a structural 0."""
    return None if h is None else h * c


class _Jet:
    """A value ``v`` with its gradient ``g`` (n,) and Hessian ``h`` (n, n)
    at one point, ``h[i, j]`` the derivative by ``x_j`` of the one by
    ``x_i``: the rules of :func:`_derive` twice over, on numbers and in
    the order of operations of the derivative trees.  Where those trees
    ``fold`` to 0, the jet has structural zeros: a subtree whose first
    derivatives fold to 0 (no state variable, a literal 0 factor, a
    literal exponent 0, ``x1 - x1``) is a float, one whose second do has
    ``h`` None, and ``affine`` marks first derivatives that fold to
    numbers.  Nothing raises: where a derivative tree would fail, the
    jet's entries are NaN, and they spread as the failure would."""

    __slots__ = ("v", "g", "h", "affine")

    def __init__(self, v: float, g: np.ndarray, h: np.ndarray | None,
                 affine: bool = False):
        self.v, self.g, self.h, self.affine = v, g, h, affine

    def __add__(a, b):
        if b.__class__ is _Jet:
            return _sum(a.v + b.v, a.g + b.g, _plus(a.h, b.h),
                        a.affine and b.affine)
        return _Jet(a.v + b, a.g, a.h, a.affine)

    def __radd__(a, b):
        return _Jet(b + a.v, a.g, a.h, a.affine)

    def __sub__(a, b):
        if b.__class__ is _Jet:
            return _sum(a.v - b.v, a.g - b.g, _minus(a.h, b.h),
                        a.affine and b.affine)
        return _Jet(a.v - b, a.g, a.h, a.affine)

    def __rsub__(a, b):
        return _Jet(b - a.v, -a.g, _minus(None, a.h), a.affine)

    def __neg__(a):
        return _Jet(-a.v, -a.g, _minus(None, a.h), a.affine)

    def __mul__(a, b):
        if b.__class__ is _Jet:  # (a'' b + b' a') + (b'' a + a' b')
            return _Jet(a.v * b.v, a.g * b.v + b.g * a.v, _plus(
                _times(a.h, b.v), np.outer(a.g, b.g)) + _plus(
                _times(b.h, a.v), np.outer(b.g, a.g)))
        if b.__class__ is _Lit and b == 0.0:  # the value stays
            return a.v * b
        return _Jet(a.v * b, a.g * b, _times(a.h, b),
                    a.affine and b.__class__ is _Lit)

    __rmul__ = __mul__


def _sum(v: float, g: np.ndarray, h, affine: bool):
    """The sum or difference of two jets, a float where the derivatives of
    affine terms fold to 0."""
    return v if affine and not g.any() else _Jet(v, g, h, affine)


_FAILS = (ValueError, OverflowError, ZeroDivisionError, DomainError)


def _or_nan(f, *args) -> float:
    """``f(*args)`` on floats, NaN where it fails."""
    try:
        return f(*args)
    except _FAILS:
        return math.nan


def _undefined(a: _Jet, v: float = math.nan) -> _Jet:
    """A jet of value ``v`` whose derivatives fail, shaped as ``a``."""
    n = len(a.g)
    return _Jet(v, np.full(n, math.nan), np.full((n, n), math.nan))


def _unary(scalar):
    """A function of the jet form: ``scalar`` on a float, NaN where it
    fails; on a jet, the decorated rule of the jet and its value, with NaN
    derivatives where the rule fails or the jet's value is not finite."""
    def wrap(rule):
        def f(a):
            if a.__class__ is not _Jet:
                return _or_nan(scalar, a)
            v = _or_nan(scalar, a.v)
            try:
                if a.v - a.v == 0.0:
                    return rule(a, v)
            except _FAILS:
                pass
            return _undefined(a, v)
        return f
    return wrap


def _chain(a: _Jet, v: float, d1: float, d2: np.ndarray) -> _Jet:
    """``f(a)`` from ``v = f(a.v)``, ``d1 = f'(a.v)`` and ``d2`` the
    gradient of the tree ``f'(a)``: ``g = a' f'``, ``h = a'' f' + a' d2``."""
    return _Jet(v, a.g * d1, _plus(_times(a.h, d1), np.outer(a.g, d2)))


@_unary(math.sin)
def _jet_sin(a, v):
    return _chain(a, v, math.cos(a.v), a.g * -v)


@_unary(math.cos)
def _jet_cos(a, v):
    return _chain(a, v, -math.sin(a.v), -(a.g * v))


@_unary(math.tan)
def _jet_tan(a, v):
    d1 = 1.0 + math.pow(v, 2.0)
    return _chain(a, v, d1, a.g * d1 * (2.0 * v))


@_unary(_checked_exp)
def _jet_exp(a, v):
    return _chain(a, v, v, a.g * v)


@_unary(_checked_log)
def _jet_log(a, v):  # the derivatives divide by a, not by log(a)
    g = a.g / a.v
    return _Jet(v, g, _minus(a.h, np.outer(g, a.g)) / a.v)


@_unary(_checked_sqrt)
def _jet_sqrt(a, v):  # at 0, 0.5 / sqrt(a) divides by 0
    d1 = 0.5 / v
    return _chain(a, v, d1, -(a.g * d1 * d1) / v)


@_unary(abs)
def _jet_abs(a, v):  # at 0, a / abs(a) divides by 0
    d1 = a.v / v
    return _chain(a, v, d1, (a.g - a.g * d1 * d1) / v)


def _jet_div(a, b):
    if b.__class__ is not _Jet:
        if a.__class__ is not _Jet:
            return _or_nan(_checked_div, a, b)
        return _Jet(_or_nan(_checked_div, a.v, b), a.g / b,
                    None if a.h is None else a.h / b,
                    a.affine and b.__class__ is _Lit and b == 1.0)
    if b.v == 0.0 or b.v - b.v:
        return _undefined(b)
    v = getattr(a, "v", a) / b.v
    g = (getattr(a, "g", 0.0) - b.g * v) / b.v
    top = _minus(getattr(a, "h", None), _plus(_times(b.h, v),
                                              np.outer(b.g, g)))
    return _Jet(v, g, (top - np.outer(g, b.g)) / b.v)


def _fold_pow(a: float, b: float) -> float:
    """``a^b`` as ``fold`` builds it: ``a`` itself at b = 1."""
    return a if b == 1.0 else _checked_pow(a, b)


def _jet_pow(a, b):
    if b.__class__ is not _Jet:  # b a^(b - 1) a', as in _derive
        if a.__class__ is not _Jet or b.__class__ is _Lit and b == 0.0:
            return _or_nan(_checked_pow, getattr(a, "v", a), b)
        v = _or_nan(_checked_pow, a.v, b)
        d1 = b * _or_nan(_fold_pow, a.v, b - 1.0)
        if b.__class__ is _Lit and b == 1.0:  # d(a^0) folds to 0
            return _Jet(v, a.g * d1, _times(a.h, d1))
        try:  # at b = 2, d1 is the tree 2*a
            d2 = a.g * (1.0 if b == 2.0 else
                        (b - 1.0) * _fold_pow(a.v, b - 2.0)) * b
        except _FAILS:
            return _undefined(a, v)
        return _chain(a, v, d1, d2)
    base = getattr(a, "v", a)
    v = _or_nan(_checked_pow, base, b.v)
    try:  # (b' log a + a' b / a) a^b: a > 0
        log = _checked_log(base)
    except _FAILS:
        return _undefined(b, v)
    s, ds = b.g * log, _times(b.h, log)
    if a.__class__ is _Jet:
        r = b.v / base
        s = s + a.g * r
        ds = _plus(ds, np.outer(b.g, a.g / base)) + _plus(
            _times(a.h, r), np.outer(a.g, (b.g - a.g * r) / base))
    g = s * v
    return _Jet(v, g, _plus(_times(ds, v), np.outer(s, g)))


_JET_NS = {
    "_sin": _jet_sin, "_cos": _jet_cos, "_tan": _jet_tan, "_exp": _jet_exp,
    "_log": _jet_log, "_sqrt": _jet_sqrt, "_abs": _jet_abs,
    "_pow": _jet_pow, "_div": _jet_div, "_lit": _Lit, "_ERRORS": (),
    "_finite": lambda a: getattr(a, "h", None) is None
    or bool(np.isfinite(a.h).all()),
}
_NAMESPACES = {"batch": _BATCH_NS, "jet": _JET_NS}  # else _SCALAR_NS


def hessian(e: Expr, x: Sequence[float], t: float) -> np.ndarray:
    """The Hessian of ``e`` at the state ``x`` and time ``t``, exact: one
    run of its scalar code on second-order jets (forward mode; Griewank &
    Walther, *Evaluating Derivatives*, 2008, ch. 13), the "jet" form of
    :func:`_generate`.  No derivative tree is built.

    Entry (i, j), i <= j, is what ``derivative(derivative(e, x_i), x_j)``
    evaluates to there, mirrored below the diagonal, and
    :class:`DomainError` is raised where one of those trees would raise:
    ``abs`` and ``sqrt`` of a term in x at 0, a power whose exponent varies
    at a base <= 0, an invalid operand, a non-finite entry.  What ``fold``
    drops from those trees drops here too, with its errors: a literal 0
    factor, a term without derivatives that is only added, the second
    derivatives of an affine term.
    """
    n = len(x)
    eye = np.eye(n)
    seeds = [_Jet(float(c), eye[i], None, True) for i, c in enumerate(x)]
    with np.errstate(all="ignore"):
        out = _generate((e,), "jet")(seeds, t)[0]
    if getattr(out, "h", None) is None:
        return np.zeros((n, n))
    rows, cols = np.triu_indices(n)
    h = out.h.copy()
    h[cols, rows] = h[rows, cols]
    return h


def _generate(exprs: Sequence[Expr], form: str = "scalar"):
    """The trees in order, as ``f(x, t) -> list``; with ``form`` "batch", as
    ``f(x, t, out)`` filling columns of ``out``; with "rk4", as the RK4 kernel
    ``f(x, t0, h, lo, hi, dt, rows)`` of ``x' = f(x, t)``: steps ``lo`` to
    ``hi - 1`` of ``dt`` from ``x``, step ``k`` from ``t0 + k*h``, each new
    state appended to ``rows``, the four stages inline on the components as
    locals in ``odeint._rk4``'s arithmetic; with "jet", as the scalar form
    on a list ``x`` of second-order jets (see :func:`hessian`), where only
    a non-finite Hessian fails.  The first failure raises."""
    exprs = tuple(exprs)
    bad = "{0} - {0}" if form in ("scalar", "rk4") else "not _finite({0})"
    literal = "_lit({!r})" if form == "jet" else "{!r}"  # see _Lit

    def each(line: str, pad: str = "\n    ") -> str:  # one per component
        return "".join(pad + line.format(i) for i in range(len(exprs)))

    def stage(slot: str, state: str = "x[{}]") -> str:  # each tree, checked
        return "".join(f"\n    try:\n        {slot.format(i)} = "
                       f"{_codegen(e, state, literal=literal)}"
                       f"\n    except _ERRORS as exc:\n        _fail(exc, {i})"
                       f"\n    if {bad.format(slot.format(i))}:"
                       f"\n        _fail(None, {i})" for i, e in enumerate(exprs))

    if form == "rk4":  # one step, then indented into the loop
        step = ("\n    tk = t = t0 + k * h" + stage("p{}", "x{}")
                + each("y{0} = x{0} + half * p{0}") + "\n    t = tk + half"
                + stage("q{}", "y{}") + each("y{0} = x{0} + half * q{0}")
                + stage("r{}", "y{}") + each("y{0} = x{0} + dt * r{0}")
                + "\n    t = tk + dt" + stage("s{}", "y{}")
                + each("x{0} = x{0} + sixth * (p{0} + 2.0 * q{0} + 2.0 * r{0}"
                       " + s{0})") + f"\n    rows.append(({each('x{}, ', '')}))")
        head, result = "x, t0, h, lo, hi, dt, rows", "rows"
        body = (f"\n    {each('x{}, ', '')}= x\n    half, sixth = 0.5 * dt, "
                "dt / 6.0\n    for k in range(lo, hi):"
                + step.replace("\n", "\n    "))
    elif form == "batch":
        head, body, result = "x, t, out", stage("out[:, {}]"), "out"
    else:
        head, body, result = "x, t", stage("v{}"), f"[{each('v{}, ', '')}]"

    def fail(exc, i):  # a DomainError of the namespace passes unchanged
        raise DomainError(str(exc or "non-finite evaluation result"),
                          exprs[i]) from None

    namespace = dict(_NAMESPACES.get(form, _SCALAR_NS), _fail=fail,
                     range=range, __builtins__={})
    exec(_compiled(f"def f({head}):{body}\n    return {result}"), namespace)
    return namespace["f"]


# One code cache for every namespace: a system compiles its fields once, but
# a CLI call builds its system twice and the scans compile a candidate per call
@functools.lru_cache(maxsize=256)
def _compiled(src: str):
    return compile(src, "<stabkit-expr>", "exec")


def compile_vector(exprs: Sequence[Expr],
                   ) -> Callable[[Sequence[float], float], list[float]]:
    """Compile trees to one fused scalar ``f(x, t) -> [f_1, ..., f_n]``.

    The evaluator of the marches (RK4 stage loops, orbits, Newton, a grid
    at one time) on Python floats; :func:`compile_expr_vec` runs the same
    code over numpy.  Trees come with parameters bound (:func:`bind`): a
    name other than ``t``, ``k`` (time too) or ``xK`` is unbound.  Each
    component runs once, in order, and the first failing one raises
    :class:`DomainError`: an invalid operand, or (see ``_SCALAR_NS``) any
    non-finite intermediate.
    """
    return _generate(exprs)


def compile_expr(e: Expr) -> Callable[[Sequence[float], float], float]:
    """One bound tree as a scalar ``f(x, t) -> float``, by compile_vector."""
    f = compile_vector((e,))
    return lambda x, t: f(x, t)[0]


def compile_expr_vec(exprs: "Expr | Sequence[Expr]"):
    """Compile bound trees to a batch evaluator ``f(X, t) -> ndarray``.

    ``X`` has one sample per row; ``t`` is a scalar or a per-row array.  One
    tree gives ``(N,)``, a sequence of ``m`` trees ``(N, m)``.  The pass
    runs on numpy ufuncs under strict flags: a floating-point flag other
    than underflow (division by zero, an invalid operand, overflow) on any
    intermediate, or a non-finite output, raises one :class:`DomainError`
    for the whole batch, the "overflow is an error" rule of the grammar.
    :func:`strict_rows` then names the first sample that raises on its own.
    Integer powers 3-16 are products (k - 1 roundings), where
    :func:`compile_vector` keeps libm ``pow``: they may differ in the last bits.
    """
    single = isinstance(exprs, _NODES)
    exprs = (exprs,) if single else tuple(exprs)
    fill = _generate(exprs, "batch")

    def batch(X, t):
        cols = np.asarray(X, dtype=float).T
        out = np.empty((cols.shape[1] if cols.ndim > 1 else 1, len(exprs)))
        with np.errstate(all="raise", under="ignore"):
            fill(cols, t, out)
        return out[:, 0] if single else out

    return batch


# --- strict row evaluation --------------------------------------------------------

def _failing(fn, lo: int, hi: int):
    """``(row, error)`` of each row ``lo .. hi-1`` failing on its own under
    strict flags, in order: a failing range is halved (rows independent)."""
    try:
        with np.errstate(all="raise", under="ignore"):
            fn(slice(lo, hi))
    except (FloatingPointError, DomainError) as exc:
        if hi - lo <= 1:
            yield lo, exc
        else:
            yield from _failing(fn, lo, (lo + hi) // 2)
            yield from _failing(fn, (lo + hi) // 2, hi)


def strict_rows(fn, count: int, label: Callable[[int], str], prior=()):
    """``fn(slice(0, count))`` with every floating-point flag but underflow
    an error, as in :func:`compile_expr_vec`: scans and coefficient grids
    run their rows, generated code and the arithmetic around it, through
    this.  On failure, the :class:`DomainError` of the first row failing on
    its own (:func:`_failing`), by each of ``prior`` over all rows and then
    by ``fn``, is raised with ``row`` set and ``label(row)`` ending its
    message."""
    try:
        with np.errstate(all="raise", under="ignore"):
            return fn(slice(0, count))
    except (FloatingPointError, DomainError) as exc:
        error = exc
    for stage in (*prior, fn):
        for row, cause in _failing(stage, 0, count):
            raise DomainError(getattr(cause, "reason", str(cause)),
                              getattr(cause, "node", None), row, label(row))
    raise DomainError(str(error), getattr(error, "node", None))


def as_expr(entry: "Expr | float | int | str",
            params: Iterable[str] | None = None) -> Expr:
    """Coerce a number, source string, or tree into an :class:`Expr`."""
    if isinstance(entry, _NODES):
        return entry
    if isinstance(entry, str):
        return parse(entry, params)
    if isinstance(entry, (int, float)):
        if not math.isfinite(entry):
            raise InvalidArgumentError(
                f"numeric entries must be finite, got {entry!r}")
        return Number(float(entry))
    raise TypeError(f"cannot interpret {entry!r} as an expression")
