import dataclasses
import functools
import math
import random
import re
from fractions import Fraction

import pytest

from stabkit import expr as ex
from stabkit.errors import (
    ArityMismatchError,
    DomainError,
    InvalidArgumentError,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
)
from scalar_oracle import EvalContext, evaluate


def ev(text, state=(), t=None, params=None):
    return evaluate(ex.parse(text), EvalContext(state, t, params))


def test_parse_precedence_structure():
    tree = ex.parse("-3*x1 + x2")
    assert tree == ex.Binary(
        "+",
        ex.Binary("*", ex.Unary("-", ex.Number(3.0)), ex.Var("x1")),
        ex.Var("x2"),
    )


def test_parse_trig_row():
    tree = ex.parse("cos(t)*x1 - x2 - sin(t)*x3")
    assert ex.free_vars(tree) == {"t", "x1", "x2", "x3"}


def test_unbalanced_paren_reports_end_position():
    text = "x1*(1 - 2*x1*x2"
    with pytest.raises(ParseError) as err:
        ex.parse(text)
    assert err.value.position == len(text)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        ex.parse("2x1")


def test_operator_precedence_values():
    assert ev("2+3*4") == 14.0
    assert ev("-2^2") == -4.0  # unary minus binds looser than power
    assert ev("2^3^2") == 512.0  # right associativity


def test_eval_examples():
    assert abs(ev("-k*sin(x1)", state=(math.pi, 0.0), params={"k": 1.0})) < 1e-12
    assert ev("x2", state=(1.0, 7.0)) == 7.0
    with pytest.raises(DomainError):
        ev("1/x1", state=(0.0,))


def test_free_vars():
    assert ex.free_vars(ex.parse("-x1 + x2*exp(2*t)")) == {"x1", "x2", "t"}
    assert ex.free_vars(ex.parse("3.5")) == set()
    assert ex.free_vars(ex.parse("pow(x1,3)")) == {"x1"}


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        ex.parse("x1 + alpha", params=set())
    with pytest.raises(UnknownIdentifierError):
        ex.parse("sin + 1")  # function name used as a variable
    with pytest.raises(UnknownIdentifierError):
        ex.parse("spam(1)")
    ex.parse("x1 + alpha", params={"alpha"})


def test_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        ex.parse("pow(x1)")
    with pytest.raises(ArityMismatchError):
        ex.parse("sin(x1, x2)")


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        ev("x3", state=(1.0, 2.0))
    with pytest.raises(UnboundVariableError):
        ev("t", state=(1.0,))


def test_domain_errors_not_silent():
    with pytest.raises(DomainError):
        ev("exp(1000)")
    with pytest.raises(DomainError):
        ev("log(-1)")
    with pytest.raises(DomainError):
        ev("log(0)")
    with pytest.raises(DomainError):
        ev("sqrt(-1)")
    with pytest.raises(DomainError):
        ev("(-2)^0.5")


@pytest.mark.parametrize("text", [
    "-x1 + 0/(1 + (1e200*x1)*(1e200*x1))",  # overflowing divisor
    "x1 + exp(-(1e200*x1)*(1e200*x1))",     # exp(-inf) = 0
    "x1 + pow(1e200*x1*1e200, 0)",          # pow(inf, 0) = 1
    "x1 + (1e200*x1*1e200 - 1e200*x1*1e200)",  # inf - inf
])
def test_scalar_overflow_that_cancels_is_a_domain_error(text):
    tree = ex.parse(text)
    with pytest.raises(DomainError):
        evaluate(tree, EvalContext((1.0,), 0.0))
    with pytest.raises(DomainError):
        ex.compile_expr(tree)((1.0,), 0.0)
    with pytest.raises(DomainError):
        ex.compile_vector([ex.parse("x1"), tree])([1.0], 0.0)


def test_compile_vector_reports_the_first_failing_component():
    fused = ex.compile_vector([ex.parse("x1"), ex.parse("log(x1 - 2)"),
                               ex.parse("sqrt(x1 - 1)")])
    assert fused([3.0], 0.0) == [3.0, 0.0, math.sqrt(2.0)]
    with pytest.raises(DomainError) as err:
        fused([0.5], 0.0)  # both the log and the sqrt fail
    assert str(err.value) == "log of non-positive value -1.5"


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_nonfinite_numeric_entries_are_rejected(value):
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        ex.as_expr(value)


def test_param_named_k_shadows_discrete_index():
    # pendulum-style constant k
    assert ev("k*2", params={"k": 3.0}) == 6.0
    # with no such parameter, k is the discrete index bound to the time slot
    assert ev("k*2", t=5.0) == 10.0


# --- random corpus: round trip, evaluator agreement, compiled agreement -------

_FUNCS = ["sin", "cos", "tan", "exp", "sqrt", "abs"]


def _random_expr(rng: random.Random, depth: int) -> ex.Expr:
    if depth == 0 or rng.random() < 0.25:
        choice = rng.random()
        if choice < 0.5:
            return ex.Number(round(rng.uniform(0.1, 4.0), 3))
        return ex.Var(rng.choice(["x1", "x2", "t"]))
    kind = rng.random()
    if kind < 0.15:
        return ex.Unary("-", _random_expr(rng, depth - 1))
    if kind < 0.35:
        fn = rng.choice(_FUNCS)
        return ex.Call(fn, (_random_expr(rng, depth - 1),))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return ex.Binary(op, _random_expr(rng, depth - 1),
                     _random_expr(rng, depth - 1))


def _reference_eval(e: ex.Expr, x1: float, x2: float, t: float) -> float:
    """Independent straight-line evaluator used as the oracle."""
    if isinstance(e, ex.Number):
        return e.value
    if isinstance(e, ex.Var):
        return {"x1": x1, "x2": x2, "t": t}[e.name]
    if isinstance(e, ex.Unary):
        return -_reference_eval(e.child, x1, x2, t)
    if isinstance(e, ex.Binary):
        a = _reference_eval(e.left, x1, x2, t)
        b = _reference_eval(e.right, x1, x2, t)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise ZeroDivisionError
            return a / b
        return math.pow(a, b)
    if isinstance(e, ex.Call):
        args = [_reference_eval(a, x1, x2, t) for a in e.args]
        return getattr(math, e.func)(*args) if e.func != "abs" else abs(args[0])
    raise TypeError


def test_round_trip_corpus():
    rng = random.Random(20240901)
    for _ in range(1000):
        tree = _random_expr(rng, rng.randint(1, 5))
        printed = ex.to_string(tree)
        reparsed = ex.parse(printed)
        assert ex.parse(ex.to_string(reparsed)) == reparsed, printed


def test_evaluator_agreement_corpus():
    rng = random.Random(7)
    checked = 0
    for _ in range(1000):
        tree = _random_expr(rng, rng.randint(1, 4))
        x1, x2, t = (rng.uniform(0.2, 2.0) for _ in range(3))
        ctx = EvalContext((x1, x2), t)
        try:
            want = _reference_eval(tree, x1, x2, t)
            if not math.isfinite(want):
                continue
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        got = evaluate(tree, ctx)
        assert got == want  # exact: same IEEE operations
        compiled = ex.compile_expr(tree)((x1, x2), t)
        assert compiled == want
        checked += 1
    assert checked > 500


def test_vectorized_matches_scalar():
    import numpy as np

    tree = ex.parse("sin(x1)*x2 + t^2 - exp(-x1)")
    fn = ex.compile_expr(tree)
    vec = ex.compile_expr_vec(tree)
    X = np.array([[0.3, 1.2], [1.5, -0.4], [2.0, 0.0]])
    got = vec(X, 0.7)
    want = [fn(row, 0.7) for row in X]
    assert np.allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("text, row", [
    ("1/(1/x1)", [0.0]),                 # divide flag, finite output 0
    ("exp(500*x1)*exp(500*x1)", [1.0]),  # overflow in a product
    ("log(x1)", [-1.0]),                 # invalid operand
    ("sqrt(x1)", [-4.0]),
    ("x1^0.5", [-2.0]),
    ("0*log(x1)", [0.0]),                # 0 * -inf
])
def test_vectorized_flags_raise_domain_error(text, row):
    import numpy as np

    vec = ex.compile_expr_vec(ex.parse(text))
    X = np.array([[0.5], row, [2.0]])
    with pytest.raises(DomainError):
        vec(X, 0.0)


def test_batch_of_trees_fills_one_column_per_tree():
    import numpy as np

    trees = [ex.parse(text) for text in ("sin(x1)*x2 + t^2", "2", "t", "x1/x2")]
    X = np.array([[0.3, 1.2], [1.5, -0.4], [2.0, 0.5]])
    t = np.array([0.7, -1.0, 3.0])
    got = ex.compile_expr_vec(trees)(X, t)
    assert got.shape == (3, 4)
    for column, tree in zip(got.T, trees):
        assert column.tobytes() == ex.compile_expr_vec(tree)(X, t).tobytes()
    # the first failing tree names the error, for the whole batch
    with pytest.raises(DomainError) as err:
        ex.compile_expr_vec(trees[:3] + [ex.parse("log(x2)")])(X, t)
    assert err.value.node == ex.parse("log(x2)")
    assert err.value.reason == "invalid value encountered in log"


def test_vectorized_underflow_is_not_an_error():
    import numpy as np

    vec = ex.compile_expr_vec(ex.parse("exp(-800*x1) + x1"))
    assert vec(np.array([[1.0], [2.0]]), 0.0).tolist() == [1.0, 2.0]


# --- batch integer powers ---------------------------------------------------------

def _signed_bases(k):
    """Signed bases for ``x^k``: ordinary ones, ones whose power lies just
    inside float range, and ones whose power is subnormal."""
    import numpy as np

    rng = np.random.default_rng(k)
    sign = rng.choice([-1.0, 1.0], 60)
    near = (rng.uniform(0.05, 0.9, 20) * 1.7976931348623157e308) ** (1.0 / k)
    tiny = (rng.uniform(1e-3, 1.0, 20) * 2.0 ** -1022) ** (1.0 / k)
    return np.concatenate([rng.uniform(-3.0, 3.0, 40), [0.0, -0.0, 1.0, -1.0],
                           sign[:20] * near, sign[20:40] * tiny])


@pytest.mark.parametrize("k", range(3, 17))
def test_batch_integer_power_within_k_minus_one_roundings(k):
    """Binary powering by ``*`` is ``k - 1`` roundings of the exact power
    (Higham, *Accuracy and Stability*, 3.1): relative gamma_{k-1} where the
    power is normal, and a few units of the least subnormal below that."""
    import numpy as np

    bases = _signed_bases(k)
    got = ex.compile_expr_vec(ex.parse(f"x1^{k}"))(bases[:, None], 0.0)
    u = Fraction(1, 2 ** 53)
    gamma = (k - 1) * u / (1 - (k - 1) * u)
    slack = 4 * Fraction(2) ** -1074
    for base, value in zip(bases, got):
        exact = Fraction(float(base)) ** k
        assert abs(Fraction(float(value)) - exact) <= gamma * abs(exact) + slack, \
            (base, k)
    assert np.isfinite(got).all() and (got[-20:] != 0.0).any()


def test_batch_power_falls_back_to_np_power_bit_for_bit():
    import numpy as np

    pw = ex._BATCH_NS["_pow"]
    a = np.linspace(-2.5, 2.5, 40)  # no zero: negative exponents stay finite
    cases = [(a, b) for b in (0.0, 1.0, 2.0, -3.0, -4.0, 17.0, 20.0)]
    cases += [(np.abs(a), 2.5), (np.abs(a), 3.5), (np.abs(a), a), (1.7, 3.0), (-1.3, 5.0), (np.float64(-1.3), 3.0),
              (np.array(-1.3), 3.0), (a.astype(np.float32), 3.0),
              (np.arange(-4, 5), 3.0)]
    with np.errstate(all="raise", under="ignore"):
        for base, b in cases:
            want = np.power(base, b)
            got = pw(base, b)
            assert type(got) is type(want) and np.asarray(got).dtype == \
                np.asarray(want).dtype, (base, b)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (base, b)


@pytest.mark.parametrize("text, bad, clock", [
    ("x1^3", 1e103, None),    # product overflows: np.power names it
    ("x1^-3", 0.0, None),     # negative exponent: np.power
    ("x1^16", 1e20, None),
    ("t^3", None, 1e200),     # a Python-float base: np.power
])
def test_batch_power_errors_keep_message_and_row(text, bad, clock):
    import numpy as np

    X = np.linspace(-2.0, 2.0, 12)[:, None].copy()
    if bad is not None:
        X[7, 0] = bad
    vec = ex.compile_expr_vec(ex.parse(text))
    t = 0.0 if clock is None else clock
    with pytest.raises(DomainError) as err:
        ex.strict_rows(lambda r: vec(X[r], t), len(X), lambda k: f"row {k}")
    word = "divide by zero" if bad == 0.0 else "overflow"
    assert err.value.reason == f"{word} encountered in power"
    assert err.value.row == (0 if clock is not None else 7)


def test_cubic_chain_scan_calls_no_libm_cube(monkeypatch):
    import numpy as np

    from stabkit import lyapunov as ly
    from stabkit.odeint import Nonlinear, SystemDef

    chain = SystemDef(3, Nonlinear(("1.2*x2 - 0.9*x1^3",
                                    "-1.2*x1 + 0.7*x3 - 1.4*x2^3",
                                    "-0.7*x2 - 0.6*x3^3")))
    exponents = []
    power = np.power

    def spy(a, b, *args, **kwargs):
        exponents.append(b)
        return power(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "power", spy)
    report = ly.check_candidate(chain, ly.CandidateV("x1^2 + x2^2 + x3^2"),
                                scan=ly.ScanConfig(points=1024))
    assert report.vdot_verdict is ly.SignVerdict.NEGATIVE_DEFINITE
    assert exponents and not any(
        isinstance(b, float) and b == 3.0 for b in exponents)


def test_substitute():
    tree = ex.parse("t + x1")
    replaced = ex.substitute(tree, "t", ex.parse("2*k"))
    assert evaluate(replaced, EvalContext((3.0,), 9.0)) == 21.0  # k=9


@pytest.mark.parametrize("text, position", [
    ("1e400", 0), ("x1 + 2e308*x2", 5), ("exp(-1e400)", 5)])
def test_overflowing_literal_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        ex.parse(text)
    assert err.value.position == position
    assert "overflows" in str(err.value)
    assert ex.parse("1.7976931348623157e308") == ex.Number(1.7976931348623157e308)


def test_empty_expression():
    with pytest.raises(ParseError):
        ex.parse("   ")


def _long_form(terms: int) -> str:
    """A quadratic form's shape: ``terms`` products joined by + and -."""
    text = "0.5*x1*x1"
    for i in range(1, terms):
        text += (" - " if i % 3 == 0 else " + ") + \
            f"{1 + i % 7}*x{1 + i % 3}*x{1 + (i // 3) % 3}/{2 + i % 5}"
    return text


@pytest.mark.parametrize("terms", [199, 200, 500])
def test_long_sums_compile_and_match_the_oracle(terms):
    import numpy as np

    tree = ex.parse(_long_form(terms))
    x, t = (0.3, -0.7, 1.1), 0.0
    want = evaluate(tree, EvalContext(x, t))
    assert ex.compile_expr(tree)(x, t) == want  # same IEEE operations
    rows = np.array([x, [1.0, 2.0, -3.0]])
    got = ex.compile_expr_vec(tree)(rows, t)
    assert got.tolist() == [want, evaluate(tree, EvalContext(rows[1], t))]
    assert ex.parse(ex.to_string(tree)) == tree


def _fields(e: ex.Expr) -> tuple:
    return tuple(getattr(e, f.name) for f in dataclasses.fields(e))


def _reference_eq(a, b) -> bool:
    """The dataclass rule: same class and equal fields, node by node."""
    if not isinstance(a, ex._NODES) or not isinstance(b, ex._NODES):
        return a == b
    if type(a) is not type(b):
        return False
    return all(_reference_eq(x, y) if not isinstance(x, tuple) else
               len(x) == len(y) and all(map(_reference_eq, x, y))
               for x, y in zip(_fields(a), _fields(b)))


def test_node_equality_and_hash_follow_the_dataclass_rule():
    trees = [_random_expr(random.Random(seed), 3) for seed in range(60)]
    twins = [_random_expr(random.Random(seed), 3) for seed in range(60)]
    for a in trees:
        assert hash(a) == hash(_fields(a))
        for b in twins:
            assert (a == b) == _reference_eq(a, b), (a, b)
            assert (a != b) != (a == b)
    assert ex.Number(1.0) == ex.Number(1) and ex.Number(1.0) != 1.0


def test_deep_trees_compare_and_hash_without_recursion():
    def chain(terms: int, last: float) -> ex.Expr:
        e = ex.Var("x1")
        for i in range(terms - 1):
            coef = ex.Number(last if i == terms - 2 else float(i))
            e = ex.Binary("+", e, ex.Binary("*", coef, ex.Var("x2")))
        return e

    a, b, c = chain(5000, 1.0), chain(5000, 1.0), chain(5000, 7.0)
    assert a == b and hash(a) == hash(b)
    assert a != c and not a == c


def test_a_sum_at_the_depth_bound_compiles_and_one_more_term_does_not():
    bound = ex.MAX_DEPTH  # a sum of k atoms is k levels deep
    assert ex.compile_expr(ex.parse("+".join(["x1"] * bound)))((0.5,), 0.0) \
        == 0.5 * bound
    with pytest.raises(ParseError, match=f"deeper than {bound} levels"):
        ex.parse("+".join(["x1"] * (bound + 1)))
    with pytest.raises(ParseError, match="deeper than"):
        ex.parse("+".join(["x1"] * 5000))  # once a RecursionError


NESTINGS = {
    "parentheses": lambda k: "(" * k + "x1" + ")" * k,
    "unary minus": lambda k: "-" * k + "x1",
    "division chain": lambda k: "x1" + "/1.5" * k,
    "power chain": lambda k: "^".join(["1.0001"] * k + ["x1"]),
    "calls": lambda k: "sin(" * k + "x1" + ")" * k,
}


@pytest.mark.parametrize("build", NESTINGS.values(), ids=NESTINGS.keys())
def test_nesting_at_the_bound_compiles_and_one_more_level_does_not(build):
    bound = ex.MAX_NESTING
    tree = ex.parse(build(bound))
    x = (0.5,)
    assert ex.compile_expr(tree)(x, 0.0) == evaluate(tree, EvalContext(x))
    with pytest.raises(ParseError, match=f"nested deeper than {bound} levels"):
        ex.parse(build(bound + 1))


def _chain(op: str, first: ex.Expr, then: ex.Expr, count: int) -> ex.Expr:
    """``first op then op ... op then``, ``count`` operands, left-deep."""
    return functools.reduce(lambda e, _: ex.Binary(op, e, then),
                            range(count - 1), first)


# per bound: the text of k levels, and a hand-built tree whose derivative by
# x1 is that text's tree (d(x1*x2) = x2; d(x1/1.5) = 1.0/1.5)
SHAPES = {
    "depth": (ex.MAX_DEPTH, lambda k: "+".join(["x2"] * k), lambda k: _chain(
        "+", *[ex.Binary("*", ex.Var("x1"), ex.Var("x2"))] * 2, k)),
    "nesting": (ex.MAX_NESTING, lambda k: "1.0" + "/1.5" * k,
                lambda k: _chain("/", ex.Var("x1"), ex.Number(1.5), k + 1)),
}


@pytest.mark.parametrize("bound, text, source", SHAPES.values(),
                         ids=SHAPES.keys())
def test_parse_and_derivative_refuse_one_past_each_bound_alike(bound, text,
                                                              source):
    assert ex.derivative(source(bound), "x1") == ex.parse(text(bound))
    with pytest.raises(ParseError) as parsed:
        ex.parse(text(bound + 1))
    with pytest.raises(InvalidArgumentError) as derived:
        ex.derivative(source(bound + 1), "x1")
    # the size check runs on the finished tree: it points past the text
    end = len(text(bound + 1))
    assert parsed.value.position == end
    assert str(parsed.value) == f"{derived.value} (at position {end})"


def test_structure_helpers_walk_deep_trees_without_recursion():
    e = ex.Var("t")
    for i in range(5000):  # every node class, 5,000 levels
        e = ex.Binary("+", ex.Unary("-", e), ex.Var(f"x{1 + i % 7}")) \
            if i % 2 else ex.Call("pow", (e, ex.Number(2.0)))
    assert ex.free_vars(e) == {"t", *(f"x{i}" for i in range(1, 8))}
    assert ex.reads_time(e, ()) and not ex.reads_time(ex.Var("k"), ["k"])
    assert ex.max_state_index(e) == 7


def test_repr_reads_like_the_dataclass_repr_at_any_depth():
    assert repr(ex.parse("sin(x1) + -2*pow(x2, t)")) == (
        "Binary(op='+', left=Call(func='sin', args=(Var(name='x1'),)), "
        "right=Binary(op='*', left=Unary(op='-', child=Number(value=2.0)), "
        "right=Call(func='pow', args=(Var(name='x2'), Var(name='t')))))")
    assert repr(ex.Call("f", ())) == "Call(func='f', args=())"
    chain = repr(ex.parse("+".join(["x1"] * 600)))
    assert chain.count("Var(name='x1')") == 600
    assert chain.startswith("Binary(op='+', left=Binary(op='+', left=")
    e = ex.Var("t")
    for i in range(5000):  # every node class, 5,000 levels
        e = ex.Unary("-", e) if i % 2 else ex.Call("pow", (e, ex.Number(2.0)))
    text = repr(e)
    assert text.count("Call(func='pow', args=(") == 2500
    assert text.count("Unary(op='-', child=") == 2500
    assert text.startswith("Unary(op='-', child=Call(func='pow', args=(")
    assert "Call(func='pow', args=(Var(name='t'), Number(value=2.0)))" in text


@pytest.mark.parametrize("char", ["@", "é", ";", "="])
@pytest.mark.parametrize("before", ["", "x1", "x1 +"])
@pytest.mark.parametrize("space", ["", " ", " \t\n "])
def test_unexpected_character_is_reported_where_it_stands(char, before, space):
    text = before + space + char + " x2"
    with pytest.raises(ParseError) as err:
        ex.parse(text)
    assert err.value.position == len(before + space)
    assert str(err.value).startswith(f"unexpected character {char!r}")


# --- derivatives ---------------------------------------------------------------

# (tree, variable, closed form of the derivative): every node type and
# function, powers with a varying exponent, and k read as time
CLOSED_FORMS = [
    ("2.5", "x1", "0"),
    ("x1", "x1", "1"),
    ("x2", "x1", "0"),
    ("-x1", "x1", "-1"),
    ("x1 + 3*x2", "x2", "3"),
    ("x1 - x2", "x2", "-1"),
    ("x1*x2", "x1", "x2"),
    ("x1/x2", "x2", "-x1/(x2*x2)"),
    ("x1^3", "x1", "3*x1*x1"),
    ("x1^x2", "x1", "x2*x1^(x2 - 1)"),
    ("x1^x2", "x2", "log(x1)*x1^x2"),
    ("pow(x2, x1)", "x1", "log(x2)*pow(x2, x1)"),
    ("pow(x1, 0.5)", "x1", "0.5/sqrt(x1)"),
    ("sin(x1*x2)", "x1", "x2*cos(x1*x2)"),
    ("cos(x1)", "x1", "-sin(x1)"),
    ("tan(x1)", "x1", "1/(cos(x1)*cos(x1))"),
    ("exp(2*x1)", "x1", "2*exp(2*x1)"),
    ("log(x1)", "x1", "1/x1"),
    ("sqrt(x1)", "x1", "1/(2*sqrt(x1))"),
    ("abs(x1)", "x1", "1"),
    ("abs(-x1)", "x1", "1"),
    ("k*x1", "t", "x1"),
    ("t*k", "t", "k + t"),
    ("sin(t)*x1^2", "t", "cos(t)*x1^2"),
]


@pytest.mark.parametrize("text, name, closed", CLOSED_FORMS)
def test_derivative_matches_its_closed_form(text, name, closed):
    d = ex.derivative(ex.parse(text), name)
    for point in ((0.7, 1.3, 0.4), (1.9, 0.6, 2.2)):
        ctx = EvalContext(point[:2], point[2])
        want = evaluate(ex.parse(closed), ctx)
        assert evaluate(d, ctx) == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_derivative_by_t_skips_a_bound_k():
    tree = ex.bind(ex.parse("k*x1 + t"), {"k": 2.0})
    assert ex.derivative(tree, "t") == ex.Number(1.0)
    assert ex.derivative(tree, "x1") == ex.Number(2.0)


@pytest.mark.parametrize("text, name, point", [
    ("abs(x1)", "x1", (0.0, 1.0)),
    ("sqrt(x1)", "x1", (0.0, 1.0)),
    ("x1^x2", "x2", (-2.0, 1.0)),  # a varying exponent needs a base > 0
])
def test_derivative_raises_where_none_exists(text, name, point):
    d = ex.derivative(ex.parse(text), name)
    with pytest.raises(DomainError):
        ex.compile_expr(d)(point, 0.0)
    with pytest.raises(DomainError):
        evaluate(d, EvalContext(point, 0.0))


def test_derivative_folds_zeros_ones_and_numbers():
    assert ex.derivative(ex.parse("3*x2 + sin(t)"), "x1") == ex.Number(0.0)
    assert ex.derivative(ex.parse("x1^2"), "x1") == ex.parse("2*x1")
    assert ex.derivative(ex.parse("x1*x2"), "x2") == ex.Var("x1")
    # a nest of calls derives to one * chain, the chain-rule factor leading
    assert ex.to_string(ex.derivative(ex.parse("sin(sin(x1))"), "x1")) == \
        "cos(x1)*cos(sin(x1))"


def test_derivative_beyond_the_bounds_is_an_input_error():
    # each factor of a product chain nests its derivative one level deeper
    chain = ex.parse("*".join(["x1"] * 60))
    with pytest.raises(InvalidArgumentError, match="nested deeper than"):
        ex.derivative(chain, "x1")
    assert ex.derivative(ex.parse("*".join(["x1"] * 20)), "x1") is not None


def test_total_adds_in_pairs():
    terms = [ex.Var(f"x{i + 1}") for i in range(1000)]
    tree = ex.total([ex.Number(0.0), *terms])
    state = tuple(float(i) for i in range(1000))
    assert ex.compile_expr(tree)(state, 0.0) == sum(state)
    assert ex.total([]) == ex.Number(0.0)


# hypothesis variant of the round trip: grammar-driven random trees

try:
    from hypothesis import given, settings, strategies as st

    _leaf = st.one_of(
        st.floats(min_value=0.01, max_value=99.0,
                  allow_nan=False, allow_infinity=False).map(ex.Number),
        st.sampled_from(["x1", "x2", "t"]).map(ex.Var),
    )

    def _extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: ex.Binary(*t)),
            children.map(lambda c: ex.Unary("-", c)),
            st.tuples(st.sampled_from(_FUNCS), children).map(
                lambda t: ex.Call(t[0], (t[1],))),
        )

    _trees = st.recursive(_leaf, _extend, max_leaves=25)

    # domain-prone trees: small and negative leaves reach log/sqrt/division
    # edges, large ones overflow exp, products and powers
    _edge_leaf = st.one_of(
        st.sampled_from([0.0, 0.5, 3.0, 800.0, 1e200]).map(ex.Number),
        st.sampled_from(["x1", "x2"]).map(ex.Var),
    )

    def _edge_extend(children):
        return st.one_of(
            _extend(children),
            children.map(lambda c: ex.Call("log", (c,))),
            st.tuples(children, children).map(lambda t: ex.Call("pow", t)),
        )

    _edge_trees = st.recursive(_edge_leaf, _edge_extend, min_leaves=2,
                               max_leaves=10)
    _rows = st.lists(st.tuples(*[st.sampled_from(
        [-2.0, -0.5, 0.0, 0.25, 1.0, 3.0, 400.0])] * 2), min_size=1,
        max_size=6)

    def _raises(run) -> bool:
        try:
            run()
        except DomainError:
            return True
        return False

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_edge_trees, _rows)
    def test_batch_strictness_agrees_with_oracle(tree, rows):
        import numpy as np

        def walk(row):
            evaluate(tree, EvalContext(row, 0.0))

        def first_oracle_failure():
            for k, row in enumerate(rows):
                try:
                    walk(row)
                except DomainError:
                    return k
            return None

        # the scalar evaluators raise exactly where the walker does
        scalar = ex.compile_expr(tree)
        fused = ex.compile_vector([ex.Var("x2"), tree])
        for row in rows:
            walked = _raises(lambda: walk(row))
            assert _raises(lambda: scalar(row, 0.0)) == walked
            assert _raises(lambda: fused(list(row), 0.0)) == walked

        vec = ex.compile_expr_vec(tree)
        X = np.array(rows)
        want = first_oracle_failure()
        try:
            vec(X, 0.0)
            raised = False
        except DomainError:
            raised = True
        assert raised == (want is not None)
        if want is not None:
            with pytest.raises(DomainError) as err:
                ex.strict_rows(lambda r: vec(X[r], 0.0), len(X), str)
            assert err.value.row == want

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(_edge_trees, min_size=1, max_size=3), _rows)
    def test_batch_of_trees_agrees_with_single_trees(trees, rows):
        import numpy as np

        # the cases of the strictness test, a few trees at a time, after a
        # column that never fails
        trees = [ex.Var("x2"), *trees]
        X = np.array(rows)
        batch = ex.compile_expr_vec(trees)
        singles = [ex.compile_expr_vec(e) for e in trees]

        def first_single_failure():  # in row order, then tree order
            for k in range(len(X)):
                for fn in singles:
                    try:
                        fn(X[k:k + 1], 0.0)
                    except DomainError as exc:
                        return k, exc.reason
            return None

        want = first_single_failure()
        if want is None:
            got = batch(X, 0.0)
            assert got.shape == (len(X), len(trees))
            for column, fn in zip(got.T, singles):  # bit for bit
                assert column.tobytes() == fn(X, 0.0).tobytes()
        else:
            with pytest.raises(DomainError) as err:
                ex.strict_rows(lambda r: batch(X[r], 0.0), len(X), str)
            assert (err.value.row, err.value.reason) == want

    # constants up to 3 keep most trees finite near the points below
    _smooth_leaf = st.one_of(
        st.floats(min_value=0.1, max_value=3.0).map(ex.Number),
        st.sampled_from(["x1", "x2", "t"]).map(ex.Var),
    )

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(st.recursive(_smooth_leaf, _extend, max_leaves=16),
           st.sampled_from(["x1", "x2", "t"]),
           st.tuples(*[st.floats(0.25, 2.0)] * 3))
    def test_derivative_matches_central_differences(tree, name, point):
        """The derivative tree, walked, against central differences of the
        walker at steps h and 2h.  For smooth f, D(h) = f' + h^2 f'''/6 +
        O(h^4), so |D(2h) - D(h)| is three times the truncation error of
        D(h) once h resolves f: h is 2^-12, shortened by the rate
        (1 + |f'|) / (1 + |f|).  Rounding adds at most 2^-30 max|f| / h
        (2^22 ulps of the largest stencil value, for cancellation inside
        the tree)."""
        from hypothesis import assume

        slot = ["x1", "x2", "t"].index(name)

        def walk(e, shift=0.0):
            p = list(point)
            p[slot] += shift
            return evaluate(e, EvalContext(p[:2], p[2]))

        try:
            got = walk(ex.derivative(tree, name))
            h = 2.0 ** -12 * min(1.0, (1 + abs(walk(tree))) / (1 + abs(got)))
            f = {k: walk(tree, k * h) for k in (-2, -1, 1, 2)}
        except DomainError:
            assume(False)
        d1 = (f[1] - f[-1]) / (2 * h)
        d2 = (f[2] - f[-2]) / (4 * h)
        rounding = 2.0 ** -30 * max(map(abs, f.values())) / h
        assert abs(got - d1) <= abs(d2 - d1) + rounding

    # trees in x1..x3 and t with literal 0, 1 and negative leaves
    _jet_leaf = st.one_of(
        st.sampled_from([0.0, 1.0, 0.5, 2.0, 3.0, -1.5]).map(ex.Number),
        st.sampled_from(["x1", "x2", "x3", "t"]).map(ex.Var),
    )

    def _jet_trees(ops: str, funcs):
        def extend(children):
            return st.one_of(
                st.tuples(st.sampled_from(ops), children, children).map(
                    lambda t: ex.Binary(*t)),
                children.map(lambda c: ex.Unary("-", c)),
                st.tuples(children, st.integers(0, 4)).map(
                    lambda t: ex.Binary("^", t[0], ex.Number(float(t[1])))),
                st.tuples(st.sampled_from(funcs), children).map(
                    lambda t: ex.Call(t[0], (t[1],))),
            )
        return st.recursive(_jet_leaf, extend, max_leaves=14)

    def _same_hessian(tree, point, t) -> None:
        """:func:`stabkit.expr.hessian` against the n(n+1)/2 second
        derivative trees: the same failures, and each entry within 4 ulps
        of the summed magnitudes of the entries."""
        import numpy as np
        from scalar_oracle import hessian_trees

        want = hessian_trees(tree, point, t)
        try:
            got = ex.hessian(tree, point, t)
        except DomainError:
            assert want is None
            return
        assert want is not None
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps
                      * np.abs(want).sum())

    _POINTS = st.sampled_from([(0.0, 0.0, 0.0), (0.5, -1.0, 0.25)])

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_jet_trees("+-*", ["sin", "cos", "tan", "exp"]), _POINTS,
           st.sampled_from([0.0, 0.7]))
    def test_hessian_matches_the_derivative_trees(tree, point, t):
        """Polynomial, trig and exp trees: the jet takes each rule of the
        trees in their order, so the entries mostly agree bit for bit."""
        _same_hessian(tree, point, t)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_jet_trees("+-*/^", _FUNCS + ["log"]), _POINTS,
           st.sampled_from([0.0, 0.7]))
    def test_hessian_fails_where_the_derivative_trees_fail(tree, point, t):
        """With the domain edges of the grammar: abs and sqrt at 0, log,
        division and powers with varying exponents and bases <= 0, and
        literal 0 and 1 factors and exponents that fold."""
        _same_hessian(tree, point, t)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_trees)
    def test_round_trip_hypothesis(tree):
        printed = ex.to_string(tree)
        reparsed = ex.parse(printed)
        assert ex.parse(ex.to_string(reparsed)) == reparsed

    # the printed tokens, split independently of the tokenizer
    _PRINTED_TOKEN = re.compile(r"[0-9.]+(?:e[+-]?[0-9]+)?|[A-Za-z_]\w*|\S")

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_trees, st.data())
    def test_round_trip_with_any_whitespace_between_tokens(tree, data):
        tokens = _PRINTED_TOKEN.findall(ex.to_string(tree))
        gaps = data.draw(st.lists(
            st.sampled_from(["", " ", "\t", "\n", "\r\n  ", "\f\v", " "]),
            min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        text = "".join(g + tok for g, tok in zip(gaps, tokens)) + gaps[-1]
        assert ex.parse(text) == tree, repr(text)

except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass
