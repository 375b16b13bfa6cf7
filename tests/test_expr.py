import math
import random

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


def test_vectorized_underflow_is_not_an_error():
    import numpy as np

    vec = ex.compile_expr_vec(ex.parse("exp(-800*x1) + x1"))
    assert vec(np.array([[1.0], [2.0]]), 0.0).tolist() == [1.0, 2.0]


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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_trees)
    def test_round_trip_hypothesis(tree):
        printed = ex.to_string(tree)
        reparsed = ex.parse(printed)
        assert ex.parse(ex.to_string(reparsed)) == reparsed

except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass
