"""Subtree sharing in the generated evaluators: a non-leaf subtree whose
code occurs more than once among the trees of one evaluator is computed
once, bound at its first use as ``(_cK := ...)``.  Every form must give the
bits and the failures of the unshared code (``scalar_oracle.unshared``)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabkit import expr as ex, odeint
from stabkit.errors import DomainError
from scalar_oracle import unshared
from test_lyapunov_solve import perfbench_generate

X1, X2, T = ex.Var("x1"), ex.Var("x2"), ex.Var("t")


def _outcome(run):
    """The bits of what ``run()`` returns, or the failure it raises."""
    try:
        return "ok", _bits(run())
    except DomainError as exc:
        return "fails", exc.reason, exc.node, exc.row


def _bits(value):
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, ex._Jet):
        return _bits(value.v), value.g.tobytes(), \
            None if value.h is None else value.h.tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return float(value).hex()  # tells -0.0 from 0.0


def _runs(trees, x, t):
    """Each form of the evaluator of ``trees``, compiled now, as a list of
    calls: scalar at ``x``, batch under ``strict_rows`` at the rows of
    ``x`` one by one, jets seeded at ``x``, and three RK4 steps from ``x``."""
    scalar = ex.compile_vector(trees)
    batch = ex.compile_expr_vec(trees)
    jet = ex._generate(trees, "jet")
    rk4 = ex._generate(trees, "rk4")
    rows = np.array(x)
    eye = np.eye(len(x[0]))

    def jets(point):
        seeds = [ex._Jet(float(c), eye[i], None, True)
                 for i, c in enumerate(point)]
        with np.errstate(all="ignore"):
            return jet(seeds, t)

    def steps(point):
        out = []
        rk4(list(point), t, 0.125, 0, 3, 0.125, out)
        return out

    return [lambda: [scalar(list(p), t) for p in x],
            lambda: ex.strict_rows(lambda r: batch(rows[r], t), len(rows),
                                   str),
            lambda: [jets(p) for p in x],
            lambda: [steps(p) for p in x]]


def _same_as_unshared(trees, x, t=0.5):
    """The forms of :func:`_runs` shared and unshared, one state per tree
    (the trees read x1 and x2; the rest of each point is 0.5)."""
    x = [tuple(p) + (0.5,) * (len(trees) - len(p)) for p in x]
    with unshared():
        want = [_outcome(run) for run in _runs(trees, x, t)]
    got = [_outcome(run) for run in _runs(trees, x, t)]
    assert got == want


# leaves: both zeros, the states and time; the calls and operators reach
# every domain edge (log, sqrt, division by 0, overflow of exp and powers)
_leaf = st.sampled_from([X1, X2, T, *map(ex.Number, (0.0, -0.0, 0.5, 2.0,
                                                      -1.5, 800.0))])


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda a: ex.Binary(*a)),
        children.map(lambda c: ex.Unary("-", c)),
        st.tuples(st.sampled_from(sorted(ex.FUNCTIONS)), children,
                  children).map(
            lambda a: ex.Call(a[0], a[1:1 + ex.FUNCTIONS[a[0]]])),
    )


@st.composite
def _planted(draw):
    """Two to five trees built over planted subtrees, each planted one also
    as ``s * 0.0`` and ``s * -0.0``, whose bits differ wherever ``s`` is
    not 0, inf or nan; a planted subtree may hold earlier ones."""
    planted = []
    for _ in range(draw(st.integers(1, 4))):
        leaves = st.one_of(_leaf, st.sampled_from(planted)) if planted \
            else _leaf
        s = draw(st.recursive(leaves, _extend, max_leaves=4))
        planted += [s, ex.Binary("*", s, ex.Number(0.0)),
                    ex.Binary("*", s, ex.Number(-0.0))]
    return draw(st.lists(st.recursive(st.sampled_from(planted), _extend,
                                      max_leaves=6), min_size=2, max_size=5))


_POINT = st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.25, 3.0, 750.0])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_planted(), st.lists(st.tuples(_POINT, _POINT), min_size=1,
                            max_size=3))
def test_shared_code_gives_the_bits_and_failures_of_unshared_code(trees, x):
    _same_as_unshared(trees, x)


SQRT = ex.Call("sqrt", (X2,))
SHARED = ex.Binary("+", ex.Call("sin", (SQRT,)), ex.Number(1.0))


@pytest.mark.parametrize("x, reason", [
    ((1.0, 4.0), None), ((-1.0, 4.0), "log of non-positive value -1.0"),
    ((1.0, -4.0), "sqrt of negative value -4.0"),
    ((0.0, 0.0), "log of non-positive value 0.0")],
    ids=["finite", "fails-before", "fails-inside", "zeros"])
def test_a_failure_is_the_failure_of_unshared_code(x, reason):
    """Component 1 fails before the shared subtree at x1 <= 0 (log) and
    inside it at x2 < 0 (sqrt), and component 2 reads it."""
    trees = [ex.Binary("*", X1, ex.Number(2.0)),
             ex.Binary("+", ex.Call("log", (X1,)), SHARED),
             ex.Binary("*", SHARED, SQRT)]
    _same_as_unshared(trees, [x])
    outcome = _outcome(lambda: ex.compile_vector(trees)(list(x), 0.0))
    assert outcome[0] == ("fails" if reason else "ok")
    assert reason is None or outcome[1] == reason


def test_zero_and_negative_zero_literals_stay_apart():
    plus, minus = (ex.Binary("*", X1, ex.Number(z)) for z in (0.0, -0.0))
    f = ex.compile_vector([plus, minus, plus])
    assert [v.hex() for v in f([1.0], 0.0)] == ["0x0.0p+0", "-0x0.0p+0",
                                                "0x0.0p+0"]
    _same_as_unshared([plus, minus, ex.Binary("+", minus, plus)],
                      [(1.0, 0.0), (-1.0, 0.0)])


def _sources(monkeypatch) -> list[str]:
    """The source of each evaluator compiled from now on."""
    seen, compiled = [], ex._compiled
    monkeypatch.setattr(ex, "_compiled",
                        lambda src: seen.append(src) or compiled(src))
    return seen


def test_the_periodic_05_grid_computes_sin_and_cos_once(monkeypatch):
    files = perfbench_generate().generate("propagate", 1)[0]
    doc = json.loads(files["periodic_05.json"])
    sources = _sources(monkeypatch)
    times = np.linspace(0.0, doc["period"], 101)
    with unshared():
        want = odeint.compile_matrix(doc["coefficients"])(times)
    got = odeint.compile_matrix(doc["coefficients"])(times)
    assert got.tobytes() == want.tobytes()
    plain, shared = sources
    assert (plain.count("_sin("), plain.count("_cos(")) == (32, 32)
    assert (shared.count("_sin("), shared.count("_cos(")) == (1, 1)


def _calls(depth: int) -> list[ex.Expr]:
    """sin(sin(...(x1))) ``depth`` deep, and the sum of the shallower ones:
    the first use of each is inside the deepest."""
    nest = [X1]
    for _ in range(depth):
        nest.append(ex.Call("sin", (nest[-1],)))
    return [nest[-1], ex.total(nest[1:-1])]


def _prefixes(depth: int, factors: int) -> list[ex.Expr]:
    """A ``factors``-long ``*`` chain under ``depth`` sines, and the sum of
    its prefixes: a chain link opens no parenthesis, a bound one does."""
    chain = [X1]
    for k in range(1, factors):
        chain.append(ex.Binary("*", chain[-1], X2 if k % 2 else X1))
    top = chain[-1]
    for _ in range(depth):
        top = ex.Call("sin", (top,))
    return [top, ex.total(chain[1:-1])]


@pytest.mark.parametrize("trees", [_calls(ex.MAX_NESTING - 1),
                                   _prefixes(ex.MAX_NESTING - 2, 80)],
                         ids=["calls", "chain-prefixes"])
def test_trees_at_max_nesting_with_repeats_compile(monkeypatch, trees):
    """Each walrus of a call or a chain link adds a parenthesis: sharing
    stops adding them ``SHARED_NESTING`` deep, below Python's 200."""
    assert ex._bounded(trees[0], ValueError)[1] == ex.MAX_NESTING - 1
    sources = _sources(monkeypatch)
    _same_as_unshared(trees, [(0.5, 0.75)])
    for src in sources[-4:]:  # each form, shared
        assert src.count(":=") >= ex.SHARED_NESTING
