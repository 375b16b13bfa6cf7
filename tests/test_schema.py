import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stabkit.errors import DimensionMismatchError, SchemaError
from stabkit.schema import (SystemFile, _dumps, bundled_names, bundled_system,
                            load_system, system_schema, to_jsonable)


BASE = {"name": "x", "kind": "linear", "dimension": 2, "a": [[1, 0], [0, 1]]}


def doc(**overrides):
    out = dict(BASE)
    out.update(overrides)
    for key, value in list(out.items()):
        if value is None:
            del out[key]
    return out


def test_loads_from_dict_text_and_path(tmp_path):
    assert load_system(doc()).kind == "linear"
    assert load_system(json.dumps(doc())).dimension == 2
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc()))
    assert load_system(path).name == "x"


@pytest.mark.parametrize("broken", [
    doc(kind="weird"),
    doc(kind=None),
    doc(name=""),
    doc(name=None),
    doc(dimension=0),
    doc(dimension=None),
    doc(a=None),                       # linear without a matrix
    doc(a=[[1, 0]]),                   # wrong shape
    doc(a=[[1, "t"], [0, 1]]),         # linear entries must be numeric
    doc(expressions=["x1", "x2"]),     # extra rhs form for the kind
    doc(params={"k": "one"}),
    doc(kind="nonlinear", a=None, expressions=["x1"]),          # count != n
    doc(kind="nonlinear", a=None, expressions=["x1", "x9"]),    # index > n
    doc(kind="nonlinear", a=None, expressions=["x1 +", "x2"]),  # syntax
    doc(kind="delay", delays=[]),
    doc(kind="delay", delays=[{"lag": -1, "coefficients": [[0, 0], [0, 0]]}]),
    doc(kind="delay", delays=[{"lag": 1}]),
    doc(kind="periodic", a=None, coefficients=[["t", "0"], ["0", "0"]],
        period=1.0),                   # entries not periodic in the period
    doc(kind="periodic", a=None, coefficients=[["sin(t)", "0"], ["0", "0"]],
        period=0.0),
])
def test_invalid_documents_rejected(broken):
    with pytest.raises(SchemaError):
        load_system(broken)


ROTATION = [["-1", "cos(6.283185307179586*t)"], ["0", "-1"]]  # 1-periodic
DELAY = {"kind": "delay", "a": [[-2, 0], [0, -2]],
         "delays": [{"lag": 1.0, "coefficients": [[0.5, 0], [0, 0.5]]}]}
FIELD = {"kind": "nonlinear", "a": None, "expressions": ["-x1", "-x2"]}
PERIODIC = {"kind": "periodic", "a": None, "coefficients": ROTATION,
            "period": 1.0}

# (document, what load_system must do: "load", "refuse" or "invalid", a
# refusal of the build, which checks what the schema cannot state)
EDGE_DOCUMENTS = {
    "unknown field": (doc(B=[[1], [0]]), "refuse"),
    "unknown delay field": (doc(**{**DELAY, "delays": [
        {"lag": 1.0, "coefficients": [[0, 0], [0, 0]], "gain": 2}]}),
        "refuse"),
    "boolean lag": (doc(**{**DELAY, "delays": [
        {"lag": True, "coefficients": [[0.5, 0], [0, 0.5]]}]}), "refuse"),
    "boolean period": (doc(**{**PERIODIC, "period": True}), "refuse"),
    "boolean dimension": (doc(dimension=True), "refuse"),
    "integral float dimension": (doc(dimension=2.0), "load"),
    "boolean param": (doc(params={"k": True}), "refuse"),
    "string period": (doc(**{**PERIODIC, "period": "1"}), "refuse"),
    "comment": (doc(comment="a note"), "load"),
    "empty expression": (doc(**{**FIELD, "expressions": ["", "x1"]}),
                         "invalid"),
    "nonlinear with a": (doc(**{**FIELD, "a": [[1, 0], [0, 1]]}), "refuse"),
    "linear with expressions": (doc(expressions=["x1", "x2"]), "refuse"),
    "string in linear a": (doc(a=[[1, "2"], [0, 1]]), "refuse"),
    "periodic with b": (doc(**PERIODIC, b=[[1], [0]]), "refuse"),
    "discrete with period": (doc(**{**FIELD, "kind": "discrete"},
                                 period=1.0), "refuse"),
    "short a": (doc(a=[[1, 0]]), "invalid"),
    "short expressions": (doc(**{**FIELD, "expressions": ["-x1"]}),
                          "invalid"),
    "ragged b": (doc(b=[[1, 2], [3]]), "invalid"),
}


def _schema_parity(document) -> str:
    """What load_system does with a document, checked against the schema:
    what the schema refuses is a SchemaError; what it accepts loads, or is
    refused only for what a schema cannot state (sizes against the
    dimension, expression syntax, periodicity)."""
    try:
        jsonschema.validate(document, system_schema())
    except jsonschema.ValidationError:
        with pytest.raises(SchemaError):
            load_system(document)
        return "refuse"
    try:
        load_system(document)
    except SchemaError as exc:
        assert str(exc).startswith("system definition invalid:"), str(exc)
        return "invalid"
    return "load"


@pytest.mark.parametrize("name", EDGE_DOCUMENTS)
def test_load_system_follows_the_schema_on_edge_documents(name):
    document, want = EDGE_DOCUMENTS[name]
    assert _schema_parity(document) == want


def test_load_system_follows_the_schema_on_shipped_and_benchmark_files():
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate",
        Path(__file__).resolve().parents[1] / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    documents = {name: bundled_system(name).document
                 for name in bundled_names()}
    for workload in generate.WORKLOADS:
        for seed in (1, 2, 3):
            files = generate.generate(workload, seed)[0]
            documents.update({f"{workload} {seed} {name}": json.loads(body)
                              for name, body in files.items()
                              if not name.startswith("p_")})  # P files
    for name, document in documents.items():
        assert _schema_parity(document) == "load", name


@pytest.mark.parametrize("document, message", [
    (EDGE_DOCUMENTS["unknown field"][0], "unknown field 'B'"),
    (EDGE_DOCUMENTS["unknown delay field"][0], "unknown delay field 'gain'"),
    (EDGE_DOCUMENTS["discrete with period"][0],
     "kind 'discrete' does not take field 'period'"),
])
def test_refused_fields_are_named(document, message):
    with pytest.raises(SchemaError, match=message):
        load_system(document)


def test_integral_float_dimension_reads_as_an_integer():
    assert load_system(doc(dimension=2.0)).dimension == 2


def test_invalid_json_text():
    with pytest.raises(SchemaError):
        load_system("{not json")


def test_unknown_parameter_in_expression():
    with pytest.raises(SchemaError):
        load_system(doc(kind="nonlinear", a=None,
                        expressions=["x1", "omega*x2"]))
    ok = load_system(doc(kind="nonlinear", a=None,
                         expressions=["x1", "omega*x2"],
                         params={"omega": 2.0}))
    assert ok.build().params["omega"] == 2.0


def test_a_file_builds_once_and_a_replaced_file_builds_afresh():
    sf = load_system(doc())
    assert sf.build() is sf.build()
    other = dataclasses.replace(sf, document=doc(a=[[-2, 0], [0, -3]]))
    assert other.build() is not sf.build()
    assert other.build().rhs.a.tolist() == [[-2.0, 0.0], [0.0, -3.0]]
    assert sf.build().rhs.a.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_a_build_that_fails_is_not_kept():
    broken = doc(kind="nonlinear", a=None, expressions=["x1", "x9"])
    sf = SystemFile("x", "nonlinear", 2, broken)
    messages = []
    for _ in range(2):
        with pytest.raises(DimensionMismatchError) as info:
            sf.build()
        messages.append(str(info.value))
    assert messages[0] == messages[1] and "x9" in messages[0]
    for _ in range(2):
        with pytest.raises(SchemaError, match="beyond dimension 2"):
            load_system(broken)


def test_bundled_gallery_access():
    names = bundled_names()
    assert "pendulum" in names and "delay_coupled" in names
    sysd = bundled_system("pendulum").build()
    assert sysd.dimension == 2


def test_every_gallery_file_builds_one_system_type():
    from stabkit.discrete import DiscreteSystem
    from stabkit.odeint import SystemDef

    for name in bundled_names():
        sf = bundled_system(name)
        want = DiscreteSystem if sf.kind == "discrete" else SystemDef
        built = sf.build()
        assert isinstance(built, want), name
        if sf.kind == "delay":
            assert len(built.delays) == len(sf.document["delays"])
            assert built.period is None
        elif sf.kind == "periodic":
            assert built.period == sf.document["period"]
            assert built.delays == ()
        elif sf.kind != "discrete":
            assert built.delays == () and built.period is None


def test_constant_ness_is_read_from_the_coefficient():
    # every linear kind builds one right-hand side; A is an array exactly
    # when no entry of its grid reads t
    from stabkit import expr

    kinds = []
    for name in bundled_names():
        sf = bundled_system(name)
        if sf.kind in ("linear", "delay", "periodic"):
            doc = sf.document
            params = doc.get("params", {})
            reads_t = any(expr.reads_time(expr.as_expr(e, params), params)
                          for row in doc.get("a", doc.get("coefficients"))
                          for e in row)
            assert isinstance(sf.build().rhs.a, np.ndarray) is not reads_t, name
            kinds.append((sf.kind, reads_t))
    assert {("linear", False), ("delay", False), ("delay", True),
            ("periodic", True)} <= set(kinds)


def _element_walk(array: np.ndarray) -> list:
    """``to_jsonable`` of an array as it was before its one-step path."""
    return [to_jsonable(v) for v in array.tolist()]


@pytest.mark.parametrize("shape", [(0,), (3,), (3, 3), (2, 3, 3)])
@pytest.mark.parametrize("dtype,special", [
    *((dtype, special) for dtype in (np.float64, np.float32, np.complex128,
                                     object)
      for special in (None, np.nan, np.inf, -np.inf)),
    (np.int64, None), (np.bool_, None)])
def test_arrays_serialize_as_the_element_walk(shape, dtype, special):
    values = np.random.default_rng(7).normal(size=shape) * 10.0
    if dtype is np.complex128:
        values = values + 1j * values[..., ::-1]
    if special is not None and values.size:
        values.flat[values.size // 2] = special
    array = np.asarray(values).astype(dtype)
    if dtype is object:  # numpy scalars inside, as dataclass fields hold
        array.flat[0:values.size:2] = [np.float64(v) for v in
                                       values.flat[0:values.size:2]]
    got, want = to_jsonable(array), _element_walk(array)
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("value,want", [
    (np.float64("nan"), "nan"),
    (np.float32("-inf"), "-inf"),
    (complex(np.inf, 1.0), {"re": "inf", "im": 1.0}),
    (complex(0.5, np.nan), {"re": 0.5, "im": "nan"}),
    (np.complex128(complex(np.nan, -np.inf)), {"re": "nan", "im": "-inf"}),
    (np.array([1 + 2j, complex(np.inf, 0.0)]),
     [{"re": 1.0, "im": 2.0}, {"re": "inf", "im": 0.0}]),
    (np.array([np.float64(np.nan), 2.5], dtype=object), ["nan", 2.5]),
    ({"rate": np.float64(np.inf), "roots": (complex(-1.0, np.nan),)},
     {"rate": "inf", "roots": [{"re": -1.0, "im": "nan"}]}),
], ids=["float64-nan", "float32-inf", "complex-re", "complex-im",
        "complex128", "complex-array", "object-array", "nested"])
def test_non_finite_values_serialize_as_strict_json(value, want):
    # every non-finite float, inside a complex number or a numpy scalar
    # too, takes its repr string: the report stays JSON
    got = to_jsonable(value)
    assert got == want
    json.dumps(got, allow_nan=False)


# --- the report encoder ------------------------------------------------------

_KEYS = st.text(max_size=6)  # any code point: non-ASCII, quotes, controls
_NUMBER = st.one_of(st.integers(), st.integers(-2**200, 2**200),
                    st.floats(allow_nan=False, allow_infinity=False))
_LEAF = st.one_of(st.none(), st.booleans(), _NUMBER, st.text(max_size=8))
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(st.one_of(_NUMBER, st.booleans()), max_size=8),
        st.dictionaries(_KEYS, inner, max_size=6)),
    max_leaves=40)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_JSON)
@example({"é\"\\\x00\x1f\x7f \U0001f600": ["é", "\"", "\\",
                                                   "\x07\n\t", "\ud800"]})
@example([-0.0, 5e-324, 1e16, 1e-5, 1e22, 1e-7, 1.5e300, 0.1])
@example([10**40, -10**40, 0, 2**63, 10**300])
@example([1, 2.5, True, False, -3, 0.0])
@example([[1, 2.5], [True, 1.0], [None, 1], []])
@example({"": {}, "a": [], "b": [{}, []], "c": [[[]]]})
@example([])
@example({})
@example(-0.0)
def test_report_encoder_writes_the_bytes_of_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value,error", [
    ((1.0, 2.0), TypeError),
    ([1.0, (2.0,)], TypeError),
    ({"a": {1, 2}}, TypeError),
    ({1: 2.0}, TypeError),
    (np.float64(1.0), TypeError),
    ([np.float64(1.0), 2.0], TypeError),
    (np.bool_(True), TypeError),
    (b"bytes", TypeError),
    (float("nan"), ValueError),
    ([1.0, float("inf")], ValueError),
    ({"rate": [2, -math.inf]}, ValueError),
], ids=["tuple", "tuple-in-list", "set", "int-key", "float64",
        "float64-in-list", "bool_", "bytes", "nan", "inf-in-list",
        "inf-nested"])
def test_report_encoder_refuses_what_to_jsonable_does_not_return(value, error):
    with pytest.raises(error):
        _dumps(value)
