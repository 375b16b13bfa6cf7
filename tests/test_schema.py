import json

import pytest

from stabkit.errors import SchemaError
from stabkit.schema import bundled_names, bundled_system, load_system


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
