"""Seeded fuzz of the CLI boundary: every input ends in exit 0, 2 or 3.

Each example calls ``cli.run`` in-process on a gallery file, or on a mutated
copy of one passed as JSON text, with cheap cost-setting flags plus up to
two drawn numeric, count, vector or matrix flags.  A traceback or a warning
fails the test (the suite turns warnings into errors), and stderr may carry
neither.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stabkit import cli
from stabkit.odeint import SAMPLE_CAP
from conftest import GALLERY, deadline, gallery_file

NAMES = sorted(p.stem for p in GALLERY.glob("*.json"))
DOCS = {name: json.loads(gallery_file(name).read_text()) for name in NAMES}
NUMBERS = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e308")
COUNTS = ("-1", "0", "1", str(SAMPLE_CAP + 1))
# the kinds each subcommand takes (lyapunov's depend on its mode flag)
KINDS = {cmd: cli._CONTINUOUS if callable(kinds) else kinds
         for cmd, (kinds, _) in cli._COMMANDS.items()}
# flags each subcommand may draw a value for: (numeric, count)
FLAGS = {
    "classify": (("--tol",), ()),
    "linearize": (("--tol",), ()),
    "lyapunov": (("--radius", "--t0", "--tspan"), ("--samples",)),
    "attraction": (("--cmax",), ("--levels", "--directions")),
    "alpha": (("--alpha", "--horizon", "--residual-tol"), ()),
    "floquet": (("--period", "--step", "--tol"), ()),
    "discrete": (("--radius",), ("--samples", "--iterate")),
    "simulate": (("--t0", "--t1", "--step"), ("--steps",)),
}
# vector and matrix flags each subcommand may draw a value for, with their
# rows (1, or n for an n x n matrix), and the entries drawn
VECTORS = {
    "linearize": {"--seeds": 1, "--point": 1},
    "lyapunov": {"--q": "n"},
    "attraction": {"--p": "n"},
    "discrete": {"--x0": 1},
    "simulate": {"--x0": 1, "--history": 1},
}
ENTRIES = ("0.1", "1e150", "-1e150", "1e151", "1e308", "-1e308", "nan")
REPLACEMENTS = ("abc", None, True, False, [[1.0]], [], "grow", "dimension+1")


def cheap_flags(cmd: str, n: int, mode: int) -> list[str]:
    """Flags that keep one call cheap (a drawn flag given later wins)."""
    v = ",".join(["0.1"] * n)
    square = " + ".join(f"x{i + 1}^2" for i in range(n))
    return {
        "classify": [],
        "linearize": ["--seeds", f"{v};{v.replace('0.1', '1')}"],
        "lyapunov": [["--solve"], ["--candidate", square],
                     ["--instability", square]][mode] +
        ["--samples", "64", "--tspan", "1"],
        "attraction": ["--cmax", "0.5", "--levels", "4", "--directions", "16"],
        "alpha": [["--horizon", "0.5"], ["--route", "rde", "--horizon", "0"],
                  ["--max-alpha", "--horizon", "0"]][mode] + ["--alpha", "0.2"],
        "floquet": ["--step", "0.01"],
        "discrete": [["--candidate", square], ["--x0", v],
                     ["--candidate", square]][mode] + ["--samples", "64"],
        "simulate": ["--x0", v, "--t1", "0.2", "--step", "0.01",
                     "--steps", "5"],
    }[cmd]


def paths(node, prefix=()):
    """Every key path below the document root."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate(doc: dict, path: tuple, replacement) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    key = path[-1]
    if replacement == "drop":
        del node[key]
    elif replacement == "grow":  # one entry too many
        if isinstance(node[key], list) and node[key]:
            node[key].append(copy.deepcopy(node[key][-1]))
        else:
            node[key] = [node[key], node[key]]
    elif replacement == "dimension+1":
        doc["dimension"] = doc["dimension"] + 1
    else:
        node[key] = replacement
    return doc


@st.composite
def calls(draw):
    cmd = draw(st.sampled_from(sorted(FLAGS)))
    name = draw(st.sampled_from([n for n in NAMES
                                 if DOCS[n]["kind"] in KINDS[cmd]]))
    doc = DOCS[name]
    system = str(gallery_file(name))
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(paths(doc))))
        doc = mutate(doc, path, draw(st.sampled_from(("drop",) + REPLACEMENTS)))
        system = json.dumps(doc)
    argv = [cmd, "--system", system] + cheap_flags(
        cmd, DOCS[name]["dimension"], draw(st.integers(0, 2)))
    numeric, counts = FLAGS[cmd]
    vectors = VECTORS.get(cmd, {})
    n = DOCS[name]["dimension"]
    for flag in draw(st.lists(st.sampled_from(
            numeric + counts + tuple(vectors)), max_size=2)):
        if flag in vectors:
            row = st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)
            value = ";".join(",".join(draw(row))
                             for _ in range(n if vectors[flag] == "n" else 1))
        else:
            value = draw(st.sampled_from(NUMBERS if flag in numeric else COUNTS))
        argv.append(f"{flag}={value}")
    return argv


def g(name: str) -> str:
    return str(gallery_file(name))


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=calls(), p_doc=st.none())
# vector and matrix flags of the wrong shape
@example(argv=["lyapunov", "--system", g("damped_spring"), "--solve",
               "--q", "1,2;3"], p_doc=None)
@example(argv=["attraction", "--system", g("vanderpol"), "--cmax", "1",
               "--p", "1,0;0"], p_doc=None)
@example(argv=["attraction", "--system", g("vanderpol"), "--cmax", "1",
               "--p", "1,0,0;0,1,0;0,0,1"], p_doc=None)
@example(argv=["linearize", "--system", g("pendulum"), "--seeds", "1,1,1"],
         p_doc=None)
@example(argv=["simulate", "--system", g("delay_coupled"), "--x0", "1,1",
               "--history", "1,2,3"], p_doc=None)
@example(argv=["linearize", "--system", g("pendulum"), "--point", "1"],
         p_doc=None)
# malformed P files
@example(argv=["alpha", "--system", g("delay_coupled"), "--alpha", "0.4",
               "--route", "rde"], p_doc={"matrix": [1, 2]})
@example(argv=["alpha", "--system", g("delay_coupled"), "--alpha", "0.4",
               "--route", "rde"], p_doc=5)
@example(argv=["alpha", "--system", g("delay_coupled"), "--alpha", "0.4",
               "--route", "rde"], p_doc={"matrix": "abc"})
# certificates past float range: a huge delayed gain, then a huge P,
# constant and sampled, on the rate and the Riccati routes
@example(argv=["alpha", "--system", json.dumps(
    {**DOCS["delay_two_lag"], "delays": [
        {"lag": 2.0, "coefficients": [[1e200, 0], [0, 0]]},
        DOCS["delay_two_lag"]["delays"][1]]}),
    "--alpha", "0.1", "--horizon", "0"], p_doc=None)
@example(argv=["alpha", "--system", g("delay_two_lag"), "--alpha", "0.1",
               "--route", "rate-inequality", "--horizon", "0"],
         p_doc={"matrix": [[1e200, 0], [0, 1e200]]})
@example(argv=["alpha", "--system", g("delay_two_lag"), "--alpha", "0.1",
               "--route", "rde", "--horizon", "0"],
         p_doc={"matrix": [[1e200, 0], [0, 1e200]]})
@example(argv=["alpha", "--system", g("delay_gain_scheduled"), "--alpha",
               "0.1", "--route", "rate-inequality", "--horizon", "0"],
         p_doc={"times": [0, 1, 2, 3], "values": [[[1e200, 0], [0, 1e200]]] * 4})
@example(argv=["alpha", "--system", g("delay_gain_scheduled"), "--alpha",
               "0.1", "--route", "rde", "--horizon", "0"],
         p_doc={"times": [0, 1, 2, 3], "values": [[[1e200, 0], [0, 1e200]]] * 4})
# time windows whose midpoint rounds onto an end
@example(argv=["lyapunov", "--system", g("exponential_feedback"), "--candidate",
               "x1^2 + (1 + exp(-2*t))*x2^2", "--t0", "1e150"], p_doc=None)
@example(argv=["lyapunov", "--system", g("exponential_feedback"), "--candidate",
               "x1^2 + (1 + exp(-2*t))*x2^2", "--t0", "1e17", "--tspan", "20"],
         p_doc=None)
# an unwritable report path
@example(argv=["classify", "--system", g("saddle"), "--out",
               "/nonexistent/r.json"], p_doc=None)
# scans just beyond the sample cap
@example(argv=["attraction", "--system", g("vanderpol"), "--cmax", "1",
               f"--levels={SAMPLE_CAP + 1}", f"--directions={SAMPLE_CAP + 1}"],
         p_doc=None)
@example(argv=["lyapunov", "--system", g("cubic_damping"), "--candidate",
               "x1^2 + x2^2", f"--samples={SAMPLE_CAP + 1}"], p_doc=None)
# a parameter named after time
@example(argv=["simulate", "--system", json.dumps(
    {"name": "p", "kind": "nonlinear", "dimension": 1,
     "expressions": ["-t*x1"], "params": {"t": 2.0}}), "--x0", "1"],
    p_doc=None)
def test_every_cli_input_ends_in_a_typed_exit(argv, p_doc):
    err, out = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if p_doc is not None:
            pfile = Path(tmp) / "p.json"
            pfile.write_text(json.dumps(p_doc))
            argv = argv + ["--p-file", str(pfile)]
        with deadline(5.0), warnings.catch_warnings(), \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            warnings.simplefilter("error")
            rc = cli.run(argv)
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()
