"""The benchmark's tracer (``perfbench/tracer.py``) wraps bindings of the live
package by module and name.  A refactor that drops or renames a traced
binding, or turns a traced method into something else, fails here.  The
test only reads ``perfbench/``."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from conftest import gallery_file

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    environ = dict(os.environ)  # the runner pins BLAS threads on import
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
        os.environ.clear()
        os.environ.update(environ)
    return run, tracer


def _bindings(tracer, stabkit) -> dict:
    """Every traced binding, as the tracer finds it."""
    names = [(m, a) for m, a, *_ in (*tracer.SPANS, *tracer.FACTORIES,
                                     *tracer.HOT)]
    names += [("linalg", a) for a in tracer.LINALG]
    found = {}
    for module, attr in names:
        owner = stabkit[module]
        if "." in attr:
            cls, name = attr.split(".")
            found[module, attr] = getattr(owner, cls).__dict__[name]
        else:
            found[module, attr] = getattr(owner, attr)
    return found


def test_tracer_installs_on_the_live_package_and_uninstalls(perfbench,
                                                            capsys):
    run, tracer = perfbench
    stabkit = run.load_stabkit()
    before = _bindings(tracer, stabkit)
    tr = tracer.Tracer(stabkit)
    tr.install()
    try:
        wrapped = _bindings(tracer, stabkit)
        assert [key for key, fn in before.items() if wrapped[key] is fn] == []
        # the wrappers keep the signatures: a few small ops run through them
        cli = stabkit["cli"]
        assert cli.run(["linearize", "--system", str(gallery_file("vanderpol")),
                        "--seeds", "0.1,0.1"]) == 0
        assert cli.run(["lyapunov", "--system",
                        str(gallery_file("cubic_damping")), "--candidate",
                        "x1^2 + x2^2", "--samples", "64"]) == 0
        assert cli.run(["floquet", "--system",
                        str(gallery_file("periodic_rotation")),
                        "--step", "1e-2"]) == 0
        sampled = tr.calls["sampling.ball_points"]
        assert cli.run(["discrete", "--system", str(gallery_file("cubic_map")),
                        "--candidate", "0.5*x1^2 + 2*x1*x2 + 4*x2^2",
                        "--samples", "64"]) == 0
        # the discrete ladder samples on the traced lyapunov bindings
        assert tr.calls["sampling.ball_points"] == sampled + 1
        assert cli.run(["attraction", "--system",
                        str(gallery_file("vanderpol")), "--cmax", "1.0",
                        "--directions", "64"]) == 0
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert _bindings(tracer, stabkit) == before
    for group in ("odeint.rhs", "expr.batch_eval", "odeint.coeff_eval",
                  "autonomous.jacobian", "floquet.monodromy",
                  "sampling.ball_points", "discrete.classify",
                  "lyapunov.attraction"):
        assert tr.calls[group] > 0, group

