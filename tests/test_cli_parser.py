"""The argument parser is built once per process and reused by every
``cli.run``: a reused parser must answer exactly as a freshly built one."""

import argparse
import json

from stabkit import cli
from conftest import gallery_file


def g(name: str) -> str:
    return str(gallery_file(name))


# every subcommand, argparse errors, --version, and flags whose defaults a
# reused parser must restore: --q and --candidate after --solve, --step
SEQUENCE = [
    ["classify", "--system", g("coupled_decay")],
    ["linearize", "--system", g("quadratic_drag"), "--seeds", "0.1,0.1;1.8,0.2"],
    ["lyapunov", "--system", g("damped_spring"), "--solve", "--q", "2,0;0,3"],
    ["lyapunov", "--system", g("damped_spring"), "--solve"],
    ["lyapunov", "--system", g("cubic_damping"), "--candidate", "x1^2 + x2^2",
     "--samples", "256"],
    ["lyapunov", "--system", g("cubic_damping"), "--candidate", "x1^2 + x2^2"],
    ["attraction", "--system", g("vanderpol"), "--cmax", "1", "--levels", "8",
     "--directions", "32"],
    ["alpha", "--system", g("delay_coupled"), "--alpha", "0.4", "--horizon", "0",
     "--max-alpha"],
    ["alpha", "--system", g("delay_coupled"), "--alpha", "0.4", "--horizon", "0"],
    ["floquet", "--system", g("periodic_rotation"), "--step", "0.01"],
    ["discrete", "--system", g("cubic_map"), "--candidate", "x1^2 + x2^2"],
    ["discrete", "--system", g("cubic_map"), "--iterate", "4", "--x0", "0.1,0.2"],
    ["simulate", "--system", g("pendulum"), "--x0", "0.5,0", "--t1", "0.5",
     "--step", "0.01"],
    ["simulate", "--system", g("pendulum"), "--x0", "0.5,0", "--t1", "0.5"],
    ["classify", "--system", g("coupled_decay"), "--bogus"],
    ["classify"],
    ["frobnicate", "--system", g("coupled_decay")],
    ["lyapunov", "--system", g("cubic_damping")],
    ["--version"],
    ["classify", "--system", g("coupled_decay"), "--tol", "1e-6"],
    ["classify", "--system", g("coupled_decay")],
]
EXITS = [0] * 14 + [2, 2, 2, 2, 0, 0, 0]


def outcomes(capsys) -> list:
    """Exit code, stderr and the report's result (else stdout) of each call."""
    got = []
    for argv in SEQUENCE:
        rc = cli.run(list(argv))
        out, err = capsys.readouterr()
        report = json.loads(out) if out.startswith("{") else None
        got.append((rc, err, out if report is None else
                    (report["result"], report["tolerances"])))
    return got


def test_a_reused_parser_answers_as_a_fresh_one(monkeypatch, capsys):
    reused = outcomes(capsys)
    monkeypatch.setattr(cli, "make_parser", cli.make_parser.__wrapped__)
    fresh = outcomes(capsys)
    assert [rc for rc, _, _ in reused] == EXITS
    assert reused == fresh
    # each flag a call set is back at its default in the next call
    results = [r for _, _, r in reused]
    assert results[2][0]["q"] == [[2.0, 0.0], [0.0, 3.0]]
    assert results[3][0]["q"] == [[1.0, 0.0], [0.0, 1.0]]
    assert (results[4][1]["scan_samples"], results[5][1]["scan_samples"]) \
        == (256, 4096)
    assert "max_alpha" in results[7][0] and "max_alpha" not in results[8][0]
    assert (results[12][1], results[13][1]) == ({"step": 0.01}, {"step": 0.001})
    assert results[19][1]["eigen_tol"] == 1e-6
    assert results[20] == results[0]


def test_the_parser_is_built_once_across_calls(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "stabkit":  # not a subcommand's parser
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli.make_parser.cache_clear()
    try:
        codes = [cli.run(["classify", "--system", g("coupled_decay")])
                 for _ in range(5)]
        codes.append(cli.run(["classify"]))
        codes.append(cli.run(["--version"]))
    finally:
        cli.make_parser.cache_clear()
    capsys.readouterr()
    assert codes == [0] * 5 + [2, 0]
    assert len(built) == 1
