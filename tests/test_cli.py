import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from stabkit import cli
from stabkit.schema import load_system, report_schema, save_system, system_schema
from conftest import GALLERY, deadline, gallery_file


def run_cli(argv, capsys):
    rc = cli.run([str(a) for a in argv])
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


ALL_GALLERY = sorted(p.stem for p in GALLERY.glob("*.json"))


def test_gallery_round_trip():
    for name in ALL_GALLERY:
        original = json.loads(gallery_file(name).read_text())
        sf = load_system(gallery_file(name))
        assert save_system(sf) == original  # field-for-field
        sf.build()


def test_gallery_validates_against_published_schema():
    schema = system_schema()
    for name in ALL_GALLERY:
        jsonschema.validate(json.loads(gallery_file(name).read_text()), schema)


def test_classify_command(capsys):
    rc, rep = run_cli(["classify", "--system", gallery_file("coupled_decay")],
                      capsys)
    assert rc == 0
    assert rep["result"]["kind"] == "asymptotically-stable"
    assert rep["result"]["critical_point"] == "improper-node"
    res = sorted(v["re"] for v in rep["result"]["eigenvalues"])
    assert res == pytest.approx([-4.0, -2.0], abs=1e-10)
    assert rep["result"]["bibo"] is True
    jsonschema.validate(rep, report_schema())


def test_classify_rejects_wrong_kind(capsys):
    rc, _ = run_cli(["classify", "--system", gallery_file("pendulum")], capsys)
    assert rc == 2


def test_linearize_command(capsys):
    rc, rep = run_cli(["linearize", "--system", gallery_file("quadratic_drag"),
                       "--seeds", "0.1,0.1;1.8,0.2"], capsys)
    assert rc == 0
    eqs = rep["result"]["equilibria"]
    assert len(eqs) == 2
    assert eqs[0]["conclusion"] == "unstable"
    assert eqs[1]["conclusion"] == "asymptotically-stable"
    assert np.allclose(eqs[1]["point"], [2.0, 0.0], atol=1e-8)
    jsonschema.validate(rep, report_schema())


def test_lyapunov_solve_command(capsys):
    rc, rep = run_cli(["lyapunov", "--system", gallery_file("damped_spring"),
                       "--solve"], capsys)
    assert rc == 0
    assert np.allclose(rep["result"]["p"], [[1.75, 0.25], [0.25, 0.75]])
    assert rep["result"]["asymptotically_stable"] is True
    jsonschema.validate(rep, report_schema())


def test_lyapunov_solve_singular_exits_3(capsys):
    # pure-imaginary spectrum: the Lyapunov operator is singular
    rc, _ = run_cli(["lyapunov", "--system", gallery_file("harmonic_center"),
                     "--solve"], capsys)
    assert rc == 3


def test_lyapunov_empty_window_on_autonomous_problem_exits_0(capsys):
    rc, rep = run_cli(["lyapunov", "--system", gallery_file("cubic_damping"),
                       "--candidate", "x1^2 + x2^2", "--tspan", "0"], capsys)
    assert rc == 0
    assert rep["result"]["time_window"] == [0.0, 0.0]


def test_lyapunov_candidate_command(capsys):
    rc, rep = run_cli(["lyapunov", "--system", gallery_file("cubic_damping"),
                       "--candidate", "x1^2 + x2^2"], capsys)
    assert rc == 0
    assert rep["result"]["conclusion"] == "stable"
    assert rep["result"]["vdot_verdict"] == "negative-semidefinite"
    jsonschema.validate(rep, report_schema())


def test_lyapunov_instability_command(capsys):
    rc, rep = run_cli(["lyapunov", "--system", gallery_file("uniform_growth"),
                       "--instability", "x1^2 + x2^2"], capsys)
    assert rc == 0
    assert rep["result"]["unstable"] is True


def test_attraction_command(capsys):
    rc, rep = run_cli(["attraction", "--system", gallery_file("vanderpol"),
                       "--cmax", "1.0"], capsys)
    assert rc == 0
    assert 0.95 <= rep["result"]["c_star"] <= 1.0
    jsonschema.validate(rep, report_schema())


def test_alpha_command(capsys):
    rc, rep = run_cli(["alpha", "--system", gallery_file("delay_coupled"),
                       "--alpha", "0.4", "--max-alpha", "--horizon", "10"],
                      capsys)
    assert rc == 0
    assert rep["result"]["valid"] is True
    cert = rep["result"]["certificate"]
    assert cert["inequality_margin"] == pytest.approx(-1.11922, abs=1e-4)
    assert rep["result"]["max_alpha"] == pytest.approx(0.8787, abs=1e-3)
    assert cert["trajectory_check"]["verified"] is True
    jsonschema.validate(rep, report_schema())


def test_alpha_with_p_file(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"matrix": [[1.0, -1.0], [-1.0, 1.0]]}))
    rc, rep = run_cli(["alpha", "--system", gallery_file("delay_two_lag"),
                       "--alpha", "0.5", "--route", "algebraic-rde",
                       "--p-file", pfile, "--residual-tol", "1e-9",
                       "--horizon", "0"], capsys)
    assert rc == 0
    assert rep["result"]["valid"] is True
    assert rep["result"]["certificate"]["residual"] < 1e-9


def test_floquet_command(capsys):
    rc, rep = run_cli(["floquet", "--system", gallery_file("periodic_rotation"),
                       "--step", "1e-3"], capsys)
    assert rc == 0
    assert rep["result"]["verdict"] == "asymptotically-stable"
    assert rep["result"]["relative_gap"] < 1e-4
    assert rep["result"]["liouville_rhs"] == pytest.approx(6.512412e-9,
                                                           rel=1e-5)
    jsonschema.validate(rep, report_schema())


def test_discrete_candidate_command(capsys):
    rc, rep = run_cli(["discrete", "--system", gallery_file("cubic_map"),
                       "--candidate", "0.5*x1^2 + 2*x1*x2 + 4*x2^2"], capsys)
    assert rc == 0
    assert rep["result"]["conclusion"] == "asymptotically-stable"
    jsonschema.validate(rep, report_schema())


def test_discrete_iterate_command(tmp_path, capsys):
    csv = tmp_path / "orbit.csv"
    rc, rep = run_cli(["discrete", "--system", gallery_file("cubic_map"),
                       "--iterate", "10", "--x0", "0.1,0.1", "--csv", csv],
                      capsys)
    assert rc == 0
    assert not rep["result"]["escaped"]
    assert csv.read_text().splitlines()[0] == "k,x1,x2"


def test_simulate_command_csv(tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    rc, rep = run_cli(["simulate", "--system", gallery_file("pendulum"),
                       "--x0", "0.5,0", "--t1", "2.0", "--step", "1e-3",
                       "--csv", csv], capsys)
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == rep["result"]["samples"] + 1
    jsonschema.validate(rep, report_schema())


def test_simulate_escape_verdict(capsys):
    rc, rep = run_cli(["simulate", "--system",
                       gallery_file("exponential_coupling"),
                       "--x0", "1,1", "--t1", "40"], capsys)
    assert rc == 0
    assert rep["result"]["escaped"] is True
    assert rep["result"]["escape_time"] > 0


def test_simulate_delay_system(capsys):
    rc, rep = run_cli(["simulate", "--system", gallery_file("delay_coupled"),
                       "--x0", "1,1", "--t1", "5"], capsys)
    assert rc == 0
    assert rep["result"]["final_norm"] < 0.2


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, _ = run_cli(["classify", "--system", gallery_file("saddle"),
                     "--out", out], capsys)
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["kind"] == "unstable"
    assert rep["result"]["critical_point"] == "saddle"


def test_bad_system_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "kind": "linear", "dimension": 2}')
    rc, _ = run_cli(["classify", "--system", bad], capsys)
    assert rc == 2


def test_missing_file_exits_2(capsys):
    rc, _ = run_cli(["classify", "--system", "/nonexistent.json"], capsys)
    assert rc == 2


def test_deterministic_output_and_seed_env_is_inert(tmp_path):
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "stabkit.cli", "classify",
           "--system", str(gallery_file("coupled_decay"))]
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    env["STABKIT_SEED"] = "12345"  # reserved; sampling is deterministic Halton
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


@pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
@pytest.mark.parametrize("route", ["rate-inequality", "rde", "algebraic-rde"])
def test_alpha_rejects_negative_or_nonfinite_rate(tmp_path, capsys, alpha, route):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"matrix": [[0.5, 0.0], [0.0, 0.25]]}))
    rc = cli.run(["alpha", "--system", str(gallery_file("delay_coupled")),
                  f"--alpha={alpha}", "--route", route, "--p-file", str(pfile),
                  "--horizon", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "alpha must be finite and nonnegative" in captured.err


def test_alpha_negative_rate_without_p_file_exits_2(capsys):
    rc = cli.run(["alpha", "--system", str(gallery_file("delay_coupled")),
                  "--alpha=-1", "--route", "rate-inequality", "--horizon", "0"])
    assert rc == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--radius", "0"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--radius=-1"],
    ["discrete", "--system", "cubic_map", "--candidate", "x1^2 + x2^2",
     "--radius", "0"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--samples", "0"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--samples=-5"],
    ["lyapunov", "--system", "uniform_growth", "--instability", "x1^2 + x2^2",
     "--samples", "0"],
    ["discrete", "--system", "cubic_map", "--candidate", "x1^2 + x2^2",
     "--samples", "0"],
    ["discrete", "--system", "cubic_map", "--candidate", "x1^2 + x2^2",
     "--samples=-1"],
    ["attraction", "--system", "vanderpol", "--cmax", "1.0", "--levels", "0"],
    ["attraction", "--system", "vanderpol", "--cmax", "1.0",
     "--directions", "0"],
    ["attraction", "--system", "vanderpol", "--cmax=-1"],
    ["attraction", "--system", "vanderpol", "--cmax", "0"],
    ["attraction", "--system", "vanderpol", "--cmax", "nan"],
    ["attraction", "--system", "vanderpol", "--cmax", "inf"],
    ["lyapunov", "--system", "cubic_modulated", "--candidate", "x1^2",
     "--tspan", "0"],
    ["lyapunov", "--system", "cubic_modulated", "--candidate", "x1^2",
     "--tspan=-1"],
    ["lyapunov", "--system", "cubic_modulated", "--instability", "x1^2",
     "--tspan", "0"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--tspan", "nan"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--tspan", "inf"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--tspan=-1"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--t0", "nan"],
    ["lyapunov", "--system", "cubic_modulated", "--candidate", "x1^2",
     "--t0=-inf"],
], ids=lambda argv: " ".join(argv[0:1] + argv[3:]))
def test_invalid_scan_arguments_exit_2(capsys, argv):
    argv = [str(gallery_file(a)) if i == 2 else a for i, a in enumerate(argv)]
    with deadline(10.0):
        rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "input error" in captured.err
    assert "zero-size" not in captured.err
    assert "negative dimensions" not in captured.err
