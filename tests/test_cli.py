import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from stabkit import cli
from stabkit.odeint import SAMPLE_CAP
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


def test_undeclared_k_reads_as_time_in_a_continuous_file(tmp_path, capsys):
    # x' = k x with no parameter k integrates as x' = t x
    path = tmp_path / "kt.json"
    path.write_text(json.dumps({"name": "kt", "kind": "nonlinear",
                                "dimension": 1, "expressions": ["k*x1"]}))
    assert not load_system(path).build().is_autonomous()
    rc, rep = run_cli(["lyapunov", "--system", path, "--candidate", "x1^2"],
                      capsys)
    assert rc == 0
    assert rep["result"]["conclusion"] != "stable"
    assert rep["result"]["global_claim"] is False


def test_lyapunov_empty_window_on_autonomous_problem_exits_0(capsys):
    rc, rep = run_cli(["lyapunov", "--system", gallery_file("cubic_damping"),
                       "--candidate", "x1^2 + x2^2", "--tspan", "0"], capsys)
    assert rc == 0
    assert rep["result"]["time_window"] == [0.0, 0.0]


def test_lyapunov_window_ladder_past_float_range_exits_0(capsys):
    # exp(t) overflows on the ladder: a time-free V keeps its own bounds,
    # the Vdot margin is not read as uniform, and a note says why
    rc, rep = run_cli(["lyapunov", "--system",
                       gallery_file("growing_damping"), "--candidate",
                       "x1^2 + x2^2"], capsys)
    result = rep["result"]
    assert rc == 0 and result["notes"][1] == (
        "the window ladder up to t=50000.0 fails to evaluate (overflow "
        "encountered in exp): uniformity in t is not established")
    assert result["v_positive"]["established"]
    assert result["decrescent"]["established"]
    assert result["vdot_verdict"] == "negative-semidefinite"
    assert result["conclusion"] == "uniformly-stable"


@pytest.mark.parametrize("window", [["--t0", "1e150"],
                                    ["--t0", "1e17", "--tspan", "20"]],
                         ids=["span-below-ulp", "midpoint-on-end"])
def test_lyapunov_window_lost_to_rounding_exits_2(capsys, window):
    # a window that depends on t must keep its midpoint strictly inside
    rc = cli.run(["lyapunov", "--system",
                  str(gallery_file("exponential_feedback")), "--candidate",
                  "x1^2 + (1 + exp(-2*t))*x2^2"] + window)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "is lost to rounding at t0" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("route, p, system", [
    ("rate-inequality", {"matrix": [[1e200, 0], [0, 1e200]]}, "delay_two_lag"),
    ("rde", {"matrix": [[1e200, 0], [0, 1e200]]}, "delay_two_lag"),
    ("rate-inequality", {"times": [0, 1, 2, 3],
                         "values": [[[1e200, 0], [0, 1e200]]] * 4},
     "delay_gain_scheduled"),
    ("rde", {"times": [0, 1, 2, 3], "values": [[[1e200, 0], [0, 1e200]]] * 4},
     "delay_gain_scheduled"),
], ids=["rate-constant", "rde-constant", "rate-sampled", "rde-sampled"])
def test_alpha_past_float_range_is_an_invalid_certificate(tmp_path, capsys,
                                                          route, p, system):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(p))
    rc = cli.run(["alpha", "--system", str(gallery_file(system)), "--alpha",
                  "0.1", "--route", route, "--horizon", "0", "--max-alpha",
                  "--p-file", str(pfile)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    result = json.loads(captured.out)["result"]
    assert result["valid"] is False
    if route == "rde":
        assert result["certificate"]["residual"] == "inf"
    else:
        assert result["certificate"]["inequality_margin"] == "inf"
        assert result["max_alpha"] is None


@pytest.mark.parametrize("route", ["rde", "rate-inequality"])
@pytest.mark.parametrize("p", [
    {"matrix": [[1e308, 0], [0, 1e308]]},
    {"times": [0, 1, 2, 3], "values": [[[1e308, 0], [0, 1e308]]] * 4},
], ids=["constant", "sampled"])
def test_alpha_p_whose_symmetrization_overflows_warns_nothing(tmp_path, capsys,
                                                              p, route):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(p))
    rc = cli.run(["alpha", "--system", str(gallery_file("delay_two_lag")),
                  "--alpha", "0.1", "--route", route, "--horizon", "0",
                  "--p-file", str(pfile)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    certificate = json.loads(captured.out)["result"]["certificate"]
    assert certificate["p_semidefinite"] is True


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


def test_attraction_refuses_a_field_that_reads_t(capsys, tmp_path):
    # x' = (t - 1) x grows without bound from t = 1 on, at every x0 != 0
    path = tmp_path / "tv.json"
    path.write_text(json.dumps({"name": "tv", "kind": "nonlinear",
                                "dimension": 1,
                                "expressions": ["(t - 1)*x1"]}))
    rc = cli.run(["attraction", "--system", str(path), "--cmax", "4"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("stabkit: input error: attraction regions "
                                   "need an autonomous system")


def test_attraction_overflowing_levels_name_the_level_without_warnings():
    cmd = [sys.executable, "-m", "stabkit.cli", "attraction", "--system",
           str(gallery_file("vanderpol")), "--cmax", "1e308"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("stabkit: analysis error: DomainError: ")
    assert " at level c=" in done.stderr
    assert "Warning" not in done.stderr and "encountered in matmul" \
        not in done.stderr
    assert len(done.stderr.strip().splitlines()) == 1


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


def test_discrete_candidate_nonzero_at_origin_exits_3(tmp_path, capsys):
    # an unstable map (x2 doubles) and a V with V(0) = 1
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"name": "split", "kind": "discrete",
                                "dimension": 2,
                                "expressions": ["0.5*x1", "2*x2"]}))
    rc = cli.run(["discrete", "--system", str(path), "--candidate",
                  "1 + x1^2 - x2^2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == ("stabkit: analysis error: InvalidCandidateError: "
                            "candidate must satisfy V(0, k) = 0\n")


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


def test_deterministic_output(tmp_path):
    cmd = [sys.executable, "-m", "stabkit.cli", "classify",
           "--system", str(gallery_file("coupled_decay"))]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
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
    # the norms of the scaled sample cube overflow past radius ~1.3e154
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--radius", "1e200"],
    ["discrete", "--system", "cubic_map", "--candidate", "x1^2 + x2^2",
     "--radius", "1e200"],
    # below radius ~1.5e-154 the squared norms underflow to 0
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--radius", "1e-300"],
    # below radius ~1.2e-68 the fits' ||x||^4 underflows near the origin
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--radius", "1e-100"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--radius", "1e-150"],
    ["discrete", "--system", "cubic_map", "--candidate", "x1^2 + x2^2",
     "--radius", "1e-100"],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--t0", "1e308", "--tspan", "1e308"],
    ["lyapunov", "--system", "cubic_damping", "--candidate",
     "x1^2 + x2^2 + exp(-1e400)"],
    ["classify", "--system", "coupled_decay", "--tol", "nan"],
    ["classify", "--system", "coupled_decay", "--tol=-1"],
    ["floquet", "--system", "periodic_rotation", "--tol", "nan"],
    ["linearize", "--system", "pendulum", "--seeds", "0.1,0", "--tol", "nan"],
    ["linearize", "--system", "pendulum", "--point", "0,0", "--tol", "inf"],
], ids=lambda argv: " ".join(argv[0:1] + argv[3:]))
def test_invalid_scan_arguments_exit_2(capsys, argv):
    argv = [str(gallery_file(a)) if i == 2 else a for i, a in enumerate(argv)]
    with deadline(10.0):
        rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "input error" in captured.err
    assert "did not finish" not in captured.err
    assert "zero-size" not in captured.err
    assert "negative dimensions" not in captured.err


@pytest.mark.parametrize("argv,word", [
    (["simulate", "--system", "pendulum", "--x0", "0.5,0", "--t1", "inf"], "t1"),
    (["simulate", "--system", "delay_coupled", "--x0", "1,1", "--t1", "inf"],
     "t1"),
    (["simulate", "--system", "pendulum", "--x0", "0.5,0", "--t1", "nan"], "t1"),
    (["simulate", "--system", "delay_coupled", "--x0", "1,1", "--t1", "nan"],
     "t1"),
    (["simulate", "--system", "pendulum", "--x0", "0.5,0", "--t0", "nan"], "t0"),
    (["simulate", "--system", "pendulum", "--x0", "0.5,0", "--step", "nan"],
     "step"),
    (["simulate", "--system", "pendulum", "--x0", "0.5,0", "--step", "inf"],
     "step"),
    (["simulate", "--system", "delay_coupled", "--x0", "1,1", "--step", "nan"],
     "step"),
    (["simulate", "--system", "delay_coupled", "--x0", "1,1", "--step", "inf"],
     "step"),
    (["simulate", "--system", "pendulum", "--x0", "0.5,0", "--step", "0"],
     "step"),
    (["simulate", "--system", "delay_coupled", "--x0", "1,1", "--step", "0"],
     "step"),
    (["simulate", "--system", "periodic_rotation", "--x0", "1,1,1",
      "--t1", "inf"], "t1"),
    (["alpha", "--system", "delay_coupled", "--alpha", "0.4",
      "--horizon", "inf"], "horizon"),
    (["alpha", "--system", "delay_coupled", "--alpha", "0.4",
      "--horizon", "nan"], "horizon"),
    (["alpha", "--system", "delay_coupled", "--alpha", "0.4",
      "--horizon=-1"], "horizon"),
    (["floquet", "--system", "periodic_rotation", "--step", "inf"], "step"),
    (["floquet", "--system", "periodic_rotation", "--step", "nan"], "step"),
    (["floquet", "--system", "periodic_rotation", "--step", "0"], "step"),
    (["floquet", "--system", "periodic_rotation", "--period", "nan"], "period"),
    (["floquet", "--system", "periodic_rotation", "--period", "inf"], "period"),
    (["floquet", "--system", "periodic_rotation", "--period", "0"], "period"),
    (["floquet", "--system", "periodic_rotation", "--period=-1"], "period"),
    (["floquet", "--system", "periodic_rotation", "--period", "1e308"],
     "period"),
], ids=lambda v: " ".join(v[0:1] + v[3:]) if isinstance(v, list) else v)
def test_nonfinite_time_arguments_exit_2(capsys, argv, word):
    argv = [str(gallery_file(a)) if i == 2 else a for i, a in enumerate(argv)]
    with deadline(10.0):
        rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "input error" in captured.err and word in captured.err
    assert "Traceback" not in captured.err
    assert "convert float NaN" not in captured.err


def test_period_override_runs_on_the_given_period(capsys):
    system = gallery_file("periodic_rotation")
    rc, doubled = run_cli(["floquet", "--system", system, "--step", "1e-3",
                           "--period", repr(4 * np.pi)], capsys)
    assert rc == 0
    rc, same = run_cli(["floquet", "--system", system, "--step", "1e-3",
                        "--period", repr(2 * np.pi)], capsys)
    rc, base = run_cli(["floquet", "--system", system, "--step", "1e-3"],
                       capsys)
    assert same["result"] == base["result"]
    assert doubled["result"]["liouville_rhs"] == pytest.approx(
        base["result"]["liouville_rhs"] ** 2, rel=1e-9)


@pytest.mark.parametrize("name,edit,word", [
    ("periodic_rotation", lambda d: d.update(period=float("nan")), "period"),
    ("periodic_rotation", lambda d: d.update(period=float("inf")), "period"),
    ("delay_coupled", lambda d: d["delays"][0].update(lag=float("nan")),
     "lags"),
    ("delay_coupled", lambda d: d["delays"][1].update(lag=float("inf")),
     "lags"),
])
def test_nonfinite_period_or_lag_in_file_exits_2(tmp_path, capsys, name,
                                                  edit, word):
    doc = json.loads(gallery_file(name).read_text())
    edit(doc)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))  # writes NaN / Infinity literals
    cmd = "floquet" if name.startswith("periodic") else "alpha"
    argv = [cmd, "--system", str(path)] + \
        ([] if cmd == "floquet" else ["--alpha", "0.4"])
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert word in captured.err and "finite and positive" in captured.err


@pytest.mark.parametrize("doc,argv", [
    ({"kind": "linear", "dimension": 1, "a": [[float("inf")]]},
     ["simulate", "--x0", "1"]),
    ({"kind": "linear", "dimension": 1, "a": [[float("nan")]]},
     ["simulate", "--x0", "1"]),
    ({"kind": "delay", "dimension": 1, "a": [[-1.0]],
      "delays": [{"lag": 1.0, "coefficients": [[float("inf")]]}]},
     ["simulate", "--x0", "1"]),
    ({"kind": "nonlinear", "dimension": 1, "expressions": ["-g*x1"],
      "params": {"g": float("inf")}}, ["simulate", "--x0", "1"]),
    ({"kind": "periodic", "dimension": 2, "period": 2 * np.pi,
      "coefficients": [["sin(t)", float("inf")], [0, -1]]}, ["floquet"]),
    ({"kind": "discrete", "dimension": 1, "expressions": ["g*x1"],
      "params": {"g": float("nan")}}, ["simulate", "--x0", "1", "--steps", "3"]),
], ids=["linear-inf", "linear-nan", "delay-inf", "param-inf", "mixed-grid-inf",
        "discrete-param-nan"])
def test_nonfinite_numbers_in_file_exit_2(tmp_path, capsys, doc, argv):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"name": "bad", **doc}))  # Infinity / NaN
    rc = cli.run([argv[0], "--system", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["discrete", "--system", "cubic_map", "--iterate", "10000000",
     "--x0", "0.1,0.1"],
    ["simulate", "--system", "cubic_map", "--steps", "10000000",
     "--x0", "0.1,0.1"],
])
def test_orbit_beyond_the_sample_cap_exits_3(capsys, argv):
    argv = [str(gallery_file(a)) if i == 2 else a for i, a in enumerate(argv)]
    rc = cli.run(argv)
    assert rc == 3
    assert "SampleCapError" in capsys.readouterr().err


NUMPY_TEXT = ("broadcast", "concatenation axis", "could not convert",
              "input array", "index out of range", "float() argument")


@pytest.mark.parametrize("argv,flag", [
    (["lyapunov", "--system", "damped_spring", "--solve", "--q", "1,2;3"],
     "--q"),
    (["attraction", "--system", "vanderpol", "--cmax", "1", "--p", "1,0;0"],
     "--p"),
    (["attraction", "--system", "vanderpol", "--cmax", "1",
      "--p", "1,0,0;0,1,0;0,0,1"], "--p"),
    (["linearize", "--system", "pendulum", "--seeds", "1,1,1"], "--seeds"),
    (["linearize", "--system", "pendulum", "--point", "1"], "--point"),
    (["simulate", "--system", "delay_coupled", "--x0", "1,1",
      "--history", "1,2,3"], "--history"),
    (["simulate", "--system", "pendulum", "--x0", "1,2,3"], "--x0"),
    (["simulate", "--system", "pendulum", "--x0", "1,a"], "--x0"),
    (["discrete", "--system", "cubic_map", "--iterate", "3", "--x0", ""],
     "--x0"),
], ids=lambda v: " ".join(v[0:1] + v[3:]) if isinstance(v, list) else v)
def test_vector_and_matrix_flags_are_checked_against_the_dimension(
        capsys, argv, flag):
    argv = [str(gallery_file(a)) if i == 2 else a for i, a in enumerate(argv)]
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"stabkit: input error: {flag} needs ")
    assert not any(text in captured.err for text in NUMPY_TEXT)


@pytest.mark.parametrize("argv,flag", [
    (["linearize", "--system", "pendulum", "--seeds", "1e308,1e308"], "--seeds"),
    (["lyapunov", "--system", "damped_spring", "--solve",
      "--q", "1e308,0;0,1e308"], "--q"),
    (["attraction", "--system", "vanderpol", "--cmax", "1",
      "--p", "1e308,0;0,1e308"], "--p"),
    (["linearize", "--system", "pendulum", "--point", "0,1e200"], "--point"),
    (["simulate", "--system", "pendulum", "--x0", "1.01e150,0"], "--x0"),
    (["simulate", "--system", "delay_coupled", "--x0", "1,1",
      "--history", "nan,1"], "--history"),
], ids=lambda v: " ".join(v[0:1] + v[3:]) if isinstance(v, list) else v)
def test_vector_and_matrix_flags_beyond_the_flag_limit_exit_2(
        capsys, argv, flag):
    argv = [str(gallery_file(a)) if i == 2 else a for i, a in enumerate(argv)]
    rc = cli.run(argv)  # a RuntimeWarning would raise here
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(
        f"stabkit: input error: {flag} needs finite numbers of size at most")


def test_flag_values_at_the_limit_end_typed_on_a_steep_system(capsys):
    # f(x) stays finite at x = 1e150, but the norm of f does not
    steep = json.dumps({"name": "steep", "kind": "nonlinear", "dimension": 2,
                        "expressions": ["-1e8*x1^2", "-x2"]})
    assert cli.run(["linearize", "--system", steep, "--seeds",
                    "1e150,1e150"]) == 0  # the seed is dropped
    assert json.loads(capsys.readouterr().out)["result"]["seeds_dropped"] == 1
    assert cli.run(["linearize", "--system", steep, "--point", "1e150,0"]) == 3
    assert "NotAnEquilibriumError: ||f(x*)|| = inf" in capsys.readouterr().err


def test_long_candidates_run_and_too_deep_ones_exit_2(capsys):
    system = str(gallery_file("cubic_damping"))
    verdicts = []
    for pairs in (1, 250):  # 2 and 500 terms
        rc = cli.run(["lyapunov", "--system", system, "--candidate",
                      " + ".join(["0.5*x1^2 + 0.5*x2^2"] * pairs)])
        assert rc == 0
        verdicts.append(json.loads(capsys.readouterr().out)["result"]
                        ["conclusion"])
    assert verdicts == ["stable", "stable"]
    rc = cli.run(["lyapunov", "--system", system, "--candidate",
                  " + ".join(["x1^2"] * 1200)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "expression deeper than" in captured.err
    assert "Traceback" not in captured.err


SIN_99 = "sin(" * 99 + "x1" + ")" * 99
# (first component, candidate): trees the parser accepts whose derivatives
# are deeper or more nested than it would accept.  The candidate scan
# reports (its W3 minors come from one jet, no second derivative tree);
# the Jacobian is an input error.
DERIVED_SHAPES = {
    f"product-{k}": ("-x1 + 1e-300*" + "*".join(["x1"] * k), "x1^2 + x2^2")
    for k in (100, 300, 590)
} | {"sin-99": ("-x1 + " + SIN_99, SIN_99 + " + x2^2")}


HUGE = 10 ** 400  # an integer JSON number past float range
HUGE_FIELDS = {
    "a": ({"kind": "linear", "a": [[HUGE, 0], [0, -1]]}, ["classify"]),
    "period": ({"kind": "periodic", "coefficients": [["-1", "0"], ["0", "-1"]],
                "period": HUGE}, ["floquet"]),
    "lag": ({"kind": "delay", "a": [[-1, 0], [0, -1]], "delays": [
        {"lag": HUGE, "coefficients": [[0.1, 0], [0, 0.1]]}]},
        ["simulate", "--x0", "1,0", "--t1", "1"]),
    "params": ({"kind": "nonlinear", "expressions": ["x2", "-k*sin(x1)"],
                "params": {"k": HUGE}}, ["linearize", "--point", "0,0"]),
}


@pytest.mark.parametrize("doc, argv", HUGE_FIELDS.values(),
                         ids=HUGE_FIELDS.keys())
def test_integer_past_float_range_is_a_schema_error(tmp_path, capsys, doc,
                                                    argv):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"name": "huge", "dimension": 2, **doc}))
    assert cli.run([argv[0], "--system", str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: system definition invalid: " in captured.err


@pytest.mark.parametrize("shape", DERIVED_SHAPES)
def test_derivatives_beyond_the_bounds_exit_0_or_2(tmp_path, capsys, shape):
    f1, candidate = DERIVED_SHAPES[shape]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"name": shape, "kind": "nonlinear",
                                "dimension": 2, "expressions": [f1, "-x2"]}))
    rc, rep = run_cli(["lyapunov", "--system", path, "--candidate",
                       candidate, "--samples", "256"], capsys)
    assert rc == 0 and rep["result"]["vdot_verdict"]
    assert cli.run(["linearize", "--system", str(path), "--point", "0,0"]) == 2
    captured = capsys.readouterr()
    assert "input error: expression " in captured.err
    assert "deeper than" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("doc", [
    {"matrix": [1, 2]}, 5, {"matrix": "abc"}, {"matrix": [[1, 0], [0]]},
    {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"matrix": [[1e400, 0], [0, 1]]}, {"times": [0, 1, 2], "values": "abc"},
    {"times": [0, 1, 2], "values": [[[1, 0], [0, 1]]] * 2},
    {"times": [0, 1, 5], "values": [[[1, 0], [0, 1]]] * 3},
], ids=["vector", "number", "string", "ragged", "3x3", "inf", "values-string",
        "values-count", "uneven-times"])
def test_malformed_p_file_exits_2_naming_the_flag(tmp_path, capsys, doc):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(doc))
    rc = cli.run(["alpha", "--system", str(gallery_file("delay_coupled")),
                  "--alpha", "0.4", "--route", "rde", "--p-file", str(pfile)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--p-file" in captured.err
    assert not any(text in captured.err for text in NUMPY_TEXT)


def test_sampled_p_file_is_read(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"times": [0, 1, 2, 3],
                                 "values": [[[0.5, 0], [0, 0.25]]] * 4}))
    rc, rep = run_cli(["alpha", "--system", gallery_file("delay_coupled"),
                       "--alpha", "0.4", "--route", "rde", "--p-file", pfile,
                       "--horizon", "0"], capsys)
    assert rc == 0
    assert rep["result"]["certificate"]["p_kind"] == "sampled"


@pytest.mark.parametrize("cmd", ["classify", "alpha"])
def test_unwritable_out_file_exits_2(capsys, cmd):
    system = "saddle" if cmd == "classify" else "delay_coupled"
    rc = cli.run([cmd, "--system", str(gallery_file(system)),
                  "--out", "/nonexistent/r.json"] +
                 (["--alpha", "0.4", "--horizon", "0"] if cmd == "alpha" else []))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("stabkit: input error: ")
    assert "/nonexistent/r.json" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--system", "pendulum", "--x0", "1,0", "--t1", "0.1",
      "--csv"], "--csv"),
    (["discrete", "--system", "cubic_map", "--iterate", "3", "--x0",
      "0.1,0.1", "--csv"], "--csv"),
    (["alpha", "--system", "delay_coupled", "--alpha", "0.4", "--route",
      "rde", "--p-file"], "--p-file"),
])
def test_missing_named_files_exit_2_naming_the_flag(capsys, argv, flag):
    argv = [str(gallery_file(a)) if i == 2 else a for i, a in enumerate(argv)]
    rc = cli.run(argv + ["/nonexistent/f"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"stabkit: input error: {flag} /nonexistent/f")


def test_a_timeout_is_not_an_input_error(monkeypatch):
    """A TimeoutError is an OSError too, but only an OSError on a named file
    is an input error: a test deadline still reports a hang as one."""
    def hang(*args):
        raise TimeoutError("did not finish")

    monkeypatch.setattr(cli.autonomous, "classify_linear", hang)
    with pytest.raises(TimeoutError):
        cli.run(["classify", "--system", str(gallery_file("saddle"))])


def test_undecodable_files_exit_2(tmp_path, capsys):
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\x00")
    rc = cli.run(["classify", "--system", str(binary)])
    assert rc == 2
    rc = cli.run(["alpha", "--system", str(gallery_file("delay_coupled")),
                  "--alpha", "0.4", "--route", "rde", "--p-file", str(binary)])
    assert rc == 2
    assert "--p-file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["attraction", "--system", "vanderpol", "--cmax", "1",
     "--levels", str(SAMPLE_CAP + 1), "--directions", "1"],
    ["attraction", "--system", "vanderpol", "--cmax", "1",
     "--levels", "1", "--directions", str(SAMPLE_CAP + 1)],
    ["attraction", "--system", "vanderpol", "--cmax", "1",
     "--levels", "2", "--directions", str(SAMPLE_CAP // 2 + 1)],
    ["lyapunov", "--system", "cubic_damping", "--candidate", "x1^2 + x2^2",
     "--samples", str(SAMPLE_CAP + 1)],
    ["lyapunov", "--system", "uniform_growth", "--instability", "x1^2 + x2^2",
     "--samples", str(SAMPLE_CAP + 1)],
    ["discrete", "--system", "cubic_map", "--candidate", "x1^2 + x2^2",
     "--samples", str(SAMPLE_CAP + 1)],
], ids=lambda argv: " ".join(argv[0:1] + argv[5:]))
def test_scans_beyond_the_sample_cap_exit_3(capsys, argv):
    argv = [str(gallery_file(a)) if i == 2 else a for i, a in enumerate(argv)]
    with deadline(10.0):
        rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("stabkit: analysis error: SampleCapError: ")


@pytest.mark.parametrize("params", [{"t": 2.0}, {"x1": 1.0}, {"x12": 1.0}])
def test_time_or_state_named_parameter_in_file_exits_2(tmp_path, capsys,
                                                        params):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"name": "p", "kind": "nonlinear",
                                "dimension": 1, "expressions": ["-2*x1"],
                                "params": params}))
    rc = cli.run(["simulate", "--system", str(path), "--x0", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "reserved" in captured.err


_PERIODIC_X = {"kind": "periodic", "dimension": 2, "period": 2 * np.pi,
               "coefficients": [["-1 + x1", "1"], ["-1", "-1"]]}
_DELAY_X = {"kind": "delay", "dimension": 1, "a": [[-2]],
            "delays": [{"lag": 1.0, "coefficients": [["0.5*x1"]]}]}
_DELAY_A_X = {"kind": "delay", "dimension": 1, "a": [["-2 + sin(x1)"]],
              "delays": [{"lag": 1.0, "coefficients": [[0.5]]}]}


@pytest.mark.parametrize("doc,argv", [
    (_PERIODIC_X, ["floquet"]),
    (_PERIODIC_X, ["simulate", "--x0", "1,1"]),
    (_DELAY_X, ["simulate", "--x0", "1"]),
    (_DELAY_X, ["alpha", "--alpha", "0.1"]),
    (_DELAY_A_X, ["simulate", "--x0", "1"]),
], ids=["periodic-floquet", "periodic-simulate", "delay-simulate",
        "delay-alpha", "delay-a-simulate"])
def test_coefficient_naming_a_state_variable_exits_2(tmp_path, capsys, doc,
                                                     argv):
    # coefficient grids are functions of t: a state variable in one is
    # refused when the system is built, not met as an IndexError later
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"name": "state-coefficient", **doc}))
    rc = cli.run([argv[0], "--system", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "names a state variable" in captured.err


def _spy(calls: list, fn):
    def spied(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return spied


def test_newton_compiles_the_right_hand_side_once(capsys, monkeypatch):
    # Newton asks for the right-hand side and its Jacobian per iteration;
    # the system compiles each once, on first use
    from stabkit import expr

    calls = []
    monkeypatch.setattr(expr, "compile_vector",
                        _spy(calls, expr.compile_vector))
    rc, rep = run_cli(["linearize", "--system", gallery_file("vanderpol"),
                       "--seeds", "0.1,0.1;1,1;-1,0.5"], capsys)
    assert rc == 0 and len(rep["result"]["equilibria"]) == 1
    assert len(calls) == 2


def test_periodic_grid_compiles_once_per_system(capsys, monkeypatch):
    # the period check, the monodromy march and the Liouville trace share
    # the grid their system compiled
    from stabkit import odeint

    grids, builds = [], []
    monkeypatch.setattr(odeint, "compile_matrix",
                        _spy(grids, odeint.compile_matrix))
    monkeypatch.setattr(odeint.SystemDef, "__post_init__",
                        _spy(builds, odeint.SystemDef.__post_init__))
    rc, _ = run_cli(["floquet", "--system", gallery_file("periodic_rotation")],
                    capsys)
    assert rc == 0
    assert 1 <= len(grids) <= len(builds)


@pytest.mark.parametrize("b,word", [
    ("x", "must be 2 rows of equal length"),
    ([[1, 2], [3]], "must be 2 rows of equal length"),
    ([[1]], "must be 2 rows of equal length"),
    ([[], []], "must be 2 rows of equal length"),
    ([[True], [0]], "entries must be numbers"),
    ([["1"], [0]], "entries must be numeric"),
], ids=["string", "ragged", "one-row", "empty-rows", "bool", "string-entry"])
def test_malformed_b_exits_2_naming_b(tmp_path, capsys, b, word):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"name": "b", "kind": "linear", "dimension": 2,
                                "a": [[-1, 0], [0, -2]], "b": b}))
    rc = cli.run(["classify", "--system", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"'b' {word}" in captured.err
    for raw in ("convert", "inhomogeneous", "sequence"):
        assert raw not in captured.err


def test_valid_b_is_kept(tmp_path, capsys):
    doc = {"name": "b", "kind": "linear", "dimension": 2,
           "a": [[-1, 0], [0, -2]], "b": [[1, 0.5], [0, 2]]}
    assert load_system(doc).build().rhs.b.tolist() == [[1.0, 0.5], [0.0, 2.0]]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    rc, rep = run_cli(["classify", "--system", path], capsys)
    assert rc == 0 and rep["result"]["kind"] == "asymptotically-stable"


_A_NUMBERS = [[-1.0, math.exp(-0.4) / 3], [0.0, -2.0]]
_A_STRINGS = [["-1", "exp(-0.4)/3"], [0, "-2"]]
_D_NUMBERS = [[0.1, 0], [0, math.exp(-0.4) / 3]]
_D_STRINGS = [["0.1", 0], [0, "exp(-0.4)/3"]]


def _written(kind: str, spelled: str) -> dict:
    """One constant system as a ``kind`` file, its grids spelled in numbers
    or in constant expression strings."""
    a, d = (_A_NUMBERS, _D_NUMBERS) if spelled == "numbers" \
        else (_A_STRINGS, _D_STRINGS)
    doc = {"name": "constant", "kind": kind, "dimension": 2}
    if kind == "periodic":
        return {**doc, "coefficients": a, "period": 1.0}
    if kind == "delay":
        return {**doc, "a": a, "delays": [{"lag": 0.5, "coefficients": d}]}
    return {**doc, "a": a}


def _report_and_csv(tmp_path, doc: dict, argv: list) -> tuple[dict, bytes]:
    """The report without its timing, command line and CSV path, and the
    CSV bytes (empty when the command writes none)."""
    system, out, csv = (tmp_path / f for f in ("sys.json", "out.json",
                                               "trajectory.csv"))
    system.write_text(json.dumps(doc))
    csv.unlink(missing_ok=True)
    extra = ["--csv", str(csv)] if argv[0] == "simulate" else []
    assert cli.run([argv[0], "--system", str(system), *argv[1:], *extra,
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for key in ("wall_time_s", "command"):
        report.pop(key)
    report["result"].pop("csv", None)
    return report, csv.read_bytes() if extra else b""


@pytest.mark.parametrize("kind,argv", [
    ("linear", ["simulate", "--x0", "1,-1", "--t1", "1.5"]),
    ("periodic", ["simulate", "--x0", "1,-1", "--t1", "1.5"]),
    ("periodic", ["floquet", "--step", "0.01"]),
    ("delay", ["simulate", "--x0", "1,-1", "--t1", "1.5"]),
    ("delay", ["alpha", "--alpha", "0.1", "--horizon", "1"]),
])
def test_constant_grids_fold_to_one_system_whatever_their_spelling(
        tmp_path, kind, argv):
    want = np.array(_A_NUMBERS)
    spellings = ("numbers",) if kind == "linear" else ("numbers", "strings")
    for spelled in spellings:
        a = load_system(_written(kind, spelled)).build().linear_coefficient
        assert isinstance(a, np.ndarray) and np.array_equal(a, want)
    got = [_report_and_csv(tmp_path, _written(kind, spelled), argv)
           for spelled in spellings]
    assert got[-1] == got[0]
    if kind == "periodic" and argv[0] == "simulate":
        # without delays, a periodic file marches as the linear one does
        linear, csv = _report_and_csv(tmp_path, _written("linear", "numbers"),
                                      argv)
        assert (linear["result"], csv) == (got[0][0]["result"], got[0][1])
