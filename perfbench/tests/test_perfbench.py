"""Tests of the benchmark itself: inputs, counters and output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def stabkit():
    return run.load_stabkit()


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def _runner(stabkit, reference, workload, ops, files=None, seed=7):
    runner = run.Runner(workload, seed, stabkit, reference)
    if files:
        for name, body in files.items():
            (runner.work / name).write_bytes(body)
            runner.systems[name] = json.loads(body)
    runner.ops = ops
    return runner


def _traced(stabkit, runner, op):
    """Run one op under a fresh tracer; return the tracer."""
    tr = tracer.Tracer(stabkit)
    tr.install()
    runner.cli_run = tr.span("cli.run", stabkit["cli"].run)
    try:
        _, ok = runner.run_op(op, 60.0)
    finally:
        tr.uninstall()
        runner.cli_run = stabkit["cli"].run
    assert ok, runner.problems
    return tr


# --- generated inputs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert generate.generate(workload, 11) == generate.generate(workload, 11)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    files_a, ops_a = generate.generate(workload, 11)
    files_b, ops_b = generate.generate(workload, 12)
    assert files_a != files_b
    # the cost-setting structure is the same: same op count and kinds
    assert sorted(op["check"] for op in ops_a) == \
        sorted(op["check"] for op in ops_b)


def test_every_gallery_op_has_a_reference(reference):
    for workload in generate.WORKLOADS:
        for seed in (1, 2, 3):
            for op in generate.generate(workload, seed)[1]:
                assert op["ref"] is None or op["ref"] in reference, op["ref"]


def _main_on_one_op(monkeypatch, capsys) -> dict:
    """Run ``run.main`` on a one-op pass; return its result line."""
    op = {"kind": "cli", "argv": ["classify", "--system",
                                  "{work}/coupled_decay.json"],
          "check": "classify", "ref": "classify:coupled_decay", "expect": {}}
    files = {"coupled_decay.json": generate._gallery_bytes("coupled_decay")}
    monkeypatch.setattr(generate, "generate", lambda w, s: (files, [op]))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", "desk", "--seed", "1", "--seconds", "0",
                     "--trace", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_runs_hold_at_least_100_ops(monkeypatch, capsys):
    # a run keeps going until MIN_OPS ops are done, so p90 has ten beyond it
    result = _main_on_one_op(monkeypatch, capsys)
    assert result["attempted"] >= 100 and result["correct"]


def test_a_run_cut_short_is_not_correct(monkeypatch, capsys):
    monkeypatch.setattr(run, "HARD_CAP_S", 0.3)
    result = _main_on_one_op(monkeypatch, capsys)
    assert 0 < result["attempted"] < 100 and result["failed"] == 0
    assert not result["correct"]


# --- counters ---------------------------------------------------------------------------

def _floquet_op(period=0.5, step=1e-3):
    import random

    doc, expect = generate.periodic_system(random.Random(5), "p", 2, period,
                                           unstable=False)
    op = {"kind": "cli", "argv": ["floquet", "--system", "{work}/p.json",
                                  "--step", repr(step)],
          "check": "floquet", "ref": None, "expect": expect}
    return op, {"p.json": generate.dumps(doc)}


def test_rk4_steps_of_a_floquet_op_is_ceil_period_over_step(stabkit, reference):
    op, files = _floquet_op(period=0.5, step=3e-3)
    runner = _runner(stabkit, reference, "propagate", [op], files)
    try:
        tr = _traced(stabkit, runner, op)
    finally:
        runner.close()
    assert tr.counts["odeint.rk4_steps"] == math.ceil(0.5 / 3e-3)


def test_counts_repeat_exactly(stabkit, reference):
    op, files = _floquet_op()
    runner = _runner(stabkit, reference, "propagate", [op], files)
    try:
        first = _traced(stabkit, runner, op)
        second = _traced(stabkit, runner, op)
    finally:
        runner.close()
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.counts) == dict(second.counts)


def test_scan_points_equals_samples_and_two_builds_per_op(stabkit, reference):
    files, ops = generate.generate("scan", 3)
    op = next(o for o in ops if o["check"] == "candidate"
              and "4096" in o["argv"])
    runner = _runner(stabkit, reference, "scan", [op], seed=3)
    try:
        tr = _traced(stabkit, runner, op)
    finally:
        runner.close()
    assert tr.counts["lyapunov.scan_points"] == 4096
    assert tr.calls["schema.build"] == 2
    assert tr.calls["schema.load"] == 1
    assert tr.calls["cli.run"] == 1


def test_uninstall_restores_every_binding(stabkit):
    before = {(m, a): getattr(stabkit[m], a) for m, a, _ in tracer.SPANS
              if "." not in a}
    build = stabkit["schema"].SystemFile.build
    tr = tracer.Tracer(stabkit)
    tr.install()
    assert stabkit["cli"].load_system is not before[("cli", "load_system")]
    tr.uninstall()
    after = {(m, a): getattr(stabkit[m], a) for m, a in before}
    assert after == before
    assert stabkit["schema"].SystemFile.build is build


def test_self_times_add_up_to_the_op(stabkit, reference):
    op, files = _floquet_op()
    runner = _runner(stabkit, reference, "propagate", [op], files)
    try:
        tr = _traced(stabkit, runner, op)
    finally:
        runner.close()
    (root,) = [s for s in tr.spans if s[0] == "cli.run"]
    assert sum(tr.self_s.values()) == pytest.approx(root[2] - root[1],
                                                    rel=1e-9)


# --- output checks -----------------------------------------------------------------------

def _report_of(stabkit, runner, op) -> dict:
    argv = [a.replace("{work}", str(runner.work)) for a in op["argv"]]
    assert stabkit["cli"].run(argv + ["--out", str(runner.report)]) == 0
    return json.loads(runner.report.read_text())


def _doctored_fails(stabkit, reference, workload, pick, doctor):
    files, ops = generate.generate(workload, 4)
    op = next(o for o in ops if pick(o))
    runner = _runner(stabkit, reference, workload, [op], seed=4)
    try:
        report = _report_of(stabkit, runner, op)
        system = runner.systems.get(Path(op["argv"][2]).name)
        assert checks.check(op, report, system, reference) == []
        doctor(report["result"])
        assert checks.check(op, report, system, reference) != []

        # and through the runner: an op whose report is doctored on disk
        # counts as failed
        def doctored_run(argv):
            rc = stabkit["cli"].run(argv)
            out = Path(argv[argv.index("--out") + 1])
            rep = json.loads(out.read_text())
            doctor(rep["result"])
            out.write_text(json.dumps(rep))
            return rc

        runner.cli_run = doctored_run
        _, ok = runner.run_op(op, 60.0)
        assert not ok and runner.problems
    finally:
        runner.close()


def test_wrong_classify_kind_fails(stabkit, reference):
    def doctor(r):
        r["kind"] = "unstable"
    _doctored_fails(stabkit, reference, "desk",
                    lambda o: o["check"] == "classify" and o["ref"] is None,
                    doctor)


def test_wrong_lyapunov_solution_fails(stabkit, reference):
    def doctor(r):
        r["p"][0][0] *= 1.001
    _doctored_fails(stabkit, reference, "desk",
                    lambda o: o["check"] == "solve" and o["ref"] is None,
                    doctor)


def test_wrong_floquet_gap_fails(stabkit, reference):
    def doctor(r):
        r["relative_gap"] = 1e-3
    _doctored_fails(stabkit, reference, "propagate",
                    lambda o: o["check"] == "floquet" and "0.001" in o["argv"],
                    doctor)


def test_wrong_gallery_verdict_fails(stabkit, reference):
    def doctor(r):
        r["c_star"] *= 0.5
    _doctored_fails(stabkit, reference, "desk",
                    lambda o: o["check"] == "attraction", doctor)


def test_nonzero_exit_counts_as_failed(stabkit, reference):
    op = {"kind": "cli", "argv": ["classify", "--system", "{work}/none.json"],
          "check": "classify", "ref": None, "expect": {}}
    runner = _runner(stabkit, reference, "desk", [op])
    try:
        _, ok = runner.run_op(op, 60.0)
    finally:
        runner.close()
    assert not ok and "exit code 2" in runner.problems[0]


# --- host normalisation -----------------------------------------------------------------

def test_large_solves_use_the_lapack_kernel():
    for workload in generate.WORKLOADS:
        files, ops = generate.generate(workload, 3)
        for op in ops:
            big = False
            if op["check"] == "solve" and op["ref"] is None:
                name = Path(op["argv"][2]).name
                big = json.loads(files[name])["dimension"] >= \
                    generate.LAPACK_BOUND_N
            assert op["host"] == ("lapack" if big else "python"), op["argv"]


def test_host_time_is_the_mean_over_the_window(monkeypatch):
    calls = []

    def kernel():
        calls.append(len(calls))
        return 1e-3 * len(calls)

    monkeypatch.setattr(run, "HOST_WINDOW_S", 5e-3)
    # one untimed call (1 ms), then 2 + 3 ms reach the window
    assert run.host_time(kernel) == pytest.approx(2.5e-3)
    assert len(calls) == 3


def test_op_time_is_scaled_by_the_kernel_around_it(stabkit, reference,
                                                   monkeypatch):
    # a host twice as slow as the reference before the op and six times
    # after it scales the op's time by 2 / mean(4, 12) = 0.25
    timings = iter([4e-3, 12e-3])
    monkeypatch.setattr(run, "host_time", lambda kernel: next(timings))
    monkeypatch.setitem(run.HOST_KERNELS, "python", (None, 2e-3))
    op = {"kind": "cli", "argv": ["classify", "--system",
                                  "{work}/coupled_decay.json"],
          "check": "classify", "ref": "classify:coupled_decay", "expect": {}}
    files = {"coupled_decay.json": generate._gallery_bytes("coupled_decay")}
    runner = _runner(stabkit, reference, "desk", [op], files)
    stats = run._new_stats()
    try:
        run.run_pass(runner, run.CoreChooser(), run._now(), stats)
    finally:
        runner.close()
    assert runner.last_scale == pytest.approx(0.25)
    assert stats["busy"] == pytest.approx(0.25 * stats["raw_busy"])
    assert stats["latencies"] == pytest.approx(
        [0.25 * x for x in stats["raw_latencies"]])
