import ast
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabkit import autonomous, cli
from stabkit import discrete as dc
from stabkit import expr as ex
from stabkit import lyapunov as ly
from stabkit import odeint
from stabkit.errors import (
    DimensionMismatchError,
    DomainError,
    HistoryGapError,
    InvalidArgumentError,
    NonFiniteStateError,
    SampleCapError,
)
from stabkit.odeint import (
    Delay,
    HistoryFn,
    Linear,
    Nonlinear,
    SystemDef,
    compile_matrix,
    dde_step,
    integrate,
    integrate_dde,
    integrate_matrix,
)
from stabkit.schema import load_system
from conftest import GALLERY, gallery_system
from scalar_oracle import (_stage_loop_matrix, csv_rows, dde_stage_loop, rhs,
                           stage_loop)
from test_lyapunov_solve import perfbench_generate


def scalar_decay():
    return SystemDef(1, Nonlinear(("-x1",)))


def test_exponential_decay_accuracy():
    traj = integrate(scalar_decay(), [1.0], 0.0, 1.0, 1e-3)
    assert abs(traj.states[-1][0] - math.exp(-1.0)) < 1e-9


def test_forced_lag_closed_form():
    # x' = -x + cos t from x(0) = 1/2 has x(t) = (cos t + sin t)/2
    sysd = gallery_system("cosine_forced")
    traj = integrate(sysd, [0.5], 0.0, math.pi, 1e-3)
    assert abs(traj.states[-1][0] - (-0.5)) < 1e-6
    mid = np.argmin(np.abs(traj.times - 1.0))
    assert abs(traj.states[mid][0]
               - 0.5 * (math.cos(1.0) + math.sin(1.0))) < 1e-6


def test_growing_damping_freezes_short_of_equilibrium():
    # x'' + (2 + e^t) x' + x = 0 from (2, -1) has x(t) = 1 + e^{-t}
    sysd = gallery_system("growing_damping")
    traj = integrate(sysd, [2.0, -1.0], 0.0, 6.0, 1e-3)
    want = 1.0 + np.exp(-traj.times)
    assert np.abs(traj.states[:, 0] - want).max() < 1e-9
    assert abs(traj.states[-1][0] - 1.0) < 0.01  # not the equilibrium 0


def test_slowing_decay_closed_form():
    # x' = -x/(1+t) gives x(t) = (1+t0)/(1+t) x0
    sysd = gallery_system("slowing_decay")
    for t0 in (0.0, 9.0):
        traj = integrate(sysd, [1.0], t0, 10.0, 1e-3)
        want = (1.0 + t0) / 11.0
        assert abs(traj.states[-1][0] - want) < 1e-6


def test_rk4_convergence_order():
    def endpoint_error(h):
        traj = integrate(scalar_decay(), [1.0], 0.0, 1.0, h)
        return abs(traj.states[-1][0] - math.exp(-1.0))

    ratio = endpoint_error(0.02) / endpoint_error(0.01)
    assert 14.0 <= ratio <= 18.0


def test_pendulum_energy_drift():
    sysd = gallery_system("pendulum")
    traj = integrate(sysd, [0.5, 0.0], 0.0, 20.0 * math.pi, 1e-3)
    k = 1.0
    energy = 0.5 * traj.states[:, 1] ** 2 + k * (1.0 - np.cos(traj.states[:, 0]))
    drift = np.abs(energy - energy[0]).max() / energy[0]
    assert drift < 1e-6


def test_pendulum_first_integral():
    sysd = gallery_system("pendulum")
    traj = integrate(sysd, [0.5, 0.0], 0.0, 10.0, 1e-3)
    c = traj.states[:, 1] ** 2 - 2.0 * np.cos(traj.states[:, 0])
    assert np.ptp(c) < 1e-9


def test_determinism():
    sysd = gallery_system("pendulum")
    a = integrate(sysd, [0.4, 0.1], 0.0, 5.0, 1e-3)
    b = integrate(sysd, [0.4, 0.1], 0.0, 5.0, 1e-3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_escape_detection():
    blowup = SystemDef(1, Nonlinear(("x1^2",)))
    with pytest.raises(NonFiniteStateError) as err:
        integrate(blowup, [1.0], 0.0, 5.0, 1e-3)
    assert 0.9 < err.value.t < 1.1  # 1/(1-t) escapes at t=1

    coupled = gallery_system("exponential_coupling")
    with pytest.raises(NonFiniteStateError):
        integrate(coupled, [1.0, 1.0], 0.0, 40.0, 1e-3)


def test_trailing_partial_step():
    traj = integrate(scalar_decay(), [1.0], 0.0, 0.55, 0.1)
    assert traj.times[-1] == pytest.approx(0.55)
    assert np.allclose(np.diff(traj.times)[:-1], 0.1)
    assert abs(traj.states[-1][0] - math.exp(-0.55)) < 1e-6


def test_integrate_matrix_decoupled():
    sysd = SystemDef(2, Linear(np.diag([-1.0, -1.0])))
    x = integrate_matrix(sysd, 0.0, 1.0, 1e-3)
    assert np.allclose(x, math.exp(-1.0) * np.eye(2), atol=1e-9)


def test_integrate_matrix_zero_coefficients():
    sysd = SystemDef(2, Linear((("0*t", "0"), ("0", "0"))))
    assert np.allclose(integrate_matrix(sysd, 0.0, 3.0, 1e-2), np.eye(2))
    sysd = SystemDef(2, Linear((("0", "0"), ("0", "0"))))
    assert np.allclose(integrate_matrix(sysd, 0.0, 3.0, 1e-2), np.eye(2))


def test_dde_single_interval_closed_form():
    # x'(t) = -x(t-1), constant unit history: x(t) = 1 - t on [0, 1]
    sysd = SystemDef(1, Linear([[0.0]]), delays=(Delay(1.0, [[-1.0]]),))
    traj = integrate_dde(sysd, HistoryFn.constant([1.0], 1.0), 1.0, 1e-3)
    idx = np.argmin(np.abs(traj.times - 0.5))
    assert abs(traj.states[idx][0] - 0.5) < 1e-6
    assert np.allclose(traj.states[:, 0], 1.0 - traj.times, atol=1e-9)


def test_dde_zero_coefficients_reduce_to_ode():
    sysd = SystemDef(1, Linear([[-1.0]]), delays=(Delay(0.5, [[0.0]]),))
    traj = integrate_dde(sysd, HistoryFn.constant([1.0], 0.5), 2.0, 1e-3)
    plain = integrate(scalar_decay(), [1.0], 0.0, 2.0, 1e-3)
    assert np.allclose(traj.states[:, 0], plain.states[:, 0], atol=1e-12)


def test_dde_step_must_divide_lags():
    sysd = SystemDef(1, Linear([[0.0]]), delays=(Delay(1.0, [[-1.0]]),))
    with pytest.raises(ValueError):
        integrate_dde(sysd, HistoryFn.constant([1.0], 1.0), 1.0, 0.3)


def test_dde_history_must_cover_lags():
    sysd = SystemDef(1, Linear([[0.0]]), delays=(Delay(1.0, [[-1.0]]),))
    with pytest.raises(HistoryGapError):
        integrate_dde(sysd, HistoryFn.constant([1.0], 0.25), 1.0, 1e-3)


# entry points that read only the undelayed field, on a delayed system
UNDELAYED_ONLY = {
    "check_candidate": lambda s: ly.check_candidate(s, ly.CandidateV("x1^2")),
    "check_instability": lambda s: ly.check_instability(
        s, ly.CandidateV("x1^2")),
    "find_equilibria": lambda s: autonomous.find_equilibria(s, [[0.5]]),
    "local_stability": lambda s: autonomous.local_stability(s, [0.0]),
    "integrate_matrix": lambda s: integrate_matrix(s, 0.0, 1.0, 1e-3),
}


@pytest.mark.parametrize("call", UNDELAYED_ONLY.values(),
                         ids=UNDELAYED_ONLY.keys())
def test_entry_points_without_delays_refuse_a_delayed_system(call):
    # x' = -x + 2 x(t - 1) grows; its undelayed part x' = -x decays
    sysd = SystemDef(1, Linear([[-1.0]]), (Delay(1.0, [[2.0]]),))
    x = integrate_dde(sysd, HistoryFn.constant([1.0], 1.0), 10.0, 1e-3)
    assert x.states[-1][0] > 40.0
    with pytest.raises(InvalidArgumentError,
                       match="needs a system without delays"):
        call(sysd)


def test_dde_step_helper():
    h = dde_step([0.5, 1.0])
    assert abs(round(0.5 / h) * h - 0.5) <= 1e-9
    assert abs(round(1.0 / h) * h - 1.0) <= 1e-9
    assert 5e-4 <= h <= 2e-3


def test_trajectory_csv():
    traj = integrate(scalar_decay(), [1.0], 0.0, 0.01, 1e-3)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == len(traj.times) + 1
    t, x = (float(v) for v in lines[-1].split(","))
    assert t == traj.times[-1] and x == traj.states[-1][0]


def test_csv_writers_keep_their_bytes(tmp_path):
    traj = integrate(gallery_system("pendulum"), [1.0, 0.0], 0.0, 2.0, 1e-3)
    orbit = dc.iterate(gallery_system("cubic_map"), [0.2, -0.1], 50)
    traj.to_csv(tmp_path / "trajectory.csv")
    orbit.to_csv(tmp_path / "orbit.csv")
    want = csv_rows("t", traj.times.tolist(), traj.states)
    assert (tmp_path / "trajectory.csv").read_bytes() == want.encode()
    buf = io.StringIO()
    traj.to_csv(buf)
    assert buf.getvalue() == want
    want = csv_rows("k", orbit.indices.tolist(), orbit.states)
    assert (tmp_path / "orbit.csv").read_bytes() == want.encode()


def _csv_case(case: str):
    """``(writer, index name, labels)``: a trajectory or an orbit to write,
    and what the row formatter takes for it."""
    if case == "orbit":
        orbit = dc.iterate(gallery_system("cubic_map"), [0.2, -0.1], 50)
        return orbit, "k", orbit.indices.tolist()
    if case == "escaped orbit":
        inf = math.inf
        states = [[0.5, -0.0], [1e300, 5e-324], [inf, -inf], [math.nan, 1.0]]
        orbit = dc.Orbit(np.arange(4), np.array(states), True)
        return orbit, "k", orbit.indices.tolist()
    if case == "n=1, partial step":  # 4,002 rows, the last one 5e-4 on
        traj = integrate(scalar_decay(), [1.0], 0.0, 4.0005, 1e-3)
        assert traj.times[-1] - traj.times[-2] < 1e-3
    else:  # n = 6
        a = -np.eye(6) + 0.3 * np.eye(6, k=1) - 0.2 * np.eye(6, k=-2)
        traj = integrate(SystemDef(6, Linear(a)), np.linspace(-1.0, 1.5, 6),
                         0.0, 1.0, 1e-3)
    return traj, "t", traj.times.tolist()


@pytest.mark.parametrize("block", [
    None, lambda rows: 1, lambda rows: rows - 1, lambda rows: rows,
    lambda rows: rows + 1], ids=["default", "1", "rows-1", "rows", "rows+1"])
@pytest.mark.parametrize("case", ["n=1, partial step", "n=6", "orbit",
                                  "escaped orbit"])
def test_csv_writer_has_the_bytes_of_the_row_formatter(tmp_path, monkeypatch,
                                                        case, block):
    writer, index_name, labels = _csv_case(case)
    if block is not None:
        monkeypatch.setattr(odeint, "CSV_BLOCK_ROWS", block(len(labels)))
    want = csv_rows(index_name, labels, writer.states)
    writer.to_csv(tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == want.encode()
    buf = io.StringIO()
    writer.to_csv(buf)
    assert buf.getvalue() == want


def test_delays_must_be_sorted():
    with pytest.raises(DimensionMismatchError, match="sorted"):
        SystemDef(1, Linear([[0.0]]),
                  delays=(Delay(1.0, [[1.0]]), Delay(0.5, [[1.0]])))


def test_delays_need_a_linear_right_hand_side():
    # no file kind builds one, and every delayed step is a linear step map
    with pytest.raises(InvalidArgumentError,
                       match="delays need a linear right-hand side"):
        SystemDef(2, Nonlinear(("-2*x1 + x2^3", "-4*x2")),
                  delays=(Delay(0.5, np.eye(2) / 10),))


# --- argument checks ------------------------------------------------------------

@pytest.mark.parametrize("lag", [math.nan, math.inf, 0.0, -1.0])
def test_delay_lags_must_be_finite_and_positive(lag):
    with pytest.raises(InvalidArgumentError, match="lags must be finite"):
        SystemDef(1, Linear(np.array([[-1.0]])),
                  delays=(Delay(lag, [[0.5]]),))


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_period_must_be_finite_and_positive(period):
    with pytest.raises(InvalidArgumentError, match="period must be finite"):
        SystemDef(1, Linear((("sin(t)",),)), period=period)


def test_period_is_kept_as_float_and_checked_on_every_rhs():
    sysd = SystemDef(1, Linear(np.array([[-1.0]])), period=2)
    assert sysd.period == 2.0 and isinstance(sysd.period, float)
    with pytest.raises(InvalidArgumentError):
        SystemDef(1, Nonlinear(("-x1",)), period=math.nan)


@pytest.mark.parametrize("t0,t1,h,word", [
    (0.0, math.inf, 1e-3, "t1"), (0.0, math.nan, 1e-3, "t1"),
    (math.nan, 1.0, 1e-3, "t0"), (-math.inf, 1.0, 1e-3, "t0"),
    (0.0, 1.0, math.inf, "step"), (0.0, 1.0, math.nan, "step"),
    (0.0, 1.0, 0.0, "step"), (0.0, 1.0, -1e-3, "step"),
    (1.0, 1.0, 1e-3, "t1 must exceed t0"),
])
def test_nonfinite_time_arguments_rejected_by_every_integrator(t0, t1, h, word):
    linear = SystemDef(1, Linear(np.array([[-1.0]])))
    delayed = SystemDef(1, Linear(np.array([[-1.0]])),
                        delays=(Delay(0.5, [[0.1]]),))
    with pytest.raises(InvalidArgumentError, match=word):
        integrate(scalar_decay(), [1.0], t0, t1, h)
    with pytest.raises(InvalidArgumentError, match=word):
        integrate_matrix(linear, t0, t1, h)
    if t0 == 0.0:  # the delay integrator always starts at t = 0
        with pytest.raises(InvalidArgumentError, match=word):
            integrate_dde(delayed, HistoryFn.constant([1.0], 0.5), t1, h)


def test_overflowing_span_hits_the_sample_cap():
    with pytest.raises(SampleCapError):
        integrate(scalar_decay(), [1.0], -1e308, 1e308, 1.0)
    with pytest.raises(SampleCapError):
        integrate(scalar_decay(), [1.0], 0.0, 1.0, 1e-320)


@pytest.mark.parametrize("rhs", [Nonlinear(("-x1 + 0.1*x1^3",)),
                                 Linear(np.array([[-1.0]]))],
                         ids=["stages", "maps"])
@pytest.mark.parametrize("tau", [0.0, 1e3, 1e6, 1e9])
def test_a_time_shift_keeps_the_grid_of_an_autonomous_field(rhs, tau):
    # 1000 steps and a half step from tau: the remainder is a step of its
    # own at every shift, and the final state moves only with the rounding
    # of t1 - t0
    sysd, t1 = SystemDef(1, rhs), tau + 1.0005
    base = integrate(sysd, [1.0], 0.0, 1.0005, 1e-3)
    got = integrate(sysd, [1.0], tau, t1, 1e-3)
    assert len(got.times) == len(base.times) == 1002
    assert got.times[-1] == t1
    assert abs(got.states[-1, 0] - base.states[-1, 0]) \
        <= 2.0 * abs((t1 - tau) - 1.0005) + 1e-15


def test_a_step_below_the_float_spacing_of_the_times_is_refused():
    # t0 + k*h cannot move by 1e-3 at 1e16, where floats are 2.0 apart
    with pytest.raises(InvalidArgumentError, match="float spacing.*0.001"):
        integrate(scalar_decay(), [1.0], 1e16, 1e16 + 4.0, 1e-3)
    with pytest.raises(InvalidArgumentError, match="float spacing"):
        odeint._grid(1e16, 1e16 + 64.0, 8.0)
    assert odeint._grid(1e16, 1e16 + 64.0, 16.0) == (4, 0.0)


# --- coefficient grids ------------------------------------------------------------

def test_coefficient_grid_folds_constants_exactly():
    got = odeint.coefficient_grid([["exp(-0.4)/3", 0], [1, "2*k0"]], 2,
                                  {"k0": 1.5})
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert got.tolist() == [[math.exp(-0.4) / 3, 0.0], [1.0, 3.0]]
    numeric = odeint.coefficient_grid([[1, 2.5], [0, -1]], 2, {})
    assert numeric.tolist() == [[1.0, 2.5], [0.0, -1.0]]
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(odeint.coefficient_grid(arr, 2, {}), arr)


def test_coefficient_grid_keeps_varying_entries_as_expressions():
    grid = odeint.coefficient_grid([["sin(t)", 0], [0, 1]], 2, {})
    assert not isinstance(grid, np.ndarray)
    assert compile_matrix(grid)(0.5)[0, 0] == math.sin(0.5)
    # t is always time: a parameter cannot take its name
    with pytest.raises(InvalidArgumentError, match="reserved"):
        odeint.coefficient_grid([["t"]], 1, {"t": 2.0})


@pytest.mark.parametrize("entry, reason", [
    ("exp(1000)", "math range error"), ("1/(1-1)", "division by zero"),
    ("log(-k0)", "log of non-positive value -1.0")])
def test_coefficient_grid_names_the_constant_entry_that_fails(entry, reason):
    with pytest.raises(DomainError) as got:
        odeint.coefficient_grid([["exp(-0.4)", 2], [entry, "exp(800)"]], 2,
                                {"k0": 1.0})
    assert str(got.value) == f"coefficient entry {entry!r}: {reason}"


@pytest.mark.parametrize("entry, reason", [
    ("1/0", "division by zero"), ("exp(1000)", "math range error")])
def test_coefficient_grid_names_a_failing_entry_from_one_compile(monkeypatch,
                                                                 entry,
                                                                 reason):
    generated, generate = [], ex._generate
    monkeypatch.setattr(ex, "_generate", lambda exprs, *a: generated.append(
        tuple(exprs)) or generate(exprs, *a))
    with pytest.raises(DomainError) as got:
        odeint.coefficient_grid([["2", entry], ["1", "exp(800)"]], 2, {})
    assert str(got.value) == f"coefficient entry {entry!r}: {reason}"
    assert got.value.node == ex.parse(entry) and len(generated) == 1


@pytest.mark.parametrize("entries", [
    [1.0, 2.0], 3.0, [[1.0, 2.0]], [["t", "0"]], np.zeros((2, 3)),
])
def test_coefficient_grid_rejects_non_square_shapes(entries):
    with pytest.raises(DimensionMismatchError):
        odeint.coefficient_grid(entries, 2, {})


@pytest.mark.parametrize("build", [
    lambda: odeint.coefficient_grid([["0.5*x1"]], 1, {}),
    lambda: odeint.coefficient_grid([["t", "x2"], [0, 1]], 2, {}),
    lambda: SystemDef(1, Linear((("-1 + x1",),))),
    lambda: SystemDef(1, Linear(np.array([[-1.0]])),
                      delays=(Delay(1.0, [["sin(x1)"]]),)),
], ids=["grid", "varying-grid", "time-varying-rhs", "delay"])
def test_coefficient_grids_refuse_state_variables(build):
    # a coefficient is a function of t: its compiled grid reads no state
    with pytest.raises(InvalidArgumentError, match="names a state variable"):
        build()


def test_delay_coefficients_go_through_coefficient_grid():
    sysd = SystemDef(1, Linear(np.array([[-1.0]])),
                     delays=(Delay(0.5, [["exp(-1)"]]),
                             Delay(1.0, [["cos(t)"]])))
    assert sysd.delays[0].coeff.tolist() == [[math.exp(-1)]]
    assert not isinstance(sysd.delays[1].coeff, np.ndarray)


def test_linear_a_goes_through_coefficient_grid():
    want = np.array([[-1.0, math.exp(-0.4) / 3], [0.0, -2.0]])
    for a in (want, want.tolist(), [["-1", "exp(-0.4)/3"], [0, "-2"]],
              (("-1", "exp(-0.4)/3"), ("0", "-2"))):
        sysd = SystemDef(2, Linear(a))
        assert isinstance(sysd.rhs.a, np.ndarray) and sysd.rhs.a.dtype == float
        assert sysd.linear_coefficient is sysd.rhs.a
        assert np.array_equal(sysd.linear_coefficient, want)
    varying = SystemDef(2, Linear([["-1", "sin(t)"], [0, "-2"]]))
    assert not isinstance(varying.rhs.a, np.ndarray)
    assert varying.linear_coefficient(0.5)[0, 1] == math.sin(0.5)


@pytest.mark.parametrize("a", [
    np.array([[-1, 0], [2, -3]]),
    np.array([[-1, 0], [2, -3]], dtype=np.int32),
    [[np.int64(-1), np.int64(0)], [np.int64(2), np.int64(-3)]],
    [[np.float32(-1), 0], [np.int8(2), np.float64(-3)]],
], ids=["int-array", "int32-array", "int64-entries", "mixed-numpy-scalars"])
def test_linear_a_accepts_int_arrays_and_numpy_scalars(a):
    got = SystemDef(2, Linear(a)).rhs.a
    assert got.dtype == float
    assert got.tolist() == [[-1.0, 0.0], [2.0, -3.0]]


@pytest.mark.parametrize("a", [
    [["x1", 0], [0, -1]],
    [["-1", "sin(t)*x2"], [0, -1]],
    np.array([["-1", "x2"], ["0", "-1"]], dtype=object),
], ids=["constant-looking", "varying", "object-array"])
def test_linear_a_naming_a_state_variable_is_refused(a):
    with pytest.raises(InvalidArgumentError, match="names a state variable"):
        SystemDef(2, Linear(a))


# --- escape check -------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e13, -1e13])
@pytest.mark.parametrize("where", [0, -1])
def test_check_state_rejects_nonfinite_and_escaped(bad, where):
    rows = np.full((3, 4), 0.5)
    rows[1, where] = bad
    rows[2, where] = bad
    with pytest.raises(NonFiniteStateError) as err:
        odeint._check_rows(rows, lambda j: 2.5 + j)
    assert err.value.t == 3.5


def test_check_state_accepts_threshold():
    odeint._check_rows(np.array([[odeint.ESCAPE_THRESHOLD, -1.0, 0.0]]),
                       lambda j: 0.0)


# --- history lookups ------------------------------------------------------------

def test_history_time_array_matches_scalar_calls():
    times = np.linspace(-2.0, 0.0, 9)
    hist = HistoryFn(times, np.column_stack([np.sin(times), times ** 2]))
    ts = np.linspace(-2.0, 0.0, 101)
    batch = hist(ts)
    assert batch.shape == (101, 2)
    assert np.array_equal(batch, np.stack([hist(float(t)) for t in ts]))
    assert hist(-1.0).shape == (2,)


def test_history_time_array_gap():
    hist = HistoryFn.constant([1.0, 2.0], 1.0)
    with pytest.raises(HistoryGapError, match="t=-1.5"):
        hist(np.array([-0.5, -1.5, 0.5]))
    with pytest.raises(HistoryGapError, match="t=0.25"):
        hist(0.25)


# --- batched coefficient grids ---------------------------------------------------

def _time_varying_gallery_grids():
    for path in sorted(GALLERY.glob("*.json")):
        doc = load_system(path).document
        params = doc.get("params", {})
        if doc["kind"] == "periodic":
            grids = [doc["coefficients"]]
        elif doc["kind"] == "delay":
            grids = [doc["a"]] + [d["coefficients"] for d in doc["delays"]]
        else:
            continue
        for i, grid in enumerate(grids):
            folded = odeint.coefficient_grid(grid, len(grid), params)
            if not isinstance(folded, np.ndarray):
                yield f"{path.stem}[{i}]", grid, params


def test_gallery_has_time_varying_grids():
    names = {label.split("[")[0] for label, _, _ in _time_varying_gallery_grids()}
    assert {"periodic_rotation", "delay_rotating",
            "delay_gain_scheduled"} <= names


@pytest.mark.parametrize("label,grid,params", list(_time_varying_gallery_grids()))
def test_compile_matrix_batch_matches_scalar(label, grid, params):
    at = compile_matrix(grid, params)
    times = np.linspace(0.0, 12.0, 1001)
    batch = at(times)
    stacked = np.stack([at(float(t)) for t in times])
    assert batch.shape == stacked.shape == (len(times),) + stacked.shape[1:]
    np.testing.assert_array_max_ulp(batch, stacked, maxulp=4)


def _first_scalar_failure(at, times):
    """Index of the first time at which the scalar grid raises."""
    for k, t in enumerate(times):
        try:
            at(float(t))
        except DomainError:
            return k
    return None


@pytest.mark.parametrize("entry,times", [
    ("log(t - 1)", np.linspace(3.0, -1.0, 41)),
    ("log(t - 1)", np.linspace(-1.0, 3.0, 41)),
    ("sqrt(0.5 - t)", np.linspace(0.0, 1.0, 41)),
    ("sqrt(0.5 - t)", np.linspace(1.0, 0.0, 41)),
    ("1/exp(800*t)", np.linspace(0.0, 2.0, 41)),
    ("1/exp(800*t)", np.linspace(-2.0, 0.0, 41)),
])
def test_compile_matrix_batch_domain_error_parity(entry, times):
    at = compile_matrix([[entry, "t"], ["1", "cos(t)"]])
    k = _first_scalar_failure(at, times)
    assert k is not None
    with pytest.raises(DomainError) as err:
        at(times)
    assert err.value.row == k
    assert str(err.value).endswith(f" at t={float(times[k])!r}")


def test_compile_matrix_batch_ignores_underflow():
    at = compile_matrix([["exp(-800*t)"]])
    times = np.array([0.0, 1.0, 2.0])
    assert np.array_equal(at(times)[:, 0, 0],
                          [at(float(t))[0, 0] for t in times])


# --- step-map integrators against the stage-by-stage RK4 loop --------------------

A_TEST = np.array([[-1.0, 0.5], [-0.3, -2.0]])
LAGS = (Delay(0.5, [[0.3, 0.0], [0.1, 0.2]]),
        Delay(1.25, [[-0.2, 0.05], [0.0, 0.1]]))


def test_dde_step_maps_match_stage_loop():
    history = HistoryFn.constant([1.0, -0.5], 1.25)
    linear = SystemDef(2, Linear(A_TEST), delays=LAGS)
    t1 = 3.0005  # over two chunks of steps, plus a trailing partial step
    want = dde_stage_loop(linear, history, t1, 1e-3)
    got = integrate_dde(linear, history, t1, 1e-3)
    assert len(got.times) > 2 * odeint.CHUNK
    # atol covers components passing through zero; the states are O(1)
    np.testing.assert_allclose(got.states, want, rtol=1e-12, atol=1e-14)


def test_time_varying_dde_step_maps_match_stage_loop():
    lags = (Delay(0.5, [["0.3*sin(t)", "0"], ["0.1", "0.2*cos(2*t)"]]),)
    history = HistoryFn.constant([1.0, -0.5], 0.5)
    linear = SystemDef(2, Linear((("-1", "sin(t)"),
                                  ("-0.3", "-2"))), delays=lags)
    want = dde_stage_loop(linear, history, 2.5, 1e-3)
    got = integrate_dde(linear, history, 2.5, 1e-3)
    np.testing.assert_allclose(got.states, want, rtol=1e-12, atol=1e-14)


def test_matrix_step_maps_match_stage_loop():
    sysd = SystemDef(2, Linear((("-1 + sin(t)", "0.5"),
                                ("-0.3", "-2*cos(t)"))))
    want = _stage_loop_matrix(sysd, 0.25, 2.7505, 1e-3)
    got = integrate_matrix(sysd, 0.25, 2.7505, 1e-3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    const = SystemDef(2, Linear(A_TEST))
    np.testing.assert_allclose(integrate_matrix(const, 0.0, 2.5, 1e-3),
                               _stage_loop_matrix(const, 0.0, 2.5, 1e-3),
                               rtol=1e-12, atol=1e-14)


def test_periodic_rotation_monodromy_matches_stage_loop_values():
    # the stage-by-stage loop's monodromy at h = 1e-4, to full precision
    want = np.array([
        [0.00511876895717718, -0.0014788356883865253, -0.01064069620070947],
        [0.010640696200709624, 0.006597604645563659, -0.001478835688386332],
        [0.01211953188909609, 0.01064069620070968, 0.0051187689571772724]])
    sysd = gallery_system("periodic_rotation")
    got = integrate_matrix(sysd, 0.0, sysd.period, 1e-4)
    assert np.abs(got - want).max() <= 1e-14


def test_step_maps_fall_back_to_stage_loop_on_domain_error():
    sysd = SystemDef(1, Linear((("log(2 - t)",),)))
    with pytest.raises(DomainError) as want:
        _stage_loop_matrix(sysd, 0.0, 3.0, 0.1)
    with pytest.raises(DomainError) as got:
        integrate_matrix(sysd, 0.0, 3.0, 0.1)
    assert str(got.value) == str(want.value)


def test_step_maps_escape_before_a_later_domain_error():
    # x = exp(exp(t) - 1) escapes near t = 3.3, long before exp(t) overflows
    sysd = SystemDef(1, Linear((("exp(t)",),)))
    with pytest.raises(NonFiniteStateError) as want:
        _stage_loop_matrix(sysd, 0.0, 800.0, 0.01)
    with pytest.raises(NonFiniteStateError) as got:
        integrate_matrix(sysd, 0.0, 800.0, 0.01)
    assert got.value.t == want.value.t


def test_step_maps_fall_back_to_stage_loop_when_a_map_overflows():
    # h^4 A^4 / 24 overflows the map, yet a zero state stays zero
    sysd = SystemDef(1, Linear(np.array([[-1e200]])),
                     delays=(Delay(0.5, [[1.0]]),))
    traj = integrate_dde(sysd, HistoryFn.constant([0.0], 0.5), 1.0, 1e-3)
    assert not traj.states.any()


@pytest.mark.parametrize("a, value", [
    ("-1", -2e-4),  # the delay coefficient, at the midpoint of step 2000
    ("log(2.0004 - t)", -1e-4),  # A first, at the same stage
], ids=["delay", "a-before-delay"])
def test_a_failing_delay_coefficient_raises_at_its_stage(a, value):
    # log(2.0003 - t) fails at t = 2.0005, in the second chunk of 1024 steps
    sysd = SystemDef(1, Linear([[a]]),
                     delays=(Delay(0.5, [["log(2.0003 - t)"]]),))
    history = HistoryFn.constant([1.0], 0.5)
    with pytest.raises(DomainError) as want:
        dde_stage_loop(sysd, history, 3.0, 1e-3)
    with pytest.raises(DomainError) as got:
        integrate_dde(sysd, history, 3.0, 1e-3)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("log of non-positive value")
    assert float(str(got.value).split()[-1]) == pytest.approx(value, abs=1e-12)


def test_delay_rotating_escape_time_unchanged():
    ds = gallery_system("delay_rotating")
    with pytest.raises(NonFiniteStateError) as err:
        integrate_dde(ds, HistoryFn.constant(np.ones(2), 1.0),
                      10.0, dde_step([0.5, 1.0]))
    assert str(err.value) == "state escaped to non-finite values at t=8.146"


# --- the blocked linear march: block and restart edges ---------------------------

@pytest.mark.parametrize("rate", [1000.0, 5000.0])
def test_saddle_on_its_stable_manifold_does_not_escape(rate):
    # x1 = 0 exactly at every step; at rate 5000 one step multiplies x1 by
    # about 65, so a composed map of 256 steps overflows and its inf * 0
    # must not read as an escape (at rate 1000 the maps stay finite)
    growth = sum((rate * 1e-3) ** j / math.factorial(j) for j in range(5))
    overflows = 256 * math.log(growth) > math.log(np.finfo(float).max)
    assert overflows == (rate == 5000.0)
    sysd = SystemDef(2, Linear(np.diag([rate, -1.0])))
    got = integrate(sysd, [0.0, 1.0], 0.0, 2.0, 1e-3)
    want = stage_loop(sysd, [0.0, 1.0], 0.0, 2.0, 1e-3)
    assert not got.states[:, 0].any()
    np.testing.assert_allclose(got.states, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("lags, t1", [
    ((1e-3, 0.25), 1.2), ((0.1,), 2.5005)],
    ids=["one-step-lag", "short-lag-partial-step"])
def test_dde_blocks_shorter_than_a_chunk_match_stage_loop(lags, t1):
    # a block holds at most the shortest lag: one step, or 100 of a chunk's
    # 1024 steps, then a trailing partial step of one more map
    delays = tuple(Delay(lag, [[0.3, -0.2], [0.1, 0.25]]) for lag in lags)
    history = HistoryFn.constant([1.0, -0.5], max(lags))
    linear = SystemDef(2, Linear(A_TEST), delays=delays)
    want = dde_stage_loop(linear, history, t1, 1e-3)
    got = integrate_dde(linear, history, t1, 1e-3)
    np.testing.assert_allclose(got.states, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("lag, h", [(1e-10, 1e-3), (5e-10, 1e-9)])
def test_a_lag_rounding_to_zero_steps_is_refused(lag, h):
    # 5e-10 / 1e-9 rounds half to even, to 0 steps, and still divides to
    # within 1e-9; a lag of 0 steps would read the state being written
    sysd = SystemDef(1, Linear(np.array([[-1.0]])),
                     delays=(Delay(lag, [[1.0]]),))
    with pytest.raises(InvalidArgumentError, match="does not divide"):
        integrate_dde(sysd, HistoryFn.constant([1.0], lag), 10 * h, h)


@pytest.mark.parametrize("sysd", [
    SystemDef(2, Linear((("26 + 0.1*sin(t)", "1"), ("0", "-1")))),
    SystemDef(5, Linear(np.diag([26.0, -1, -1, -1, -1])
                        + 0.1 * np.eye(5, k=1)))],
    ids=["scanned", "one-product-a-step"])
def test_integrate_matrix_escape_mid_block_matches_stage_loop(sysd):
    # X = exp(26 t) passes the threshold near step 1063, inside the second
    # block of 1024 steps
    with pytest.raises(NonFiniteStateError) as want:
        _stage_loop_matrix(sysd, 0.0, 2.5, 1e-3)
    with pytest.raises(NonFiniteStateError) as got:
        integrate_matrix(sysd, 0.0, 2.5, 1e-3)
    assert got.value.t == want.value.t
    assert odeint.CHUNK < round(got.value.t / 1e-3) < 2 * odeint.CHUNK


A_WIDE = np.diag([-1.0, -0.5, -2.0, -0.8, -1.5, -0.3, -1.2, -0.9]) + 0.1 * (
    np.eye(8, k=1) - np.eye(8, k=-3))


def test_wide_states_step_one_product_at_a_time():
    # n + 1 and 2n past SCAN_WIDTH: vector, fundamental-matrix and delayed
    # states step on one product a step, and still agree with the stage loop
    assert min(8 + 1, 2 * 5) > odeint.SCAN_WIDTH
    varying = SystemDef(8, Linear(
        [[f"{v!r} + 0.2*sin(t)" if i == j else repr(v) for j, v in enumerate(row)]
         for i, row in enumerate(A_WIDE.tolist())]))
    x0 = np.linspace(1.0, -1.0, 8)
    np.testing.assert_allclose(integrate(varying, x0, 0.0, 2.5005, 1e-3).states,
                               stage_loop(varying, x0, 0.0, 2.5005, 1e-3),
                               rtol=1e-12, atol=1e-14)
    five = SystemDef(5, Linear(A_WIDE[:5, :5]))
    np.testing.assert_allclose(integrate_matrix(five, 0.0, 2.5, 1e-3),
                               _stage_loop_matrix(five, 0.0, 2.5, 1e-3),
                               rtol=1e-12, atol=1e-14)
    delays = (Delay(0.1, 0.2 * np.eye(8, k=2)), Delay(0.35, -0.1 * np.eye(8)))
    history = HistoryFn.constant(x0, 0.35)
    wide = SystemDef(8, Linear(A_WIDE), delays=delays)
    got = integrate_dde(wide, history, 1.5005, 1e-3)
    np.testing.assert_allclose(got.states,
                               dde_stage_loop(wide, history, 1.5005, 1e-3),
                               rtol=1e-12, atol=1e-14)


# --- the march against the stage-by-stage oracle --------------------------------

def _checked_march(sysd, x0, t0: float, t1: float, h: float,
                   states: list | None = None) -> np.ndarray:
    """The states of ``integrate`` taken by the kernel's checked step alone
    (``_step``: the stages on the scalar evaluator, every tree checked,
    every power by ``_pow``), one call and one escape check a step, each
    appended to ``states`` as it is taken."""
    step = sysd.rk4_kernel.__globals__["_step"]
    n_full, rem = odeint._grid(t0, t1, h)
    states = [] if states is None else states
    states.append([float(v) for v in x0])
    for k in range(n_full + (rem > 0.0)):
        x = list(step(states[-1], t0, h, k, h if k < n_full else rem))
        odeint._check_rows(np.array([x]), lambda j: t1 if k == n_full
                           else t0 + (k + 1) * h)
        states.append(x)
    return np.array(states)


def _result(run):
    """The bits of the states ``run()`` returns, or the type, message, node
    and time of the failure it raises."""
    try:
        return run().tobytes()
    except (NonFiniteStateError, DomainError) as exc:
        return (type(exc), str(exc), getattr(exc, "node", None),
                getattr(exc, "t", None))


NONLINEAR_GALLERY = sorted(path.stem for path in GALLERY.glob("*.json")
                           if load_system(path).kind == "nonlinear")


@pytest.mark.parametrize("name", NONLINEAR_GALLERY)
def test_nonlinear_gallery_integrate_matches_stage_loop(name):
    sysd = gallery_system(name)
    x0 = np.full(sysd.dimension, 0.5)
    t1 = 2.1005  # 2100 steps, over two chunks, then a partial step
    want = _result(lambda: stage_loop(sysd, x0, 0.0, t1, 1e-3))
    assert _result(lambda: integrate(sysd, x0, 0.0, t1, 1e-3).states) \
        == _result(lambda: _checked_march(sysd, x0, 0.0, t1, 1e-3)) == want
    assert isinstance(want, tuple) or len(want) == 2102 * 8 * sysd.dimension


def test_nonlinear_gallery_is_covered():
    assert len(NONLINEAR_GALLERY) >= 15


@pytest.mark.parametrize("name", NONLINEAR_GALLERY)
def test_nonlinear_gallery_integrate_matches_an_adaptive_solver(name):
    # An oracle that shares no code with the march: scipy's DOP853 at
    # tolerances near rounding, on the tree-walking field.  RK4's global
    # error is about C h^4 t, 1e-12 C at h = 1e-3 over t ~ 2; the gallery's
    # fields keep C below 10 here, so 1e-10 of the trajectory's scale bounds
    # it with room.  (Pointwise relative error would fail near zero
    # crossings.)
    from scipy.integrate import solve_ivp

    sysd = gallery_system(name)
    x0 = np.full(sysd.dimension, 0.5)
    traj = integrate(sysd, x0, 0.0, 2.1005, 1e-3)
    want = solve_ivp(lambda t, x: rhs(sysd, x, t), (0.0, 2.1005), x0,
                     method="DOP853", rtol=1e-13, atol=1e-14,
                     t_eval=traj.times).y.T
    assert np.abs(traj.states - want).max() <= 1e-10 * np.abs(want).max()


def _chain(n: int) -> SystemDef:
    """A generated nonlinear ring of ``n`` components, each reading ``t``."""
    comps = [f"-x{i + 1} + 0.3*sin(x{(i + 1) % n + 1})*cos({i + 1}*t)"
             f" + 0.1*x{(i - 1) % n + 1}*x{i + 1}" for i in range(n)]
    return SystemDef(n, Nonlinear(tuple(comps)))


@pytest.mark.parametrize("n", [1, 5, 12])
def test_rk4_kernel_matches_stage_loop_on_generated_systems(n):
    sysd = _chain(n)
    x0 = np.linspace(-0.8, 0.9, n)
    t1 = 2.1005  # two chunks of steps, then a partial step
    got = integrate(sysd, x0, 0.25, t1, 1e-3).states
    assert np.array_equal(got, stage_loop(sysd, x0, 0.25, t1, 1e-3))


@pytest.mark.parametrize("comps, t1, node", [
    (("log(2.1003 - t)*x1",), 2.1005, None),  # the partial step's 4th stage
    (("1e300*exp(t)*exp(t)*0*x1", "-x2"), 12.0, 0),  # inf*0 at t ~ 9.52
], ids=["partial-step", "non-finite"])
def test_rk4_kernel_domain_errors_match_stage_loop(comps, t1, node):
    sysd = SystemDef(len(comps), Nonlinear(comps))
    x0 = np.ones(sysd.dimension)
    with pytest.raises(DomainError) as want:
        stage_loop(sysd, x0, 0.0, t1, 1e-3)
    with pytest.raises(DomainError) as got:
        integrate(sysd, x0, 0.0, t1, 1e-3)
    assert str(got.value) == str(want.value)
    assert got.value.node == want.value.node
    if node is None:  # raised by log itself
        assert str(got.value).startswith("log of non-positive value -0.0001")
    else:  # a finite-looking field whose value is not finite
        assert str(got.value) == "non-finite evaluation result"
        assert got.value.node == sysd.field_trees[node]


def test_integrate_leaves_the_scalar_field_uncompiled():
    sysd = _chain(3)
    integrate(sysd, [0.1, 0.2, 0.3], 0.0, 1.0005, 1e-3)  # a partial step too
    assert "rk4_kernel" in vars(sysd) and "scalar_field" not in vars(sysd)


def test_rk4_kernel_compiles_once_per_system(monkeypatch):
    sources = []
    compiled = ex._compiled
    monkeypatch.setattr(ex, "_compiled",
                        lambda src: sources.append(src) or compiled(src))
    sysd = _chain(3)
    kernel = sysd.rk4_kernel
    for t1 in (0.5, 3.0, 0.7005):
        integrate(sysd, [0.1, 0.2, 0.3], 0.0, t1, 1e-3)
    assert sysd.rk4_kernel is kernel
    assert len([src for src in sources if "rows" in src]) == 1


_Z = 26.0 * 1e-3  # x' = 26 x at h = 1e-3: one RK4 step multiplies x by
_GROWTH = 1.0 + _Z + _Z ** 2 / 2.0 + _Z ** 3 / 6.0 + _Z ** 4 / 24.0


@pytest.mark.parametrize("j", [1, odeint.CHUNK + 1, 3 * odeint.CHUNK // 2,
                               2 * odeint.CHUNK],
                         ids=["first", "first-of-second", "middle", "last"])
@pytest.mark.parametrize("rhs", [Linear(np.array([[26.0]])),
                                 Nonlinear(("26*x1",))],
                         ids=["maps", "stages"])
def test_escape_at_any_row_of_a_chunk(j, rhs):
    # x_j = x0 g^j is the first state beyond the threshold, by a factor
    # sqrt(g) on either side
    x0 = odeint.ESCAPE_THRESHOLD * _GROWTH ** (0.5 - j)
    with pytest.raises(NonFiniteStateError) as err:
        integrate(SystemDef(1, rhs), [x0], 0.0, 2.5, 1e-3)
    assert err.value.t == j * 1e-3


def test_stage_loop_escape_wins_over_a_later_domain_error():
    # the march runs on past the escape until x^2 overflows, then reports
    # the escape; log(3 - t) would fail at t = 3
    sysd = SystemDef(1, Nonlinear(("x1^2 + 0*log(3 - t)",)))
    with pytest.raises(NonFiniteStateError) as want:
        stage_loop(sysd, [1.0], 0.0, 5.0, 1e-3)
    with pytest.raises(NonFiniteStateError) as got:
        integrate(sysd, [1.0], 0.0, 5.0, 1e-3)
    assert got.value.t == want.value.t == 1.0010000000000001


@pytest.mark.parametrize("rhs", [Nonlinear(("log(2 - t)*x1",)),
                                 Linear((("log(2 - t)",),))],
                         ids=["stages", "maps"])
def test_domain_error_message_matches_stage_loop(rhs):
    sysd = SystemDef(1, rhs)
    with pytest.raises(DomainError) as want:
        stage_loop(sysd, [1.0], 0.0, 3.0, 1e-3)
    with pytest.raises(DomainError) as got:
        integrate(sysd, [1.0], 0.0, 3.0, 1e-3)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("log of non-positive value")


# --- the fast RK4 loop against its checked step -----------------------------------

def _x1_read(x: float, h: float, k: int, stage: int) -> float:
    """The x1 that stage ``stage`` (0-3) of step ``k`` reads under x1' = x1
    from x1 = ``x``, rounded as the kernel rounds: a literal equal to it
    plants a failure there and nowhere else."""
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(k + 1):
        p = x
        q = x + half * p
        r = x + half * q
        s = x + h * r
        x = x + sixth * (p + 2.0 * q + 2.0 * r + s)
    return (p, q, r, s)[stage]


#: terms of x2' that the planted failures ride on
_TERMS = ("x1^2", "0.1*x2^3", "0.5*sin(t)*x2", "pow(x1, 2)", "exp(-x2^2)",
          "x1*x2", "sqrt(1 + x1^2)", "1/(2 + cos(x2))", "-x2", "abs(x2)^2.5")
#: each failure of x2' where x1 = c, and the message the checked step gives
_PLANTED = {
    "log": ("log(abs(x1 - {c}))", "log of non-positive value 0.0"),
    "div": ("1e-3/(x1 - {c})", "division by zero"),
    "sin": ("sin(1e300*(1e300*pow(0, abs(x1 - {c}))))", "math domain error"),
    "inf": ("1e300*(1e300*pow(0, abs(x1 - {c})))",
            "non-finite evaluation result"),
    "pow": ("(1e300*(1e300*pow(0, abs(x1 - {c}))))^2",
            "power of non-finite operands inf, 2.0"),
    "pow0": ("pow(1e300*(1e300*pow(0, abs(x1 - {c}))), 0)",
             "power of non-finite operands inf, 0.0"),
    "range": ("(1e160*pow(0, abs(x1 - {c})))^3", "math range error"),
}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(_PLANTED)), stage=st.integers(0, 3),
       k=st.integers(0, 40), x1=st.floats(0.25, 2.0),
       x2=st.floats(-1.0, 1.0),
       terms=st.lists(st.sampled_from(_TERMS), max_size=3, unique=True),
       third=st.booleans())
def test_fast_kernel_fails_where_its_checked_step_does(kind, stage, k, x1, x2,
                                                       terms, third):
    """A failure planted at one stage of step ``k``: the fast loop raises
    there or later, or ends the step non-finite, and the checked step
    raises the parent's error, as the stage-by-stage oracle does."""
    h = 1.0 / 64.0
    term, message = _PLANTED[kind]
    c = _x1_read(x1, h, k, stage)
    comps = ["x1", " + ".join([*terms, term.format(c=repr(c))])]
    if third:
        comps.append("-x3 + 0.1*x2")
    sysd = SystemDef(len(comps), Nonlinear(tuple(comps)))
    x0 = [x1, x2, 0.5][:len(comps)]
    t1 = (k + 3) * h
    states: list = []
    checked = _result(lambda: _checked_march(sysd, x0, 0.0, t1, h, states))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _result(lambda: stage_loop(sysd, x0, 0.0, t1, h))
    assert _result(lambda: integrate(sysd, x0, 0.0, t1, h).states) \
        == checked == want
    assert checked == (DomainError, message, sysd.field_trees[1], None)
    assert len(states) == k + 1  # the failure is where it was planted


@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("terms", ["", "x1^2 + 0.5*sin(t)*x1 + "])
def test_a_final_sum_overflowing_from_finite_stages_is_an_escape(stage, terms):
    """Twice a finite stage value of 1e308 overflows in the new state: the
    fast step and the checked one end non-finite alike, and the march
    reports the escape, not a domain error."""
    h, k = 1.0 / 64.0, 5
    c = _x1_read(1.0, h, k, stage)
    sysd = SystemDef(3, Nonlinear((
        "x1", f"{terms}1e308*pow(0, abs(x1 - {c!r}))", "-x3 + 0.1*x2")))
    x0, t1 = [1.0, 0.0, 0.5], (k + 3) * h
    checked = _result(lambda: _checked_march(sysd, x0, 0.0, t1, h))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _result(lambda: stage_loop(sysd, x0, 0.0, t1, h))
    assert _result(lambda: integrate(sysd, x0, 0.0, t1, h).states) \
        == checked == want
    assert checked == (NonFiniteStateError, str(NonFiniteStateError(6 * h)),
                       None, 6 * h)


def test_rk4_kernel_writes_whole_literal_powers_inline(monkeypatch):
    """``a ^ k`` and ``pow(a, k)`` to a literal integer k >= 2 are
    ``(a ** k)`` in the fast loop, a negative literal base in parentheses
    (``-2.0 ** 2.0`` is -4.0); every other power, and every power of the
    scalar evaluator that retakes a failing step, calls ``_pow``.  The
    states are the stage loop's."""
    sources = []
    compiled = ex._compiled
    monkeypatch.setattr(ex, "_compiled",
                        lambda src: sources.append(src) or compiled(src))
    sysd = SystemDef(2, Nonlinear(("c^2*x2 - pow(c, 3)*x1^3",
                                   "-x1*abs(x2)^1.5 + x2^-2 - 0.1*pow(x2, 2)"
                                   " + sin(x2)^1e300")), params={"c": -0.75})
    x0 = [0.5, 1.25]
    got = integrate(sysd, x0, 0.0, 1.0005, 1e-3).states
    assert got.tobytes() == stage_loop(sysd, x0, 0.0, 1.0005, 1e-3).tobytes()
    fast, = (src for src in sources if "rows" in src)
    assert fast.count(" ** ") == 4 * 5 and "((-0.75) ** 2.0)" in fast
    assert "((-0.75) ** 3.0)" in fast and "(_sin(y1) ** 1e+300)" in fast
    assert fast.count("_pow(") == 4 * 2 and "_pow(y1, (-2.0))" in fast
    sources.clear()
    ex.compile_vector(sysd.field_trees)  # the retake's evaluator
    checked, = sources
    assert " ** " not in checked and checked.count("_pow(") == 7


@pytest.mark.parametrize("name", NONLINEAR_GALLERY)
def test_rk4_source_defines_one_function_and_no_checked_code(name,
                                                             monkeypatch):
    sources = []
    compiled = ex._compiled
    monkeypatch.setattr(ex, "_compiled",
                        lambda src: sources.append(src) or compiled(src))
    gallery_system(name).rk4_kernel
    src, = sources
    assert [node.name for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.FunctionDef)] == ["f"]
    assert "_fail" not in src


def test_the_checked_step_never_runs_on_the_benchmark_simulations(
        monkeypatch, tmp_path):
    """The ``simulate`` ops of ``propagate`` seeds 1-3 take every step
    on the fast loop and compile no retake; the spy sees the one step of a
    failing field, which compiles its scalar evaluator once, and a second
    failing run of the same system compiles nothing new."""
    calls, made = [], []
    generate = ex._generate

    def spied(exprs, form="scalar"):
        f = generate(exprs, form)
        made.append((tuple(exprs), form))
        if form == "rk4":
            step = f.__globals__["_step"]
            f.__globals__["_step"] = lambda *a: calls.append(a) or step(*a)
        return f

    def retakes() -> int:  # scalar evaluators of the trees of a kernel
        kernels = {exprs for exprs, form in made if form == "rk4"}
        return len([1 for exprs, form in made
                    if form == "scalar" and exprs in kernels])

    monkeypatch.setattr(ex, "_generate", spied)
    ran = 0
    for seed in (1, 2, 3):
        files, ops = perfbench_generate().generate("propagate", seed)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        for op in (op for op in ops if op["argv"][0] == "simulate"):
            argv = [a.replace("{work}", str(tmp_path)) for a in op["argv"]]
            assert cli.run([*argv, "--out", str(tmp_path / "r.json")]) == 0
            ran += 1
    assert ran == 60 and calls == [] and retakes() == 0
    failing = SystemDef(1, Nonlinear(("log(1 - t)*x1",)))
    for runs in (1, 2):
        with pytest.raises(DomainError):
            integrate(failing, [1.0], 0.0, 2.0, 1e-3)
        assert len(calls) == runs and retakes() == 1


def test_integrate_matrix_keeps_one_chunk_of_states():
    import tracemalloc

    n, h, steps = 3, 1e-3, 50 * odeint.CHUNK
    sysd = SystemDef(n, Linear((("-1", "sin(t)", "0"),
                                ("0", "-1", "cos(t)"),
                                ("0.1", "0", "-2"))))
    integrate_matrix(sysd, 0.0, 0.1, h)  # first-call allocations
    tracemalloc.start()
    try:
        integrate_matrix(sysd, 0.0, steps * h, h)
        floats = tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()
    assert floats < 16 * odeint.CHUNK * n * n  # one matrix per step: 50x


# --- metamorphic ------------------------------------------------------------------

@pytest.mark.parametrize("rhs", [
    Linear(A_TEST),
    Linear((("-1", "0.5*sin(t)"), ("-0.3", "-2"))),
])
def test_dde_with_zero_delay_coefficients_matches_ode(rhs):
    sysd = SystemDef(2, rhs, delays=(Delay(0.5, [[0.0, 0.0], [0.0, 0.0]]),))
    x0 = [1.0, -0.5]
    traj = integrate_dde(sysd, HistoryFn.constant(x0, 0.5), 2.0, 1e-3)
    plain = integrate(SystemDef(2, rhs), x0, 0.0, 2.0, 1e-3)
    assert np.array_equal(traj.times, plain.times)
    np.testing.assert_allclose(traj.states, plain.states, rtol=1e-12,
                               atol=1e-14)


# --- parameter names ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["t", "x1", "x2", "x10"])
@pytest.mark.parametrize("build", [
    lambda p: SystemDef(1, Nonlinear(("-x1",)), params=p),
    lambda p: SystemDef(1, Linear((("-1",),)), params=p),
    lambda p: dc.DiscreteSystem(1, ("0.5*x1",), params=p),
    lambda p: ly.CandidateV("x1^2", params=p),
    lambda p: ly.QuadraticFormTV((("1",),), params=p),
], ids=["nonlinear", "time-varying", "discrete", "candidate", "form"])
def test_time_and_state_cannot_name_a_parameter(build, name):
    with pytest.raises(InvalidArgumentError, match="reserved"):
        build({name: 2.0})


def test_k_and_other_names_stay_parameters():
    sysd = SystemDef(1, Nonlinear(("-k*x1",)), params={"k": 2.0, "x0": 1.0})
    assert sysd.is_autonomous()
    assert sysd.rhs_callable()(np.array([1.0]), 5.0).tolist() == [-2.0]
    assert ly.CandidateV("t*x1^2").time_dependent
    assert ly.CandidateV("t*x1^2").values(np.array([[1.0]]), 5.0) == 5.0
    assert ly.QuadraticFormTV((("t",),)).time_dependent


def test_an_undeclared_k_is_time_everywhere():
    """Without a parameter ``k``, the generated code reads ``k`` as time,
    so every time-dependence test must too."""
    sysd = SystemDef(1, Nonlinear(("-k*x1",)))
    assert not sysd.is_autonomous()
    assert sysd.rhs_callable()(np.array([1.0]), 5.0).tolist() == [-5.0]
    assert not SystemDef(1, Linear((("-k",),))).is_autonomous()
    assert not isinstance(odeint.coefficient_grid([["-k"]], 1, {}),
                          np.ndarray)
    assert ly.CandidateV("k*x1^2").time_dependent
    assert not ly.CandidateV("k*x1^2", params={"k": 2.0}).time_dependent
    assert ly.QuadraticFormTV((("k",),)).time_dependent
