import io
import math

import numpy as np
import pytest

from stabkit import discrete as dc
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
    LinearConstant,
    LinearTimeVarying,
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
from scalar_oracle import _stage_loop_matrix, stage_loop


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
    sysd = SystemDef(2, LinearConstant(np.diag([-1.0, -1.0])))
    x = integrate_matrix(sysd, 0.0, 1.0, 1e-3)
    assert np.allclose(x, math.exp(-1.0) * np.eye(2), atol=1e-9)


def test_integrate_matrix_zero_coefficients():
    sysd = SystemDef(2, LinearTimeVarying((("0", "0"), ("0", "0"))))
    assert np.allclose(integrate_matrix(sysd, 0.0, 3.0, 1e-2), np.eye(2))


def test_dde_single_interval_closed_form():
    # x'(t) = -x(t-1), constant unit history: x(t) = 1 - t on [0, 1]
    sysd = SystemDef(1, Nonlinear(("0",)), delays=(Delay(1.0, [[-1.0]]),))
    traj = integrate_dde(sysd, HistoryFn.constant([1.0], 1.0), 1.0, 1e-3)
    idx = np.argmin(np.abs(traj.times - 0.5))
    assert abs(traj.states[idx][0] - 0.5) < 1e-6
    assert np.allclose(traj.states[:, 0], 1.0 - traj.times, atol=1e-9)


def test_dde_zero_coefficients_reduce_to_ode():
    sysd = SystemDef(1, Nonlinear(("-x1",)), delays=(Delay(0.5, [[0.0]]),))
    traj = integrate_dde(sysd, HistoryFn.constant([1.0], 0.5), 2.0, 1e-3)
    plain = integrate(scalar_decay(), [1.0], 0.0, 2.0, 1e-3)
    assert np.allclose(traj.states[:, 0], plain.states[:, 0], atol=1e-12)


def test_dde_step_must_divide_lags():
    sysd = SystemDef(1, Nonlinear(("0",)), delays=(Delay(1.0, [[-1.0]]),))
    with pytest.raises(ValueError):
        integrate_dde(sysd, HistoryFn.constant([1.0], 1.0), 1.0, 0.3)


def test_dde_history_must_cover_lags():
    sysd = SystemDef(1, Nonlinear(("0",)), delays=(Delay(1.0, [[-1.0]]),))
    with pytest.raises(HistoryGapError):
        integrate_dde(sysd, HistoryFn.constant([1.0], 0.25), 1.0, 1e-3)


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


def _csv_reference(index_name, labels, states) -> str:
    """The row format both CSV writers have always produced."""
    names = ",".join(f"x{i + 1}" for i in range(states.shape[1]))
    rows = [f"{index_name},{names}\n"]
    rows += [f"{label},{','.join(repr(float(v)) for v in row)}\n"
             for label, row in zip(labels, states)]
    return "".join(rows)


def test_csv_writers_keep_their_bytes(tmp_path):
    traj = integrate(gallery_system("pendulum"), [1.0, 0.0], 0.0, 2.0, 1e-3)
    orbit = dc.iterate(gallery_system("cubic_map"), [0.2, -0.1], 50)
    traj.to_csv(tmp_path / "trajectory.csv")
    orbit.to_csv(tmp_path / "orbit.csv")
    want = _csv_reference("t", [repr(float(t)) for t in traj.times],
                          traj.states)
    assert (tmp_path / "trajectory.csv").read_bytes() == want.encode()
    buf = io.StringIO()
    traj.to_csv(buf)
    assert buf.getvalue() == want
    want = _csv_reference("k", [str(int(k)) for k in orbit.indices],
                          orbit.states)
    assert (tmp_path / "orbit.csv").read_bytes() == want.encode()


def test_delays_must_be_sorted():
    with pytest.raises(Exception):
        SystemDef(1, Nonlinear(("0",)),
                  delays=(Delay(1.0, [[1.0]]), Delay(0.5, [[1.0]])))


# --- argument checks ------------------------------------------------------------

@pytest.mark.parametrize("lag", [math.nan, math.inf, 0.0, -1.0])
def test_delay_lags_must_be_finite_and_positive(lag):
    with pytest.raises(InvalidArgumentError, match="lags must be finite"):
        SystemDef(1, LinearConstant(np.array([[-1.0]])),
                  delays=(Delay(lag, [[0.5]]),))


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_period_must_be_finite_and_positive(period):
    with pytest.raises(InvalidArgumentError, match="period must be finite"):
        SystemDef(1, LinearTimeVarying((("sin(t)",),)), period=period)


def test_period_is_kept_as_float_and_checked_on_every_rhs():
    sysd = SystemDef(1, LinearConstant(np.array([[-1.0]])), period=2)
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
    linear = SystemDef(1, LinearConstant(np.array([[-1.0]])))
    delayed = SystemDef(1, LinearConstant(np.array([[-1.0]])),
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


@pytest.mark.parametrize("entries", [
    [1.0, 2.0], 3.0, [[1.0, 2.0]], [["t", "0"]], np.zeros((2, 3)),
])
def test_coefficient_grid_rejects_non_square_shapes(entries):
    with pytest.raises(DimensionMismatchError):
        odeint.coefficient_grid(entries, 2, {})


def test_delay_coefficients_go_through_coefficient_grid():
    sysd = SystemDef(1, LinearConstant(np.array([[-1.0]])),
                     delays=(Delay(0.5, [["exp(-1)"]]),
                             Delay(1.0, [["cos(t)"]])))
    assert sysd.delays[0].coeff.tolist() == [[math.exp(-1)]]
    assert not isinstance(sysd.delays[1].coeff, np.ndarray)


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
    general = SystemDef(2, Nonlinear(("-x1 + 0.5*x2", "-0.3*x1 - 2*x2")),
                        delays=LAGS)
    linear = SystemDef(2, LinearConstant(A_TEST), delays=LAGS)
    t1 = 3.0005  # over two chunks of steps, plus a trailing partial step
    want = integrate_dde(general, history, t1, 1e-3)
    got = integrate_dde(linear, history, t1, 1e-3)
    assert len(got.times) > 2 * odeint.CHUNK
    assert np.array_equal(got.times, want.times)
    # atol covers components passing through zero; the states are O(1)
    np.testing.assert_allclose(got.states, want.states, rtol=1e-12, atol=1e-14)


def test_time_varying_dde_step_maps_match_stage_loop():
    lags = (Delay(0.5, [["0.3*sin(t)", "0"], ["0.1", "0.2*cos(2*t)"]]),)
    history = HistoryFn.constant([1.0, -0.5], 0.5)
    general = SystemDef(2, Nonlinear(("-x1 + sin(t)*x2", "-0.3*x1 - 2*x2")),
                        delays=lags)
    linear = SystemDef(2, LinearTimeVarying((("-1", "sin(t)"),
                                             ("-0.3", "-2"))), delays=lags)
    want = integrate_dde(general, history, 2.5, 1e-3)
    got = integrate_dde(linear, history, 2.5, 1e-3)
    np.testing.assert_allclose(got.states, want.states, rtol=1e-12, atol=1e-14)


def test_matrix_step_maps_match_stage_loop():
    sysd = SystemDef(2, LinearTimeVarying((("-1 + sin(t)", "0.5"),
                                           ("-0.3", "-2*cos(t)"))))
    want = _stage_loop_matrix(sysd, 0.25, 2.7505, 1e-3)
    got = integrate_matrix(sysd, 0.25, 2.7505, 1e-3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    const = SystemDef(2, LinearConstant(A_TEST))
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
    sysd = SystemDef(1, LinearTimeVarying((("log(2 - t)",),)))
    with pytest.raises(DomainError) as want:
        _stage_loop_matrix(sysd, 0.0, 3.0, 0.1)
    with pytest.raises(DomainError) as got:
        integrate_matrix(sysd, 0.0, 3.0, 0.1)
    assert str(got.value) == str(want.value)


def test_step_maps_escape_before_a_later_domain_error():
    # x = exp(exp(t) - 1) escapes near t = 3.3, long before exp(t) overflows
    sysd = SystemDef(1, LinearTimeVarying((("exp(t)",),)))
    with pytest.raises(NonFiniteStateError) as want:
        _stage_loop_matrix(sysd, 0.0, 800.0, 0.01)
    with pytest.raises(NonFiniteStateError) as got:
        integrate_matrix(sysd, 0.0, 800.0, 0.01)
    assert got.value.t == want.value.t


def test_step_maps_fall_back_to_stage_loop_when_a_map_overflows():
    # h^4 A^4 / 24 overflows the map, yet a zero state stays zero
    sysd = SystemDef(1, LinearConstant(np.array([[-1e200]])),
                     delays=(Delay(0.5, [[1.0]]),))
    traj = integrate_dde(sysd, HistoryFn.constant([0.0], 0.5), 1.0, 1e-3)
    assert not traj.states.any()


def test_delay_rotating_escape_time_unchanged():
    ds = gallery_system("delay_rotating")
    with pytest.raises(NonFiniteStateError) as err:
        integrate_dde(ds, HistoryFn.constant(np.ones(2), 1.0),
                      10.0, dde_step([0.5, 1.0]))
    assert str(err.value) == "state escaped to non-finite values at t=8.146"


# --- the march against the stage-by-stage oracle --------------------------------

def _outcome(run):
    """The states a run returns, or the type and message of what it raises."""
    try:
        return run()
    except (NonFiniteStateError, DomainError) as exc:
        return type(exc), str(exc)


NONLINEAR_GALLERY = sorted(path.stem for path in GALLERY.glob("*.json")
                           if load_system(path).kind == "nonlinear")


@pytest.mark.parametrize("name", NONLINEAR_GALLERY)
def test_nonlinear_gallery_integrate_matches_stage_loop(name):
    sysd = gallery_system(name)
    x0 = np.full(sysd.dimension, 0.5)
    t1 = 2.1005  # 2100 steps, over two chunks, then a partial step
    want = _outcome(lambda: stage_loop(sysd, x0, 0.0, t1, 1e-3))
    got = _outcome(lambda: integrate(sysd, x0, 0.0, t1, 1e-3).states)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert len(want) == 2102 and np.array_equal(got, want)


def test_nonlinear_gallery_is_covered():
    assert len(NONLINEAR_GALLERY) >= 15


_Z = 26.0 * 1e-3  # x' = 26 x at h = 1e-3: one RK4 step multiplies x by
_GROWTH = 1.0 + _Z + _Z ** 2 / 2.0 + _Z ** 3 / 6.0 + _Z ** 4 / 24.0


@pytest.mark.parametrize("j", [1, odeint.CHUNK + 1, 3 * odeint.CHUNK // 2,
                               2 * odeint.CHUNK],
                         ids=["first", "first-of-second", "middle", "last"])
@pytest.mark.parametrize("rhs", [LinearConstant(np.array([[26.0]])),
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
                                 LinearTimeVarying((("log(2 - t)",),))],
                         ids=["stages", "maps"])
def test_domain_error_message_matches_stage_loop(rhs):
    sysd = SystemDef(1, rhs)
    with pytest.raises(DomainError) as want:
        stage_loop(sysd, [1.0], 0.0, 3.0, 1e-3)
    with pytest.raises(DomainError) as got:
        integrate(sysd, [1.0], 0.0, 3.0, 1e-3)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("log of non-positive value")


def test_integrate_matrix_keeps_one_chunk_of_states():
    import tracemalloc

    n, h, steps = 3, 1e-3, 50 * odeint.CHUNK
    sysd = SystemDef(n, LinearTimeVarying((("-1", "sin(t)", "0"),
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
    LinearConstant(A_TEST),
    LinearTimeVarying((("-1", "0.5*sin(t)"), ("-0.3", "-2"))),
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
    lambda p: SystemDef(1, LinearTimeVarying((("-1",),)), params=p),
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
    assert ly.CandidateV("t*x1^2").value([1.0], 5.0) == 5.0
    assert ly.QuadraticFormTV((("t",),)).time_dependent
