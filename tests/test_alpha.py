import math

import numpy as np
import pytest

from stabkit import alpha as al
from stabkit import linalg, odeint
from stabkit.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    ZeroTrajectoryError,
)
from conftest import gallery_system


def diag_exp_p(t):
    return np.diag([np.exp(-9.0 * t), 1.0])


def test_shifted_matrices_two_lag():
    ds = gallery_system("delay_two_lag")
    a0a, ais = al.shifted_matrices(ds, 0.5)
    assert np.allclose(a0a, [[-7.0 / 3.0, 0.0], [4.0 / 3.0, -3.0]], atol=1e-12)
    for aia in ais:
        assert np.allclose(aia, np.eye(2), atol=1e-12)


def test_shifted_matrices_identity_at_zero_rate():
    ds = gallery_system("delay_coupled")
    a0a, ais = al.shifted_matrices(ds, 0.0)
    assert np.allclose(a0a, ds.rhs.a)
    for aia, d in zip(ais, ds.delays):
        assert np.allclose(aia, d.coeff)


def test_shifted_matrices_time_varying():
    ds = gallery_system("delay_gain_scheduled")
    a0a, _ = al.shifted_matrices(ds, 1.0)
    got = a0a(0.3)
    a0 = odeint.compile_matrix(ds.rhs.entries, ds.params)(0.3)
    assert np.allclose(got, a0 + np.eye(2), atol=1e-14)
    assert got[1, 1] == pytest.approx(-6.5)


def test_rde_residual_gain_scheduled():
    ds = gallery_system("delay_gain_scheduled")
    assert al.rde_residual(ds, 1.0, diag_exp_p) < 1e-6


def test_rde_residual_two_lag_exact():
    ds = gallery_system("delay_two_lag")
    p = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert al.rde_residual(ds, 0.5, p) < 1e-9


def test_rde_residual_generic_defect():
    ds = gallery_system("delay_two_lag")
    assert al.rde_residual(ds, 0.5, np.eye(2)) > 0.1


def test_solve_delay_lyapunov():
    p = al.solve_delay_lyapunov([[-2.0, 0.5], [-1.0, -4.0]], 2)
    assert np.abs(p - np.diag([0.5, 0.25])).max() < 1e-10
    assert np.allclose(al.solve_delay_lyapunov(-np.eye(2), 2), np.eye(2))


def test_lyapunov_defect_time_varying():
    # dP/dt + A0'P + P A0 + 2I for P(t) = exp(-t) I on the rotating system
    ds = gallery_system("delay_rotating")
    p = al.SampledMatrixFunction.from_callable(
        lambda t: np.exp(-t) * np.eye(2), 0.0, 5.0, 20001)
    cert = al.certify(ds, 0.2, al.CertificateRoute.RATE_INEQUALITY,
                      p=p, horizon=0.0)
    assert cert.residual < 1e-6
    assert cert.p_semidefinite


def test_rate_inequality_values():
    lhs = al.rate_inequality_lhs(-0.5, 2.0, np.exp(-0.4) / 1600.0, 2, 1.0, 0.2)
    assert lhs == pytest.approx(-0.0975, abs=1e-10)
    eta = -3.0 + 0.5 * np.sqrt(4.25)
    lhs2 = al.rate_inequality_lhs(eta, 1.5, np.exp(-0.8) / 9.0, 2, 1.0, 0.4)
    assert lhs2 == pytest.approx(-1.1192235935955849, abs=1e-9)
    # alpha = 0 with negligible gain reduces to eta
    assert al.rate_inequality_lhs(-0.7, 1.0, 1e-12, 1, 1.0, 0.0) == \
        pytest.approx(-0.7, abs=1e-10)


def test_max_alpha_against_bisection_oracle():
    from scipy.optimize import brentq

    cases = [(-0.5, 2.0, np.exp(-0.4) / 1600.0, 2, 1.0),
             (-3.0 + 0.5 * np.sqrt(4.25), 1.5, np.exp(-0.8) / 9.0, 2, 1.0)]
    for eta, pn, a2, m, h in cases:
        got = al.max_alpha(eta, pn, a2, m, h)
        want = brentq(lambda a: al.rate_inequality_lhs(eta, pn, a2, m, h, a),
                      1e-12, 10.0, xtol=1e-12)
        assert got == pytest.approx(want, abs=1e-8)
        assert abs(al.rate_inequality_lhs(eta, pn, a2, m, h, got)) < 1e-6


def test_max_alpha_infeasible():
    assert al.max_alpha(1.0, 1.0, 0.01, 1, 1.0) is None


def test_max_alpha_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(40):
        eta = -float(rng.uniform(0.5, 3.0))
        pn = float(rng.uniform(0.5, 3.0))
        a2 = float(rng.uniform(1e-4, 0.1))
        m = int(rng.integers(1, 4))
        h = float(rng.uniform(0.1, 2.0))
        base = al.max_alpha(eta, pn, a2, m, h)
        if base is None:
            continue
        # bisection terminates on the boundary of the feasible set
        assert abs(al.rate_inequality_lhs(eta, pn, a2, m, h, base)) < 1e-6
        for bumped in (al.max_alpha(eta, pn * 1.2, a2, m, h),
                       al.max_alpha(eta, pn, a2 * 1.5, m, h),
                       al.max_alpha(eta, pn, a2, m, h * 1.3),
                       al.max_alpha(eta, pn, a2, m + 1, h)):
            assert bumped is None or bumped <= base + 1e-8
        lower_eta = al.max_alpha(eta - 0.5, pn, a2, m, h)
        assert lower_eta is not None and lower_eta >= base - 1e-8


def test_fit_envelope_modulated_decay():
    traj = odeint.integrate(gallery_system("modulated_decay"),
                            [1.0], 0.0, 20.0, 1e-3)
    env = al.fit_envelope(traj)
    assert 1.4 <= env.rate <= 1.6
    assert env.verified
    assert env.coefficient <= np.exp(0.25) * 1.001
    # bound holds on the window by construction
    mask = traj.times >= env.window[0]
    assert np.all(traj.norms()[mask]
                  <= env.coefficient * np.exp(-env.rate * traj.times[mask])
                  * (1 + 1e-12))


def test_fit_envelope_pure_exponential():
    sysd = odeint.SystemDef(1, odeint.Nonlinear(("-2*x1",)))
    traj = odeint.integrate(sysd, [1.0], 0.0, 10.0, 1e-3)
    env = al.fit_envelope(traj)
    assert env.rate == pytest.approx(2.0, abs=1e-3)
    assert env.coefficient == pytest.approx(1.0, abs=1e-2)


def test_fit_envelope_subexponential_decay():
    sysd = gallery_system("algebraic_decay")
    short = al.fit_envelope(odeint.integrate(sysd, [1.0], 0.0, 10.0, 1e-3),
                            t_lo=0.0)
    long = al.fit_envelope(odeint.integrate(sysd, [1.0], 0.0, 100.0, 1e-3),
                           t_lo=0.0)
    assert long.rate < short.rate  # fitted rate collapses with the window


def test_fit_envelope_rejects_zero_trajectory():
    traj = odeint.Trajectory(np.array([0.0, 1.0, 2.0]),
                             np.zeros((3, 1)), 1.0)
    with pytest.raises(ZeroTrajectoryError):
        al.fit_envelope(traj)


def test_certify_gain_scheduled_rde():
    cert = al.certify(gallery_system("delay_gain_scheduled"), 1.0,
                      al.CertificateRoute.RDE, p=diag_exp_p, horizon=20.0)
    assert cert.valid
    assert cert.residual < 1e-6
    assert cert.p_semidefinite
    assert cert.trajectory_check is not None and cert.trajectory_check.verified


def test_certify_two_lag_algebraic():
    p = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cert = al.certify(gallery_system("delay_two_lag"), 0.5,
                      al.CertificateRoute.ALGEBRAIC_RDE, p=p,
                      residual_tol=1e-9, horizon=20.0)
    assert cert.valid
    assert cert.residual < 1e-9
    assert cert.trajectory_check.verified


def test_certify_coupled_rate_inequality():
    cert = al.certify(gallery_system("delay_coupled"), 0.4,
                      al.CertificateRoute.RATE_INEQUALITY, horizon=20.0)
    assert cert.valid
    assert cert.inequality_margin == pytest.approx(-1.11922359, abs=1e-6)
    assert cert.inputs.p_norm == pytest.approx(1.5, abs=1e-12)
    assert cert.trajectory_check.verified


def test_certified_trajectories_decay():
    # exponential stability implies asymptotic decay of the simulated norm
    for name, rate, route, p in [
        ("delay_coupled", 0.4, al.CertificateRoute.RATE_INEQUALITY, None),
        ("delay_two_lag", 0.5, al.CertificateRoute.ALGEBRAIC_RDE,
         np.array([[1.0, -1.0], [-1.0, 1.0]])),
    ]:
        ds = gallery_system(name)
        h = odeint.dde_step([d.lag for d in ds.delays])
        traj = odeint.integrate_dde(
            ds, odeint.HistoryFn.constant(np.ones(2), ds.max_lag), 20.0, h)
        assert traj.norms()[-1] < 1e-2 * traj.norms()[0]


def test_certify_rejects_missing_p_on_residual_routes():
    with pytest.raises(ValueError):
        al.certify(gallery_system("delay_two_lag"), 0.5,
                   al.CertificateRoute.ALGEBRAIC_RDE)


@pytest.mark.parametrize("alpha", [-1.0, -1e-12, math.nan, math.inf])
@pytest.mark.parametrize("route", list(al.CertificateRoute))
def test_certify_rejects_negative_or_nonfinite_alpha(alpha, route):
    ds = gallery_system("delay_coupled")
    p = al.solve_delay_lyapunov(ds.rhs.a, len(ds.delays))
    with pytest.raises(InvalidArgumentError, match="alpha must be finite"):
        al.certify(ds, alpha, route, p=p, horizon=0.0)


def test_max_alpha_two_lag_overflow_reads_infeasible():
    # lag 4.0 at the bisection's upper end: exp(2 * 100 * 4) overflows
    ds = gallery_system("delay_two_lag")
    p = al.solve_delay_lyapunov(ds.rhs.a, len(ds.delays))
    inputs = al.rate_bound_inputs(ds, p)
    assert inputs.h == 4.0
    lhs = al.rate_inequality_lhs(inputs.eta, inputs.p_norm, inputs.a_norm_sq,
                                 inputs.m, inputs.h, 100.0)
    assert lhs == math.inf
    got = al.max_alpha(inputs.eta, inputs.p_norm, inputs.a_norm_sq,
                       inputs.m, inputs.h)
    assert got is not None and 0.0 < got < 100.0
    args = (inputs.eta, inputs.p_norm, inputs.a_norm_sq, inputs.m, inputs.h)
    assert al.rate_inequality_lhs(*args, got) <= 0.0
    assert al.rate_inequality_lhs(*args, got + 1e-8) > 0.0


def test_rate_inequality_without_delayed_gain_is_linear():
    assert al.rate_inequality_lhs(-1.0, 2.0, 0.0, 2, 4.0, 1000.0) == 1999.0


def test_rate_bound_inputs_match_per_time_scan():
    ds = gallery_system("delay_rotating")
    p = al.SampledMatrixFunction.from_callable(
        lambda t: np.exp(-t) * np.eye(2), 0.0, 5.0, 101)
    grid = (0.0, 5.0, 201)
    got = al.rate_bound_inputs(ds, p, t_grid=grid)
    times = np.linspace(*grid)
    a0 = odeint.compile_matrix(ds.rhs.entries, ds.params)
    eta = max(linalg.matrix_measure(a0(float(t))) for t in times)
    fns = [odeint.compile_matrix(d.coeff, ds.params) for d in ds.delays]
    a_norm_sq = max(max(linalg.spectral_norm(fn(float(t))) for t in times) ** 2
                    for fn in fns)
    p_norm = max(linalg.spectral_norm(v + np.eye(2)) for v in p.values)
    assert got.eta == pytest.approx(eta, rel=1e-14)
    assert got.a_norm_sq == pytest.approx(a_norm_sq, rel=1e-14)
    assert got.p_norm == pytest.approx(p_norm, rel=1e-14)


# --- systems the certificates refuse --------------------------------------------

A_STABLE = np.array([[-2.0, 0.5], [-1.0, -4.0]])
REFUSED = {
    "no delays": odeint.SystemDef(2, odeint.LinearConstant(A_STABLE)),
    "nonlinear": odeint.SystemDef(
        2, odeint.Nonlinear(("-2*x1 + x2^3", "-4*x2")),
        delays=(odeint.Delay(0.5, np.eye(2) / 10),)),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
@pytest.mark.parametrize("call", [
    lambda s: al.shifted_matrices(s, 0.1),
    lambda s: al.rde_residual(s, 0.1, np.eye(2)),
    lambda s: al.rate_bound_inputs(s, np.eye(2)),
    lambda s: al.certify(s, 0.1, al.CertificateRoute.RATE_INEQUALITY,
                         horizon=0.0),
    lambda s: al.certify(s, 0.1, al.CertificateRoute.ALGEBRAIC_RDE,
                         p=np.eye(2), horizon=0.0),
], ids=["shifted", "rde", "rate_inputs", "certify_rate", "certify_rde"])
def test_entry_points_refuse_systems_without_linear_delays(name, call):
    with pytest.raises(InvalidArgumentError, match="alpha certificates need"):
        call(REFUSED[name])


@pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0])
def test_certify_rejects_nonfinite_or_negative_horizon(horizon):
    with pytest.raises(InvalidArgumentError, match="horizon must be finite"):
        al.certify(gallery_system("delay_coupled"), 0.4,
                   al.CertificateRoute.RATE_INEQUALITY, horizon=horizon)


@pytest.mark.parametrize("route", list(al.CertificateRoute))
def test_constant_p_on_time_varying_a0_is_a_typed_error(route):
    with pytest.raises(DimensionMismatchError, match="sampled P"):
        al.certify(gallery_system("delay_rotating"), 0.1, route,
                   p=np.eye(2), horizon=0.0)


def test_delay_files_build_one_system_type():
    for name in ("delay_coupled", "delay_two_lag"):
        ds = gallery_system(name)
        assert isinstance(ds, odeint.SystemDef)
        assert isinstance(ds.rhs, odeint.LinearConstant)
        assert all(isinstance(d.coeff, np.ndarray) for d in ds.delays)
    # "exp(-0.4)/3" folds to the constant it spells
    assert gallery_system("delay_coupled").delays[0].coeff[0, 0] == \
        math.exp(-0.4) / 3
    for name in ("delay_rotating", "delay_gain_scheduled"):
        ds = gallery_system(name)
        assert isinstance(ds.rhs, odeint.LinearTimeVarying)
        assert ds.period is None and ds.max_lag == 1.0
