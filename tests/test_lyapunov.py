import numpy as np
import pytest

from stabkit import autonomous as aut
from stabkit import expr as ex
from stabkit import linalg
from stabkit import lyapunov as ly
from stabkit.errors import (
    InvalidArgumentError,
    InvalidCandidateError,
    NoRegionError,
    NotAnEquilibriumError,
    SampleCapError,
    SingularLyapunovOperatorError,
)
from stabkit.odeint import SAMPLE_CAP, Linear, Nonlinear, SystemDef
from stabkit.sampling import ball_points
from conftest import gallery_system


def test_solve_lyapunov_damped_oscillator():
    p = ly.solve_lyapunov([[0, 1], [-2, -3]], np.eye(2))
    assert np.abs(p - [[1.25, 0.25], [0.25, 0.25]]).max() < 1e-10
    assert linalg.definiteness(p).is_positive_definite


def test_solve_lyapunov_scalar_decoupling():
    p = ly.solve_lyapunov(-np.eye(3), np.eye(3))
    assert np.allclose(p, 0.5 * np.eye(3), atol=1e-12)


def test_solve_lyapunov_singular_operator():
    # eigenvalues +1 and -1: A and -A share the spectrum
    with pytest.raises(SingularLyapunovOperatorError):
        ly.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


def test_solve_lyapunov_round_trip_property():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        raw = rng.normal(size=(n, n))
        shift = max(v.real for v in np.linalg.eigvals(raw)) + 0.1
        a = raw - shift * np.eye(n)  # spectrum strictly left of -0.1
        w = rng.normal(size=(n, n))
        q = w @ w.T + 0.5 * np.eye(n)
        p = ly.solve_lyapunov(a, q)
        assert linalg.definiteness(p).is_positive_definite
        residual = np.linalg.norm(a.T @ p + p @ a + q, 2)
        assert residual < 1e-9 * np.linalg.norm(q, 2)


def _vdot(sysd, v):
    """Vdot at one point through the batched scan evaluator."""
    both = ex.compile_expr_vec(ly._trees(sysd, v))

    def at(x, t=0.0):
        return float(ly._batch_values(both,
                                      np.array([x], dtype=float),
                                      np.array([t]))[1][0])
    return at


def test_vdot_cubic_damping():
    sysd = gallery_system("cubic_damping")
    vd = _vdot(sysd, ly.CandidateV("x1^2 + x2^2"))
    assert abs(vd((1.0, 1.0)) - (-2.0)) < 1e-8  # closed form -2 x2^4


def test_vdot_scalar_modulated():
    sysd = gallery_system("cubic_modulated")
    vd = _vdot(sysd, ly.CandidateV("x1^2/2"))
    assert abs(vd((1.0,), 0.0) - (-1.0)) < 1e-8  # -x^4 (1 - sin(t)/2)


def test_vdot_constant_candidate_is_zero():
    sysd = gallery_system("cubic_damping")
    vd = _vdot(sysd, ly.CandidateV("0*x1"))
    for pt in [(0.3, -0.7), (1.0, 1.0), (-2.0, 0.1)]:
        assert abs(vd(pt)) < 1e-12


def test_vdot_matches_hand_expansion_on_random_points():
    # quadratic candidate against a polynomial right-hand side
    sysd = gallery_system("cross_coupled")
    vd = _vdot(sysd, ly.CandidateV("x1^2 + x2^2"))
    rng = np.random.default_rng(4)
    for _ in range(100):
        x1, x2 = rng.uniform(-2, 2, size=2)
        want = 2 * x1 * x1 * (x2 - 2) + 2 * x2 * x2 * (x1 - 1)
        assert abs(vd((x1, x2)) - want) < 1e-8


def test_check_candidate_semidefinite_screw():
    sysd = gallery_system("cubic_damping")
    rep = ly.check_candidate(sysd, ly.CandidateV("x1^2 + x2^2"))
    assert rep.vdot_verdict is ly.SignVerdict.NEGATIVE_SEMIDEFINITE
    assert rep.conclusion is ly.Conclusion.STABLE
    assert rep.radially_unbounded and rep.global_claim


def test_check_candidate_energy_function():
    sysd = gallery_system("spring_mass")
    rep = ly.check_candidate(
        sysd, ly.CandidateV("0.5*k*x1^2 + 0.5*x2^2", params={"k": 2.0}))
    assert rep.vdot_verdict is ly.SignVerdict.NEGATIVE_SEMIDEFINITE
    assert rep.conclusion is ly.Conclusion.STABLE
    assert abs(rep.worst_vdot) < 1e-9  # derivative identically zero


def test_check_candidate_fading_feedback():
    sysd = gallery_system("exponential_feedback")
    rep = ly.check_candidate(sysd, ly.CandidateV("x1^2 + (1 + exp(-2*t))*x2^2"))
    assert rep.vdot_verdict is ly.SignVerdict.NEGATIVE_DEFINITE
    assert "uniformly-asymptotically-stable" in rep.levels
    assert rep.decrescent.established
    assert rep.w3_minors is not None
    assert abs(rep.w3_minors[0] - 2.0) < 1e-3
    assert abs(rep.w3_minors[1] - 11.0) < 1e-3


def test_check_candidate_quartic_margin():
    sysd = gallery_system("cubic_modulated")
    rep = ly.check_candidate(sysd, ly.CandidateV("x1^2/2"))
    assert rep.conclusion is ly.Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE
    assert rep.vdot_margin is not None and rep.vdot_margin.exponent == 4


def test_exponential_rung_reads_the_exact_minors_not_the_samples():
    # Vdot = -2 (x1^4 + 2 x2^4 + x3^4): no scan point of the 3-d ball comes
    # close enough to the origin to show the quartic, so the sampled margin
    # fits at exponent 2; the exact Hessian of -Vdot at 0 vanishes
    sysd = SystemDef(3, Nonlinear(("x2 - x1^3", "-x1 + x3 - 2*x2^3",
                                   "-x2 - x3^3")))
    rep = ly.check_candidate(sysd, ly.CandidateV("x1^2 + x2^2 + x3^2"))
    assert rep.vdot_margin.exponent == 2 and rep.v_positive.exponent == 2
    assert rep.w3_minors == (0.0, 0.0, 0.0)
    assert rep.conclusion is ly.Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE


def test_rate_positive_on_the_window_ladder_proves_nothing():
    # x' = x (t - 100)/100 decays on [0, 50] and grows after t = 100: Vdot
    # of x1^2 is positive on the ladder, as -Wdot is for x' = x (100 - t)/100
    def system(field):
        return SystemDef(1, Nonlinear((field,)))

    rep = ly.check_candidate(system("x1*(t - 100)/100"), ly.CandidateV("x1^2"))
    assert rep.vdot_verdict is ly.SignVerdict.INDEFINITE
    assert rep.conclusion is ly.Conclusion.NO_CONCLUSION
    witness = ly.check_instability(system("x1*(100 - t)/100"),
                                   ly.CandidateV("x1^2"))
    assert not witness.wdot_positive_definite and not witness.unstable


def test_margin_takes_the_first_exponent_that_holds_on_the_ladder():
    # -Vdot = 2 x^2/(1 + t) + 2 x^4: the quadratic part decays in t, the
    # quartic one holds uniformly
    sysd = SystemDef(1, Nonlinear(("-x1/(1 + t) - x1^3",)))
    rep = ly.check_candidate(sysd, ly.CandidateV("x1^2"))
    assert rep.vdot_margin.exponent == 4 and rep.vdot_margin.trend >= 0.5
    assert rep.conclusion is ly.Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE


def test_check_candidate_failing_candidate():
    sysd = gallery_system("uniform_growth")
    rep = ly.check_candidate(sysd, ly.CandidateV("x1^2 + x2^2"))
    assert rep.vdot_verdict is ly.SignVerdict.INDEFINITE
    assert rep.conclusion is ly.Conclusion.NO_CONCLUSION


def test_check_candidate_decaying_bound_probe():
    # V = exp(-t) ||x||^2: any lower bound decays with the window
    sysd = SystemDef(2, Linear(-np.eye(2)))
    rep = ly.check_candidate(
        sysd, ly.CandidateV("exp(-0.2*t)*(x1^2 + x2^2)"))
    assert not rep.v_positive.established
    assert rep.v_positive.trend < 0.5
    assert rep.conclusion is ly.Conclusion.NO_CONCLUSION


def test_check_candidate_growing_candidate_not_decrescent():
    sysd = gallery_system("exponential_feedback")
    rep = ly.check_candidate(sysd, ly.CandidateV("(1 + t)*(x1^2 + x2^2)"))
    assert not rep.decrescent.established


def test_non_decrescent_candidate_caps_conclusion_at_stable():
    # without decrescence a negative derivative certifies only stability,
    # even when the dynamics are autonomous
    sysd = SystemDef(2, Linear(-np.eye(2)))
    rep = ly.check_candidate(sysd, ly.CandidateV("(1 + t)*(x1^2 + x2^2)"))
    assert rep.vdot_verdict is ly.SignVerdict.NEGATIVE_DEFINITE
    assert not rep.decrescent.established
    assert rep.conclusion is ly.Conclusion.STABLE


def test_check_candidate_requires_equilibrium():
    shifted = SystemDef(1, Nonlinear(("1 - x1",)))
    with pytest.raises(NotAnEquilibriumError):
        ly.check_candidate(shifted, ly.CandidateV("x1^2"))


def test_check_candidate_requires_zero_at_origin():
    sysd = gallery_system("cubic_damping")
    with pytest.raises(InvalidCandidateError):
        ly.check_candidate(sysd, ly.CandidateV("1 + x1^2"))


def test_linear_consistency_with_eigenvalue_criterion():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        raw = rng.normal(size=(n, n))
        shift = max(v.real for v in np.linalg.eigvals(raw)) + 0.3
        a = raw - shift * np.eye(n)
        assert aut.classify_linear(a).kind is aut.StabilityKind.ASYMPTOTICALLY_STABLE
        sysd = SystemDef(n, Linear(a))
        v = ly.CandidateV.quadratic(ly.solve_lyapunov(a, np.eye(n)))
        rep = ly.check_candidate(sysd, v, scan=ly.ScanConfig(points=1024))
        assert "uniformly-asymptotically-stable" in rep.levels


def test_instability_witness_on_repeller():
    sysd = gallery_system("uniform_growth")
    rep = ly.check_instability(sysd, ly.CandidateV("x1^2 + x2^2"))
    assert rep.unstable
    assert rep.wdot_positive_definite


def test_instability_witness_on_stable_system():
    sysd = gallery_system("cubic_damping")
    rep = ly.check_instability(sysd, ly.CandidateV("x1^2 + x2^2"))
    assert not rep.unstable
    assert not rep.wdot_positive_definite


def test_instability_witness_trivial_w():
    sysd = gallery_system("uniform_growth")
    rep = ly.check_instability(sysd, ly.CandidateV("0*x1"))
    assert not rep.unstable
    assert not rep.w_nontrivial


def test_sylvester_growing_form():
    form = ly.QuadraticFormTV((("t", "-cos(t)"), ("-cos(t)", "t")))
    rep = ly.sylvester_tv(form, t0=1.0)
    assert rep.positive_definite
    assert abs(rep.min_minors[1] - (1.0 - np.cos(1.0) ** 2)) < 1e-6
    assert 0.70 < rep.min_minors[1] < 0.72


@pytest.mark.parametrize("a,expect_pd", [(0.5, True), (1.0, False)])
def test_sylvester_amplitude_threshold(a, expect_pd):
    entries = (("1 - a*cos((x1^2 + x2^2)*t)", "a*sin((x1^2 + x2^2)*t)"),
               ("a*sin((x1^2 + x2^2)*t)", "1 + a*cos((x1^2 + x2^2)*t)"))
    form = ly.QuadraticFormTV(entries, params={"a": a})
    rep = ly.sylvester_tv(form, t0=0.0)
    assert rep.positive_definite is expect_pd
    if expect_pd:
        assert abs(rep.min_minors[1] - (1.0 - a * a)) < 1e-9


def test_sylvester_constant_form_agrees_with_definiteness():
    m = np.array([[2.0, -1.0], [-1.0, 6.0]])
    form = ly.QuadraticFormTV(tuple(tuple(str(v) for v in row) for row in m))
    rep = ly.sylvester_tv(form, t0=0.0, time_samples=4, x_points=16)
    assert rep.positive_definite == linalg.definiteness(m).is_positive_definite
    assert np.allclose(rep.min_minors, linalg.principal_minors(m))


def test_attraction_region_cross_coupled():
    c = ly.attraction_region(gallery_system("cross_coupled"), np.eye(2), 4.0)
    assert 3.8 <= c <= 4.0


def test_attraction_region_vanderpol():
    c = ly.attraction_region(gallery_system("vanderpol"), np.eye(2), 1.0)
    assert 0.95 <= c <= 1.0


def test_attraction_region_integral_coordinates_larger():
    c2 = ly.attraction_region(gallery_system("vanderpol"), np.eye(2), 1.0)
    c3 = ly.attraction_region(gallery_system("vanderpol_integral"), np.eye(2), 3.0)
    assert 2.85 <= c3 <= 3.0
    assert c3 > c2


def test_attraction_region_uncapped_boundary():
    # with a loose cap the bisection localizes the true sign-change level
    c = ly.attraction_region(gallery_system("cross_coupled"), np.eye(2), 10.0)
    assert 3.9 <= c <= 4.2


def test_attraction_region_density_monotonicity():
    c_coarse = ly.attraction_region(gallery_system("cross_coupled"),
                                    np.eye(2), 10.0, directions=256)
    c_fine = ly.attraction_region(gallery_system("cross_coupled"),
                                  np.eye(2), 10.0, directions=512)
    assert c_fine <= c_coarse + 1e-9  # denser sampling only finds violations


def test_attraction_region_no_region():
    with pytest.raises(NoRegionError):
        ly.attraction_region(gallery_system("uniform_growth"), np.eye(2), 1.0)


def test_attraction_region_requires_pd_weight():
    with pytest.raises(ValueError):
        ly.attraction_region(gallery_system("vanderpol"),
                             np.diag([1.0, -1.0]), 1.0)


@pytest.mark.parametrize("t0, span", [
    (float("nan"), 50.0), (float("inf"), 50.0), (0.0, float("nan")),
    (0.0, float("inf")), (0.0, -1.0), (0.0, -1e-12),
])
def test_scan_config_rejects_bad_windows(t0, span):
    with pytest.raises(InvalidArgumentError):
        ly.ScanConfig(t0=t0, time_span=span)
    form = ly.QuadraticFormTV((("1", "0"), ("0", "1")))
    with pytest.raises(InvalidArgumentError):
        ly.sylvester_tv(form, t0, time_span=span)


def test_empty_window_rejected_when_anything_depends_on_t():
    empty = ly.ScanConfig(time_span=0.0)
    modulated = gallery_system("cubic_modulated")
    with pytest.raises(InvalidArgumentError):
        ly.check_candidate(modulated, ly.CandidateV("x1^2"), scan=empty)
    with pytest.raises(InvalidArgumentError):
        ly.check_instability(modulated, ly.CandidateV("x1^2"), scan=empty)
    damping = gallery_system("cubic_damping")
    with pytest.raises(InvalidArgumentError):  # V carries the t-dependence
        ly.check_candidate(damping, ly.CandidateV("(2 + sin(t))*x1^2 + x2^2"),
                           scan=empty)
    with pytest.raises(InvalidArgumentError):
        ly.sylvester_tv(ly.QuadraticFormTV((("2 + sin(t)", "0"), ("0", "1"))),
                        0.0, time_span=0.0)


def test_empty_window_allowed_when_nothing_depends_on_t():
    empty = ly.ScanConfig(time_span=0.0, points=512)
    damping = gallery_system("cubic_damping")
    rep = ly.check_candidate(damping, ly.CandidateV("x1^2 + x2^2"), scan=empty)
    assert rep.conclusion is not ly.Conclusion.NO_CONCLUSION
    assert rep.time_window == (0.0, 0.0)
    rep = ly.sylvester_tv(ly.QuadraticFormTV((("2", "0"), ("0", "1"))), 0.0,
                          time_span=0.0, x_points=8, time_samples=2)
    assert rep.positive_definite


def test_scans_refuse_more_rows_than_the_sample_cap():
    # each count is just above the cap, refused before anything is allocated
    with pytest.raises(SampleCapError):
        ball_points(SAMPLE_CAP + 1, 2, 1.0)
    form = ly.QuadraticFormTV((("1", "0"), ("0", "1")))
    with pytest.raises(SampleCapError):
        ly.sylvester_tv(form, 0.0, x_points=SAMPLE_CAP // 128 + 1,
                        time_samples=128)
    with pytest.raises(SampleCapError):
        ly.attraction_region(gallery_system("vanderpol"), np.eye(2), 1.0,
                             levels=SAMPLE_CAP // 512 + 1, directions=512)


def test_radius_and_window_ends_must_stay_in_range():
    with pytest.raises(InvalidArgumentError, match="underflow"):
        ball_points(4, 2, 1e-160)
    assert len(ball_points(4, 2, 1e-150)) == 4
    with pytest.raises(InvalidArgumentError, match="overflows"):
        ly.ScanConfig(t0=1e308, time_span=1e308)
