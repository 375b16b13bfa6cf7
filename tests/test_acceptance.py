"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from stabkit import alpha as al
from stabkit import autonomous as aut
from stabkit import discrete as dc
from stabkit import floquet as fl
from stabkit import linalg
from stabkit import lyapunov as ly
from stabkit import odeint
from stabkit.autonomous import CriticalPointKind as CP, StabilityKind as SK
from stabkit.lyapunov import CandidateV
from conftest import gallery_system


class Checks:
    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def finish(self) -> None:
        status = "PASS" if not self.failures else "FAIL"
        detail = "" if not self.failures else " -- " + "; ".join(self.failures)
        print(f"[criterion {self.num:02d}] {status}: {self.label}{detail}")
        assert not self.failures, f"criterion {self.num}: {detail}"


def test_criterion_01_eigenvalue_classification():
    c = Checks(1, "eigenvalue classification and planar taxonomy")
    verdict = aut.classify_linear([[-3, 1], [1, -3]])
    eigs = sorted(v.real for v in verdict.eigenvalues)
    c.expect(abs(eigs[0] + 4.0) < 1e-10 and abs(eigs[1] + 2.0) < 1e-10,
             f"eigenvalues {eigs} != [-4, -2] @1e-10")
    c.expect(max(abs(v.imag) for v in verdict.eigenvalues) < 1e-10,
             "spectrum should be real")
    c.expect(verdict.kind is SK.ASYMPTOTICALLY_STABLE, "verdict")
    c.expect(aut.classify_critical_point_2d([[-3, 1], [1, -3]])
             is CP.IMPROPER_NODE, "taxonomy: improper node")
    cases = [
        ([[1, 0], [0, 1]], SK.COMPLETELY_UNSTABLE, CP.PROPER_NODE),
        ([[1, 0], [0, -1]], SK.UNSTABLE, CP.SADDLE),
        ([[0, 1], [-4, 0]], SK.STABLE_MARGINAL, CP.CENTER),
        ([[-1, 1], [-1, -1]], SK.ASYMPTOTICALLY_STABLE, CP.SPIRAL),
    ]
    for a, kind, cp in cases:
        c.expect(aut.classify_linear(a).kind is kind, f"{a}: verdict")
        c.expect(aut.classify_critical_point_2d(a) is cp, f"{a}: taxonomy")
    c.finish()


def test_criterion_02_lyapunov_matrix_equation():
    c = Checks(2, "continuous and delay Lyapunov matrix equations")
    p = ly.solve_lyapunov([[0, 1], [-2, -3]], np.eye(2))
    c.expect(np.abs(p - [[1.25, 0.25], [0.25, 0.25]]).max() < 1e-10,
             "P != [[1.25, .25], [.25, .25]] @1e-10")
    c.expect(linalg.definiteness(p).is_positive_definite, "P must be PD")
    pd = al.solve_delay_lyapunov([[-2.0, 0.5], [-1.0, -4.0]], 2)
    c.expect(np.abs(pd - np.diag([0.5, 0.25])).max() < 1e-10,
             "delay P != diag(.5, .25) @1e-10")
    c.finish()


def test_criterion_03_floquet():
    c = Checks(3, "periodic system: multipliers, trace check, verdict")
    started = time.perf_counter()
    rep = fl.floquet_report(gallery_system("periodic_rotation"), h=1e-4)
    elapsed = time.perf_counter() - started
    real = [m for m in rep.multipliers if abs(m.imag) < 1e-9]
    pair = [m for m in rep.multipliers if m.imag > 1e-9]
    c.expect(len(real) == 1 and len(pair) == 1, "multiplier layout")
    rho1 = real[0].real
    c.expect(abs(rho1 - 2.566519e-5) / 2.566519e-5 < 1e-3,
             f"rho1 = {rho1}")
    want = complex(0.008405, 0.013532)
    c.expect(abs(pair[0] - want) / abs(want) < 1e-3, f"rho23 = {pair[0]}")
    ref = math.exp(-6.0 * math.pi)
    c.expect(abs(rep.liouville_lhs - ref) / ref < 1e-4,
             f"multiplier product {rep.liouville_lhs} vs {ref}")
    c.expect(rep.verdict is fl.PeriodicVerdict.ASYMPTOTICALLY_STABLE, "verdict")
    c.expect(elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s")
    c.finish()


def test_criterion_04_alpha_stability_pipeline():
    c = Checks(4, "delay-system rate certificates and residuals")
    coupled = gallery_system("delay_coupled")
    p = al.solve_delay_lyapunov(coupled.rhs.a, len(coupled.delays))
    inputs = al.rate_bound_inputs(coupled, p)
    c.expect(abs(inputs.eta - (-3.0 + 0.5 * math.sqrt(4.25))) < 1e-9,
             f"eta = {inputs.eta}")
    c.expect(abs(inputs.p_norm - 1.5) < 1e-12, f"||P+I|| = {inputs.p_norm}")
    c.expect(abs(inputs.a_norm_sq - math.exp(-0.8) / 9.0) < 1e-12,
             f"||A||^2 = {inputs.a_norm_sq}")
    c.expect(al.rate_inequality_lhs(inputs.eta, inputs.p_norm,
                                    inputs.a_norm_sq, inputs.m, inputs.h,
                                    0.4) <= 0.0, "rate 0.4 must be feasible")
    amax = al.max_alpha(inputs.eta, inputs.p_norm, inputs.a_norm_sq,
                        inputs.m, inputs.h)
    oracle = brentq(lambda a: al.rate_inequality_lhs(
        inputs.eta, inputs.p_norm, inputs.a_norm_sq, inputs.m, inputs.h, a),
        1e-12, 10.0, xtol=1e-12)
    c.expect(abs(amax - oracle) < 1e-6, f"max rate {amax} vs oracle {oracle}")
    c.expect(abs(amax - 0.879) < 1e-3, f"max rate {amax} != 0.879 @1e-3")

    rotating = gallery_system("delay_rotating")
    p_rot = al.SampledMatrixFunction.from_callable(
        lambda t: math.exp(-t) * np.eye(2), 0.0, 5.0, 20001)
    cert = al.certify(rotating, 0.2, al.CertificateRoute.RATE_INEQUALITY,
                      p=p_rot, horizon=0.0)
    c.expect(cert.inequality_margin <= 0.0, "rate 0.2 must be feasible")
    amax2 = al.max_alpha(cert.inputs.eta, cert.inputs.p_norm,
                         cert.inputs.a_norm_sq, cert.inputs.m, cert.inputs.h)
    oracle2 = brentq(lambda a: al.rate_inequality_lhs(
        cert.inputs.eta, cert.inputs.p_norm, cert.inputs.a_norm_sq,
        cert.inputs.m, cert.inputs.h, a), 1e-12, 10.0, xtol=1e-12)
    c.expect(abs(amax2 - oracle2) < 1e-6, f"max rate {amax2} vs {oracle2}")
    c.expect(abs(amax2 - 0.2486) < 1e-3, f"max rate {amax2} != 0.2486 @1e-3")

    res_sched = al.rde_residual(
        gallery_system("delay_gain_scheduled"), 1.0,
        lambda t: np.diag([math.exp(-9.0 * t), 1.0]))
    c.expect(res_sched < 1e-6, f"scheduled-gain residual {res_sched}")
    res_lag = al.rde_residual(gallery_system("delay_two_lag"), 0.5,
                              np.array([[1.0, -1.0], [-1.0, 1.0]]))
    c.expect(res_lag < 1e-9, f"two-lag residual {res_lag}")
    c.finish()


def test_criterion_05_exponential_envelopes():
    c = Checks(5, "exponential envelope fits")
    traj = odeint.integrate(gallery_system("modulated_decay"),
                            [1.0], 0.0, 20.0, 1e-3)
    env = al.fit_envelope(traj)
    c.expect(1.4 <= env.rate <= 1.6, f"rate {env.rate} outside [1.4, 1.6]")
    c.expect(env.verified, "envelope must verify")
    bound = math.exp(0.25) * 1.0 * 1.001
    c.expect(env.coefficient <= bound,
             f"coefficient {env.coefficient} > {bound}")

    slow = gallery_system("algebraic_decay")
    short = al.fit_envelope(odeint.integrate(slow, [1.0], 0.0, 10.0, 1e-3),
                            t_lo=0.0)
    long = al.fit_envelope(odeint.integrate(slow, [1.0], 0.0, 100.0, 1e-3),
                           t_lo=0.0)
    c.expect(long.rate < short.rate,
             f"fitted rate must fall with the window ({short.rate} -> {long.rate})")
    # the short-window envelope does not persist: no verified positive rate
    traj100 = odeint.integrate(slow, [1.0], 0.0, 100.0, 1e-3)
    holds = np.all(traj100.norms() <= short.coefficient
                   * np.exp(-short.rate * traj100.times) * (1 + 1e-9))
    c.expect(not holds, "short-window rate must fail on the long window")
    c.finish()


def test_criterion_06_attraction_regions():
    c = Checks(6, "sublevel attraction regions")
    c1 = ly.attraction_region(gallery_system("cross_coupled"), np.eye(2), 4.0)
    c.expect(3.8 <= c1 <= 4.0, f"cross-coupled region {c1}")
    c2 = ly.attraction_region(gallery_system("vanderpol"), np.eye(2), 1.0)
    c.expect(0.95 <= c2 <= 1.0, f"oscillator region {c2}")
    c3 = ly.attraction_region(gallery_system("vanderpol_integral"),
                              np.eye(2), 3.0)
    c.expect(2.85 <= c3 <= 3.0, f"integral-coordinates region {c3}")
    c.expect(c3 > c2, "alternate coordinates must certify a larger region")
    c.finish()


def test_criterion_07_linearization():
    c = Checks(7, "equilibria search and local verdicts")
    drag = gallery_system("quadratic_drag")
    eqs = aut.find_equilibria(drag, [[0.1, 0.1], [1.8, 0.2]], tol=1e-10)
    c.expect(len(eqs) == 2, f"expected 2 equilibria, got {len(eqs)}")
    if len(eqs) == 2:
        c.expect(np.linalg.norm(eqs[0].point) < 1e-8, "origin to 1e-8")
        c.expect(np.linalg.norm(eqs[1].point - [2.0, 0.0]) < 1e-8,
                 "(2,0) to 1e-8")
        c.expect(aut.local_stability(drag, eqs[0].point).conclusion
                 is SK.UNSTABLE, "origin verdict")
        c.expect(aut.local_stability(drag, eqs[1].point).conclusion
                 is SK.ASYMPTOTICALLY_STABLE, "(2,0) verdict")

    lv = gallery_system("prey_predator")
    lv_eqs = aut.find_equilibria(lv, [[0.05, 0.05], [1.9, 0.6]], tol=1e-10)
    pts = sorted(tuple(np.round(eq.point, 8)) for eq in lv_eqs)
    c.expect(len(pts) == 2 and np.allclose(pts[0], [0, 0], atol=1e-8)
             and np.allclose(pts[1], [2.0, 0.5], atol=1e-8),
             f"population equilibria {pts}")

    pend = gallery_system("pendulum")
    kinds = []
    for n in range(4):
        eq = aut.find_equilibria(pend, [[n * math.pi + 0.2, 0.1]], tol=1e-10)
        report = aut.local_stability(pend, eq[0].point)
        kinds.append(report.critical_point)
    c.expect(kinds == [CP.CENTER, CP.SADDLE, CP.CENTER, CP.SADDLE],
             f"pendulum taxonomy {kinds}")
    c.finish()


def test_criterion_08_nonautonomous_definitions():
    c = Checks(8, "non-uniform convergence and time-varying candidate")
    slow = gallery_system("slowing_decay")

    def time_to_tenth(t0: float) -> float:
        traj = odeint.integrate(slow, [1.0], t0, t0 + 120.0, 1e-3)
        below = np.nonzero(traj.norms() <= 0.1)[0]
        return float(traj.times[below[0]] - t0)

    early, late = time_to_tenth(0.0), time_to_tenth(9.0)
    c.expect(late > 5.0 * early,
             f"convergence times {early} vs {late}: ratio {late / early}")
    # the candidate ladder reads the same: uniformly stable, no more, at
    # every window, and a growing log(2 + t) factor is not decrescent
    for window in ({}, {"t0": 1000.0}, {"time_span": 5000.0}):
        rep = ly.check_candidate(slow, CandidateV("x1^2"),
                                 scan=ly.ScanConfig(**window))
        c.expect(rep.conclusion is ly.Conclusion.UNIFORMLY_STABLE,
                 f"slowing_decay at {window}: {rep.conclusion.value}")
    rep = ly.check_candidate(gallery_system("modulated_decay"),
                             CandidateV("log(2 + t)*x1^2"))
    c.expect(not rep.decrescent.established,
             f"log(2 + t)*x1^2 reads decrescent: {rep.decrescent}")

    rep = ly.check_candidate(gallery_system("exponential_feedback"),
                             CandidateV("x1^2 + (1 + exp(-2*t))*x2^2"))
    c.expect("uniformly-asymptotically-stable" in rep.levels,
             f"candidate levels {rep.levels}")
    c.expect(rep.w3_minors is not None
             and abs(rep.w3_minors[0] - 2.0) < 1e-3
             and abs(rep.w3_minors[1] - 11.0) < 1e-3,
             f"derivative-bound minors {rep.w3_minors} != [2, 11]")
    c.finish()


def test_criterion_09_discrete():
    c = Checks(9, "discrete direct method")
    v = CandidateV("0.5*x1^2 + 2*x1*x2 + 4*x2^2")
    rng = np.random.default_rng(101)
    grid = rng.uniform(-1.0, 1.0, size=(100, 2))
    for a in (-1.0, 0.0, 0.5):
        sysd = dc.DiscreteSystem(2, ("x1 + x2", "a*pow(x1,3) + 0.5*x2"),
                                 params={"a": a})
        worst = 0.0
        for x1, x2 in grid:
            want = (-1.5 * x2 ** 2 + 2 * a * x1 ** 4
                    + 6 * a * x1 ** 3 * x2 + 4 * a * a * x1 ** 6)
            worst = max(worst, abs(dc.delta_v(sysd, v, [x1, x2]) - want))
        c.expect(worst < 1e-12, f"a={a}: one-step defect {worst} @1e-12")
    rep_neg = dc.classify_discrete(gallery_system("cubic_map"), v, radius=0.3)
    c.expect(rep_neg.conclusion is dc.DiscreteConclusion.ASYMPTOTICALLY_STABLE,
             f"contracting map: {rep_neg.conclusion}")
    rep_zero = dc.classify_discrete(gallery_system("cubic_map_neutral"), v,
                                    radius=0.3)
    c.expect(rep_zero.conclusion is dc.DiscreteConclusion.STABLE,
             f"neutral map: {rep_zero.conclusion}")
    c.finish()


def test_criterion_10_integrator_properties():
    c = Checks(10, "integrator fidelity")
    pend = gallery_system("pendulum")
    traj = odeint.integrate(pend, [0.5, 0.0], 0.0, 20.0 * math.pi, 1e-3)
    energy = 0.5 * traj.states[:, 1] ** 2 + (1.0 - np.cos(traj.states[:, 0]))
    drift = float(np.abs(energy - energy[0]).max() / energy[0])
    c.expect(drift < 1e-6, f"energy drift {drift}")

    decay = odeint.SystemDef(1, odeint.Nonlinear(("-x1",)))

    def err(h):
        return abs(odeint.integrate(decay, [1.0], 0.0, 1.0, h).states[-1][0]
                   - math.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    c.expect(14.0 <= ratio <= 18.0, f"order ratio {ratio}")

    dde = odeint.SystemDef(1, odeint.Nonlinear(("0",)),
                           delays=(odeint.Delay(1.0, [[-1.0]]),))
    traj_d = odeint.integrate_dde(dde, odeint.HistoryFn.constant([1.0], 1.0),
                                  1.0, 1e-3)
    worst = float(np.abs(traj_d.states[:, 0] - (1.0 - traj_d.times)).max())
    c.expect(worst < 1e-6, f"delayed-step solution defect {worst}")
    c.finish()
