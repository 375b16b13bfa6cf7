"""Metamorphic invariants: transformations of an input whose effect on the
answer is known without computing it.

* ``classify`` depends on the spectrum only, so a similarity ``T A T^-1``
  with a well-conditioned ``T`` keeps the kind, the sign classes and (in
  the plane) the critical-point type.
* The direct-method verdicts of ``check_candidate``, ``check_instability``
  and ``classify_discrete`` do not depend on the scale of V: ``c V`` with
  ``c > 0`` gives the same ladder.
* ``euler_discretize`` of ``x' = A x`` is the linear map ``I + T A``, so k
  steps of its orbit equal ``(I + T A)^k x0``.
* A uniform-in-t verdict does not depend on the scan window's start or
  length, and an autonomous verdict not on ``t0``.
"""

import numpy as np
import pytest

from stabkit import autonomous, discrete
from stabkit import lyapunov as ly
from stabkit.odeint import Linear, SystemDef
from conftest import GALLERY, gallery_doc, gallery_system

LINEAR = sorted(p.stem for p in GALLERY.glob("*.json")
                if gallery_doc(p.stem).kind == "linear")
# spectra the gallery lacks: a simple zero, a focus plus a real mode, a
# saddle in three dimensions
SPECTRA = {
    "simple zero": np.diag([0.0, -1.0, -2.0]),
    "focus and node": np.array([[-0.5, 2.0, 0.0], [-2.0, -0.5, 0.0],
                                [0.0, 0.0, -3.0]]),
    "saddle 3d": np.diag([1.0, -1.0, -2.0]),
}
MATRICES = {**{name: gallery_system(name).rhs.a for name in LINEAR}, **SPECTRA}


def well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random T with condition number at most 4."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ q2


@pytest.mark.parametrize("name", MATRICES)
def test_classify_is_invariant_under_similarity(name):
    a = MATRICES[name]
    want = autonomous.classify_linear(a)
    rng = np.random.default_rng(11)
    for _ in range(5):
        t = well_conditioned(rng, len(a))
        b = t @ a @ np.linalg.inv(t)
        got = autonomous.classify_linear(b)
        assert got.kind is want.kind
        assert sorted(got.sign_classes) == sorted(want.sign_classes)
        if len(a) == 2:
            assert autonomous.classify_critical_point_2d(b) == \
                autonomous.classify_critical_point_2d(a)


CANDIDATES = [
    ("cubic_damping", "x1^2 + x2^2", {}),
    ("spring_mass", "0.5*k*x1^2 + 0.5*x2^2", {"k": 2.0}),
    ("exponential_feedback", "x1^2 + (1 + exp(-2*t))*x2^2", {}),
    ("cubic_modulated", "x1^2/2", {}),
    ("uniform_growth", "x1^2 + x2^2", {}),
    ("vanderpol", "x1^2 + x2^2", {}),
]
SCAN = ly.ScanConfig(points=1024)


def ladder(report: ly.LyapunovReport) -> tuple:
    """Every verdict of a report; the fitted constants scale with V."""
    return (report.conclusion, report.vdot_verdict,
            report.v_positive.established,
            report.vdot_margin and report.vdot_margin.exponent,
            report.decrescent.established, report.radially_unbounded,
            report.global_claim)


# The one sign test of the direct-method scans accepts a rate D <= 1e-9 *
# (1 + max |D|): the absolute part does not scale with V (ROADMAP item 3a).
# Scaled down, the growth of an unstable system reads as semidefinite, and
# "stable"; an instability witness W scaled down reads as trivial.
SCALE_DEFECTS = {("uniform_growth", 1e-10), ("growth", 1e-10)}
SCALES = (1e-10, 0.25, 3.0, 1000.0)


def scaled_cases(cases, name=lambda case: case[0]):
    return [pytest.param(*case, c, id=f"{name(case)}-{c:g}",
                         marks=pytest.mark.xfail(
                             strict=True, reason="sign floor with an absolute "
                             "part (ROADMAP item 3a)")
                         if (case[0], c) in SCALE_DEFECTS else ())
            for case in cases for c in SCALES]


@pytest.mark.parametrize("name,expression,params,c", scaled_cases(CANDIDATES))
def test_candidate_verdicts_are_invariant_under_scaling(name, expression,
                                                        params, c):
    system = gallery_system(name)
    want = ly.check_candidate(system, ly.CandidateV(expression, params=params),
                              scan=SCAN)
    scaled = ly.CandidateV(f"{c!r}*({expression})", params=params)
    assert ladder(ly.check_candidate(system, scaled, scan=SCAN)) == ladder(want)


# Uniformity in t is read on a ladder of windows out to 1000 spans past t0,
# so it does not hinge on the window a scan starts from or on its length.
# x' = -x/(1+t) converges, but neither uniformly nor exponentially: V = x1^2
# supports "uniformly stable" and nothing stronger, at every window.
@pytest.mark.parametrize("window", [{}, {"t0": 1000.0}, {"time_span": 5000.0}],
                         ids=["default", "t0=1000", "tspan=5000"])
def test_slowing_decay_reads_uniformly_stable_at_every_window(window):
    report = ly.check_candidate(gallery_system("slowing_decay"),
                                ly.CandidateV("x1^2"),
                                scan=ly.ScanConfig(**window))
    assert report.conclusion is ly.Conclusion.UNIFORMLY_STABLE
    assert report.vdot_verdict is ly.SignVerdict.NEGATIVE_SEMIDEFINITE


# log(2 + t) grows without bound: no time-free quadratic dominates it.  A
# periodic factor only oscillates, and must not read as growth.
@pytest.mark.parametrize("expression, decrescent", [
    ("log(2 + t)*x1^2", False), ("(2 + sin(t))*x1^2", True)])
def test_decrescence_tells_growth_from_oscillation(expression, decrescent):
    report = ly.check_candidate(gallery_system("modulated_decay"),
                                ly.CandidateV(expression), scan=SCAN)
    assert report.decrescent.established is decrescent


# An autonomous system with a time-free V does not know where t starts.
@pytest.mark.parametrize("name,expression,params", [
    case for case in CANDIDATES if gallery_system(case[0]).is_autonomous()])
def test_autonomous_verdicts_do_not_depend_on_t0(name, expression, params):
    def verdicts(t0):
        return ladder(ly.check_candidate(
            gallery_system(name), ly.CandidateV(expression, params=params),
            scan=ly.ScanConfig(points=1024, t0=t0)))

    assert verdicts(1000.0) == verdicts(0.0)


WITNESSES = [("uniform_growth", "x1^2 + x2^2"), ("saddle", "x1^2"),
             ("saddle", "x1^2 - x2^2"), ("cubic_damping", "x1^2 + x2^2")]


# The verdict and the sign test of Wdot.  The flags w_nonnegative and
# w_nontrivial read W against the same floor, so every W scaled to 1e-10
# reads as trivial; the verdict shows it where W is a witness.
@pytest.mark.parametrize("name,expression,c", scaled_cases(
    WITNESSES, lambda case: f"{case[0]}:{case[1].replace(' ', '')}"))
def test_instability_verdicts_are_invariant_under_scaling(name, expression,
                                                          c):
    def verdict(w):
        report = ly.check_instability(gallery_system(name), ly.CandidateV(w),
                                      scan=SCAN)
        return report.unstable, report.wdot_positive_definite

    assert verdict(f"{c!r}*({expression})") == verdict(expression)


MAPS = {"growth": ("1.5*x1", "1.5*x2"),
        "contraction": ("0.5*x1 + 0.2*x2", "-0.3*x2")}
CUBIC_V = "0.5*x1^2 + 2*x1*x2 + 4*x2^2"
DISCRETE = [("cubic_map", CUBIC_V), ("cubic_map_neutral", CUBIC_V),
            ("growth", "x1^2 + x2^2"), ("contraction", "x1^2 + x2^2")]


@pytest.mark.parametrize("name,expression,c", scaled_cases(DISCRETE))
def test_discrete_verdicts_are_invariant_under_scaling(name, expression, c):
    system = discrete.DiscreteSystem(2, MAPS[name]) if name in MAPS \
        else gallery_system(name)

    def verdict(v):
        report = discrete.classify_discrete(system, ly.CandidateV(v),
                                            samples=1024)
        return (report.conclusion, report.v_positive.established,
                report.delta_margin and report.delta_margin.exponent)

    assert verdict(f"{c!r}*({expression})") == verdict(expression)


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("step", [0.01, 0.1])
def test_euler_discretize_iterates_the_linear_map(name, step):
    a = MATRICES[name]
    n = len(a)
    x0 = np.linspace(0.3, -0.2, n)
    orbit = discrete.iterate(
        discrete.euler_discretize(SystemDef(n, Linear(a)), step),
        x0, 25)
    euler = np.eye(n) + step * a
    want = np.array([np.linalg.matrix_power(euler, k) @ x0 for k in range(26)])
    np.testing.assert_allclose(orbit.states, want, rtol=1e-12, atol=1e-15)
