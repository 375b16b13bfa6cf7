import numpy as np
import pytest

from stabkit import autonomous as aut
from stabkit.errors import (
    ContinuumOfEquilibriaError,
    NotAnEquilibriumError,
)
from stabkit.autonomous import CriticalPointKind as CP, StabilityKind as SK
from conftest import gallery_system


PLANAR_CASES = [
    ([[-3, 1], [1, -3]], SK.ASYMPTOTICALLY_STABLE, CP.IMPROPER_NODE),
    ([[1, 0], [0, 1]], SK.COMPLETELY_UNSTABLE, CP.PROPER_NODE),
    ([[1, 0], [0, -1]], SK.UNSTABLE, CP.SADDLE),
    ([[0, 1], [-4, 0]], SK.STABLE_MARGINAL, CP.CENTER),
    ([[-1, 1], [-1, -1]], SK.ASYMPTOTICALLY_STABLE, CP.SPIRAL),
]


@pytest.mark.parametrize("a,kind,cp", PLANAR_CASES)
def test_planar_classification(a, kind, cp):
    verdict = aut.classify_linear(a)
    assert verdict.kind is kind
    assert aut.classify_critical_point_2d(a) is cp


def test_bibo_flag():
    assert aut.classify_linear([[-3, 1], [1, -3]]).bibo
    assert not aut.classify_linear([[0, 1], [-4, 0]]).bibo
    assert not aut.classify_linear([[1, 0], [0, -1]]).bibo


def test_marginal_band_travels_with_verdict():
    verdict = aut.classify_linear([[0, 1], [-4, 0]], tol=1e-9)
    assert verdict.tol_band == pytest.approx(1e-9 * (1 + np.sqrt(17.0)))
    assert verdict.sign_classes == ("zero", "zero")


def test_repeated_zero_eigenvalue_is_inconclusive():
    assert aut.classify_linear(np.zeros((2, 2))).kind is SK.INCONCLUSIVE
    assert aut.classify_linear([[0, 1], [0, 0]]).kind is SK.INCONCLUSIVE
    # one simple zero eigenvalue: marginal
    assert aut.classify_linear(np.diag([0.0, -1.0])).kind is SK.STABLE_MARGINAL


def test_similarity_invariance():
    rng = np.random.default_rng(12)
    done = 0
    while done < 30:
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        s = rng.normal(size=(n, n))
        if np.linalg.cond(s) > 100:
            continue
        sim = s @ a @ np.linalg.inv(s)
        assert aut.classify_linear(a).kind is aut.classify_linear(sim).kind
        done += 1


def test_taxonomy_verdict_consistency():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        a = rng.normal(size=(2, 2))
        try:
            cp = aut.classify_critical_point_2d(a)
        except ContinuumOfEquilibriaError:
            continue
        kind = aut.classify_linear(a).kind
        if cp is CP.SADDLE:
            assert kind is SK.UNSTABLE
        elif cp is CP.CENTER:
            assert kind is SK.STABLE_MARGINAL
        elif cp is CP.SPIRAL:
            re = aut.classify_linear(a).eigenvalues[0].real
            if re < -1e-9:
                assert kind is SK.ASYMPTOTICALLY_STABLE


def test_critical_point_singular_matrix():
    with pytest.raises(ContinuumOfEquilibriaError):
        aut.classify_critical_point_2d([[1.0, 2.0], [2.0, 4.0]])


def test_degenerate_node():
    # repeated eigenvalue with a one-dimensional eigenspace
    assert aut.classify_critical_point_2d([[-1, 1], [0, -1]]) is CP.DEGENERATE


def test_equilibrium_affine():
    assert np.allclose(
        aut.equilibrium_affine(-np.eye(2), np.zeros((2, 2)), [1.0, 2.0]),
        [0.0, 0.0])
    x = aut.equilibrium_affine(-np.eye(2), np.eye(2), [1.0, 2.0])
    assert np.allclose(-np.eye(2) @ x + np.eye(2) @ np.array([1.0, 2.0]), 0.0)
    assert np.allclose(x, [1.0, 2.0])
    with pytest.raises(ContinuumOfEquilibriaError):
        aut.equilibrium_affine([[1, 1], [1, 1]], np.eye(2), [1.0, 0.0])


def test_jacobian_quadratic_drag_origin():
    sysd = gallery_system("quadratic_drag")
    jac = aut.jacobian_fd(sysd, [0.0, 0.0])
    assert np.allclose(jac, [[0, 1], [2, -1]], atol=1e-6)


def test_jacobian_recovers_linear_rhs():
    sysd = gallery_system("damped_spring")
    jac = aut.jacobian_fd(sysd, [0.3, -0.2])
    assert np.allclose(jac, [[0, 1], [-2, -1]], atol=1e-6)


def test_jacobian_pendulum_inverted_point():
    sysd = gallery_system("pendulum")
    jac = aut.jacobian_fd(sysd, [np.pi, 0.0])
    assert np.allclose(jac, [[0, 1], [1, 0]], atol=1e-6)


def test_jacobian_exact_for_quadratics():
    sysd = gallery_system("quadratic_drag")  # polynomial degree 2
    jac = aut.jacobian_fd(sysd, [0.7, -0.4])
    x1, x2 = 0.7, -0.4
    exact = np.array([[0.0, 1.0], [2.0 * (1.0 - x1), -(1.0 + 2.0 * x2)]])
    assert np.abs(jac - exact).max() <= 1e-10


def test_find_equilibria_quadratic_drag():
    sysd = gallery_system("quadratic_drag")
    eqs = aut.find_equilibria(sysd, [[0.1, 0.1], [1.8, 0.2]], tol=1e-10)
    points = np.array([eq.point for eq in eqs])
    assert len(eqs) == 2
    assert np.allclose(points[0], [0.0, 0.0], atol=1e-8)
    assert np.allclose(points[1], [2.0, 0.0], atol=1e-8)
    assert all(eq.residual < 1e-10 for eq in eqs)
    assert all(eq.isolated for eq in eqs)


def test_find_equilibria_prey_predator():
    sysd = gallery_system("prey_predator")
    eqs = aut.find_equilibria(sysd, [[0.05, 0.05], [1.9, 0.6]], tol=1e-10)
    points = sorted(tuple(np.round(eq.point, 6)) for eq in eqs)
    assert np.allclose(points[0], (0.0, 0.0), atol=1e-8)
    assert np.allclose(points[1], (2.0, 0.5), atol=1e-8)


def test_find_equilibria_linear_origin():
    sysd = gallery_system("damped_spring")
    eqs = aut.find_equilibria(sysd, [[0.9, -0.7]], tol=1e-12)
    assert len(eqs) == 1
    assert np.allclose(eqs[0].point, [0.0, 0.0], atol=1e-10)


def test_local_stability_verdicts():
    sysd = gallery_system("quadratic_drag")
    unstable = aut.local_stability(sysd, [0.0, 0.0])
    assert unstable.conclusion is SK.UNSTABLE
    assert unstable.local
    eig = sorted(v.real for v in unstable.linear_verdict.eigenvalues)
    assert np.allclose(eig, [-2.0, 1.0], atol=1e-6)

    stable = aut.local_stability(sysd, [2.0, 0.0])
    assert stable.conclusion is SK.ASYMPTOTICALLY_STABLE
    want = sorted(np.roots([1.0, 1.0, 2.0]), key=lambda z: z.imag)
    got = sorted(stable.linear_verdict.eigenvalues, key=lambda z: z.imag)
    assert np.allclose(got, want, atol=1e-6)


def test_local_stability_pendulum_saddle():
    sysd = gallery_system("pendulum")
    report = aut.local_stability(sysd, [np.pi, 0.0])
    assert report.conclusion is SK.UNSTABLE
    assert report.critical_point is CP.SADDLE


def test_local_stability_marginal_is_inconclusive():
    sysd = gallery_system("pendulum")
    report = aut.local_stability(sysd, [0.0, 0.0])
    assert report.conclusion is SK.INCONCLUSIVE
    assert report.critical_point is CP.CENTER
    assert "linearization" in report.note


def test_local_stability_rejects_non_equilibrium():
    sysd = gallery_system("quadratic_drag")
    with pytest.raises(NotAnEquilibriumError):
        aut.local_stability(sysd, [0.5, 0.5])
