import numpy as np
import pytest

from stabkit import linalg
from stabkit.errors import AsymmetricError, NonSquareError, SingularError
from stabkit.linalg import Definiteness


def test_eigenvalues_coupled_decay():
    vals = linalg.eigenvalues([[-3, 1], [1, -3]])
    assert np.allclose(sorted(v.real for v in vals), [-4.0, -2.0], atol=1e-10)
    assert all(abs(v.imag) < 1e-12 for v in vals)


def test_eigenvalues_identity():
    assert linalg.eigenvalues(np.eye(2)) == [1.0 + 0j, 1.0 + 0j]


def test_eigenvalues_pure_imaginary_pair():
    vals = linalg.eigenvalues([[0, 1], [-4, 0]])
    assert np.allclose(sorted(v.imag for v in vals), [-2.0, 2.0], atol=1e-10)
    assert all(abs(v.real) < 1e-10 for v in vals)


def test_eigenvalues_nonsquare():
    with pytest.raises(NonSquareError):
        linalg.eigenvalues(np.ones((2, 3)))


def test_eigenvalue_residual_property():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n))
        norm = np.linalg.norm(m, "fro")
        for lam in linalg.eigenvalues(m):
            res = abs(np.linalg.det(m - lam * np.eye(n)))
            assert res < 1e-9 * (1.0 + norm) ** n


def test_conjugate_closure():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        vals = linalg.eigenvalues(rng.normal(size=(n, n)))
        spectrum = sorted(vals, key=lambda z: (z.real, z.imag))
        conj = sorted((v.conjugate() for v in vals),
                      key=lambda z: (z.real, z.imag))
        assert np.allclose([v.real for v in spectrum], [v.real for v in conj])
        assert np.allclose([v.imag for v in spectrum], [v.imag for v in conj],
                           atol=1e-9)


def test_trace_determinant_consistency():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n))
        vals = linalg.eigenvalues(m)
        assert np.isclose(sum(vals).real, np.trace(m), rtol=1e-8, atol=1e-8)
        assert np.isclose(np.prod(vals).real, np.linalg.det(m),
                          rtol=1e-8, atol=1e-8)


def test_definiteness_examples():
    assert linalg.definiteness([[1.25, 0.25], [0.25, 0.25]]).kind \
        is Definiteness.POSITIVE_DEFINITE
    assert linalg.definiteness([[1, -1], [-1, 1]]).kind \
        is Definiteness.POSITIVE_SEMIDEFINITE
    assert linalg.definiteness(np.zeros((2, 2))).kind \
        is Definiteness.POSITIVE_SEMIDEFINITE


def test_definiteness_asymmetric():
    with pytest.raises(AsymmetricError):
        linalg.definiteness([[1, 2], [0, 1]])


def test_definiteness_brute_force_oracle():
    rng = np.random.default_rng(99)
    dirs_cache = {}
    for _ in range(30):
        n = int(rng.integers(2, 6))
        raw = rng.normal(size=(n, n))
        s = 0.5 * (raw + raw.T)
        verdict = linalg.definiteness(s)
        if n not in dirs_cache:
            d = rng.normal(size=(10_000, n))
            dirs_cache[n] = d / np.linalg.norm(d, axis=1, keepdims=True)
        dirs = dirs_cache[n]
        forms = np.einsum("ij,jk,ik->i", dirs, s, dirs)
        tol = 1e-9 * (1.0 + np.linalg.norm(s, "fro"))
        if verdict.kind is Definiteness.POSITIVE_DEFINITE:
            assert forms.min() > 0.0
        elif verdict.kind is Definiteness.NEGATIVE_DEFINITE:
            assert forms.max() < 0.0
        elif verdict.kind is Definiteness.POSITIVE_SEMIDEFINITE:
            assert forms.min() > -tol
        elif verdict.kind is Definiteness.NEGATIVE_SEMIDEFINITE:
            assert forms.max() < tol
        else:
            assert forms.min() < 0.0 < forms.max()


def test_principal_minors():
    assert np.allclose(linalg.principal_minors([[2, -1], [-1, 6]]), [2.0, 11.0])
    assert np.allclose(linalg.principal_minors(np.eye(3)), [1, 1, 1])
    assert np.allclose(linalg.principal_minors([[1, -1], [-1, 1]]), [1.0, 0.0],
                       atol=1e-12)


def test_matrix_measure():
    want = -3.0 + 0.5 * np.sqrt(4.25)
    assert abs(linalg.matrix_measure([[-2, 0.5], [-1, -4]]) - want) < 1e-12
    assert abs(linalg.matrix_measure(np.eye(4)) - 1.0) < 1e-12
    assert abs(linalg.matrix_measure([[0, 1], [-1, 0]])) < 1e-12


def test_spectral_norm():
    a = np.exp(-0.4) * np.diag([1 / 3, 1 / 3])
    assert abs(linalg.spectral_norm(a) ** 2 - np.exp(-0.8) / 9) < 1e-15
    assert abs(linalg.spectral_norm(np.eye(3)) - 1.0) < 1e-14
    assert abs(linalg.spectral_norm(np.diag([3.0, -4.0])) - 4.0) < 1e-14


def test_measure_bounded_by_spectral_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        assert linalg.matrix_measure(a) <= linalg.spectral_norm(a) + 1e-12


def test_solve_dense():
    assert np.allclose(linalg.solve_dense(np.eye(3), [1, 2, 3]), [1, 2, 3])
    assert np.allclose(linalg.solve_dense(np.diag([2.0, 4.0]), [2, 8]), [1, 2])
    a = np.array([[-3.0, 1.0], [1.0, -3.0]])
    x = linalg.solve_dense(a, [-2.0, -2.0])
    assert np.allclose(a @ x, [-2.0, -2.0], atol=1e-12)
    assert np.allclose(x, [1.0, 1.0])


def test_solve_dense_singular():
    with pytest.raises(SingularError):
        linalg.solve_dense([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_stacked_measure_and_norm_match_per_matrix():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(7, 3, 3))
    assert np.array_equal(linalg.matrix_measure(stack),
                          [linalg.matrix_measure(m) for m in stack])
    assert np.array_equal(linalg.spectral_norm(stack),
                          [linalg.spectral_norm(m) for m in stack])
    assert isinstance(linalg.spectral_norm(stack[0]), float)
    assert linalg.spectral_norm(rng.normal(size=(4, 2, 3))).shape == (4,)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"),
                                 -1e-9])
def test_tolerances_must_be_finite_and_nonnegative(tol):
    from stabkit import alpha, autonomous, floquet
    from stabkit.errors import InvalidArgumentError
    from conftest import gallery_system

    with pytest.raises(InvalidArgumentError, match="tolerance"):
        autonomous.classify_linear([[-3.0, 1.0], [1.0, -3.0]], tol)
    with pytest.raises(InvalidArgumentError, match="tolerance"):
        autonomous.find_equilibria(gallery_system("pendulum"), [[0.1, 0.0]],
                                   tol=tol)
    with pytest.raises(InvalidArgumentError, match="tolerance"):
        floquet.floquet_report(gallery_system("periodic_rotation"), tol=tol)
    with pytest.raises(InvalidArgumentError, match="residual_tol"):
        alpha.certify(gallery_system("delay_coupled"), 0.1,
                      alpha.CertificateRoute.RATE_INEQUALITY, horizon=0.0,
                      residual_tol=tol)


def test_stacked_measure_and_norm_reject_bad_input():
    stack = np.ones((3, 2, 2))
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        linalg.matrix_measure(stack)
    with pytest.raises(ValueError, match="finite"):
        linalg.spectral_norm(stack)
    with pytest.raises(NonSquareError):
        linalg.matrix_measure(np.ones((3, 2, 3)))
    with pytest.raises(NonSquareError):
        linalg.spectral_norm(np.ones((2, 2, 2, 2)))
    with pytest.raises(NonSquareError):
        linalg.as_matrix(np.ones((3, 2, 2)))
