import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from stabkit import linalg
from stabkit.errors import (AsymmetricError, InvalidArgumentError,
                             NonSquareError, SingularError)
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


@pytest.mark.parametrize("m, kind", [
    (np.diag([1e200, -1e200]), Definiteness.INDEFINITE),
    (1e200 * np.eye(2), Definiteness.POSITIVE_DEFINITE),
], ids=["indefinite", "definite"])
def test_definiteness_band_survives_entries_near_float_range(m, kind):
    # the Frobenius norm's squares overflow; the band must not become inf
    verdict = linalg.definiteness(m)
    assert verdict.kind is kind
    assert verdict.tol_band == pytest.approx(1e-9 * 2**0.5 * 1e200, rel=1e-12)
    with pytest.raises(AsymmetricError):
        linalg.definiteness([[1e200, 1e200], [0.0, 1e200]])


@pytest.mark.parametrize("m, kind", [
    (1e308 * np.eye(2), Definiteness.POSITIVE_DEFINITE),
    ([[1e308, 5e307], [5e307, 1e308]], Definiteness.POSITIVE_DEFINITE),
    (np.diag([1e308, -1e308]), Definiteness.INDEFINITE),
], ids=["diagonal", "coupled", "indefinite"])
def test_definiteness_symmetrizes_past_float_range(m, kind):
    # a + a' overflows; a warning would fail the test (RuntimeWarning is an
    # error under this suite's settings)
    verdict = linalg.definiteness(m)
    assert verdict.kind is kind and np.isfinite(verdict.eigenvalues).all()


@pytest.mark.parametrize("m, kind", [
    (np.diag([1.5e308, -1.5e308]), Definiteness.INDEFINITE),
    (np.diag([1.5e308, 1.5e308]), Definiteness.POSITIVE_DEFINITE),
], ids=["indefinite", "definite"])
def test_definiteness_where_the_frobenius_norm_overflows(m, kind):
    # ||m||_F = 2.1e308 is past float range; norm and band are taken on m
    # rescaled by a power of two, so the band stays finite
    verdict = linalg.definiteness(m)
    assert verdict.kind is kind
    assert verdict.tol_band == pytest.approx(1e-9 * 2**0.5 * 1.5e308,
                                             rel=1e-12)


@pytest.mark.parametrize("m", [[[0.0, 1e308], [-1e308, 0.0]],
                               [[1e308, 1e308], [-1e308, 1e308]]],
                         ids=["difference", "difference-and-norm"])
def test_asymmetry_past_float_range_is_asymmetric(m):
    with pytest.raises(AsymmetricError):
        linalg.definiteness(m)


def test_symmetric_part_is_the_plain_mean_where_the_sum_is_finite():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(8, 4, 4)) * 10.0 ** rng.integers(-300, 300, (8, 1, 1))
    want = 0.5 * (m + np.swapaxes(m, 1, 2))
    assert np.array_equal(linalg.symmetric_part(m), want)
    for a, w in zip(m, want):
        assert np.array_equal(linalg.symmetric_part(a), w)


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
    # a stack gives the largest of its nodes' values, as a float
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(7, 3, 3))
    measure = linalg.matrix_measure(stack)
    assert measure == max(linalg.matrix_measure(m) for m in stack)
    norm = linalg.spectral_norm(stack)
    assert norm == max(linalg.spectral_norm(m) for m in stack)
    assert type(measure) is float and type(norm) is float
    wide = rng.normal(size=(4, 2, 3))
    assert linalg.spectral_norm(wide) == max(map(linalg.spectral_norm, wide))


def _spectral_nodes(rng, r, c):
    """Random, rank-one, zero and tiny/huge nodes of shape (r, c)."""
    nodes = [rng.normal(size=(r, c)) for _ in range(20)]
    nodes += [np.outer(rng.normal(size=r), rng.normal(size=c))
              for _ in range(5)]
    nodes += [np.zeros((r, c))]
    nodes += [rng.normal(size=(r, c)) * 10.0 ** p
              for p in (-300, -300, 300, 300)]
    return np.array(nodes)


@pytest.mark.parametrize("r, c", [(1, 1), (2, 2), (3, 3), (6, 6), (2, 5),
                                  (5, 2), (1, 4), (30, 30)])
def test_spectral_norm_within_its_bound_of_the_svd(r, c):
    # the docstring's bound (max(r, c) + 4) min(r, c) u, plus the SVD's own
    # min(r, c) u, node by node; the stack gives the largest node's value
    rng = np.random.default_rng(r * 10 + c)
    nodes = _spectral_nodes(rng, r, c)
    u = 2.0 ** -53
    tol = ((max(r, c) + 4) * min(r, c) + min(r, c)) * u
    want = np.linalg.svd(nodes, compute_uv=False)[:, 0]
    got = np.array([linalg.spectral_norm(node) for node in nodes])
    assert np.all(np.abs(got - want) <= tol * want)
    assert got[25] == 0.0 and not np.signbit(got[25])
    assert linalg.spectral_norm(nodes) == got.max()
    assert linalg.spectral_norm(nodes[:26]) == got[:26].max()


def test_spectral_norm_of_a_non_symmetric_matrix_is_not_its_top_eigenvalue():
    a = np.array([[1.0, 100.0], [0.0, 1.0]])
    want = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(linalg.spectral_norm(a) - want) <= 1e-15 * want
    assert linalg.spectral_norm(np.full((2, 2), 1.5e308)) == np.inf


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
    for empty in (np.ones((0, 0)), np.ones((3, 0, 0)), np.ones((0, 2, 2))):
        with pytest.raises(InvalidArgumentError):
            linalg.matrix_measure(empty)
    with pytest.raises(NonSquareError):
        linalg.spectral_norm(np.ones((2, 2, 2, 2)))
    with pytest.raises(NonSquareError):
        linalg.as_matrix(np.ones((3, 2, 2)))


# --- stack suprema: pruned by cheap bounds, equal to the per-node maximum ------

_KINDS = ("normal", "diagonal", "tied", "zero", "huge", "tiny")


def _base(rng, r: int, c: int) -> np.ndarray:
    """A node whose bound is tight or loose: diagonal (the 1/inf bound is
    its norm), rank one (Frobenius is) or random."""
    kind = rng.integers(3)
    if kind == 0:
        node = np.zeros((r, c))
        np.fill_diagonal(node, rng.normal(size=min(r, c)))
        return node
    if kind == 1:
        return np.outer(rng.normal(size=r), rng.normal(size=c))
    return rng.normal(size=(r, c))


def _tie(rng, base: np.ndarray) -> np.ndarray:
    """``base`` or a copy whose value equals it to a few ulps: negated, rows
    or columns reversed, or scaled by ``1 + j 2**-52``."""
    kind = rng.integers(5)
    if kind == 1:
        return -base
    if kind == 2:
        return base[::-1].copy()
    if kind == 3:
        return base[:, ::-1].copy()
    if kind == 4:
        return base * (1.0 + int(rng.integers(-2, 3)) * 2.0 ** -52)
    return base


@st.composite
def _stacks(draw, square: bool):
    """A stack mixing random, diagonal, tied (equal or a few ulps apart),
    zero, near-overflow and tiny (down to subnormal) nodes, each scaled by
    10**k with k in [-300, 300]."""
    r = draw(st.sampled_from([1, 2, 3, 5, 8]))
    c = r if square else draw(st.sampled_from([1, 2, 3, 5]))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = _base(rng, r, c) * 10.0 ** draw(st.integers(-300, 300))
    nodes = []
    for kind in kinds:
        scale = 10.0 ** int(rng.integers(-300, 301))
        if kind == "normal":
            node = _base(rng, r, c) * scale
        elif kind == "diagonal":
            node = np.zeros((r, c))
            np.fill_diagonal(node, rng.normal(size=min(r, c)) * scale)
        elif kind == "tied":
            node = _tie(rng, base)
        elif kind == "zero":
            node = np.zeros((r, c))
        elif kind == "huge":  # entries near the largest float
            node = rng.uniform(-1.0, 1.0, size=(r, c)) * 1.79e308
        else:
            node = _base(rng, r, c) * 10.0 ** -rng.uniform(300, 320)
        nodes.append(node)
    return np.array(nodes)


#: scipy's and numpy's LAPACK routines differ by a few ulps of a subnormal
_SUBNORMAL = 2.0 ** -1068


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_stacks(square=False))
def test_stack_norm_is_the_largest_node_norm_bit_for_bit(stack):
    values = [_quiet(linalg.spectral_norm, node) for node in stack]
    assert _quiet(linalg.spectral_norm, stack) == max(values)
    r, c = stack.shape[1:]
    tol = ((max(r, c) + 4) * min(r, c) + min(r, c)) * 2.0 ** -53
    for node, value in zip(stack, values):  # scipy's SVD as the oracle
        want = scipy.linalg.svdvals(node)[0] if np.isfinite(value) else np.inf
        assert value == want or abs(value - want) <= tol * want + _SUBNORMAL


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_stacks(square=True))
def test_stack_measure_is_the_largest_node_measure_bit_for_bit(stack):
    values = [_quiet(linalg.matrix_measure, node) for node in stack]
    assert _quiet(linalg.matrix_measure, stack) == max(values)
    for node, value in zip(stack, values):  # scipy's eigvalsh as the oracle
        sym = 0.5 * node + 0.5 * node.T
        want = scipy.linalg.eigvalsh(sym)[-1]  # inf past float range
        e = np.frexp(np.abs(sym).max())[1]  # compare on the node's scale
        assert value == want or abs(value - want) <= _SUBNORMAL or \
            abs(np.ldexp(value, -e) - np.ldexp(want, -e)) <= 1e-12 * len(sym)


@pytest.mark.parametrize("d", [[1.0, 0.0], [1.0, 0.5], [3.0, -1.0]])
def test_stack_suprema_of_rotated_ties(d):
    # a diagonal node, whose bounds are tight, and its rotations, whose
    # values agree with it to a few ulps but whose bounds are looser: the
    # node of the largest bound is not always the node of the largest value
    d = np.diag(d)
    for angle in np.linspace(0.01, 1.5, 60):
        q = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        r = q @ d @ q.T
        for stack in (np.array([r, d]), np.array([d, r, -r, r.T])):
            assert linalg.spectral_norm(stack) == \
                max(map(linalg.spectral_norm, stack))
            assert linalg.matrix_measure(stack) == \
                max(map(linalg.matrix_measure, stack))


def _near_band(rng, n: int, offset: float) -> np.ndarray:
    """A symmetric node whose lowest eigenvalue sits ``offset`` (relative)
    below the band of :func:`linalg.definiteness`: exactly for a diagonal
    node, within rounding for a rotated one."""
    scale = 10.0 ** int(rng.integers(-300, 301))
    if rng.random() < 0.5:
        node = np.diag(rng.uniform(0.5, 2.0, size=n) * scale)
    else:
        g = rng.normal(size=(n, n))
        node = (g @ g.T + np.eye(n)) * scale
    e, _, band = linalg._band(node)
    low = np.linalg.eigvalsh(node)[0]
    node = node - (low + np.ldexp(band.item() * (1.0 + offset), e.item())) \
        * np.eye(n)
    return 0.5 * node + 0.5 * node.T


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_stacks(square=True), st.lists(st.sampled_from([-1e-15, 0.0, 1e-15]),
                                      max_size=6))
def test_stack_semidefinite_nodes_match_each_node(stack, offsets):
    n = stack.shape[1]
    rng = np.random.default_rng(len(offsets) + 7 * n)
    stack = np.concatenate(
        [stack, np.array([_near_band(rng, n, o) for o in offsets])
         .reshape(-1, n, n)])
    got = _quiet(linalg.semidefinite_nodes, stack)
    assert got.tolist() == [bool(linalg.semidefinite_nodes(node))
                            for node in stack]
    e, _, band = linalg._band(stack)  # every node through eigvalsh
    lowest = np.linalg.eigvalsh(linalg.symmetric_part(stack))[:, 0]
    assert got.tolist() == (np.ldexp(lowest, -e[:, 0, 0])
                            >= -band[:, 0, 0]).tolist()


def test_measure_halves_before_it_sums():
    huge = [[1e308, 0.0], [0.0, 1.0]]
    assert _quiet(linalg.matrix_measure, huge) == 1e308
    stack = np.array([np.eye(2), huge, [[1e308, 1e308], [1e308, 1e308]]])
    assert _quiet(linalg.matrix_measure, stack) == np.inf  # 2e308
    assert _quiet(linalg.matrix_measure, stack[:2]) == 1e308


@pytest.fixture
def eigvalsh_rows(monkeypatch):
    """The number of matrices ``eigvalsh`` has been given."""
    count, inner = [0], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return count


def test_smooth_stacks_run_eigvalsh_on_a_few_nodes(eigvalsh_rows):
    # the delay coefficient diag(c sin t) on the rate inequality's grid,
    # and P + I for the sampled P(t) = exp(-t) I: the bounds are exact on
    # these diagonal nodes, so about one node of 4,001 is evaluated
    times = np.linspace(0.0, 50.0, 4001)
    delay = np.sin(times)[:, None, None] * (np.exp(-0.2) / 40) * np.eye(2)
    p = np.exp(-np.linspace(0.0, 5.0, 4001))[:, None, None] * np.eye(2)
    want = max(linalg.spectral_norm(node) for node in delay)
    for stack, value in [(delay, want), (p + np.eye(2), 2.0)]:
        eigvalsh_rows[0] = 0
        assert linalg.spectral_norm(stack) == value
        assert eigvalsh_rows[0] <= 3
    eigvalsh_rows[0] = 0
    assert linalg.semidefinite_nodes(p).all()
    assert eigvalsh_rows[0] == 0
