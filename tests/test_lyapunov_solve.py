"""``solve_lyapunov``: the eigen-sum certificate and the eigenbasis solve.

The oracle below is the Kronecker solve with the singular-value test always
run.  Against it the refused inputs must be exactly the same, and P must be
bit for bit the same wherever the solve takes the Kronecker path (no
certificate, or a failed residual gate).  On the certified eigenbasis path P
must lie within ``16 eps cond max|P_oracle|`` of the oracle and of scipy's
Schur-based ``solve_continuous_lyapunov``, with ``eps = 2^-52`` and
``cond = 2 ||A||_2 kappa_2(V)^2 / min |lam_i + lam_j|`` the certificate's
bound on the operator's condition number.
"""

import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from stabkit import cli, linalg
from stabkit import lyapunov as ly
from stabkit.errors import DimensionMismatchError, SingularLyapunovOperatorError
from conftest import gallery_system

ROOT = Path(__file__).resolve().parent.parent
SOLVABLE = ("coupled_decay", "damped_oscillator", "damped_rotation",
            "damped_spring", "uniform_growth")
EPS = np.finfo(float).eps


def kron_solve(am, qm) -> np.ndarray:
    """The dense Kronecker solve, symmetrized."""
    n = am.shape[0]
    eye = np.eye(n)
    op = np.kron(eye, am.T) + np.kron(am.T, eye)
    vec_p = np.linalg.solve(op, -qm.reshape(-1, order="F"))
    p = vec_p.reshape((n, n), order="F")
    return 0.5 * (p + p.T)


def oracle_solve(a, q) -> np.ndarray:
    """Kronecker solve gated by the operator's singular values, always."""
    am = linalg.as_matrix(a, square=True)
    qm = linalg.as_matrix(q, square=True)
    n = am.shape[0]
    eye = np.eye(n)
    sv = np.linalg.svd(np.kron(eye, am.T) + np.kron(am.T, eye),
                       compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise SingularLyapunovOperatorError("oracle refuses")
    return kron_solve(am, qm)


def scipy_solve(a, q) -> np.ndarray:
    """scipy's Bartels-Stewart solve of ``A'P + PA = -Q``, symmetrized."""
    p = scipy.linalg.solve_continuous_lyapunov(np.asarray(a, float).T,
                                               -np.asarray(q, float))
    return 0.5 * (p + p.T)


def outcome(solve, a, q):
    try:
        return solve(a, q)
    except SingularLyapunovOperatorError:
        return None


def cond_bound(a) -> float:
    """``2 ||A||_2 kappa_2(V)^2 / min |lam_i + lam_j|`` of a certified A."""
    lam, vecs = ly._separation_certified(np.asarray(a, float))
    kappa = np.linalg.cond(vecs, 2)
    sep = np.abs(lam[:, None] + lam[None, :]).min()
    return 2.0 * np.linalg.norm(a, 2) * kappa * kappa / sep


def assert_close(got, want, a):
    bound = 16.0 * EPS * cond_bound(a) * np.abs(want).max()
    assert np.abs(got - want).max() <= bound, a


def assert_same(a, q=None, want=None):
    """Check ``solve_lyapunov(a, q)`` against the oracle (or ``want``, the
    oracle's P when known), and against scipy where the eigenbasis path
    ran; True when the oracle accepts ``a``."""
    am = np.asarray(a, float)
    q = np.eye(len(am)) if q is None else q
    if want is None:
        want = outcome(oracle_solve, am, q)
    got = outcome(ly.solve_lyapunov, am, q)
    assert (want is None) == (got is None), a
    if want is None:
        return False
    basis = ly._separation_certified(am)
    if basis is None or ly._eigenbasis_solve(am, q, *basis) is None:
        assert np.array_equal(want, got), a
    else:
        assert_close(got, want, am)
        assert_close(got, scipy_solve(am, q), am)
    return True


def perfbench_generate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", SOLVABLE)
def test_gallery_p_bit_identical_to_oracle(name):
    """Bit for bit on the Kronecker paths, within the bound elsewhere."""
    a = gallery_system(name).rhs.a
    assert ly._separation_certified(a) is not None
    assert assert_same(a)


def test_generated_stable_p_bit_identical_to_oracle():
    """n = 2..40, bit for bit on the Kronecker paths and within the bound
    elsewhere.  The oracle's P is the plain Kronecker solve, which the
    certificate shows the singular-value test would accept."""
    gen = perfbench_generate()
    rng = random.Random(4)
    for n in range(2, 41):
        a = np.array(gen.stable_linear(rng, f"s{n}", n)["a"])
        assert ly._separation_certified(a) is not None, n
        assert assert_same(a, want=kron_solve(a, np.eye(n))), n


def _shifted_gaussian(rng, n):
    return rng.normal(size=(n, n)) + rng.uniform(-3.0, 3.0) * np.eye(n)


def _cancel_pair(rng, d, lo, hi):
    """Set one entry of ``d`` to minus another, off by 10^U(lo, hi)."""
    i, j = rng.choice(len(d), 2, replace=False)
    d[j] = -d[i] + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)
    return d


def _similar_diagonal(rng, n):
    """Orthogonally similar to a diagonal with one pair cancelling to
    1e-16 .. 1e-8."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return u @ np.diag(_cancel_pair(rng, rng.normal(size=n), -16, -8)) @ u.T


def _cancelling_triangular(rng, n):
    """Upper triangular, one diagonal pair nearly cancelling, off-diagonal
    entries up to 1e8."""
    off = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(0.0, 8.0, size=(n, n))
    return np.diag(_cancel_pair(rng, rng.normal(size=n), -12, 0)) \
        + np.triu(off, 1)


def _scaled_gaussian(rng, n):
    return rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-8.0, 8.0)


@pytest.mark.parametrize("family, both_outcomes", [
    (_shifted_gaussian, False),
    (_similar_diagonal, True),
    (_cancelling_triangular, True),
    (_scaled_gaussian, False),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_accept_refuse_parity_with_oracle(family, both_outcomes):
    rng = np.random.default_rng(2026)
    seen = Counter()
    for _ in range(400):
        a = family(rng, int(rng.integers(2, 7)))
        seen[assert_same(a), ly._separation_certified(a) is not None] += 1
    assert seen[True, True] > 0  # the skip is exercised
    assert seen[False, True] == 0  # never skipped into a refusal
    if both_outcomes:
        assert seen[False, False] > 0 and seen[True, False] > 0, seen


def test_well_conditioned_stable_solve_skips_operator_svd(monkeypatch):
    """A certified solve builds no (n^2, n^2) operator: no ``np.kron``
    product and no singular values of one."""
    shapes = []
    kron, svd = np.kron, np.linalg.svd

    def spy(real):
        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            shapes.append(np.shape(args[0]))
            shapes.append(np.shape(out))
            return out
        return call

    monkeypatch.setattr(np, "kron", spy(kron))
    monkeypatch.setattr(np.linalg, "svd", spy(svd))
    rng = np.random.default_rng(5)
    for n in (5, 12, 40):
        a = -np.eye(n) + 0.1 * rng.normal(size=(n, n))
        ly.solve_lyapunov(a, np.eye(n))
        assert (n * n, n * n) not in shapes, n
    # the gray zone still builds the operator and asks its singular values
    with pytest.raises(SingularLyapunovOperatorError):
        ly.solve_lyapunov([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    assert shapes.count((4, 4)) == 3  # two kron products and the svd input


def test_failed_residual_gate_falls_back_to_the_oracle(monkeypatch):
    monkeypatch.setattr(ly, "GATE", -1.0)
    rng = np.random.default_rng(8)
    for n in (2, 5, 12):
        a = -np.eye(n) + 0.3 * rng.normal(size=(n, n))
        w = rng.normal(size=(n, n))
        q = w @ w.T
        assert ly._separation_certified(a) is not None
        assert np.array_equal(ly.solve_lyapunov(a, q), oracle_solve(a, q))


def test_cli_solves_a_generated_n40_system(tmp_path, capsys):
    doc = perfbench_generate().stable_linear(random.Random(40), "s40", 40)
    path = tmp_path / "s40.json"
    path.write_text(json.dumps(doc))
    assert cli.run(["lyapunov", "--system", str(path), "--solve"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["residual"] < 1e-9
    assert result["p_definiteness"] == "positive-definite"
    assert np.linalg.eigvalsh(np.array(result["p"])).min() > 0.0


@pytest.mark.parametrize("a", [
    gallery_system("harmonic_center").rhs.a,
    gallery_system("saddle").rhs.a,
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.zeros((2, 2)),
    np.zeros((1, 1)),
], ids=["harmonic_center", "saddle", "jordan_at_0", "zero_2x2", "zero_1x1"])
def test_refusals_still_raised(a):
    assert ly._separation_certified(a) is None
    with pytest.raises(SingularLyapunovOperatorError):
        ly.solve_lyapunov(a, np.eye(len(a)))


def test_zero_size_input_is_a_dimension_error():
    with pytest.raises(DimensionMismatchError):
        ly.solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0)))


def test_congruence_invariance():
    """``solve(T^-1 A T, T' Q T) = T' solve(A, Q) T``."""
    rng = np.random.default_rng(11)
    done = 0
    while done < 40:
        n = int(rng.integers(2, 7))
        t = rng.normal(size=(n, n))
        if np.linalg.cond(t) > 100.0:
            continue
        raw = rng.normal(size=(n, n))
        a = raw - (max(np.linalg.eigvals(raw).real) + 0.2) * np.eye(n)
        w = rng.normal(size=(n, n))
        q = w @ w.T + 0.5 * np.eye(n)
        p = ly.solve_lyapunov(a, q)
        moved = ly.solve_lyapunov(np.linalg.solve(t, a @ t), t.T @ q @ t)
        want = t.T @ p @ t
        assert np.abs(moved - want).max() <= 1e-9 * np.abs(want).max()
        done += 1
