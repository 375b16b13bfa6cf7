import dataclasses
import math

import numpy as np
import pytest

from stabkit import autonomous as aut
from stabkit import floquet as fl
from stabkit.errors import InvalidArgumentError
from stabkit.odeint import (
    Delay,
    Linear,
    Nonlinear,
    SystemDef,
    compile_matrix,
)
from conftest import gallery_doc, gallery_system


def periodic(entries, period):
    return SystemDef(len(entries), Linear(entries), period=period)


def constant_system(a, period=1.0):
    # "+ 0*t" keeps the grid time-varying, so these exact answers check the
    # compiled-grid march and not the folded constant
    entries = tuple(tuple(f"{float(v)!r} + 0*t" for v in row) for row in a)
    return periodic(entries, period)


def test_monodromy_constant_diagonal():
    sysd = constant_system([[-1.0, 0.0], [0.0, -1.0]], period=1.0)
    m = fl.monodromy(sysd, 1e-3)
    assert np.abs(m - math.exp(-1.0) * np.eye(2)).max() < 1e-9


def test_monodromy_zero_matrix():
    sysd = constant_system([[0.0, 0.0], [0.0, 0.0]], period=2.0)
    assert np.allclose(fl.monodromy(sysd, 1e-2), np.eye(2))


def test_monodromy_rotating_determinant():
    sysd = gallery_system("periodic_rotation")
    m = fl.monodromy(sysd, 1e-3)
    det = np.linalg.det(m)
    assert det == pytest.approx(math.exp(-6.0 * math.pi), rel=1e-6)


def test_multipliers_identity():
    assert fl.multipliers(np.eye(3)) == [1.0 + 0j] * 3


def test_multipliers_rotating_system():
    sysd = gallery_system("periodic_rotation")
    mults = fl.multipliers(fl.monodromy(sysd, 1e-3))
    real = [m for m in mults if abs(m.imag) < 1e-12]
    pair = sorted((m for m in mults if abs(m.imag) >= 1e-12),
                  key=lambda z: z.imag)
    assert len(real) == 1 and len(pair) == 2
    assert real[0].real == pytest.approx(2.566519e-5, rel=1e-3)
    assert pair[1].real == pytest.approx(0.008405, rel=1e-3)
    assert pair[1].imag == pytest.approx(0.013532, rel=1e-3)


def test_liouville_rotating_system():
    sysd = gallery_system("periodic_rotation")
    mults = fl.multipliers(fl.monodromy(sysd, 1e-3))
    lhs, rhs, gap = fl.liouville_check(sysd, mults)
    assert rhs == pytest.approx(math.exp(-6.0 * math.pi), rel=1e-10)
    assert lhs == pytest.approx(6.512412e-9, rel=1e-4)
    assert gap < 1e-4


def test_liouville_trace_free():
    sysd = constant_system([[0.0, 1.0], [-1.0, 0.0]], period=2 * math.pi)
    mults = fl.multipliers(fl.monodromy(sysd, 1e-3))
    lhs, rhs, gap = fl.liouville_check(sysd, mults)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert lhs == pytest.approx(1.0, rel=1e-9)


def test_liouville_constant_decay():
    sysd = constant_system([[-1.0, 0.0], [0.0, -1.0]], period=1.0)
    mults = fl.multipliers(fl.monodromy(sysd, 1e-3))
    lhs, rhs, _ = fl.liouville_check(sysd, mults)
    assert lhs == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert rhs == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_liouville_gap_shrinks_with_step():
    # fourth-order integrator: the determinant defect falls ~16x per halving
    sysd = periodic((("-0.2", "sin(t)"), ("cos(t)", "-0.4")), 2 * math.pi)

    def gap(h):
        mults = fl.multipliers(fl.monodromy(sysd, h))
        return fl.liouville_check(sysd, mults)[2]

    assert gap(0.02) / gap(0.01) > 6.0


def test_classify_periodic():
    V = fl.PeriodicVerdict
    assert fl.classify_periodic([1.5 + 0j]) is V.UNSTABLE
    assert fl.classify_periodic([1.0 + 0j, 0.3 + 0j]) is V.STABLE_NOT_ASYMPTOTIC
    assert fl.classify_periodic([0.2 + 0.1j, 0.2 - 0.1j]) is V.ASYMPTOTICALLY_STABLE
    sysd = gallery_system("periodic_rotation")
    mults = fl.multipliers(fl.monodromy(sysd, 1e-3))
    assert fl.classify_periodic(mults) is V.ASYMPTOTICALLY_STABLE


def test_constant_coefficient_consistency():
    rng = np.random.default_rng(8)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        raw = rng.normal(size=(n, n))
        shift = max(v.real for v in np.linalg.eigvals(raw)) + 0.4
        a = raw - shift * np.eye(n)
        T = 1.0
        mults = fl.multipliers(fl.monodromy(constant_system(a, T), 1e-3))
        lams = aut.classify_linear(a).eigenvalues
        want = sorted((np.exp(complex(l) * T) for l in lams),
                      key=lambda z: (z.real, z.imag))
        got = sorted(mults, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


def test_period_doubling_squares_multipliers():
    sysd = gallery_system("periodic_rotation")
    base = fl.multipliers(fl.monodromy(sysd, 1e-3))
    doubled_sys = dataclasses.replace(sysd, period=2 * sysd.period)
    doubled = fl.multipliers(fl.monodromy(doubled_sys, 1e-3))
    want = sorted((m * m for m in base), key=lambda z: (z.real, z.imag))
    got = sorted(doubled, key=lambda z: (z.real, z.imag))
    assert np.allclose(got, want, rtol=1e-5, atol=1e-12)
    assert fl.classify_periodic(doubled) is fl.classify_periodic(base)


def test_periodicity_spot_check():
    with pytest.raises(ValueError):
        periodic((("t",),), period=1.0)  # not periodic in t


def test_full_report():
    rep = fl.floquet_report(gallery_system("periodic_rotation"), h=1e-3)
    assert rep.verdict is fl.PeriodicVerdict.ASYMPTOTICALLY_STABLE
    assert rep.relative_gap < 1e-6
    assert len(rep.multipliers) == 3
    assert rep.step == 1e-3


def test_gallery_period_matches_entries():
    doc = gallery_doc("periodic_rotation")
    assert doc.document["period"] == pytest.approx(2 * math.pi)


def test_liouville_integrates_batched_traces_like_the_per_time_scan():
    sysd = gallery_system("periodic_rotation")
    mults = fl.multipliers(fl.monodromy(sysd, 1e-3))
    _, rhs, _ = fl.liouville_check(sysd, mults)
    ts = np.linspace(0.0, sysd.period, 10_001)
    w = np.ones(10_001)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    at = compile_matrix(sysd.rhs.a, sysd.params)
    traces = np.array([np.trace(at(float(t))) for t in ts])
    want = math.exp(sysd.period / 10_000 / 3.0 * (w @ traces))
    assert rhs == pytest.approx(want, rel=1e-14)


def test_constant_coefficient_multipliers_are_exp_t_lambda():
    # metamorphic: P(t) = A gives multipliers exp(T lambda_i); the period is
    # not a multiple of the step, so the trailing partial step is taken too
    a = np.array([[-0.5, 2.0], [-1.0, -0.3]])
    T = 1.7005
    mults = fl.multipliers(fl.monodromy(constant_system(a, T), 1e-3))
    want = sorted(np.exp(T * np.linalg.eigvals(a)),
                  key=lambda z: (z.real, z.imag))
    got = sorted(mults, key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_periodicity_spot_check_names_first_failing_time():
    with pytest.raises(ValueError, match=r"checked t=0\.1370"):
        periodic((("sin(t)", "t"), ("0", "0")), period=1.0)


def test_periodic_file_builds_a_systemdef():
    sysd = gallery_system("periodic_rotation")
    assert isinstance(sysd, SystemDef)
    assert isinstance(sysd.rhs, Linear)
    assert sysd.period == gallery_doc("periodic_rotation").document["period"]
    assert sysd.delays == ()


def test_period_override_rebuilds_and_rechecks():
    sysd = gallery_system("periodic_rotation")
    with pytest.raises(ValueError, match=r"checked t=0\.1370"):
        dataclasses.replace(sysd, period=1.0)
    with pytest.raises(ValueError, match="period must be finite"):
        dataclasses.replace(sysd, period=math.nan)


def test_constant_rhs_with_period_matches_its_expression_grid():
    a = np.array([[-0.5, 2.0], [-1.0, -0.3]])
    const = SystemDef(2, Linear(a), period=1.7)
    grid = constant_system(a, 1.7)
    assert not isinstance(grid.rhs.a, np.ndarray)
    mults = fl.multipliers(fl.monodromy(const, 1e-3))
    assert fl.liouville_check(const, mults) == fl.liouville_check(grid, mults)


REFUSED = {
    "no period": SystemDef(2, Linear((("-1", "sin(t)"),
                                      ("0", "-1")))),
    "nonlinear": SystemDef(2, Nonlinear(("-x1 + sin(t)*x2", "-x2^3")),
                           period=2 * math.pi),
    "delays": SystemDef(2, Linear(-np.eye(2)),
                        delays=(Delay(0.5, np.eye(2) / 10),),
                        period=1.0),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
@pytest.mark.parametrize("call", [
    lambda s: fl.monodromy(s, 1e-2),
    lambda s: fl.liouville_check(s, [1.0, 1.0]),
    lambda s: fl.floquet_report(s, h=1e-2),
], ids=["monodromy", "liouville", "report"])
def test_entry_points_refuse_non_periodic_systems(name, call):
    with pytest.raises(InvalidArgumentError, match="Floquet analysis needs"):
        call(REFUSED[name])
