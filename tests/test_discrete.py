import functools
import json
import timeit

import numpy as np
import pytest

from stabkit import discrete as dc
from stabkit import expr as ex
from stabkit import odeint
from stabkit import cli
from stabkit.errors import (DimensionMismatchError, InvalidArgumentError,
                            InvalidCandidateError, NotAFixedPointError,
                            SampleCapError)
from stabkit.lyapunov import CandidateV
from stabkit.odeint import SAMPLE_CAP
from conftest import gallery_system


CUBIC_V = "0.5*x1^2 + 2*x1*x2 + 4*x2^2"


def cubic_map(a: float) -> dc.DiscreteSystem:
    return dc.DiscreteSystem(2, ("x1 + x2", "a*pow(x1,3) + 0.5*x2"),
                             params={"a": a})


def closed_form_delta(a, x1, x2):
    return (-1.5 * x2 ** 2 + 2 * a * x1 ** 4 + 6 * a * x1 ** 3 * x2
            + 4 * a * a * x1 ** 6)


def test_euler_discretize_structure():
    sysd = odeint.SystemDef(1, odeint.Nonlinear(("-x1",)))
    disc = dc.euler_discretize(sysd, 0.1)
    want = ex.Binary("+", ex.Var("x1"),
                     ex.Binary("*", ex.Number(0.1), ex.parse("-x1")))
    assert disc.update[0] == want
    # one step from 1.0 is exactly 0.9
    assert dc.iterate(disc, [1.0], 1).states[-1][0] == pytest.approx(0.9)


def test_euler_discretize_linear_system():
    sysd = odeint.SystemDef(2, odeint.Linear(
        np.array([[0.0, 1.0], [-2.0, -1.0]])))
    disc = dc.euler_discretize(sysd, 0.01)
    x = np.array([0.3, -0.2])
    want = x + 0.01 * np.array([x[1], -2 * x[0] - x[1]])
    assert np.allclose(disc.steps(x[None])[0], want, atol=1e-15)


def test_euler_discretize_time_becomes_index():
    sysd = odeint.SystemDef(1, odeint.Nonlinear(("cos(t) - x1",)))
    disc = dc.euler_discretize(sysd, 0.5)
    # at k = 3 the continuous time is kT = 1.5
    got = disc.steps(np.array([[0.2]]), 3.0)[0]
    assert got[0] == pytest.approx(0.2 + 0.5 * (np.cos(1.5) - 0.2))


def test_euler_discretize_binds_a_parameter_named_k():
    # k is a parameter of the continuous system and the index of the
    # discrete one: x(k+1) = x + 0.5*(-2*x + 0.5*k)
    sysd = odeint.SystemDef(1, odeint.Nonlinear(("-k*x1 + t",)),
                            params={"k": 2.0})
    disc = dc.euler_discretize(sysd, 0.5)
    assert disc.params == {}
    assert disc.steps(np.array([[0.0]]), 4.0)[0, 0] == 1.0
    # with no parameter k, a continuous k is time and becomes T*k too
    plain = dc.euler_discretize(odeint.SystemDef(1, odeint.Nonlinear(
        ("k*x1",))), 0.5)
    assert plain.steps(np.array([[1.0]]), 4.0)[0, 0] == 2.0


def test_euler_discretize_refuses_delays():
    sysd = odeint.SystemDef(1, odeint.Linear([[-1.0]]),
                            delays=(odeint.Delay(1.0, [[5.0]]),))
    with pytest.raises(InvalidArgumentError, match="delays"):
        dc.euler_discretize(sysd, 0.1)


def test_euler_discretize_time_varying_linear_system():
    sysd = odeint.SystemDef(2, odeint.Linear(
        (("-1", "cos(t)"), ("0", "-2 - sin(t)"))))
    disc = dc.euler_discretize(sysd, 0.1)
    x = np.array([0.3, -0.2])
    for k in (0.0, 3.0, 17.0):
        a = sysd.linear_coefficient(0.1 * k)
        np.testing.assert_allclose(disc.steps(x[None], k)[0], x + 0.1 * a @ x,
                                   rtol=1e-15, atol=1e-16)


def test_euler_tracks_rk4_pendulum():
    sysd = gallery_system("pendulum")
    disc = dc.euler_discretize(sysd, 0.01)
    orbit = dc.iterate(disc, [0.1, 0.0], 100)
    reference = odeint.integrate(sysd, [0.1, 0.0], 0.0, 1.0, 1e-3)
    assert np.linalg.norm(orbit.states[-1] - reference.states[-1]) < 1e-2


def test_euler_first_order_defect():
    sysd = gallery_system("pendulum")
    reference = odeint.integrate(sysd, [0.3, 0.1], 0.0, 0.2, 1e-4)

    def one_step_defect(T):
        disc = dc.euler_discretize(sysd, T)
        idx = np.argmin(np.abs(reference.times - T))
        return np.linalg.norm(disc.steps(np.array([[0.3, 0.1]]))[0]
                              - reference.states[idx])

    big, small = one_step_defect(0.2), one_step_defect(0.1)
    assert small < big


def test_euler_orbit_converges_to_rk4():
    sysd = gallery_system("pendulum")
    reference = odeint.integrate(sysd, [0.1, 0.0], 0.0, 1.0, 1e-3).states[-1]
    errors = []
    for T in (0.1, 0.05, 0.025):
        disc = dc.euler_discretize(sysd, T)
        orbit = dc.iterate(disc, [0.1, 0.0], round(1.0 / T))
        errors.append(np.linalg.norm(orbit.states[-1] - reference))
    assert errors[0] > errors[1] > errors[2]


def test_iterate_geometric_decay():
    disc = dc.DiscreteSystem(1, ("0.9*x1",))
    orbit = dc.iterate(disc, [1.0], 10)
    assert orbit.states[-1][0] == pytest.approx(0.9 ** 10, rel=1e-14)
    assert not orbit.escaped


def test_iterate_identity_constant_orbit():
    disc = dc.DiscreteSystem(2, ("x1", "x2"))
    orbit = dc.iterate(disc, [0.3, -0.4], 25)
    assert np.all(orbit.states == np.array([0.3, -0.4]))


def test_iterate_cubic_map_first_step():
    orbit = dc.iterate(cubic_map(0.0), [1.0, 1.0], 1)
    assert np.allclose(orbit.states[-1], [2.0, 0.5])


def test_iterate_escape_flag():
    disc = dc.DiscreteSystem(1, ("2*x1",))
    orbit = dc.iterate(disc, [1.0], 100)
    assert orbit.escaped
    assert len(orbit.states) < 101


def test_iterate_escape_keeps_the_states_before_it():
    orbit = dc.iterate(dc.DiscreteSystem(1, ("10*x1",)), [1.0], 100)
    assert orbit.escaped
    assert orbit.states[:, 0].tolist() == [10.0 ** k for k in range(13)]
    assert orbit.indices.tolist() == list(range(13))


def test_iterate_caps_the_orbit():
    with pytest.raises(SampleCapError):
        dc.iterate(dc.DiscreteSystem(1, ("0.5*x1",)), [1.0], SAMPLE_CAP)


def test_delta_v_closed_form_point():
    v = CandidateV(CUBIC_V)
    assert dc.delta_v(cubic_map(0.0), v, [1.0, 1.0]) == pytest.approx(-1.5)
    assert dc.delta_v(cubic_map(0.0), CandidateV("0*x1"), [1.0, 1.0]) == 0.0


@pytest.mark.parametrize("a", [-1.0, 0.0, 0.5])
def test_delta_v_closed_form_grid(a):
    v = CandidateV(CUBIC_V)
    sysd = cubic_map(a)
    rng = np.random.default_rng(77)
    pts = rng.uniform(-1.0, 1.0, size=(100, 2))
    for x1, x2 in pts:
        got = dc.delta_v(sysd, v, [x1, x2])
        assert abs(got - closed_form_delta(a, x1, x2)) < 1e-12


@pytest.mark.parametrize("x, candidate", [
    ([0.5, 0.5, 0.5], CUBIC_V), ([0.5], CUBIC_V), ([[0.5, 0.5]], CUBIC_V),
    ([0.5, 0.5], "x1^2 + x2^2 + x3^2")],
    ids=["long-x", "short-x", "row-x", "V-reads-x3"])
def test_delta_v_refuses_what_does_not_fit_the_map(x, candidate):
    with pytest.raises(DimensionMismatchError):
        dc.delta_v(cubic_map(-1.0), CandidateV(candidate), x)


def test_delta_v_compiles_only_on_its_first_call(monkeypatch):
    generated, generate = [], ex._generate
    monkeypatch.setattr(ex, "_generate", lambda exprs, *a: generated.append(
        tuple(exprs)) or generate(exprs, *a))
    sysd, v = gallery_system("cubic_map"), CandidateV(CUBIC_V)
    first = dc.delta_v(sysd, v, [0.1, 0.2])
    compiled = len(generated)
    assert compiled == 2  # the update and V, one batch evaluator each
    for k in range(5):
        assert dc.delta_v(sysd, v, [0.1, 0.2], k) == first  # reads no k
    assert len(generated) == compiled


def test_delta_v_costs_at_most_82_us_per_call():
    # 82 us per call was the cost of delta_v on a 2-core host before Delta V
    # was compiled as one tree on each call; the best of 20 rounds, with the
    # collector off as in timeit
    sysd, v = gallery_system("cubic_map"), CandidateV(CUBIC_V)
    dc.delta_v(sysd, v, [0.1, 0.2])
    call = functools.partial(dc.delta_v, sysd, v, [0.1, 0.2])
    assert min(timeit.repeat(call, number=50, repeat=20)) / 50 <= 82e-6


SIN60 = "sin(" * 60 + "x1" + ")" * 60


def test_classify_composes_parts_each_within_the_bounds():
    # V at the update nests 120 sin calls, V and the update 60 each
    rep = dc.classify_discrete(dc.DiscreteSystem(2, (SIN60, "0.5*x2")),
                               CandidateV(f"{SIN60}^2 + x2^2"))
    assert rep.conclusion is dc.DiscreteConclusion.ASYMPTOTICALLY_STABLE


def test_cli_discrete_composes_parts_each_within_the_bounds(tmp_path, capsys):
    path = tmp_path / "sin60.json"
    path.write_text(json.dumps({"name": "sin60", "kind": "discrete",
                                "dimension": 2,
                                "expressions": [SIN60, "0.5*x2"]}))
    rc = cli.run(["discrete", "--system", str(path), "--candidate",
                  f"{SIN60}^2 + x2^2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["conclusion"] == "asymptotically-stable"


def test_classify_contracting_cubic():
    rep = dc.classify_discrete(cubic_map(-1.0), CandidateV(CUBIC_V), radius=0.3)
    assert rep.conclusion is dc.DiscreteConclusion.ASYMPTOTICALLY_STABLE
    assert rep.delta_margin is not None


def test_classify_neutral_cubic():
    rep = dc.classify_discrete(cubic_map(0.0), CandidateV(CUBIC_V), radius=0.3)
    assert rep.conclusion is dc.DiscreteConclusion.STABLE


def test_classify_rejecting_candidate():
    doubling = dc.DiscreteSystem(1, ("2*x1",))
    rep = dc.classify_discrete(doubling, CandidateV("x1^2"), radius=0.3)
    assert rep.conclusion is dc.DiscreteConclusion.NO_CONCLUSION


def test_classify_requires_fixed_point():
    shifted = dc.DiscreteSystem(1, ("x1 + 1",))
    with pytest.raises(NotAFixedPointError):
        dc.classify_discrete(shifted, CandidateV("x1^2"))


def test_classify_requires_candidate_zero_at_origin():
    # x2 doubles every step; with V(0) = 1 the sampled Delta V alone would
    # read asymptotically stable
    split = dc.DiscreteSystem(2, ("0.5*x1", "2*x2"))
    with pytest.raises(InvalidCandidateError, match=r"V\(0, k\) = 0"):
        dc.classify_discrete(split, CandidateV("1 + x1^2 - x2^2"))
    # checked at k0 only: V(0, 3) = 0, and then Delta V = 1 - 0.75 x1^2
    halving = dc.DiscreteSystem(1, ("0.5*x1",))
    shifted = CandidateV("x1^2 + k - 3")
    with pytest.raises(InvalidCandidateError):
        dc.classify_discrete(halving, shifted, k0=2)
    assert dc.classify_discrete(halving, shifted, k0=3).conclusion \
        is dc.DiscreteConclusion.NO_CONCLUSION


def test_gallery_cubic_maps(build):
    rep = dc.classify_discrete(build("cubic_map"), CandidateV(CUBIC_V))
    assert rep.conclusion is dc.DiscreteConclusion.ASYMPTOTICALLY_STABLE
    rep0 = dc.classify_discrete(build("cubic_map_neutral"), CandidateV(CUBIC_V))
    assert rep0.conclusion is dc.DiscreteConclusion.STABLE


def test_linear_discrete_consistency_with_spectrum():
    from stabkit import linalg

    rng = np.random.default_rng(55)
    for radius in (0.5, 1.5):
        for _ in range(5):
            raw = rng.normal(size=(2, 2))
            rho = max(abs(v) for v in np.linalg.eigvals(raw))
            m = raw * (radius / rho)
            update = tuple(
                f"{float(m[i, 0])!r}*x1 + {float(m[i, 1])!r}*x2"
                for i in range(2))
            disc = dc.DiscreteSystem(2, update)
            orbit = dc.iterate(disc, [1.0, 1.0], 200)
            decayed = (not orbit.escaped) and \
                np.linalg.norm(orbit.states[-1]) < 1e-6
            inside = all(abs(v) < 1 for v in linalg.eigenvalues(m))
            assert decayed == inside


def test_orbit_csv(tmp_path):
    orbit = dc.iterate(dc.DiscreteSystem(1, ("0.5*x1",)), [1.0], 3)
    path = tmp_path / "orbit.csv"
    orbit.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,x1"
    assert len(lines) == 5
    assert lines[-1].startswith("3,")
