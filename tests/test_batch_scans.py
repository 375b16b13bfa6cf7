"""Batched sample scans against point-by-point scans on the scalar oracle.

The scans evaluate V, Vdot, Delta V, the Sylvester minors and the attraction
ladder over all sample rows at once.  These tests pin them to per-point
recurrences on the tree-walking oracle of ``scalar_oracle``: Halton and the
ball sampler bit for bit, V and Vdot within rtol 1e-12, verdicts equal, and
a domain error named at the first sample where the oracle meets one.  The
samples are stored component-major; the evaluators give the same bits on a
row-major copy.  The W3 minors, one jet evaluation of Vdot, equal those of
the symbolic route (``scalar_oracle.w3_minors``) bit for bit.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stabkit import discrete as dc
from stabkit import expr as ex
from stabkit import lyapunov as ly
from stabkit import odeint, sampling
from stabkit.errors import DomainError, InvalidArgumentError, NoRegionError
from stabkit.lyapunov import CandidateV, ScanConfig
from stabkit.sampling import ball_points, halton, sphere_directions
from stabkit.schema import load_system, to_jsonable
import scalar_oracle as oracle
from conftest import GALLERY, deadline, gallery_system
from golden_helpers import (GOLDEN_CANDIDATES, candidate_system, compare,
                            scan_candidates)

FAST_SCAN = ScanConfig(points=1024)
EPS = np.finfo(float).eps
PRIMES = oracle.PRIMES

DISCRETE_V = "0.5*x1^2 + 2*x1*x2 + 4*x2^2"
MODULATED = (("1 - a*cos((x1^2 + x2^2)*t)", "a*sin((x1^2 + x2^2)*t)"),
             ("a*sin((x1^2 + x2^2)*t)", "1 + a*cos((x1^2 + x2^2)*t)"))
SYLVESTER_FORMS = {
    "growing": ((("t", "-cos(t)"), ("-cos(t)", "t")), {}, 1.0),
    "amplitude_half": (MODULATED, {"a": 0.5}, 0.0),
    "amplitude_one": (MODULATED, {"a": 1.0}, 0.0),
}


def _same_report(got, want):
    diffs = compare(to_jsonable(got), to_jsonable(want))
    assert not diffs, "\n".join(diffs[:20])


# --- Halton -------------------------------------------------------------------

@pytest.mark.parametrize("start", [0, 1, 2, 11, 2**17 - 2000])
def test_halton_bit_identical_to_scalar_recurrence(start):
    count = 4500  # crosses the 4096-index runs of the base-2 digit table
    got = halton(count, len(PRIMES), start)
    want = np.array([[oracle.radical_inverse(i, b) for b in PRIMES]
                     for i in range(start, start + count)])
    assert got.tobytes() == want.tobytes()


def test_halton_empty_and_single():
    assert halton(0, 3).shape == (0, 3)
    assert halton(1, 2, start=0).tolist() == [[0.0, 0.0]]


# --- the ball sampler ---------------------------------------------------------

@functools.cache
def _ball_oracle(dim: int, exclude: float) -> np.ndarray:
    # 4,096 points up to n = 6; at n = 12 the oracle walks about 3,000 cube
    # points per ball point, so 65
    return oracle.ball_loop(4096 if dim <= 6 else 65, dim, 0.3, exclude)


@pytest.mark.parametrize("exclude", [0.0, 0.3e-3], ids=["core-0", "core-1e-3r"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 12])
def test_ball_points_match_the_per_index_oracle(dim, exclude):
    # bit-identical, and each count a prefix of the longer draws
    want = _ball_oracle(dim, exclude)
    for count in [c for c in (1, 63, 64, 65, 4096) if c <= len(want)]:
        got = ball_points(count, dim, 0.3, exclude)
        assert got.shape == (count, dim)
        assert got.tobytes() == want[:count].tobytes()


def _halton_spy(monkeypatch) -> list:
    draws = []

    def spy(count, dims, start=1):
        draws.append(count)
        return halton(count, dims, start)

    monkeypatch.setattr(sampling, "halton", spy)
    return draws


def test_ball_draws_stay_under_the_row_cap(monkeypatch):
    # at n = 12 the ball is 3.3e-4 of the cube: the sized draw for 256
    # points would be 981,000 cube points
    draws = _halton_spy(monkeypatch)
    got = ball_points(256, 12, 0.3)
    assert len(draws) > 1 and max(draws) == sampling.DRAW_CAP
    assert got[:65].tobytes() == _ball_oracle(12, 0.0).tobytes()


@pytest.mark.parametrize("dim, count", [(2, 65536), (3, 16384), (4, 8192),
                                        (5, 4096), (6, 4096), (2, 1)])
def test_ball_draws_are_one_round_at_scan_sizes(monkeypatch, dim, count):
    draws = _halton_spy(monkeypatch)
    ball_points(count, dim, 1.0, exclude=1e-9)
    assert len(draws) == 1 and draws[0] <= sampling.DRAW_CAP


def test_ball_points_refuse_an_empty_dimension():
    with deadline(5.0), pytest.raises(InvalidArgumentError):
        ball_points(4, 0, 1.0)


# --- layout ---------------------------------------------------------------------

def test_samples_are_component_major():
    for X in (halton(100, 3), ball_points(100, 3, 0.5),
              sphere_directions(100, 3), ly._scan_points(
                  4, 1.0, FAST_SCAN, True)[0]):
        assert X.T.flags.c_contiguous


def _same_bits(got, want):
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_scan_evaluators_give_the_same_bits_on_a_row_major_copy():
    # n = 5, so that a reduction over the components would see the order
    n = 5
    X, T = ly._scan_points(n, 0.8, FAST_SCAN, True)
    C = np.ascontiguousarray(X)
    assert C.flags.c_contiguous and not X.flags.c_contiguous
    sysd = odeint.SystemDef(n, odeint.Nonlinear(
        ("-x1 + x2*x3*sin(t)", "-x2 + exp(-x4^2)*x1", "-x3 + x5^3",
         "-x4*(1 + x1^2)", "-x5 + x1*x2*x3*x4")))
    v = CandidateV("x1^2 + 2*x2^2 + x3^2*(1 + cos(t)) + x4^4 + x5^2")
    both = ex.compile_expr_vec(ly._trees(sysd, v))
    _same_bits(ly._batch_values(both, X, T), ly._batch_values(both, C, T))
    _same_bits([v.values(X, T)], [v.values(C, T)])
    _same_bits([sampling.column_norms(X.T)], [sampling.column_norms(C.T)])
    H = halton(1000, 12)  # past 8 components numpy's row sums pair them up
    _same_bits([sampling.column_norms(H.T)],
               [sampling.column_norms(np.ascontiguousarray(H).T)])
    values = v.values(X, T)
    norms = sampling.column_norms(X.T)
    assert ly._fit_lower_bound(values, norms, X) == \
        ly._fit_lower_bound(values, norms, C)
    step = dc.DiscreteSystem(n, ("0.5*x1 + x2^2", "0.5*x2 - x3*x1",
                                 "0.25*sin(x3)", "x4*x5", "0.5*x5"))
    _same_bits(dc._batch_deltas(step, v, X, 0), dc._batch_deltas(step, v, C, 0))
    form = ly.QuadraticFormTV([[f"{1 + i + j} + x{i + 1}*x{j + 1}*cos(t)"
                                for j in range(n)] for i in range(n)])
    times = np.linspace(0.0, 5.0, 7)
    _same_bits(ly._sylvester_batch(form, X[:300], times),
               ly._sylvester_batch(form, C[:300], times))
    _same_bits([form.matrices(X, T)], [form.matrices(C, T)])


# --- V, Vdot and Delta V ------------------------------------------------------

@pytest.mark.parametrize("name, expression, params, radius", GOLDEN_CANDIDATES)
def test_batched_v_and_vdot_match_scalar_loop(monkeypatch, name, expression,
                                              params, radius):
    monkeypatch.setattr(ly, "BLOCK", 500)  # several blocks per scan
    sysd = candidate_system(name)
    v = CandidateV(expression, params=params)
    X, T = ly._scan_points(2, radius, FAST_SCAN, ly._time_dependent(sysd, v))
    v_batch, vd_batch = ly._batch_values(
        ex.compile_expr_vec(ly._trees(sysd, v)), X, T)
    v_loop, vd_loop = oracle.sample_values(sysd, v, X, T)
    np.testing.assert_allclose(v_batch, v_loop, rtol=1e-12, atol=0.0)
    # numpy's exp/log/pow may differ from libm's in the last bits, and a
    # Vdot that cancels to near 0 keeps their absolute size
    np.testing.assert_allclose(vd_batch, vd_loop, rtol=1e-12,
                               atol=1e-15 * np.abs(vd_loop).max())


@pytest.mark.parametrize("name, expression, params, radius", GOLDEN_CANDIDATES)
def test_batched_candidate_report_matches_scalar_loop(monkeypatch, name,
                                                      expression, params,
                                                      radius):
    sysd = candidate_system(name)
    v = CandidateV(expression, params=params)
    batch = ly.check_candidate(sysd, v, radius=radius, scan=FAST_SCAN)
    monkeypatch.setattr(ly, "_batch_values",
                        lambda both, X, T: oracle.sample_values(sysd, v, X, T))
    loop = ly.check_candidate(sysd, v, radius=radius, scan=FAST_SCAN)
    assert batch.conclusion is loop.conclusion
    assert batch.vdot_verdict is loop.vdot_verdict
    _same_report(batch, loop)


@pytest.mark.parametrize("name, expression", [
    ("uniform_growth", "x1^2 + x2^2"), ("saddle", "x1^2 - x2^2"),
    ("cubic_damping", "x1^2 + x2^2")])
def test_batched_instability_report_matches_scalar_loop(monkeypatch, name,
                                                        expression):
    sysd = gallery_system(name)
    v = CandidateV(expression)
    batch = ly.check_instability(sysd, v, scan=FAST_SCAN)
    monkeypatch.setattr(ly, "_batch_values",
                        lambda both, X, T: oracle.sample_values(sysd, v, X, T))
    loop = ly.check_instability(sysd, v, scan=FAST_SCAN)
    assert batch.unstable == loop.unstable
    _same_report(batch, loop)


@pytest.mark.parametrize("name", ["cubic_map", "cubic_map_neutral"])
def test_batched_delta_v_matches_scalar_loop(monkeypatch, name):
    monkeypatch.setattr(dc, "BLOCK", 300)
    sysd = gallery_system(name)
    v = CandidateV(DISCRETE_V)
    X = ball_points(1024, 2, 0.3, exclude=0.3e-9)
    v_batch, d_batch = dc._batch_deltas(sysd, v, X, 0)
    v_loop, d_loop = oracle.delta_values(sysd, v, X, 0)
    np.testing.assert_allclose(v_batch, v_loop, rtol=1e-12, atol=0.0)
    # Delta V is a difference of two V values, each within a few ulps
    np.testing.assert_allclose(d_batch, d_loop, rtol=1e-12,
                               atol=4.0 * EPS * np.abs(v_loop).max())
    batch = dc.classify_discrete(sysd, v, samples=1024)
    monkeypatch.setattr(dc, "_batch_deltas", oracle.delta_values)
    loop = dc.classify_discrete(sysd, v, samples=1024)
    assert batch.conclusion is loop.conclusion
    _same_report(batch, loop)


# --- domain errors --------------------------------------------------------------

# V leaves its domain where x1 >= 0.5; the right-hand side where x1 >= 0.3
FAILING = "x1^2 + x2^2 + 0*log(0.5 - x1)"
FAILING_RHS = ("-x1 + 0*log(0.3 - x1)", "-x2")


def _first_of_several(fn, rows):
    """Index of the first row at which ``fn`` raises.  Asserts that it fails
    mid-scan and that a later row fails too, so that a locator naming any
    other failing row is caught."""
    rows = list(rows)
    found = oracle.first_failure(fn, rows)
    assert found is not None
    k = found[0]
    assert 0 < k and oracle.first_failure(fn, rows[k + 1:]) is not None
    return k


def _assert_names(err, k, where):
    assert err.row == k
    assert str(err).endswith(f" at {where}")


def _scan_failure_parity(check, sysd, v):
    # the per-point scan order: V at every sample, then Vdot
    X, T = ly._scan_points(2, 1.0, FAST_SCAN, ly._time_dependent(sysd, v))
    rows = list(zip(X, T))
    if oracle.first_failure(lambda x, t: oracle.value(v, x, t), rows):
        k = _first_of_several(lambda x, t: oracle.value(v, x, t), rows)
    else:
        k = _first_of_several(oracle.vdot_along(sysd, v), rows)
    with pytest.raises(DomainError) as got:
        check(sysd, v, scan=FAST_SCAN)
    _assert_names(got.value, k, f"x={tuple(X[k].tolist())}, t={float(T[k])!r}")


@pytest.mark.parametrize("check", [ly.check_candidate, ly.check_instability])
def test_domain_error_parity_mid_scan(check):
    _scan_failure_parity(check, gallery_system("cubic_damping"),
                         CandidateV(FAILING))


@pytest.mark.parametrize("check", [ly.check_candidate, ly.check_instability])
@pytest.mark.parametrize("candidate", ["x1^2 + x2^2", FAILING])
def test_domain_error_parity_vdot_after_v(check, candidate):
    # Vdot fails from x1 = 0.3 on; where V fails too (x1 >= 0.5), the first
    # V failure is named although an earlier sample's Vdot fails
    sysd = odeint.SystemDef(2, odeint.Nonlinear(FAILING_RHS))
    _scan_failure_parity(check, sysd, CandidateV(candidate))


def _discrete_failure_parity(sysd, v):
    # V at every sample, then Delta V
    X = ball_points(1024, 2, 0.3, exclude=0.3e-9)
    rows = [(x,) for x in X]
    if oracle.first_failure(lambda x: oracle.value(v, x, 0.0), rows):
        k = _first_of_several(lambda x: oracle.value(v, x, 0.0), rows)
    else:
        k = _first_of_several(
            lambda x: oracle.delta_values(sysd, v, [x], 0), rows)
    with pytest.raises(DomainError) as got:
        dc.classify_discrete(sysd, v, samples=1024)
    _assert_names(got.value, k, f"x={tuple(X[k].tolist())}, k=0")


def test_domain_error_parity_discrete():
    _discrete_failure_parity(gallery_system("cubic_map"),
                             CandidateV("x1^2 + x2^2 + 0*log(0.1 - x1)"))


def test_domain_error_parity_discrete_delta_v():
    sysd = dc.DiscreteSystem(2, ("x1 + x2 + 0*log(0.1 - x1)",
                                 "-pow(x1,3) + 0.5*x2"))
    _discrete_failure_parity(sysd, CandidateV("x1^2 + x2^2"))


def test_domain_error_parity_sylvester():
    form = ly.QuadraticFormTV((("1 + 0*log(0.5 - x1)", "0"), ("0", "t")))
    X = ball_points(64, 2, 1.0 - 1e-12)
    times = 1.0 + np.linspace(0.0, 50.0, 16)
    k = _first_of_several(lambda x, t: oracle.matrix_at(form, x, t),
                          [(x, t) for x in X for t in times])
    with pytest.raises(DomainError) as got:
        ly.sylvester_tv(form, t0=1.0, x_points=64, time_samples=16)
    x, t = X[k // len(times)], times[k % len(times)]
    _assert_names(got.value, k, f"x={tuple(x.tolist())}, t={float(t)!r}")


def test_window_ladder_that_fails_to_evaluate_is_not_uniform():
    # log leaves its domain past t = 100: inside the ladder, not the window
    v = CandidateV("(x1^2 + x2^2)*(1 + 0*log(100 - t))")
    rep = ly.check_candidate(gallery_system("cubic_damping"), v,
                             scan=FAST_SCAN)
    stop = ("the window ladder up to t=50000.0 fails to evaluate (invalid "
            "value encountered in log): uniformity in t is not established")
    assert rep.notes[1] == stop
    assert not rep.v_positive.established and rep.v_positive.note == stop
    assert not rep.decrescent.established and rep.decrescent.note == stop
    assert rep.conclusion is ly.Conclusion.NO_CONCLUSION


def test_overflowing_intermediate_raises_at_first_sample():
    # the product overflows where x1 > 0.71 although 0/inf would be 0: the
    # scans refuse every overflowing intermediate, as the oracle does
    sysd = gallery_system("cubic_damping")
    v = CandidateV("x1^2 + x2^2 + 0/(1 + exp(500*x1)*exp(500*x1))")
    X, T = ly._scan_points(2, 1.0, FAST_SCAN, ly._time_dependent(sysd, v))
    k = _first_of_several(lambda x, t: oracle.value(v, x, t), zip(X, T))
    with pytest.raises(DomainError) as got:
        ly.check_candidate(sysd, v, scan=FAST_SCAN)
    _assert_names(got.value, k, f"x={tuple(X[k].tolist())}, t={float(T[k])!r}")


def test_radial_probe_counts_overflow_while_growing_as_unbounded():
    # exp(r^2) is finite at r = 10 and overflows at r = 100 on every ray
    assert ly._radial_probe(CandidateV("exp(x1^2 + x2^2) - 1"), 2, 0.0, 1.0)
    # rays with x1 > 0.5 fail at the first radius: no growth seen
    assert not ly._radial_probe(CandidateV(FAILING), 2, 0.0, 1.0)


@pytest.mark.parametrize("expression, most, unbounded", [
    ("x1^2 + x2^2", 1, True), ("exp(x1^2 + x2^2) - 1", 40, True),
    (FAILING, 2, False)])
def test_radial_probe_evaluates_radius_by_radius_only_on_failure(
        monkeypatch, expression, most, unbounded):
    v = CandidateV(expression)
    calls = []
    values = v.values
    monkeypatch.setattr(v, "values", lambda X, t: calls.append(len(X))
                        or values(X, t))
    assert ly._radial_probe(v, 2, 0.0, 1.0) is unbounded
    assert 1 <= len(calls) <= most and (most > 1 or calls == [128])


_RAY_START = st.sampled_from([-1.0, -0.0, 0.0, 1e-13, 1e-12, 0.5, 1.0, 3.0])
_RAY_STEP = st.sampled_from([0.5, 1.0, 10.0, 99.0, 100.0, 1000.0])


@st.composite
def _ray(draw, start=_RAY_START, step=_RAY_STEP, first=(0, 1, 2, 3, 4)):
    """V on one ray (``start`` times running products of ``step``, so with
    ties and decreasing steps) and its failures from radius ``first`` on;
    a value at a failing radius is noise the decision must ignore."""
    values = draw(start) * np.cumprod([1.0] + draw(st.lists(step, min_size=3,
                                                            max_size=3)))
    j = draw(st.sampled_from(first))
    failed = np.array([k == j or (k > j and draw(st.booleans()))
                       for k in range(4)])
    values[failed] = draw(st.floats(-1e3, 1e3))
    return values, failed


@st.composite
def _radial_grid(draw):
    """(32, 4) values and failures: either every ray drawn freely, or
    passing rays with up to two free rays among them, which decide."""
    if draw(st.booleans()):
        rays = [draw(_ray()) for _ in range(32)]
    else:
        passing = _ray(st.sampled_from([1e-13, 0.5, 3.0]),
                       st.sampled_from([10.0, 100.0, 1000.0]), (2, 3, 4, 4))
        rays = [draw(passing) for _ in range(32)]
        for _ in range(draw(st.integers(0, 2))):
            rays[draw(st.integers(0, 31))] = draw(_ray())
    return np.array([v for v, _ in rays]), np.array([f for _, f in rays])


def _one_ray(ray, failed=(False,) * 4):
    """31 rays that pass and ``ray``: the grid whose verdict is that ray's."""
    values = np.tile([1.0, 10.0, 100.0, 1000.0], (32, 1))
    mask = np.zeros((32, 4), dtype=bool)
    values[5], mask[5] = ray, failed
    return values, mask


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_radial_grid())
@example(_one_ray([1.0, 1.0, 1.0, 99.0]))        # short of 100x
@example(_one_ray([1.0, 1.0, 1.0, 100.0]))       # ties, then exactly 100x
@example(_one_ray([1e-13, 1e-13, 1e-13, 5e-11]))  # short of 100 * 1e-12
@example(_one_ray([0.0, 0.0, 0.0, 1e-10]))       # exactly 100 * 1e-12
@example(_one_ray([1.0, 2.0, 1.5, 1e3]))         # one decreasing step
@example(_one_ray([1.0, 5.0, 0.0, 7.0], (False, False, True, True)))
@example(_one_ray([1.0, 1.0, 9.0, 9.0], (False, False, True, False)))
@example(_one_ray([5.0, 9.0, 0.0, 0.0], (False, True, False, False)))
@example(_one_ray([9.0, 1.0, 2.0, 3.0], (True, False, False, False)))
def test_radial_verdict_matches_the_per_ray_loop(grid):
    values, failed = grid
    assert ly._radial_verdict(values, failed) == oracle.radial_loop(values, failed)


@pytest.mark.parametrize("name, expression, params, radius", GOLDEN_CANDIDATES
                         + [(None, FAILING, {}, 1.0),
                            (None, "exp(x1^2 + x2^2) - 1", {}, 1.0)])
def test_radial_probe_matches_the_point_by_point_oracle(name, expression,
                                                        params, radius):
    v = CandidateV(expression, params=params)
    assert ly._radial_probe(v, 2, FAST_SCAN.t0, radius) == \
        oracle.radial_probe(v, 2, FAST_SCAN.t0, radius)


def test_w3_minors_none_on_domain_error():
    v = CandidateV("x1^2 + x2^2")
    good = odeint.SystemDef(2, odeint.Nonlinear(("-x1", "-x2")))
    assert ly._w3_quadratic_minors(2, ly._trees(good, v)[1], 0.0) == \
        pytest.approx((2.0, 4.0))
    # the derivative of abs divides by 0 at the origin
    bad = odeint.SystemDef(2, odeint.Nonlinear(("-x1 + x1*abs(x1)", "-x2")))
    assert ly._w3_quadratic_minors(2, ly._trees(bad, v)[1], 0.0) is None


def _load_generate():
    """``perfbench/generate.py`` as a module, read only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _w3_pair(sysd, v, t0):
    """The W3 minors of V along ``sysd`` at t0: one jet, and the symbolic
    oracle's n + n(n+1)/2 derivative trees."""
    vdot = ly._trees(sysd, v)[1]
    n = sysd.dimension
    return ly._w3_quadratic_minors(n, vdot, t0), oracle.w3_minors(n, vdot, t0)


def _gallery_quadratics():
    """Every undelayed continuous gallery system with V = sum of x_i^2."""
    for path in sorted(GALLERY.glob("*.json")):
        doc = load_system(path)
        if doc.kind in ("discrete", "delay"):
            continue
        sysd = doc.build()
        yield path.stem, sysd, CandidateV(" + ".join(
            f"x{i + 1}^2" for i in range(sysd.dimension)))


@pytest.mark.parametrize("name, expression, params, radius", GOLDEN_CANDIDATES)
def test_w3_minors_equal_the_symbolic_oracle_on_goldens(name, expression,
                                                        params, radius):
    got, want = _w3_pair(candidate_system(name),
                         CandidateV(expression, params=params), FAST_SCAN.t0)
    assert repr(got) == repr(want)


def test_w3_minors_equal_the_symbolic_oracle_on_the_gallery():
    for name, sysd, v in _gallery_quadratics():
        for t0 in (0.0, 0.7):
            got, want = _w3_pair(sysd, v, t0)
            assert repr(got) == repr(want), (name, t0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_w3_minors_equal_the_symbolic_oracle_on_scan_ops(seed):
    cases = list(scan_candidates(_load_generate(), seed))
    assert len(cases) == 21
    for where, what, sysd, v, t0 in cases:
        got, want = _w3_pair(sysd, v, t0)
        assert repr(got) == repr(want), (where, what)


W3_DOMAIN = {  # first field component with -x2, V = x1^2 + x2^2: minors
    "sqrt at 0": ("-x1 + x1*sqrt(x1^2 + x2^2)", None),
    "sqrt of a quartic at 0": ("-x1 + sqrt(x1^4 + x2^4)", None),
    "abs of a cubic at 0": ("-x1 + abs(x1^3)", None),
    "variable exponent, base 0": ("-x1 + x1*(x1^2)^x2", None),
    "variable exponent, base < 0": ("-x1 + x1*(0 - 2)^x2", None),
    "fractional power at 0": ("-x1 + x1^1.5", None),
    "abs of a difference that folds to 0": ("-x1 + abs(x2 - x2)", (2.0, 4.0)),
    "abs of a difference 0 at t0": ("-x1 + abs(cos(t)*x2 - x2)", None),
    "zero factor of abs": ("-x1 + 0*abs(x1)", (2.0, 4.0)),
    "zero factor of a power": ("-x1 + x1^1.5*0", (2.0, 4.0)),
    "zero exponent": ("-x1 + x2*abs(x1)^0", (2.0, 3.0)),
    # only a literal 0 factor drops the other: these are 0 in value
    "factor 0 in value": ("-x1 + x2*0*sqrt(x1)", None),
    "difference 0 in value": ("-x1 + (x1 - x1)*abs(x1)", None),
    "zero numerator": ("-x1 + 0/abs(x1)", None),
}


@pytest.mark.parametrize("field, minors", W3_DOMAIN.values(), ids=W3_DOMAIN)
def test_w3_minors_keep_the_domain_rules_of_the_derivative_trees(field,
                                                                 minors):
    sysd = odeint.SystemDef(2, odeint.Nonlinear((field, "-x2")))
    got, want = _w3_pair(sysd, CandidateV("x1^2 + x2^2"), 0.0)
    assert repr(got) == repr(want)
    assert got == (None if minors is None else pytest.approx(minors))


def test_w3_minors_build_no_derivative_tree(monkeypatch):
    sysd = gallery_system("exponential_feedback")
    vdot = ly._trees(sysd, CandidateV("x1^2 + (1 + exp(-2*t))*x2^2"))[1]
    calls = []
    monkeypatch.setattr(ex, "derivative",
                        lambda *args: calls.append(args) or 1 / 0)
    assert ly._w3_quadratic_minors(2, vdot, 0.0) == \
        pytest.approx((2.0, 11.0))
    assert not calls


def test_w3_minors_past_the_derivative_size_limits():
    # the second derivative trees of a 300-factor product chain break the
    # nesting limit, which left the parent without minors; the jet builds none
    sysd = odeint.SystemDef(2, odeint.Nonlinear(
        ("-x1 + 1e-300*" + "*".join(["x1"] * 300), "-x2")))
    v = CandidateV("x1^2 + x2^2")
    vdot = ly._trees(sysd, v)[1]
    assert oracle.w3_minors(2, vdot, 0.0) is None
    assert ly._w3_quadratic_minors(2, vdot, 0.0) == (2.0, 4.0)
    rep = ly.check_candidate(sysd, v, scan=ScanConfig(points=256))
    assert rep.vdot_verdict is ly.SignVerdict.NEGATIVE_DEFINITE
    assert rep.w3_minors == (2.0, 4.0)


# --- Sylvester ------------------------------------------------------------------

def _sequential_worst(minors: np.ndarray) -> int:
    """The row rule of the per-point Sylvester loop."""
    running = np.full(minors.shape[1], np.inf)
    worst = 0
    for row, m in enumerate(minors):
        k = int(np.argmin(m - running))
        if m[k] < running[k]:
            worst = row
        running = np.minimum(running, m)
    return worst


@pytest.mark.parametrize("form", sorted(SYLVESTER_FORMS))
@pytest.mark.parametrize("block", [ly.BLOCK, 1000, 1])
def test_sylvester_worst_row_follows_sequential_rule(monkeypatch, form, block):
    entries, params, t0 = SYLVESTER_FORMS[form]
    q = ly.QuadraticFormTV(entries, params=params)
    X = ball_points(64, 2, 1.0 - 1e-12)
    times = t0 + np.linspace(0.0, 50.0, 64)
    rows = np.arange(len(X) * len(times))
    m = q.matrices(X[rows // len(times)], times[rows % len(times)])
    minors = np.column_stack([np.linalg.det(m[:, :k, :k]) for k in (1, 2)])
    monkeypatch.setattr(ly, "BLOCK", block)
    running, worst = ly._sylvester_batch(q, X, times)
    assert worst == _sequential_worst(minors)
    assert running.tolist() == minors.min(axis=0).tolist()


@pytest.mark.parametrize("form", sorted(SYLVESTER_FORMS))
@pytest.mark.parametrize("x_points, time_samples", [(64, 64), (256, 128)])
def test_sylvester_matches_scalar_loop(monkeypatch, form, x_points,
                                       time_samples):
    entries, params, t0 = SYLVESTER_FORMS[form]
    q = ly.QuadraticFormTV(entries, params=params)
    batch = ly.sylvester_tv(q, t0=t0, x_points=x_points,
                            time_samples=time_samples)
    monkeypatch.setattr(ly, "_sylvester_batch", oracle.sylvester_loop)
    loop = ly.sylvester_tv(q, t0=t0, x_points=x_points,
                           time_samples=time_samples)
    assert batch.positive_definite == loop.positive_definite
    assert batch.worst_point == loop.worst_point
    assert batch.worst_time == loop.worst_time
    np.testing.assert_allclose(batch.min_minors, loop.min_minors,
                               rtol=1e-12, atol=1e-14)


# --- attraction -----------------------------------------------------------------

@pytest.mark.parametrize("name, cmax", [("vanderpol", 1.0),
                                        ("cross_coupled", 4.0),
                                        ("vanderpol_integral", 3.0)])
@pytest.mark.parametrize("levels, directions", [(48, 256), (96, 1024)])
def test_attraction_ladder_batches_match_level_by_level(monkeypatch, name,
                                                        cmax, levels,
                                                        directions):
    sysd = gallery_system(name)
    batched = ly.attraction_region(sysd, np.eye(2), cmax, levels=levels,
                                   directions=directions)
    monkeypatch.setattr(ly, "BLOCK", 1)  # one level per batch
    per_level = ly.attraction_region(sysd, np.eye(2), cmax, levels=levels,
                                     directions=directions)
    assert batched == per_level


@pytest.mark.parametrize("name, cmax", [("vanderpol", 10.0),
                                        ("cross_coupled", 40.0),
                                        ("vanderpol_integral", 30.0)])
@pytest.mark.parametrize("q", [np.eye(2), np.array([[1.0, 0.5], [0.5, 4.0]])],
                         ids=["q-identity", "q-coupled"])
def test_attraction_with_weight_matches_x_p_f_oracle(name, cmax, q):
    # an SPD P that is not the identity: the Lyapunov solution of the
    # linearization, so that Vdot < 0 near the origin; c* is bisected
    sysd = gallery_system(name)
    p = ly.solve_lyapunov(sysd.jacobian(np.zeros(2), 0.0), q)
    got = ly.attraction_region(sysd, p, cmax, directions=256)
    want = oracle.attraction_loop(sysd, p, cmax, directions=256)
    assert got < cmax
    assert abs(got - want) <= cmax * 2.0**-40  # one bisection step


# Vdot of x'x is 2 r^2 (1e-12 - r^2): positive only inside the excluded core
# of radius 1e-6, so evaluating one core point changes c*
CORE_REPELLER = ("x1*(1e-12 - x1^2 - x2^2)", "x2*(1e-12 - x1^2 - x2^2)")


@pytest.mark.parametrize("field, weight", [
    ("vanderpol", "identity"), ("vanderpol", "lyapunov"),
    (CORE_REPELLER, "identity")], ids=["vanderpol", "vanderpol-lyapunov-p",
                                       "core-repeller"])
@pytest.mark.parametrize("block", [ly.BLOCK, 256])
def test_attraction_masked_ladder_matches_oracle(monkeypatch, field, weight,
                                                 block):
    # P = I: level 1 lies at radius 6.5e-7, inside the 1e-6 exclusion, level
    # 48 at 4.5e-6; with the Lyapunov P the radius also varies by direction
    cmax = 2e-11
    sysd = gallery_system(field) if isinstance(field, str) else \
        odeint.SystemDef(2, odeint.Nonlinear(field))
    p = np.eye(2) if weight == "identity" else ly.solve_lyapunov(
        sysd.jacobian(np.zeros(2), 0.0), np.array([[1.0, 0.5], [0.5, 4.0]]))
    dirs = sphere_directions(256, 2)
    radii = np.sqrt(cmax * np.arange(1, 49)[:, None] / 48
                    / np.einsum("ij,jk,ik->i", dirs, p, dirs))
    assert (radii <= 1e-6).any() and (radii > 1e-6).any()
    monkeypatch.setattr(ly, "BLOCK", block)
    got = ly.attraction_region(sysd, p, cmax, directions=256)
    assert got == oracle.attraction_loop(sysd, p, cmax, directions=256)
    assert got == cmax


def test_attraction_with_every_point_excluded_keeps_cmax():
    # every level inside radius sqrt(1e-13) = 3.2e-7: Vdot is never evaluated
    sysd = odeint.SystemDef(2, odeint.Nonlinear(("x1", "x2")))  # unstable
    assert ly.attraction_region(sysd, np.eye(2), 1e-13, directions=64) == \
        oracle.attraction_loop(sysd, np.eye(2), 1e-13, directions=64) == 1e-13


@pytest.mark.parametrize("sysd", [
    odeint.SystemDef(1, odeint.Nonlinear(("(t - 1)*x1",))),
    gallery_system("modulated_decay"), gallery_system("delay_coupled")],
    ids=["reads-t", "gallery-reads-t", "delayed"])
def test_attraction_refuses_non_autonomous_systems(sysd):
    with pytest.raises(InvalidArgumentError, match="autonomous"):
        ly.attraction_region(sysd, np.eye(sysd.dimension), 4.0)


def test_check_candidate_builds_its_trees_once(monkeypatch):
    trees, built = ly._trees, []
    monkeypatch.setattr(ly, "_trees",
                        lambda sys, v: built.append(v) or trees(sys, v))
    rep = ly.check_candidate(gallery_system("damped_spring"),
                             CandidateV("7*x1^2 + 2*x1*x2 + 3*x2^2"),
                             scan=FAST_SCAN)
    assert rep.w3_minors is not None and len(built) == 1


@pytest.mark.parametrize("check", [ly.check_candidate, ly.check_instability])
@pytest.mark.parametrize("field, candidate, calls", [
    ("cubic_damping", "x1^2 + x2^2", 1),
    ("exponential_feedback", "x1^2 + (1 + exp(-2*t))*x2^2", 2),  # a ladder
    (FAILING_RHS, "x1^2 + x2^2", 3)], ids=["autonomous", "reads-t", "fails"])
def test_candidate_scan_compiles_v_and_vdot_once(monkeypatch, check, field,
                                                 candidate, calls):
    sysd = gallery_system(field) if isinstance(field, str) else \
        odeint.SystemDef(2, odeint.Nonlinear(field))
    v = CandidateV(candidate)
    sysd.batch_field  # compiled on first use, once per system
    compiles, compile_vec = [], ex.compile_expr_vec
    monkeypatch.setattr(ex, "compile_expr_vec",
                        lambda *a: compiles.append(a) or compile_vec(*a))
    evaluations, batch_values = [], ly._batch_values
    monkeypatch.setattr(ly, "_batch_values", lambda *a: evaluations.append(
        a) or batch_values(*a))
    if isinstance(field, str):
        check(sysd, v, scan=FAST_SCAN)
    else:  # strict_rows halves the failing batch down to its first row
        with pytest.raises(DomainError):
            check(sysd, v, scan=FAST_SCAN)
    assert len(compiles) == 1 and len(evaluations) >= calls


def test_attraction_failing_level_wins_over_later_domain_error():
    # Vdot > 0 from the first level on; levels past x1 = 2 leave log's domain
    sysd = odeint.SystemDef(2, odeint.Nonlinear(("x1 + 0*log(2 - x1)", "x2")))
    with pytest.raises(NoRegionError):
        ly.attraction_region(sysd, np.eye(2), 9.0, directions=64)


def test_attraction_domain_error_on_a_passing_ladder():
    sysd = odeint.SystemDef(2, odeint.Nonlinear(("-x1 + 0*log(2 - x1)",
                                                 "-x2")))
    with pytest.raises(DomainError):
        ly.attraction_region(sysd, np.eye(2), 9.0, directions=64)


def test_attraction_domain_error_names_first_failing_level():
    # log(2 - x1) leaves its domain on every level whose ball reaches x1 = 2
    sysd = odeint.SystemDef(2, odeint.Nonlinear(("-x1 + 0*log(2 - x1)",
                                                 "-x2")))
    cmax, levels = 9.0, 48
    dirs = sphere_directions(64, 2)
    quad = np.einsum("ij,ij->i", dirs, dirs)

    def level_rows(k):  # the sampled points of level k, one per direction
        return [(x,) for x in dirs * np.sqrt(cmax * k / levels / quad)[:, None]]

    def level(k):
        if oracle.first_failure(lambda x: oracle.rhs(sysd, x, 0.0),
                                level_rows(k)):
            raise DomainError("level fails")

    k = _first_of_several(level, [(k,) for k in range(1, levels + 1)]) + 1
    with pytest.raises(DomainError) as got:
        ly.attraction_region(sysd, np.eye(2), cmax, levels=levels,
                             directions=64)
    _assert_names(got.value, k - 1, f"level c={cmax * k / levels!r}")


# --- argument checks --------------------------------------------------------------

@pytest.mark.parametrize("radius, exclude", [
    (0.0, 0.0), (-1.0, 0.0), (float("nan"), 0.0), (float("inf"), 0.0),
    (1.0, 1.0), (1.0, 2.0), (1.0, -1e-3), (1.0, float("nan"))])
def test_ball_points_rejects_empty_shells(radius, exclude):
    with deadline(5.0), pytest.raises(InvalidArgumentError):
        ball_points(16, 2, radius, exclude=exclude)


def test_ball_points_rejects_negative_count():
    with pytest.raises(InvalidArgumentError):
        ball_points(-1, 2, 1.0)


@pytest.mark.parametrize("points", [0, -5])
def test_scans_reject_empty_sample_sets(points):
    sysd = gallery_system("cubic_damping")
    scan = ScanConfig(points=points)
    with pytest.raises(InvalidArgumentError):
        ly.check_candidate(sysd, CandidateV("x1^2 + x2^2"), scan=scan)
    with pytest.raises(InvalidArgumentError):
        ly.check_instability(sysd, CandidateV("x1^2 + x2^2"), scan=scan)
    with pytest.raises(InvalidArgumentError):
        dc.classify_discrete(gallery_system("cubic_map"),
                             CandidateV(DISCRETE_V), samples=points)
    form = ly.QuadraticFormTV((("t", "0"), ("0", "t")))
    with pytest.raises(InvalidArgumentError):
        ly.sylvester_tv(form, 1.0, x_points=points)
    with pytest.raises(InvalidArgumentError):
        ly.sylvester_tv(form, 1.0, time_samples=points)


@pytest.mark.parametrize("radius", [0.0, -0.5])
def test_scans_reject_empty_balls(radius):
    with deadline(5.0):
        with pytest.raises(InvalidArgumentError):
            ly.check_candidate(gallery_system("cubic_damping"),
                               CandidateV("x1^2 + x2^2"), radius=radius,
                               scan=FAST_SCAN)
        with pytest.raises(InvalidArgumentError):
            dc.classify_discrete(gallery_system("cubic_map"),
                                 CandidateV(DISCRETE_V), radius=radius)


@pytest.mark.parametrize("kwargs", [
    {"levels": 0}, {"levels": -3}, {"directions": 0}, {"cmax": -1.0},
    {"cmax": 0.0}, {"cmax": float("nan")}, {"cmax": float("inf")}])
def test_attraction_rejects_vacuous_ladders(kwargs):
    args = {"cmax": 1.0, **kwargs}
    cmax = args.pop("cmax")
    with pytest.raises(InvalidArgumentError):
        ly.attraction_region(gallery_system("vanderpol"), np.eye(2), cmax,
                             **args)
