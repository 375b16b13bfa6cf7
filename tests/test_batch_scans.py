"""Batched sample scans against the point-by-point loops they replace.

The scans evaluate V, Vdot, Delta V, the Sylvester minors and the attraction
ladder over all sample rows at once.  These tests pin them to the scalar
recurrences: Halton bit for bit, V within rtol 1e-12, finite differences
within their rounding floor, verdicts equal, and domain errors raised at the
same sample with the same message.
"""

import numpy as np
import pytest

from stabkit import discrete as dc
from stabkit import lyapunov as ly
from stabkit import odeint
from stabkit.errors import DomainError, InvalidArgumentError, NoRegionError
from stabkit.lyapunov import CandidateV, ScanConfig
from stabkit.sampling import ball_points, halton
from stabkit.schema import to_jsonable
from conftest import deadline, gallery_system
from golden_helpers import compare

FAST_SCAN = ScanConfig(points=1024, time_samples=16)
EPS = np.finfo(float).eps
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# (gallery system or None for the frozen probe system, V, params, radius):
# every candidate the goldens check
GOLDEN_CANDIDATES = [
    ("cubic_damping", "x1^2 + x2^2", {}, 1.0),
    ("bilinear_decay", "0.5*x1^2 + x2^2", {}, 0.5),
    ("cross_coupled", "x1^2 + x2^2", {}, 0.5),
    ("spring_mass", "0.5*k*x1^2 + 0.5*x2^2", {"k": 2.0}, 1.0),
    ("damped_spring", "7*x1^2 + 2*x1*x2 + 3*x2^2", {}, 1.0),
    ("vanderpol", "x1^2 + x2^2", {}, 0.9),
    ("vanderpol_integral", "x1^2 + x2^2", {}, 0.9),
    ("cubic_modulated", "x1^2/2", {}, 1.0),
    ("exponential_feedback", "x1^2 + (1 + exp(-2*t))*x2^2", {}, 1.0),
    (None, "(x1^2 + x2^2)*exp(-0.2*t)", {}, 1.0),
    (None, "(x1^2 + x2^2)*(t^2 + 1)/(x1^2 + 2)", {}, 1.0),
    (None, "(x1^2 + x2^2)*(t^2 + 1)", {}, 1.0),
    (None, "(x1^2 + x2^2)/(x1^2 + 1)", {}, 1.0),
]
DISCRETE_V = "0.5*x1^2 + 2*x1*x2 + 4*x2^2"
MODULATED = (("1 - a*cos((x1^2 + x2^2)*t)", "a*sin((x1^2 + x2^2)*t)"),
             ("a*sin((x1^2 + x2^2)*t)", "1 + a*cos((x1^2 + x2^2)*t)"))
SYLVESTER_FORMS = {
    "growing": ((("t", "-cos(t)"), ("-cos(t)", "t")), {}, 1.0),
    "amplitude_half": (MODULATED, {"a": 0.5}, 0.0),
    "amplitude_one": (MODULATED, {"a": 1.0}, 0.0),
}


def radical_inverse(index: int, base: int) -> float:
    """The per-index recurrence that ``halton`` reproduces bit for bit."""
    inv = 0.0
    f = 1.0 / base
    i = index
    while i > 0:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


def _system(name):
    if name is None:
        return odeint.SystemDef(2, odeint.Nonlinear(("0", "0")))
    return gallery_system(name)


def _refuse(*args, **kwargs):
    raise DomainError("batch refused")


def _same_report(got, want):
    diffs = compare(to_jsonable(got), to_jsonable(want))
    assert not diffs, "\n".join(diffs[:20])


# --- Halton -------------------------------------------------------------------

@pytest.mark.parametrize("start", [0, 1, 2, 11, 2**17 - 2000])
def test_halton_bit_identical_to_scalar_recurrence(start):
    count = 4500  # crosses the 4096-index runs of the base-2 digit table
    got = halton(count, len(PRIMES), start)
    want = np.array([[radical_inverse(i, b) for b in PRIMES]
                     for i in range(start, start + count)])
    assert got.tobytes() == want.tobytes()


def test_halton_empty_and_single():
    assert halton(0, 3).shape == (0, 3)
    assert halton(1, 2, start=0).tolist() == [[0.0, 0.0]]


# --- V, Vdot and Delta V ------------------------------------------------------

@pytest.mark.parametrize("name, expression, params, radius", GOLDEN_CANDIDATES)
def test_batched_v_and_vdot_match_scalar_loop(monkeypatch, name, expression,
                                              params, radius):
    monkeypatch.setattr(ly, "BLOCK", 500)  # several blocks per scan
    sysd = _system(name)
    v = CandidateV(expression, params=params)
    X, T, _ = ly._scan_points(sysd, v, radius, FAST_SCAN)
    v_batch, vd_batch = ly._batch_values(sysd, v, X, T)
    vdot = ly.vdot_along(sysd, v)
    v_loop = np.array([v.value(x, t) for x, t in zip(X, T)])
    vd_loop = np.array([vdot(x, t) for x, t in zip(X, T)])
    np.testing.assert_allclose(v_batch, v_loop, rtol=1e-12, atol=0.0)
    # numpy's exp/log/pow may differ from libm's in the last bits, and a
    # central difference divides a change of V by the step h
    weight = np.abs(sysd.rhs_vectorized()(X, T)).sum(axis=1) \
        + v.time_dependent
    floor = 4.0 * EPS * np.abs(v_loop) * weight / v.fd_step
    assert np.all(np.abs(vd_batch - vd_loop)
                  <= 1e-12 * np.abs(vd_loop) + floor)


@pytest.mark.parametrize("name, expression, params, radius", GOLDEN_CANDIDATES)
def test_batched_candidate_report_matches_scalar_loop(monkeypatch, name,
                                                      expression, params,
                                                      radius):
    sysd = _system(name)
    batch = ly.check_candidate(sysd, CandidateV(expression, params=params),
                               radius=radius, scan=FAST_SCAN)
    monkeypatch.setattr(ly, "_batch_values", _refuse)
    loop = ly.check_candidate(sysd, CandidateV(expression, params=params),
                              radius=radius, scan=FAST_SCAN)
    assert batch.conclusion is loop.conclusion
    assert batch.vdot_verdict is loop.vdot_verdict
    _same_report(batch, loop)


@pytest.mark.parametrize("name, expression", [
    ("uniform_growth", "x1^2 + x2^2"), ("saddle", "x1^2 - x2^2"),
    ("cubic_damping", "x1^2 + x2^2")])
def test_batched_instability_report_matches_scalar_loop(monkeypatch, name,
                                                        expression):
    sysd = gallery_system(name)
    batch = ly.check_instability(sysd, CandidateV(expression), scan=FAST_SCAN)
    monkeypatch.setattr(ly, "_batch_values", _refuse)
    loop = ly.check_instability(sysd, CandidateV(expression), scan=FAST_SCAN)
    assert batch.unstable == loop.unstable
    _same_report(batch, loop)


@pytest.mark.parametrize("name", ["cubic_map", "cubic_map_neutral"])
def test_batched_delta_v_matches_scalar_loop(monkeypatch, name):
    monkeypatch.setattr(dc, "BLOCK", 300)
    sysd = gallery_system(name)
    v = CandidateV(DISCRETE_V)
    X = ball_points(1024, 2, 0.3, exclude=0.3e-9)
    v_batch, d_batch = dc._batch_deltas(sysd, v, X, 0)
    v_loop = np.array([v.value(x, 0.0) for x in X])
    d_loop = np.array([dc.delta_v(sysd, v, x, 0) for x in X])
    np.testing.assert_allclose(v_batch, v_loop, rtol=1e-12, atol=0.0)
    # Delta V is a difference of two V values, each within a few ulps
    np.testing.assert_allclose(d_batch, d_loop, rtol=1e-12,
                               atol=4.0 * EPS * np.abs(v_loop).max())
    batch = dc.classify_discrete(sysd, v, samples=1024)
    monkeypatch.setattr(dc, "_batch_deltas", _refuse)
    loop = dc.classify_discrete(sysd, v, samples=1024)
    assert batch.conclusion is loop.conclusion
    _same_report(batch, loop)


# --- domain errors --------------------------------------------------------------

FAILING = "x1^2 + x2^2 + 0*log(0.5 - x1)"


def _first_failure(fn, rows):
    """Index and error of the first row at which ``fn`` raises."""
    for k, row in enumerate(rows):
        try:
            fn(*row)
        except DomainError as exc:
            return k, exc
    raise AssertionError("no row fails")


@pytest.mark.parametrize("check", [ly.check_candidate, ly.check_instability])
def test_domain_error_parity_mid_scan(check):
    sysd = gallery_system("cubic_damping")
    v = CandidateV(FAILING)
    X, T, _ = ly._scan_points(sysd, v, 1.0, FAST_SCAN)
    k, want = _first_failure(v.value, zip(X, T))
    assert 0 < k < len(X) - 1  # fails mid-scan
    with pytest.raises(DomainError) as got:
        check(sysd, v, scan=FAST_SCAN)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)


def test_domain_error_parity_discrete():
    sysd = gallery_system("cubic_map")
    v = CandidateV("x1^2 + x2^2 + 0*log(0.1 - x1)")
    X = ball_points(1024, 2, 0.3, exclude=0.3e-9)
    k, want = _first_failure(v.value, ((x, 0.0) for x in X))
    assert 0 < k < len(X) - 1
    with pytest.raises(DomainError) as got:
        dc.classify_discrete(sysd, v, samples=1024)
    assert str(got.value) == str(want)


def test_domain_error_parity_sylvester():
    form = ly.QuadraticFormTV((("1 + 0*log(0.5 - x1)", "0"), ("0", "t")))
    X = ball_points(64, 2, 1.0 - 1e-12)
    times = 1.0 + np.linspace(0.0, 50.0, 16)
    k, want = _first_failure(form.matrix_at,
                             ((x, t) for x in X for t in times))
    assert 0 < k < len(X) * len(times) - 1
    with pytest.raises(DomainError) as got:
        ly.sylvester_tv(form, t0=1.0, x_points=64, time_samples=16)
    assert str(got.value) == str(want)


def test_batch_evaluator_failure_retries_per_point():
    # the batch flags the overflowing product; the scalar closure's Python
    # floats overflow to inf silently, and 0/inf is 0
    sysd = gallery_system("cubic_damping")
    v = CandidateV("x1^2 + x2^2 + 0/(1 + exp(500*x1)*exp(500*x1))")
    with pytest.raises(DomainError):
        v.values(np.array([[0.9, 0.0]]), 0.0)
    rep = ly.check_candidate(sysd, v, scan=FAST_SCAN)
    ref = ly.check_candidate(sysd, CandidateV("x1^2 + x2^2"), scan=FAST_SCAN)
    assert rep.conclusion is ref.conclusion
    assert rep.vdot_verdict is ref.vdot_verdict


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
    monkeypatch.setattr(ly, "_sylvester_batch", _refuse)
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
