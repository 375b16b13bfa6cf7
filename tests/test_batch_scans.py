"""Batched sample scans against point-by-point scans on the scalar oracle.

The scans evaluate V, Vdot, Delta V, the Sylvester minors and the attraction
ladder over all sample rows at once.  These tests pin them to per-point
recurrences on the tree-walking oracle of ``scalar_oracle``: Halton bit for
bit, V within rtol 1e-12, finite differences within their rounding floor,
verdicts equal, and a domain error named at the first sample where the
oracle meets one.
"""

import numpy as np
import pytest

from stabkit import discrete as dc
from stabkit import lyapunov as ly
from stabkit import odeint
from stabkit.errors import DomainError, InvalidArgumentError, NoRegionError
from stabkit.lyapunov import CandidateV, ScanConfig
from stabkit.sampling import ball_points, halton, sphere_directions
from stabkit.schema import to_jsonable
import scalar_oracle as oracle
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
    v_loop, vd_loop = oracle.sample_values(sysd, v, X, T)
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
    monkeypatch.setattr(ly, "_batch_values", oracle.sample_values)
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
    monkeypatch.setattr(ly, "_batch_values", oracle.sample_values)
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
    X, T, _ = ly._scan_points(sysd, v, 1.0, FAST_SCAN)
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


def test_overflowing_intermediate_raises_at_first_sample():
    # the product overflows where x1 > 0.71 although 0/inf would be 0: the
    # scans refuse every overflowing intermediate, as the oracle does
    sysd = gallery_system("cubic_damping")
    v = CandidateV("x1^2 + x2^2 + 0/(1 + exp(500*x1)*exp(500*x1))")
    X, T, _ = ly._scan_points(sysd, v, 1.0, FAST_SCAN)
    k = _first_of_several(lambda x, t: oracle.value(v, x, t), zip(X, T))
    with pytest.raises(DomainError) as got:
        ly.check_candidate(sysd, v, scan=FAST_SCAN)
    _assert_names(got.value, k, f"x={tuple(X[k].tolist())}, t={float(T[k])!r}")


def test_radial_probe_counts_overflow_while_growing_as_unbounded():
    # exp(r^2) is finite at r = 10 and overflows at r = 100 on every ray
    assert ly._radial_probe(CandidateV("exp(x1^2 + x2^2) - 1"), 2, 0.0, 1.0)
    # rays with x1 > 0.5 fail at the first radius: no growth seen
    assert not ly._radial_probe(CandidateV(FAILING), 2, 0.0, 1.0)


def test_w3_minors_none_on_domain_error():
    v = CandidateV("x1^2 + x2^2")
    good = odeint.SystemDef(2, odeint.Nonlinear(("-x1", "-x2")))
    assert ly._w3_quadratic_minors(good, v, 0.0) == pytest.approx((2.0, 4.0))
    # log(x1 + 1e-3) leaves its domain at the stencil point x1 = -1e-3
    bad = odeint.SystemDef(2, odeint.Nonlinear(("-x1 + 0*log(x1 + 1e-3)",
                                                "-x2")))
    assert ly._w3_quadratic_minors(bad, v, 0.0) is None


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
