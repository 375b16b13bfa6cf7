"""Regression pins: regenerate every worked-example payload and compare."""

import json
from pathlib import Path

import pytest

from golden_helpers import compare, generate_all

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Freshness bound on floats: ``compare`` at rel and abs ``FRESH_TOL``, so
#: |got - want| <= FRESH_TOL * max(1, |got|, |want|).
#: A golden float is either an O(1)-conditioned result of at most ~2e4
#: sequential rounding steps (RK4 at h = 1e-3 over 20 s, 20,001-node
#: grids), accurate to about 2e4 * 2^-53 ~ 2e-12 of its scale, or a
#: rounding-level residual or gap, itself a few ulps of an O(1) scale.
#: 1e-11 leaves a factor 5 for a platform's different rounding and still
#: refuses a 1e-10 move of an O(1) value.
FRESH_TOL = 1e-11


@pytest.fixture(scope="module")
def generated():
    return generate_all()


def golden_names():
    return sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))


def _stored(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def test_every_golden_is_generated(generated):
    assert set(golden_names()) == set(generated)


@pytest.mark.parametrize("name", golden_names())
def test_golden(name, generated):
    diffs = compare(generated[name], _stored(name))
    assert not diffs, "\n".join(diffs[:20])


@pytest.mark.parametrize("name", golden_names())
def test_golden_is_fresh(name, generated):
    # what make_goldens.py would write now, read back as the file is
    got = json.loads(json.dumps(generated[name], sort_keys=True))
    diffs = compare(got, _stored(name), rel=FRESH_TOL, abs_tol=FRESH_TOL)
    assert not diffs, "\n".join(diffs[:20])


def test_freshness_refuses_a_moved_eigenvalue_and_a_changed_type():
    def fresh(got):
        return compare(got, want, rel=FRESH_TOL, abs_tol=FRESH_TOL)

    want = {"eigenvalues": [{"re": -1.0, "im": 2.5}], "n": 3, "ok": True}
    moved = {"eigenvalues": [{"re": -1.0 + 1e-10, "im": 2.5}], "n": 3,
             "ok": True}
    assert fresh(moved) == [f"$.eigenvalues[0].re: {-1.0 + 1e-10!r} != -1.0"]
    assert fresh({**want, "n": 3.0}) == ["$.n: 3.0 != 3"]
    assert fresh({**want, "ok": 1}) == ["$.ok: 1 != True"]
    assert not fresh({"eigenvalues": [{"re": -1.0 + 2e-12, "im": 2.5}],
                      "n": 3, "ok": True})
