"""The public API and its options against their committed listings.

``tests/listings/api.txt`` and ``tests/listings/options.txt`` hold the
output of ``python tests/report_digest.py api`` and ``options``: every
``__all__`` name with its callers outside the tests, and every settable
parameter of the public API.  A change that adds or removes a public name,
a caller or an option fails here until it writes the listing anew, so that
its diff shows the change::

    python tests/report_digest.py api > tests/listings/api.txt
    python tests/report_digest.py options > tests/listings/options.txt
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mode", ["api", "options"])
def test_listing_matches_its_committed_copy(mode):
    listing = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "report_digest.py"), mode],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    committed = (ROOT / "tests" / "listings" / f"{mode}.txt").read_text("utf-8")
    assert listing.splitlines() == committed.splitlines()
