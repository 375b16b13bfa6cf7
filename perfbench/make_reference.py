"""Regenerate ``reference.json`` from the current commit.

Runs every gallery op any seed may draw (``generate.menu``) and stores the
signature of its report (``checks.signature``).  The reference pins the
behaviour of the commit it was made on, as the goldens under
``tests/goldens`` do; remake it only in a change that is meant to alter
verdicts, and say so.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402


def main() -> int:
    stabkit = run.load_stabkit()
    work = run.RUN_DIR / "reference"
    work.mkdir(parents=True, exist_ok=True)
    files, ops = generate.menu()
    try:
        for name, body in files.items():
            (work / name).write_bytes(body)
        out = {}
        for op in ops:
            argv = [a.replace("{work}", str(work)) for a in op["argv"]]
            if op["kind"] == "cli":
                report_path = work / "report.json"
                rc = stabkit["cli"].run(argv + ["--out", str(report_path)])
                if rc != 0:
                    raise SystemExit(f"{op['ref']}: exit code {rc}")
                report = json.loads(report_path.read_text(encoding="utf-8"))
            else:
                report = run.run_sylvester(stabkit, *argv)
            out[op["ref"]] = checks.signature(op["check"], report["result"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(out)} references to {checks.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
