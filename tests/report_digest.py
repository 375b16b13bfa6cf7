"""Digest every report and CSV of a perfbench pass, to compare two checkouts.

Run from a checkout's root (it imports that checkout's ``src`` and
``perfbench``, and changes neither)::

    python tests/report_digest.py scan 1 2 3 > digest.txt

For each seed it generates one pass of ``perfbench.generate(workload,
seed)`` and runs every op in this process, CLI ops through
``stabkit.cli.run`` and ``sylvester`` ops through ``run.run_sylvester``.
Each op prints one line::

    <seed> <op index> <exit code> report=<sha256> csv=<sha256 or ->  <argv>

The report hash is taken over the report without ``wall_time_s``,
``command`` and ``result.csv`` (the path, which differs per run), dumped
with sorted keys; the CSV hash is over the bytes of the ``--csv`` file the
op wrote.  Two checkouts give the same reports and CSVs on a pass exactly
when ``diff`` finds nothing between their outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import generate  # noqa: E402
import run as bench  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_pass(workload: str, seed: int, stabkit: dict) -> list[str]:
    """One line per op of the pass, in pass order."""
    files, ops = generate.generate(workload, seed)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, body in files.items():
            (work / name).write_bytes(body)
        out, csv = work / "report.json", work / "trajectory.csv"
        for index, op in enumerate(ops):
            argv = [a.replace("{work}", str(work)) for a in op["argv"]]
            for path in (out, csv):
                path.unlink(missing_ok=True)
            if op["kind"] == "cli":
                rc = stabkit["cli"].run(argv + ["--out", str(out)])
                report = json.loads(out.read_text(encoding="utf-8")) \
                    if out.exists() else {}
            else:
                rc, report = 0, bench.run_sylvester(stabkit, *argv)
            report.pop("wall_time_s", None)
            report.pop("command", None)
            if isinstance(report.get("result"), dict):
                report["result"].pop("csv", None)
            body = json.dumps(report, sort_keys=True).encode()
            csv_sha = _sha(csv.read_bytes()) if csv.exists() else "-"
            label = " ".join(op["argv"]).replace("{work}/", "")
            lines.append(f"{seed} {index} {rc} report={_sha(body)} "
                         f"csv={csv_sha}  {label}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in generate.WORKLOADS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    stabkit = bench.load_stabkit()
    for seed in map(int, argv[1:]):
        for line in digest_pass(argv[0], seed, stabkit):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
