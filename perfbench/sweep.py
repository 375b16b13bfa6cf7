"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/sweep.py --out runs/a --workloads scan,desk --seeds 1-10

With ``--b-root OTHER_CHECKOUT --b-out runs/b`` the same seeds also run on
a second checkout, in alternating order (A then B, then B then A, ...), so
that ``compare.py runs/a runs/b`` can count the pairs each side won.  Each
run measures ``run_seconds`` of ``BENCHMARK.json``, and its stdout goes to
``<out>/<workload>-seed<n>[-trace].out``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(root: Path, out: Path, workload: str, seed: int, seconds: int,
            trace: int) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=600)
    suffix = "-trace" if trace else ""
    path = out / f"{workload}-seed{seed}{suffix}.out"
    path.write_bytes(proc.stdout)
    last = proc.stdout.decode().strip().splitlines()[-1:] or [""]
    try:
        result = json.loads(last[0])
        status = f"correct={result['correct']} failed={result['failed']}"
    except ValueError:
        status = f"no result (exit {proc.returncode})"
    print(f"{root.name}: {workload} seed {seed} trace {trace}: {status}",
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", default="propagate,scan,desk")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--b-root", type=Path)
    parser.add_argument("--b-out", type=Path)
    args = parser.parse_args(argv)
    if (args.b_root is None) != (args.b_out is None):
        parser.error("--b-root and --b-out go together")
    seconds = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sides = [(ROOT, args.out)]
    if args.b_root is not None:
        sides.append((args.b_root.resolve(), args.b_out))
    for _, out in sides:
        out.mkdir(parents=True, exist_ok=True)
    turn = 0
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            order = sides if turn % 2 == 0 else sides[::-1]
            turn += 1
            for root, out in order:
                run_one(root, out.resolve(), workload, seed, seconds,
                        args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
