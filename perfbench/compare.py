"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py runs/a            # spread of one set
    python3 perfbench/compare.py runs/a runs/b     # a = parent, b = change

Each directory holds the stdout of runs, one file per run (``sweep.py``
writes them).  For every workload and end-to-end metric it prints each
side's median and quartiles, the quartile spread as a share of the median
against the metric's bound in ``BENCHMARK.json``, and with two sets:

* ``won``: the fraction of seed-matched pairs the change won (ties count
  for neither side);
* a verdict: ``unresolved`` when the parent's spread exceeds the bound,
  ``regressed`` when the change's median is worse by more than the bound,
  ``improved`` when the change won at least 9 pairs in 10 and the medians
  differ by more than the parent's quartile spread, else ``unchanged``.

Traced runs (``--trace 1``) add the per-layer self-time medians and their
difference, and the host calibration time of every run is shown so host
drift can be told from a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runs(directory: Path) -> dict:
    """``{(workload, trace): {seed: (result, diag)}}`` from run outputs."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"{path.name}: no result line, skipped")
            continue
        diag = next((json.loads(line[5:]) for line in lines
                     if line.startswith("DIAG ")), None)
        if diag is None:
            continue
        runs[(diag["workload"], diag["trace"])][diag["seed"]] = (result, diag)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(side: dict, metric: str) -> dict[int, float]:
    return {seed: res["metrics"][metric]["value"]
            for seed, (res, _) in side.items() if metric in res["metrics"]}


def verdict(a: list[float], b: list[float], won: float, bound: float,
            better: str) -> str:
    qa, qb = quartiles(a), quartiles(b)
    spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if spread > bound:
        b_all_better = all(sign * (x - y) < 0 for x in b for y in a)
        return "improved (all runs)" if b_all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if won >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "improved"
    return "unchanged"


def report(a_dir: Path, b_dir: Path | None) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_runs = load_runs(a_dir)
    b_runs = load_runs(b_dir) if b_dir else {}
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        a, b = a_runs.get((wl, 0), {}), b_runs.get((wl, 0), {})
        if not a:
            continue
        print(f"\n== {wl}: {len(a)} runs" + (f" vs {len(b)}" if b_dir else ""))
        for side, runs in (("a", a), ("b", b)):
            if runs:
                calib = [d["calib_ms"] for _, d in runs.values()]
                fails = sum(r["failed"] for r, _ in runs.values())
                tried = sum(r["attempted"] for r, _ in runs.values())
                print(f"   {side}: calib_ms median {statistics.median(calib):.4f}"
                      f" (min {min(calib):.4f}, max {max(calib):.4f}); "
                      f"ops_failed_ratio {fails / tried:.4g} ({fails}/{tried})")
        for m in spec["end_to_end"]:
            va = _values(a, m["name"])
            qa = quartiles(list(va.values()))
            spread = (qa[2] - qa[0]) / qa[1]
            line = (f"   {m['name']:18s} a {qa[1]:.6g} [{qa[0]:.6g}, "
                    f"{qa[2]:.6g}] spread {spread:.3f} / bound {m['bound']}")
            if b:
                vb = _values(b, m["name"])
                qb = quartiles(list(vb.values()))
                pairs = [(va[s], vb[s]) for s in va if s in vb]
                sign = 1.0 if m["better"] == "lower" else -1.0
                wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
                won = wins / len(pairs) if pairs else 0.0
                line += (f" | b {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
                         f"({(qb[1] - qa[1]) / qa[1]:+.1%}) won {wins}/"
                         f"{len(pairs)}: "
                         + verdict(list(va.values()), list(vb.values()), won,
                                   m["bound"], m["better"]))
            print(line)
        ta, tb = a_runs.get((wl, 1), {}), b_runs.get((wl, 1), {})
        if ta:
            print(f"   per-layer (traced, per pass): {len(ta)} runs"
                  + (f" vs {len(tb)}" if tb else ""))
            for m in spec["per_layer"]:
                va = list(_values(ta, m["name"]).values())
                if not va or (m["unit"] == "s" and max(va) == 0.0
                              and not tb):
                    continue
                med_a = statistics.median(va)
                line = f"     {m['name']:32s} {med_a:12.6g} {m['unit']}"
                vb = list(_values(tb, m["name"]).values())
                if vb:
                    med_b = statistics.median(vb)
                    line += f"  -> {med_b:12.6g}  delta {med_b - med_a:+.6g}"
                print(line)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    report(Path(argv[0]), Path(argv[1]) if len(argv) == 2 else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
