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

The ``parse`` mode digests the expression front end instead::

    python tests/report_digest.py parse > parse.txt

It prints one line per text of a fixed corpus (every expression string of
the gallery files and, for every workload and seeds 1-3, of the files,
``--candidate``/``--instability`` arguments and Sylvester forms of
``perfbench.generate``, then a seeded list of malformed, deeply nested and
long texts)::

    <index> tree=<sha256 of to_string(parse(text))>  <text>
    <index> <exception type>: <message>  <text>

with texts past 80 characters shortened to their first 60 and a length.

The ``w3`` mode digests the W3 minors of the candidate scans, value by
value::

    python tests/report_digest.py w3 > w3.txt

It prints the ``repr`` of ``lyapunov._w3_quadratic_minors`` for every
candidate the goldens check (``golden_helpers.GOLDEN_CANDIDATES``, at t0 =
0), then for every ``lyapunov`` op of the ``scan`` passes of seeds 1-3
(candidates and instability witnesses alike, at the op's t0)::

    golden <index> <minors>  <system> <V>
    <seed> <op index> <minors>  <file> <V>

The ``options`` mode lists the settable parameters of the public API::

    python tests/report_digest.py options > options.txt

It prints one line per parameter with a default of every function and
dataclass (its constructor and its public methods) that a ``stabkit``
module names in ``__all__``, sorted::

    <module>.<name> <parameter>=<default>
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import json
import random
import sys
import tempfile
from pathlib import Path
from types import FunctionType

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


def _strings(value):
    """Every string in a nest of lists, tuples and dicts."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _strings(item)


def _file_texts(doc: dict) -> list[str]:
    """The expression strings of a system file: fields and grid entries."""
    return [text for key in ("expressions", "a", "b", "coefficients", "delays")
            for text in _strings(doc.get(key, []))]


def _generated_texts(workload: str, seed: int) -> list[str]:
    files, ops = generate.generate(workload, seed)
    texts = [text for name, body in sorted(files.items())
             if not name.startswith("p_")
             for text in _file_texts(json.loads(body))]
    for op in ops:
        argv = op["argv"]
        if op["kind"] == "sylvester":
            texts += _strings(generate.SYLVESTER_FORMS[argv[0]]["entries"])
        texts += [value for flag, value in zip(argv, argv[1:])
                  if flag in ("--candidate", "--instability")]
    return texts


_NESTINGS = {  # k levels of each construct that nests the generated code
    "parentheses": lambda k: "(" * k + "x1" + ")" * k,
    "unary minus": lambda k: "-" * k + "x1",
    "division chain": lambda k: "x1" + "/1.5" * k,
    "power chain": lambda k: "^".join(["1.0001"] * k + ["x1"]),
    "calls": lambda k: "sin(" * k + "x1" + ")" * k,
}
_TOKENS = ["x1", "x2", "t", "k", "a", "1.5", "2", "1e400", "sin", "pow", "(",
           ")", ",", "+", "-", "*", "/", "^", " ", "\t", "@", "é", ";", "="]


def _edge_texts() -> list[str]:
    """Malformed, deeply nested and long texts; the random ones seeded."""
    texts = ["", "   ", "x1 +", "(x1", "x1)", "2x1", "x1 x2", "sin", "pow(x1)",
             "sin(x1, x2)", "spam(1)", "1e400", "x1 ^", "* x1", ",", "@",
             "  @", "x1 + é", "x1;x2", "a = b", "x1 +\t\n@ x2", "(x1 @"]
    texts += [build(k) for build in _NESTINGS.values() for k in (99, 100, 101)]
    for k in (600, 601, 5000):
        texts += ["+".join(["x1"] * k), " - ".join(["x1*x2"] * k),
                  "+".join(["x1"] * k) + " )", "+".join(["x1"] * k) + " @",
                  "-" * 101 + "+".join(["x1"] * k)]
    rng = random.Random(20)
    texts += ["".join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 12)))
              for _ in range(400)]
    return texts


def parse_corpus() -> list[str]:
    texts = [text for path in sorted((ROOT / "src/stabkit/gallery")
                                     .glob("*.json"))
             for text in _file_texts(json.loads(path.read_text("utf-8")))]
    for workload in generate.WORKLOADS:
        for seed in (1, 2, 3):
            texts += _generated_texts(workload, seed)
    return list(dict.fromkeys(texts)) + _edge_texts()  # first of each


def digest_parse(expr) -> list[str]:
    """One line per text of :func:`parse_corpus`, in corpus order."""
    lines = []
    for index, text in enumerate(parse_corpus()):
        try:
            tree = expr.to_string(expr.parse(text))
            result = f"tree={_sha(tree.encode())}"
        except Exception as exc:  # every refusal is part of the digest
            result = f"{type(exc).__name__}: {exc}"
        label = repr(text) if len(text) <= 80 else \
            f"{text[:60]!r}... ({len(text)} chars)"
        lines.append(f"{index} {result}  {label}")
    return lines


def digest_w3(lyapunov) -> list[str]:
    """One line per golden candidate, then per scan ``lyapunov`` op."""
    from golden_helpers import (GOLDEN_CANDIDATES, candidate_system,
                                scan_candidates)

    cases = [(f"golden {index}", f"{name} {expression}",
              candidate_system(name),
              lyapunov.CandidateV(expression, params=params), 0.0)
             for index, (name, expression, params, _)
             in enumerate(GOLDEN_CANDIDATES)]
    for seed in (1, 2, 3):
        cases += scan_candidates(generate, seed)
    lines = []
    for where, what, sysd, v, t0 in cases:
        vdot = lyapunov._trees(sysd, v)[1]
        minors = lyapunov._w3_quadratic_minors(sysd.dimension, vdot, t0)
        lines.append(f"{where} {minors!r}  {what}")
    return lines


def _defaults(where: str, fn) -> list[str]:
    return [f"{where} {name}={param.default!r}"
            for name, param in inspect.signature(fn).parameters.items()
            if param.default is not param.empty]


def digest_options() -> list[str]:
    """One line per parameter with a default of the public API, sorted."""
    lines = []
    for path in sorted((ROOT / "src/stabkit").glob("[!_]*.py")):
        module = importlib.import_module(f"stabkit.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj, where = getattr(module, name), f"{path.stem}.{name}"
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                lines += _defaults(where, obj)
            if dataclasses.is_dataclass(obj):  # and its public methods
                lines += [line for attr, member in vars(obj).items()
                          if not attr.startswith("_") and isinstance(
                              member, (FunctionType, classmethod, staticmethod))
                          for line in _defaults(f"{where}.{attr}",
                                                getattr(obj, attr))]
    return sorted(lines)


def main(argv: list[str]) -> int:
    if argv == ["options"]:
        for line in digest_options():
            print(line)
        return 0
    if argv in (["parse"], ["w3"]):
        stabkit = bench.load_stabkit()
        lines = digest_parse(stabkit["expr"]) if argv == ["parse"] else \
            digest_w3(stabkit["lyapunov"])
        for line in lines:
            print(line)
        return 0
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
