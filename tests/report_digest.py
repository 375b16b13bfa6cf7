"""Digest every report and CSV of a perfbench pass, to compare two checkouts.

Run from a checkout's root (it imports that checkout's ``src`` and
``perfbench``, and changes neither)::

    python tests/report_digest.py scan 1 2 3 > digest.txt

For each seed it generates one pass of ``perfbench.generate(workload,
seed)`` and runs every op in this process, CLI ops through
``stabkit.cli.run`` and ``sylvester`` ops through ``run.run_sylvester``.
Each op prints one line::

    <seed> <op index> <exit code> report=<sha256> raw=<sha256 or -> csv=<sha256 or ->  <argv>

The report hash is taken over the report without ``wall_time_s``,
``command`` and ``result.csv`` (the path, which differs per run), dumped
with sorted keys, so it shows what a report says.  The raw hash shows how
it is written: it is taken over the bytes of the report file, less the
``wall_time_s`` line and with the pass's work directory written
``{work}``; a ``sylvester`` op writes no file and prints ``-``.  The CSV
hash is over the bytes of the ``--csv`` file the op wrote.  Two checkouts
give the same reports and CSVs on a pass exactly when ``diff`` finds
nothing between their outputs.

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

The ``codegen`` mode counts the work of every generated evaluator::

    python tests/report_digest.py codegen > codegen.txt

For every workload and seeds 1-3 it runs one pass, and for each evaluator
an op compiles (``expr._generate``, in compile order) prints its form and
the count of each function call and operator in its source (``bind``
counts the subtrees bound by ``:=``, each computed once)::

    <workload> <seed> <op index> <form> <name>=<count> ...  <argv>

The ``options`` mode lists the settable parameters of the public API::

    python tests/report_digest.py options > options.txt

It prints one line per parameter with a default of every function and
dataclass (its constructor and its public methods) that a ``stabkit``
module names in ``__all__``, sorted::

    <module>.<name> <parameter>=<default>

The ``api`` mode lists the callers of the public API::

    python tests/report_digest.py api > api.txt

It prints one line per name that a ``stabkit`` module puts in ``__all__``,
sorted, with every file of ``src/stabkit``, ``demos`` and ``perfbench``
(its tests aside) that names it, or ``-`` when none does::

    <module>.<name> <path> ...

A file names it by an identifier, an attribute, an import or a whole
string (the tracer patches ``"SystemDef.rhs_callable"`` by its string);
the ``__all__`` entry and the name's own definition do not count.  The one
name without a caller is ``alpha.fit_envelope``: the ``envelope_*``
goldens and the acceptance suite call it.  This mode is not part of
``all``.  ``tests/test_listings.py`` holds the ``api`` and ``options``
listings to their copies under ``tests/listings/``.

The ``stacks`` mode counts the work of the stack suprema::

    python tests/report_digest.py stacks > stacks.txt

For each ``alpha`` op of the ``propagate`` passes of seeds 1-3 it prints
one line per call of ``linalg.spectral_norm``, ``linalg.matrix_measure``
or ``linalg.semidefinite_nodes`` on an ``(N, r, c)`` stack, in call order,
with the node count and the number of nodes ``eigvalsh`` was given (the
nodes evaluated exactly)::

    <seed> <op index> <function> nodes=<N> exact=<count>  <argv>

This mode is not part of ``all``.

The ``all`` mode prints every digest, each under a ``== <mode>`` header:
``scan`` and ``desk`` for seeds 1-3, ``propagate`` for seeds 1-2, then
``parse``, ``w3``, ``codegen`` and ``options``, so that one ``diff``
compares two checkouts::

    python tests/report_digest.py all > all.txt
"""

from __future__ import annotations

import ast
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


def run_pass(workload: str, seed: int, stabkit: dict):
    """Run one pass in this process, yielding ``(op index, label, exit
    code, report, CSV bytes or None, report file bytes or None)`` after
    each op; the report file's bytes have their ``wall_time_s`` line
    dropped and the work directory masked."""
    files, ops = generate.generate(workload, seed)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, body in files.items():
            (work / name).write_bytes(body)
        out, csv = work / "report.json", work / "trajectory.csv"
        for index, op in enumerate(ops):
            argv = [a.replace("{work}", str(work)) for a in op["argv"]]
            for path in (out, csv):
                path.unlink(missing_ok=True)
            raw = None
            if op["kind"] == "cli":
                rc = stabkit["cli"].run(argv + ["--out", str(out)])
                report = json.loads(out.read_text(encoding="utf-8")) \
                    if out.exists() else {}
                if out.exists():
                    raw = b"\n".join(
                        line for line in out.read_bytes().split(b"\n")
                        if not line.lstrip().startswith(b'"wall_time_s":')
                    ).replace(str(work).encode(), b"{work}")
            else:
                rc, report = 0, bench.run_sylvester(stabkit, *argv)
            label = " ".join(op["argv"]).replace("{work}/", "")
            yield (index, label, rc, report,
                   csv.read_bytes() if csv.exists() else None, raw)


def digest_pass(workload: str, seed: int, stabkit: dict) -> list[str]:
    """One line per op of the pass, in pass order."""
    lines = []
    for index, label, rc, report, csv, raw in run_pass(workload, seed,
                                                      stabkit):
        report.pop("wall_time_s", None)
        report.pop("command", None)
        if isinstance(report.get("result"), dict):
            report["result"].pop("csv", None)
        body = json.dumps(report, sort_keys=True).encode()
        raw_sha = "-" if raw is None else _sha(raw)
        csv_sha = "-" if csv is None else _sha(csv)
        lines.append(f"{seed} {index} {rc} report={_sha(body)} "
                     f"raw={raw_sha} csv={csv_sha}  {label}")
    return lines


_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
            ast.USub: "neg", ast.Not: "not"}


def source_counts(src: str) -> str:
    """``name=count`` of each function call and operator in generated
    source, sorted; ``bind`` counts the subtrees bound by ``:=``, each to
    be computed once."""
    counts: dict[str, int] = {}
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            key = node.func.id
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
            key = _SYMBOLS.get(type(node.op), type(node.op).__name__)
        elif isinstance(node, ast.NamedExpr):
            key = "bind"
        else:
            continue
        counts[key] = counts.get(key, 0) + 1
    return " ".join(f"{key}={counts[key]}" for key in sorted(counts))


def digest_codegen(stabkit: dict) -> list[str]:
    """One line per evaluator that one pass of each workload compiles."""
    expr, lines, form, seen = stabkit["expr"], [], ["scalar"], []
    generate_, compile_ = expr._generate, expr._compiled

    def spy(exprs, kind="scalar"):  # each evaluator compiles one source
        form[0] = kind
        return generate_(exprs, kind)

    expr._generate = spy
    expr._compiled = lambda src: seen.append((form[0], src)) or compile_(src)
    try:
        for workload in generate.WORKLOADS:
            for seed in (1, 2, 3):
                for index, label, *_ in run_pass(workload, seed, stabkit):
                    lines += [f"{workload} {seed} {index} {kind} "
                              f"{source_counts(src)}  {label}"
                              for kind, src in seen]
                    seen.clear()
    finally:
        expr._generate, expr._compiled = generate_, compile_
    return lines


def digest_stacks(stabkit: dict) -> list[str]:
    """One line per stack reduction of each ``alpha`` op of ``propagate``."""
    import numpy as np

    linalg, inner = stabkit["linalg"], np.linalg.eigvalsh
    names = ("spectral_norm", "matrix_measure", "semidefinite_nodes")
    originals = {name: getattr(linalg, name) for name in names}
    exact, calls = [0], []

    def eigvalsh(a, *args, **kwargs):
        exact[0] += int(np.prod(np.shape(a)[:-2]))
        return inner(a, *args, **kwargs)

    def counted(name):
        def call(a):
            exact[0] = 0
            value = originals[name](a)
            if np.ndim(a) == 3:
                calls.append(f"{name} nodes={len(a)} exact={exact[0]}")
            return value
        return call

    np.linalg.eigvalsh = eigvalsh
    for name in names:
        setattr(linalg, name, counted(name))
    lines = []
    try:
        for seed in (1, 2, 3):
            for index, label, *_ in run_pass("propagate", seed, stabkit):
                if label.startswith("alpha "):
                    lines += [f"{seed} {index} {call}  {label}"
                              for call in calls]
                calls.clear()
    finally:
        np.linalg.eigvalsh = inner
        for name in names:
            setattr(linalg, name, originals[name])
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


def _named(tree: ast.Module) -> list[tuple[str, str | None]]:
    """``(name, owner)`` for each name a module's code reads, ``owner`` the
    top-level definition it is read in (None outside one); ``__all__`` is
    skipped, and a string counts for each of its dotted parts."""
    out = []
    for stmt in tree.body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if "__all__" in names:
            continue
        owner = getattr(stmt, "name", None) or next(iter(names), None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
            elif isinstance(node, ast.alias):
                out.append((node.name, owner))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                out += [(part, owner) for part in node.value.split(".")]
    return out


def digest_api() -> list[str]:
    """One line per ``__all__`` name with the files that name it, sorted."""
    files = sorted(path for where in ("src/stabkit", "demos", "perfbench")
                   for path in (ROOT / where).rglob("*.py")
                   if "tests" not in path.relative_to(ROOT).parts)
    named = {path: _named(ast.parse(path.read_text("utf-8")))
             for path in files}
    lines = []
    for path in sorted((ROOT / "src/stabkit").glob("[!_]*.py")):
        module = importlib.import_module(f"stabkit.{path.stem}")
        for name in getattr(module, "__all__", ()):
            callers = [str(other.relative_to(ROOT)) for other in files
                       if any(n == name and (other != path or owner != name)
                              for n, owner in named[other])]
            lines.append(f"{path.stem}.{name} {' '.join(callers) or '-'}")
    return sorted(lines)


#: the runs of the ``all`` mode, in order
ALL = (["scan", "1", "2", "3"], ["desk", "1", "2", "3"],
       ["propagate", "1", "2"], ["parse"], ["w3"], ["codegen"], ["options"])


def main(argv: list[str]) -> int:
    if argv == ["all"]:
        for run in ALL:
            print(f"== {' '.join(run)}", flush=True)
            main(run)
        return 0
    if argv in (["options"], ["api"]):
        for line in digest_options() if argv == ["options"] else digest_api():
            print(line)
        return 0
    if argv in (["parse"], ["w3"], ["codegen"], ["stacks"]):
        stabkit = bench.load_stabkit()
        lines = digest_parse(stabkit["expr"]) if argv == ["parse"] else \
            digest_w3(stabkit["lyapunov"]) if argv == ["w3"] else \
            digest_stacks(stabkit) if argv == ["stacks"] else \
            digest_codegen(stabkit)
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
