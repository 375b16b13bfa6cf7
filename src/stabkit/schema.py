"""System-definition files and JSON report assembly.

One JSON schema covers every system class: constant-linear, nonlinear,
delayed, periodic, and discrete.  Matrices are row-major nested arrays;
time-varying entries are expression strings.  Loading validates against the
published schema (shipped in ``stabkit/schemas/``) and keeps the original
document around so files round-trip without loss.
Every continuous kind (``linear``, ``nonlinear``, ``delay``, ``periodic``)
builds one :class:`~stabkit.odeint.SystemDef`; ``discrete`` builds a
:class:`~stabkit.discrete.DiscreteSystem`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, is_dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .discrete import DiscreteSystem
from .errors import SchemaError, StabkitError
from .odeint import Delay, Linear, Nonlinear, SystemDef

__all__ = ["SystemFile", "load_system", "save_system", "build_report",
           "to_jsonable", "KINDS"]

KINDS = ("linear", "nonlinear", "delay", "periodic", "discrete")
#: the fields of every kind, then those each kind takes besides them
_COMMON = ("name", "kind", "dimension", "params", "comment")
_FIELDS = {"linear": ("a", "b"), "nonlinear": ("expressions",),
           "delay": ("a", "b", "delays"), "discrete": ("expressions",),
           "periodic": ("coefficients", "period")}


@dataclass
class SystemFile:
    """Parsed system-definition document plus its source dictionary."""

    name: str
    kind: str
    dimension: int
    document: dict

    def build(self):
        """Instantiate the toolkit object this file describes: a
        :class:`~stabkit.odeint.SystemDef` for every continuous kind, a
        :class:`~stabkit.discrete.DiscreteSystem` for ``discrete``."""
        doc = self.document
        params = dict(doc.get("params", {}))
        n = self.dimension
        if self.kind == "nonlinear":
            return SystemDef(n, Nonlinear(tuple(doc["expressions"])),
                             params=params)
        if self.kind == "discrete":
            return DiscreteSystem(n, tuple(doc["expressions"]), params=params)
        if self.kind in ("linear", "delay", "periodic"):
            rhs = Linear(doc.get("a", doc.get("coefficients")), doc.get("b"))
            delays = tuple(Delay(float(d["lag"]), d["coefficients"])
                           for d in doc.get("delays", ()))
            return SystemDef(n, rhs, delays, doc.get("period"), params)
        raise SchemaError(f"unknown kind {self.kind!r}")

    def meta(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "dimension": self.dimension}


def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise SchemaError(f"kind {kind!r} requires field {key!r}")
    return doc[key]


def _number(value) -> bool:
    """A JSON number: a bool is an int to Python, not to the schema."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_grid(value, n: int, what: str, allow_expr: bool, square=True):
    shape = f"a {n}x{n} array" if square else f"{n} rows of equal length"
    rows = value if isinstance(value, list) and len(value) == n else [None]
    width = len(rows[0]) if not square and isinstance(rows[0], list) else n
    for row in rows:
        if not isinstance(row, list) or len(row) != width or not row:
            raise SchemaError(f"{what} must be {shape}")
        for cell in row:
            if isinstance(cell, bool) or not isinstance(cell, (int, float, str)):
                raise SchemaError(f"{what} entries must be numbers"
                                  + (" or expression strings" if allow_expr else ""))
            if isinstance(cell, str) and not allow_expr:
                raise SchemaError(f"{what} entries must be numeric")


def load_system(source) -> SystemFile:
    """Load and validate a system file (path, JSON text, or dict):
    :class:`SchemaError` where the schema (:func:`system_schema`) refuses
    it, or where its sizes, expressions or periodicity do not hold."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            text = Path(source).read_text(encoding="utf-8") \
                if not str(source).lstrip().startswith("{") else str(source)
            doc = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
        except OSError as exc:
            raise SchemaError(f"cannot read {source}: {exc.strerror or exc}") \
                from None
    if not isinstance(doc, dict):
        raise SchemaError("system file must be a JSON object")

    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("field 'name' (non-empty string) is required")
    dimension = doc.get("dimension")
    if isinstance(dimension, float) and dimension.is_integer():
        dimension = int(dimension)  # an integer to JSON Schema
    if not isinstance(dimension, int) or isinstance(dimension, bool) or \
            dimension < 1:
        raise SchemaError("field 'dimension' (positive integer) is required")
    params = doc.get("params", {})
    if not isinstance(params, dict) or not all(map(_number, params.values())):
        raise SchemaError("'params' must map names to numbers")
    if not isinstance(doc.get("comment", ""), str):
        raise SchemaError("'comment' must be a string")
    for key in doc:
        if key not in _COMMON + _FIELDS[kind]:
            raise SchemaError(
                f"kind {kind!r} does not take field {key!r}"
                if any(key in keys for keys in _FIELDS.values())
                else f"unknown field {key!r}")

    n = dimension
    if kind == "linear":
        _check_grid(_require(doc, "a", kind), n, "'a'", allow_expr=False)
    elif kind in ("nonlinear", "discrete"):
        exprs = _require(doc, "expressions", kind)
        if not isinstance(exprs, list) or len(exprs) != n or \
                not all(isinstance(e, str) for e in exprs):
            raise SchemaError(f"'expressions' must be {n} strings")
    elif kind == "delay":
        _check_grid(_require(doc, "a", kind), n, "'a'", allow_expr=True)
        delays = _require(doc, "delays", kind)
        if not isinstance(delays, list) or not delays:
            raise SchemaError("'delays' must be a non-empty array")
        for d in delays:
            if not isinstance(d, dict) or "lag" not in d or \
                    "coefficients" not in d:
                raise SchemaError("each delay needs 'lag' and 'coefficients'")
            for key in d:
                if key not in ("lag", "coefficients"):
                    raise SchemaError(f"unknown delay field {key!r}")
            if not _number(d["lag"]) or d["lag"] <= 0:
                raise SchemaError("delay lags must be positive numbers")
            _check_grid(d["coefficients"], n, "delay 'coefficients'",
                        allow_expr=True)
    elif kind == "periodic":
        _check_grid(_require(doc, "coefficients", kind), n, "'coefficients'",
                    allow_expr=True)
        period = _require(doc, "period", kind)
        if not _number(period) or period <= 0:
            raise SchemaError("'period' must be a positive number")
    if "b" in doc:  # linear and delay files only
        _check_grid(doc["b"], n, "'b'", allow_expr=False, square=False)

    sf = SystemFile(name, kind, dimension, dict(doc))
    try:
        sf.build()
    except SchemaError:
        raise
    except (StabkitError, ValueError, OverflowError) as exc:
        raise SchemaError(f"system definition invalid: {exc}") from None
    return sf


def save_system(sf: SystemFile) -> dict:
    """Serialize back to the document form (field-for-field round trip)."""
    return dict(sf.document)


# --- reports ----------------------------------------------------------------------

def to_jsonable(value: Any) -> Any:
    """Recursively convert toolkit values to plain JSON types."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, complex):
        return {"re": to_jsonable(value.real), "im": to_jsonable(value.imag)}
    if isinstance(value, np.ndarray):
        # real entries are plain JSON already, unless a float is non-finite
        if value.dtype.kind in "biu" or (value.dtype.kind == "f"
                                         and np.isfinite(value).all()):
            return value.tolist()
        return to_jsonable(value.tolist())
    if isinstance(value, np.number):
        return to_jsonable(value.item())
    if is_dataclass(value) and not isinstance(value, type):
        return {k: to_jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def build_report(analysis: str, command: list[str], system_meta: dict | None,
                 result: Any, tolerances: dict, started: float) -> dict:
    """Assemble the common report envelope around an analysis payload."""
    return {
        "tool": {"name": "stabkit", "version": __version__},
        "command": list(command),
        "analysis": analysis,
        "system": system_meta,
        "result": to_jsonable(result),
        "tolerances": to_jsonable(tolerances),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


def bundled_names() -> list[str]:
    """Names of the system definitions shipped with the package."""
    root = resources.files("stabkit").joinpath("gallery")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_system(name: str) -> SystemFile:
    """Load one of the bundled gallery definitions by name."""
    text = resources.files("stabkit").joinpath(
        f"gallery/{name}.json").read_text(encoding="utf-8")
    return load_system(json.loads(text))


def report_schema() -> dict:
    """The published JSON schema for reports."""
    text = resources.files("stabkit").joinpath(
        "schemas/report.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def system_schema() -> dict:
    """The published JSON schema for system-definition files."""
    text = resources.files("stabkit").joinpath(
        "schemas/system.schema.json").read_text(encoding="utf-8")
    return json.loads(text)
