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
from .odeint import (Delay, LinearConstant, LinearTimeVarying, Nonlinear,
                     SystemDef, coefficient_grid)

__all__ = ["SystemFile", "load_system", "save_system", "build_report",
           "to_jsonable", "KINDS"]

KINDS = ("linear", "nonlinear", "delay", "periodic", "discrete")


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
        if self.kind == "linear":
            a = np.asarray(doc["a"], dtype=float)
            b = None if "b" not in doc else np.asarray(doc["b"], dtype=float)
            return SystemDef(n, LinearConstant(a, b), params=params)
        if self.kind == "nonlinear":
            return SystemDef(n, Nonlinear(tuple(doc["expressions"])),
                             params=params)
        if self.kind == "delay":
            a = coefficient_grid(doc["a"], n, params)
            rhs = LinearConstant(a) if isinstance(a, np.ndarray) \
                else LinearTimeVarying(a)
            delays = tuple(Delay(float(d["lag"]), d["coefficients"])
                           for d in doc["delays"])
            return SystemDef(n, rhs, delays=delays, params=params)
        if self.kind == "periodic":
            return SystemDef(n, LinearTimeVarying(doc["coefficients"]),
                             period=float(doc["period"]), params=params)
        if self.kind == "discrete":
            return DiscreteSystem(n, tuple(doc["expressions"]), params=params)
        raise SchemaError(f"unknown kind {self.kind!r}")

    def meta(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "dimension": self.dimension}


def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise SchemaError(f"kind {kind!r} requires field {key!r}")
    return doc[key]


def _forbid(doc: dict, keys: tuple[str, ...], kind: str):
    for key in keys:
        if key in doc:
            raise SchemaError(f"kind {kind!r} does not take field {key!r}")


def _check_grid(value, n: int, what: str, allow_expr: bool):
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f"{what} must be a {n}x{n} array")
    for row in value:
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{what} must be a {n}x{n} array")
        for cell in row:
            if isinstance(cell, bool) or not isinstance(cell, (int, float, str)):
                raise SchemaError(f"{what} entries must be numbers"
                                  + (" or expression strings" if allow_expr else ""))
            if isinstance(cell, str) and not allow_expr:
                raise SchemaError(f"{what} entries must be numeric")


def load_system(source) -> SystemFile:
    """Load and validate a system file (path, JSON text, or dict)."""
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
    if not isinstance(dimension, int) or isinstance(dimension, bool) or \
            dimension < 1:
        raise SchemaError("field 'dimension' (positive integer) is required")
    params = doc.get("params", {})
    if not isinstance(params, dict) or \
            not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in params.values()):
        raise SchemaError("'params' must map names to numbers")

    n = dimension
    if kind == "linear":
        _check_grid(_require(doc, "a", kind), n, "'a'", allow_expr=False)
        _forbid(doc, ("expressions", "coefficients", "period", "delays"), kind)
    elif kind in ("nonlinear", "discrete"):
        exprs = _require(doc, "expressions", kind)
        if not isinstance(exprs, list) or len(exprs) != n or \
                not all(isinstance(e, str) for e in exprs):
            raise SchemaError(f"'expressions' must be {n} strings")
        _forbid(doc, ("a", "b", "coefficients", "period", "delays"), kind)
    elif kind == "delay":
        _check_grid(_require(doc, "a", kind), n, "'a'", allow_expr=True)
        delays = _require(doc, "delays", kind)
        if not isinstance(delays, list) or not delays:
            raise SchemaError("'delays' must be a non-empty array")
        for d in delays:
            if not isinstance(d, dict) or "lag" not in d or \
                    "coefficients" not in d:
                raise SchemaError("each delay needs 'lag' and 'coefficients'")
            if not isinstance(d["lag"], (int, float)) or d["lag"] <= 0:
                raise SchemaError("delay lags must be positive numbers")
            _check_grid(d["coefficients"], n, "delay 'coefficients'",
                        allow_expr=True)
        _forbid(doc, ("expressions", "coefficients", "period"), kind)
    elif kind == "periodic":
        _check_grid(_require(doc, "coefficients", kind), n, "'coefficients'",
                    allow_expr=True)
        period = _require(doc, "period", kind)
        if not isinstance(period, (int, float)) or period <= 0:
            raise SchemaError("'period' must be a positive number")
        _forbid(doc, ("a", "b", "expressions", "delays"), kind)

    sf = SystemFile(name, kind, dimension, dict(doc))
    try:
        sf.build()
    except SchemaError:
        raise
    except (StabkitError, ValueError) as exc:
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
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
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
