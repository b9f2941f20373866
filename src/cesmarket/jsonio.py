"""Instance files, solution files, and canonical JSON reports.

All JSON the package emits goes through canonical_dumps: floats carry 17
significant digits (lossless round trip), keys keep insertion order, and
identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math

import numpy as np

from .errors import CesMarketError, InstanceFormatError
from .solver import Instance
from .valuations import from_json as valuation_from_json

FORMAT_VERSION = 1


def _canonical_scalar(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        f = float(x)
        if math.isnan(f):
            raise ValueError("refusing to serialize NaN")
        if math.isinf(f):
            return '"inf"' if f > 0 else '"-inf"'
        out = format(f, ".17g")
        # keep a float marker so the value round-trips as a float
        if "." not in out and "e" not in out and "n" not in out:
            out += ".0"
        return out
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=False)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _canonical(obj, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k), ensure_ascii=False)}: "
            f"{_canonical(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in obj)
        if flat:
            return "[" + ", ".join(_canonical_scalar(v) for v in obj) + "]"
        parts = [f"{inner}{_canonical(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _canonical_scalar(obj)


def canonical_dumps(obj) -> str:
    """Deterministic, lossless JSON text (17 significant digits, newline-terminated)."""
    return _canonical(obj, 0) + "\n"


def to_plain(obj):
    """JSON-ready copy of a result object.

    Dataclasses become dicts in field order, ndarrays and tuples become
    lists, enums their values and numpy scalars Python scalars.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _require(cond: bool, message: str):
    if not cond:
        raise InstanceFormatError(message)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def instance_from_json(data: dict):
    """Parse {version, rho, goods, agents, kappa?} into (Instance, kappa)."""
    _require(isinstance(data, dict), "instance file must contain a JSON object")
    _require(data.get("version") == FORMAT_VERSION,
             f"unsupported or missing version (expected {FORMAT_VERSION})")
    rho = data.get("rho")
    _require(_is_number(rho), "rho must be a number")
    _require(0.0 < rho <= 1.0, f"rho must lie in (0, 1], got {rho}")
    goods = data.get("goods")
    _require(isinstance(goods, int) and not isinstance(goods, bool) and goods >= 1,
             "goods must be a positive integer")
    agents = data.get("agents")
    _require(isinstance(agents, list) and len(agents) >= 1,
             "agents must be a nonempty array of valuation objects")
    vals = []
    for k, fragment in enumerate(agents):
        try:
            v = valuation_from_json(fragment)
        except CesMarketError as exc:
            raise InstanceFormatError(f"agent {k}: {exc}") from exc
        _require(v.m == goods,
                 f"agent {k} covers {v.m} goods but the instance declares {goods}")
        vals.append(v)
    kappa = data.get("kappa")
    if kappa is not None:
        _require(_is_number(kappa) and kappa >= 0,
                 "kappa must be a nonnegative number")
        kappa = float(kappa)
    try:
        instance = Instance(tuple(vals), float(rho))
    except CesMarketError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return instance, kappa


def instance_to_json(instance: Instance, kappa: float | None = None) -> dict:
    data = {
        "version": FORMAT_VERSION,
        "rho": float(instance.rho),
        "goods": int(instance.m),
        "agents": [v.to_json() for v in instance.valuations],
    }
    if kappa is not None:
        data["kappa"] = float(kappa)
    return data


def load_instance(path):
    """Read an instance file; raises InstanceFormatError with a one-line reason."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    return instance_from_json(data)


def save_instance(path, instance: Instance, kappa: float | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(instance_to_json(instance, kappa)))


def load_solution(path, n: int, m: int):
    """Read a solution report; returns (allocation, multipliers or None).

    Accepts any JSON object with an n x m numeric "allocation" array and an
    optional length-m "multipliers" array (the solve report qualifies).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "solution file must contain a JSON object")
    alloc = data.get("allocation")
    _require(isinstance(alloc, list) and len(alloc) == n,
             f"solution needs an allocation array with one row per agent ({n})")
    X = np.zeros((n, m))
    for i, row in enumerate(alloc):
        _require(
            isinstance(row, list) and len(row) == m and all(_is_number(v) for v in row),
            f"allocation row {i} must hold {m} numbers",
        )
        X[i] = row
    q = data.get("multipliers")
    if q is not None:
        _require(
            isinstance(q, list) and len(q) == m and all(_is_number(v) for v in q),
            f"multipliers must hold {m} numbers",
        )
        q = np.asarray(q, dtype=float)
    return X, q


def report(name: str, payload: dict) -> dict:
    """Wrap a payload in the stable report envelope."""
    out = {"report": name, "version": FORMAT_VERSION}
    out.update(payload)
    return out
