"""Canonical JSON serialization and instance/solution file handling."""

import enum
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from cesmarket import (
    CesForm,
    InstanceFormatError,
    Instance,
    Linear,
    Power,
    canonical_dumps,
    equilibrium_rule,
    exchange_violation_demo,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_solution,
    linear_gap_demo,
    make_pricing_rule,
    save_instance,
    solve_ces,
    swe_check,
    to_fisher,
)
from cesmarket.jsonio import report, to_plain

from conftest import random_instance, water_instance


def test_scalar_formats():
    assert canonical_dumps(1.0) == "1.0\n"
    assert canonical_dumps(0.1) == "0.10000000000000001\n"
    assert canonical_dumps(True) == "true\n"
    assert canonical_dumps(3) == "3\n"
    assert canonical_dumps(math.inf) == '"inf"\n'
    assert canonical_dumps(-math.inf) == '"-inf"\n'
    assert canonical_dumps(None) == "null\n"
    with pytest.raises(ValueError):
        canonical_dumps(math.nan)


def test_float_round_trip_is_lossless(rng):
    for _ in range(200):
        x = float(rng.uniform(-1e6, 1e6)) * 10.0 ** int(rng.integers(-12, 12))
        assert json.loads(canonical_dumps(x)) == x


def test_layout_and_key_order():
    text = canonical_dumps({"b": [1.0, 2.0], "a": {"c": [[1.0], [2.0]]}})
    # insertion order preserved; flat numeric lists inline; nested lists split
    assert text.index('"b"') < text.index('"a"')
    assert "[1.0, 2.0]" in text
    assert text.endswith("}\n")
    assert canonical_dumps({}) == "{}\n"
    assert canonical_dumps([]) == "[]\n"


def test_numpy_values_serialize():
    text = canonical_dumps({"x": np.array([0.5, 0.25]), "n": np.int64(3)})
    data = json.loads(text)
    assert data == {"x": [0.5, 0.25], "n": 3}


def test_determinism():
    payload = report("solve", {"allocation": np.array([[0.1, 0.9]]), "objective": 1.5})
    assert canonical_dumps(payload) == canonical_dumps(payload)


def test_instance_round_trip(rng, tmp_path):
    for k in range(10):
        inst = random_instance(rng)
        kappa = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else None
        path = tmp_path / f"inst{k}.json"
        save_instance(path, inst, kappa)
        again, kappa2 = load_instance(path)
        assert again.rho == inst.rho
        assert again.n == inst.n and again.m == inst.m
        assert kappa2 == kappa
        X = rng.uniform(0.01, 1.0 / inst.n, (inst.n, inst.m))
        np.testing.assert_allclose(again.values_at(X), inst.values_at(X), rtol=1e-12)


def test_instance_from_json_errors():
    good = instance_to_json(water_instance(0.5))
    cases = [
        ({**good, "version": 99}, "version"),
        ({**good, "rho": -1.0}, "rho must lie in (0, 1], got -1.0"),
        ({**good, "rho": "x"}, "rho must be a number"),
        ({**good, "goods": 0}, "goods"),
        ({**good, "agents": []}, "agents"),
        ({**good, "kappa": -2.0}, "kappa"),
        ({**good, "agents": [{"kind": "nope", "weights": [1.0]}]}, "agent 0"),
    ]
    for data, needle in cases:
        with pytest.raises(InstanceFormatError) as err:
            instance_from_json(data)
        assert needle in str(err.value)
        assert "\n" not in str(err.value)


def test_instance_from_json_rejects_mixed_degree():
    data = {
        "version": 1,
        "rho": 0.5,
        "goods": 1,
        "agents": [
            {"kind": "linear", "weights": [1.0]},
            {"kind": "power", "weights": [1.0], "degree": 0.5},
        ],
    }
    with pytest.raises(InstanceFormatError) as err:
        instance_from_json(data)
    assert "share one homogeneity degree" in str(err.value)


def test_instance_round_trip_within_degree_tolerance(tmp_path):
    # degrees 5e-10 apart share one degree under DEGREE_TOL
    vals = (CesForm([1.0, 2.0], 0.5, 0.7), CesForm([2.0, 1.0], 0.5, 0.7 + 5e-10))
    inst = Instance(vals, 0.5)
    save_instance(tmp_path / "inst.json", inst)
    again, _ = load_instance(tmp_path / "inst.json")
    assert [v.degree for v in again.valuations] == [v.degree for v in inst.valuations]


def test_instance_good_count_mismatch():
    data = {
        "version": 1,
        "rho": 0.5,
        "goods": 2,
        "agents": [{"kind": "linear", "weights": [1.0]}],
    }
    with pytest.raises(InstanceFormatError) as err:
        instance_from_json(data)
    assert "agent 0 covers 1 goods" in str(err.value)


def test_load_solution(tmp_path):
    path = tmp_path / "sol.json"
    path.write_text(
        json.dumps({"allocation": [[0.1], [0.9]], "multipliers": [2.0]})
    )
    X, q = load_solution(path, 2, 1)
    np.testing.assert_allclose(X, [[0.1], [0.9]])
    np.testing.assert_allclose(q, [2.0])
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"allocation": [[0.1], [0.9]]}))
    _, q2 = load_solution(bare, 2, 1)
    assert q2 is None


def test_load_solution_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"allocation": [[0.1, 0.2]]}))
    with pytest.raises(InstanceFormatError):
        load_solution(bad, 2, 1)
    bad.write_text(json.dumps({"allocation": [[0.1], ["x"]]}))
    with pytest.raises(InstanceFormatError):
        load_solution(bad, 2, 1)
    with pytest.raises(InstanceFormatError):
        load_solution(tmp_path / "missing.json", 2, 1)
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    with pytest.raises(InstanceFormatError):
        load_solution(notjson, 2, 1)


def test_report_envelope():
    payload = report("verify", {"tolerance": 1e-6})
    assert list(payload)[:2] == ["report", "version"]
    assert payload["report"] == "verify"
    assert payload["version"] == 1


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Inner:
    grid: np.ndarray
    colors: tuple


@dataclass(frozen=True)
class Outer:
    inner: Inner
    count: np.int64
    scale: np.float64
    label: str


def test_to_plain_nested_dataclass():
    obj = Outer(
        inner=Inner(grid=np.array([[0.5, 1.0]]), colors=(Color.RED, Color.BLUE)),
        count=np.int64(3),
        scale=np.float64(0.25),
        label="x",
    )
    plain = to_plain(obj)
    assert plain == {
        "inner": {"grid": [[0.5, 1.0]], "colors": ["red", "blue"]},
        "count": 3,
        "scale": 0.25,
        "label": "x",
    }
    assert list(plain) == ["inner", "count", "scale", "label"]
    assert type(plain["count"]) is int and type(plain["scale"]) is float
    assert type(plain["inner"]["grid"][0][0]) is float


def _same_typed(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_typed(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_typed, a, b))
    return a == b


# The hand-written to_json bodies that to_plain replaced, kept as the reference.
def _gap_json(r):
    return {"n": r.n, "eps": r.eps, "rho": r.rho, "we_welfare": r.we_welfare,
            "opt_welfare": r.opt_welfare, "ratio": r.ratio, "bound": r.bound}


def _violation_json(r):
    return {"kind": r.kind, "allocation": list(r.allocation), "lhs": r.lhs,
            "rhs": r.rhs, "margin": r.margin, "inequality": r.inequality}


def _swe_json(r):
    return {"is_swe": r.is_swe, "cap": r.cap, "welfare_cap": r.welfare_cap,
            "statuses": [s.value for s in r.statuses], "values": list(r.values),
            "kappa": r.kappa, "rho": r.rho}


def _rule_json(r):
    return {"q": [float(v) for v in r.q], "rho": float(r.rho),
            "degree": float(r.degree)}


def _budgets_json(b):
    return {"budgets": [float(v) for v in b.budgets]}


def test_to_json_matches_hand_written_bodies():
    inst = water_instance(0.5)
    X = solve_ces(inst).allocation
    rule = equilibrium_rule(inst, X)
    budgets, _ = to_fisher(inst, X, rule)
    linear = water_instance(1.0)
    vertex = [[0.0], [1.0], [0.0]]
    cases = [
        (linear_gap_demo(4, 0.1, 0.5), _gap_json),
        (linear_gap_demo(3, 0.2, 1.0), _gap_json),
        (exchange_violation_demo("mixed-degree"), _violation_json),
        (exchange_violation_demo("negative-rho", -2.0), _violation_json),
        (exchange_violation_demo("nash-differentiable"), _violation_json),
        (swe_check(inst, X, rule, 0.1), _swe_json),
        (swe_check(linear, vertex, equilibrium_rule(linear, vertex), 0.1), _swe_json),
        (rule, _rule_json),
        (make_pricing_rule([2], 1, 1), _rule_json),
        (budgets, _budgets_json),
    ]
    for obj, reference in cases:
        assert _same_typed(obj.to_json(), reference(obj)), obj
