"""Canonical JSON serialization and instance/solution file handling."""

import json
import math

import numpy as np
import pytest

from cesmarket import (
    CesForm,
    InstanceFormatError,
    Instance,
    Linear,
    Power,
    canonical_dumps,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_solution,
    save_instance,
)
from cesmarket.jsonio import report

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
