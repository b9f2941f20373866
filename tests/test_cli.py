"""End-to-end CLI flows, exit codes, and report schema validation."""

import importlib.resources
import json

import jsonschema
import numpy as np
import pytest

from cesmarket import Instance, Leontief, Linear, Power, save_instance
from cesmarket.cli import run

WATER = {
    "version": 1,
    "rho": 0.5,
    "goods": 1,
    "agents": [
        {"kind": "linear", "weights": [1.0]},
        {"kind": "linear", "weights": [6.0]},
        {"kind": "linear", "weights": [5.0]},
    ],
}


def _schema(name):
    ref = importlib.resources.files("cesmarket") / "schemas" / name
    return json.loads(ref.read_text())


REPORT_SCHEMA = _schema("report.schema.json")
INSTANCE_SCHEMA = _schema("instance.schema.json")


@pytest.fixture
def water_file(tmp_path):
    path = tmp_path / "water.json"
    path.write_text(json.dumps(WATER))
    return str(path)


@pytest.fixture
def leontief_file(tmp_path):
    inst = Instance((Leontief([1.0, 2.0]), Leontief([1.0, 1.0])), 0.5)
    path = tmp_path / "leo.json"
    save_instance(path, inst)
    return str(path)


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def check_report(blob):
    jsonschema.validate(blob, REPORT_SCHEMA)


# -- solve / verify -----------------------------------------------------------------


def test_solve_water(water_file, capsys):
    code, blob = run_json(["solve", water_file], capsys)
    assert code == 0
    check_report(blob)
    np.testing.assert_allclose(
        np.asarray(blob["allocation"])[:, 0], [1 / 12, 0.5, 5 / 12], atol=1e-6
    )
    assert blob["multipliers"][0] == pytest.approx(2 * np.sqrt(3), abs=1e-5)
    assert blob["converged"] is True


def test_solve_writes_out_file(water_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert run(["solve", water_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    blob = json.loads(out.read_text())
    check_report(blob)


def test_solve_then_verify_round_trip(water_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert run(["solve", water_file, "--out", str(out)]) == 0
    code, blob = run_json(["verify", water_file, str(out)], capsys)
    assert code == 0
    check_report(blob)
    assert blob["certificate"]["pass"] is True


def test_verify_extracts_multipliers_when_missing(water_file, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"allocation": [[1 / 12], [0.5], [5 / 12]]}))
    code, blob = run_json(["verify", water_file, str(sol)], capsys)
    assert code == 0
    assert blob["multipliers"][0] == pytest.approx(2 * np.sqrt(3), rel=1e-9)


def test_verify_fails_on_perturbed_solution(water_file, tmp_path, capsys):
    sol = tmp_path / "pert.json"
    sol.write_text(
        json.dumps({"allocation": [[0.2], [0.45], [0.35]], "multipliers": [3.4641]})
    )
    code, blob = run_json(["verify", water_file, str(sol)], capsys)
    assert code == 1
    check_report(blob)
    assert blob["certificate"]["pass"] is False


def test_env_tolerance_override(water_file, tmp_path, capsys, monkeypatch):
    sol = tmp_path / "pert.json"
    sol.write_text(
        json.dumps({"allocation": [[0.2], [0.45], [0.35]], "multipliers": [3.4641]})
    )
    monkeypatch.setenv("CES_MARKET_TOL", "100")
    code, blob = run_json(["verify", water_file, str(sol)], capsys)
    assert code == 0
    assert blob["tolerance"] == 100.0
    monkeypatch.setenv("CES_MARKET_TOL", "banana")
    assert run(["verify", water_file, str(sol)]) == 2


DETERMINISM_CASES = {
    "solve": ["solve", "{water}"],
    "solve-leontief": ["solve", "{leontief}"],
    "verify": ["verify", "{water}", "{solution}"],
    "fisher": ["fisher", "{water}", "{solution}"],
    "truthful-scan": ["truthful", "{water}", "--scan"],
    "sybil-check": ["sybil-check", "{water}", "--kappa", "0.1"],
    "demo-gap": ["demo", "gap"],
    "demo-mixed-degree": ["demo", "mixed-degree"],
    "demo-neg-rho": ["demo", "neg-rho"],
    "demo-nash": ["demo", "nash"],
    "demo-first-welfare": ["demo", "first-welfare"],
}


def test_reports_are_byte_identical(water_file, leontief_file, tmp_path, capsys):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"allocation": [[1 / 12], [0.5], [5 / 12]]}))
    files = {"water": water_file, "leontief": leontief_file, "solution": str(solution)}
    for case, template in DETERMINISM_CASES.items():
        argv = [arg.format(**files) for arg in template]
        first_code = run(argv)
        first = capsys.readouterr().out
        second_code = run(argv)
        second = capsys.readouterr().out
        assert first, case
        assert (first, first_code) == (second, second_code), case


def test_solve_reports_non_convergence(water_file, capsys):
    code, blob = run_json(
        ["solve", water_file, "--tol", "1e-300", "--max-iters", "100"], capsys
    )
    assert code == 1
    check_report(blob)
    assert blob["converged"] is False
    # the best iterate is reported: here the optimum, short of a 1e-300 target
    assert blob["max_kkt_residual"] < 1e-12
    np.testing.assert_allclose(
        np.asarray(blob["allocation"])[:, 0], [1 / 12, 0.5, 5 / 12], atol=1e-9
    )


def test_solve_leontief_report(leontief_file, capsys):
    code, blob = run_json(["solve", leontief_file], capsys)
    assert code == 0
    check_report(blob)
    assert blob["report"] == "leontief-solve"
    assert len(blob["alphas"]) == 2


# -- input errors ------------------------------------------------------------------


def test_bad_rho_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**WATER, "rho": -1.0}))
    assert run(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "rho must lie in (0, 1]" in err
    assert err.count("\n") == 1


def test_mixed_degree_exits_2(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "rho": 0.5,
                "goods": 1,
                "agents": [
                    {"kind": "linear", "weights": [1.0]},
                    {"kind": "power", "weights": [1.0], "degree": 0.5},
                ],
            }
        )
    )
    assert run(["solve", str(path)]) == 2
    assert "degree" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["solve", str(path)]) == 2


def test_missing_file_exits_2(capsys):
    assert run(["solve", "/nonexistent/instance.json"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


# -- truthful -----------------------------------------------------------------------


def test_truthful_curved(water_file, capsys):
    code, blob = run_json(["truthful", water_file, "--scan"], capsys)
    assert code == 0
    check_report(blob)
    assert blob["mechanism"] == "curved"
    assert len(blob["agents"]) == 3
    for entry in blob["agents"]:
        assert abs(entry["scan_best_bid"] - entry["bid"]) <= entry["scan_step"] + 1e-12


def test_truthful_curved_degree_below_one(tmp_path, capsys):
    path = tmp_path / "power.json"
    save_instance(path, Instance((Power(1.0, 0.5), Power(3.0, 0.5)), 0.5))
    code, blob = run_json(["truthful", str(path), "--scan", "--grid", "150"], capsys)
    assert code == 0
    check_report(blob)
    assert blob["mechanism"] == "curved"
    assert blob["degree"] == 0.5
    assert [a["bid"] for a in blob["agents"]] == [1.0, 3.0]
    for entry in blob["agents"]:
        assert abs(entry["scan_best_bid"] - entry["bid"]) <= entry["scan_step"] + 1e-12
        assert entry["utility_at_bid"] == pytest.approx(
            entry["bid"] * entry["allocation"] ** 0.5 - entry["payment"], rel=1e-12
        )


def test_truthful_single_agent_flag(water_file, capsys):
    code, blob = run_json(["truthful", water_file, "--agent", "1"], capsys)
    assert code == 0
    assert len(blob["agents"]) == 1
    assert blob["agents"][0]["bid"] == 6.0
    assert run(["truthful", water_file, "--agent", "7"]) == 2


def test_truthful_vcg_at_rho_one(tmp_path, capsys):
    path = tmp_path / "vcg.json"
    path.write_text(json.dumps({**WATER, "rho": 1.0}))
    code, blob = run_json(["truthful", str(path)], capsys)
    assert code == 0
    check_report(blob)
    assert blob["mechanism"] == "vcg"
    pays = [a["payment"] for a in blob["agents"]]
    assert pays == [0.0, 5.0, 0.0]
    assert run(["truthful", str(path), "--scan"]) == 2


def test_truthful_needs_single_good(tmp_path, capsys):
    inst = Instance((Linear([1.0, 2.0]),), 0.5)
    path = tmp_path / "m2.json"
    save_instance(path, inst)
    assert run(["truthful", str(path)]) == 2


# -- sybil-check ----------------------------------------------------------------------


def test_sybil_check_stable(tmp_path, capsys):
    inst = Instance(tuple(Linear([1.0]) for _ in range(4)), 0.5)
    path = tmp_path / "sym.json"
    save_instance(path, inst, kappa=0.2)
    code, blob = run_json(["sybil-check", str(path)], capsys)
    assert code == 0
    check_report(blob)
    assert blob["is_swe"] is True
    assert blob["cap"] == 0.4


def test_sybil_check_unstable_flag_overrides_file(water_file, capsys):
    code, blob = run_json(["sybil-check", water_file, "--kappa", "0.1"], capsys)
    assert code == 1
    check_report(blob)
    assert blob["is_swe"] is False
    assert blob["statuses"] == ["stable", "unbounded", "unbounded"]


def test_sybil_check_needs_kappa(water_file, capsys):
    assert run(["sybil-check", water_file]) == 2


def test_sybil_check_rejects_leontief(leontief_file, capsys):
    assert run(["sybil-check", leontief_file, "--kappa", "0.1"]) == 2
    assert "solve_leontief" in capsys.readouterr().err


# -- demos ------------------------------------------------------------------------------


def test_demo_gap(capsys):
    code = run(["demo", "gap", "--n", "4", "--eps", "0.1"])
    captured = capsys.readouterr()
    assert code == 0
    blob = json.loads(captured.out)
    check_report(blob)
    assert blob["ratio"] == pytest.approx(0.26829, abs=1e-4)
    assert "winner-take-all" in captured.err


def test_demo_violations(capsys):
    for argv in (
        ["mixed-degree"],
        ["neg-rho"],
        ["mixed-degree", "--rho", "0.3"],
        ["neg-rho", "--rho", "-2"],
    ):
        code = run(["demo", *argv])
        captured = capsys.readouterr()
        assert code == 0, argv
        blob = json.loads(captured.out)
        check_report(blob)
        assert blob["margin"] > 1e-9
        assert "margin" in captured.err


def test_demo_nash(capsys):
    code = run(["demo", "nash"])
    captured = capsys.readouterr()
    assert code == 0
    blob = json.loads(captured.out)
    check_report(blob)
    assert blob["budget_check"] is True
    np.testing.assert_allclose(blob["thresholds"], [2.0], atol=1e-6)


def test_demo_first_welfare(capsys):
    code = run(["demo", "first-welfare"])
    captured = capsys.readouterr()
    assert code == 0
    blob = json.loads(captured.out)
    check_report(blob)
    assert blob["holds"] is True
    assert blob["total_value"] == 6.0


def test_demo_rejects_unknown(capsys):
    assert run(["demo", "warp-drive"]) == 2


# -- fisher -----------------------------------------------------------------------------


def test_fisher_water(water_file, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert run(["solve", water_file, "--out", str(sol)]) == 0
    capsys.readouterr()
    code, blob = run_json(["fisher", water_file, str(sol)], capsys)
    assert code == 0
    check_report(blob)
    np.testing.assert_allclose(blob["budgets"], [1 / 24, 1.5, 25 / 24], atol=1e-5)
    assert blob["fisher_pass"] is True


def test_fisher_certifies_once(water_file, tmp_path, monkeypatch):
    # the report's certificate is the one that gates the conversion
    from cesmarket import cli, pricing

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    certify = pricing.we_certificate
    monkeypatch.setattr(cli, "we_certificate", counted)
    monkeypatch.setattr(pricing, "we_certificate", counted)
    sol = tmp_path / "sol.json"
    assert run(["solve", water_file, "--out", str(sol)]) == 0
    assert run(["fisher", water_file, str(sol)]) == 0
    assert len(calls) == 1


def test_fisher_rejects_bad_solution(water_file, tmp_path, capsys):
    sol = tmp_path / "bad.json"
    sol.write_text(json.dumps({"allocation": [[0.3], [0.3], [0.4]]}))
    assert run(["fisher", water_file, str(sol)]) == 1


# -- instance schema ----------------------------------------------------------------------


def test_instance_files_validate_against_schema(tmp_path, rng):
    jsonschema.validate(WATER, INSTANCE_SCHEMA)
    from conftest import random_instance
    from cesmarket import instance_to_json

    for _ in range(10):
        inst = random_instance(rng)
        jsonschema.validate(instance_to_json(inst, 0.3), INSTANCE_SCHEMA)
    leo = Instance((Leontief([1.0, 2.0]),), 0.5)
    jsonschema.validate(instance_to_json(leo), INSTANCE_SCHEMA)
