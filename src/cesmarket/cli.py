"""Command-line front end.

Subcommands: solve, verify, truthful, sybil-check, demo, fisher.  Reports go
to stdout (or --out) as canonical JSON; demo prose goes to stderr.  Exit
codes: 0 success/pass, 1 a check failed (bad certificate, non-convergence,
Sybil-unstable), 2 malformed input.  CES_MARKET_TOL, when --tol is not
given, overrides the default tolerance: the certification tolerance of
verify and fisher, and the solve tolerance of solve and sybil-check.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import demos
from .demos import exchange_violation_demo, first_welfare_check, linear_gap_demo
from .errors import BadParameter, CesMarketError, DidNotConverge
from .jsonio import canonical_dumps, load_instance, load_solution, report, to_plain
from .mechanism import (
    BidProfile,
    best_response_scan,
    truthful_allocation,
    truthful_payment,
    vcg_single_good,
)
from .pricing import (
    _fisher_check,
    _require_certified,
    equilibrium_rule,
    make_pricing_rule,
    we_certificate,
)
from .solver import (
    Instance,
    as_allocation,
    extract_multipliers,
    solve_ces,
    solve_leontief,
)
from .sybil import swe_check
from .valuations import Leontief, Linear

DEFAULT_CERT_TOL = 1e-6
DEFAULT_SOLVE_TOL = 1e-8


def _env_tol():
    raw = os.environ.get("CES_MARKET_TOL")
    if raw is None:
        return None
    try:
        tol = float(raw)
    except ValueError:
        raise BadParameter(f"CES_MARKET_TOL must be a number, got {raw!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise BadParameter(f"CES_MARKET_TOL must be positive, got {raw!r}")
    return tol


def _pick_tol(flag_value, fallback):
    if flag_value is not None:
        if not (math.isfinite(flag_value) and flag_value > 0):
            raise BadParameter("--tol must be positive")
        return flag_value
    env = _env_tol()
    return env if env is not None else fallback


def _emit(payload: dict, out_path=None):
    text = canonical_dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    instance, _ = load_instance(args.file)
    tol = _pick_tol(args.tol, DEFAULT_SOLVE_TOL)
    leontief = all(isinstance(v, Leontief) for v in instance.valuations)
    solve = solve_leontief if leontief else solve_ces
    converged = True
    try:
        res = solve(instance, tolerance=tol, max_iters=args.max_iters)
    except DidNotConverge as exc:
        res = exc.result
        converged = False
    head = {"rho": instance.rho}
    if not leontief:
        head["degree"] = instance.degree
    payload = {**head, **to_plain(res), "converged": converged}
    _emit(report("leontief-solve" if leontief else "solve", payload), args.out)
    return 0 if converged else 1


def _load_solved(args):
    """(instance, allocation, rule, tolerance) for a solution file.

    The rule uses the file's multipliers, or those the allocation implies
    when the file has none.
    """
    instance, _ = load_instance(args.file)
    X, q = load_solution(args.solution, instance.n, instance.m)
    X = as_allocation(X, instance.n, instance.m)
    tol = _pick_tol(args.tol, DEFAULT_CERT_TOL)
    if q is None:
        q = extract_multipliers(instance, X)
    rule = make_pricing_rule(q, instance.rho, instance.degree)
    return instance, X, rule, tol


def _cmd_verify(args) -> int:
    instance, X, rule, tol = _load_solved(args)
    cert = we_certificate(instance, X, rule, tol)
    payload = report(
        "verify",
        {
            "rho": instance.rho,
            "degree": instance.degree,
            "multipliers": rule.q,
            "tolerance": tol,
            "certificate": cert.to_json(),
        },
    )
    _emit(payload)
    return 0 if cert.passed else 1


def _cmd_truthful(args) -> int:
    instance, _ = load_instance(args.file)
    if instance.m != 1:
        raise BadParameter("the truthful mechanism covers a single good only")
    weights = [float(v.value(np.ones(1))) for v in instance.valuations]
    indices = range(instance.n)
    if args.agent is not None:
        if not 0 <= args.agent < instance.n:
            raise BadParameter(
                f"--agent {args.agent} out of range for {instance.n} agents"
            )
        indices = [args.agent]
    vcg = instance.rho == 1.0
    if vcg:
        if args.scan:
            raise BadParameter(
                "--scan applies to rho < 1; at rho = 1 the mechanism is the "
                "second-price auction"
            )
        shares, payments = vcg_single_good(weights)
    else:
        profile = BidProfile(
            bids=np.asarray(weights), degree=instance.degree, rho=instance.rho
        )
        shares = truthful_allocation(profile)
    agents = []
    for i in indices:
        share = float(shares[i])
        payment = float(payments[i]) if vcg else truthful_payment(profile, i)
        # a VCG share is 0 or 1, so share ** degree is exact for both mechanisms
        entry = {
            "bid": weights[i],
            "allocation": share,
            "payment": payment,
            "utility_at_bid": weights[i] * share**instance.degree - payment,
        }
        if args.scan:
            others = np.delete(profile.bids, i)
            entry["scan_best_bid"] = best_response_scan(
                weights[i], others, instance.degree, instance.rho, args.grid
            )
            entry["scan_step"] = float(
                (4.0 * weights[i] - weights[i] / 4.0) / (args.grid - 1)
            )
        agents.append(entry)
    payload = report(
        "truthful",
        {
            "mechanism": "vcg" if vcg else "curved",
            "rho": instance.rho,
            "degree": instance.degree,
            "agents": agents,
        },
    )
    _emit(payload)
    return 0


def _cmd_sybil_check(args) -> int:
    instance, file_kappa = load_instance(args.file)
    kappa = args.kappa if args.kappa is not None else file_kappa
    if kappa is None:
        raise BadParameter("no identity cost: pass --kappa or put kappa in the file")
    res = solve_ces(instance, tolerance=_pick_tol(args.tol, DEFAULT_SOLVE_TOL))
    rule = equilibrium_rule(instance, res.allocation)
    rep = swe_check(instance, res.allocation, rule, kappa)
    _emit(report("sybil", rep.to_json()))
    return 0 if rep.is_swe else 1


def _cmd_demo(args) -> int:
    name = args.name
    if name == "nash":
        viol = exchange_violation_demo(demos.NASH_DIFFERENTIABLE)
        instance = Instance((Linear([1.0]), Linear([2.0])), 1.0)
        X, q, spends, budget_check = demos._nash_solve(instance)
        print(viol.describe(), file=sys.stderr)
        print(
            f"Threshold prices q = {[round(float(t), 6) for t in q]} support the "
            f"same point with unit budgets: spends = "
            f"{[round(float(s), 6) for s in spends]}.",
            file=sys.stderr,
        )
        payload = report(
            "demo-nash",
            {
                "violation": viol.to_json(),
                "thresholds": q,
                "spends": spends,
                "budget_check": budget_check,
                "allocation": X,
            },
        )
        _emit(payload)
        return 0 if (viol.margin > 1e-9 and budget_check) else 1
    if name == "first-welfare":
        instance = Instance((Linear([1.0]), Linear([6.0]), Linear([5.0])), 1.0)
        X = np.array([[0.0], [1.0], [0.0]])
        q = np.array([6.0])
        holds = first_welfare_check(instance, X, q)
        total = float(sum(instance.values_at(X)))
        print(
            "One good, linear agents with weights (1, 6, 5); the flat price 6 "
            "sells everything to agent 1 (0-indexed).\n"
            f"Total value {total:g} "
            + ("matches" if holds else "does NOT match")
            + " the brute-force utilitarian optimum.",
            file=sys.stderr,
        )
        payload = report(
            "demo-first-welfare",
            {"prices": q, "allocation": X, "total_value": total, "holds": holds},
        )
        _emit(payload)
        return 0 if holds else 1
    if name == "gap":
        rep = linear_gap_demo(args.n, args.eps, 0.5 if args.rho is None else args.rho)
        report_name, ok = "demo-gap", rep.ratio <= rep.bound + 1e-9
    else:
        kind = demos.MIXED_DEGREE if name == "mixed-degree" else demos.NEGATIVE_RHO
        rep = exchange_violation_demo(kind, args.rho)
        report_name, ok = "demo-violation", rep.margin > 1e-9
    print(rep.describe(), file=sys.stderr)
    _emit(report(report_name, rep.to_json()))
    return 0 if ok else 1


def _cmd_fisher(args) -> int:
    instance, X, rule, tol = _load_solved(args)
    cert = we_certificate(instance, X, rule, tol)
    # to_fisher's two steps, reusing the report's certificate
    _require_certified(cert)
    budgets, fisher_pass = _fisher_check(instance, X, rule)
    payload = report(
        "fisher",
        {
            "budgets": budgets.budgets,
            "fisher_pass": fisher_pass,
            "certificate": cert.to_json(),
        },
    )
    _emit(payload)
    return 0 if fisher_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesmarket",
        description="Curved-welfare allocation, supporting prices, and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximize welfare and report the optimum")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="certify an allocation as an equilibrium")
    p.add_argument("file")
    p.add_argument("solution")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("truthful", help="single-good truthful mechanism")
    p.add_argument("file")
    p.add_argument("--agent", type=int, default=None)
    p.add_argument("--scan", action="store_true")
    p.add_argument("--grid", type=int, default=400)
    p.set_defaults(func=_cmd_truthful)

    p = sub.add_parser("sybil-check", help="identity-splitting stability report")
    p.add_argument("file")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_sybil_check)

    p = sub.add_parser("demo", help="boundary demonstrations")
    p.add_argument(
        "name",
        choices=["gap", "mixed-degree", "neg-rho", "nash", "first-welfare"],
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=None)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("fisher", help="convert an equilibrium to budgets")
    p.add_argument("file")
    p.add_argument("solution")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_fisher)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CesMarketError as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
