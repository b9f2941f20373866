"""Reference checks computed apart from the package.

Values, gradients, multipliers, closed-form shares, grid rounding and the
mechanism payment integral are written out here from their definitions and
use only a valuation's stored parameters, never its methods.  Each check
returns a list of problems; an empty list means the output passed.  scipy
is imported inside the checks that use it, which run after the measured
rounds, so it does not count in peak_rss_mb.
"""

from __future__ import annotations

import numpy as np

import cesmarket as cm

FOC_TOL = 1e-7        # first-order residual, relative to max(1, q_j)
PAYMENT_TOL = 1e-6    # payment identity, relative to max(1, v_i)
SHARE_TOL = 1e-7      # closed-form single-good shares
QUAD_TOL = 1e-7       # mechanism payment against quad, relative to max(1, p)
FEAS_TOL = 1e-9       # oversubscription allowed by as_allocation


# -- valuation formulas ------------------------------------------------------


def value(v, x):
    x = np.asarray(x, dtype=float)
    if isinstance(v, cm.Linear):
        return float(v.weights @ x)
    if isinstance(v, cm.Power):
        return float(v.weight * x[0] ** v.degree)
    if isinstance(v, cm.CobbDouglas):
        return float(v.scale * np.prod(x ** v.exponents))
    if isinstance(v, cm.CesForm):
        return float((v.weights @ x**v.sigma) ** (v.degree / v.sigma))
    if isinstance(v, cm.Leontief):
        sel = v.weights > 0
        return float(np.min(x[sel] / v.weights[sel]))
    raise TypeError(f"no reference formula for {type(v).__name__}")


def gradient(v, x):
    """Exact gradient; +inf where a partial diverges at a zero coordinate."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(v, cm.Linear):
            return v.weights.astype(float).copy()
        if isinstance(v, cm.Power):
            return np.array([v.weight * v.degree * x[0] ** (v.degree - 1.0)])
        if isinstance(v, cm.CobbDouglas):
            e = v.exponents
            g = np.where(e > 0, e * value(v, x) / x, 0.0)
            return np.where((e > 0) & (x == 0), np.inf, g)
        if isinstance(v, cm.CesForm):
            w, s, r = v.weights, v.sigma, v.degree
            inner = float(w @ x**s)
            g = np.where(w > 0, r * w * x ** (s - 1.0) * inner ** (r / s - 1.0), 0.0)
            return np.where((w > 0) & (x == 0) & (s < 1.0), np.inf, g)
    raise TypeError(f"no reference gradient for {type(v).__name__}")


def objective(instance, X):
    vals = np.array([value(v, X[i]) for i, v in enumerate(instance.valuations)])
    return float((vals**instance.rho).sum() / instance.rho)


# -- allocation checks -------------------------------------------------------


def feasibility(X, n, m):
    X = np.asarray(X, dtype=float)
    if X.shape != (n, m):
        return [f"allocation shape {X.shape}, expected {(n, m)}"]
    if not np.all(np.isfinite(X)):
        return ["allocation has a non-finite entry"]
    out = []
    if X.min() < 0:
        out.append(f"negative allocation entry {X.min():.3e}")
    over = X.sum(axis=0).max() - 1.0
    if over > FEAS_TOL:
        out.append(f"a good is oversubscribed by {over:.3e}")
    return out


def best_value_per_cost(v, q):
    """max v(d) over bundles d >= 0 with q . d = 1, for degree-1 kinds."""
    with np.errstate(divide="ignore"):
        if isinstance(v, cm.Linear) or (isinstance(v, cm.CesForm) and v.sigma == 1.0):
            return float(np.max(np.where(v.weights > 0, v.weights / q, 0.0)))
        if isinstance(v, cm.CesForm):
            s = v.sigma
            a = (v.weights ** (1.0 / (1.0 - s)) * q ** (-s / (1.0 - s))).sum()
            return float(a ** ((1.0 - s) / s))
    return np.inf


def first_order(instance, X):
    """KKT conditions of max (1/rho) sum v_i**rho, sum_i x_ij <= 1.

    q_j is the largest scaled marginal v_i**(rho-1) dv_i/dx_ij over agents
    that hold something; every held coordinate must match it and every
    good with q_j > 0 must clear.  At rho = 1 a degree-1 agent may hold
    nothing, if no bundle is worth more than it costs at prices q.  By
    concavity these conditions certify optimality.
    """
    rho = instance.rho
    n, m = X.shape
    idle = ~(X > 0).any(axis=1) if rho == 1.0 and instance.degree == 1.0 else np.zeros(n, bool)
    S = np.zeros((n, m))
    for i, v in enumerate(instance.valuations):
        if idle[i]:
            continue
        vi = value(v, X[i])
        fac = 1.0 if rho == 1.0 else (vi ** (rho - 1.0) if vi > 0 else np.inf)
        g = gradient(v, X[i])
        with np.errstate(invalid="ignore"):
            S[i] = np.where(g == 0.0, 0.0, fac * g)
    if not np.all(np.isfinite(S)):
        return ["a scaled marginal is infinite: some agent could gain from a zero good"]
    q = S.max(axis=0)
    out = []
    held = X > 0
    gap = np.abs(S - q)[held] / np.maximum(1.0, q[np.nonzero(held)[1]])
    if gap.size and gap.max() > FOC_TOL:
        out.append(f"held coordinate off its price by {gap.max():.3e}")
    priced = q > 0
    clear = np.abs(X[:, priced].sum(axis=0) - 1.0)
    if clear.size and clear.max() > FOC_TOL:
        out.append(f"priced good does not clear by {clear.max():.3e}")
    for i in np.flatnonzero(idle):
        gain = best_value_per_cost(instance.valuations[i], q)
        if gain > 1.0 + FOC_TOL:
            out.append(f"agent {i} holds nothing but values a bundle at {gain:.6f}x its cost")
    return out


def leontief_first_order(instance, X):
    """KKT conditions of the Leontief program in attained levels alpha.

    x_i must be the minimal bundle w_i * alpha_i, and some q >= 0 (found by
    nonnegative least squares on the binding goods) must satisfy
    alpha_i**(rho-1) = sum_j q_j w_ij, with >= for alpha_i = 0 at rho = 1.
    """
    from scipy.optimize import nnls

    W = np.stack([v.weights for v in instance.valuations])
    alpha = np.array([value(v, X[i]) for i, v in enumerate(instance.valuations)])
    rho = instance.rho
    out = []
    if np.abs(X - W * alpha[:, None]).max() > FOC_TOL:
        out.append("bundle is not the minimal bundle of its level")
    usage = W.T @ alpha
    if usage.max() > 1.0 + FOC_TOL:
        out.append(f"supply exceeded by {usage.max() - 1.0:.3e}")
    binding = usage > 1.0 - FOC_TOL
    pos = alpha > 0
    if not binding.any():
        return out + ["no good binds at the optimum"]
    target = np.ones(pos.sum()) if rho == 1.0 else alpha[pos] ** (rho - 1.0)
    qb, _ = nnls(W[np.ix_(pos, binding)], target)
    res = np.abs(W[np.ix_(pos, binding)] @ qb - target) / np.maximum(1.0, target)
    if res.max() > FOC_TOL:
        out.append(f"no nonnegative multipliers: stationarity residual {res.max():.3e}")
    if (~pos).any() and (W[np.ix_(~pos, binding)] @ qb < 1.0 - FOC_TOL).any():
        out.append("an agent at zero would gain from consuming")
    return out


def payment_identity(instance, X, rule):
    """p(x_i) = rho * r * v_i(x_i) for every agent."""
    worst = 0.0
    for i, v in enumerate(instance.valuations):
        vi = value(v, X[i])
        target = instance.rho * instance.degree * vi
        worst = max(worst, abs(rule.price(X[i]) - target) / max(1.0, vi))
    return [] if worst <= PAYMENT_TOL else [f"payment identity off by {worst:.3e}"]


def closed_form_shares(weights, degree, rho):
    """Optimal single-good shares: proportional to w**(rho / (1 - r*rho))."""
    s = np.asarray(weights, dtype=float) ** (rho / (1.0 - degree * rho))
    return s / s.sum()


def single_good_shares(shares, weights, degree, rho):
    err = np.abs(np.ravel(shares) - closed_form_shares(weights, degree, rho)).max()
    return [] if err <= SHARE_TOL else [f"single-good shares off by {err:.3e}"]


def round_to_grid(X, resolution):
    """Per good, the nearest grid split with exactly `resolution` units."""
    R = np.empty_like(X)
    for j in range(X.shape[1]):
        col = X[:, j] / X[:, j].sum() * resolution
        units = np.floor(col)
        rest = int(resolution - units.sum())
        units[np.argsort(-(col - units), kind="stable")[:rest]] += 1
        R[:, j] = units / resolution
    return R


def oracle_bounds(instance, X_oracle, X_opt, resolution):
    """Rounded optimum <= oracle objective <= certified optimum."""
    out = []
    units = np.asarray(X_oracle) * resolution
    if np.abs(units - np.round(units)).max() > 1e-9 or np.abs(
        np.round(units).sum(axis=0) - resolution
    ).max() > 0:
        out.append("oracle allocation is not a full grid split")
    f_oracle = objective(instance, X_oracle)
    f_round = objective(instance, round_to_grid(np.asarray(X_opt), resolution))
    f_opt = objective(instance, X_opt)
    scale = 1e-12 * max(1.0, abs(f_opt))
    if f_oracle < f_round - scale:
        out.append(f"oracle objective {f_oracle!r} below the rounded optimum {f_round!r}")
    if f_oracle > f_opt + 1e3 * scale:
        out.append(f"oracle objective {f_oracle!r} above the certified optimum {f_opt!r}")
    return out


# -- mechanism checks --------------------------------------------------------


def reference_payment(bid, others, degree, rho):
    """Myerson payment b * s(b) - integral_0^b s(t) dt, s = share**degree."""
    from scipy.integrate import quad

    alpha = rho / (1.0 - degree * rho)
    c = float((np.asarray(others, dtype=float) ** alpha).sum())

    def s(t):
        return (t**alpha / (t**alpha + c)) ** degree

    area, _ = quad(s, 0.0, bid, epsabs=1e-14, epsrel=1e-13, limit=500)
    return bid * s(bid) - area


def mechanism(prof, outputs, grid):
    out = single_good_shares(outputs["allocation"], prof.bids, prof.degree, prof.rho)
    bids = prof.bids
    for i in range(bids.shape[0]):
        others = np.delete(bids, i)
        paid = outputs[f"payment{i}"]
        ref = reference_payment(bids[i], others, prof.degree, prof.rho)
        if abs(paid - ref) > QUAD_TOL * max(1.0, abs(ref)):
            out.append(f"agent {i} pays {paid!r}, quadrature gives {ref!r}")
        utility = bids[i] * outputs["allocation"][i] ** prof.degree - paid
        if utility < -1e-12:
            out.append(f"agent {i} has truthful utility {utility:.3e} < 0")
        step = (4.0 * bids[i] - bids[i] / 4.0) / (grid - 1)
        if abs(outputs[f"scan{i}"] - bids[i]) > step * (1 + 1e-9):
            out.append(f"agent {i}'s best response {outputs[f'scan{i}']!r} is not "
                       f"within one grid step of {bids[i]!r}")
    return out


# -- whole rounds ------------------------------------------------------------


def market(mkt, out):
    inst = mkt.instance
    X = out["solve"].allocation
    problems = feasibility(X, inst.n, inst.m)
    if problems:
        return problems
    if isinstance(inst.valuations[0], cm.Leontief):
        problems += leontief_first_order(inst, X)
    else:
        problems += first_order(inst, X)
        if not out["certificate"].passed:
            problems.append("we_certificate did not pass")
        budgets, fisher_ok = out["fisher"]
        if not fisher_ok:
            problems.append("to_fisher found an affordable better bundle")
        paid = np.array([out["rule"].price(x) for x in X])
        if np.abs(budgets.budgets - paid).max() > 1e-12 * max(1.0, paid.max()):
            problems.append("Fisher budgets differ from the equilibrium payments")
        if "sybil" in out:
            vals = [value(v, X[i]) for i, v in enumerate(inst.valuations)]
            stable = all(vi * (1.0 - inst.rho) <= mkt.kappa for vi in vals)
            if out["sybil"].is_swe != stable:
                problems.append("swe_check disagrees with the threshold v(1-rho) <= kappa")
    problems += payment_identity(inst, X, out["rule"])
    if inst.m == 1 and not isinstance(inst.valuations[0], cm.Leontief):
        w = [v.weights[0] for v in inst.valuations]
        problems += single_good_shares(X[:, 0], w, inst.degree, inst.rho)
    return problems


def round_outputs(inp, outputs, scan_grid, skip=()):
    """Every reference check on one round's outputs; returns problem strings.

    Keys in `skip` belong to failed operations, which are counted apart.
    """
    problems = []
    for mkt in inp.markets:
        if mkt.key in skip:
            continue
        problems += [f"{mkt.key}: {p}" for p in market(mkt, outputs[mkt.key])]
    for job in inp.oracles:
        if job.key in skip or job.market.key in skip:
            continue
        X_opt = outputs[job.market.key]["solve"].allocation
        found = oracle_bounds(job.market.instance, outputs[job.key]["oracle"], X_opt,
                              job.resolution)
        problems += [f"{job.key}: {p}" for p in found]
    for job in inp.welfare:
        if job.key in skip:
            continue
        if outputs[job.key]["first_welfare"] is not True:
            problems.append(f"{job.key}: a linear-price equilibrium failed first_welfare_check")
    for prof in inp.profiles:
        if prof.key in skip:
            continue
        problems += [f"{prof.key}: {p}" for p in mechanism(prof, outputs[prof.key], scan_grid)]
    return problems


def _fingerprint(obj):
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    for attr in ("allocation", "q", "budgets"):
        if hasattr(obj, attr):
            return _fingerprint(getattr(obj, attr))
    if isinstance(obj, tuple):
        return tuple(_fingerprint(x) for x in obj)
    return repr(obj)


def identical(first, other):
    """Determinism: a repeated round returns bitwise-identical outputs."""
    problems = []
    for key, outs in first.items():
        for name, obj in outs.items():
            if _fingerprint(obj) != _fingerprint(other.get(key, {}).get(name)):
                problems.append(f"{key}: repeated {name} differs from the first round")
    return problems
