"""Offline optimum over stationary randomized policies (two-point power set).

A stationary policy is a pair of mixing probabilities: cooperate at peak
power with probability q in every busy slot, transmit own data at peak power
with probability p in every idle slot. The idle fraction of the occupancy
chain is then pi_0(q) = 1 - lambda_pu / (phi_nc + q (phi_c - phi_nc)), the
deliverable rate is pi_0(q) * p * mu_su(p_max) capped by the arrival rate,
and the power spend is (1 - pi_0) q p_max + pi_0 p p_max.

Raising q buys idle slots at increasing power cost, so the optimum either
saturates q = 1 (slack budget), sits at q = 0 (idle transmission alone
exhausts the budget), or balances the budget exactly between cooperation and
transmission. ``optimal_two_point`` evaluates that closed form and
double-checks it against a fine grid; ``optimal_at_q`` is the same closed
form with q held fixed; ``grid_search`` is the independent brute-force
oracle; ``simulate_stationary`` validates a policy by running the slotted
chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .montecarlo import arrival_counts


@dataclass(frozen=True)
class StationaryPolicy:
    coop_prob: float       # q: busy-slot cooperation probability
    idle_tx_prob: float    # p: idle-slot transmission probability
    upsilon: float         # long-run deliverable packets/slot
    pi_0: float
    power_used: float      # long-run power units/slot


@dataclass(frozen=True)
class StationarySimResult:
    throughput: float      # delivered packets/slot
    avg_power: float
    idle_fraction: float
    slots: int


def _require_two_point(params: ModelParams) -> None:
    if not params.power_set.two_point:
        raise ValueError(
            "closed-form oracle needs a two-point power set; "
            "use grid_search for general grids"
        )


def _occupancy(params: ModelParams, q):
    """(pi_0, cooperation power per slot) at cooperation level ``q``; elementwise."""
    mu_eff = params.phi_nc + q * (params.phi_c - params.phi_nc)
    return 1.0 - params.lambda_pu / mu_eff, (params.lambda_pu / mu_eff) * q * params.p_max


def _best_p(params: ModelParams, q):
    """(pi_0, p) at cooperation level ``q``, elementwise.

    p is the idle transmission probability that spends what the budget leaves
    after cooperation, capped at 1; it is negative where cooperation alone
    overspends the budget.
    """
    pi_0, coop = _occupancy(params, q)
    return pi_0, np.minimum((params.p_avg - coop) / (pi_0 * params.p_max), 1.0)


def _policy_at(params: ModelParams, q: float, p: float) -> StationaryPolicy:
    pi_0 = _occupancy(params, q)[0]
    power = (1.0 - pi_0) * q * params.p_max + pi_0 * p * params.p_max
    ups = min(params.lambda_su, pi_0 * p * params.mu_su_of(params.p_max))
    return StationaryPolicy(
        coop_prob=q, idle_tx_prob=p, upsilon=ups, pi_0=pi_0, power_used=power
    )


def optimal_two_point(params: ModelParams) -> StationaryPolicy:
    """Best stationary mixing pair, in closed form.

    When the arrival-rate cap binds, the cheapest policy attaining it is
    returned (lowest q, then lowest p). Raises RuntimeError if the built-in
    grid refinement ever beats the closed form, which would mean a bug.
    """
    _require_two_point(params)
    lam = params.lambda_pu
    P = params.p_max
    m = params.mu_su_of(P)
    delta = params.phi_c - params.phi_nc

    def full_cost(q: float) -> float:     # power when p = 1
        pi_0, coop = _occupancy(params, q)
        return coop + pi_0 * P

    if params.p_avg <= 0.0 or params.lambda_su == 0.0 or m == 0.0:
        return _policy_at(params, 0.0, 0.0)

    if delta <= 0.0 or lam == 0.0:
        q_cand = 0.0                      # cooperation buys nothing
    elif full_cost(1.0) <= params.p_avg:
        q_cand = 1.0                      # slack budget, maximize idle time
    elif full_cost(0.0) >= params.p_avg:
        q_cand = 0.0                      # idle transmission alone over budget
    else:
        # Balance point: cooperation and full idle transmission exactly
        # exhaust the budget.
        q_cand = (P * lam - params.phi_nc * (P - params.p_avg)) / (
            delta * (P - params.p_avg) + P * lam
        )
    pi_cand, coop_cand = _occupancy(params, q_cand)
    if coop_cand + pi_cand * P <= params.p_avg:      # power at p = 1
        p_cand = 1.0
    else:
        p_cand = (params.p_avg - coop_cand) / (pi_cand * P)
    ups_cand = m * pi_cand * p_cand

    if params.lambda_su < ups_cand:
        # The cap binds: reach it with the least power.
        pi_nc = _occupancy(params, 0.0)[0]
        if m * pi_nc >= params.lambda_su:
            q_star, p_star = 0.0, params.lambda_su / (m * pi_nc)
        else:
            mu_needed = lam / (1.0 - params.lambda_su / m)
            q_star, p_star = (mu_needed - params.phi_nc) / delta, 1.0
    else:
        q_star, p_star = q_cand, p_cand

    best = _policy_at(params, q_star, p_star)
    refined = _best_on_q_grid(params, step=1e-4)
    if refined > best.upsilon + 1e-9:
        raise RuntimeError(
            "grid refinement (%g) beat the closed form (%g)" % (refined, best.upsilon)
        )
    return best


def _best_on_q_grid(params: ModelParams, step: float) -> float:
    """Best achievable rate over a q grid with p chosen optimally per q.

    Where cooperation alone overspends the budget, p and hence the rate are
    negative and never win, since q = 0 is always within budget.
    """
    q = np.arange(0.0, 1.0 + step / 2, step)
    q[-1] = 1.0
    pi_0, p = _best_p(params, q)
    ups = np.minimum(params.lambda_su, params.mu_su_of(params.p_max) * pi_0 * p)
    return float(ups.max())


def _check_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"cooperation probability q={q:g} must lie in [0, 1]")


def optimal_at_q(params: ModelParams, q: float) -> StationaryPolicy:
    """Best stationary pair with the cooperation probability fixed at ``q``.

    Closed form: the budget left after cooperation buys idle transmission,
    up to p = 1 or the arrival rate. Raises ValueError when q is outside
    [0, 1] or cooperation at q alone overspends the budget.
    """
    _require_two_point(params)
    _check_q(q)
    pi_0, p = _best_p(params, q)
    if p < 0.0:
        raise ValueError(f"cooperation at q={q:g} alone exceeds p_avg={params.p_avg:g}")
    m = params.mu_su_of(params.p_max)
    # no more idle transmission than it takes to serve every arrival
    p = min(p, params.lambda_su / (m * pi_0)) if m > 0.0 else 0.0
    return _policy_at(params, float(q), float(p))


def grid_search(
    params: ModelParams, step: float, q_fixed: float | None = None
) -> StationaryPolicy:
    """Exhaustive scan of the (q, p) grid; brute-force check of the oracle.

    Mixing is always over {0, p_max}; on a finer power grid this restricted
    support makes the result a documented approximation rather than the true
    optimum. Returns the best feasible grid point; on ties the scan order (q
    ascending, then p ascending) keeps the least-cooperative, least-active
    point. ``q_fixed`` restricts the scan to one cooperation level. Raises
    ValueError when ``q_fixed`` is outside [0, 1] or no grid point meets the
    budget.
    """
    if not 0.0 < step <= 0.1:
        raise ValueError("step must lie in (0, 0.1]")
    P = params.p_max
    m = params.mu_su_of(P)
    if q_fixed is None:
        q = np.arange(0.0, 1.0 + step / 2, step)
        q[-1] = min(q[-1], 1.0)
    else:
        _check_q(q_fixed)
        q = np.asarray([q_fixed], dtype=float)
    p = np.arange(0.0, 1.0 + step / 2, step)
    p[-1] = min(p[-1], 1.0)
    pi_0, coop = _occupancy(params, q)
    power = coop[:, None] + pi_0[:, None] * p[None, :] * P
    ups = np.minimum(params.lambda_su, m * pi_0[:, None] * p[None, :])
    ups = np.where(power <= params.p_avg + 1e-12, ups, -np.inf)
    i, j = np.unravel_index(int(np.argmax(ups)), ups.shape)
    if ups[i, j] == -np.inf:
        raise ValueError(f"no grid point meets p_avg={params.p_avg:g}")
    return _policy_at(params, float(q[i]), float(p[j]))


def simulate_stationary(
    policy: StationaryPolicy, params: ModelParams, horizon_slots: int, seed: int
) -> StationarySimResult:
    """Run the slotted chain under fixed (q, p) mixing and measure it.

    Every arrival is admitted; the reported throughput is delivered
    packets/slot, which converges to min(lambda_su, pi_0 p mu_su) either way
    the cap falls. Power is charged as allocated, backlog or not.
    """
    if horizon_slots < 1:
        raise ValueError("horizon must be at least one slot")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    P = params.p_max
    u = rng.random((horizon_slots, 4))
    arrivals = arrival_counts(u[:, 0], params.a_max, params.lambda_su)
    tx_idle = u[:, 1] < policy.idle_tx_prob
    coop_busy = u[:, 1] < policy.coop_prob
    pu_succ_coop = u[:, 2] < params.phi_c
    pu_succ_nc = u[:, 2] < params.phi_nc
    su_succ = u[:, 2] < params.mu_su_of(P)
    a_pu = u[:, 3] < params.lambda_pu

    q_pu = 0
    q_su = 0
    served = 0
    idle_slots = 0
    power_total = 0.0
    for t in range(horizon_slots):
        if q_pu == 0:
            idle_slots += 1
            if tx_idle[t]:
                power_total += P
                if q_su > 0 and su_succ[t]:
                    served += 1
                    q_su -= 1
            q_pu = 1 if a_pu[t] else 0
        else:
            if coop_busy[t]:
                power_total += P
                success = pu_succ_coop[t]
            else:
                success = pu_succ_nc[t]
            q_pu += (1 if a_pu[t] else 0) - (1 if success else 0)
        q_su += int(arrivals[t])
    return StationarySimResult(
        throughput=served / horizon_slots,
        avg_power=power_total / horizon_slots,
        idle_fraction=idle_slots / horizon_slots,
        slots=horizon_slots,
    )
