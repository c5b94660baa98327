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
chain. Under fixed mixing the chain's two queues are Lindley recursions
(Lindley, 1952) whose service draws do not depend on the state, so the
simulator runs them as numpy passes over fixed-size blocks of uniforms:
bounded memory at any horizon, and the same uniform stream and the same
results as a slot-by-slot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .montecarlo import arrival_counts

# rows of uniforms drawn at a time by simulate_stationary: 0.5 MiB per block
# and under 2 MiB of buffers in all, so each pass over a block runs in cache
_CHUNK_ROWS = 1 << 14
# q rows scanned at a time by grid_search; 0.5 MiB per array at step 1e-3
_GRID_ROWS = 64


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
            "closed-form oracle needs a two-point power set; scan the "
            "(q, p) grid with grid_search (oracle --grid-step) instead"
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
    ups = min(params.lambda_su, pi_0 * p * params.mu_su[params.p_max])
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
    m = params.mu_su[P]
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
    ups = np.minimum(params.lambda_su, params.mu_su[params.p_max] * pi_0 * p)
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
    m = params.mu_su[params.p_max]
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

    The grid is scanned ``_GRID_ROWS`` q rows at a time into buffers
    allocated once per call, so memory does not grow with 1/step^2. Within a
    block ``argmax`` keeps the first maximum in scan order, and a later block
    replaces the best point only when strictly better, which is the same tie
    rule over the whole grid.
    """
    if not 0.0 < step <= 0.1:
        raise ValueError("step must lie in (0, 0.1]")
    P = params.p_max
    m = params.mu_su[P]
    if q_fixed is None:
        q = np.arange(0.0, 1.0 + step / 2, step)
        q[-1] = min(q[-1], 1.0)
    else:
        _check_q(q_fixed)
        q = np.asarray([q_fixed], dtype=float)
    p = np.arange(0.0, 1.0 + step / 2, step)
    p[-1] = min(p[-1], 1.0)
    pi_0, coop = _occupancy(params, q)
    m_pi_0 = m * pi_0
    shape = (min(_GRID_ROWS, len(q)), len(p))
    power_buf, ups_buf, over_buf = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    best, best_q, best_p = -np.inf, 0.0, 0.0
    for lo in range(0, len(q), _GRID_ROWS):
        rows = slice(lo, lo + _GRID_ROWS)
        k = len(q[rows])
        power, ups, over = power_buf[:k], ups_buf[:k], over_buf[:k]
        # coop + pi_0 * p * P and min(lambda_su, m * pi_0 * p), product by product
        np.multiply(pi_0[rows, None], p, out=power)
        np.multiply(power, P, out=power)
        np.add(coop[rows, None], power, out=power)
        np.logical_not(np.less_equal(power, params.p_avg + 1e-12, out=over), out=over)
        np.multiply(m_pi_0[rows, None], p, out=ups)
        np.minimum(params.lambda_su, ups, out=ups)
        np.copyto(ups, -np.inf, where=over)
        i, j = np.unravel_index(int(np.argmax(ups)), ups.shape)
        if ups[i, j] > best:
            best, best_q, best_p = ups[i, j], q[lo + i], p[j]
    if best == -np.inf:
        raise ValueError(f"no grid point meets p_avg={params.p_avg:g}")
    return _policy_at(params, float(best_q), float(best_p))


def simulate_stationary(
    policy: StationaryPolicy, params: ModelParams, horizon_slots: int, seed: int
) -> StationarySimResult:
    """Run the slotted chain under fixed (q, p) mixing and measure it.

    Every arrival is admitted; the reported throughput is delivered
    packets/slot, which converges to min(lambda_su, pi_0 p mu_su) either way
    the cap falls. Power is charged as allocated, backlog or not.

    Slot t reads four uniforms: secondary arrivals, the mixing coin (q when
    busy, p when idle), the success coin and the primary arrival. Both queues
    are Lindley recursions q(t+1) = max(q(t) - s(t), 0) + a(t) whose service
    draws s do not depend on the state, so each runs as a cumulative sum
    instead of a slot loop. The primary's service is drawn in every slot,
    since max(0 - s, 0) = 0 in an idle one, and its running minimum gives
    the backlog, hence idleness, of every slot. The secondary is served in
    idle slots only; only its final backlog is read, which takes the walk's
    minimum, and ``served`` is its arrivals less that backlog.

    The uniforms come in blocks of ``_CHUNK_ROWS`` rows, drawn into one
    reused buffer (the same stream as one horizon-by-4 draw) and turned into
    columns once, so every pass reads contiguous memory. Every pass writes
    into buffers allocated once per call, and each queue carries its backlog
    and last arrival across blocks, so memory does not grow with the
    horizon. Powered slots are charged p_max one at a time, in slot order,
    so the float total equals a slot loop's bit for bit.
    """
    if horizon_slots < 1:
        raise ValueError("horizon must be at least one slot")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    P = params.p_max
    mu = params.mu_su[P]
    size = min(_CHUNK_ROWS, horizon_slots)
    rows = np.empty((size, 4))
    cols = np.empty((4, size))
    flags = np.empty((5, size), dtype=bool)
    # slot 0 holds the last arrival of the previous block, slots 1.. this block's
    pu_arrivals = np.zeros(size + 1, dtype=bool)
    su_arrivals = np.zeros(size + 1, dtype=np.int64)
    pu_walk = np.zeros(size + 1, dtype=np.int32)     # slot 0 is the walk's start
    pu_before = np.empty(size + 1, dtype=np.int32)
    su_walk = np.empty(size, dtype=np.int64)
    charges = np.full(size + 1, P)
    charged = np.empty(size + 1)
    pu_backlog = su_backlog = arrived = idle_slots = 0
    power_total = 0.0
    for start in range(0, horizon_slots, size):
        n = min(size, horizon_slots - start)
        u_su, u_mix, u_success, u_pu = cols[:, :n]
        np.copyto(cols[:, :n], rng.random(out=rows[:n]).T)
        tx, coop, success, idle, both = flags[:, :n]
        np.less(u_mix, policy.idle_tx_prob, out=tx)
        np.less(u_mix, policy.coop_prob, out=coop)
        # success: u < phi_c when cooperating, u < phi_nc when not; phi_nc <=
        # phi_c (ModelParams checks it), so u < phi_nc succeeds either way
        np.less(u_success, params.phi_nc, out=success)
        np.less(u_success, params.phi_c, out=both)
        np.logical_and(both, coop, out=both)
        np.logical_or(success, both, out=success)
        # an arrival in slot t is first served in slot t + 1
        np.less(u_pu, params.lambda_pu, out=pu_arrivals[1:n + 1])
        inflow = pu_arrivals[:n]
        pu = pu_walk[:n + 1]
        np.subtract(inflow, success, out=pu[1:], dtype=np.int32)
        np.cumsum(pu[1:], out=pu[1:])
        # The walk falls at most one a slot, so a backlog above n cannot empty
        # within this block: capping it there keeps every value within int32
        # and every slot's emptiness the same.
        cap = min(pu_backlog, n + 1)
        before = pu_before[:n + 1]      # backlog after slot t - 1, t = 0..n
        np.minimum.accumulate(pu, out=before)
        np.minimum(before, -cap, out=before)
        np.subtract(pu, before, out=before)
        pu_backlog += int(before[n]) - cap
        np.add(before[:n], inflow, out=before[:n])
        np.equal(before[:n], 0, out=idle)
        pu_arrivals[0] = pu_arrivals[n]
        idle_slots += int(np.count_nonzero(idle))
        # powered slots: cooperating busy ones, then transmitting idle ones
        powered = np.count_nonzero(coop) - np.count_nonzero(
            np.logical_and(idle, coop, out=both))
        np.logical_and(idle, tx, out=both)
        powered += np.count_nonzero(both)
        su_served = np.less(u_success, mu, out=tx)
        np.logical_and(su_served, both, out=su_served)
        su_arrivals[1:n + 1] = arrival_counts(u_su, params.a_max, params.lambda_su)
        arrived += int(su_arrivals[1:n + 1].sum())
        su = np.subtract(su_arrivals[:n], su_served, out=su_walk[:n])
        np.cumsum(su, out=su)
        su_backlog = int(su[-1]) - min(int(su.min()), -su_backlog)
        su_arrivals[0] = su_arrivals[n]
        charges[0] = power_total
        power_total = float(np.cumsum(charges[:powered + 1], out=charged[:powered + 1])[-1])
    served = arrived - (su_backlog + int(su_arrivals[0]))
    return StationarySimResult(
        throughput=served / horizon_slots,
        avg_power=power_total / horizon_slots,
        idle_fraction=idle_slots / horizon_slots,
        slots=horizon_slots,
    )
