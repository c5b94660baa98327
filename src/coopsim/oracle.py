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
form with q held fixed; ``grid_search`` finds the best point of the (q, p)
grid, independently of the closed form, by searching each q row for its
budget edge; ``simulate_stationary`` validates a policy by running the
slotted chain. Under fixed mixing the chain's two queues are Lindley
recursions (Lindley, 1952) whose service draws do not depend on the state,
so the simulator runs them as numpy passes over fixed-size blocks of uniforms:
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
    """Best point of the (q, p) grid; a check of the closed form.

    Mixing is always over {0, p_max}; on a finer power grid this restricted
    support makes the result a documented approximation rather than the true
    optimum. Returns the best feasible grid point; on ties the scan order (q
    ascending, then p ascending) keeps the least-cooperative, least-active
    point. ``q_fixed`` restricts the search to one cooperation level. Raises
    ValueError when ``q_fixed`` is outside [0, 1] or no grid point meets the
    budget.

    The result is that of scoring every point, found one q row at a time.
    Along a row neither the spend coop + pi_0 p p_max nor the rate
    min(lambda_su, m pi_0 p) falls as p grows (pi_0 >= 0, and rounding is
    monotone), so the points within budget are a prefix of the row and its
    last point is the row's peak. A bisection across all rows at once finds
    each prefix in log2(1/step) passes; the first row with the highest peak
    holds the scan's first maximum, and ``argmax`` over that row's prefix
    finds it. Memory grows as 1/step.
    """
    if not 0.0 < step <= 0.1:
        raise ValueError("step must lie in (0, 0.1]")
    P = params.p_max
    if q_fixed is None:
        q = np.arange(0.0, 1.0 + step / 2, step)
        q[-1] = min(q[-1], 1.0)
    else:
        _check_q(q_fixed)
        q = np.asarray([q_fixed], dtype=float)
    p = np.arange(0.0, 1.0 + step / 2, step)
    p[-1] = min(p[-1], 1.0)
    pi_0, coop = _occupancy(params, q)
    m_pi_0 = params.mu_su[P] * pi_0
    # points within budget per row, set bit by bit from the highest; the
    # spend is coop + pi_0 * p * P, product by product, as a full scan has it.
    # Counts past the row read its last point, which keeps the test monotone,
    # so a row within budget to its end counts len(p) once clipped.
    fit = np.zeros(len(q), dtype=np.intp)
    bit = 1 << (len(p).bit_length() - 1)
    while bit:
        last = p.take(fit + (bit - 1), mode="clip")
        fit += bit * (coop + pi_0 * last * P <= params.p_avg + 1e-12)
        bit >>= 1
    np.minimum(fit, len(p), out=fit)
    peak = np.where(fit > 0, np.minimum(params.lambda_su, m_pi_0 * p[fit - 1]), -np.inf)
    i = int(np.argmax(peak))
    if peak[i] == -np.inf:
        raise ValueError(f"no grid point meets p_avg={params.p_avg:g}")
    j = int(np.argmax(np.minimum(params.lambda_su, m_pi_0[i] * p[:fit[i]])))
    return _policy_at(params, float(q[i]), float(p[j]))


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
    minimum, and ``served`` is its arrivals less that backlog. A block whose
    incoming backlog is at least its row count skips that scan: with at most
    one departure a slot the queue cannot empty there, so it just adds
    arrivals less departures.

    The uniforms come in blocks of ``_CHUNK_ROWS`` rows, drawn into one
    reused buffer (the same stream as one horizon-by-4 draw) and turned into
    columns once, so every pass reads contiguous memory. Every pass writes
    into buffers allocated once per call, and each queue carries its backlog
    and last arrival across blocks, so memory does not grow with the
    horizon. The power total equals a slot loop's float sum of p_max charges
    bit for bit: it is an int count of charges times num / den while that
    count times num stays below 2**53 (p_max = num / den in lowest terms),
    where every partial sum is exact, and a float cumsum of the charges in
    slot order from the first block past that bound (at once for 0.3).
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
    num, den = P.as_integer_ratio()
    units = 0                       # None once charges go to the float cumsum
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
        powered = int(powered + np.count_nonzero(both))
        su_served = np.less(u_success, mu, out=tx)
        np.logical_and(su_served, both, out=su_served)
        su_arrivals[1:n + 1] = arrival_counts(u_su, params.a_max, params.lambda_su)
        block_arrived = int(su_arrivals[1:n + 1].sum())
        arrived += block_arrived
        if su_backlog >= n:
            # At most one departure a slot: the walk never falls below -n,
            # so the minimum below is -su_backlog and the scan is moot.
            su_backlog += (int(su_arrivals[0]) + block_arrived - int(su_arrivals[n])
                           - int(np.count_nonzero(su_served)))
        else:
            su = np.subtract(su_arrivals[:n], su_served, out=su_walk[:n])
            np.cumsum(su, out=su)
            su_backlog = int(su[-1]) - min(int(su.min()), -su_backlog)
        su_arrivals[0] = su_arrivals[n]
        if units is not None and (units + powered) * num < 2**53:
            # each partial sum k * num / den, k * num < 2**53, is a float
            # exactly, so the slot loop's adds are exact and total this
            units += powered
            power_total = units * num / den
        else:
            units = None
            charges[0] = power_total
            power_total = float(np.cumsum(charges[:powered + 1], out=charged[:powered + 1])[-1])
    served = arrived - (su_backlog + int(su_arrivals[0]))
    return StationarySimResult(
        throughput=served / horizon_slots,
        avg_power=power_total / horizon_slots,
        idle_fraction=idle_slots / horizon_slots,
        slots=horizon_slots,
    )
