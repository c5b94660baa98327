from dataclasses import replace

import numpy as np
import pytest

from coopsim import (
    ModelParams,
    StationaryPolicy,
    StationarySimResult,
    grid_search,
    optimal_at_q,
    optimal_two_point,
    simulate_stationary,
)
from coopsim import oracle
from coopsim.montecarlo import arrival_counts
from memtrace import traced_peak
from spec import step_pu_queue, step_su_queue

REF = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_two_point(g):
    phi_nc = float(g.uniform(0.2, 0.9))
    phi_c = float(g.uniform(phi_nc, min(phi_nc + 0.5, 1.0)))
    lam_pu = float(g.uniform(0.02, phi_nc * 0.95))
    p_max = float(g.uniform(0.5, 2.0))
    return ModelParams.two_point(
        lambda_pu=lam_pu,
        lambda_su=float(g.uniform(0.05, 1.0)),
        phi_nc=phi_nc,
        phi_c=phi_c,
        p_avg=float(g.uniform(0.05, 1.0)) * p_max,
        p_max=p_max,
        mu_su_max=float(g.uniform(0.3, 1.0)),
    )


def test_reference_optimum():
    pol = optimal_two_point(REF)
    assert pol.upsilon == pytest.approx(0.25)
    assert pol.coop_prob == pytest.approx(1 / 3)
    assert pol.idle_tx_prob == pytest.approx(1.0)
    assert pol.pi_0 == pytest.approx(0.25)
    assert pol.power_used == pytest.approx(0.5)


def test_power_unconstrained_limit():
    rich = ModelParams.two_point(0.5, 1.0, 0.6, 0.8, p_avg=1.0)
    pol = optimal_two_point(rich)
    assert pol.coop_prob == pytest.approx(1.0)
    assert pol.upsilon == pytest.approx(1 - 0.5 / 0.8)


def test_nothing_to_send():
    idlearr = ModelParams.two_point(0.5, 0.0, 0.6, 0.8, 0.5)
    pol = optimal_two_point(idlearr)
    assert pol.upsilon == 0.0
    assert pol.power_used == 0.0


def test_arrival_cap_binds_with_cheapest_policy():
    scarce = ModelParams.two_point(0.5, 0.1, 0.6, 0.8, 0.5)
    pol = optimal_two_point(scarce)
    assert pol.upsilon == pytest.approx(0.1)
    assert pol.coop_prob == 0.0              # no cooperation needed for 0.1
    assert pol.idle_tx_prob == pytest.approx(0.1 / (1 / 6))
    assert pol.power_used <= 0.5


def test_arrival_cap_tie_keeps_the_cheapest_policy():
    # lambda_su = 0.25 is exactly the rate of the budget-balancing point
    # (q = 1/3, p = 1), the cheapest policy that attains it; the cap branch's
    # formula reaches the same point only to rounding (q = 0.33333333333333315)
    tie = replace(REF, lambda_su=0.25)
    pi_cand = oracle._occupancy(tie, 1 / 3)[0]
    assert tie.mu_su[tie.p_max] * pi_cand * 1.0 == tie.lambda_su
    pol = optimal_two_point(tie)
    assert (pol.coop_prob, pol.idle_tx_prob, pol.upsilon, pol.power_used) == (1 / 3, 1.0, 0.25, 0.5)
    mu_needed = tie.lambda_pu / (1.0 - tie.lambda_su / tie.mu_su[tie.p_max])
    assert pol.coop_prob == pytest.approx((mu_needed - tie.phi_nc) / (tie.phi_c - tie.phi_nc))


def test_secondary_link_that_never_succeeds_spends_nothing_on_its_own_data():
    # mu_su(p_max) = 0: no idle transmission delivers anything
    dead = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5, mu_su_max=0.0)
    pol = optimal_two_point(dead)
    assert (pol.coop_prob, pol.idle_tx_prob, pol.upsilon, pol.power_used) == (0.0, 0.0, 0.0, 0.0)
    for q in (0.0, 0.2, 1 / 3, 0.4):
        at = optimal_at_q(dead, q)
        assert (at.coop_prob, at.idle_tx_prob, at.upsilon) == (q, 0.0, 0.0)
        assert at.power_used == (1.0 - at.pi_0) * q * dead.p_max     # cooperation power only


def test_equal_success_probabilities_make_cooperation_worthless():
    # phi_c == phi_nc: cooperation buys nothing, so q = 0 whatever the budget
    flat = ModelParams.two_point(0.5, 0.5, 0.7, 0.7, 0.5)
    pol = optimal_two_point(flat)
    assert pol.coop_prob == 0.0 and pol.idle_tx_prob == 1.0
    assert pol.power_used == pol.upsilon == 2 / 7


def test_grid_searches_the_full_cooperation_row():
    # a slack budget peaks on the last q row, q = 1, which the range must build
    slack = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, p_avg=1.0)
    best = grid_search(slack, step=0.01)
    assert (best.coop_prob, best.idle_tx_prob, best.upsilon) == (1.0, 1.0, 0.375)


def test_closed_form_refuses_a_grid_that_beats_it(monkeypatch):
    best = optimal_two_point(REF).upsilon
    monkeypatch.setattr(oracle, "_best_on_q_grid", lambda params: best + 1e-10)
    assert optimal_two_point(REF).upsilon == best      # within the 1e-9 slack
    monkeypatch.setattr(oracle, "_best_on_q_grid", lambda params: best + 1e-8)
    with pytest.raises(RuntimeError, match="grid refinement .* beat the closed form"):
        optimal_two_point(REF)


def test_closed_form_check_reads_the_q_row_below_one():
    # the optimum sits at q ~ 0.99993, between the 1e-4 grid's last two rows;
    # q = 1 overspends, so the check's best row is q = 0.9999, which its grid
    # must build and keep
    near_one = ModelParams.two_point(0.5, 1.0, 0.6, 0.8, 0.99995625)
    best = optimal_two_point(near_one)
    assert best.coop_prob == pytest.approx(0.99993, abs=1e-6)
    assert best.upsilon == pytest.approx(0.3749891, abs=1e-7)
    assert oracle._best_on_q_grid(near_one) == pytest.approx(0.3749844, abs=1e-7)


def test_grid_refuses_a_step_outside_its_range():
    for step in (0.0, -1e-3, 0.2):
        with pytest.raises(ValueError, match=r"step must lie in \(0, 0\.1\]"):
            grid_search(REF, step)


def test_grid_agrees_at_reference():
    pol = optimal_two_point(REF)
    # within one step of the closed form and never above it
    for step in (1e-3, 1e-4):
        grid = grid_search(REF, step)
        assert pol.upsilon - step <= grid.upsilon <= pol.upsilon


def test_grid_no_cooperation_row():
    best = grid_search(REF, step=1e-3, q_fixed=0.0)
    assert best.upsilon == pytest.approx(1 / 6, abs=1e-3)
    assert best.coop_prob == 0.0


def test_forced_q_closed_form_and_refusals():
    at = optimal_at_q(REF, 0.4)
    assert at.idle_tx_prob == pytest.approx(7 / 9, abs=1e-12)
    assert at.power_used == pytest.approx(REF.p_avg, abs=1e-12)
    # the closed form beats or matches every grid point on the same q row
    assert at.upsilon >= grid_search(REF, step=1e-3, q_fixed=0.4).upsilon
    assert optimal_at_q(REF, 0.0).upsilon == pytest.approx(1 / 6)
    # a low arrival rate caps p at the least value that serves every arrival
    capped = optimal_at_q(ModelParams.two_point(0.5, 0.1, 0.6, 0.8, 0.5), 0.4)
    assert capped.upsilon == pytest.approx(0.1) and capped.power_used < 0.5
    for q in (-0.1, 1.5):
        with pytest.raises(ValueError, match="must lie in"):
            optimal_at_q(REF, q)
        with pytest.raises(ValueError, match="must lie in"):
            grid_search(REF, step=1e-2, q_fixed=q)
    # cooperating in every busy slot costs 0.625 > p_avg = 0.5 on its own
    with pytest.raises(ValueError, match="exceeds p_avg"):
        optimal_at_q(REF, 1.0)
    with pytest.raises(ValueError, match="no grid point meets"):
        grid_search(REF, step=1e-2, q_fixed=1.0)


def test_grid_corners_only():
    corners = grid_search(REF, step=0.1)
    assert 0.0 <= corners.coop_prob <= 1.0
    assert corners.upsilon <= optimal_two_point(REF).upsilon + 1e-12


def test_closed_form_dominates_grid_on_random_models():
    g = rng(12)
    for _ in range(60):
        params = random_two_point(g)
        pol = optimal_two_point(params)
        grid = grid_search(params, step=5e-3)
        assert pol.upsilon >= grid.upsilon - 1e-9
        assert abs(pol.upsilon - grid.upsilon) <= 2e-2
        assert pol.power_used <= params.p_avg + 1e-9


def test_returned_policy_feasible_on_random_models():
    g = rng(13)
    for _ in range(200):
        params = random_two_point(g)
        pol = optimal_two_point(params)
        assert 0.0 <= pol.coop_prob <= 1.0 + 1e-12
        assert 0.0 <= pol.idle_tx_prob <= 1.0 + 1e-12
        assert pol.power_used <= params.p_avg + 1e-9
        assert pol.upsilon <= params.lambda_su + 1e-12


def test_simulation_matches_analytics():
    pol = optimal_two_point(REF)
    runs = [simulate_stationary(pol, REF, 60_000, seed) for seed in range(40, 52)]
    thr = np.array([r.throughput for r in runs])
    pwr = np.array([r.avg_power for r in runs])
    idle = np.array([r.idle_fraction for r in runs])
    se = thr.std(ddof=1) / np.sqrt(len(thr))
    assert abs(thr.mean() - pol.upsilon) < 3 * se + 1e-3
    se_p = pwr.std(ddof=1) / np.sqrt(len(pwr))
    assert abs(pwr.mean() - pol.power_used) < 3 * se_p + 1e-3
    se_i = idle.std(ddof=1) / np.sqrt(len(idle))
    assert abs(idle.mean() - pol.pi_0) < 3 * se_i + 1e-3


def test_simulation_no_coop_reference():
    from coopsim import StationaryPolicy

    pol = StationaryPolicy(coop_prob=0.0, idle_tx_prob=1.0, upsilon=1 / 6,
                           pi_0=1 / 6, power_used=1 / 6)
    sim = simulate_stationary(pol, REF, 400_000, seed=99)
    assert sim.throughput == pytest.approx(1 / 6, abs=0.005)


def test_simulation_silent_policy():
    from coopsim import StationaryPolicy

    pol = StationaryPolicy(coop_prob=0.3, idle_tx_prob=0.0, upsilon=0.0,
                           pi_0=0.3, power_used=0.0)
    sim = simulate_stationary(pol, REF, 20_000, seed=4)
    assert sim.throughput == 0.0


def one_slot_spec(policy, params, horizons, seed):
    """{horizon: result} of the chain run one slot at a time.

    Slot t reads row t of one ``rng.random((T, 4))`` draw: secondary
    arrivals, the mixing coin, the success coin, the primary arrival. The
    draw for a shorter horizon is a prefix of the draw for a longer one, so
    one pass to the longest horizon yields them all.
    """
    u = rng(seed).random((max(horizons), 4))
    arrivals = arrival_counts(u[:, 0], params.a_max, params.lambda_su).tolist()
    P = params.p_max
    mu, phi_c, phi_nc = params.mu_su[P], params.phi_c, params.phi_nc
    q_pu = q_su = served = idle_slots = 0
    power = 0.0
    out = {}
    for t, (_, u_mix, u_success, u_pu) in enumerate(u.tolist(), start=1):
        if q_pu == 0:
            idle_slots += 1
            powered = u_mix < policy.idle_tx_prob
            pu_success = False
            su_success = powered and u_success < mu
        else:
            powered = u_mix < policy.coop_prob
            pu_success = u_success < (phi_c if powered else phi_nc)
            su_success = False
        if powered:
            power += P
        delivered = 1 if su_success and q_su > 0 else 0
        served += delivered
        q_pu = step_pu_queue(q_pu, pu_success, 1 if u_pu < params.lambda_pu else 0)
        q_su = step_su_queue(q_su, delivered, arrivals[t - 1])
        if t in horizons:
            out[t] = StationarySimResult(
                throughput=served / t,
                avg_power=power / t,
                idle_fraction=idle_slots / t,
                slots=t,
            )
    return out


def spec_cases(n):
    """Random two-point models and mixing pairs, corners included."""
    g = rng(21)
    for i in range(n):
        a_max = 1 + i % 3
        p_max = (0.7, 1.0, 0.3, 2.5)[i % 4]
        phi_nc = float(g.uniform(0.2, 0.9))
        phi_c = float(g.uniform(phi_nc, min(phi_nc + 0.5, 1.0)))
        params = ModelParams.two_point(
            lambda_pu=0.0 if i % 5 == 0 else float(g.uniform(0.02, phi_nc * 0.95)),
            lambda_su=float(g.uniform(0.05, a_max)),
            phi_nc=phi_nc,
            phi_c=phi_c,
            p_avg=float(g.uniform(0.05, 1.0)) * p_max,
            p_max=p_max,
            mu_su_max=float(g.uniform(0.3, 1.0)),
            a_max=a_max,
        )
        q = (0.0, 1.0, float(g.uniform()))[i // 3 % 3]
        p = (1.0, float(g.uniform()), 0.0)[i // 2 % 3]
        policy = StationaryPolicy(coop_prob=q, idle_tx_prob=p, upsilon=0.0,
                                  pi_0=0.0, power_used=0.0)
        yield params, policy, 100 + i


# A small block size puts many block boundaries within reach of the slow spec.
@pytest.mark.parametrize("chunk, n_models", [(64, 24), (oracle._CHUNK_ROWS, 4)])
def test_chain_matches_one_slot_spec(monkeypatch, chunk, n_models):
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk)
    C = chunk
    horizons = {1, 2, C - 1, C, C + 1, 3 * C + 17}
    for params, policy, seed in spec_cases(n_models):
        spec = one_slot_spec(policy, params, horizons, seed)
        for horizon in horizons:
            assert simulate_stationary(policy, params, horizon, seed) == spec[horizon], (
                params, policy, horizon)


# Each model hands over partway through one call of 64-row blocks. At REF
# the oracle serves about 0.25 of the 0.5 secondary arrivals a slot, so the
# backlog passes 64 and the secondary scan gives way to the skip. At
# p_max = 1 + 2**-45, num = 2**45 + 1, so the whole-unit power count gives
# way to the float cumsum once about 2**8 slots are powered.
@pytest.mark.parametrize("p_max", [1.0, 1 + 2**-45], ids=["REF", "p_max=1+2**-45"])
def test_chain_hand_offs_match_one_slot_spec(monkeypatch, p_max):
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 64)
    params = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5, p_max=p_max)
    policy = optimal_two_point(params)
    T, seed = 1000, 5
    spec = one_slot_spec(policy, params, set(range(1, T + 1)), seed)
    for horizon in range(1, T + 1):
        assert simulate_stationary(policy, params, horizon, seed) == spec[horizon], horizon
    # the hand-off falls inside the run
    if p_max == 1.0:
        u_su = rng(seed).random((T, 4))[:, 0]
        arrived = np.cumsum(arrival_counts(u_su, params.a_max, params.lambda_su))
        backlog = [arrived[t - 1] - round(spec[t].throughput * t) for t in (64, T)]
        assert backlog[0] < 64 < 2 * 64 < backlog[1], backlog
    else:
        num = p_max.as_integer_ratio()[0]
        units = [round(spec[t].avg_power * t / p_max) * num for t in (64, T)]
        assert units[0] < 2**53 < units[1], units


# The near-critical primary carries backlogs above 64 slots across blocks,
# which caps them in the int32 walk. The second model's secondary queue is
# near critical too (arrivals 0.5 against about 0.51 services per slot): it
# empties often, yet holds a backlog at most block ends. At REF the oracle's
# secondary backlog grows by about 0.25 a slot, so the skip of its scan
# starts at a different slot for each block size.
@pytest.mark.parametrize("a_max", [1, 3])
def test_chain_results_do_not_depend_on_block_size(monkeypatch, a_max):
    mixing = StationaryPolicy(coop_prob=0.5, idle_tx_prob=0.9, upsilon=0.0, pi_0=0.0,
                              power_used=0.0)
    for params, policy in (
        (ModelParams.two_point(0.59, 0.6 * a_max, 0.6, 0.62, 0.5, a_max=a_max), mixing),
        (ModelParams.two_point(0.3, 0.5, 0.6, 0.8, 0.7, p_max=1.5, a_max=a_max), mixing),
        (replace(REF, a_max=a_max), optimal_two_point(REF)),
    ):
        results = []
        for chunk in (64, 1000, 1 << 14, 1 << 16):
            monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk)
            results.append(simulate_stationary(policy, params, 200_003, seed=11))
        assert results == [results[0]] * 4, (params, results)


def test_chain_builds_one_arrival_table_per_call():
    from coopsim import montecarlo

    montecarlo.binomial_cdf.cache_clear()
    simulate_stationary(optimal_two_point(REF), replace(REF, a_max=3), 3 * (1 << 14), seed=2)
    info = montecarlo.binomial_cdf.cache_info()
    # one build for the first block, read back for the other two
    assert (info.misses, info.hits) == (1, 2)


def test_chain_memory_does_not_grow_with_horizon():
    policy = optimal_two_point(REF)
    assert traced_peak(simulate_stationary, policy, REF, 2_000_000, seed=3) < 4 * 2**20


def full_matrix_grid_search(params, step, q_fixed=None):
    """(policy, scores) of the (q, p) grid scored as one whole matrix.

    The literal brute force that ``grid_search``'s per-row search must equal:
    ``np.argmax`` over the whole matrix picks the first best point, q
    ascending, then p ascending.
    """
    q = np.arange(0.0, 1.0 + step / 2, step) if q_fixed is None else np.array([q_fixed])
    q[-1] = min(q[-1], 1.0)
    p = np.arange(0.0, 1.0 + step / 2, step)
    p[-1] = min(p[-1], 1.0)
    P = params.p_max
    mu_eff = params.phi_nc + q * (params.phi_c - params.phi_nc)
    pi_0 = 1.0 - params.lambda_pu / mu_eff
    coop = (params.lambda_pu / mu_eff) * q * P
    power = coop[:, None] + pi_0[:, None] * p[None, :] * P
    ups = np.minimum(params.lambda_su, params.mu_su[P] * pi_0[:, None] * p[None, :])
    ups = np.where(power <= params.p_avg + 1e-12, ups, -np.inf)
    i, j = np.unravel_index(int(np.argmax(ups)), ups.shape)
    if ups[i, j] == -np.inf:
        return None, ups
    return oracle._policy_at(params, float(q[i]), float(p[j])), ups


def assert_grid_matches_full_matrix(params, step, q_fixed=None):
    want, ups = full_matrix_grid_search(params, step, q_fixed)
    if want is None:
        with pytest.raises(ValueError, match="no grid point meets"):
            grid_search(params, step, q_fixed=q_fixed)
    else:
        assert grid_search(params, step, q_fixed=q_fixed) == want, (params, step, q_fixed)
    return ups


# The whole grid's q rows are searched as one block; each model is also
# searched one row at a time, at q = 0, q = 1 and ``rows`` random q values.
@pytest.mark.parametrize("rows", [3, 64])
@pytest.mark.parametrize("step, n_models", [(0.1, 60), (0.01, 60), (1e-3, 8)])
def test_grid_block_scan_matches_full_matrix(rows, step, n_models):
    g = rng(31)
    for _ in range(n_models):
        params = random_two_point(g)
        assert_grid_matches_full_matrix(params, step)
        for q_fixed in (0.0, *g.uniform(size=rows).tolist(), 1.0):
            assert_grid_matches_full_matrix(params, step, q_fixed)


@pytest.mark.parametrize("step, tied_at_5, tied_at_20", [(0.01, 66, 28), (1e-3, 659, 283)])
def test_grid_ties_and_infeasible_rows(step, tied_at_5, tied_at_20):
    # A low arrival rate caps the rate at lambda_su on many q rows, first
    # reached at q = 0 for 0.05 and at q > 0 for 0.2.
    n_tied = {0.05: tied_at_5, 0.2: tied_at_20}
    for lambda_su in (0.05, 0.2):
        ups = assert_grid_matches_full_matrix(replace(REF, lambda_su=lambda_su), step)
        tied_rows = np.flatnonzero((ups == lambda_su).any(axis=1))
        assert len(tied_rows) == n_tied[lambda_su]
        assert (tied_rows[0] == 0) == (lambda_su == 0.05)
    # Cooperation at q = 1 alone spends 0.625 > p_avg = 0.5.
    assert full_matrix_grid_search(REF, step, q_fixed=1.0)[0] is None
    with pytest.raises(ValueError, match="no grid point meets"):
        grid_search(REF, step, q_fixed=1.0)


# 0.06 pushes the last p past 1, where it is clamped; 0.03 and 0.07 stop short of 1.
@pytest.mark.parametrize("step", [0.1, 0.07, 0.06, 0.03, 0.01, 1e-3])
def test_grid_search_matches_full_matrix_at_reference(step):
    ups = assert_grid_matches_full_matrix(REF, step)
    # rows near q = 1 overspend even at p = 0, beside rows that fit the budget
    fits_at_zero = ups[:, 0] > -np.inf
    assert fits_at_zero[0] and not fits_at_zero[-1]
    for q_fixed in (0.0, 0.4, 1.0):
        assert_grid_matches_full_matrix(REF, step, q_fixed)


# Points where the spend's float products, taken in another order, round to
# another value (p_max = 0.7 is not a power of two).
@pytest.mark.parametrize("step, i, j", [(0.01, 30, 60), (1e-3, 250, 290), (0.07, 0, 12)])
def test_grid_budget_edge_within_an_ulp(step, i, j):
    # p_avg is set so that p_avg + 1e-12 lands within an ulp of the spend at
    # grid point (q_i, p_j), on either side: the budget edge is that point.
    model = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.35, p_max=0.7)
    q = np.arange(0.0, 1.0 + step / 2, step)
    p = np.arange(0.0, 1.0 + step / 2, step)
    pi_0, coop = oracle._occupancy(model, q[i:i + 1])
    spend = float((coop + pi_0 * p[j] * model.p_max)[0])
    base = spend - 1e-12
    sides = set()
    for p_avg in (np.nextafter(base, 0.0), base, np.nextafter(base, 1.0)):
        params = replace(model, p_avg=float(p_avg))
        fits = spend <= params.p_avg + 1e-12
        sides.add(fits)
        assert_grid_matches_full_matrix(params, step)
        assert_grid_matches_full_matrix(params, step, q[i])
        assert grid_search(params, step, q[i]).idle_tx_prob == p[j if fits else j - 1]
    assert sides == {True, False}


def test_grid_memory_does_not_grow_with_resolution():
    assert traced_peak(grid_search, REF, 1e-4) < 4 * 2**20


def test_closed_form_requires_two_point():
    from coopsim import PowerSet

    grid_params = ModelParams(
        lambda_pu=0.5,
        lambda_su=0.5,
        a_max=1,
        phi={0.0: 0.6, 0.5: 0.7, 1.0: 0.8},
        mu_su={0.0: 0.0, 0.5: 0.6, 1.0: 1.0},
        p_avg=0.5,
        power_set=PowerSet.make_grid([0.0, 0.5, 1.0]),
    )
    with pytest.raises(ValueError, match="two-point"):
        optimal_two_point(grid_params)
    # grid_search still runs, restricted to {0, p_max} mixing
    approx = grid_search(grid_params, step=1e-2)
    assert approx.upsilon == pytest.approx(0.25, abs=1e-2)
