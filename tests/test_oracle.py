import numpy as np
import pytest

from coopsim import (
    ModelParams,
    grid_search,
    optimal_at_q,
    optimal_two_point,
    simulate_stationary,
)

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


def test_grid_agrees_at_reference():
    pol = optimal_two_point(REF)
    grid = grid_search(REF, step=1e-3)
    assert abs(pol.upsilon - grid.upsilon) <= 1e-3


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


def test_closed_form_requires_two_point():
    from coopsim import PowerSet

    grid_params = ModelParams(
        lambda_pu=0.5,
        lambda_su=0.5,
        a_max=1,
        phi={0.0: 0.6, 0.5: 0.7, 1.0: 0.8},
        mu_su={0.0: 0.0, 0.5: 0.6, 1.0: 1.0},
        p_avg=0.5,
        p_max=1.0,
        power_set=PowerSet.make_grid([0.0, 0.5, 1.0]),
    )
    with pytest.raises(ValueError, match="two-point"):
        optimal_two_point(grid_params)
    # grid_search still runs, restricted to {0, p_max} mixing
    approx = grid_search(grid_params, step=1e-2)
    assert approx.upsilon == pytest.approx(0.25, abs=1e-2)
