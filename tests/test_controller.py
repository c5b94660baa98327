import itertools

import numpy as np
import pytest

from coopsim import (
    FadeState,
    FadingModel,
    FrameDriftPenaltyPolicy,
    ModelParams,
    PowerSet,
    admit,
    cooperation_threshold,
    solve_multiuser_frame,
    solve_p0,
    solve_p1,
    solve_p1_fading,
)

REF = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_params(g, n_levels=None):
    """Random valid model with a grid power set and monotone phi."""
    n = int(g.integers(2, 5)) if n_levels is None else n_levels
    levels = (0.0,) + tuple(np.sort(g.uniform(0.1, 2.0, n - 1)))
    phi_vals = np.sort(g.uniform(0.3, 1.0, n))
    lam_pu = float(g.uniform(0.05, phi_vals[0] * 0.9))
    mu_vals = g.uniform(0.0, 1.0, n)
    p_max = levels[-1]
    return ModelParams(
        lambda_pu=lam_pu,
        lambda_su=float(g.uniform(0.1, 1.0)),
        a_max=1,
        phi={p: float(v) for p, v in zip(levels, phi_vals)},
        mu_su={p: float(v) for p, v in zip(levels, mu_vals)},
        p_avg=float(g.uniform(0.1, p_max)),
        p_max=p_max,
        power_set=PowerSet.make_grid(levels),
    )


def test_admit_threshold():
    assert admit(499, 1, 500) == 1
    assert admit(501, 1, 500) == 0
    assert admit(500, 1, 500) == 1   # boundary is inclusive


def test_solve_p0_examples():
    p0, theta = solve_p0(100, 10, REF)
    assert (p0, theta) == (1.0, 90.0)
    p0, theta = solve_p0(0, 5, REF)
    assert (p0, theta) == (0.0, 0.0)
    p0, theta = solve_p0(10, 10, REF)   # tie at 0 resolves to lower power
    assert (p0, theta) == (0.0, 0.0)


def test_solve_p1_examples():
    # threshold = 90 * 0.2 / 0.6 = 30; x below it means cooperate
    assert cooperation_threshold(90, REF) == pytest.approx(30.0)
    assert solve_p1(90, 10, REF) == 1.0
    assert solve_p1(0, 5, REF) == 0.0
    assert solve_p1(50, 0, REF) == 1.0   # free power maximizes success prob


def test_theta_nonnegative_over_random_states():
    g = rng(1)
    for _ in range(300):
        par = random_params(g)
        q = float(g.uniform(0, 1000))
        x = float(g.uniform(0, 1000))
        _, theta = solve_p0(q, x, par)
        assert theta >= 0.0


def test_threshold_rule_equals_direct_argmin():
    # Criterion 8a: on the two-point set, the threshold rule and the direct
    # scan of the ratio objective agree everywhere, ties included.
    direct = ModelParams(
        lambda_pu=0.5,
        lambda_su=0.5,
        a_max=1,
        phi=dict(REF.phi),
        mu_su=dict(REF.mu_su),
        p_avg=0.5,
        p_max=1.0,
        power_set=PowerSet.make_grid([0.0, 1.0]),   # same levels, scan path
    )
    g = rng(2)
    checked = 0
    for _ in range(1000):
        theta = float(g.uniform(0, 500)) if g.random() < 0.9 else 0.0
        x = float(g.uniform(0, 200))
        assert solve_p1(theta, x, REF) == solve_p1(theta, x, direct)
        checked += 1
    # Boundary behavior of the threshold rule: x at the threshold means "do
    # not cooperate".
    for theta in (0.0, 30.0, 123.456):
        x = cooperation_threshold(theta, REF)
        assert solve_p1(theta, x, REF) == 0.0
    # For the scan path, build a tie that is exact in floats (dyadic
    # probabilities) so both objectives evaluate identically and the
    # lower-power preference decides.
    dyadic = ModelParams.two_point(0.25, 0.5, 0.5, 1.0, 0.5)
    dyadic_scan = ModelParams(
        lambda_pu=0.25,
        lambda_su=0.5,
        a_max=1,
        phi={0.0: 0.5, 1.0: 1.0},
        mu_su={0.0: 0.0, 1.0: 1.0},
        p_avg=0.5,
        p_max=1.0,
        power_set=PowerSet.make_grid([0.0, 1.0]),
    )
    for theta in (0.0, 4.0, 10.5):
        x = cooperation_threshold(theta, dyadic)   # equals theta here
        assert x == theta
        assert solve_p1(theta, x, dyadic) == 0.0
        assert solve_p1(theta, x, dyadic_scan) == 0.0
    assert checked == 1000


def test_scaling_invariance():
    # Criterion 8d: scaling both weights by a positive constant leaves the
    # chosen powers unchanged (both objectives are positively homogeneous).
    g = rng(3)
    for _ in range(1000):
        par = random_params(g)
        q = float(g.uniform(0, 100))
        x = float(g.uniform(0, 100))
        for scale in (0.5, 2.0, 7.25):
            p0a, ta = solve_p0(q, x, par)
            p0b, tb = solve_p0(scale * q, scale * x, par)
            assert p0a == p0b
            assert tb == pytest.approx(scale * ta)
            assert solve_p1(ta, x, par) == solve_p1(tb, scale * x, par)


def brute_force_multiuser(frame_queues, params_per_user):
    best_idle, best_theta = None, None
    for i, ((q, x), par) in enumerate(zip(frame_queues, params_per_user)):
        for p in par.power_set.levels:
            val = q * par.mu_su_of(p) - x * p
            if best_theta is None or val > best_theta:
                best_idle, best_theta = (i, p), val
    best_coop, best_ratio = None, None
    for i, ((_, x), par) in enumerate(zip(frame_queues, params_per_user)):
        for p in par.power_set.levels:
            ratio = (best_theta + x * p) / par.phi_of(p)
            if best_ratio is None or ratio < best_ratio:
                best_coop, best_ratio = (i, p), ratio
    return best_idle, best_theta, best_coop


def test_multiuser_single_user_reduces_to_two_step():
    g = rng(4)
    for _ in range(50):
        par = random_params(g)
        q = float(g.uniform(0, 50))
        x = float(g.uniform(0, 50))
        dec = solve_multiuser_frame([(q, x)], [par])
        p0, theta = solve_p0(q, x, par)
        assert dec.idle_user == 0 and dec.coop_user == 0
        assert dec.p0_star == p0 and dec.theta_star == theta
        assert dec.p1_star == solve_p1(theta, x, par)


def test_multiuser_larger_backlog_wins_idle_slot():
    dec = solve_multiuser_frame([(50, 5), (40, 5)], [REF, REF])
    assert dec.idle_user == 0


def test_multiuser_matches_exhaustive_search():
    # Criterion 8b: 200 random 3-user instances against the brute force.
    g = rng(5)
    for _ in range(200):
        users = [random_params(g) for _ in range(3)]
        queues = [(float(g.uniform(0, 100)), float(g.uniform(0, 30))) for _ in users]
        dec = solve_multiuser_frame(queues, users)
        (bi, bp0), btheta, (bj, bp1) = brute_force_multiuser(queues, users)
        assert (dec.idle_user, dec.p0_star) == (bi, bp0)
        assert dec.theta_star == pytest.approx(btheta)
        assert (dec.coop_user, dec.p1_star) == (bj, bp1)


def test_multiuser_scans_two_point_users_and_keeps_the_tie_order():
    # the busy choice scans every user's ratio, threshold or not: on this
    # sub-lattice the two-point threshold rule picks p_max at 99 ties where
    # the scan keeps 0, the reference tie (q_su = 2, x_su = 0.5) among them
    users = [REF, REF]
    ties = 0
    for q in range(200):
        for k in range(400):
            x = 0.5 * k
            queues = [(q, x), (q, x)]
            dec = solve_multiuser_frame(queues, users)
            (bi, bp0), btheta, (bj, bp1) = brute_force_multiuser(queues, users)
            assert (dec.idle_user, dec.p0_star, dec.theta_star) == (bi, bp0, btheta)
            assert (dec.coop_user, dec.p1_star) == (bj, bp1)
            ties += solve_p1(btheta, x, REF) != bp1
    assert ties == 99


def fading_two_state(g, params):
    def monotone_phi():
        vals = np.sort(g.uniform(0.3, 1.0, len(params.power_set.levels)))
        return {p: float(v) for p, v in zip(params.power_set.levels, vals)}

    return FadingModel(
        states=(
            FadeState("deep", 0.4, monotone_phi()),
            FadeState("clear", 0.6, monotone_phi()),
        )
    )


def test_fading_single_state_reduces_to_scan():
    g = rng(6)
    for _ in range(50):
        par = random_params(g)
        fading = FadingModel(states=(FadeState("only", 1.0, dict(par.phi)),))
        theta = float(g.uniform(0, 50))
        x = float(g.uniform(0, 20))
        out = solve_p1_fading(theta, x, fading, par)
        assert out == {"only": solve_p1(theta, x, par)}


def test_fading_identical_states_share_power():
    g = rng(7)
    par = random_params(g, n_levels=3)
    fading = FadingModel(
        states=(
            FadeState("a", 0.5, dict(par.phi)),
            FadeState("b", 0.5, dict(par.phi)),
        )
    )
    theta, x = 25.0, 3.0
    out = solve_p1_fading(theta, x, fading, par)
    assert out["a"] == out["b"] == solve_p1(theta, x, par)


def test_fading_matches_exhaustive_search():
    # Criterion 8c: 100 random 2-state instances with 3 power levels.
    g = rng(8)
    for _ in range(100):
        par = random_params(g, n_levels=3)
        fading = fading_two_state(g, par)
        theta = float(g.uniform(0, 80))
        x = float(g.uniform(0, 25))
        out = solve_p1_fading(theta, x, fading, par)

        def objective(vec):
            num = theta + x * sum(s.prob * p for s, p in zip(fading.states, vec))
            den = sum(s.prob * s.phi[p] for s, p in zip(fading.states, vec))
            return num / den

        best_vec, best_val = None, None
        for vec in itertools.product(par.power_set.levels, repeat=2):
            val = objective(vec)
            if best_val is None or val < best_val:
                best_vec, best_val = vec, val
        assert out == {"deep": best_vec[0], "clear": best_vec[1]}


def test_fading_size_cap_and_descent(monkeypatch):
    import coopsim.controller as controller

    monkeypatch.setattr(controller, "_FADING_SIZE_CAP", 100)   # 4^8 states: descent
    g = rng(9)
    par = random_params(g, n_levels=4)
    states = tuple(
        FadeState(f"s{i}", 0.125, dict(par.phi)) for i in range(8)
    )
    fading = FadingModel(states=states)
    # identical states: descent must agree with the single-state answer
    out = solve_p1_fading(3.0, 1.0, fading, par)
    want = solve_p1(3.0, 1.0, par)
    assert all(v == want for v in out.values())


def test_policy_queue_bound_and_frame_constancy():
    # The admission threshold caps the backlog at v + a_max for any driver.
    from coopsim import Scenario, PolicySpec, run_episode

    sc = Scenario(
        params=REF,
        policy=PolicySpec(kind="fbdpp", v=25.0),
        horizon_frames=2000,
        seed=123,
    )
    metrics = run_episode(sc)
    assert metrics.max_q_su <= 25 + REF.a_max
    # two distinct power values per frame at most: idle power stays p0 within
    # the frame, busy power stays p1 (frame sums must be multiples)
    levels = REF.power_set.levels
    busy_len = metrics.frame_len - metrics.idle_len
    for k in range(metrics.frames):
        assert metrics.power_idle[k] in [metrics.idle_len[k] * p for p in levels]
        assert metrics.power_coop[k] in [busy_len[k] * p for p in levels]
    pol = FrameDriftPenaltyPolicy(REF)
    pol.begin_frame(40, 3.0)
    p0, theta = solve_p0(40, 3.0, REF)
    assert (pol.p0_star, pol.p1_star) == (p0, solve_p1(theta, 3.0, REF))


def _solve_p0_spec(q, x, params):
    """The idle rule as first written: one map lookup per level."""
    best_p, best_val = 0.0, None
    for p in params.power_set.levels:
        val = q * params.mu_su_of(p) - x * p
        if best_val is None or val > best_val:
            best_p, best_val = p, val
    return best_p, best_val


def _threshold_spec(theta, params):
    return theta * (params.phi_c - params.phi_nc) / (params.p_max * params.phi_nc)


def _solve_p1_spec(theta, x, params):
    """The busy rule as first written, threshold included."""
    if params.power_set.two_point:
        return 0.0 if x >= _threshold_spec(theta, params) else params.p_max
    best_p, best_val = 0.0, None
    for p in params.power_set.levels:
        val = (theta + x * p) / params.phi_of(p)
        if best_val is None or val < best_val:
            best_p, best_val = p, val
    return best_p


def _spec_pair(q, x, params):
    p0, theta = _solve_p0_spec(q, x, params)
    return p0, _solve_p1_spec(theta, x, params)


def test_frame_decision_matches_the_rule_on_the_two_point_lattice():
    # every integer backlog and every half-step virtual backlog, ties included
    pol = FrameDriftPenaltyPolicy(REF)
    mismatches = []
    for q in range(601):
        for k in range(1200):
            x = 0.5 * k
            pol.begin_frame(q, x)
            if (pol.p0_star, pol.p1_star) != _spec_pair(q, x, REF):
                mismatches.append((q, x))
    assert mismatches == []
    # the same threshold float, not just the same decisions: theta * (num / den)
    # rounds differently for about one lattice theta in five
    thetas = [0.5 * k for k in range(1201)]
    assert [cooperation_threshold(t, REF) for t in thetas] == [
        _threshold_spec(t, REF) for t in thetas]
    # the reference tie: both busy objectives equal 2.5, and the threshold
    # rounds to 0.5000000000000002, so the two-point rule still cooperates
    pol.begin_frame(2, 0.5)
    assert (pol.p0_star, pol.p1_star) == (1.0, REF.p_max)
    assert cooperation_threshold(1.5, REF) == 0.5000000000000002
    assert solve_p1(1.5, 0.5, REF) == REF.p_max


def random_two_point(g):
    phi_nc, phi_c = np.sort(g.uniform(0.3, 1.0, 2))
    p_max = float(g.uniform(0.1, 2.0))
    return ModelParams.two_point(
        float(g.uniform(0.05, phi_nc * 0.9)), float(g.uniform(0.1, 1.0)), float(phi_nc),
        float(phi_c), float(g.uniform(0.1, p_max)), p_max, mu_su_max=float(g.uniform(0.1, 1.0)),
    )


@pytest.mark.parametrize("n_levels", [2, 3, 4])
def test_frame_decision_matches_the_rule_on_random_grids(n_levels):
    # non-dyadic phi and mu_su; two levels means the two-point threshold rule
    g = rng(10 + n_levels)
    for _ in range(40):
        par = random_two_point(g) if n_levels == 2 else random_params(g, n_levels=n_levels)
        pol = FrameDriftPenaltyPolicy(par)
        for _ in range(100):
            q = float(g.integers(0, 300)) if g.random() < 0.5 else float(g.uniform(0, 300))
            x = float(g.uniform(0, 100))
            pol.begin_frame(q, x)
            want = _spec_pair(q, x, par)
            assert (pol.p0_star, pol.p1_star) == want
            assert solve_p0(q, x, par) == _solve_p0_spec(q, x, par)
            theta = solve_p0(q, x, par)[1]
            assert solve_p1(theta, x, par) == want[1]
            if par.power_set.two_point:
                assert cooperation_threshold(theta, par) == _threshold_spec(theta, par)
