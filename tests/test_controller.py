import itertools

import numpy as np
import pytest

from coopsim import (
    FadeState,
    FadingModel,
    FrameDriftPenaltyPolicy,
    FrameRule,
    ModelParams,
    PowerSet,
    solve_multiuser_frame,
    solve_p1_fading,
)
from spec import admit

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
    return ModelParams(
        lambda_pu=lam_pu,
        lambda_su=float(g.uniform(0.1, 1.0)),
        a_max=1,
        phi={p: float(v) for p, v in zip(levels, phi_vals)},
        mu_su={p: float(v) for p, v in zip(levels, mu_vals)},
        p_avg=float(g.uniform(0.1, levels[-1])),
        power_set=PowerSet.make_grid(levels),
    )


def test_admit_threshold():
    assert admit(499, 1, 500) == 1
    assert admit(501, 1, 500) == 0
    assert admit(500, 1, 500) == 1   # boundary is inclusive


def test_solve_p0_examples():
    rule = FrameRule(REF)
    assert rule.idle_power(100, 10) == (1.0, 90.0)
    assert rule.idle_power(0, 5) == (0.0, 0.0)
    assert rule.idle_power(10, 10) == (0.0, 0.0)   # tie at 0 resolves to lower power


def test_solve_p1_examples():
    # threshold = 90 * 0.2 / 0.6 = 30; x below it means cooperate
    rule = FrameRule(REF)
    assert rule.threshold(90) == pytest.approx(30.0)
    assert rule.busy_power(90, 10) == 1.0
    assert rule.busy_power(0, 5) == 0.0
    assert rule.busy_power(50, 0) == 1.0   # free power maximizes success prob


def test_theta_nonnegative_over_random_states():
    g = rng(1)
    for _ in range(300):
        par = random_params(g)
        q = float(g.uniform(0, 1000))
        x = float(g.uniform(0, 1000))
        _, theta = FrameRule(par).idle_power(q, x)
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
        power_set=PowerSet.make_grid([0.0, 1.0]),   # same levels, scan path
    )
    g = rng(2)
    checked = 0
    for _ in range(1000):
        theta = float(g.uniform(0, 500)) if g.random() < 0.9 else 0.0
        x = float(g.uniform(0, 200))
        assert FrameRule(REF).busy_power(theta, x) == FrameRule(direct).busy_power(theta, x)
        checked += 1
    # Boundary behavior of the threshold rule: x at the threshold means "do
    # not cooperate".
    for theta in (0.0, 30.0, 123.456):
        x = FrameRule(REF).threshold(theta)
        assert FrameRule(REF).busy_power(theta, x) == 0.0
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
        power_set=PowerSet.make_grid([0.0, 1.0]),
    )
    for theta in (0.0, 4.0, 10.5):
        x = FrameRule(dyadic).threshold(theta)   # equals theta here
        assert x == theta
        assert FrameRule(dyadic).busy_power(theta, x) == 0.0
        assert FrameRule(dyadic_scan).busy_power(theta, x) == 0.0
    assert checked == 1000


def test_scaling_invariance():
    # Criterion 8d: scaling both weights by a positive constant leaves the
    # chosen powers unchanged (both objectives are positively homogeneous).
    g = rng(3)
    for _ in range(1000):
        par = random_params(g)
        q = float(g.uniform(0, 100))
        x = float(g.uniform(0, 100))
        rule = FrameRule(par)
        for scale in (0.5, 2.0, 7.25):
            p0a, ta = rule.idle_power(q, x)
            p0b, tb = rule.idle_power(scale * q, scale * x)
            assert p0a == p0b
            assert tb == pytest.approx(scale * ta)
            assert rule.busy_power(ta, x) == rule.busy_power(tb, scale * x)


def brute_force_multiuser(frame_queues, params_per_user):
    best_idle, best_theta = None, None
    for i, ((q, x), par) in enumerate(zip(frame_queues, params_per_user)):
        for p in par.power_set.levels:
            val = q * par.mu_su[p] - x * p
            if best_theta is None or val > best_theta:
                best_idle, best_theta = (i, p), val
    best_coop, best_ratio = None, None
    for i, ((_, x), par) in enumerate(zip(frame_queues, params_per_user)):
        for p in par.power_set.levels:
            ratio = (best_theta + x * p) / par.phi[p]
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
        p0, theta = FrameRule(par).idle_power(q, x)
        assert dec.idle_user == 0 and dec.coop_user == 0
        assert dec.p0_star == p0 and dec.theta_star == theta
        assert dec.p1_star == FrameRule(par).busy_power(theta, x)


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
            ties += FrameRule(REF).busy_power(btheta, x) != bp1
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
        assert out == {"only": FrameRule(par).busy_power(theta, x)}


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
    assert out["a"] == out["b"] == FrameRule(par).busy_power(theta, x)


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


# dyadic phi and probabilities keep every numerator and denominator exact, so
# the optimum value 2 is met exactly at (0, 0.5), (0, 1), (1, 0.5) and (1, 1)
_TIED_LEVELS = PowerSet.make_grid([0, 0.5, 1])
_TIED = FadingModel(states=(
    FadeState("a", 0.5, {0.0: 0.25, 0.5: 0.25, 1.0: 0.5}),
    FadeState("b", 0.5, {0.0: 0.25, 0.5: 0.875, 1.0: 1.0}),
))
_TIED_PARAMS = ModelParams(
    lambda_pu=0.2, lambda_su=0.5, a_max=1, phi={0.0: 0.25, 0.5: 0.5, 1.0: 0.75},
    mu_su={0.0: 0.0, 0.5: 0.5, 1.0: 1.0}, p_avg=0.5, power_set=_TIED_LEVELS,
)


def _tied_objective(vec):
    num = 1.0 + 0.5 * sum(s.prob * p for s, p in zip(_TIED.states, vec))
    return num / sum(s.prob * s.phi[p] for s, p in zip(_TIED.states, vec))


def test_fading_exhaustive_tie_takes_the_smallest_vector():
    values = {vec: _tied_objective(vec)
              for vec in itertools.product(_TIED_LEVELS.levels, repeat=2)}
    ties = sorted(vec for vec, val in values.items() if val == min(values.values()))
    assert ties == [(0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.0, 1.0)]
    assert min(values.values()) == 2.0
    assert solve_p1_fading(1.0, 0.5, _TIED, _TIED_PARAMS) == {"a": 0.0, "b": 0.5}


def test_fading_descent_tie_keeps_the_lower_power():
    # the first sweep raises a to 1, then meets b's tie of 0.5 and 1 and keeps
    # 0.5; the second finds a's power 0 tied with 1 at value 2 and lowers it
    assert _tied_objective((1.0, 0.5)) == _tied_objective((0.0, 0.5)) == 2.0
    assert _tied_objective((1.0, 0.0)) < _tied_objective((0.0, 0.0))
    assert solve_p1_fading(1.0, 0.5, _TIED, _TIED_PARAMS) == {"a": 0.0, "b": 0.5}


def test_fading_eight_identical_states_share_the_scan_power():
    g = rng(9)
    par = random_params(g, n_levels=4)
    states = tuple(
        FadeState(f"s{i}", 0.125, dict(par.phi)) for i in range(8)
    )
    fading = FadingModel(states=states)
    # 4^8 power vectors; identical states must agree with the single-state answer
    out = solve_p1_fading(3.0, 1.0, fading, par)
    want = FrameRule(par).busy_power(3.0, 1.0)
    assert all(v == want for v in out.values())


def _brute_force_min(theta, x, fading, levels):
    """Smallest objective over every power vector, scored with numpy."""
    num = np.zeros(1)
    den = np.zeros(1)
    for s in fading.states:
        num = (num[:, None] + s.prob * np.asarray(levels)).ravel()
        den = (den[:, None] + s.prob * np.array([s.phi[p] for p in levels])).ravel()
    return float(np.min((theta + x * num) / den))


def test_fading_descent_reaches_the_brute_force_minimum_on_nine_states():
    # 4^9 = 262,144 vectors per model, distinct random states
    g = rng(10)
    for _ in range(30):
        par = random_params(g, n_levels=4)
        levels = par.power_set.levels
        probs = g.dirichlet(np.ones(9))
        fading = FadingModel(states=tuple(
            FadeState(f"s{i}", float(q),
                      {p: float(v) for p, v in zip(levels, np.sort(g.uniform(0.3, 1.0, 4)))})
            for i, q in enumerate(probs)))
        theta = float(g.uniform(0, 80))
        x = float(g.uniform(0, 25))
        out = solve_p1_fading(theta, x, fading, par)
        num = theta + x * sum(s.prob * out[s.fade_id] for s in fading.states)
        den = sum(s.prob * s.phi[out[s.fade_id]] for s in fading.states)
        assert num / den == pytest.approx(_brute_force_min(theta, x, fading, levels),
                                          rel=1e-12, abs=0.0)


def test_fading_without_success_at_zero_power_is_refused():
    # every phi(0) is 0, so the all-zero vector's expected success is 0
    fading = FadingModel(states=(
        FadeState("a", 0.5, {0.0: 0.0, 0.5: 0.5, 1.0: 0.75}),
        FadeState("b", 0.5, {0.0: 0.0, 0.5: 0.25, 1.0: 1.0}),
    ))
    with pytest.raises(ValueError, match="expected success probability must be positive"):
        solve_p1_fading(1.0, 0.5, fading, _TIED_PARAMS)


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
    rule = FrameRule(REF)
    p0, theta = rule.idle_power(40, 3.0)
    assert FrameDriftPenaltyPolicy(REF).begin_frame(40, 3.0) == (p0, rule.busy_power(theta, 3.0))


def _solve_p0_spec(q, x, params):
    """The idle rule as first written: one map lookup per level."""
    best_p, best_val = 0.0, None
    for p in params.power_set.levels:
        val = q * params.mu_su[p] - x * p
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
        val = (theta + x * p) / params.phi[p]
        if best_val is None or val < best_val:
            best_p, best_val = p, val
    return best_p


def _spec_pair(q, x, params):
    p0, theta = _solve_p0_spec(q, x, params)
    return p0, _solve_p1_spec(theta, x, params)


def test_frame_decision_matches_the_rule_on_the_two_point_lattice():
    # every integer backlog and every half-step virtual backlog, ties included;
    # each pair is asked once, so one policy per row keeps the memo to a row
    mismatches = []
    for q in range(601):
        pol = FrameDriftPenaltyPolicy(REF)
        for k in range(1200):
            x = 0.5 * k
            if pol.begin_frame(q, x) != _spec_pair(q, x, REF):
                mismatches.append((q, x))
    assert mismatches == []
    # the same threshold float, not just the same decisions: theta * (num / den)
    # rounds differently for about one lattice theta in five
    thetas = [0.5 * k for k in range(1201)]
    assert [FrameRule(REF).threshold(t) for t in thetas] == [
        _threshold_spec(t, REF) for t in thetas]
    # the reference tie: both busy objectives equal 2.5, and the threshold
    # rounds to 0.5000000000000002, so the two-point rule still cooperates
    assert pol.begin_frame(2, 0.5) == (1.0, REF.p_max)
    assert FrameRule(REF).threshold(1.5) == 0.5000000000000002
    assert FrameRule(REF).busy_power(1.5, 0.5) == REF.p_max


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
            want = _spec_pair(q, x, par)
            assert pol.begin_frame(q, x) == want
            rule = FrameRule(par)
            assert rule.idle_power(q, x) == _solve_p0_spec(q, x, par)
            theta = rule.idle_power(q, x)[1]
            assert rule.busy_power(theta, x) == want[1]
            if par.power_set.two_point:
                assert rule.threshold(theta) == _threshold_spec(theta, par)


def _fresh_rule_pair(q, x, params):
    """The frame decision from a ``FrameRule`` built for this one call."""
    rule = FrameRule(params)
    p0, theta = rule.idle_power(q, x)
    return p0, rule.busy_power(theta, x)


def _replay(pol, params, pairs):
    """Drive ``begin_frame`` over ``pairs``; the decisions that differ from a fresh rule."""
    wrong = []
    for q, x in pairs:
        got, want = pol.begin_frame(q, x), _fresh_rule_pair(q, x, params)
        if repr(got) != repr(want):     # repr tells -0.0 from 0.0
            wrong.append((q, x, got, want))
    return wrong


def test_remembered_decisions_match_a_fresh_rule_on_two_points():
    # few distinct pairs, each seen many times, the reference tie among them
    g = rng(31)
    pool = [(2, 0.5)] + [(int(g.integers(0, 40)), 0.5 * int(g.integers(0, 80)))
                         for _ in range(60)]
    pairs = [pool[i] for i in g.integers(0, len(pool), 5000)]
    pol = FrameDriftPenaltyPolicy(REF)
    assert _replay(pol, REF, pairs) == []
    # the tie still cooperates, remembered or not
    for _ in range(2):
        assert pol.begin_frame(2, 0.5) == (1.0, REF.p_max)


@pytest.mark.parametrize("n_levels", [3, 4])
def test_remembered_decisions_match_a_fresh_rule_on_random_grids(n_levels):
    g = rng(40 + n_levels)
    for _ in range(20):
        par = random_params(g, n_levels=n_levels)
        pool = [(int(g.integers(0, 300)), float(g.uniform(0, 100))) for _ in range(40)]
        pairs = [pool[i] for i in g.integers(0, len(pool), 1000)]
        assert _replay(FrameDriftPenaltyPolicy(par), par, pairs) == []


@pytest.mark.parametrize("n_levels", [2, 3, 4])
def test_remembered_decisions_do_not_depend_on_the_sign_of_zero(n_levels):
    # -0.0 == 0.0 as a key, so whichever comes first answers for both
    g = rng(50 + n_levels)
    for _ in range(10):
        par = random_two_point(g) if n_levels == 2 else random_params(g, n_levels=n_levels)
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            pairs = [(q, x) for q in range(50) for x in (first, second, first)]
            assert _replay(FrameDriftPenaltyPolicy(par), par, pairs) == []
            assert [_fresh_rule_pair(q, -0.0, par) for q in range(50)] == [
                _fresh_rule_pair(q, 0.0, par) for q in range(50)]


def test_policies_with_different_params_never_share_a_decision():
    g = rng(60)
    other = random_params(g, n_levels=3)
    pool = [(int(g.integers(0, 60)), 0.25 * int(g.integers(0, 40))) for _ in range(50)]
    pairs = [pool[i] for i in g.integers(0, len(pool), 2000)]
    # the two models decide differently on some of the pool, so sharing would show
    assert any(_fresh_rule_pair(q, x, REF) != _fresh_rule_pair(q, x, other) for q, x in pool)
    a, b = FrameDriftPenaltyPolicy(REF), FrameDriftPenaltyPolicy(other)
    for q, x in pairs:
        assert _replay(a, REF, [(q, x)]) == []
        assert _replay(b, other, [(q, x)]) == []
