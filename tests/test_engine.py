import os

import numpy as np
import pytest

from coopsim import (
    ModelParams,
    PolicySpec,
    Scenario,
    derive_seed,
    run_episode,
    steady_state,
    sweep_v,
    update_virtual_queue,
)
from coopsim.analysis import frame_length_bounds

REF = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)
FBDPP = PolicySpec(kind="fbdpp", v=100.0)


def test_deterministic_replay():
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=300, seed=77)
    a = run_episode(sc)
    b = run_episode(sc)
    for name in ("frame_len", "admitted", "served", "power_idle", "power_coop",
                 "q_su_end", "x_su_end", "idle_len", "q_sum"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.max_q_su == b.max_q_su


def test_frame_structure():
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=400, seed=11)
    m = run_episode(sc)
    assert m.frames == 400
    # every frame has at least one idle and one busy slot
    assert np.all(m.idle_len >= 1)
    assert np.all(m.frame_len - m.idle_len >= 1)


def test_virtual_queue_recursion_consistency():
    # x_su_end must satisfy the boundary recursion given the frame records
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=500, seed=13)
    m = run_episode(sc)
    x = 0.0
    for k in range(m.frames):
        x = update_virtual_queue(
            x, int(m.frame_len[k]), float(m.power_idle[k] + m.power_coop[k]), REF.p_avg
        )
        assert m.x_su_end[k] == pytest.approx(x, abs=1e-12)


def test_queue_bound_holds_every_slot():
    for v in (5.0, 37.0, 200.0):
        sc = Scenario(params=REF, policy=PolicySpec(kind="fbdpp", v=v),
                      horizon_frames=800, seed=int(v))
        m = run_episode(sc)
        assert m.max_q_su <= v + REF.a_max


def test_frame_lengths_inside_analytic_bounds():
    t_min, t_max = frame_length_bounds(REF)
    for spec, seed in ((FBDPP, 3), (PolicySpec(kind="counter"), 4),
                       (PolicySpec(kind="no_coop"), 5)):
        m = run_episode(Scenario(params=REF, policy=spec, horizon_frames=3000, seed=seed))
        mean = m.frame_len.mean()
        se = m.frame_len.std(ddof=1) / np.sqrt(m.frames)
        assert t_min - 3 * se <= mean <= t_max + 3 * se


def test_power_excess_equals_virtual_queue_residual():
    # Budget accounting: over K frames, spend - budget <= final backlog
    # (clamps only forgive), so the transient overshoot is X_K / slots.
    sc = Scenario(params=REF, policy=PolicySpec(kind="fbdpp", v=500.0),
                  horizon_frames=1000, seed=2)
    m = run_episode(sc)
    x_end = float(m.x_su_end[-1])
    total_power = float(m.power_idle.sum() + m.power_coop.sum())
    assert total_power <= REF.p_avg * m.slots + x_end + 1e-9
    assert m.avg_power <= REF.p_avg + x_end / m.slots + 1e-12


def test_small_v_power_within_budget_at_horizon():
    for v in (10.0, 50.0, 100.0):
        sc = Scenario(params=REF, policy=PolicySpec(kind="fbdpp", v=v),
                      horizon_frames=1000, seed=9)
        m = run_episode(sc)
        assert m.avg_power <= REF.p_avg + 0.01


def test_stationary_policy_episode_matches_chain():
    spec = PolicySpec(kind="stationary", coop_prob=1 / 3, idle_tx_prob=1.0)
    sc = Scenario(params=REF, policy=spec, horizon_frames=20_000, seed=21)
    m = run_episode(sc)
    sol = steady_state(0.5, 0.6 + 0.2 / 3)
    idle_frac = m.idle_len.sum() / m.slots
    assert idle_frac == pytest.approx(sol.pi_0, abs=0.01)
    assert m.throughput_served == pytest.approx(0.25, abs=0.01)


def test_degenerate_quiet_primary():
    # lambda_pu = 0: one endless idle run; no frame ever completes and the
    # partial tally carries the cumulative stats.
    quiet = ModelParams.two_point(0.0, 0.5, 0.6, 0.8, 0.5)
    sc = Scenario(params=quiet, policy=PolicySpec(kind="no_coop"),
                  horizon_frames=10, seed=33, max_slots=50_000)
    m = run_episode(sc)
    assert m.frames == 0
    assert m.partial_slots == 50_000
    # saturated queue, idle every slot: served == min(lambda_su, 1) rate-ish
    assert m.throughput_served == pytest.approx(0.5, abs=0.02)
    assert m.throughput_admitted == pytest.approx(0.5, abs=0.02)


def test_schedule_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Scenario(params=REF, policy=FBDPP, horizon_frames=10, seed=1,
                 lambda_schedule=((5, 0.3), (5, 0.2)))
    with pytest.raises(ValueError, match="unstable"):
        Scenario(params=REF, policy=FBDPP, horizon_frames=10, seed=1,
                 lambda_schedule=((5, 0.7),))


def test_schedule_switches_at_boundaries():
    # dropping the arrival rate after frame 50 lengthens idle runs
    sc = Scenario(params=REF, policy=PolicySpec(kind="no_coop"),
                  horizon_frames=400, seed=17, lambda_schedule=((50, 0.1),))
    m = run_episode(sc)
    early = m.idle_len[:50].mean()
    late = m.idle_len[100:].mean()
    assert early == pytest.approx(2.0, abs=0.5)    # geometric mean 1/0.5
    assert late == pytest.approx(10.0, abs=1.5)    # geometric mean 1/0.1
    # a schedule switch to the current rate leaves the episode unchanged
    sc2 = Scenario(params=REF, policy=FBDPP, horizon_frames=50, seed=18)
    same = Scenario(params=REF, policy=FBDPP, horizon_frames=50, seed=18,
                    lambda_schedule=((10, REF.lambda_pu),))
    assert np.array_equal(run_episode(same).frame_len, run_episode(sc2).frame_len)


def test_virtual_queue_identity_checked_every_episode(monkeypatch):
    # a virtual-queue update that forgets the frame's spend must not pass
    import coopsim.engine as engine

    monkeypatch.setattr(engine, "update_virtual_queue", lambda x, n, spent, p_avg: 0.0)
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=200, seed=3)
    with pytest.raises(RuntimeError, match="virtual-queue identity"):
        run_episode(sc)


def test_moving_average_prefix_and_window():
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=250, seed=19, window=100)
    m = run_episode(sc)
    ma = m.moving_average("coop_power")
    assert len(ma) == 250
    # first point is the frame's own rate
    assert ma[0] == pytest.approx(m.power_coop[0] / m.frame_len[0])
    # k-th point averages the trailing window
    k = 179
    lo = k - 99
    expect = m.power_coop[lo : k + 1].sum() / m.frame_len[lo : k + 1].sum()
    assert ma[k] == pytest.approx(expect)
    with pytest.raises(ValueError):
        m.moving_average("nope")


def test_sweep_seeds_and_ordering():
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=60, seed=123)
    out = sweep_v(sc, [10, 500, 50])
    assert [v for v, _ in out] == [10.0, 500.0, 50.0]
    for i, (v, m) in enumerate(out):
        assert m.seed == derive_seed(123, i)
        assert m.v == v
    # single v equals a direct episode with the derived seed
    single = sweep_v(sc, [10])[0][1]
    direct = run_episode(
        Scenario(params=REF, policy=PolicySpec(kind="fbdpp", v=10.0),
                 horizon_frames=60, seed=derive_seed(123, 0))
    )
    assert np.array_equal(single.frame_len, direct.frame_len)
    assert single.throughput_admitted == direct.throughput_admitted


def test_sweep_worker_env_cap(monkeypatch):
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=40, seed=5)
    monkeypatch.setenv("COOPSIM_THREADS", "1")
    seq = sweep_v(sc, [10, 20])
    monkeypatch.setenv("COOPSIM_THREADS", "2")
    par = sweep_v(sc, [10, 20])
    for (v1, m1), (v2, m2) in zip(seq, par):
        assert v1 == v2
        assert np.array_equal(m1.frame_len, m2.frame_len)
    monkeypatch.setenv("COOPSIM_THREADS", "zero")
    with pytest.raises(ValueError, match="COOPSIM_THREADS"):
        sweep_v(sc, [10, 20])


@pytest.mark.parametrize("spec", [
    FBDPP,
    PolicySpec(kind="no_coop"),
    PolicySpec(kind="always_coop"),
    PolicySpec(kind="counter"),
    PolicySpec(kind="stationary", coop_prob=0.4, idle_tx_prob=0.7),
])
def test_one_policy_call_per_slot(monkeypatch, spec):
    # choose_power is the only per-slot policy call, and what it returns is
    # what the slot spends
    import coopsim.engine as engine

    build_policy = engine.build_policy
    built = []

    def counting_policy(spec, params):
        policy = build_policy(spec, params)
        choose = policy.choose_power
        calls = [0]

        def counted(idle, u):
            calls[0] += 1
            return choose(idle, u)

        policy.choose_power = counted
        built.append((policy, calls))
        return policy

    monkeypatch.setattr(engine, "build_policy", counting_policy)
    m = run_episode(Scenario(params=REF, policy=spec, horizon_frames=300, seed=9))
    [(policy, calls)] = built
    assert calls[0] == m.slots
    if spec.kind != "fbdpp":     # the open-loop policies count their own spend
        assert policy.slots == m.slots
        assert policy.spend == float(m.power_idle.sum() + m.power_coop.sum())


def test_virtual_backlog_checked_at_every_boundary(monkeypatch):
    import coopsim.engine as engine

    monkeypatch.setattr(engine, "update_virtual_queue", lambda x, n, spent, p_avg: -1.0)
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=20, seed=3)
    with pytest.raises(RuntimeError, match="virtual backlog went negative"):
        run_episode(sc)
