import numpy as np
import pytest

from coopsim import ModelParams, PolicySpec, Scenario, run_episode
from spec import AlwaysCoopPolicy, CounterPolicy, NoCoopPolicy, budget_gate

REF = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)


def test_counter_state_average():
    pol = CounterPolicy(REF)
    assert pol.spend == 0.0 and pol.slots == 0
    assert budget_gate(0.0, 0, 1e-12, 1.0) == 1.0     # no slots yet: average 0
    assert pol.choose_power(True) == 1.0          # spends 1 in slot 1
    assert pol.choose_power(False) == 0.0         # average 1: gate shut
    assert pol.slots == 2 and pol.spend == 1.0
    # average 0.5: the gate shuts at a budget of 0.5 and opens just above it
    assert budget_gate(pol.spend, pol.slots, 0.5, 1.0) == 0.0
    assert budget_gate(pol.spend, pol.slots, 0.5 + 1e-12, 1.0) == 1.0


def test_no_coop_decide():
    pol = NoCoopPolicy(REF)
    assert pol.choose_power(False) == 0.0
    assert pol.choose_power(True) == 1.0
    pol.spend, pol.slots = 60.0, 100
    assert pol.choose_power(True) == 0.0


def test_counter_decide():
    pol = CounterPolicy(REF)
    assert pol.choose_power(True) == 1.0
    # the first call spent peak power; a fresh policy sees the empty history
    assert CounterPolicy(REF).choose_power(False) == 1.0
    assert budget_gate(0.0, 0, 0.0, 1.0) == 0.0   # p_avg = 0
    pol.spend, pol.slots = 51.0, 100
    assert pol.choose_power(False) == 0.0


def test_always_coop_decide_priorities():
    fresh = AlwaysCoopPolicy(REF)
    assert fresh.choose_power(False) == 1.0
    # busy history reserves the budget: idle transmission blocked
    pol = AlwaysCoopPolicy(REF)
    pol.spend, pol.slots, pol.busy_slots_seen = 30.0, 100, 60
    assert pol.choose_power(True) == 0.0
    assert pol.choose_power(False) == 1.0
    # slack budget: everything at peak power
    slack = AlwaysCoopPolicy(ModelParams.two_point(0.5, 0.5, 0.6, 0.8, p_avg=1.0))
    slack.spend, slack.slots = 30.0, 100
    slack.busy_slots_seen, slack.idle_power_spent = 20, 10.0
    assert slack.choose_power(True) == 1.0


@pytest.mark.parametrize("kind", ["no_coop", "always_coop", "counter"])
def test_budget_rule_long_run(kind):
    sc = Scenario(params=REF, policy=PolicySpec(kind=kind), horizon_frames=4000, seed=5)
    m = run_episode(sc)
    # gate can overshoot by at most one peak-power slot's contribution
    assert m.avg_power <= REF.p_avg + REF.p_max / m.slots + 1e-12


@pytest.mark.parametrize("kind", ["no_coop", "always_coop", "counter"])
def test_no_service_during_busy_phase(kind):
    # served packets can only come from idle slots, frame by frame
    sc = Scenario(params=REF, policy=PolicySpec(kind=kind), horizon_frames=500, seed=6)
    m = run_episode(sc)
    assert np.all(m.served <= m.idle_len)
    # idle spend can only come from idle slots too
    assert np.all(m.power_idle <= m.idle_len * REF.p_max + 1e-12)


def test_always_coop_zero_throughput_reference_point():
    sc = Scenario(
        params=REF, policy=PolicySpec(kind="always_coop"), horizon_frames=18000, seed=7
    )
    m = run_episode(sc)
    assert m.slots >= 1e5
    assert m.throughput_served <= 0.005
    assert m.avg_power == pytest.approx(0.5, abs=0.01)


def test_slack_budget_acts_like_unconstrained():
    # p_avg = p_max: after the first averaging hiccup the gate stays open,
    # so nearly every slot runs at peak power and the idle fraction matches
    # the fully-cooperative chain.
    slack = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, p_avg=1.0)
    sc = Scenario(params=slack, policy=PolicySpec(kind="always_coop"),
                  horizon_frames=2000, seed=8)
    m = run_episode(sc)
    assert m.avg_power >= 0.999
    chain_idle = 1 - 0.5 / 0.8
    assert m.throughput_served == pytest.approx(chain_idle, abs=0.02)
