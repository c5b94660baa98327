from types import SimpleNamespace

import numpy as np
import pytest

from coopsim import (
    AlwaysCoopPolicy,
    CounterPolicy,
    ModelParams,
    NoCoopPolicy,
    PolicySpec,
    Scenario,
    budget_gate,
    run_episode,
)

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


class _GatedNoCoop(NoCoopPolicy):
    """``NoCoopPolicy.choose_power`` as it read with a ``budget_gate`` call.

    Each ``_Gated*`` spec keeps its slot counts as ints, as the hooks once did.
    """

    def __init__(self, params):
        super().__init__(params)
        self.slots = 0

    def choose_power(self, idle):
        power = budget_gate(self.spend, self.slots, self.p_avg, self.p_max) if idle else 0.0
        self.spend += power
        self.slots += 1
        return power


class _GatedAlwaysCoop(AlwaysCoopPolicy):
    """``AlwaysCoopPolicy.choose_power`` as it read with ``budget_gate`` calls."""

    def __init__(self, params):
        super().__init__(params)
        self.slots = self.busy_slots_seen = 0

    def choose_power(self, idle):
        p_max = self.p_max
        if idle:
            reserved = self.busy_slots_seen * p_max + self.idle_power_spent
            power = budget_gate(reserved, self.slots, self.p_avg, p_max)
            self.idle_power_spent += power
        else:
            self.busy_slots_seen += 1
            power = budget_gate(self.spend, self.slots, self.p_avg, p_max)
        self.spend += power
        self.slots += 1
        return power


class _GatedCounter(CounterPolicy):
    """``CounterPolicy.choose_power`` as it read with a ``budget_gate`` call."""

    def __init__(self, params):
        super().__init__(params)
        self.slots = 0

    def choose_power(self, idle):
        power = budget_gate(self.spend, self.slots, self.p_avg, self.p_max)
        self.spend += power
        self.slots += 1
        return power


_STATE = ("spend", "slots", "busy_slots_seen", "idle_power_spent")
_COUNTS = ("slots", "busy_slots_seen")
# preset counters: fresh, over budget, under it, and reserve-heavy for always_coop
_PRESETS = (
    {},
    {"spend": 60.0, "slots": 100},
    {"spend": 0.1 + 0.2, "slots": 7},
    {"spend": 30.0, "slots": 100, "busy_slots_seen": 60, "idle_power_spent": 0.7 * 3},
)


@pytest.mark.parametrize("inline, gated", [
    (NoCoopPolicy, _GatedNoCoop),
    (AlwaysCoopPolicy, _GatedAlwaysCoop),
    (CounterPolicy, _GatedCounter),
])
@pytest.mark.parametrize("p_max", [1.0, 0.7, 2.5])
def test_inline_gate_matches_budget_gate(inline, gated, p_max):
    # p_avg = 1/3 makes exact ties at spend / slots == p_avg, p_max = 0.7 makes
    # spend a sum that rounds, and p_avg = 0 never opens the gate; at p_avg =
    # 0.1 and 0.2, ``spend < p_avg * slots`` differs from the gate's division.
    # The hooks count in floats, the specs in ints: each preset takes the type
    # of the counter it sets, and the two must still agree bit for bit
    g = np.random.default_rng(int(p_max * 10))
    for p_avg in (0.5, 0.3, 1 / 3, 0.0, 0.1, 0.2):
        params = SimpleNamespace(p_avg=p_avg, p_max=p_max)
        for preset in _PRESETS:
            new, old = inline(params), gated(params)
            for pol in (new, old):
                for name, value in preset.items():
                    if hasattr(pol, name):
                        setattr(pol, name, type(getattr(pol, name))(value))
            idle = (g.random(10_000) < g.uniform(0.2, 0.8)).tolist()
            assert [new.choose_power(i) for i in idle] == [old.choose_power(i) for i in idle]
            assert [getattr(new, n, None) for n in _STATE] == [
                getattr(old, n, None) for n in _STATE]
            for name in _COUNTS:
                if hasattr(new, name):
                    assert type(getattr(new, name)) is float, name
                    assert type(getattr(old, name)) is int, name
