"""Comparison policies: never cooperate, always cooperate, counter-gated.

All three act at either zero or peak power and enforce the average-power
budget with a running-average gate: act only while total spend so far divided
by elapsed slots stays below the budget. They differ only in the spend they
feed the gate. The always-cooperate policy additionally reserves the budget
for cooperation: its idle-slot gate charges every busy slot seen so far at
peak power, whether or not the gate was open then, so its own traffic only
uses power that cooperation could never claim. Their one hook,
``choose_power(idle)``, runs once per slot. None of them draws randomness;
the best stationary randomized policy lives in ``oracle``.
"""

from __future__ import annotations

from .model import ModelParams


def budget_gate(spend: float, slots: int, p_avg: float, p_max: float) -> float:
    """Peak power while ``spend`` per elapsed slot is under the budget, else 0."""
    return p_max if spend / max(slots, 1) < p_avg else 0.0


class _OpenLoopPolicy:
    """Frame-blind state shared by the comparison policies.

    ``choose_power`` is the one hook, and every call is one slot: the power
    it returns is added to ``spend`` and the call to ``slots``, the running
    counters the budget gate reads. ``p_avg`` and ``p_max`` are copied from
    the model once, since every slot reads them.
    """

    def __init__(self, params: ModelParams):
        self.p_avg = params.p_avg
        self.p_max = params.p_max
        self.spend = 0.0
        self.slots = 0


class NoCoopPolicy(_OpenLoopPolicy):
    """Idle-only transmission at peak power, budget-gated."""

    def choose_power(self, idle: bool) -> float:
        power = budget_gate(self.spend, self.slots, self.p_avg, self.p_max) if idle else 0.0
        self.spend += power
        self.slots += 1
        return power


class AlwaysCoopPolicy(_OpenLoopPolicy):
    """Cooperation-first budget use; own traffic only on reserve slack."""

    def __init__(self, params: ModelParams):
        super().__init__(params)
        self.busy_slots_seen = 0
        self.idle_power_spent = 0.0

    def choose_power(self, idle: bool) -> float:
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


class CounterPolicy(_OpenLoopPolicy):
    """Transmit or cooperate at peak power while under the running average."""

    def choose_power(self, idle: bool) -> float:
        power = budget_gate(self.spend, self.slots, self.p_avg, self.p_max)
        self.spend += power
        self.slots += 1
        return power
