"""Comparison policies: never cooperate, always cooperate, counter-gated, stationary.

The first three act at either zero or peak power and enforce the average-power
budget with a running-average gate: act only while total spend so far divided
by elapsed slots stays below the budget. They differ only in the spend they
feed the gate. The always-cooperate policy additionally reserves the budget
for cooperation: its idle-slot gate charges every busy slot seen so far at
peak power, whether or not the gate was open then, so its own traffic only
uses power that cooperation could never claim. The stationary policy ignores
the budget and mixes peak power with a fixed probability per phase.
"""

from __future__ import annotations

from .model import ModelParams


def budget_gate(spend: float, slots: int, p_avg: float, p_max: float) -> float:
    """Peak power while ``spend`` per elapsed slot is under the budget, else 0."""
    return p_max if spend / max(slots, 1) < p_avg else 0.0


class _OpenLoopPolicy:
    """Frame-blind hooks shared by the comparison policies.

    Nothing happens at frame boundaries. Every ``choose_power`` call is one
    slot: the power it returns is charged to the running spend and slot
    count that the budget gate reads.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.spend = 0.0
        self.slots = 0

    def begin_frame(self, q_su: int, x_su: float) -> None:
        pass

    def _spent(self, power: float) -> float:
        """Charge one slot at ``power`` to the running counters; return it."""
        self.spend += power
        self.slots += 1
        return power


class NoCoopPolicy(_OpenLoopPolicy):
    """Idle-only transmission at peak power, budget-gated."""

    def choose_power(self, idle: bool, u: float) -> float:
        if not idle:
            return self._spent(0.0)
        return self._spent(
            budget_gate(self.spend, self.slots, self.params.p_avg, self.params.p_max)
        )


class AlwaysCoopPolicy(_OpenLoopPolicy):
    """Cooperation-first budget use; own traffic only on reserve slack."""

    def __init__(self, params: ModelParams):
        super().__init__(params)
        self.busy_slots_seen = 0
        self.idle_power_spent = 0.0

    def choose_power(self, idle: bool, u: float) -> float:
        p_avg, p_max = self.params.p_avg, self.params.p_max
        if not idle:
            self.busy_slots_seen += 1
            return self._spent(budget_gate(self.spend, self.slots, p_avg, p_max))
        reserved = self.busy_slots_seen * p_max + self.idle_power_spent
        power = self._spent(budget_gate(reserved, self.slots, p_avg, p_max))
        self.idle_power_spent += power
        return power


class CounterPolicy(_OpenLoopPolicy):
    """Transmit or cooperate at peak power while under the running average."""

    def choose_power(self, idle: bool, u: float) -> float:
        return self._spent(
            budget_gate(self.spend, self.slots, self.params.p_avg, self.params.p_max)
        )


class StationaryRandomPolicy(_OpenLoopPolicy):
    """Queue-blind mixing policy: peak power with fixed per-phase probability."""

    def __init__(self, params: ModelParams, coop_prob: float, idle_tx_prob: float):
        super().__init__(params)
        self.coop_prob = coop_prob
        self.idle_tx_prob = idle_tx_prob

    def choose_power(self, idle: bool, u: float) -> float:
        prob = self.idle_tx_prob if idle else self.coop_prob
        return self._spent(self.params.p_max if u < prob else 0.0)
