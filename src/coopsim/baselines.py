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

from .model import ModelParams, Phase


def budget_gate(spend: float, slots: int, p_avg: float, p_max: float) -> float:
    """Peak power while ``spend`` per elapsed slot is under the budget, else 0."""
    return p_max if spend / max(slots, 1) < p_avg else 0.0


class _OpenLoopPolicy:
    """Frame-blind hooks shared by the comparison policies.

    Nothing happens at frame boundaries, every arrival is admitted, and the
    running spend and slot count are kept for the budget gate.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.spend = 0.0
        self.slots = 0

    def begin_frame(self, q_su: int, x_su: float) -> None:
        pass

    def admit(self, q_su: int, arrivals: int) -> int:
        return arrivals

    def end_slot(self, power_spent: float, phase: Phase) -> None:
        self.spend += power_spent
        self.slots += 1


class NoCoopPolicy(_OpenLoopPolicy):
    """Idle-only transmission at peak power, budget-gated; admits everything."""

    def choose_power(self, phase: Phase, q_su: int, u: float) -> float:
        if phase is Phase.PU_BUSY:
            return 0.0
        return budget_gate(self.spend, self.slots, self.params.p_avg, self.params.p_max)


class AlwaysCoopPolicy(_OpenLoopPolicy):
    """Cooperation-first budget use; own traffic only on reserve slack."""

    def __init__(self, params: ModelParams):
        super().__init__(params)
        self.busy_slots_seen = 0
        self.idle_power_spent = 0.0

    def choose_power(self, phase: Phase, q_su: int, u: float) -> float:
        p_avg, p_max = self.params.p_avg, self.params.p_max
        if phase is Phase.PU_BUSY:
            return budget_gate(self.spend, self.slots, p_avg, p_max)
        reserved = self.busy_slots_seen * p_max + self.idle_power_spent
        return budget_gate(reserved, self.slots, p_avg, p_max)

    def end_slot(self, power_spent: float, phase: Phase) -> None:
        super().end_slot(power_spent, phase)
        if phase is Phase.PU_BUSY:
            self.busy_slots_seen += 1
        else:
            self.idle_power_spent += power_spent


class CounterPolicy(_OpenLoopPolicy):
    """Transmit or cooperate at peak power while under the running average."""

    def choose_power(self, phase: Phase, q_su: int, u: float) -> float:
        return budget_gate(self.spend, self.slots, self.params.p_avg, self.params.p_max)


class StationaryRandomPolicy(_OpenLoopPolicy):
    """Queue-blind mixing policy: peak power with fixed per-phase probability."""

    def __init__(self, params: ModelParams, coop_prob: float, idle_tx_prob: float):
        super().__init__(params)
        self.coop_prob = coop_prob
        self.idle_tx_prob = idle_tx_prob

    def choose_power(self, phase: Phase, q_su: int, u: float) -> float:
        prob = self.idle_tx_prob if phase is Phase.PU_IDLE else self.coop_prob
        return self.params.p_max if u < prob else 0.0
