"""Comparison policies: never cooperate, always cooperate, counter-gated.

All three act at either zero or peak power and enforce the average-power
budget with a running-average gate: act only while total spend so far divided
by elapsed slots stays below the budget. They differ only in the spend they
feed the gate. The always-cooperate policy additionally reserves the budget
for cooperation: its idle-slot gate charges every busy slot seen so far at
peak power, whether or not the gate was open then, so its own traffic only
uses power that cooperation could never claim. ``engine.run_episode``
evaluates the three gates itself, against its own slot index, and reads from
each class only the two constants ``idle_reserve`` and ``busy_spends``; it
calls no hook. Each class's ``choose_power(idle)`` is the per-slot statement
of its gate: the tests hold the engine to the hooks, and the hooks to
``budget_gate``. Their counters are floats holding exact counts, so each gate
is float with float. None of them draws randomness; the best stationary
randomized policy lives in ``oracle``.
"""

from __future__ import annotations

from .model import ModelParams


def budget_gate(spend: float, slots: int, p_avg: float, p_max: float) -> float:
    """Peak power while ``spend`` per elapsed slot is under the budget, else 0.

    The one statement of the gate. The hooks inline it with ``slots or 1.0``,
    which is ``max(slots, 1)`` as a float for any slot count of 0 or more, and
    the engine's kernel with its int slot index ``or 1``: a float divided by an
    int below 2**53 is the same float division.
    """
    return p_max if spend / max(slots, 1) < p_avg else 0.0


class _OpenLoopPolicy:
    """Frame-blind state shared by the comparison policies.

    ``choose_power`` states one slot: the power it returns is added to
    ``spend`` and the call to ``slots``, the running counters the budget gate
    reads, both floats (a count is exact below 2**53, so each gate gives the
    float an int count would). ``p_avg`` and ``p_max`` are copied from the
    model once. ``idle_reserve`` says the idle gate reads
    ``busy_slots_seen * p_max + idle_power_spent`` in place of ``spend``, and
    ``busy_spends`` that a busy slot may spend at all; the engine's kernel
    reads both in place of calling the hook.
    """

    idle_reserve = False
    busy_spends = True

    def __init__(self, params: ModelParams):
        self.p_avg = params.p_avg
        self.p_max = params.p_max
        self.spend = 0.0
        self.slots = 0.0


class NoCoopPolicy(_OpenLoopPolicy):
    """Idle-only transmission at peak power, budget-gated."""

    busy_spends = False

    def choose_power(self, idle: bool) -> float:
        power = self.p_max if idle and self.spend / (self.slots or 1.0) < self.p_avg else 0.0
        self.spend += power
        self.slots += 1.0
        return power


class AlwaysCoopPolicy(_OpenLoopPolicy):
    """Cooperation-first budget use; own traffic only on reserve slack."""

    idle_reserve = True

    def __init__(self, params: ModelParams):
        super().__init__(params)
        self.busy_slots_seen = 0.0
        self.idle_power_spent = 0.0

    def choose_power(self, idle: bool) -> float:
        p_max = self.p_max
        if idle:
            reserved = self.busy_slots_seen * p_max + self.idle_power_spent
            power = p_max if reserved / (self.slots or 1.0) < self.p_avg else 0.0
            self.idle_power_spent += power
        else:
            self.busy_slots_seen += 1.0
            power = p_max if self.spend / (self.slots or 1.0) < self.p_avg else 0.0
        self.spend += power
        self.slots += 1.0
        return power


class CounterPolicy(_OpenLoopPolicy):
    """Transmit or cooperate at peak power while under the running average."""

    def choose_power(self, idle: bool) -> float:
        power = self.p_max if self.spend / (self.slots or 1.0) < self.p_avg else 0.0
        self.spend += power
        self.slots += 1.0
        return power
