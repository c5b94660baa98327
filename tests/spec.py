"""The one-slot spec that the tests hold the package to.

``coopsim.engine.run_episode`` steps both queues, admits arrivals and
evaluates the open-loop budget gates inline, in its slot kernel. Each name
here states one of those pieces on its own, one slot at a time, so that a
test can replay an episode slot by slot and compare it with the kernel's.
``steady_state`` is the closed-form idle fraction of the primary chain that
the simulated chains are checked against. Nothing in the package reads any
of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from coopsim import UnstableChainError


def step_pu_queue(q_pu: int, pu_success: bool, arrival: int) -> int:
    """Advance the primary queue one slot: departures before arrivals."""
    return max(q_pu - (1 if pu_success else 0), 0) + arrival


def step_su_queue(q_su: int, served: int, admitted: int) -> int:
    """Advance the secondary queue one slot: departures before arrivals."""
    return max(q_su - served, 0) + admitted


def admit(q_su_now: int, arrivals_now: int, v: float) -> int:
    """Admit this slot's arrivals iff the current backlog is at most v."""
    return arrivals_now if q_su_now <= v else 0


@dataclass(frozen=True)
class ChainSolution:
    """Steady state of the primary occupancy chain."""

    pi_0: float            # fraction of slots the primary is idle
    busy_fraction: float
    effective_mu: float    # per-busy-slot success probability


def steady_state(lambda_pu: float, mu_eff: float) -> ChainSolution:
    """Solve the occupancy chain when every busy slot succeeds w.p. mu_eff.

    Cutting the chain between neighbouring states and summing the balance
    equations gives lambda_pu = (1 - pi_0) * mu_eff, i.e. the idle fraction
    is 1 - lambda_pu / mu_eff.
    """
    if not 0.0 < mu_eff <= 1.0:
        raise ValueError("mu_eff must lie in (0, 1]")
    if lambda_pu >= mu_eff:
        raise UnstableChainError(
            "unstable primary queue: lambda_pu=%g >= mu_eff=%g" % (lambda_pu, mu_eff)
        )
    pi_0 = 1.0 - lambda_pu / mu_eff
    return ChainSolution(pi_0=pi_0, busy_fraction=1.0 - pi_0, effective_mu=mu_eff)


def budget_gate(spend: float, slots: int, p_avg: float, p_max: float) -> float:
    """Peak power while ``spend`` per elapsed slot is under the budget, else 0.

    The one statement of the open-loop gate. The kernel inlines it with its
    int slot index ``or 1``, which is ``max(slots, 1)`` for any slot count of
    0 or more: a float divided by an int below 2**53 is the same float
    division either way.
    """
    return p_max if spend / max(slots, 1) < p_avg else 0.0


class _OpenLoopPolicy:
    """Frame-blind state shared by the comparison policies.

    All three act at either zero or peak power and enforce the average-power
    budget with ``budget_gate``: act only while total spend so far divided by
    elapsed slots stays below the budget. ``choose_power(idle)`` states one
    slot: the power it returns is added to the float ``spend`` and the call
    to the int ``slots``, as the kernel counts them. ``p_avg`` and ``p_max``
    are copied from the model once.
    """

    def __init__(self, params):
        self.p_avg = params.p_avg
        self.p_max = params.p_max
        self.spend = 0.0
        self.slots = 0


class NoCoopPolicy(_OpenLoopPolicy):
    """Idle-only transmission at peak power, budget-gated."""

    def choose_power(self, idle):
        power = budget_gate(self.spend, self.slots, self.p_avg, self.p_max) if idle else 0.0
        self.spend += power
        self.slots += 1
        return power


class AlwaysCoopPolicy(_OpenLoopPolicy):
    """Cooperation-first budget use; own traffic only on reserve slack.

    The idle gate charges every busy slot seen so far at peak power, whether
    or not the gate was open then, so its own traffic only uses power that
    cooperation could never claim.
    """

    def __init__(self, params):
        super().__init__(params)
        self.busy_slots_seen = 0
        self.idle_power_spent = 0.0

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


class CounterPolicy(_OpenLoopPolicy):
    """Transmit or cooperate at peak power while under the running average."""

    def choose_power(self, idle):
        power = budget_gate(self.spend, self.slots, self.p_avg, self.p_max)
        self.spend += power
        self.slots += 1
        return power


OPEN_LOOP = {"no_coop": NoCoopPolicy, "always_coop": AlwaysCoopPolicy, "counter": CounterPolicy}
