"""Core domain model: power sets, static parameters, the virtual power queue.

The network is slotted. A licensed (primary) transmitter owns the channel and
sends one packet per slot whenever its queue is nonempty; an unlicensed
(secondary) transmitter sends its own data only in primary-idle slots, and may
instead spend power during primary-busy slots to raise the primary's success
probability. Time splits into frames: each frame is one idle run of the
primary queue followed by one busy run, ending when the queue drains again.

Everything here is a pure function or a plain record; each episode owns its
state and shares none. The engine steps both real queues inline, departures
before arrivals; only the virtual power backlog has a helper here, since it
moves once per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


class UnstableChainError(ValueError):
    """Raised when the primary arrival rate is not below its service rate."""


@dataclass(frozen=True)
class PowerSet:
    """Finite set of per-slot power levels available to the secondary user.

    ``levels`` is finite, strictly increasing, always contains 0, and tops
    out at the peak power. ``two_point`` marks the common {0, p_max} special
    case, which admits a closed-form cooperation rule.
    """

    levels: tuple[float, ...]
    two_point: bool = False

    def __post_init__(self) -> None:
        if len(self.levels) < 1:
            raise ValueError("power set must not be empty")
        if not all(math.isfinite(p) for p in self.levels):
            raise ValueError("power levels must be finite")
        if self.levels[0] != 0.0:
            raise ValueError("power set must contain 0")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if not hi > lo:
                raise ValueError("power levels must be strictly increasing")
        if self.two_point and len(self.levels) != 2:
            raise ValueError("two-point set must have exactly 2 levels")

    @classmethod
    def make_two_point(cls, p_max: float) -> "PowerSet":
        if p_max <= 0:
            raise ValueError("p_max must be positive")
        return cls(levels=(0.0, float(p_max)), two_point=True)

    @classmethod
    def make_grid(cls, levels) -> "PowerSet":
        lv = tuple(float(x) for x in levels)
        if lv and lv[0] != 0.0:
            lv = (0.0,) + lv
        return cls(levels=lv, two_point=False)

    @property
    def p_max(self) -> float:
        return self.levels[-1]


@dataclass(frozen=True)
class ModelParams:
    """Static model inputs shared by every policy.

    ``phi`` maps secondary power spent during a busy slot to the primary's
    per-slot success probability (non-decreasing). ``mu_su`` maps power spent
    in an idle slot to the secondary's own Bernoulli service probability.
    Both maps must be defined on every level of ``power_set``, whose top
    level is the peak power ``p_max``.
    """

    lambda_pu: float            # primary arrival probability per slot
    lambda_su: float            # mean secondary arrivals per slot
    a_max: int                  # cap on secondary arrivals per slot
    phi: Mapping[float, float]
    mu_su: Mapping[float, float]
    p_avg: float                # long-term average power budget
    power_set: PowerSet

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_pu < 1.0:
            raise ValueError("lambda_pu must lie in [0, 1)")
        if self.a_max < 1:
            raise ValueError("a_max must be at least 1")
        if not 0.0 <= self.lambda_su <= self.a_max:
            raise ValueError("lambda_su must lie in [0, a_max]")
        if not 0.0 < self.p_avg <= self.p_max:
            raise ValueError("p_avg must lie in (0, p_max]")
        for p in self.power_set.levels:
            if p not in self.phi:
                raise ValueError(f"phi undefined at power level {p}")
            if p not in self.mu_su:
                raise ValueError(f"mu_su undefined at power level {p}")
            if not 0.0 <= self.phi[p] <= 1.0 or not 0.0 <= self.mu_su[p] <= 1.0:
                raise ValueError("phi and mu_su values must be probabilities")
        probs = [self.phi[p] for p in self.power_set.levels]
        for lo, hi in zip(probs, probs[1:]):
            if hi < lo:
                raise ValueError("phi must be non-decreasing in power")
        if self.lambda_pu >= self.phi_nc:
            raise UnstableChainError(
                "unstable primary queue: lambda_pu=%g must be < phi(0)=%g"
                % (self.lambda_pu, self.phi_nc)
            )

    @classmethod
    def two_point(
        cls,
        lambda_pu: float,
        lambda_su: float,
        phi_nc: float,
        phi_c: float,
        p_avg: float,
        p_max: float = 1.0,
        mu_su_max: float = 1.0,
        a_max: int = 1,
    ) -> "ModelParams":
        """Convenience constructor for the {0, p_max} power set."""
        ps = PowerSet.make_two_point(p_max)
        return cls(
            lambda_pu=lambda_pu,
            lambda_su=lambda_su,
            a_max=a_max,
            phi={0.0: phi_nc, float(p_max): phi_c},
            mu_su={0.0: 0.0, float(p_max): mu_su_max},
            p_avg=p_avg,
            power_set=ps,
        )

    @property
    def p_max(self) -> float:
        """Peak power per slot: the power set's top level."""
        return self.power_set.p_max

    @property
    def phi_nc(self) -> float:
        """Primary success probability with no secondary help."""
        return self.phi[0.0]

    @property
    def phi_c(self) -> float:
        """Primary success probability at full secondary power."""
        return self.phi[self.p_max]

    @property
    def mu_max(self) -> float:
        return max(self.mu_su[p] for p in self.power_set.levels)


def update_virtual_queue(
    x_su: float, frame_len: int, frame_power_sum: float, p_avg: float
) -> float:
    """Roll the virtual power backlog forward at a frame boundary.

    The backlog absorbs the frame's power spend and drains by the frame's
    budget allowance ``frame_len * p_avg``, clamped at zero. Call exactly once
    per boundary. The clamp returns what ``max(x, 0.0)`` returns for every
    float, ``-0.0`` and NaN included, without the builtin call.
    """
    x = x_su - frame_len * p_avg + frame_power_sum
    return 0.0 if 0.0 > x else x
