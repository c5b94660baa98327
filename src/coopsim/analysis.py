"""Closed-form chain and frame statistics.

The primary queue, viewed at slot boundaries, is a birth-death chain: from a
nonempty state a packet departs with the per-slot success probability and a
new one arrives with probability lambda_pu, independently. All quantities
below follow from that structure: expected frame lengths under the two
extreme cooperation policies, the busy-period moments, and the drift
constants that bound the online controller's optimality gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams, UnstableChainError


@dataclass(frozen=True)
class DriftConstants:
    """Constants controlling the throughput bound of the frame controller."""

    b_const: float
    c_const: float
    d_const: float         # worst-case second moment of a frame length
    t_min: float
    t_max: float


def frame_length_bounds(params: ModelParams) -> tuple[float, float]:
    """Expected frame length under full cooperation (min) and none (max).

    Little's theorem applied to the idle fraction gives
    E[T] = phi / ((phi - lambda_pu) * lambda_pu) for per-busy-slot success
    probability phi; cooperation can only shorten the busy run.
    """
    lam = params.lambda_pu
    if lam <= 0.0:
        raise ValueError("frame lengths are unbounded when lambda_pu = 0")
    t_min = params.phi_c / ((params.phi_c - lam) * lam)
    t_max = params.phi_nc / ((params.phi_nc - lam) * lam)
    return t_min, t_max


def busy_period_moments(lambda_pu: float, phi_nc: float) -> tuple[float, float]:
    """First and second moments of a busy period with fixed success prob.

    The busy run starts with one packet; arrivals during service extend it.
    Its mean follows from Little's theorem. The second moment follows from a
    branching decomposition: serving the first packet under preemptive LIFO
    leaves the run length unchanged, and each interrupting arrival spawns an
    independent copy of the busy period.
    """
    if lambda_pu >= phi_nc:
        raise UnstableChainError(
            "unstable primary queue: lambda_pu=%g >= phi_nc=%g" % (lambda_pu, phi_nc)
        )
    gap = phi_nc - lambda_pu
    e_b = 1.0 / gap
    e_b2 = (
        (2.0 - phi_nc) / (phi_nc * gap)
        + 2.0 * lambda_pu / (phi_nc * gap**2)
        + 4.0 * lambda_pu**2 * (1.0 - phi_nc) / (phi_nc * gap**3)
    )
    return e_b, e_b2


def compute_d(lambda_pu: float, phi_nc: float) -> float:
    """Worst-case E[T^2] over all policies: attained with no cooperation.

    The frame splits into an independent idle run I (geometric, support >= 1)
    and busy run B, so E[T^2] = E[I^2] + E[B^2] + 2 E[I] E[B].
    """
    if lambda_pu <= 0.0:
        raise ValueError("frame moments are unbounded when lambda_pu = 0")
    e_i = 1.0 / lambda_pu
    e_i2 = (2.0 - lambda_pu) / lambda_pu**2
    e_b, e_b2 = busy_period_moments(lambda_pu, phi_nc)
    return e_i2 + e_b2 + 2.0 * e_i * e_b


def drift_constants(params: ModelParams) -> DriftConstants:
    """Assemble the bound constants for the given model."""
    d = compute_d(params.lambda_pu, params.phi_nc)
    mu_max = params.mu_max
    a_max = float(params.a_max)
    b = d * (mu_max**2 + a_max**2 + (params.p_max - params.p_avg) ** 2) / 2.0
    c = d * (a_max + mu_max) * a_max / 2.0
    t_min, t_max = frame_length_bounds(params)
    return DriftConstants(b_const=b, c_const=c, d_const=d, t_min=t_min, t_max=t_max)


def throughput_lower_bound(
    v: float, upsilon_star: float, constants: DriftConstants
) -> float:
    """Guaranteed long-run admitted rate of the frame controller.

    The gap to the offline optimum shrinks as O(1/V); the bound can be
    negative (vacuous) for small V.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    return upsilon_star - (constants.b_const + constants.c_const) / (v * constants.t_min)
