"""Frame-based drift-plus-penalty controller.

At the start of each frame the controller reads the pair of weights
(secondary backlog, virtual power backlog) and picks two constant powers for
the whole frame: one used in every primary-idle slot for its own traffic, one
used in every primary-busy slot for cooperative transmission. Admission is a
per-slot backlog threshold, ``admit``, which the engine applies. None of the
decisions needs the arrival rates.

The two powers come from a pair of one-dimensional problems over the finite
power set:

  idle power:  maximize  q_su * mu_su(P) - x_su * P
  busy power:  minimize  (theta + x_su * P) / phi(P)

where theta is the attained idle objective. On a two-point power set the busy
problem collapses to a threshold test on x_su. Ties always resolve to the
lower power (and the lower user index in the multi-user variant) so runs
replay deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import ModelParams


@dataclass(frozen=True)
class FadeState:
    fade_id: str
    prob: float
    phi: Mapping[float, float]   # power -> primary success prob in this state

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("fade state probability must lie in [0, 1]")
        ordered = [self.phi[p] for p in sorted(self.phi)]
        if any(hi < lo for lo, hi in zip(ordered, ordered[1:])):
            raise ValueError("phi must be non-decreasing in power")


@dataclass(frozen=True)
class FadingModel:
    """I.i.d. per-slot channel states affecting only busy-slot success."""

    states: tuple[FadeState, ...]

    def __post_init__(self) -> None:
        total = sum(s.prob for s in self.states)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("fade state probabilities must sum to 1")


class SizeCapExceededError(RuntimeError):
    """Search space too large and the iterative fallback is disabled."""


def admit(q_su_now: int, arrivals_now: int, v: float) -> int:
    """Admit this slot's arrivals iff the current backlog is at most v."""
    return arrivals_now if q_su_now <= v else 0


def solve_p0(
    q_su_frame: float, x_su_frame: float, params: ModelParams
) -> tuple[float, float]:
    """Pick the idle-slot power; returns (power, attained objective).

    The objective at power 0 is q_su * mu_su(0) >= 0, so the attained value
    is never negative.
    """
    best_p = 0.0
    best_val = None
    for p in params.power_set.levels:
        val = q_su_frame * params.mu_su_of(p) - x_su_frame * p
        if best_val is None or val > best_val:
            best_p, best_val = p, val
    return best_p, best_val


def cooperation_threshold(theta_star: float, params: ModelParams) -> float:
    """Virtual-backlog level above which cooperation stops paying off."""
    return (
        theta_star
        * (params.phi_c - params.phi_nc)
        / (params.p_max * params.phi_nc)
    )


def solve_p1(theta_star: float, x_su_frame: float, params: ModelParams) -> float:
    """Pick the busy-slot cooperation power.

    Two-point sets use the threshold rule (boundary means do not cooperate);
    general grids scan the ratio objective directly. Both give identical
    answers on {0, p_max}, which the test suite checks exhaustively.
    """
    if params.power_set.two_point:
        if x_su_frame >= cooperation_threshold(theta_star, params):
            return 0.0
        return params.p_max
    best_p = 0.0
    best_val = None
    for p in params.power_set.levels:
        val = (theta_star + x_su_frame * p) / params.phi_of(p)
        if best_val is None or val < best_val:
            best_p, best_val = p, val
    return best_p


@dataclass(frozen=True)
class MultiUserDecision:
    idle_user: int
    p0_star: float
    theta_star: float
    coop_user: int
    p1_star: float


def solve_multiuser_frame(
    frame_queues: Sequence[tuple[float, float]],
    params_per_user: Sequence[ModelParams],
) -> MultiUserDecision:
    """Frame decision with several secondary users, one active per slot.

    First the idle transmitter: the user/power pair with the largest backlog
    weighted objective. Then the cooperator: the user/power pair with the
    smallest ratio objective given the attained idle value. Ties prefer the
    lower index, then the lower power.
    """
    if len(frame_queues) != len(params_per_user) or not frame_queues:
        raise ValueError("need one (q, x) pair per user")
    idle_user, p0_star, theta_star = 0, 0.0, None
    for i, ((q_i, x_i), par) in enumerate(zip(frame_queues, params_per_user)):
        p_i, th_i = solve_p0(q_i, x_i, par)
        if theta_star is None or th_i > theta_star:
            idle_user, p0_star, theta_star = i, p_i, th_i
    coop_user, p1_star, best_ratio = 0, 0.0, None
    for i, ((_, x_i), par) in enumerate(zip(frame_queues, params_per_user)):
        for p in par.power_set.levels:
            ratio = (theta_star + x_i * p) / par.phi_of(p)
            if best_ratio is None or ratio < best_ratio:
                coop_user, p1_star, best_ratio = i, p, ratio
    return MultiUserDecision(
        idle_user=idle_user,
        p0_star=p0_star,
        theta_star=theta_star,
        coop_user=coop_user,
        p1_star=p1_star,
    )


def solve_p1_fading(
    theta_star: float,
    x_su_frame: float,
    fading: FadingModel,
    params: ModelParams,
    size_cap: int = 65536,
    coordinate_descent: bool = True,
) -> dict[str, float]:
    """Pick one cooperation power per fade state.

    Minimizes (theta + x * E[P]) / E[phi_s(P_s)] over deterministic per-state
    powers. Exhaustive when |power set| ** |states| fits under ``size_cap``;
    otherwise coordinate descent from the all-zero vector (or an error when
    disabled). Ties resolve to the lexicographically smallest power vector,
    extending the lower-power rule.
    """
    levels = params.power_set.levels
    n_states = len(fading.states)
    probs = [s.prob for s in fading.states]

    def objective(vec: Sequence[float]) -> float:
        num = theta_star + x_su_frame * sum(q * p for q, p in zip(probs, vec))
        den = sum(q * s.phi[p] for q, s, p in zip(probs, fading.states, vec))
        if den <= 0.0:
            raise ValueError("expected success probability must be positive")
        return num / den

    if len(levels) ** n_states <= size_cap:
        best_vec, best_val = None, None
        for vec in itertools.product(levels, repeat=n_states):
            val = objective(vec)
            if best_val is None or val < best_val:
                best_vec, best_val = vec, val
        return {s.fade_id: p for s, p in zip(fading.states, best_vec)}

    if not coordinate_descent:
        raise SizeCapExceededError(
            "search space %d^%d exceeds cap %d" % (len(levels), n_states, size_cap)
        )
    vec = [0.0] * n_states
    current = objective(vec)
    improved = True
    while improved:
        improved = False
        for i in range(n_states):
            best_p, best_val = vec[i], current
            for p in levels:
                trial = vec.copy()
                trial[i] = p
                val = objective(trial)
                if val < best_val:
                    best_p, best_val = p, val
            if best_p != vec[i]:
                vec[i] = best_p
                current = best_val
                improved = True
    return {s.fade_id: p for s, p in zip(fading.states, vec)}


class FrameDriftPenaltyPolicy:
    """Slot-policy wrapper: recompute the two powers at every frame boundary.

    One instance belongs to one simulation worker; it holds only the current
    frame's power pair: ``p0_star`` for primary-idle slots, ``p1_star`` for
    primary-busy slots.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.begin_frame(0, 0.0)

    def begin_frame(self, q_su: int, x_su: float) -> None:
        self.p0_star, theta = solve_p0(q_su, x_su, self.params)
        self.p1_star = solve_p1(theta, x_su, self.params)

    def choose_power(self, idle: bool, u: float) -> float:
        return self.p0_star if idle else self.p1_star
