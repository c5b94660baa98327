"""Frame-based drift-plus-penalty controller.

At the start of each frame the controller reads the pair of weights
(secondary backlog, virtual power backlog) in ``begin_frame``, its one hook,
and picks two constant powers for the whole frame: one for every primary-idle
slot's own traffic, one for cooperative transmission in every primary-busy
slot. Admission is a per-slot backlog threshold, admit while the backlog is
at most v, which the engine applies inline. No decision needs the arrival
rates.

The two powers come from a pair of one-dimensional problems over the finite
power set:

  idle power:  maximize  q_su * mu_su(P) - x_su * P
  busy power:  minimize  (theta + x_su * P) / phi(P)

where theta is the attained idle objective. On a two-point power set the busy
problem collapses to a threshold test on x_su. Ties always resolve to the
lower power (and the lower user index in the multi-user variant) so runs
replay deterministically.

``FrameRule`` holds the only copy of both rules, over per-level tables built
once from the model, so a frame decision does no per-level map or property
lookup. It is the one way in: the controller keeps one per policy and
``solve_multiuser_frame`` one per user. The threshold is
``theta * (phi_c - phi_nc) / (p_max * phi_nc)`` with the numerator and
denominator precomputed and the product taken first, which keeps it the same
float as the closed form.
"""

from __future__ import annotations

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


class FrameRule:
    """Both frame rules over per-level tables built once from the model.

    ``idle`` holds ``(p, mu_su[p])`` and ``busy`` holds ``(p, phi[p])`` for
    each power level, in increasing power; ``coop_num`` and ``coop_den`` are
    the two-point threshold's ``phi_c - phi_nc`` and ``p_max * phi_nc``.
    """

    __slots__ = ("idle", "busy", "two_point", "p_max", "coop_num", "coop_den")

    def __init__(self, params: ModelParams):
        levels = params.power_set.levels
        self.idle = tuple((p, params.mu_su[p]) for p in levels)
        self.busy = tuple((p, params.phi[p]) for p in levels)
        self.two_point = params.power_set.two_point
        self.p_max = params.p_max
        self.coop_num = params.phi_c - params.phi_nc
        self.coop_den = params.p_max * params.phi_nc

    def idle_power(self, q_su_frame: float, x_su_frame: float) -> tuple[float, float]:
        """Maximize ``q_su * mu_su(P) - x_su * P``; returns (power, attained value).

        The value at power 0 is ``q_su * mu_su(0) >= 0``, so it is never negative.
        """
        q = float(q_su_frame)   # the float an int q_su becomes in q_su * mu, once
        best_p = 0.0
        best_val = None
        for p, mu in self.idle:
            val = q * mu - x_su_frame * p
            if best_val is None or val > best_val:
                best_p, best_val = p, val
        return best_p, best_val

    def threshold(self, theta_star: float) -> float:
        # product first: theta * (num / den) rounds differently for many theta
        return theta_star * self.coop_num / self.coop_den

    def busy_scan(self, theta_star: float, x_su_frame: float) -> tuple[float, float]:
        """Minimize ``(theta + x_su * P) / phi(P)``; returns (power, attained value)."""
        best_p = 0.0
        best_val = None
        for p, phi in self.busy:
            val = (theta_star + x_su_frame * p) / phi
            if best_val is None or val < best_val:
                best_p, best_val = p, val
        return best_p, best_val

    def busy_power(self, theta_star: float, x_su_frame: float) -> float:
        """The busy-slot power: the scan's, or the threshold's on a two-point set.

        At the threshold itself the rule does not cooperate. On {0, p_max} the
        two agree except at exact ties of the two objectives, where the rounded
        threshold can land just above ``x_su_frame`` and the rule then picks
        p_max, against the lower-power tie rule the scan keeps. At the
        reference point, q_su = 2 and x_su = 0.5 give theta = 1.5, both
        objectives equal 2.5, and the threshold rounds to 0.5000000000000002.
        """
        if self.two_point:
            return 0.0 if x_su_frame >= self.threshold(theta_star) else self.p_max
        return self.busy_scan(theta_star, x_su_frame)[0]


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
    smallest ratio objective given the attained idle value, by each user's
    scan, two-point or not. Ties prefer the lower index, then the lower power.
    """
    if len(frame_queues) != len(params_per_user) or not frame_queues:
        raise ValueError("need one (q, x) pair per user")
    rules = [FrameRule(par) for par in params_per_user]
    users = range(len(rules))
    idle = [rule.idle_power(q, x) for rule, (q, x) in zip(rules, frame_queues)]
    idle_user = max(users, key=lambda i: idle[i][1])
    p0_star, theta_star = idle[idle_user]
    coop = [rule.busy_scan(theta_star, x) for rule, (_, x) in zip(rules, frame_queues)]
    coop_user = min(users, key=lambda i: coop[i][1])
    return MultiUserDecision(
        idle_user=idle_user,
        p0_star=p0_star,
        theta_star=theta_star,
        coop_user=coop_user,
        p1_star=coop[coop_user][0],
    )


def solve_p1_fading(
    theta_star: float,
    x_su_frame: float,
    fading: FadingModel,
    params: ModelParams,
) -> dict[str, float]:
    """Pick one cooperation power per fade state.

    Minimizes (theta + x * E[P]) / E[phi_s(P_s)] over deterministic per-state
    powers by coordinate descent from the all-zero vector, which is exact:
    numerator and denominator are sums of per-state terms, so at a vector
    with ratio r that no single state can improve, each state's power
    minimizes ``x * q_s * P - r * q_s * phi_s(P)``, and no vector has a ratio
    below r (Dinkelbach, 1967). Ties resolve to the lexicographically smallest
    power vector, extending the lower-power rule: each step moves its
    coordinate to the lowest level that attains the coordinate's minimum,
    even where that level only ties the current power, so the descent ends at
    the componentwise-lowest optimal vector. phi is non-decreasing, so the
    all-zero vector, evaluated first, has the smallest expected success; a
    model whose success there is not positive raises ``ValueError``.
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
                if val < best_val or val == best_val and p < best_p:
                    best_p, best_val = p, val
            if best_p != vec[i]:
                vec[i] = best_p
                current = best_val
                improved = True
    return {s.fade_id: p for s, p in zip(fading.states, vec)}


class FrameDriftPenaltyPolicy:
    """Frame policy: recompute the two powers at every frame boundary.

    One instance belongs to one episode; ``begin_frame`` returns the
    current frame's power pair ``(p0, p1)``, p0 for primary-idle slots and p1
    for primary-busy slots, which the engine uses for the whole frame.
    ``FrameRule`` is a pure function of ``(q_su, x_su)``, and most frames
    start from a pair an earlier frame of the episode already saw, so
    ``decisions`` remembers each pair's powers and the rule runs only on a new
    pair: at most one entry per frame, freed with the episode's policy.
    """

    def __init__(self, params: ModelParams):
        self.rule = FrameRule(params)
        self.decisions: dict[tuple[int, float], tuple[float, float]] = {}

    def begin_frame(self, q_su: int, x_su: float) -> tuple[float, float]:
        key = (q_su, x_su)
        pair = self.decisions.get(key)
        if pair is None:
            rule = self.rule
            p0, theta = rule.idle_power(q_su, x_su)
            pair = self.decisions[key] = (p0, rule.busy_power(theta, x_su))
        return pair
