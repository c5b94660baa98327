"""Slot-by-slot episode driver with frame detection and metric collection.

An episode runs whole frames: each frame is an idle run of the primary queue
followed by a busy run, and ends at the first slot where the queue is empty
again. The policy is consulted every slot for a power level and an admission
decision; frame-scoped policies get a callback at every boundary with the
fresh (backlog, virtual backlog) weights. All randomness comes from one
seeded generator consuming exactly five uniforms per slot, so a rerun with
the same scenario and seed reproduces every number bit for bit.

Slot order: observe state, decide (admission, power), sample transmission
outcomes, sample arrivals, update queues. Departures precede arrivals. The
virtual power backlog is updated only at frame boundaries. Power is charged
as allocated even when the secondary queue is empty during idle slots;
``skip_when_empty`` turns that spend off to quantify the gap.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .baselines import AlwaysCoopPolicy, CounterPolicy, NoCoopPolicy, StationaryRandomPolicy
from .controller import FrameDriftPenaltyPolicy
from .model import (
    ModelParams,
    Phase,
    SystemState,
    step_pu_queue,
    step_su_queue,
    update_virtual_queue,
)
from .montecarlo import arrival_counts

RNG_NAME = "pcg64"
POLICY_KINDS = ("fbdpp", "no_coop", "always_coop", "counter", "stationary")
_BLOCK = 8192


@dataclass(frozen=True)
class PolicySpec:
    """Tagged policy selector: which controller, and its parameters."""

    kind: str
    v: float | None = None              # fbdpp only
    coop_prob: float | None = None      # stationary only
    idle_tx_prob: float | None = None   # stationary only

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "fbdpp" and (self.v is None or self.v <= 0):
            raise ValueError("fbdpp needs a positive v")
        if self.kind == "stationary":
            for name, val in (("coop_prob", self.coop_prob),
                              ("idle_tx_prob", self.idle_tx_prob)):
                if val is None or not 0.0 <= val <= 1.0:
                    raise ValueError(f"stationary needs {name} in [0, 1]")

    def label(self) -> str:
        if self.kind == "fbdpp":
            return f"fbdpp(v={self.v:g})"
        if self.kind == "stationary":
            return f"stationary(q={self.coop_prob:g},p={self.idle_tx_prob:g})"
        return self.kind


@dataclass(frozen=True)
class Scenario:
    """Everything one episode needs, including the seed."""

    params: ModelParams
    policy: PolicySpec
    horizon_frames: int
    seed: int
    lambda_schedule: tuple[tuple[int, float], ...] = ()
    window: int = 100
    skip_when_empty: bool = False
    max_slots: int | None = None

    def __post_init__(self) -> None:
        if self.horizon_frames < 1:
            raise ValueError("horizon_frames must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        last = 0
        for frame_index, new_lam in self.lambda_schedule:
            if frame_index <= last:
                raise ValueError("schedule frame indices must be strictly increasing")
            last = frame_index
            if not 0.0 <= new_lam < self.params.phi_nc:
                raise ValueError(
                    "unstable primary queue: scheduled lambda_pu=%g must be < phi(0)=%g"
                    % (new_lam, self.params.phi_nc)
                )

    @property
    def slot_cap(self) -> int:
        """Slots after which the episode stops, complete or not.

        The default is generous enough never to truncate a stable run, but
        halts the lambda_pu = 0 degenerate case where frames never complete.
        """
        if self.max_slots is not None:
            return self.max_slots
        return self.horizon_frames * 10_000 + 1_000_000


def build_policy(spec: PolicySpec, params: ModelParams):
    if spec.kind == "fbdpp":
        return FrameDriftPenaltyPolicy(params, spec.v)
    if spec.kind == "no_coop":
        return NoCoopPolicy(params)
    if spec.kind == "always_coop":
        return AlwaysCoopPolicy(params)
    if spec.kind == "counter":
        return CounterPolicy(params)
    return StationaryRandomPolicy(params, spec.coop_prob, spec.idle_tx_prob)


@dataclass
class RunMetrics:
    """Per-frame records plus cumulative statistics for one episode.

    Per-frame arrays cover completed frames only. ``q_su_end``/``x_su_end``
    are the values right after each frame's closing boundary, i.e. the
    weights the next frame starts from. Cumulative figures use completed
    frames when there are any, else the partial tail (a primary arrival rate
    of zero never completes a frame).
    """

    policy_label: str
    v: float | None
    seed: int
    window: int
    rng_name: str
    frame_len: np.ndarray
    admitted: np.ndarray
    served: np.ndarray
    power_idle: np.ndarray
    power_coop: np.ndarray
    q_su_end: np.ndarray
    x_su_end: np.ndarray
    idle_len: np.ndarray         # idle-run length of each frame
    q_sum: np.ndarray            # per-frame sum of the backlog over its slots
    max_q_su: int
    partial_slots: int = 0
    partial_admitted: int = 0
    partial_served: int = 0
    partial_power: float = 0.0
    partial_q_sum: int = 0

    @property
    def frames(self) -> int:
        return len(self.frame_len)

    @property
    def slots(self) -> int:
        return int(self.frame_len.sum())

    def _totals(self) -> tuple[int, float, float, float, float]:
        if self.frames > 0:
            return (
                self.slots,
                float(self.admitted.sum()),
                float(self.served.sum()),
                float(self.power_idle.sum() + self.power_coop.sum()),
                float(self.q_sum.sum()),
            )
        return (
            self.partial_slots,
            float(self.partial_admitted),
            float(self.partial_served),
            self.partial_power,
            float(self.partial_q_sum),
        )

    @property
    def throughput_admitted(self) -> float:
        slots, admitted, _, _, _ = self._totals()
        return admitted / max(slots, 1)

    @property
    def throughput_served(self) -> float:
        slots, _, served, _, _ = self._totals()
        return served / max(slots, 1)

    @property
    def avg_power(self) -> float:
        slots, _, _, power, _ = self._totals()
        return power / max(slots, 1)

    @property
    def avg_q_su(self) -> float:
        slots, _, _, _, q_sum = self._totals()
        return q_sum / max(slots, 1)

    def moving_average(self, series: str, window: int | None = None) -> np.ndarray:
        """Per-slot rate of ``series`` over a trailing window of frames.

        Series: ``coop_power``, ``idle_power``, ``throughput_admitted``,
        ``throughput_served``. Early frames use the available prefix.
        """
        arrays = {
            "coop_power": self.power_coop,
            "idle_power": self.power_idle,
            "throughput_admitted": self.admitted,
            "throughput_served": self.served,
        }
        if series not in arrays:
            raise ValueError(f"unknown series {series!r}")
        w = self.window if window is None else window
        num = np.concatenate([[0.0], np.cumsum(arrays[series], dtype=float)])
        den = np.concatenate([[0.0], np.cumsum(self.frame_len, dtype=float)])
        k = np.arange(1, self.frames + 1)
        lo = np.maximum(0, k - w)
        return (num[k] - num[lo]) / (den[k] - den[lo])


def run_episode(scenario: Scenario) -> RunMetrics:
    """Simulate ``horizon_frames`` complete frames and collect metrics.

    Stops early, returning the frames completed so far, once the scenario's
    ``slot_cap`` is reached. Raises RuntimeError if the backlog bound
    ``v + a_max`` (fbdpp) or the virtual-queue identity
    ``total power - p_avg * slots <= x_su`` is ever violated.
    """
    par = scenario.params
    spec = scenario.policy
    lam_pu = par.lambda_pu
    lam_su = par.lambda_su
    policy = build_policy(spec, par)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(scenario.seed)))
    v_bound = spec.v + par.a_max if spec.kind == "fbdpp" else None
    max_slots = scenario.slot_cap

    schedule = list(scenario.lambda_schedule)
    sched_i = 0

    frame_len: list[int] = []
    admitted_l: list[int] = []
    served_l: list[int] = []
    power_idle_l: list[float] = []
    power_coop_l: list[float] = []
    q_su_end_l: list[int] = []
    x_su_end_l: list[float] = []
    idle_len_l: list[int] = []
    q_sum_l: list[int] = []

    state = SystemState()
    max_q = 0
    seen_busy = False
    f_idle = 0
    f_adm = 0
    f_srv = 0
    f_pi = 0.0
    f_pc = 0.0
    f_qsum = 0
    frames_done = 0

    bi = _BLOCK  # the first slot draws the first block

    policy.begin_frame(state.q_su, state.x_su)
    while frames_done < scenario.horizon_frames and state.slot < max_slots:
        if bi == _BLOCK:
            block = rng.random((_BLOCK, 5))
            arrivals_block = arrival_counts(block[:, 0], par.a_max, lam_su).tolist()
            bi = 0
        row = block[bi]
        phase = state.phase
        idle = phase is Phase.PU_IDLE

        arrivals = arrivals_block[bi]
        power = policy.choose_power(phase, state.q_su, row[1])
        if idle and state.q_su == 0 and scenario.skip_when_empty:
            power = 0.0
        adm = policy.admit(state.q_su, arrivals)
        if idle:
            pu_success = False
            offered = 1 if row[3] < par.mu_su_of(power) else 0
            served = offered if state.q_su > 0 else 0
        else:
            pu_success = bool(row[2] < par.phi_of(power))
            offered = 0
            served = 0
        a_pu = 1 if row[4] < lam_pu else 0
        bi += 1

        f_qsum += state.q_su
        state.q_pu = step_pu_queue(state.q_pu, pu_success, a_pu)
        state.q_su = step_su_queue(state.q_su, offered, adm)
        state.slot += 1
        state.phase = Phase.PU_IDLE if state.q_pu == 0 else Phase.PU_BUSY
        if state.q_su > max_q:
            max_q = state.q_su
        if v_bound is not None and state.q_su > v_bound:
            raise RuntimeError(
                "backlog bound violated: q_su=%d > v + a_max=%g" % (state.q_su, v_bound)
            )
        policy.end_slot(power, phase)

        f_adm += adm
        f_srv += served
        if idle:
            f_idle += 1
            f_pi += power
        else:
            f_pc += power
            seen_busy = True

        if seen_busy and state.q_pu == 0:
            f_len = state.slot - state.frame_start_slot
            state.x_su = update_virtual_queue(
                state.x_su, f_len, f_pi + f_pc, par.p_avg
            )
            frame_len.append(f_len)
            admitted_l.append(f_adm)
            served_l.append(f_srv)
            power_idle_l.append(f_pi)
            power_coop_l.append(f_pc)
            q_su_end_l.append(state.q_su)
            x_su_end_l.append(state.x_su)
            idle_len_l.append(f_idle)
            q_sum_l.append(f_qsum)
            frames_done += 1
            while sched_i < len(schedule) and frames_done >= schedule[sched_i][0]:
                lam_pu = schedule[sched_i][1]
                sched_i += 1
            state.frame_start_slot = state.slot
            state.check()
            policy.begin_frame(state.q_su, state.x_su)
            seen_busy = False
            f_idle = f_adm = f_srv = f_qsum = 0
            f_pi = f_pc = 0.0

    metrics = RunMetrics(
        policy_label=spec.label(),
        v=spec.v,
        seed=scenario.seed,
        window=scenario.window,
        rng_name=RNG_NAME,
        frame_len=np.asarray(frame_len, dtype=np.int64),
        admitted=np.asarray(admitted_l, dtype=np.int64),
        served=np.asarray(served_l, dtype=np.int64),
        power_idle=np.asarray(power_idle_l, dtype=float),
        power_coop=np.asarray(power_coop_l, dtype=float),
        q_su_end=np.asarray(q_su_end_l, dtype=np.int64),
        x_su_end=np.asarray(x_su_end_l, dtype=float),
        idle_len=np.asarray(idle_len_l, dtype=np.int64),
        q_sum=np.asarray(q_sum_l, dtype=np.int64),
        max_q_su=max_q,
        partial_slots=state.slot - state.frame_start_slot,
        partial_admitted=f_adm,
        partial_served=f_srv,
        partial_power=f_pi + f_pc,
        partial_q_sum=f_qsum,
    )
    spent = float(metrics.power_idle.sum() + metrics.power_coop.sum())
    excess = spent - par.p_avg * metrics.slots
    if excess > state.x_su + 1e-9 * max(1.0, spent):
        raise RuntimeError(
            "virtual-queue identity violated: power excess %g > x_su=%g" % (excess, state.x_su)
        )
    return metrics


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-episode seed from (base seed, position)."""
    ss = np.random.SeedSequence([int(base_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def worker_count(n_tasks: int) -> int:
    raw = os.environ.get("COOPSIM_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValueError("COOPSIM_THREADS must be an integer") from exc
        if cap < 1:
            raise ValueError("COOPSIM_THREADS must be at least 1")
    return max(1, min(n_tasks, cap))


def sweep_v(
    scenario_template: Scenario, v_values: list[float]
) -> list[tuple[float, RunMetrics]]:
    """Independent episodes per v, seeded from (base seed, index)."""
    if not v_values:
        raise ValueError("v list must not be empty")
    scenarios = [
        replace(
            scenario_template,
            policy=replace(scenario_template.policy, v=float(v)),
            seed=derive_seed(scenario_template.seed, i),
        )
        for i, v in enumerate(v_values)
    ]
    workers = worker_count(len(scenarios))
    if workers == 1:
        results = [run_episode(s) for s in scenarios]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_episode, scenarios))
    return list(zip([float(v) for v in v_values], results))
