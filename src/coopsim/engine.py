"""Frame-scoped episode driver with frame detection and metric collection.

Each frame is an idle run of the primary queue followed by a busy run, and
the kernel runs it as two inner loops: the idle-run loop ends with the slot
of the frame's first primary arrival, the busy-run loop when the primary
queue empties, which closes the frame. Both also stop at the uniform block's
last row or at the slot cap, whichever comes first. An episode that reaches
the cap before its horizon is an error, so a returned episode is complete.
fbdpp's one hook, ``begin_frame(q_su, x_su)``, runs once per frame, at its
first slot, and returns the frame's ``(p0, p1)`` power pair; fbdpp is the one
kind an episode builds a policy for. The open-loop kinds (``no_coop``,
``always_coop``, ``counter``) gate every slot on the running spend, and the
kernel evaluates their budget gates itself, against its own slot index,
charging spend only when a gate opens. From ``baselines`` it reads only which
spend each kind's idle gate compares and whether its busy slots may spend;
their ``choose_power(idle)`` hooks are the per-slot statement of the gates
that the tests hold the kernel to. A slot's power is spent whether or not the
secondary queue has a packet. No policy draws randomness.
The engine does admission and both queue steps inline, and only a slot with
a secondary arrival runs the admission and backlog-bound code: fbdpp admits
while the backlog is at most v, held as the int ``floor(v)``, the others
under ``a_max * slot_cap``, which no backlog reaches. ``step_pu_queue``,
``step_su_queue`` and ``admit`` state the same slot helper by helper, as the
hooks state the gates; the tests hold the engine to them. One seeded
generator draws five uniforms per slot, 8192 slots at a time, so a rerun
reproduces every number bit for bit.
``_prepare`` turns each block once into a list of arrival counts and one
byte string per 0/1 outcome (primary success and secondary service per power
level), whose items index as the ints 0 and 1, and keeps column 4, which an
episode compares with its primary rate. An episode reads its blocks from a
block source. By default it draws a private one that keeps no block it has
passed, so a long episode holds one block at a time. ``BlockSource`` keeps
every prepared block it hands out, about 160 KiB per block on a two-point
set, for other episodes on the same seed and params: ``baselines`` runs its
four rows on one, so each block is drawn and prepared once per table (about
5.3 MiB for the rows of ``configs/reference.conf`` at their default
horizon). A sweep runs its episodes one after another in the calling
process, each on its own seed. The best stationary randomized policy is
simulated by ``oracle.simulate_stationary``.

Slot order: observe state, decide (power, admission), sample transmission
outcomes, sample arrivals, update queues. Departures precede arrivals. The
virtual power backlog is updated only at frame boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import AlwaysCoopPolicy, CounterPolicy, NoCoopPolicy
from .controller import FrameDriftPenaltyPolicy
from .model import ModelParams, UnstableChainError, update_virtual_queue
from .montecarlo import arrival_counts

RNG_NAME = "pcg64"
POLICY_KINDS = ("fbdpp", "no_coop", "always_coop", "counter")
_BLOCK = 8192
_BOUND_ERROR = "backlog bound violated: q_su=%d > admit cap + a_max=%g"
# RunMetrics' per-frame arrays, in the order run_episode records a frame.
_FRAME_ARRAYS = (
    ("frame_len", np.int64), ("admitted", np.int64), ("served", np.int64),
    ("power_idle", float), ("power_coop", float), ("q_su_end", np.int64),
    ("x_su_end", float), ("idle_len", np.int64), ("q_sum", np.int64),
)


@dataclass(frozen=True)
class PolicySpec:
    """Tagged policy selector: which controller, and its parameters."""

    kind: str
    v: float | None = None              # fbdpp only

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "fbdpp" and (self.v is None or not self.v > 0):
            raise ValueError("fbdpp needs a positive v")

    def label(self) -> str:
        if self.kind == "fbdpp":
            return f"fbdpp(v={self.v:g})"
        return self.kind


@dataclass(frozen=True)
class Scenario:
    """Everything one episode needs, including the seed."""

    params: ModelParams
    policy: PolicySpec
    horizon_frames: int
    seed: int
    lambda_schedule: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.horizon_frames < 1:
            raise ValueError("horizon_frames must be at least 1")
        last = 0
        for frame_index, new_lam in self.lambda_schedule:
            if frame_index < 1:
                raise ValueError("schedule frame indices must be at least 1")
            if frame_index <= last:
                raise ValueError("schedule frame indices must be strictly increasing")
            last = frame_index
            if new_lam >= self.params.phi_nc:
                raise UnstableChainError(
                    "unstable primary queue: scheduled lambda_pu=%g must be < phi(0)=%g"
                    % (new_lam, self.params.phi_nc)
                )
        # an idle run ends only at a primary arrival, so at rate 0 no frame ends,
        # nor at NaN, which no uniform is below
        for rate in [self.params.lambda_pu] + [lam for _, lam in self.lambda_schedule]:
            if not rate > 0.0:
                raise ValueError("lambda_pu must be above 0 in an episode, scheduled rates "
                                 "included: no frame ends at rate %g" % rate)

    @property
    def slot_cap(self) -> int:
        """Slots after which ``run_episode`` gives up on completing the horizon.

        Far above the expected length of any stable horizon: it allows
        10,000 slots per frame plus a million.
        """
        return self.horizon_frames * 10_000 + 1_000_000


_OPEN_LOOP = {"no_coop": NoCoopPolicy, "always_coop": AlwaysCoopPolicy, "counter": CounterPolicy}


def build_policy(spec: PolicySpec, params: ModelParams):
    if spec.kind == "fbdpp":
        return FrameDriftPenaltyPolicy(params)
    return _OPEN_LOOP[spec.kind](params)


@dataclass
class RunMetrics:
    """Per-frame records plus cumulative statistics for one episode.

    One row per frame of the horizon, every one of them complete.
    ``q_su_end``/``x_su_end`` are the values right after each frame's closing
    boundary, i.e. the weights the next frame starts from. Each rate is a
    sum over the frames divided by ``slots``.
    """

    policy_label: str
    v: float | None
    seed: int
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

    @property
    def frames(self) -> int:
        return len(self.frame_len)

    @property
    def slots(self) -> int:
        return int(self.frame_len.sum())

    def _per_slot(self, frames_total) -> float:
        """``frames_total``, a sum over the frames, per slot."""
        return float(frames_total) / self.slots

    @property
    def throughput_admitted(self) -> float:
        return self._per_slot(self.admitted.sum())

    @property
    def throughput_served(self) -> float:
        return self._per_slot(self.served.sum())

    @property
    def avg_power(self) -> float:
        return self._per_slot(self.power_idle.sum() + self.power_coop.sum())

    @property
    def avg_q_su(self) -> float:
        return self._per_slot(self.q_sum.sum())

    def moving_average(self, series: str, window: int) -> np.ndarray:
        """Per-slot rate of ``series`` over a trailing ``window`` of frames.

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
        if window < 1:
            raise ValueError("window must be at least 1")
        num = np.concatenate([[0.0], np.cumsum(arrays[series], dtype=float)])
        den = np.concatenate([[0.0], np.cumsum(self.frame_len, dtype=float)])
        k = np.arange(1, self.frames + 1)
        lo = np.maximum(0, k - window)
        return (num[k] - num[lo]) / (den[k] - den[lo])


def _prepare(block: np.ndarray, par: ModelParams) -> tuple:
    """A uniform block as the kernel reads it, and nothing else of it.

    Returns the arrival counts as a list, ``{p: bytes}`` of primary success
    and of secondary service per power level, and column 4 as its own array,
    which the primary's rate, switched by a schedule inside a block or not,
    is compared with. Column 1 is drawn and never read, so each seed keeps
    its stream.
    """
    levels = par.power_set.levels
    return (
        arrival_counts(block[:, 0], par.a_max, par.lambda_su).tolist(),
        {p: (block[:, 2] < par.phi[p]).tobytes() for p in levels},
        {p: (block[:, 3] < par.mu_su[p]).tobytes() for p in levels},
        block[:, 4].copy(),
    )


def _draw_blocks(par: ModelParams, seed: int):
    """``seed``'s prepared blocks in stream order, each drawn when asked for and kept by no one."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    while True:
        yield _prepare(rng.random((_BLOCK, 5)), par)


class BlockSource:
    """The prepared blocks of one seed and params, for episodes that share them.

    Each block is drawn and prepared once, by the first episode that reaches
    it, and kept for the others, so episodes of any policy kind and horizon
    read the blocks a private draw would give them. What is kept is what
    ``_prepare`` returns, about 160 KiB per 8192-slot block on a two-point
    set, not the raw block; a source holds every block any of its episodes
    has reached until it is dropped.
    """

    def __init__(self, params: ModelParams, seed: int) -> None:
        self.params = params
        self.seed = seed
        self._stream = _draw_blocks(params, seed)
        self._kept: list[tuple] = []

    def blocks(self):
        """The prepared blocks in stream order, from the first."""
        kept = self._kept
        k = 0
        while True:
            if k == len(kept):
                kept.append(next(self._stream))
            yield kept[k]
            k += 1


def run_episode(scenario: Scenario, source: BlockSource | None = None) -> RunMetrics:
    """Simulate ``horizon_frames`` complete frames and collect metrics.

    With no ``source`` the episode draws its own blocks and keeps none it
    has passed; with one, it reads that source's blocks, which must be for
    the scenario's seed and params (a ValueError otherwise). Either way the
    metrics are the same. The admission cap is an int: ``floor(v)`` for
    fbdpp, ``a_max * slot_cap`` (never reached) for the other kinds. Raises
    RuntimeError if the scenario's ``slot_cap`` is reached before the
    horizon completes, or if the backlog bound ``admit cap + a_max``, a
    non-negative virtual backlog at every boundary, or the virtual-queue
    identity ``total power - p_avg * slots <= x_su`` is ever violated.
    """
    par = scenario.params
    spec = scenario.policy
    lam_pu = par.lambda_pu
    p_avg, p_max, horizon = par.p_avg, par.p_max, scenario.horizon_frames
    # the open-loop kinds' budget gates run here, as the baselines' hooks state
    # them; the three flags are bools, so fbdpp's per-slot test is a truth test
    gates = _OPEN_LOOP.get(spec.kind)
    gated = gates is not None
    reserving = gated and gates.idle_reserve
    busy_gate = gated and gates.busy_spends
    # bound per episode, so a hook patched on its class still runs
    begin_frame = None if gated else build_policy(spec, par).begin_frame
    if source is None:
        blocks = _draw_blocks(par, scenario.seed)
    elif source.seed != scenario.seed or source.params != par:
        raise ValueError("a block source serves only the seed and params it was built for")
    else:
        blocks = source.blocks()
    slot_cap = scenario.slot_cap
    v = spec.v if spec.kind == "fbdpp" else math.inf
    admit_cap = math.floor(min(v, par.a_max * slot_cap))
    q_bound = admit_cap + par.a_max

    # (frames completed, new lambda_pu); frame counts start at 1, so 0 never switches
    switches = iter(scenario.lambda_schedule)
    next_switch, next_lam = next(switches, (0, lam_pu))

    frame_rows: list[tuple] = []   # one _FRAME_ARRAYS row per completed frame
    append_row = frame_rows.append
    q_pu = q_su = frame_start = max_q = frames = 0
    f_idle = f_adm = f_srv = f_qsum = 0     # running sums of the open frame
    x_su = f_pi = f_pc = 0.0
    # the gates' running spends; always_coop's idle gate adds busy_seen * p_max
    spend = idle_spent = reserve = 0.0
    busy_seen = 0
    # slot = base + bi; a block's rows stop at lim, which the slot cap may cut short
    base = bi = lim = 0

    p0 = p1 = 0.0
    if begin_frame is not None:
        p0, p1 = begin_frame(q_su, x_su)
    while True:
        if bi == lim:
            base += bi
            bi = 0
            if base >= slot_cap:
                raise RuntimeError("stopped at the slot cap of %d slots after %d of %d frames"
                                   % (slot_cap, frames, horizon))
            arrivals, success, service, pu_column = next(blocks)
            pu_arrival = (pu_column < lam_pu).tobytes()
            srv, suc = service[p0], success[p1]
            srv_0, srv_max = service[0.0], service[p_max]
            suc_0, suc_max = success[0.0], success[p_max]
            lim = min(_BLOCK, slot_cap - base)
        if not q_pu:
            # idle run: ends with the slot of the frame's first primary arrival
            while bi < lim:
                if gated:
                    # the slot index counts the slots before this one
                    if (reserve + idle_spent if reserving else spend) / (base + bi or 1) < p_avg:
                        p0, srv = p_max, srv_max
                        spend += p_max
                        idle_spent += p_max
                    else:
                        p0, srv = 0.0, srv_0
                f_pi += p0
                f_qsum += q_su
                # admission and service both read the backlog at the start of the slot
                adm = arrivals[bi]
                if adm and q_su > admit_cap:
                    adm = 0
                if q_su and srv[bi]:
                    q_su -= 1
                    f_srv += 1
                q_pu = pu_arrival[bi]
                bi += 1
                if adm:
                    q_su += adm
                    f_adm += adm
                    if q_su > max_q:
                        max_q = q_su
                        if q_su > q_bound:
                            raise RuntimeError(_BOUND_ERROR % (q_su, v + par.a_max))
                if q_pu:
                    f_idle = base + bi - frame_start
                    break
            continue
        # busy run: no secondary service, and it ends when the primary queue empties
        while q_pu and bi < lim:
            if busy_gate:
                if spend / (base + bi or 1) < p_avg:
                    p1, suc = p_max, suc_max
                    spend += p_max
                else:
                    p1, suc = 0.0, suc_0
            f_pc += p1
            f_qsum += q_su
            q_pu += pu_arrival[bi] - suc[bi]    # busy: no clamp at zero needed
            adm = arrivals[bi]
            bi += 1
            if adm and q_su <= admit_cap:
                q_su += adm
                f_adm += adm
                if q_su > max_q:
                    max_q = q_su
                    if q_su > q_bound:
                        raise RuntimeError(_BOUND_ERROR % (q_su, v + par.a_max))
        if q_pu:
            continue
        # the busy run just ended the frame
        f_len = base + bi - frame_start
        x_su = update_virtual_queue(x_su, f_len, f_pi + f_pc, p_avg)
        if not x_su >= 0.0:
            raise RuntimeError("virtual backlog went negative: x_su=%g" % x_su)
        append_row((f_len, f_adm, f_srv, f_pi, f_pc, q_su, x_su, f_idle, f_qsum))
        frames += 1
        if frames == horizon:
            break
        if frames == next_switch:
            lam_pu = next_lam
            pu_arrival = (pu_column < lam_pu).tobytes()
            next_switch, next_lam = next(switches, (0, lam_pu))
        frame_start += f_len
        if begin_frame is None:
            busy_seen += f_len - f_idle
            reserve = busy_seen * p_max
        else:
            p0, p1 = begin_frame(q_su, x_su)
            srv, suc = service[p0], success[p1]
        f_idle = f_adm = f_srv = f_qsum = 0
        f_pi = f_pc = 0.0

    columns = list(zip(*frame_rows))    # all at once: a lazy zip peaks 0.4 MiB higher
    arrays = {
        name: np.fromiter(col, dt, count=len(col))
        for (name, dt), col in zip(_FRAME_ARRAYS, columns)
    }
    metrics = RunMetrics(
        policy_label=spec.label(),
        v=spec.v,
        seed=scenario.seed,
        **arrays,
        max_q_su=max_q,
    )
    spent = float(metrics.power_idle.sum() + metrics.power_coop.sum())
    excess = spent - par.p_avg * metrics.slots
    if excess > x_su + 1e-9 * max(1.0, spent):
        raise RuntimeError(
            "virtual-queue identity violated: power excess %g > x_su=%g" % (excess, x_su)
        )
    return metrics


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-episode seed from (base seed, position)."""
    ss = np.random.SeedSequence([int(base_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


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
    return [(float(v), run_episode(s)) for v, s in zip(v_values, scenarios)]
