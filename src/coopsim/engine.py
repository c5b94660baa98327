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
charging spend only when a gate opens. ``_GATES`` holds each kind's row:
whether its idle gate reads the cooperation reserve in place of the spend,
and whether its busy slots may spend at all. A slot's power is spent
whether or not the secondary queue has a packet. No policy draws randomness.
The engine does admission and both queue steps inline, and only a slot with
a secondary arrival runs the admission and backlog-bound code: fbdpp admits
while the backlog is at most v, held as the int ``floor(v)``, the others
under ``a_max * slot_cap``, which no backlog reaches. A busy slot steps the
primary queue by one walk byte, ``arrival + 1 - success`` at the slot's
power, less 1. A busy slot never serves the secondary, so once fbdpp's
backlog is above its cap nothing but the primary can move until the next
idle slot: the busy run, or the block, finishes in a loop that only spends
``p1`` and steps the primary, and the backlog's sum over those slots is
added as one product. The tests hold the kernel to a one-slot spec,
``tests/spec.py``, that states the same slot, gates included, one helper at
a time. One seeded generator draws five uniforms per slot, 8192 slots at a
time, so a rerun reproduces every number bit for bit.
``_prepare`` turns each block once into a list of arrival counts, one byte
string of secondary service and one bool array of primary success per
power level, and column 4, which an episode compares with its primary rate.
For each block, and again at each rate switch, ``_walk`` joins that
comparison with the success arrays into the primary's arrival bytes and one
walk byte string per power level; success is read for nothing else. Byte
strings index as ints. An episode draws its own blocks and keeps none it
has passed, so a long episode holds one block at a time. ``run_episodes``
runs one scenario under several policies, one row after another, on one
draw of its seed: ``itertools.tee`` gives each row its own copy of the
stream, so each block is drawn and prepared once, by the first row that
reaches it, and kept, about 160 KiB per block on a two-point set, until
every row has passed it (CPython's ``tee`` frees its items 57 at a time).
``baselines`` runs its four rows so (about 5.3 MiB for the rows of
``configs/reference.conf`` at their default horizon).
A sweep runs its episodes one after another in the calling process, each
on its own seed. The best stationary randomized policy is
simulated by ``oracle.simulate_stationary``.

Slot order: observe state, decide (power, admission), sample transmission
outcomes, sample arrivals, update queues. Departures precede arrivals. The
virtual power backlog is updated only at frame boundaries.

At each frame's closing boundary the kernel packs the frame's record into
one 72-byte row, nine 8-byte fields in ``_FRAME_ARRAYS`` order, of a
buffer sized for the whole horizon up front; the size is exact, since an
episode returns ``horizon_frames`` frames or raises. The returned arrays
are copies of the buffer's fields, so an episode keeps no Python object per
frame and gives the cyclic garbage collector none of its records to scan.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .controller import FrameDriftPenaltyPolicy
from .model import ModelParams, UnstableChainError, update_virtual_queue
from .montecarlo import arrival_counts

RNG_NAME = "pcg64"
# each open-loop kind's budget gate: (idle gate reads the cooperation reserve,
# busy slots may spend). The reserve charges every busy slot seen at p_max.
_GATES = {
    "no_coop": (False, False),
    "always_coop": (True, True),
    "counter": (False, True),
}
POLICY_KINDS = ("fbdpp", *_GATES)
_BLOCK = 8192
_BOUND_ERROR = "backlog bound violated: q_su=%d > admit cap + a_max=%g"
# RunMetrics' per-frame arrays, in the order run_episode records a frame.
_FRAME_ARRAYS = (
    ("frame_len", np.int64), ("admitted", np.int64), ("served", np.int64),
    ("power_idle", float), ("power_coop", float), ("q_su_end", np.int64),
    ("x_su_end", float), ("idle_len", np.int64), ("q_sum", np.int64),
)
# one 72-byte row per frame: the same fields packed in that order, native byte order
_FRAME_DTYPE = np.dtype(list(_FRAME_ARRAYS))
_FRAME_ROW = struct.Struct(
    "=" + "".join({"i": "q", "f": "d"}[np.dtype(dt).kind] for _, dt in _FRAME_ARRAYS))


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


@dataclass
class RunMetrics:
    """Per-frame records plus cumulative statistics for one episode.

    One row per frame of the horizon, every one of them complete.
    ``q_su_end``/``x_su_end`` are the values right after each frame's closing
    boundary, i.e. the weights the next frame starts from. Each rate is a
    sum over the frames divided by ``slots``. Each per-frame array is a
    C-contiguous copy, owning its data, of one field of the episode's packed
    72-byte frame rows, with that field's ``_FRAME_ARRAYS`` dtype.
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

    def moving_average(self, window: int) -> np.ndarray:
        """Per-slot cooperation power over a trailing ``window`` of frames.

        Early frames use the available prefix.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        num = np.concatenate([[0.0], np.cumsum(self.power_coop, dtype=float)])
        den = np.concatenate([[0.0], np.cumsum(self.frame_len, dtype=float)])
        k = np.arange(1, self.frames + 1)
        lo = np.maximum(0, k - window)
        return (num[k] - num[lo]) / (den[k] - den[lo])


def _prepare(block: np.ndarray, par: ModelParams) -> tuple:
    """A uniform block as the kernel reads it, and nothing else of it.

    Returns the arrival counts as a list, ``{p: bool array}`` of primary
    success and ``{p: bytes}`` of secondary service per power level, and
    column 4 as its own array, which the primary's rate, switched by a
    schedule inside a block or not, is compared with. Success is read only
    by ``_walk``, which joins it with the primary's arrivals once a rate is
    known. Column 1 is drawn and never read, so each seed keeps its stream.
    """
    levels = par.power_set.levels
    return (
        arrival_counts(block[:, 0], par.a_max, par.lambda_su).tolist(),
        {p: block[:, 2] < par.phi[p] for p in levels},
        {p: (block[:, 3] < par.mu_su[p]).tobytes() for p in levels},
        block[:, 4].copy(),
    )


def _walk(pu_column: np.ndarray, lam_pu: float, success: dict) -> tuple:
    """The primary's arrival bytes at rate ``lam_pu``, and its busy-slot walk bytes.

    ``walk[p]`` is ``arrival + 1 - success[p]``, 0, 1 or 2, so a busy slot at
    power ``p`` steps the primary queue by ``walk[p][bi] - 1``.
    """
    arriving = pu_column < lam_pu
    lifted = arriving.view(np.uint8) + 1
    return arriving.tobytes(), {p: (lifted - ok).tobytes() for p, ok in success.items()}


def _draw_blocks(par: ModelParams, seed: int):
    """``seed``'s prepared blocks in stream order, each drawn when asked for and kept by no one."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    while True:
        yield _prepare(rng.random((_BLOCK, 5)), par)


def run_episode(scenario: Scenario, *, _blocks=None) -> RunMetrics:
    """Simulate ``horizon_frames`` complete frames and collect metrics.

    The episode draws its own blocks; ``run_episodes`` passes each row a
    copy of one draw of the same seed and params as ``_blocks`` instead,
    which gives the same metrics. The admission cap is an int: ``floor(v)``
    for fbdpp, ``a_max * slot_cap`` (never reached) for the other kinds.
    Raises RuntimeError if the horizon's frame records cannot be allocated,
    if the scenario's ``slot_cap`` is reached before the horizon completes,
    or if the backlog bound ``admit cap + a_max``, a non-negative virtual
    backlog at every boundary, or the virtual-queue identity
    ``total power - p_avg * slots <= x_su`` is ever violated.
    """
    par = scenario.params
    spec = scenario.policy
    lam_pu = par.lambda_pu
    p_avg, p_max, horizon = par.p_avg, par.p_max, scenario.horizon_frames
    # the open-loop kinds' budget gates run here, one _GATES row each; the three
    # flags are bools, so fbdpp's per-slot test is a truth test
    gated = spec.kind in _GATES
    reserving, busy_gate = _GATES.get(spec.kind, (False, False))
    # bound per episode, so a hook patched on its class still runs
    begin_frame = None if gated else FrameDriftPenaltyPolicy(par).begin_frame
    blocks = _draw_blocks(par, scenario.seed) if _blocks is None else _blocks
    slot_cap = scenario.slot_cap
    v = spec.v if spec.kind == "fbdpp" else math.inf
    admit_cap = math.floor(min(v, par.a_max * slot_cap))
    q_bound = admit_cap + par.a_max

    # (frames completed, new lambda_pu); frame counts start at 1, so 0 never switches
    switches = iter(scenario.lambda_schedule)
    next_switch, next_lam = next(switches, (0, lam_pu))

    # one _FRAME_ROW per frame: a returned episode has exactly `horizon` of them
    buffer_bytes = _FRAME_ROW.size * horizon
    try:
        rows = bytearray(buffer_bytes)
    except (MemoryError, OverflowError):    # OverflowError: above the largest index
        raise RuntimeError("a horizon of %d frames needs %d bytes of frame records, more "
                           "than can be allocated" % (horizon, buffer_bytes)) from None
    pack_row, row_size = _FRAME_ROW.pack_into, _FRAME_ROW.size
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
            pu_arrival, walk = _walk(pu_column, lam_pu, success)
            srv, wk = service[p0], walk[p1]
            srv_0, srv_max = service[0.0], service[p_max]
            wk_0, wk_max = walk[0.0], walk[p_max]
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
        # busy run: no secondary service, and it ends when the primary queue empties;
        # it admits only while the backlog is at most the admission cap
        if q_su <= admit_cap:
            while q_pu and bi < lim:
                if busy_gate:
                    if spend / (base + bi or 1) < p_avg:
                        p1, wk = p_max, wk_max
                        spend += p_max
                    else:
                        p1, wk = 0.0, wk_0
                f_pc += p1
                f_qsum += q_su
                q_pu += wk[bi] - 1      # busy: no clamp at zero needed
                adm = arrivals[bi]
                bi += 1
                if adm:
                    q_su += adm
                    f_adm += adm
                    if q_su > max_q:
                        max_q = q_su
                        if q_su > q_bound:
                            raise RuntimeError(_BOUND_ERROR % (q_su, v + par.a_max))
                    if q_su > admit_cap:
                        break
        if q_su > admit_cap:
            # above the cap no busy slot admits or serves, so only the primary
            # moves until the run or the block ends, and the backlog's sum over
            # those slots is one product. Only fbdpp gets here: the open-loop
            # kinds' cap, a_max * slot_cap, exceeds any backlog, so no gate runs.
            run_from = bi
            while q_pu and bi < lim:
                f_pc += p1
                q_pu += wk[bi] - 1
                bi += 1
            f_qsum += q_su * (bi - run_from)
        if q_pu:
            continue
        # the busy run just ended the frame
        f_len = base + bi - frame_start
        x_su = update_virtual_queue(x_su, f_len, f_pi + f_pc, p_avg)
        if not x_su >= 0.0:
            raise RuntimeError("virtual backlog went negative: x_su=%g" % x_su)
        pack_row(rows, frames * row_size, f_len, f_adm, f_srv, f_pi, f_pc, q_su, x_su,
                 f_idle, f_qsum)
        frames += 1
        if frames == horizon:
            break
        if frames == next_switch:
            lam_pu = next_lam
            pu_arrival, walk = _walk(pu_column, lam_pu, success)
            wk, wk_0, wk_max = walk[p1], walk[0.0], walk[p_max]
            next_switch, next_lam = next(switches, (0, lam_pu))
        frame_start += f_len
        if begin_frame is None:
            busy_seen += f_len - f_idle
            reserve = busy_seen * p_max
        else:
            p0, p1 = begin_frame(q_su, x_su)
            srv, wk = service[p0], walk[p1]
        f_idle = f_adm = f_srv = f_qsum = 0
        f_pi = f_pc = 0.0

    table = np.frombuffer(rows, _FRAME_DTYPE)
    arrays = {name: table[name].copy() for name, _ in _FRAME_ARRAYS}
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


def run_episodes(scenario: Scenario, policies: list[PolicySpec]):
    """``run_episode`` of ``scenario`` under each policy in turn, yielding each row as it returns.

    The rows read copies of one draw of the scenario's blocks, so each block
    is drawn and prepared once; a row runs only when the next one is asked
    for, so a caller that drops each row before asking for the next keeps one
    row's frame records at a time.
    """
    copies = itertools.tee(_draw_blocks(scenario.params, scenario.seed), len(policies))
    for policy, blocks in zip(policies, copies):
        yield run_episode(replace(scenario, policy=policy), _blocks=blocks)


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
