import gc
import math
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopsim import (
    BlockSource,
    FrameDriftPenaltyPolicy,
    ModelParams,
    PolicySpec,
    PowerSet,
    Scenario,
    UnstableChainError,
    arrival_counts,
    derive_seed,
    run_episode,
    sweep_v,
    update_virtual_queue,
)
from coopsim.analysis import frame_length_bounds

import spec as slot_spec
from spec import OPEN_LOOP, admit, budget_gate, step_pu_queue, step_su_queue

REF = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)
FBDPP = PolicySpec(kind="fbdpp", v=100.0)


def test_deterministic_replay():
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=300, seed=77)
    a = run_episode(sc)
    b = run_episode(sc)
    for name in ("frame_len", "admitted", "served", "power_idle", "power_coop",
                 "q_su_end", "x_su_end", "idle_len", "q_sum"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.max_q_su == b.max_q_su


def test_frame_structure():
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=400, seed=11)
    m = run_episode(sc)
    assert m.frames == 400
    # every frame has at least one idle and one busy slot
    assert np.all(m.idle_len >= 1)
    assert np.all(m.frame_len - m.idle_len >= 1)


def test_virtual_queue_recursion_consistency():
    # x_su_end must satisfy the boundary recursion given the frame records
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=500, seed=13)
    m = run_episode(sc)
    x = 0.0
    for k in range(m.frames):
        x = update_virtual_queue(
            x, int(m.frame_len[k]), float(m.power_idle[k] + m.power_coop[k]), REF.p_avg
        )
        assert m.x_su_end[k] == pytest.approx(x, abs=1e-12)


def test_queue_bound_holds_every_slot():
    for v in (5.0, 37.0, 200.0):
        sc = Scenario(params=REF, policy=PolicySpec(kind="fbdpp", v=v),
                      horizon_frames=800, seed=int(v))
        m = run_episode(sc)
        assert m.max_q_su <= v + REF.a_max


def test_frame_lengths_inside_analytic_bounds():
    t_min, t_max = frame_length_bounds(REF)
    for spec, seed in ((FBDPP, 3), (PolicySpec(kind="counter"), 4),
                       (PolicySpec(kind="no_coop"), 5)):
        m = run_episode(Scenario(params=REF, policy=spec, horizon_frames=3000, seed=seed))
        mean = m.frame_len.mean()
        se = m.frame_len.std(ddof=1) / np.sqrt(m.frames)
        assert t_min - 3 * se <= mean <= t_max + 3 * se


def test_power_excess_equals_virtual_queue_residual():
    # Budget accounting: over K frames, spend - budget <= final backlog
    # (clamps only forgive), so the transient overshoot is X_K / slots.
    sc = Scenario(params=REF, policy=PolicySpec(kind="fbdpp", v=500.0),
                  horizon_frames=1000, seed=2)
    m = run_episode(sc)
    x_end = float(m.x_su_end[-1])
    total_power = float(m.power_idle.sum() + m.power_coop.sum())
    assert total_power <= REF.p_avg * m.slots + x_end + 1e-9
    assert m.avg_power <= REF.p_avg + x_end / m.slots + 1e-12


def test_small_v_power_within_budget_at_horizon():
    for v in (10.0, 50.0, 100.0):
        sc = Scenario(params=REF, policy=PolicySpec(kind="fbdpp", v=v),
                      horizon_frames=1000, seed=9)
        m = run_episode(sc)
        assert m.avg_power <= REF.p_avg + 0.01


def test_degenerate_quiet_primary():
    # lambda_pu = 0: one endless idle run, so no frame would ever end; the
    # model allows the rate, an episode refuses it, scheduled or not
    quiet = ModelParams.two_point(0.0, 0.5, 0.6, 0.8, 0.5)
    for params, schedule in ((quiet, ()), (REF, ((3, 0.0),)), (REF, ((3, 0.3), (9, -0.1)))):
        with pytest.raises(ValueError, match="lambda_pu must be above 0") as exc:
            Scenario(params=params, policy=PolicySpec(kind="no_coop"), horizon_frames=10,
                     seed=33, lambda_schedule=schedule)
        assert not isinstance(exc.value, UnstableChainError)


def test_schedule_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Scenario(params=REF, policy=FBDPP, horizon_frames=10, seed=1,
                 lambda_schedule=((5, 0.3), (5, 0.2)))
    with pytest.raises(UnstableChainError, match="unstable"):
        Scenario(params=REF, policy=FBDPP, horizon_frames=10, seed=1,
                 lambda_schedule=((5, 0.7),))
    # NaN is below no uniform, so no frame would end; it is neither >= phi(0) nor <= 0
    for schedule in (((3, math.nan),), ((3, 0.3), (9, math.nan), (12, 0.4))):
        with pytest.raises(ValueError, match="no frame ends at rate nan") as exc:
            Scenario(params=REF, policy=FBDPP, horizon_frames=10, seed=1,
                     lambda_schedule=schedule)
        assert not isinstance(exc.value, UnstableChainError)


def test_schedule_switches_at_boundaries():
    # dropping the arrival rate after frame 50 lengthens idle runs
    sc = Scenario(params=REF, policy=PolicySpec(kind="no_coop"),
                  horizon_frames=400, seed=17, lambda_schedule=((50, 0.1),))
    m = run_episode(sc)
    early = m.idle_len[:50].mean()
    late = m.idle_len[100:].mean()
    assert early == pytest.approx(2.0, abs=0.5)    # geometric mean 1/0.5
    assert late == pytest.approx(10.0, abs=1.5)    # geometric mean 1/0.1
    # a schedule switch to the current rate leaves the episode unchanged
    sc2 = Scenario(params=REF, policy=FBDPP, horizon_frames=50, seed=18)
    same = Scenario(params=REF, policy=FBDPP, horizon_frames=50, seed=18,
                    lambda_schedule=((10, REF.lambda_pu),))
    assert np.array_equal(run_episode(same).frame_len, run_episode(sc2).frame_len)


def test_virtual_queue_identity_checked_every_episode(monkeypatch):
    # a virtual-queue update that forgets the frame's spend must not pass
    import coopsim.engine as engine

    monkeypatch.setattr(engine, "update_virtual_queue", lambda x, n, spent, p_avg: 0.0)
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=200, seed=3)
    with pytest.raises(RuntimeError, match="virtual-queue identity"):
        run_episode(sc)


def test_moving_average_prefix_and_window():
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=250, seed=19)
    m = run_episode(sc)
    ma = m.moving_average("coop_power", 100)
    assert len(ma) == 250
    # first point is the frame's own rate
    assert ma[0] == pytest.approx(m.power_coop[0] / m.frame_len[0])
    # k-th point averages the trailing window
    k = 179
    lo = k - 99
    expect = m.power_coop[lo : k + 1].sum() / m.frame_len[lo : k + 1].sum()
    assert ma[k] == pytest.approx(expect)
    with pytest.raises(ValueError):
        m.moving_average("nope", 100)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="window"):
            m.moving_average("coop_power", window=bad)


def test_sweep_seeds_and_ordering():
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=60, seed=123)
    out = sweep_v(sc, [10, 500, 50])
    assert [v for v, _ in out] == [10.0, 500.0, 50.0]
    for i, (v, m) in enumerate(out):
        assert m.seed == derive_seed(123, i)
        assert m.v == v
    # single v equals a direct episode with the derived seed
    single = sweep_v(sc, [10])[0][1]
    direct = run_episode(
        Scenario(params=REF, policy=PolicySpec(kind="fbdpp", v=10.0),
                 horizon_frames=60, seed=derive_seed(123, 0))
    )
    assert np.array_equal(single.frame_len, direct.frame_len)
    assert single.throughput_admitted == direct.throughput_admitted


@pytest.mark.parametrize("spec", [
    FBDPP,
    PolicySpec(kind="no_coop"),
    PolicySpec(kind="always_coop"),
    PolicySpec(kind="counter"),
])
def test_one_policy_call_per_slot(monkeypatch, spec):
    # fbdpp's one hook, begin_frame, runs once per frame, and every slot of the
    # frame spends the pair it returns; the open-loop kinds' budget gates run
    # in the kernel, so their episodes build no policy
    import coopsim.engine as engine

    built, pairs = [], []

    class Recording(FrameDriftPenaltyPolicy):
        def __init__(self, params):
            super().__init__(params)
            built.append(self)

        def begin_frame(self, q_su, x_su):
            pairs.append(super().begin_frame(q_su, x_su))
            return pairs[-1]

    monkeypatch.setattr(engine, "FrameDriftPenaltyPolicy", Recording)
    m = run_episode(Scenario(params=REF, policy=spec, horizon_frames=300, seed=9))
    if spec.kind == "fbdpp":
        [policy] = built
        assert not hasattr(policy, "choose_power")
        assert len(pairs) == m.frames == 300
        assert len(set(pairs)) > 1          # the powers do change between frames
        busy_len = m.frame_len - m.idle_len
        for k, (p0, p1) in enumerate(pairs):
            assert m.power_idle[k] == m.idle_len[k] * p0
            assert m.power_coop[k] == busy_len[k] * p1
    else:
        assert built == []


FRAME_FIELDS = ("frame_len", "admitted", "served", "power_idle", "power_coop", "q_su_end",
                "x_su_end", "idle_len", "q_sum")
GRID = ModelParams(
    lambda_pu=0.5, lambda_su=0.4, a_max=1,
    phi={0.0: 0.6, 0.5: 0.72, 1.0: 0.8}, mu_su={0.0: 0.0, 0.5: 0.7, 1.0: 1.0},
    p_avg=0.5, power_set=PowerSet.make_grid([0, 0.5, 1]),
)
A_MAX_3 = ModelParams.two_point(0.4, 1.2, 0.6, 0.8, 0.45, a_max=3)
KINDS = (
    PolicySpec(kind="fbdpp", v=40.0),
    PolicySpec(kind="no_coop"),
    PolicySpec(kind="always_coop"),
    PolicySpec(kind="counter"),
)


def _reference_episode(scenario):
    """The one-slot spec, stepped slot by slot with the helpers of ``spec``.

    Five uniforms per slot, in blocks of 8192 rows, used as run_episode uses
    them: arrivals, primary success, secondary service, primary arrival.
    Column 1 is drawn but not read. fbdpp's pair is returned by
    ``begin_frame`` at every boundary and read in every slot; the other kinds
    make one ``choose_power`` call per slot on their ``spec.OPEN_LOOP`` gate.
    Stepping stops at the horizon or at the scenario's slot cap, and
    ``slots`` says where. ``above_cap`` lists the busy slots that start with
    the backlog above the admission cap, and ``lifts`` maps each busy slot
    whose admission lifts it there to the new backlog.
    """
    par, spec = scenario.params, scenario.policy
    fbdpp = spec.kind == "fbdpp"
    policy = FrameDriftPenaltyPolicy(par) if fbdpp else OPEN_LOOP[spec.kind](par)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(scenario.seed)))
    admit_cap = spec.v if fbdpp else np.inf
    lam_pu = par.lambda_pu
    switches = dict(scenario.lambda_schedule)
    rows = []
    q_pu = q_su = slot = frame_start = max_q = 0
    x_su = 0.0
    f_idle = f_adm = f_srv = f_qsum = 0
    f_pi = f_pc = 0.0
    seen_busy = False
    bi = 8192
    blocks = 0
    above_cap, lifts = [], {}
    if fbdpp:
        p0, p1 = policy.begin_frame(q_su, x_su)
    while len(rows) < scenario.horizon_frames and slot < scenario.slot_cap:
        if bi == 8192:
            block = rng.random((8192, 5))
            arrivals = arrival_counts(block[:, 0], par.a_max, par.lambda_su)
            blocks += 1
            bi = 0
        u = block[bi]
        bi += 1
        idle = q_pu == 0
        if fbdpp:
            power = p0 if idle else p1
        else:
            power = policy.choose_power(idle)
        adm = admit(q_su, int(arrivals[bi - 1]), admit_cap)
        if not idle and q_su > admit_cap:
            above_cap.append(slot)
        elif not idle and q_su + adm > admit_cap:
            lifts[slot] = q_su + adm
        pu_success = not idle and bool(u[2] < par.phi[power])
        offered = 1 if idle and u[3] < par.mu_su[power] else 0
        served = offered if q_su > 0 else 0
        f_qsum += q_su
        q_pu = step_pu_queue(q_pu, pu_success, 1 if u[4] < lam_pu else 0)
        q_su = step_su_queue(q_su, offered, adm)
        slot += 1
        max_q = max(max_q, q_su)
        f_adm += adm
        f_srv += served
        if idle:
            f_idle += 1
            f_pi += power
        else:
            f_pc += power
            seen_busy = True
        if seen_busy and q_pu == 0:
            x_su = update_virtual_queue(x_su, slot - frame_start, f_pi + f_pc, par.p_avg)
            rows.append((slot - frame_start, f_adm, f_srv, f_pi, f_pc, q_su, x_su, f_idle,
                         f_qsum))
            lam_pu = switches.get(len(rows), lam_pu)
            frame_start = slot
            if fbdpp:
                p0, p1 = policy.begin_frame(q_su, x_su)
            seen_busy = False
            f_idle = f_adm = f_srv = f_qsum = 0
            f_pi = f_pc = 0.0
    columns = list(zip(*rows)) or [()] * 9
    ints, floats = np.int64, np.float64
    dtypes = (ints, ints, ints, floats, floats, ints, floats, ints, ints)
    out = {name: np.asarray(col, dtype=dt)
           for name, col, dt in zip(FRAME_FIELDS, columns, dtypes)}
    out.update(max_q_su=max_q, slots=slot, blocks=blocks,
               above_cap=np.array(above_cap, dtype=np.int64), lifts=lifts)
    return out


def _assert_same_metrics(m, ref):
    for name in FRAME_FIELDS:
        got = getattr(m, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    assert m.max_q_su == ref["max_q_su"]
    assert m.slots == ref["slots"]


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
@pytest.mark.parametrize("params", [REF, A_MAX_3, GRID], ids=["two_point", "a_max_3", "grid"])
def test_kernel_matches_one_slot_spec(params, spec):
    # the rate switches away and back, each in the middle of a uniform block
    schedule = ((700, 0.3), (1500, params.lambda_pu))
    sc = Scenario(params=params, policy=spec, horizon_frames=2000, seed=5,
                  lambda_schedule=schedule)
    ref = _reference_episode(sc)
    assert ref["frame_len"].sum() > 8192             # crosses a block boundary
    for frame_index, _ in schedule:
        assert ref["frame_len"][:frame_index].sum() % 8192 != 0
    _assert_same_metrics(run_episode(sc), ref)


# p_max = 0.7 makes every spend sum round, and p_avg = 1/3 lets a gate meet
# spend / slots == p_avg exactly; at lambda_pu = 0.2 and 0.3 no_coop's idle
# spend exceeds the budget, so every open-loop gate binds
ROUNDING = ModelParams.two_point(0.2, 0.5, 0.6, 0.8, 1 / 3, p_max=0.7)


def _count_gate_ties(monkeypatch):
    """Counts of the spec's gates read at spend / slots == p_avg exactly, by ``idle``."""
    ties = {True: 0, False: 0}
    idle_now = [None]

    def counted_gate(spend, slots, p_avg, p_max):
        if spend / max(slots, 1) == p_avg:
            ties[idle_now[0]] += 1
        return budget_gate(spend, slots, p_avg, p_max)

    for cls in OPEN_LOOP.values():
        def counted(self, idle, _choose=cls.choose_power):
            idle_now[0] = idle
            return _choose(self, idle)

        monkeypatch.setattr(cls, "choose_power", counted)
    monkeypatch.setattr(slot_spec, "budget_gate", counted_gate)
    return ties


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
def test_kernel_matches_one_slot_spec_at_a_rounding_p_max(monkeypatch, spec):
    # the kernel's gates against the spec's where the reserve's terms, the
    # strict comparison, the slot count and when spend is charged all show
    ties = _count_gate_ties(monkeypatch)
    schedule = ((700, 0.3), (1500, ROUNDING.lambda_pu))
    for seed in (3, 7):
        sc = Scenario(params=ROUNDING, policy=spec, horizon_frames=2000, seed=seed,
                      lambda_schedule=schedule)
        ref = _reference_episode(sc)
        assert ref["frame_len"].sum() > 8192             # crosses a block boundary
        for frame_index, _ in schedule:
            assert ref["frame_len"][:frame_index].sum() % 8192 != 0
        _assert_same_metrics(run_episode(sc), ref)
    # every open-loop kind meets a tie in an idle slot, and counter at seed 7
    # in a busy one, the one busy-slot tie of these runs
    if spec.kind != "fbdpp":
        assert ties[True] >= 1
    if spec.kind == "counter":
        assert ties[False] >= 1


@pytest.mark.parametrize("switch", [False, True], ids=["steady", "switch"])
@pytest.mark.parametrize("params", [REF, GRID], ids=["two_point", "grid"])
@pytest.mark.parametrize("v", [7.5, 0.5, math.inf])
def test_kernel_matches_one_slot_spec_at_fractional_and_infinite_v(v, params, switch):
    # the kernel admits against the int floor(v), the spec against the float v
    schedule = ((700, 0.3), (1500, params.lambda_pu)) if switch else ()
    sc = Scenario(params=params, policy=PolicySpec(kind="fbdpp", v=v), horizon_frames=2000,
                  seed=21, lambda_schedule=schedule)
    ref = _reference_episode(sc)
    for frame_index, _ in schedule:
        assert ref["frame_len"][:frame_index].sum() % 8192 != 0
    m = run_episode(sc)
    _assert_same_metrics(m, ref)
    assert m.frames == sc.horizon_frames        # v = inf runs to completion too
    if v < math.inf:     # the cap binds: the backlog reaches floor(v) + a_max
        assert m.max_q_su == math.floor(v) + params.a_max


@pytest.mark.parametrize("v", [math.nan, 0.0, -1.0, -math.inf, None])
def test_fbdpp_refuses_a_v_that_is_not_positive(v):
    # NaN is not positive either: it must not reach the kernel's floor(v)
    with pytest.raises(ValueError, match="fbdpp needs a positive v"):
        PolicySpec(kind="fbdpp", v=v)


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
def test_kernel_matches_one_slot_spec_quiet_primary(spec):
    # a primary that rarely arrives: idle runs of hundreds of slots cross blocks
    quiet = ModelParams.two_point(0.001, 0.5, 0.6, 0.8, 0.5)
    sc = Scenario(params=quiet, policy=spec, horizon_frames=40, seed=33)
    ref = _reference_episode(sc)
    starts = np.cumsum(ref["frame_len"]) - ref["frame_len"]
    idle_ends = starts + ref["idle_len"] - 1
    assert np.count_nonzero(starts // 8192 != idle_ends // 8192) >= 3
    _assert_same_metrics(run_episode(sc), ref)


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
def test_kernel_matches_one_slot_spec_switch_after_frames_one_two_and_horizon(spec):
    # the rate switches after the first frame, after the second, and at the horizon
    horizon = 300
    schedule = ((1, 0.3), (2, 0.45), (horizon, 0.2))
    sc = Scenario(params=REF, policy=spec, horizon_frames=horizon, seed=13,
                  lambda_schedule=schedule)
    m = run_episode(sc)
    _assert_same_metrics(m, _reference_episode(sc))
    # no slot runs at the rate a switch at the horizon sets
    _assert_same_metrics(m, _reference_episode(replace(sc, lambda_schedule=schedule[:2])))


def _count_blocks(monkeypatch):
    """A one-item list counting the uniform blocks run_episode turns into outcomes."""
    import coopsim.engine as engine

    blocks = [0]

    def counted(*args):
        blocks[0] += 1
        return arrival_counts(*args)

    monkeypatch.setattr(engine, "arrival_counts", counted)
    return blocks


def _assert_fails_at_the_cap(monkeypatch, scenario, cap):
    """The spec stepped to ``cap``, where run_episode fails without drawing another block."""
    monkeypatch.setattr(Scenario, "slot_cap", property(lambda self: cap))
    ref = _reference_episode(scenario)
    done, horizon = ref["frame_len"].size, scenario.horizon_frames
    assert ref["slots"] == cap and done < horizon
    blocks = _count_blocks(monkeypatch)
    with pytest.raises(RuntimeError) as exc:
        run_episode(scenario)
    assert str(exc.value) == (
        f"stopped at the slot cap of {cap} slots after {done} of {horizon} frames")
    assert blocks[0] == ref["blocks"]
    return ref


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
@pytest.mark.parametrize("cap", [8192, 16384])
def test_kernel_matches_one_slot_spec_cap_at_block_end(monkeypatch, spec, cap):
    # the cap is the last row of a block: the episode fails without drawing the next one
    sc = Scenario(params=REF, policy=spec, horizon_frames=5000, seed=9)
    ref = _assert_fails_at_the_cap(monkeypatch, sc, cap)
    assert ref["blocks"] == cap // 8192


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
@pytest.mark.parametrize("phase", ["idle", "busy"])
def test_kernel_matches_one_slot_spec_cap_inside_a_run(monkeypatch, spec, phase):
    # the cap lands after the first slot of a run of two or more, in the second block
    sc = Scenario(params=REF, policy=spec, horizon_frames=3000, seed=21)
    full = _reference_episode(sc)
    starts = np.cumsum(full["frame_len"]) - full["frame_len"]
    idle_len = full["idle_len"]
    run_len = idle_len if phase == "idle" else full["frame_len"] - idle_len
    k = next(k for k in range(full["frame_len"].size) if starts[k] > 8192 and run_len[k] >= 2)
    done = 1 if phase == "idle" else int(idle_len[k]) + 1     # slots of frame k in the cap
    ref = _assert_fails_at_the_cap(monkeypatch, sc, int(starts[k]) + done)
    assert ref["frame_len"].size == k
    assert ref["blocks"] == 2


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
@pytest.mark.parametrize("params", [REF, GRID], ids=["two_point", "grid"])
def test_kernel_matches_one_slot_spec_busy_run_ends_a_block(monkeypatch, params, spec):
    # a frame's busy run ends on a block's last row, and the rate switches at that frame
    for seed in range(200):
        probe = run_episode(Scenario(params=params, policy=spec, horizon_frames=3000, seed=seed))
        ends = np.flatnonzero(np.cumsum(probe.frame_len) % 8192 == 0)
        if ends.size:
            break
    switch = int(ends[0]) + 1       # frames completed when the block ends
    sc = Scenario(params=params, policy=spec, horizon_frames=switch + 500, seed=seed,
                  lambda_schedule=((switch, 0.3),))
    ref = _reference_episode(sc)
    assert ref["frame_len"][:switch].sum() % 8192 == 0
    blocks = _count_blocks(monkeypatch)
    _assert_same_metrics(run_episode(sc), ref)
    assert blocks[0] == ref["blocks"]


# fbdpp at v = 4 starts two thirds or more of its busy slots above the admission
# cap, where the kernel moves only the primary queue; the open-loop kinds' cap is
# never reached, so they run the same scenarios on the full loops
CAPPED = PolicySpec(kind="fbdpp", v=4.0)
CAPPED_KINDS = (CAPPED,) + KINDS[1:]


def _above_cap_reference(scenario):
    """The spec's episode, and the set of busy slots that start above fbdpp's cap.

    Asserts that the open-loop kinds have none.
    """
    ref = _reference_episode(scenario)
    above = set(ref["above_cap"].tolist())
    if scenario.policy.kind != "fbdpp":
        assert not above and not ref["lifts"]
    return ref, above


@pytest.mark.parametrize("spec", CAPPED_KINDS, ids=lambda s: s.kind)
@pytest.mark.parametrize("params", [REF, GRID], ids=["two_point", "grid"])
def test_kernel_matches_one_slot_spec_above_cap_busy_run_crosses_a_block(params, spec):
    # an above-cap busy run spans the first block boundary: the backlog sum of
    # its slots in the first block is added before the next block is read
    sc = Scenario(params=params, policy=spec, horizon_frames=1500, seed=1)
    ref, above = _above_cap_reference(sc)
    if spec.kind == "fbdpp":
        assert {8190, 8191, 8192, 8193} <= above
    _assert_same_metrics(run_episode(sc), ref)


@pytest.mark.parametrize("spec", CAPPED_KINDS, ids=lambda s: s.kind)
def test_kernel_matches_one_slot_spec_cap_inside_an_above_cap_busy_run(monkeypatch, spec):
    # the slot cap lands in the second block, after two slots of an above-cap
    # busy run and before the rest of it
    _, above = _above_cap_reference(
        Scenario(params=REF, policy=CAPPED, horizon_frames=1500, seed=0))
    cap = min(t for t in above if t > 8192 and {t - 2, t - 1} <= above)
    sc = Scenario(params=REF, policy=spec, horizon_frames=1500, seed=0)
    ref = _assert_fails_at_the_cap(monkeypatch, sc, cap)
    assert ref["blocks"] == 2


@pytest.mark.parametrize("spec", (PolicySpec(kind="fbdpp", v=5.0),) + KINDS[1:],
                         ids=lambda s: s.kind)
def test_kernel_matches_one_slot_spec_a_max_3_admission_overshoots_the_cap(spec):
    # with up to three arrivals a slot, a busy-slot admission lifts the backlog
    # from the cap of 5 to 7, and the run goes on above the cap
    sc = Scenario(params=A_MAX_3, policy=spec, horizon_frames=1500, seed=0)
    ref, above = _above_cap_reference(sc)
    if spec.kind == "fbdpp":
        assert any(q == 7 and {t + 1, t + 2} <= above for t, q in ref["lifts"].items())
        assert ref["max_q_su"] == 5 + A_MAX_3.a_max
    _assert_same_metrics(run_episode(sc), ref)


@pytest.mark.parametrize("spec", CAPPED_KINDS, ids=lambda s: s.kind)
@pytest.mark.parametrize("params, seed, switch", [(REF, 1, 703), (GRID, 5, 705)],
                         ids=["two_point", "grid"])
def test_kernel_matches_one_slot_spec_switch_then_above_cap_busy_run(params, seed, switch, spec):
    # the rate switches inside a block, and the first busy run at the new rate
    # starts above fbdpp's cap: the walk bytes are rebuilt for the new rate
    schedule = ((switch, 0.3), (1200, params.lambda_pu))
    sc = Scenario(params=params, policy=spec, horizon_frames=1500, seed=seed,
                  lambda_schedule=schedule)
    ref, above = _above_cap_reference(sc)
    for frame_index, _ in schedule:
        assert ref["frame_len"][:frame_index].sum() % 8192 != 0
    if spec.kind == "fbdpp":
        first_busy = int(ref["frame_len"][:switch].sum() + ref["idle_len"][switch])
        assert {first_busy, first_busy + 1} <= above
    _assert_same_metrics(run_episode(sc), ref)


@st.composite
def _small_scenarios(draw):
    """A short episode of any kind on a random two-point or 3-level model.

    fbdpp's v runs from 1 to 60, so its admission cap binds wherever the
    secondary arrives faster than it is served.
    """
    levels = draw(st.sampled_from([(0.0, 1.0), (0.0, 0.7), (0.0, 0.5, 1.0)]))
    p_max, a_max = levels[-1], draw(st.integers(1, 3))
    phi = sorted(draw(st.lists(st.floats(0.3, 1.0), min_size=len(levels),
                               max_size=len(levels))))
    lam_pu = st.floats(0.05, phi[0] - 0.05)
    params = ModelParams(
        lambda_pu=draw(lam_pu), lambda_su=draw(st.floats(0.0, float(a_max))), a_max=a_max,
        phi=dict(zip(levels, phi)),
        mu_su={p: draw(st.floats(0.0, 1.0)) for p in levels},
        p_avg=draw(st.floats(0.05, 1.0)) * p_max,
        power_set=(PowerSet.make_two_point(p_max) if len(levels) == 2
                   else PowerSet.make_grid(levels)),
    )
    kind = draw(st.sampled_from([spec.kind for spec in KINDS]))
    spec = PolicySpec(kind=kind, v=draw(st.floats(1.0, 60.0)) if kind == "fbdpp" else None)
    horizon = draw(st.integers(1, 120))
    frames = draw(st.lists(st.integers(1, horizon), max_size=2, unique=True))
    schedule = tuple((k, draw(lam_pu)) for k in sorted(frames))
    return Scenario(params=params, policy=spec, horizon_frames=horizon,
                    seed=draw(st.integers(0, 2**32 - 1)), lambda_schedule=schedule)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sc=_small_scenarios())
def test_kernel_matches_one_slot_spec_on_random_small_scenarios(sc):
    _assert_same_metrics(run_episode(sc), _reference_episode(sc))


def _outcome(scenario, source=None):
    """``run_episode``'s metrics, or the text of the RuntimeError it raised."""
    try:
        return run_episode(scenario, source)
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("case", ["steady", "switch", "cap"])
@pytest.mark.parametrize("params", [REF, GRID], ids=["two_point", "grid"])
def test_table_on_one_shared_source_equals_separate_episodes(monkeypatch, params, case):
    # the rows read one source in turn, each from the first block, as cmd_baselines runs them
    schedule = ((700, 0.3),) if case == "switch" else ()
    if case == "cap":       # inside the second block: some rows stop there, some complete
        monkeypatch.setattr(Scenario, "slot_cap", property(lambda self: 15_000))
    rows = [Scenario(params=params, policy=spec, horizon_frames=2000, seed=5,
                     lambda_schedule=schedule) for spec in KINDS]
    blocks = _count_blocks(monkeypatch)
    separate = []
    for sc in rows:
        blocks[0] = 0
        separate.append((_outcome(sc), blocks[0]))
    blocks[0] = 0
    source = BlockSource(params, 5)
    shared = [_outcome(sc, source) for sc in rows]
    # each block is turned into outcomes once per table, not once per row
    assert blocks[0] == max(n for _, n in separate) >= 2
    for got, (want, _) in zip(shared, separate):
        if isinstance(want, str):
            assert got == want
            continue
        for name in FRAME_FIELDS:
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.max_q_su == want.max_q_su
        if case == "switch":    # the switch lands inside a block an earlier row prepared
            assert want.frame_len[:700].sum() % 8192 != 0
    stopped = [isinstance(want, str) for want, _ in separate]
    assert any(stopped) == (case == "cap")
    assert not all(stopped)


def test_run_episode_refuses_a_source_for_another_seed_or_params(monkeypatch):
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=20, seed=3)
    blocks = _count_blocks(monkeypatch)
    for source in (BlockSource(REF, 4), BlockSource(GRID, 3),
                   BlockSource(replace(REF, lambda_su=0.4), 3)):
        with pytest.raises(ValueError, match="a block source serves only the seed and params"):
            run_episode(sc, source)
    assert blocks[0] == 0       # refused before a block is drawn
    # equal params built apart are the same params
    twin = BlockSource(ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5), 3)
    _assert_same_metrics(run_episode(sc, twin), _reference_episode(sc))


def test_baselines_draws_each_block_once_per_table(monkeypatch, capsys):
    import coopsim.cli as cli

    blocks = _count_blocks(monkeypatch)
    config = Path(__file__).resolve().parents[1] / "configs" / "reference.conf"
    assert cli.main(["baselines", "--config", str(config), "--frames", "1500"]) == 0
    slots = [int(line.split()[-1]) for line in capsys.readouterr().out.splitlines()[1:5]]
    # the longest row draws every block the table reads; the others draw none
    assert blocks[0] == -(-max(slots) // 8192) < sum(-(-n // 8192) for n in slots)


def test_baselines_keeps_no_finished_row_alive(monkeypatch, capsys):
    # each row becomes its table line as its episode returns, so while a row
    # runs no earlier row's per-frame records are alive; the collector is off,
    # so only dropped references can free them
    import weakref

    import coopsim.cli as cli

    rows, alive_at_call = [], []

    def recorded(*args, **kwargs):
        alive_at_call.append(sum(row() is not None for row in rows))
        metrics = run_episode(*args, **kwargs)
        rows.append(weakref.ref(metrics))
        return metrics

    monkeypatch.setattr(cli, "run_episode", recorded)
    config = Path(__file__).resolve().parents[1] / "configs" / "reference.conf"
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert cli.main(["baselines", "--config", str(config), "--frames", "200"]) == 0
    finally:
        if was_enabled:
            gc.enable()
    assert alive_at_call == [0, 0, 0, 0]
    assert [row() for row in rows] == [None] * 4
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_binomial_table_is_built_once_per_episode(monkeypatch):
    import coopsim.montecarlo as montecarlo

    blocks, terms = _count_blocks(monkeypatch), [0]

    def counted(*args, _fn=montecarlo._binomial_term):
        terms[0] += 1
        return _fn(*args)

    monkeypatch.setattr(montecarlo, "_binomial_term", counted)
    montecarlo.binomial_cdf.cache_clear()
    run_episode(Scenario(params=A_MAX_3, policy=PolicySpec(kind="no_coop"),
                         horizon_frames=6000, seed=5))
    # every block maps its arrivals through the one table of a_max + 1 terms
    assert blocks[0] >= 3
    assert terms[0] == A_MAX_3.a_max + 1
    assert montecarlo.binomial_cdf.cache_info().misses == 1


def test_virtual_backlog_checked_at_every_boundary(monkeypatch):
    import coopsim.engine as engine

    monkeypatch.setattr(engine, "update_virtual_queue", lambda x, n, spent, p_avg: -1.0)
    sc = Scenario(params=REF, policy=FBDPP, horizon_frames=20, seed=3)
    with pytest.raises(RuntimeError, match="virtual backlog went negative"):
        run_episode(sc)


def test_traced_names_stay_where_the_per_layer_tracer_patches_them(monkeypatch):
    # perfbench/tracing.py replaces these names from outside the package and
    # reports a name it cannot find as absent, so a hook moved into a base
    # class or a function bound before the episode would blank its metric
    import inspect

    import coopsim.cli as cli
    import coopsim.engine as engine

    assert list(inspect.signature(cli.write_frames_csv).parameters) == ["path", "metrics"]
    boundaries, calls = [0], [0]

    def counted_update(*args):
        boundaries[0] += 1
        return update_virtual_queue(*args)

    monkeypatch.setattr(engine, "update_virtual_queue", counted_update)
    assert "begin_frame" in FrameDriftPenaltyPolicy.__dict__

    def counted(self, *args, _fn=FrameDriftPenaltyPolicy.__dict__["begin_frame"]):
        calls[0] += 1
        return _fn(self, *args)

    monkeypatch.setattr(FrameDriftPenaltyPolicy, "begin_frame", counted)
    for spec in (FBDPP,) + KINDS[1:]:
        calls[0] = boundaries[0] = 0
        m = run_episode(Scenario(params=REF, policy=spec, horizon_frames=50, seed=4))
        # one decision per frame, none after the boundary that completes the
        # horizon; the kernel runs the open-loop gates itself and calls no hook
        assert calls[0] == (50 if spec.kind == "fbdpp" else 0), spec.kind
        assert boundaries[0] == m.frames == 50

    # the per-kind episode spans read the policy kind off the scenario that
    # cli.run_episode gets first: baselines makes one such call per row
    scenarios = []

    def recorded(*args, **kwargs):
        scenarios.append(args[0])
        return run_episode(*args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", recorded)
    config = Path(__file__).resolve().parents[1] / "configs" / "reference.conf"
    assert cli.main(["baselines", "--config", str(config), "--frames", "20"]) == 0
    assert all(isinstance(sc, Scenario) for sc in scenarios)
    assert [sc.policy.kind for sc in scenarios] == ["no_coop", "always_coop", "counter", "fbdpp"]


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
@pytest.mark.parametrize("params, horizon", [(REF, 300), (GRID, 300), (REF, 1)],
                         ids=["two_point", "grid", "one_frame"])
def test_frame_arrays_own_contiguous_data_of_their_field_dtype(params, horizon, spec):
    from coopsim.engine import _FRAME_ARRAYS, _FRAME_DTYPE, _FRAME_ROW

    # the packed row and the structured dtype that unpacks it agree on every byte
    assert _FRAME_ROW.size == _FRAME_DTYPE.itemsize == 72
    assert [name for name, _ in _FRAME_ARRAYS] == list(FRAME_FIELDS)
    m = run_episode(Scenario(params=params, policy=spec, horizon_frames=horizon, seed=8))
    for name, dtype in _FRAME_ARRAYS:
        got = getattr(m, name)
        # a copy of its field, not a strided view that keeps the whole row buffer alive
        assert got.flags.owndata and got.base is None, name
        assert got.flags.c_contiguous, name
        assert got.dtype == np.dtype(dtype), name
        assert got.shape == (horizon,), name


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts CPython's generational collections")
@pytest.mark.parametrize("spec", [PolicySpec(kind="no_coop"), FBDPP], ids=lambda s: s.kind)
def test_long_episode_feeds_the_cyclic_collector_nothing_it_keeps(spec):
    # frame records go into one preallocated buffer, not one tracked tuple per
    # frame; only fbdpp's decision memo allocates tracked objects per frame
    sc = Scenario(params=REF, policy=spec, horizon_frames=22_500, seed=1)
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        run_episode(sc)
    finally:
        gc.callbacks.remove(count)
        if not was_enabled:
            gc.disable()
    assert counts[1:] == [0, 0]
    if spec.kind == "no_coop":
        assert counts[0] == 0
