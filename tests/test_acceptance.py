"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. Tolerances
are fixed here, not tuned: each test states its target, measures, prints
PASS/FAIL with the numbers, and asserts.
"""

import filecmp
import time

import numpy as np
import pytest

from coopsim import (
    ModelParams,
    PolicySpec,
    Scenario,
    drift_constants,
    grid_search,
    optimal_two_point,
    run_episode,
    sample_busy_periods,
    sample_frames,
    sample_idle_periods,
    sweep_v,
)
from coopsim.cli import main

REF = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)
BASE_SEED = 20260810
V_LIST = [10.0, 50.0, 100.0, 500.0, 1000.0]


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@pytest.fixture(scope="module")
def sweep_results():
    template = Scenario(
        params=REF,
        policy=PolicySpec(kind="fbdpp", v=1.0),
        horizon_frames=1000,
        seed=BASE_SEED,
    )
    start = time.perf_counter()
    results = sweep_v(template, V_LIST)
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_01_offline_optimum():
    start = time.perf_counter()
    policy = optimal_two_point(REF)
    grid = grid_search(REF, step=1e-3)
    elapsed = time.perf_counter() - start
    ok = (
        policy.upsilon == 0.25
        and abs(grid.upsilon - policy.upsilon) <= 1e-3
        and elapsed < 1.0
    )
    assert report(
        "1 offline optimum",
        ok,
        f"upsilon={policy.upsilon!r} (q={policy.coop_prob:.6f}, p={policy.idle_tx_prob:g}), "
        f"grid={grid.upsilon:.6f}, elapsed={elapsed:.3f}s",
    )


def test_02_controller_convergence(sweep_results):
    results, elapsed = sweep_results
    admitted = [m.throughput_admitted for _, m in results]
    served = [m.throughput_served for _, m in results]
    avg_q = {v: m.avg_q_su for v, m in results}
    gaps = [0.25 - a for a in admitted]
    inversions = sum(1 for g1, g2 in zip(gaps, gaps[1:]) if g2 > g1)
    ok = (
        admitted[-1] >= 0.235
        and served[-1] >= 0.235
        and inversions <= 1
        and avg_q[1000.0] >= 5 * avg_q[100.0]
        and elapsed < 60.0
    )
    assert report(
        "2 convergence sweep",
        ok,
        f"admitted={[round(a, 4) for a in admitted]}, "
        f"served={[round(s, 4) for s in served]}, gap inversions={inversions}, "
        f"avg_q ratio v=1000/v=100 = {avg_q[1000.0] / avg_q[100.0]:.2f}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_03_baselines_table():
    rows = {}
    for kind, frames in (("no_coop", 10_000), ("always_coop", 20_000), ("counter", 18_000)):
        sc = Scenario(params=REF, policy=PolicySpec(kind=kind),
                      horizon_frames=frames, seed=BASE_SEED + 3)
        m = run_episode(sc)
        assert m.slots >= 100_000, f"{kind} needs >= 1e5 slots, got {m.slots}"
        rows[kind] = m
    nc = rows["no_coop"].throughput_served
    ac = rows["always_coop"].throughput_served
    cb = rows["counter"].throughput_served
    ok = (abs(nc - 0.166) <= 0.010) and (ac <= 0.005) and (abs(cb - 0.137) <= 0.015)
    assert report(
        "3 baselines table",
        ok,
        f"no_coop={nc:.4f} (0.166±0.010), always_coop={ac:.4f} (<=0.005), "
        f"counter={cb:.4f} (0.137±0.015)",
    )


def test_04_deterministic_queue_bound(sweep_results):
    results, _ = sweep_results
    worst = [(v, m.max_q_su, v + REF.a_max) for v, m in results]
    ok = all(max_q <= bound for _, max_q, bound in worst)
    assert report(
        "4 queue bound",
        ok,
        "max_q_su per v: " + ", ".join(f"v={v:g}:{mq}<= {b:g}" for v, mq, b in worst),
    )


def test_05_power_constraint(sweep_results):
    # Pooled ratio over all sweep episodes (sum of power over sum of slots);
    # per-run ratios are printed for reference. The virtual backlog built up
    # from the zero initial state makes the largest-v runs exceed the budget
    # by about x_end/slots over this horizon.
    results, _ = sweep_results
    total_power = sum(float(m.power_idle.sum() + m.power_coop.sum()) for _, m in results)
    total_slots = sum(m.slots for _, m in results)
    pooled = total_power / total_slots
    per_run = {v: m.avg_power for v, m in results}
    ok = pooled <= 0.5 + 0.01
    assert report(
        "5 power constraint",
        ok,
        f"pooled={pooled:.4f} (<= 0.51); per-run="
        + ", ".join(f"v={v:g}:{p:.4f}" for v, p in per_run.items()),
    )


def test_06_busy_period_moments():
    # Monte-Carlo over >= 1e6 busy runs of the no-cooperation chain against
    # the closed-form targets E[B]=10, E[B^2]=856.67, E[T^2]=902.67; plus the
    # bound check for the always-cooperate chain.
    start = time.perf_counter()
    n = 1_000_000
    g = rng(BASE_SEED + 6)
    busy = sample_busy_periods(0.5, 0.6, n, g).astype(float)
    idle = sample_idle_periods(0.5, n, g).astype(float)
    frames_nc = idle + busy
    frames_coop = sample_frames(0.5, 0.8, n, rng(BASE_SEED + 7)).astype(float)
    d = drift_constants(REF).d_const
    e_b = busy.mean()
    e_b2 = (busy**2).mean()
    e_t2 = (frames_nc**2).mean()
    e_t2_coop = (frames_coop**2).mean()
    elapsed = time.perf_counter() - start

    ok_b = abs(e_b - 10.0) <= 0.1
    ok_b2 = abs(e_b2 - 856.67) <= 0.02 * 856.67
    ok_t2 = abs(e_t2 - 902.67) <= 0.02 * 902.67
    ok_coop = e_t2_coop <= d
    ok = ok_b and ok_b2 and ok_t2 and ok_coop and elapsed < 30.0
    report(
        "6 busy-period moments",
        ok,
        f"E[B]={e_b:.3f} (10±0.1 {'ok' if ok_b else 'FAIL'}), "
        f"E[B^2]={e_b2:.1f} (856.67±2% {'ok' if ok_b2 else 'FAIL'}), "
        f"E[T^2]={e_t2:.1f} (902.67±2% {'ok' if ok_t2 else 'FAIL'}), "
        f"coop E[T^2]={e_t2_coop:.1f} <= D={d:.1f} ({'ok' if ok_coop else 'FAIL'}), "
        f"elapsed={elapsed:.1f}s",
    )
    assert ok, (
        "the closed-form expressions for E[B^2] and E[T^2] (856.67 / 902.67 at "
        "lambda_pu=0.5, phi_nc=0.6) upper-bound but do not equal the chain's "
        "true moments: exact first-passage analysis of the same dynamics gives "
        "E[B^2]=590 and E[T^2]=636, and the simulation reproduces those. "
        "The simulated chain, the first-step recursion, and a truncated DP all "
        "agree, so no simulation within the stated 2% of the closed forms "
        "exists; the bound property (last clause) does hold."
    )


def test_07_adaptive_scenario():
    params = ModelParams.two_point(0.4, 0.8, 0.6, 0.8, 0.5)
    sc = Scenario(
        params=params,
        policy=PolicySpec(kind="fbdpp", v=500.0),
        horizon_frames=1000,
        seed=BASE_SEED + 8,
        lambda_schedule=((350, 0.2), (700, 0.55)),
    )
    m = run_episode(sc)
    ma = m.moving_average(100)
    quiet = float(ma[499:700].max())
    early = float(ma[99:300].mean())
    late = float(ma[799:1000].mean())
    ok = quiet < 0.02 and late > early
    assert report(
        "7 adaptive scenario",
        ok,
        f"max coop-power MA frames 500-700 = {quiet:.5f} (< 0.02), "
        f"mean 800-1000 = {late:.4f} > mean 100-300 = {early:.4f}",
    )


def test_08_solver_equivalences():
    from coopsim import (
        FadeState,
        FadingModel,
        FrameRule,
        PowerSet,
        solve_multiuser_frame,
        solve_p1_fading,
    )
    import itertools

    g = rng(BASE_SEED + 9)

    def random_grid_params(n_levels):
        levels = (0.0,) + tuple(np.sort(g.uniform(0.1, 2.0, n_levels - 1)))
        phi_vals = np.sort(g.uniform(0.3, 1.0, n_levels))
        return ModelParams(
            lambda_pu=float(g.uniform(0.05, phi_vals[0] * 0.9)),
            lambda_su=0.5,
            a_max=1,
            phi={p: float(v) for p, v in zip(levels, phi_vals)},
            mu_su={p: float(v) for p, v in zip(levels, g.uniform(0, 1, n_levels))},
            p_avg=float(levels[-1] / 2),
            power_set=PowerSet.make_grid(levels),
        )

    # (a) threshold rule vs direct scan on {0, p_max}
    scan_params = ModelParams(
        lambda_pu=0.5, lambda_su=0.5, a_max=1, phi=dict(REF.phi),
        mu_su=dict(REF.mu_su), p_avg=0.5,
        power_set=PowerSet.make_grid([0.0, 1.0]),
    )
    a_ok = all(
        FrameRule(REF).busy_power(t, x) == FrameRule(scan_params).busy_power(t, x)
        for t, x in zip(g.uniform(0, 500, 1000), g.uniform(0, 200, 1000))
    )

    # (b) three-user decisions vs exhaustive search over (user, power) pairs
    b_ok = True
    for _ in range(200):
        users = [random_grid_params(int(g.integers(2, 5))) for _ in range(3)]
        queues = [(float(g.uniform(0, 100)), float(g.uniform(0, 30))) for _ in users]
        dec = solve_multiuser_frame(queues, users)
        best_idle, best_theta = None, None
        for i, ((gq, gx), par) in enumerate(zip(queues, users)):
            for p in par.power_set.levels:
                val = gq * par.mu_su[p] - gx * p
                if best_theta is None or val > best_theta:
                    best_idle, best_theta = (i, p), val
        best_coop, best_ratio = None, None
        for i, ((_, gx), par) in enumerate(zip(queues, users)):
            for p in par.power_set.levels:
                ratio = (best_theta + gx * p) / par.phi[p]
                if best_ratio is None or ratio < best_ratio:
                    best_coop, best_ratio = (i, p), ratio
        if (dec.idle_user, dec.p0_star) != best_idle or (
            dec.coop_user,
            dec.p1_star,
        ) != best_coop:
            b_ok = False
            break

    # (c) two-state fading vs the 9-point exhaustive search
    c_ok = True
    for _ in range(100):
        par = random_grid_params(3)
        def mono():
            vals = np.sort(g.uniform(0.3, 1.0, 3))
            return {p: float(v) for p, v in zip(par.power_set.levels, vals)}
        fading = FadingModel(states=(FadeState("s0", 0.35, mono()),
                                     FadeState("s1", 0.65, mono())))
        theta = float(g.uniform(0, 80))
        x = float(g.uniform(0, 25))
        got = solve_p1_fading(theta, x, fading, par)
        best_vec, best_val = None, None
        for vec in itertools.product(par.power_set.levels, repeat=2):
            num = theta + x * (0.35 * vec[0] + 0.65 * vec[1])
            den = 0.35 * fading.states[0].phi[vec[0]] + 0.65 * fading.states[1].phi[vec[1]]
            val = num / den
            if best_val is None or val < best_val:
                best_vec, best_val = vec, val
        if got != {"s0": best_vec[0], "s1": best_vec[1]}:
            c_ok = False
            break

    # (d) positive scaling of the weights leaves both powers unchanged
    d_ok = True
    for _ in range(1000):
        par = random_grid_params(int(g.integers(2, 5)))
        q = float(g.uniform(0, 100))
        x = float(g.uniform(0, 100))
        scale = float(g.uniform(0.1, 10.0))
        rule = FrameRule(par)
        p0a, ta = rule.idle_power(q, x)
        p0b, tb = rule.idle_power(scale * q, scale * x)
        if p0a != p0b or rule.busy_power(ta, x) != rule.busy_power(tb, scale * x):
            d_ok = False
            break

    ok = a_ok and b_ok and c_ok and d_ok
    assert report(
        "8 solver equivalences",
        ok,
        f"threshold-vs-scan={a_ok}, multiuser-vs-exhaustive={b_ok}, "
        f"fading-vs-exhaustive={c_ok}, scaling-invariance={d_ok}",
    )


def test_09_reproducibility(tmp_path):
    config = (
        "lambda_pu = 0.5\nlambda_su = 0.5\nphi_nc = 0.6\nphi_c = 0.8\n"
        "p_avg = 0.5\npolicy = fbdpp\nv = 500\nframes = 300\nseed = 97\n"
    )
    paths = []
    for name in ("first", "second"):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(config + f"out_dir = {tmp_path / name}\n")
        assert main(["run", "--config", str(conf)]) == 0
        paths.append(tmp_path / name)
    same_frames = filecmp.cmp(paths[0] / "frames.csv", paths[1] / "frames.csv",
                              shallow=False)
    same_summary = filecmp.cmp(paths[0] / "summary.csv", paths[1] / "summary.csv",
                               shallow=False)
    ok = same_frames and same_summary
    assert report(
        "9 reproducibility",
        ok,
        f"frames.csv identical={same_frames}, summary.csv identical={same_summary}",
    )
