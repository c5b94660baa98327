import numpy as np
import pytest

from coopsim import montecarlo
from coopsim import (
    ModelParams,
    UnstableChainError,
    batch_mean_stderr,
    busy_period_moments,
    compute_d,
    drift_constants,
    frame_length_bounds,
    sample_busy_periods,
    sample_frames,
    sample_idle_periods,
    throughput_lower_bound,
)
from memtrace import traced_peak
from spec import steady_state

REF = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def test_steady_state_values():
    assert steady_state(0.5, 0.6).pi_0 == pytest.approx(1 / 6)
    assert steady_state(0.5, 0.8).pi_0 == pytest.approx(0.375)
    assert steady_state(0.5, 2 / 3).pi_0 == pytest.approx(0.25)
    sol = steady_state(0.5, 0.8)
    assert sol.busy_fraction == pytest.approx(0.625)
    assert sol.effective_mu == 0.8


def test_steady_state_unstable():
    with pytest.raises(UnstableChainError):
        steady_state(0.6, 0.6)
    with pytest.raises(UnstableChainError):
        steady_state(0.7, 0.6)


@pytest.mark.parametrize("mu", [0.6, 2 / 3, 0.8])
def test_steady_state_matches_empirical_idle_fraction(mu):
    # Ratio estimator of the idle fraction over many frames, three-sigma band
    # from batch means.
    n = 200_000
    g = rng(101)
    idle = sample_idle_periods(0.5, n, g).astype(float)
    busy = sample_busy_periods(0.5, mu, n, g).astype(float)
    frac = idle.sum() / (idle.sum() + busy.sum())
    # delta-method-ish SE via frame batches
    ratios = idle.reshape(100, -1).sum(axis=1) / (
        idle.reshape(100, -1).sum(axis=1) + busy.reshape(100, -1).sum(axis=1)
    )
    se = ratios.std(ddof=1) / np.sqrt(len(ratios))
    assert abs(frac - steady_state(0.5, mu).pi_0) < 3 * se + 1e-4


def test_frame_length_bounds_values():
    t_min, t_max = frame_length_bounds(REF)
    assert t_min == pytest.approx(16 / 3)
    assert t_max == pytest.approx(12.0)
    flat = ModelParams.two_point(0.5, 0.5, 0.6, 0.6, 0.5)
    t_min2, t_max2 = frame_length_bounds(flat)
    assert t_min2 == pytest.approx(t_max2)


def test_frame_length_bounds_match_monte_carlo():
    # Expected frame length under always/never cooperating, 1% at 1e6 frames.
    n = 1_000_000
    t_min, t_max = frame_length_bounds(REF)
    coop = sample_frames(0.5, REF.phi_c, n, rng(7))
    nc = sample_frames(0.5, REF.phi_nc, n, rng(8))
    assert abs(coop.mean() - t_min) / t_min < 0.01
    assert abs(nc.mean() - t_max) / t_max < 0.01


def test_busy_period_moment_formulas():
    e_b, e_b2 = busy_period_moments(0.5, 0.6)
    assert e_b == pytest.approx(10.0)
    assert e_b2 == pytest.approx(2570 / 3)
    with pytest.raises(UnstableChainError):
        busy_period_moments(0.6, 0.6)
    # single-packet limit: busy period is one geometric service time
    e_b0, e_b20 = busy_period_moments(1e-12, 0.6)
    assert e_b0 == pytest.approx(1 / 0.6, rel=1e-6)
    assert e_b20 == pytest.approx((2 - 0.6) / 0.36, rel=1e-6)


def test_compute_d_values():
    assert compute_d(0.5, 0.6) == pytest.approx(2708 / 3)
    assert compute_d(0.4, 0.6) == pytest.approx(
        (2 - 0.4) / 0.16 + busy_period_moments(0.4, 0.6)[1] + 2 * (1 / 0.4) * (1 / 0.2)
    )
    with pytest.raises(ValueError):
        compute_d(0.0, 0.6)


def test_busy_sampler_matches_exact_moments():
    # Independent pin of the sampler itself: exact first-passage moments at
    # (0.5, 0.6) are E[B] = 10 and E[B^2] = 590 (first-step conditioning in
    # rationals; the closed-form function above is an upper bound, see
    # test_compute_d_upper_bounds_every_policy).
    b = sample_busy_periods(0.5, 0.6, 1_000_000, rng(9)).astype(float)
    mean, se = batch_mean_stderr(b)
    assert abs(mean - 10.0) < 4 * se
    m2, se2 = batch_mean_stderr(b**2)
    assert abs(m2 - 590.0) < 4 * se2


def test_compute_d_upper_bounds_every_policy():
    # E[T^2] is largest with no cooperation and compute_d dominates it for
    # every per-busy-slot success probability in [phi_nc, phi_c].
    d = compute_d(0.5, 0.6)
    for mu, seed in ((0.6, 21), (0.7, 22), (0.8, 23)):
        t = sample_frames(0.5, mu, 400_000, rng(seed)).astype(float)
        m2, se = batch_mean_stderr(t**2)
        assert m2 + 3 * se <= d
    # and the no-cooperation second moment decreases as cooperation rises
    t_nc = sample_frames(0.5, 0.6, 400_000, rng(24)).astype(float)
    t_c = sample_frames(0.5, 0.8, 400_000, rng(25)).astype(float)
    assert (t_c**2).mean() < (t_nc**2).mean()


def test_drift_constants_reference_values():
    dc = drift_constants(REF)
    assert dc.d_const == pytest.approx(2708 / 3)
    assert dc.b_const == pytest.approx((2708 / 3) * 2.25 / 2)
    assert dc.c_const == pytest.approx(2708 / 3)
    assert dc.t_min == pytest.approx(16 / 3)
    assert dc.t_max == pytest.approx(12.0)


def test_drift_constants_ratio_identity():
    for params in (
        REF,
        ModelParams.two_point(0.3, 0.9, 0.5, 0.9, 0.2, p_max=2.0, a_max=3),
    ):
        dc = drift_constants(params)
        a_max, mu_max = params.a_max, params.mu_max
        expected = (
            (a_max + mu_max) * a_max
            / (mu_max**2 + a_max**2 + (params.p_max - params.p_avg) ** 2)
        )
        assert dc.c_const / dc.b_const == pytest.approx(expected)


def test_drift_constants_degenerate_zero_b():
    params = ModelParams(
        lambda_pu=0.5,
        lambda_su=0.0,
        a_max=1,
        phi={0.0: 0.6, 1.0: 0.8},
        mu_su={0.0: 0.0, 1.0: 0.0},
        p_avg=1.0,
        power_set=REF.power_set,
    )
    dc = drift_constants(params)
    # mu_max = 0 and p_max = p_avg leave only the a_max term
    assert dc.b_const == pytest.approx(dc.d_const / 2)


def test_throughput_lower_bound_values():
    dc = drift_constants(REF)
    bound = throughput_lower_bound(500, 0.25, dc)
    assert bound == pytest.approx(0.25 - (dc.b_const + dc.c_const) / (500 * 16 / 3))
    assert bound == pytest.approx(-0.4693125)
    # vanishing gap and monotonicity in v
    vs = [10, 100, 1000, 1e6, 1e9]
    bounds = [throughput_lower_bound(v, 0.25, dc) for v in vs]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] == pytest.approx(0.25, abs=1e-5)
    # algebraic identity: v chosen to halve the optimum
    v_half = 2 * (dc.b_const + dc.c_const) / (0.25 * dc.t_min)
    assert throughput_lower_bound(v_half, 0.25, dc) == pytest.approx(0.125)


def whole_chunk_busy_periods(lambda_pu, success_prob, n_periods, g):
    """Busy-run lengths with each chunk's walk built in one numpy pass.

    The reference for ``sample_busy_periods``: per chunk of
    ``montecarlo._CHUNK_SLOTS`` slots, all its success uniforms, then all its
    arrival uniforms, and the chunk drawn whole once started.
    """
    chunk = montecarlo._CHUNK_SLOTS
    ends = np.empty(n_periods, dtype=np.int64)
    found = slots_before = walk_carry = 0
    while found < n_periods:
        dep = g.random(chunk) < success_prob
        arr = g.random(chunk) < lambda_pu
        walk = np.cumsum(dep.astype(np.int64) - arr.astype(np.int64)) + walk_carry
        running_max = np.maximum.accumulate(walk)
        reachable = min(n_periods, int(running_max[-1]))
        if reachable > found:
            levels = np.arange(found + 1, reachable + 1, dtype=np.int64)
            ends[found:reachable] = np.searchsorted(running_max, levels) + slots_before
            found = reachable
        slots_before += chunk
        walk_carry = int(walk[-1])
    return np.diff(ends, prepend=-1)


# Small chunks put many chunk and sub-block boundaries within a few hundred
# periods; sub-blocks that do not divide the chunk, or exceed it, included.
# Sub-blocks of 16 slots leave near-critical walks more than a sub-block
# below their next level, so the skip branch runs too.
@pytest.mark.parametrize("chunk, sub, sizes", [
    (256, 64, (0, 1, 7, 40, 300)),
    (256, 100, (0, 1, 7, 40, 300)),
    (256, 512, (0, 1, 7, 40, 300)),
    (montecarlo._CHUNK_SLOTS, montecarlo._SUB_SLOTS, (0, 1, 300_000)),
    (256, 16, (0, 1, 7, 40, 300)),
])
def test_busy_sampler_matches_whole_chunk_spec(monkeypatch, chunk, sub, sizes):
    monkeypatch.setattr(montecarlo, "_CHUNK_SLOTS", chunk)
    monkeypatch.setattr(montecarlo, "_SUB_SLOTS", sub)
    # near-critical (0.59, 0.6): many sub-blocks reach no new level
    for lam, mu in ((0.5, 0.6), (0.5, 0.8), (0.0, 0.4), (0.3, 1.0), (0.59, 0.6)):
        for n in sizes:
            got_rng, want_rng = rng(n), rng(n)
            got = sample_busy_periods(lam, mu, n, got_rng)
            want = whole_chunk_busy_periods(lam, mu, n, want_rng)
            assert got.dtype == want.dtype and np.array_equal(got, want), (lam, mu, n)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, (lam, mu, n)
            if lam == 0.0:
                continue        # no finite idle runs, so no frames
            # frames: the idle runs, then the busy runs of the same stream
            got_rng, want_rng = rng(n), rng(n)
            got = sample_frames(lam, mu, n, got_rng)
            want = sample_idle_periods(lam, n, want_rng)
            want = want + whole_chunk_busy_periods(lam, mu, n, want_rng)
            assert got.dtype == want.dtype and np.array_equal(got, want), ("frames", lam, mu, n)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, ("frames", lam, mu, n)


@pytest.mark.parametrize("draw", [
    lambda n, g: sample_busy_periods(0.5, 0.6, n, g),
    lambda n, g: sample_idle_periods(0.5, n, g),
    lambda n, g: sample_frames(0.5, 0.6, n, g),
], ids=["busy", "idle", "frames"])
def test_samplers_refuse_negative_counts_and_draw_nothing_for_zero(draw):
    g = rng(5)
    state = g.bit_generator.state
    with pytest.raises(ValueError, match="non-negative"):
        draw(-1, g)
    empty = draw(0, g)
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert g.bit_generator.state == state


@pytest.mark.parametrize("success_prob", [0.4, float("nan")], ids=["below_lambda", "nan"])
def test_frame_sampler_refuses_bad_probabilities_before_drawing(success_prob):
    g = rng(5)
    state = g.bit_generator.state
    with pytest.raises(ValueError):
        sample_frames(0.5, success_prob, 10, g)
    assert g.bit_generator.state == state


@pytest.mark.parametrize("n_batches", [0, 1])
def test_batch_mean_stderr_needs_two_batches(n_batches):
    with pytest.raises(ValueError, match="at least 2 batches"):
        batch_mean_stderr(np.arange(100.0), n_batches)


def _whole_copy_batch_mean_stderr(samples, n_batches):
    """The batch-means error computed from one float copy of the whole sample."""
    usable = (len(samples) // n_batches) * n_batches
    means = np.asarray(samples[:usable], dtype=float).reshape(n_batches, -1).mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.float32])
def test_batch_mean_stderr_is_bit_equal_to_one_whole_copy(dtype):
    # a batch converted on its own sums the same floats in the same order
    g = rng(41)
    for n, n_batches in ((100, 2), (1_001, 7), (30_011, 50), (299_999, 119)):
        samples = (g.geometric(0.1, n) if dtype is np.int64 else g.random(n) * 100).astype(dtype)
        assert batch_mean_stderr(samples, n_batches) == _whole_copy_batch_mean_stderr(
            samples, n_batches)
    frames = sample_frames(0.5, 0.6, 200_000, rng(1))
    assert batch_mean_stderr(frames) == _whole_copy_batch_mean_stderr(frames, 50)
    # a whole float copy of the frames is 1.5 MiB
    assert traced_peak(batch_mean_stderr, frames) < 0.25 * 2**20


def test_frame_sampler_memory_is_bounded():
    # the returned 1.5 MiB of frames, busy runs added in, beside about 0.6 MiB of buffers
    assert traced_peak(sample_frames, 0.5, 0.6, 200_000, rng(3)) < 2.5 * 2**20


def _plain_binomial_cdf(n, p):
    """The table as the plain product builds it, wherever ``comb(n, k)`` is a float."""
    from math import comb
    cdf = np.cumsum([comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])
    cdf[-1] = 1.0
    return cdf


@pytest.mark.parametrize("n", [2, 3, 10, 1029])
def test_binomial_cdf_keeps_the_plain_product_where_it_converts(n):
    u = np.random.default_rng(n).random(100_000)
    for mean in (0.0, 0.3, 0.5, 0.8, 1.0, n / 3, n / 2, n):
        p = mean / n
        plain = _plain_binomial_cdf(n, p)
        cdf = montecarlo.binomial_cdf(n, p)
        # bit for bit, except that partial sums rounded past 1 now read 1
        assert np.array_equal(cdf, np.minimum(plain, 1.0))
        assert np.array_equal(np.searchsorted(cdf, u, side="right"),
                              np.searchsorted(plain, u, side="right"))


@pytest.mark.parametrize("n", [1100, 2000])
def test_binomial_cdf_beyond_float_binomials_keeps_its_mean(n):
    # from n = 1,030 the middle binomial coefficients no longer convert to float
    for mean in (0.0, 0.5, 0.8, n / 3, n / 2, n):
        cdf = montecarlo.binomial_cdf(n, mean / n)
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        pmf = np.diff(cdf, prepend=0.0)
        assert float(np.arange(n + 1) @ pmf) == pytest.approx(mean, rel=1e-9, abs=0.0)


def test_binomial_cdf_hands_out_one_read_only_table():
    montecarlo.binomial_cdf.cache_clear()
    table = montecarlo.binomial_cdf(3, 0.4)
    # one table per (n, p), shared by every caller, so none may write into it
    assert montecarlo.binomial_cdf(3, 0.4) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0.5
    assert montecarlo.binomial_cdf.cache_info().misses == 1
