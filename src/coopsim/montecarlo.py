"""Vectorized samplers for idle runs, busy runs, and whole frames.

These are validation tools: they sample the primary occupancy process
directly as a random walk, independently of the closed forms in
``analysis``, so the two can be cross-checked. A busy run that starts with
one packet ends at the first slot where cumulative departures exceed
cumulative arrivals by one, so consecutive busy runs are the successive
first-passage times of the walk sum(success - arrival) to levels 1, 2, 3...
That observation lets millions of runs be drawn with a handful of numpy
passes instead of a slot loop. The walk is drawn in fixed chunks, which fix
the uniform stream, and run in cache-sized sub-blocks through buffers
allocated once per call: about 2.4 MiB plus 24 bytes per sampled run
(200,000 frames peak near 8.4 MiB), at any sample count.
"""

from __future__ import annotations

from math import comb

import numpy as np

# slots of walk per chunk of sample_busy_periods; part of the uniform stream
_CHUNK_SLOTS = 1 << 21
# uniforms drawn, and walk slots run, per numpy pass within a chunk; not part
# of the stream, and small enough that a sub-block's buffers stay in cache
_SUB_SLOTS = 1 << 14


def binomial_cdf(n: int, p: float) -> np.ndarray:
    """CDF table of Binomial(n, p), for inverse-transform sampling."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    pmf = [comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return cdf


def arrival_counts(u: np.ndarray, a_max: int, lambda_su: float) -> np.ndarray:
    """Map uniforms to secondary arrival counts: Binomial(a_max, lambda_su / a_max)."""
    if a_max == 1:
        return (u < lambda_su).astype(np.int64)
    cdf = binomial_cdf(a_max, lambda_su / a_max)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def _check_count(n: int, name: str) -> None:
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")


def sample_busy_periods(
    lambda_pu: float,
    success_prob: float,
    n_periods: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw busy-run lengths for a fixed per-busy-slot success probability.

    Walk increments are (departure - arrival) per slot; the walk's running
    maximum increases by at most one per slot, so the first index where the
    running maximum reaches level j is exactly where busy run j ends.

    The uniform stream is a sequence of whole chunks of ``_CHUNK_SLOTS``
    slots: all of a chunk's success uniforms, then all of its arrival
    uniforms. They are drawn ``_SUB_SLOTS`` at a time into one reused
    buffer; the successes are kept as one bool per slot, and the walk runs
    one arrival sub-block at a time, carrying its value into the first step,
    until ``n_periods`` ends are found. The rest of the chunk is still
    drawn, so the generator ends where a whole-chunk draw leaves it. Every
    pass writes into buffers allocated once per call; memory is about
    2.4 MiB plus 24 bytes per period (the run ends, and ``np.diff``'s copy
    and result), however long the walk.
    """
    _check_count(n_periods, "n_periods")
    if not 0.0 <= lambda_pu < success_prob <= 1.0:
        raise ValueError("need 0 <= lambda_pu < success_prob <= 1")
    ends = np.empty(n_periods, dtype=np.int64)
    found = 0
    chunk_start = 0
    walk_carry = 0
    blocks = [(lo, min(lo + _SUB_SLOTS, _CHUNK_SLOTS)) for lo in range(0, _CHUNK_SLOTS, _SUB_SLOTS)]
    sub = min(_SUB_SLOTS, _CHUNK_SLOTS)
    u = np.empty(sub)
    dep = np.empty(_CHUNK_SLOTS, dtype=bool)
    arr = np.empty(sub, dtype=bool)
    new_level = np.empty(sub, dtype=bool)
    # slot 0 holds `found`, slots 1.. the sub-block's walk, then its running max
    high = np.empty(sub + 1, dtype=np.int64)
    while found < n_periods:
        for lo, hi in blocks:
            np.less(rng.random(out=u[: hi - lo]), success_prob, out=dep[lo:hi])
        for lo, hi in blocks:
            m = hi - lo
            rng.random(out=u[:m])
            if found == n_periods:
                continue
            walk = high[1 : m + 1]
            np.subtract(dep[lo:hi], np.less(u[:m], lambda_pu, out=arr[:m]), out=walk,
                        dtype=np.int64)
            walk[0] += walk_carry
            np.cumsum(walk, out=walk)
            walk_carry = int(walk[-1])
            # Levels above `found` lie above every earlier walk value, so the
            # running maximum seeded with `found` is the walk's running
            # maximum since its start, and it rises by one exactly where the
            # walk first reaches a level.
            high[0] = found
            np.maximum.accumulate(high[: m + 1], out=high[: m + 1])
            if high[m] == found:
                continue
            np.greater(high[1 : m + 1], high[:m], out=new_level[:m])
            idx = np.flatnonzero(new_level[:m])[: n_periods - found]
            ends[found : found + len(idx)] = idx + (chunk_start + lo)
            found += len(idx)
        chunk_start += _CHUNK_SLOTS
    return np.diff(ends, prepend=-1)


def sample_idle_periods(
    lambda_pu: float, n_periods: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw idle-run lengths: geometric on {1, 2, ...} with mean 1/lambda_pu."""
    _check_count(n_periods, "n_periods")
    if not 0.0 < lambda_pu < 1.0:
        raise ValueError("lambda_pu must lie in (0, 1) for finite idle runs")
    return rng.geometric(lambda_pu, size=n_periods)


def sample_frames(
    lambda_pu: float,
    success_prob: float,
    n_frames: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw frame lengths (independent idle run + busy run)."""
    _check_count(n_frames, "n_frames")
    idle = sample_idle_periods(lambda_pu, n_frames, rng)
    busy = sample_busy_periods(lambda_pu, success_prob, n_frames, rng)
    return idle + busy


def batch_mean_stderr(samples: np.ndarray, n_batches: int = 50) -> tuple[float, float]:
    """Mean and a batch-means standard error, robust to within-batch noise."""
    if n_batches < 2:
        raise ValueError("a batch-means standard error needs at least 2 batches")
    usable = (len(samples) // n_batches) * n_batches
    if usable == 0:
        raise ValueError("too few samples for the requested batch count")
    batches = np.asarray(samples[:usable], dtype=float).reshape(n_batches, -1)
    means = batches.mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))
