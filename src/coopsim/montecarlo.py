"""Vectorized samplers for idle runs, busy runs, and whole frames.

These are validation tools: they sample the primary occupancy process
directly as a random walk, independently of the closed forms in
``analysis``, so the two can be cross-checked. A busy run that starts with
one packet ends at the first slot where cumulative departures exceed
cumulative arrivals by one, so consecutive busy runs are the successive
first-passage times of the walk sum(success - arrival) to levels 1, 2, 3...
That observation lets millions of runs be drawn with a handful of numpy
passes instead of a slot loop.
"""

from __future__ import annotations

from math import comb

import numpy as np

# slots of walk drawn at a time by sample_busy_periods; part of the uniform stream
_CHUNK_SLOTS = 1 << 21


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
    """
    if not 0.0 <= lambda_pu < success_prob <= 1.0:
        raise ValueError("need 0 <= lambda_pu < success_prob <= 1")
    ends = np.empty(n_periods, dtype=np.int64)
    found = 0
    slots_before = 0
    walk_carry = 0
    while found < n_periods:
        dep = rng.random(_CHUNK_SLOTS) < success_prob
        arr = rng.random(_CHUNK_SLOTS) < lambda_pu
        walk = np.cumsum(dep.astype(np.int64) - arr.astype(np.int64)) + walk_carry
        running_max = np.maximum.accumulate(walk)
        reachable = min(n_periods, int(running_max[-1]))
        if reachable > found:
            levels = np.arange(found + 1, reachable + 1, dtype=np.int64)
            idx = np.searchsorted(running_max, levels, side="left")
            ends[found:reachable] = idx + slots_before
            found = reachable
        slots_before += _CHUNK_SLOTS
        walk_carry = int(walk[-1])
    return np.diff(ends, prepend=-1)


def sample_idle_periods(
    lambda_pu: float, n_periods: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw idle-run lengths: geometric on {1, 2, ...} with mean 1/lambda_pu."""
    if not 0.0 < lambda_pu < 1.0:
        raise ValueError("lambda_pu must lie in (0, 1) for finite idle runs")
    return rng.geometric(lambda_pu, size=n_periods).astype(np.int64)


def sample_frames(
    lambda_pu: float,
    success_prob: float,
    n_frames: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw frame lengths (independent idle run + busy run)."""
    idle = sample_idle_periods(lambda_pu, n_frames, rng)
    busy = sample_busy_periods(lambda_pu, success_prob, n_frames, rng)
    return idle + busy


def batch_mean_stderr(samples: np.ndarray, n_batches: int = 50) -> tuple[float, float]:
    """Mean and a batch-means standard error, robust to within-batch noise."""
    usable = (len(samples) // n_batches) * n_batches
    if usable == 0:
        raise ValueError("too few samples for the requested batch count")
    batches = np.asarray(samples[:usable], dtype=float).reshape(n_batches, -1)
    means = batches.mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))
