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
allocated once per call: about 0.6 MiB beside the returned lengths, at any
sample count. ``sample_frames`` adds each busy run into the idle-run array
it returns, so it holds 8 bytes per frame plus those buffers (200,000
frames peak near 2.1 MiB).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, exp, log, log1p

import numpy as np

# slots of walk per chunk of sample_busy_periods; part of the uniform stream
_CHUNK_SLOTS = 1 << 21
# uniforms drawn, and walk slots run, per numpy pass within a chunk; not part
# of the stream, and small enough that a sub-block's buffers stay in cache
_SUB_SLOTS = 1 << 14


def _binomial_term(n: int, k: int, p: float) -> float:
    """The Binomial(n, p) pmf at k; in log space where ``comb(n, k)`` exceeds a float.

    From n = 1,030 the middle ``comb(n, k)`` no longer converts to float; only
    those terms take the log-space route, so every table for n up to 1,029 is
    the plain product's. Such a k lies strictly between 0 and n, so the term
    is 0 at p = 0 and at p = 1.
    """
    c = comb(n, k)
    try:
        return c * p**k * (1.0 - p) ** (n - k)
    except OverflowError:
        if p == 0.0 or p == 1.0:
            return 0.0
        return exp(log(c) + k * log(p) + (n - k) * log1p(-p))


@lru_cache(maxsize=16)
def binomial_cdf(n: int, p: float) -> np.ndarray:
    """CDF table of Binomial(n, p), for inverse-transform sampling.

    Each table is built once and remembered for its ``(n, p)``, since every
    uniform block of an episode or chain maps through the same one; the
    table returned is shared by all its callers, so it is read-only.
    """
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    cdf = np.cumsum([_binomial_term(n, k, p) for k in range(n + 1)])
    # rounded terms can carry the partial sums past 1 before the last one; no
    # uniform in [0, 1) tells such an entry from 1, and searchsorted needs the
    # table nondecreasing
    np.minimum(cdf, 1.0, out=cdf)
    cdf[-1] = 1.0
    cdf.flags.writeable = False
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


def _check_busy(lambda_pu: float, success_prob: float) -> None:
    if not 0.0 <= lambda_pu < success_prob <= 1.0:
        raise ValueError("need 0 <= lambda_pu < success_prob <= 1")


def _check_idle(lambda_pu: float) -> None:
    if not 0.0 < lambda_pu < 1.0:
        raise ValueError("lambda_pu must lie in (0, 1) for finite idle runs")


def sample_busy_periods(
    lambda_pu: float,
    success_prob: float,
    n_periods: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw busy-run lengths for a fixed per-busy-slot success probability."""
    _check_count(n_periods, "n_periods")
    _check_busy(lambda_pu, success_prob)
    lengths = np.zeros(n_periods, dtype=np.int64)
    _add_busy_periods(lengths, lambda_pu, success_prob, rng)
    return lengths


def _add_busy_periods(
    lengths: np.ndarray, lambda_pu: float, success_prob: float, rng: np.random.Generator
) -> None:
    """Add one busy-run length into each entry of the int64 array ``lengths``.

    Walk increments are (departure - arrival) per slot; the walk's running
    maximum increases by at most one per slot, so the first index where the
    running maximum reaches level j is exactly where busy run j ends.

    The uniform stream is a sequence of whole chunks of ``_CHUNK_SLOTS``
    slots: all of a chunk's success uniforms, then all of its arrival
    uniforms. They are drawn ``_SUB_SLOTS`` at a time into one reused
    buffer; the successes are kept as packed bits, and the walk runs one
    arrival sub-block at a time, relative to the walk's value before it,
    until ``n_periods`` ends are found. The rest of the chunk is still
    drawn, so the generator ends where a whole-chunk draw leaves it. Every
    pass writes into buffers allocated once per call; memory is about
    0.6 MiB beside ``lengths``, however long the walk.
    """
    n_periods = len(lengths)
    found = 0
    last_end = -1
    chunk_start = 0
    walk_carry = 0
    sub = min(_SUB_SLOTS, _CHUNK_SLOTS)
    blocks = [(lo, min(lo + sub, _CHUNK_SLOTS)) for lo in range(0, _CHUNK_SLOTS, sub)]
    # one row of packed success bits, and one success count, per sub-block
    dep_bits = np.empty((len(blocks), (sub + 7) // 8), dtype=np.uint8)
    successes = [0] * len(blocks)
    u = np.empty(sub)
    hit = np.empty(sub, dtype=bool)
    step = np.empty(sub, dtype=np.int8)
    new_level = np.empty(sub, dtype=bool)
    # slot 0 holds the gap, slots 1.. the sub-block's walk, then its running max
    high = np.empty(sub + 1, dtype=np.int32)
    while found < n_periods:
        for k, (lo, hi) in enumerate(blocks):
            m = hi - lo
            np.less(rng.random(out=u[:m]), success_prob, out=hit[:m])
            successes[k] = np.count_nonzero(hit[:m])
            dep_bits[k, : (m + 7) // 8] = np.packbits(hit[:m])
        for k, (lo, hi) in enumerate(blocks):
            m = hi - lo
            rng.random(out=u[:m])
            if found == n_periods:
                continue
            arrivals = np.less(u[:m], lambda_pu, out=hit[:m])
            # The walk's running maximum so far is `found`, `gap` above the
            # walk's value. Relative to that value, the running maximum
            # seeded with `gap` rises by one exactly where the walk first
            # reaches a new level. A sub-block rises by at most m, so with
            # gap >= m it reaches none; otherwise every value lies in
            # [-m, m] and fits int32.
            gap = found - walk_carry
            if gap >= m:
                walk_carry += successes[k] - np.count_nonzero(arrivals)
                continue
            walk = high[1 : m + 1]
            np.subtract(np.unpackbits(dep_bits[k], count=m).view(np.int8),
                        arrivals.view(np.int8), out=step[:m])
            np.cumsum(step[:m], dtype=np.int32, out=walk)
            walk_carry += int(walk[-1])
            high[0] = gap
            np.maximum.accumulate(high[: m + 1], out=high[: m + 1])
            if high[m] == gap:
                continue
            np.greater(high[1 : m + 1], high[:m], out=new_level[:m])
            ends = np.flatnonzero(new_level[:m])[: n_periods - found]
            ends += chunk_start + lo
            lengths[found] += ends[0] - last_end
            runs = lengths[found + 1 : found + len(ends)]
            runs += ends[1:]
            runs -= ends[:-1]
            last_end = int(ends[-1])
            found += len(ends)
        chunk_start += _CHUNK_SLOTS


def sample_idle_periods(
    lambda_pu: float, n_periods: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw idle-run lengths: geometric on {1, 2, ...} with mean 1/lambda_pu."""
    _check_count(n_periods, "n_periods")
    _check_idle(lambda_pu)
    return rng.geometric(lambda_pu, size=n_periods)


def sample_frames(
    lambda_pu: float,
    success_prob: float,
    n_frames: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw frame lengths (independent idle run + busy run).

    Both probabilities are checked before anything is drawn, so a refused
    call leaves ``rng`` where it was. The busy runs are added into the
    idle-run array, so no second per-frame array is made.
    """
    _check_count(n_frames, "n_frames")
    _check_idle(lambda_pu)
    _check_busy(lambda_pu, success_prob)
    frames = sample_idle_periods(lambda_pu, n_frames, rng)
    _add_busy_periods(frames, lambda_pu, success_prob, rng)
    return frames


def batch_mean_stderr(samples: np.ndarray, n_batches: int = 50) -> tuple[float, float]:
    """Mean and a batch-means standard error, robust to within-batch noise.

    Each batch is converted to float on its own, so no float copy of the
    whole sample is made.
    """
    if n_batches < 2:
        raise ValueError("a batch-means standard error needs at least 2 batches")
    size = len(samples) // n_batches
    if size == 0:
        raise ValueError("too few samples for the requested batch count")
    means = np.array([np.asarray(samples[k * size : (k + 1) * size], dtype=float).mean()
                      for k in range(n_batches)])
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))
