"""Statistics used by the benchmark report.

Two rules are enforced here rather than trusted to callers:

- a percentile is reported only when at least ten samples lie beyond it
  (`percentile` raises `TooFewSamples` otherwise);
- a ratio is reported with its base (`ratio` builds the entry and
  `unbased_ratios` finds any report entry that lacks one).
"""

import math
import statistics

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def _rank(q, n):
    """1-based nearest rank of the q-quantile of n samples."""
    return max(1, math.ceil(q * n))


def _beyond(q, n):
    """Samples strictly past the q-quantile's rank, on the side of the
    distribution the quantile is nearer to (above for q >= 0.5, below
    otherwise)."""
    rank = _rank(q, n)
    return n - rank if q >= 0.5 else rank - 1


def min_samples(q):
    """Smallest sample count that leaves MIN_BEYOND samples past the
    q-quantile (0 < q < 1), on the side it is nearer to."""
    n = 1
    while _beyond(q, n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, q):
    """Nearest-rank q-quantile of `samples`.

    Raises TooFewSamples unless at least MIN_BEYOND samples lie past the
    returned rank: above it for an upper quantile, below it for a lower
    one."""
    if not 0.0 < q < 1.0:
        raise ValueError(f'quantile {q} outside (0, 1)')
    n = len(samples)
    if _beyond(q, n) < MIN_BEYOND:
        raise TooFewSamples(
            f'p{q * 100:g} needs {min_samples(q)} samples, have {n}')
    return sorted(samples)[_rank(q, n) - 1]


def median(samples):
    if not samples:
        raise TooFewSamples('median of no samples')
    return statistics.median(samples)


def blocked_percentile(samples, q, block):
    """Median over consecutive blocks of `block` samples of each block's
    q-quantile; a trailing partial block joins the last one.  Robust to
    a single stall that would dominate one pooled tail."""
    if block < min_samples(q):
        raise ValueError(f'block of {block} cannot support p{q * 100:g}')
    nblocks = len(samples) // block
    if nblocks == 0:
        raise TooFewSamples(
            f'blocked p{q * 100:g} needs {block} samples, '
            f'have {len(samples)}')
    values = []
    for b in range(nblocks):
        hi = len(samples) if b == nblocks - 1 else (b + 1) * block
        values.append(percentile(samples[b * block:hi], q))
    return median(values), nblocks


def quiet_pass(requests, q):
    """Host seconds of one pass over a closed loop's input pool, each
    input taken at the q-quantile of its repeated host times.

    `requests` are (input, host seconds, bytes, jobs).  Returns (seconds,
    bytes, jobs) of the pass and the fewest repeats of any input.  On a
    shared host, neighbours slow some repeats of an input and not
    others; a program change slows every repeat of it alike, so it
    moves this figure by the same factor."""
    times, size = {}, {}
    for inp, host_s, nbytes, jobs in requests:
        times.setdefault(inp, []).append(host_s)
        size[inp] = (nbytes, jobs)
    seconds = sum(percentile(t, q) for t in times.values())
    return (seconds, sum(b for b, _ in size.values()),
            sum(j for _, j in size.values()),
            min(len(t) for t in times.values()))


def quiet_bursts(bursts, keep):
    """Indices of the least-disturbed bursts of repeated operations.

    `bursts` are lists of host times, each taken over a short stretch of
    a run.  Bursts are ranked by their median and the fastest `keep`
    share (at least one) is returned, fastest first."""
    order = sorted(range(len(bursts)), key=lambda i: median(bursts[i]))
    return order[:max(1, round(len(bursts) * keep))]


def metric(value, unit, **extra):
    """A report entry: value and unit, plus any context (sample count,
    base) in `extra`."""
    entry = {'value': value, 'unit': unit}
    entry.update(extra)
    return entry


def ratio(numerator, base, base_of):
    """A ratio entry carrying its base: numerator / base, unit 'ratio'.
    A zero base gives value 0 (nothing to divide)."""
    return metric(numerator / base if base else 0.0, 'ratio',
                  numerator=numerator, base=base, base_of=base_of)


def unbased_ratios(metrics):
    """Names of ratio entries that do not carry their base."""
    return sorted(name for name, m in metrics.items()
                  if m.get('unit') == 'ratio'
                  and not ('base' in m and 'base_of' in m
                           and 'numerator' in m))
