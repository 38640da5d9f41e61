"""Distribution statistics over files-per-author workloads.

The workload sample for a scope holds one count per author owning at
least one live file there.  On top of it we compute linear-interpolation
quantiles, the medcouple robust skewness statistic, skew-adjusted
boxplot fences, the Gini inequality coefficient and top-k author shares.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

WorkloadSample = Sequence[float]
# authored live files per author email in one scope, the one table that
# the workload and profile statistics of a scope read
AuthorCounts = Mapping[str, int]


def files_per_author(counts: AuthorCounts) -> list[int]:
    """The workload sample: sorted authored-file counts, one per author.
    An empty list signals a scope without authors."""
    return sorted(counts.values())


def quantile(sample: WorkloadSample, p: float) -> float:
    """Order statistic at rank (n-1)*p with linear interpolation."""
    if not sample:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    xs = sorted(sample)
    h = (len(xs) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return float(xs[lo])
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def medcouple(sample: Sequence[int]) -> float:
    """Robust skewness in [-1, 1]: the median of the couple kernel
    h(x_i, x_j) = ((x_j - m) - (m - x_i)) / (x_j - x_i) over pairs with
    x_i <= m <= x_j, where ties at the median fall back to a sign kernel.

    The kernel is evaluated once per pair of distinct values of z = x - m,
    weighted by how often each value occurs.  The t values tied at the
    median contribute their t x t sign kernel as three weights: t(t-1)/2
    at -1, t at 0 and t(t-1)/2 at +1.  The median is read from the
    sorted weighted kernel at ranks (N-1)//2 and N//2.  Each kernel value
    is the same float operation on the same operands as over the full
    pair matrix, so the result is exact, not an approximation.

    A sample of positive integer counts with sum S has at most floor(m)
    distinct values at or below the median and at most sqrt(2S) at or
    above it, so at most floor(m) * sqrt(2S) pairs are evaluated, O(S)
    at worst.  A sample of many distinct non-integer values gets no such
    bound: its pairs grow with n^2, one Python tuple each, so 3000
    distinct floats (2.25 million pairs) take seconds and hundreds of
    megabytes.
    """
    n = len(sample)
    if n < 3:
        raise ValueError("medcouple requires at least 3 values")
    xs = sorted(map(float, sample))
    if n % 2 == 0:
        m = 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    else:
        m = xs[(n - 1) // 2]
    zs = Counter(x - m for x in xs)
    lower = [(zl, cl) for zl, cl in zs.items() if zl <= 0.0]
    upper = [(zu, cu) for zu, cu in zs.items() if zu >= 0.0]
    kernel = [((zu + zl) / (zu - zl), cu * cl)
              for zu, cu in upper for zl, cl in lower if zu or zl]
    ties = zs.get(0.0, 0)
    if ties:
        half = ties * (ties - 1) // 2
        kernel += [(-1.0, half), (0.0, ties), (1.0, half)]
    kernel.sort()
    # ranks[i] counts the kernel values up to and including entry i
    ranks = list(accumulate(weight for _, weight in kernel))
    n_pairs = ranks[-1]
    a = kernel[bisect_right(ranks, (n_pairs - 1) // 2)][0]
    b = kernel[bisect_right(ranks, n_pairs // 2)][0]
    return (a + b) / 2


class Fences(NamedTuple):
    lower: float
    upper: float


def adjusted_fences(sample: WorkloadSample, mc: float,
                    whisker: float = 1.5) -> Fences:
    """Skew-adjusted boxplot fences for a sample whose medcouple is `mc`.

    With medcouple MC >= 0 the whiskers are
    [Q1 - w*exp(-4*MC)*IQR, Q3 + w*exp(3*MC)*IQR]; for MC < 0 the
    exponents swap to -3 and 4.  MC = 0 reduces to the classic Tukey
    fences.
    """
    q1 = quantile(sample, 0.25)
    q3 = quantile(sample, 0.75)
    iqr = q3 - q1
    if mc >= 0:
        return Fences(q1 - whisker * math.exp(-4.0 * mc) * iqr,
                      q3 + whisker * math.exp(3.0 * mc) * iqr)
    return Fences(q1 - whisker * math.exp(-3.0 * mc) * iqr,
                  q3 + whisker * math.exp(4.0 * mc) * iqr)


def gini(sample: WorkloadSample) -> float:
    """Gini coefficient, population convention: sum|x_i - x_j| / (2 n^2 mean).

    Computed via the sorted-index identity, which is exact for integer
    samples.  0 is perfect equality; values approach 1 with maximal
    concentration.
    """
    if not sample:
        raise ValueError("gini of an empty sample")
    xs = sorted(sample)
    if xs[0] < 0:
        raise ValueError("gini requires non-negative values")
    total = float(sum(xs))
    if total == 0:
        raise ValueError("gini is undefined for a zero-mean sample")
    n = len(xs)
    weighted = sum((2 * i - n - 1) * x for i, x in enumerate(xs, start=1))
    return weighted / (n * total)


class TopKShare(NamedTuple):
    """Shares of a scope's live files authored by its top author, and by
    its top k authors together.

    A file with several authors counts once per author, so the top-k
    share may pass 1.
    """

    top1_share: float
    topk_share: float


def top_k_share(counts: AuthorCounts, n_files: int, k: int) -> TopKShare:
    """Top-k of a scope's author counts, as shares of its `n_files` live files.

    The top-k share adds the next shares, largest first, to the top one;
    tied counts give equal shares, so their order does not matter.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n_files < 1:
        raise ValueError("scope contains no live files")
    if not counts:
        raise ValueError("scope has no authors")
    top1, *rest = (n / n_files for n in sorted(counts.values(), reverse=True)[:k])
    return TopKShare(top1, top1 + sum(rest))
