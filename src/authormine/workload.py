"""Distribution statistics over files-per-author workloads.

The workload sample for a scope holds one count per author owning at
least one live file there.  On top of it we compute linear-interpolation
quantiles, the medcouple robust skewness statistic, skew-adjusted
boxplot fences, the Gini inequality coefficient and top-k author shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

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


def medcouple(sample: WorkloadSample) -> float:
    """Robust skewness in [-1, 1]: the median of the couple kernel
    h(x_i, x_j) = ((x_j - m) - (m - x_i)) / (x_j - x_i) over pairs with
    x_i <= m <= x_j, where ties at the median fall back to a sign kernel.

    Evaluation is the O(n^2) kernel matrix, which is exact and adequate
    for per-scope author counts.
    """
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    n = xs.size
    if n < 3:
        raise ValueError("medcouple requires at least 3 values")
    if n % 2 == 0:
        m = 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    else:
        m = xs[(n - 1) // 2]
    z = xs - m
    lower = z[z <= 0.0]
    upper = z[z >= 0.0][:, None]
    denom = upper - lower
    both_zero = (lower == 0.0) & (upper == 0.0)
    denom[both_zero] = np.inf
    h = (upper + lower) / denom
    ties = int(np.count_nonzero(lower == 0.0))
    if ties:
        # sign kernel for median ties: -1 above the anti-diagonal, 0 on
        # it, +1 below; rows are the zero uppers, columns the zero lowers
        block = np.ones((ties, ties)) - np.eye(ties)
        block -= 2 * np.triu(block)
        block = np.fliplr(block)
        h[:ties, -ties:] = block
    return float(np.median(h))


@dataclass(frozen=True, slots=True)
class Fences:
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


@dataclass(frozen=True, slots=True)
class TopKShare:
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
