"""Specialist/generalist author profiles per subsystem.

An author is a specialist when every live file they author lies in one
subsystem, and a generalist otherwise.  An author's spread, the number
of subsystems they author files in, is read off the per-scope author
counts of a release series (`series.SeriesState.author_counts`), which
`reports.release_report` reads once per release.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .workload import AuthorCounts


class ProfileBreakdown(NamedTuple):
    n_authors: int
    specialists: int
    generalists: int
    specialist_pct: float


def profile_proportions(counts: AuthorCounts, spread: "Mapping[str, int]",
                        ) -> ProfileBreakdown:
    """Specialist/generalist split among the authors of one scope.

    Scope membership follows authored-file location (the keys of the
    scope's author counts), but each author's kind is judged on their
    release-wide `spread`, the number of subsystems they author files in:
    an author who owns a file here and files elsewhere is a generalist in
    this scope too.
    """
    if not counts:
        raise ValueError("scope has no authors")
    specialists = sum(1 for dev in counts if spread[dev] == 1)
    n = len(counts)
    return ProfileBreakdown(n, specialists, n - specialists, 100.0 * specialists / n)
