"""Specialist/generalist author profiles per subsystem.

An author is a specialist when every live file they author lies in one
subsystem, and a generalist otherwise.  Each author's subsystems are
read from counts that a release series keeps current
(`series.SeriesState.subsystem_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping

from .workload import AuthorCounts


@dataclass(frozen=True, slots=True)
class ProfileBreakdown:
    n_authors: int
    specialists: int
    generalists: int
    specialist_pct: float


def profile_proportions(counts: AuthorCounts,
                        subsystems: "Mapping[str, Collection[str]]",
                        ) -> ProfileBreakdown:
    """Specialist/generalist split among the authors of one scope.

    Scope membership follows authored-file location (the keys of the
    scope's author counts), but each author's kind is judged on their
    release-wide subsystem set: an author who owns a file here and files
    elsewhere is a generalist in this scope too.
    """
    if not counts:
        raise ValueError("scope has no authors")
    specialists = sum(1 for dev in counts if len(subsystems[dev]) == 1)
    n = len(counts)
    return ProfileBreakdown(n, specialists, n - specialists, 100.0 * specialists / n)
