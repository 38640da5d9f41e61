"""Specialist/generalist author profiles per subsystem.

An author is a specialist when every live file they author lies in one
subsystem, and a generalist otherwise.  Each author's subsystem set is
read once per release from the labels `scope_partition` assigned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .doa import AuthorshipMap
from .ingest import DeveloperId
from .workload import AuthorCounts


def author_subsystems(authorship: AuthorshipMap, partition: "dict[str | None, list[int]]",
                      ) -> dict[DeveloperId, set[str]]:
    """Subsystem labels of each author's live files; the None (All) scope is skipped."""
    labels: dict[DeveloperId, set[str]] = {}
    for scope, fids in partition.items():
        if scope is None:
            continue
        for fid in fids:
            for dev in authorship.files[fid].authors:
                labels.setdefault(dev, set()).add(scope)
    return labels


@dataclass(frozen=True, slots=True)
class ProfileBreakdown:
    n_authors: int
    specialists: int
    generalists: int
    specialist_pct: float
    generalist_pct: float


def profile_proportions(counts: AuthorCounts,
                        subsystems: "dict[DeveloperId, set[str]]") -> ProfileBreakdown:
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
    generalists = n - specialists
    return ProfileBreakdown(n, specialists, generalists,
                            100.0 * specialists / n, 100.0 * generalists / n)
