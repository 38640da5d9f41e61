"""What one release series carries from a release to the next.

Most live files do not change between two releases.  A `SeriesState`
holds a run's settings, its subsystem `rules` and its DOA `thresholds`,
and keeps the previous release's per-file results, so that the next
release pays only for the files that changed since (incremental view
maintenance over the release series):

- `authorship`, the previous release's results by live path: the frozen
  counters object each file was scored from, its author set and the text
  `reports.release_report` renders as it scores: its authorship rows
  without the release column, with JSON bodies under `json_bodies`.
  `compute_authorship` takes a path's result over while its counters
  object is the same, so an unchanged file is neither scored nor
  formatted; a moved file is new at its new path;
- `labels`, a memo of the subsystem label of every live path, so a path
  is classified once;
- three sets of exact integer counts, which `update` keeps current by
  subtracting the old author set of each dead path, and of each path
  whose author set changed, and adding its new one: per scope, the
  authored files of each author and the shared files of each co-author
  pair; per author, the authored files in each subsystem.

Entries of paths that are no longer live are dropped, so the state is
bounded by the live files and their authors.  One state serves one run
and one thread.  Handed a snapshot of an unrelated history it stays
correct and reuses nothing.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable

from .doa import DoaThresholds, FileAuthorship
from .network import Edge
from .subsystems import SubsystemRules


class SeriesState:
    """The results and counts of the release a series last reached; empty
    when new, which makes the next release one computed from scratch."""

    def __init__(self, rules: SubsystemRules, thresholds: DoaThresholds,
                 json_bodies: bool = False) -> None:
        self.rules = rules
        self.thresholds = thresholds
        self.json_bodies = json_bodies
        self.authorship: dict[str, FileAuthorship] = {}
        self.labels: dict[str, str] = {}
        self.author_counts: dict[str | None, dict[str, int]] = {}
        self.subsystem_counts: dict[str, dict[str, int]] = {}
        self.edge_weights: dict[str | None, dict[Edge, int]] = {}
        self.rescored = 0  # files of the last update whose results are new

    def update(self, authorship: "dict[str, FileAuthorship]") -> None:
        """Move the state from the previous release's results to `authorship`,
        the next release's.  Every live path must be in `labels`."""
        previous = self.authorship
        rescored = 0
        for path, fa in authorship.items():
            old = previous.get(path)
            if old is not fa:
                rescored += 1
                if old is None:
                    self._count(path, fa, 1)
                elif old.authors != fa.authors:
                    self._count(path, old, -1)
                    self._count(path, fa, 1)
        for path in previous.keys() - authorship.keys():
            self._count(path, previous[path], -1)
            del self.labels[path]
        self.authorship = authorship
        self.rescored = rescored

    def _count(self, path: str, fa: FileAuthorship, sign: int) -> None:
        label = self.labels[path]
        for scope in (None, label):
            _add(self.author_counts.setdefault(scope, {}), fa.authors, sign)
        if len(fa.authors) > 1:
            pairs = tuple(combinations(sorted(fa.authors), 2))
            for scope in (None, label):
                _add(self.edge_weights.setdefault(scope, {}), pairs, sign)
        for dev in fa.authors:
            labels = self.subsystem_counts.setdefault(dev, {})
            _add(labels, (label,), sign)
            if not labels:
                del self.subsystem_counts[dev]


def _add(counts: "dict[Hashable, int]", keys: Iterable[Hashable], sign: int) -> None:
    """Add `sign` to the count of each key; a count that reaches zero is removed."""
    for key in keys:
        n = counts.get(key, 0) + sign
        if n:
            counts[key] = n
        else:
            del counts[key]
