"""What one release series carries from a release to the next.

Most live files do not change between two releases.  A `SeriesState`
keeps the previous release's per-file results, so that the next release
pays only for the files that changed since (incremental view
maintenance over the release series):

- `authorship`, the previous release's results: each live file's path,
  the frozen counters object it was scored from, its scores and author
  set.  `compute_authorship` takes a file over while its counters object
  and path are the same;
- `labels`, a memo of the subsystem label of every live path, so a path
  is classified once;
- `tails`, each live file's rendered `authorship.csv` rows without the
  release column, filled in by `reports.authorship_rows`;
- three sets of exact integer counts, which `update` keeps current by
  subtracting each changed or dead file's old author set and adding its
  new one: per scope, the authored files of each author and the shared
  files of each co-author pair; per author, the authored files in each
  subsystem.

Entries of files that are no longer live are dropped, so the state is
bounded by the live files and their authors.  One state serves one run,
with one setting of rules, floors and weights, and one thread.  Handed a
snapshot of an unrelated history it stays correct and reuses nothing.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable

from .doa import FileAuthorship
from .network import Edge
from .snapshot import ReleaseSnapshot


class SeriesState:
    """The results and counts of the release a series last reached; empty
    when new, which makes the next release one computed from scratch."""

    def __init__(self) -> None:
        self.settings: "tuple | None" = None
        self.authorship: dict[int, FileAuthorship] = {}
        self.labels: dict[str, str] = {}
        self.tails: dict[int, list[tuple[str, ...]]] = {}
        self.author_counts: dict[str | None, dict[str, int]] = {}
        self.subsystem_counts: dict[str, dict[str, int]] = {}
        self.edge_weights: dict[str | None, dict[Edge, int]] = {}
        self.rescored = 0  # files of the last update whose results are new

    def bind(self, settings: tuple) -> None:
        """Tie the state to the settings its results were computed under."""
        if self.settings is None:
            self.settings = settings
        elif self.settings != settings:
            raise ValueError("a series state serves one setting of rules, "
                             "floors and weights")

    def update(self, snapshot: ReleaseSnapshot,
               authorship: "dict[int, FileAuthorship]") -> None:
        """Move the state from the previous release's results to `authorship`,
        the results for `snapshot`.  Every live path must be in `labels`."""
        previous = self.authorship
        rescored = 0
        for fid, fa in authorship.items():
            old = previous.get(fid)
            if old is not fa:
                rescored += 1
                self._recount(old, fa, snapshot)
        for fid in previous.keys() - authorship.keys():
            self._recount(previous[fid], None, snapshot)
        self.authorship = authorship
        self.rescored = rescored

    def _recount(self, old: "FileAuthorship | None", new: "FileAuthorship | None",
                 snapshot: ReleaseSnapshot) -> None:
        """Replace a file's old results by its new ones in the counts; `old` is
        None for a file new to the state, `new` None for one no longer live."""
        if old is None:
            self._count(new, 1)
            return
        self.tails.pop(old.fid, None)
        if new is None or old.authors != new.authors \
                or self.labels[old.path] != self.labels[new.path]:
            self._count(old, -1)
            if new is not None:
                self._count(new, 1)
        if old.path not in snapshot.live:
            del self.labels[old.path]

    def _count(self, fa: FileAuthorship, sign: int) -> None:
        label = self.labels[fa.path]
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
