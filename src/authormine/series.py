"""What one release series carries from a release to the next.

Most live files do not change between two releases.  A `SeriesState`
holds a run's settings, its subsystem `rules` and its DOA `thresholds`,
and keeps the previous release's per-file results, so that the next
release pays only for the files that changed since (incremental view
maintenance over the release series):

- `authorship`, the previous release's results by live path: the frozen
  counters object each file was scored from, its author set and the text
  `reports.release_report` renders as it scores: its authorship rows
  without the release column, with JSON bodies under `json_bodies`;
- `paths`, the live paths in sorted order, into which each release
  merges its new paths, and `sizes`, the number of live files in each
  scope;
- `labels`, a memo of the subsystem label of every live path, so a path
  is classified once;
- three sets of exact integer counts, which `update` keeps current by
  subtracting the old author set of each dead path, and of each path
  whose author set changed, and adding its new one: per scope, the
  authored files of each author and the shared files of each co-author
  pair; per author, the authored files in each subsystem.

A release step costs what changed since the state's last snapshot, its
`delta`: the snapshot's own when it follows that snapshot from the same
accumulator, else the live paths whose counters object differs from
their result's, and the paths no longer live.  Results of the other
paths are taken over as they are; a moved file is new at its new path.
Entries of paths that are no longer live are dropped, so the state is
bounded by the live files and their authors.  One state serves one run
and one thread.  Handed a snapshot of an unrelated history it stays
correct and reuses nothing.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Collection, Hashable, Iterable

from .doa import DoaThresholds, FileAuthorship
from .network import Edge
from .snapshot import ReleaseSnapshot
from .subsystems import SubsystemRules


class SeriesState:
    """The results and counts of the release a series last reached; empty
    when new, which makes the next release one computed from scratch."""

    def __init__(self, rules: SubsystemRules, thresholds: DoaThresholds,
                 json_bodies: bool = False) -> None:
        self.rules = rules
        self.thresholds = thresholds
        self.json_bodies = json_bodies
        self.render: "Callable | None" = None  # the run's renderer, made on first use
        self.reached: object = None  # the key of the snapshot last reached
        self.rendered = True  # every result has text
        self.authorship: dict[str, FileAuthorship] = {}
        self.paths: list[str] = []
        self.sizes: dict[str | None, int] = dict.fromkeys((None,) + rules.labels, 0)
        self.labels: dict[str, str] = {}
        self.author_counts: dict[str | None, dict[str, int]] = {}
        self.subsystem_counts: dict[str, dict[str, int]] = {}
        self.edge_weights: dict[str | None, dict[Edge, int]] = {}
        self.rescored = 0  # files of the last update whose results are new

    def delta(self, snapshot: ReleaseSnapshot, render: bool = False,
              ) -> "tuple[list[str], Collection[str]]":
        """The live paths of `snapshot` whose results are to be computed, in
        path order, and the paths whose results die.  With `render`, results
        without text are computed again.  Texts rendered in path order lie
        close in memory when the release is written in that order."""
        files, previous = snapshot.files, self.authorship
        if render and not self.rendered:
            changed = files
        elif snapshot.base is not None and snapshot.base is self.reached:
            return sorted(snapshot.changed), snapshot.dead
        else:
            changed = [path for path, counters in files.items()
                       if (fa := previous.get(path)) is None or fa.counters is not counters]
        return sorted(changed), [path for path in previous if path not in files]

    def update(self, snapshot: ReleaseSnapshot, authorship: "dict[str, FileAuthorship]",
               changed: Collection[str], dead: Collection[str],
               born: "dict[str | None, list[str]]", rendered: bool) -> None:
        """Move the state to `snapshot`, whose results are `authorship`: those
        of `changed` are new, those of `dead` gone, and `born` is the scope
        partition of the changed paths new to the state, each in `labels`;
        `rendered` says whether the new results have text."""
        previous, labels, sizes = self.authorship, self.labels, self.sizes
        for scope, paths in born.items():
            sizes[scope] += len(paths)
        for path in dead:
            self._count(path, previous[path], -1)
            label = labels.pop(path)
            sizes[None] -= 1
            sizes[label] -= 1
        for path in changed:
            old, fa = previous.get(path), authorship[path]
            if old is None:
                self._count(path, fa, 1)
            elif old.authors != fa.authors:
                self._count(path, old, -1)
                self._count(path, fa, 1)
        if dead:
            gone = set(dead)
            self.paths = [path for path in self.paths if path not in gone]
        if born[None]:
            self.paths += born[None]
            self.paths.sort()  # two sorted runs, which the sort merges in one pass
        self.authorship = authorship
        self.reached = snapshot.key
        self.rendered = rendered or (self.rendered and not changed)
        self.rescored = len(changed)

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
