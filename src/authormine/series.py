"""What one release series carries from a release to the next.

Most live files do not change between two releases.  A `SeriesState`
holds a run's settings, its subsystem `rules`, its DOA `thresholds` and
its `render`, the `reports.AuthorshipRenderer` that gives each result its
text, or None for a query, which prints no authorship rows.  It keeps
the previous release's per-file results, so that the next release pays
only for the files that changed since (incremental view maintenance over
the release series):

- `authorship`, the previous release's results by live path: the frozen
  counters object each file was scored from, its author set and, with a
  renderer, the text `render` gave it as it was scored: its authorship
  rows without the release column.  The dict keeps one sorted run per
  release, each release's new paths appended in path order, so sorting
  its keys to write a release only merges runs;
- `labels`, the subsystem label of every live path, recorded when the
  path is born, so a path is classified once;
- `author_sets`, per scope, the number of live files there with each
  author set.  `update` moves a dead path's count off its old set, and a
  rescored path's from its old set to its new one.  A scope's `size`,
  its `author_counts` (each author's authored files) and its
  `edge_weights` (each co-author pair's shared files) are read off it
  when a command asks, each distinct set's pairs formed once, so `stats`
  forms no pair.  The subsystems an author authors in are the label
  scopes that count them.

A release step, `reports.advance`, scores, classifies and counts what
changed since the state's last snapshot, its `delta`: the live paths
whose counters object differs from their result's, and the paths no
longer live.  The accumulator hands a file untouched since a release the
same counters object again, so one walk of the live paths that compares
identities finds the delta of any snapshot, in or out of sequence.
`update` merges the delta's results into `authorship` in place, and the
other paths' stay as they are; a moved file is new at its new path.
Entries of paths no longer live are dropped, so the state is bounded by
the live files and their authors.
One state serves one run and one thread.  Handed a snapshot of an
unrelated history it stays correct and reuses nothing.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Collection

from .doa import DoaThresholds, FileAuthorship
from .network import Edge
from .snapshot import ReleaseSnapshot
from .subsystems import SubsystemRules

if TYPE_CHECKING:
    from .reports import AuthorshipRenderer


class SeriesState:
    """The results and counts of the release a series last reached; empty
    when new, which makes the next release one computed from scratch.

    `render` is fixed when the state is made: every result of a state made
    with a renderer has its text, and no result of one made without has."""

    def __init__(self, rules: SubsystemRules, thresholds: DoaThresholds,
                 render: "AuthorshipRenderer | None" = None) -> None:
        self.rules = rules
        self.thresholds = thresholds
        self.render = render
        self.authorship: dict[str, FileAuthorship] = {}
        self.labels: dict[str, str] = {}
        self.author_sets: dict[str | None, dict[frozenset[str], int]] = {
            scope: {} for scope in (None,) + rules.labels}
        self.rescored = 0  # files of the last update whose results are new

    def delta(self, snapshot: ReleaseSnapshot) -> "tuple[list[str], list[str]]":
        """The live paths of `snapshot` whose results are to be computed, in
        path order: those whose counters object is not the one their result
        was computed from; and the paths whose results die, those no longer
        live.  Texts made in path order lie close in memory when the release
        is written in that order."""
        files, previous = snapshot.files, self.authorship
        changed = [path for path, counters in files.items()
                   if (fa := previous.get(path)) is None or fa.counters is not counters]
        return sorted(changed), [path for path in previous if path not in files]

    def update(self, new: "dict[str, FileAuthorship]", dead: Collection[str]) -> None:
        """Move the state to the next release in place: drop the results of
        `dead`, and merge those of `new`, each path's label already in `labels`."""
        authorship, labels = self.authorship, self.labels
        for path in dead:
            self._count(labels.pop(path), authorship.pop(path).authors, -1)
        for path, fa in new.items():
            old = authorship.get(path)
            if old is None:
                self._count(labels[path], fa.authors, 1)
            elif old.authors != fa.authors:
                self._count(labels[path], old.authors, -1)
                self._count(labels[path], fa.authors, 1)
            authorship[path] = fa
        self.rescored = len(new)

    def _count(self, label: str, authors: "frozenset[str]", sign: int) -> None:
        """Add `sign` to the count of `authors` in All and `label`; a zero count goes."""
        for sets in (self.author_sets[None], self.author_sets[label]):
            n = sets.get(authors, 0) + sign
            if n:
                sets[authors] = n
            else:
                del sets[authors]

    def size(self, scope: "str | None") -> int:
        """The number of live files in one scope, None for All."""
        return sum(self.author_sets[scope].values())

    def author_counts(self, scope: "str | None") -> dict[str, int]:
        """The number of live files each author authors in one scope."""
        counts: dict[str, int] = {}
        for authors, n in self.author_sets[scope].items():
            for author in authors:
                counts[author] = counts.get(author, 0) + n
        return counts

    def edge_weights(self, scope: "str | None") -> dict[Edge, int]:
        """The number of live files each co-author pair, sorted, shares in one scope."""
        weights: dict[Edge, int] = {}
        for authors, n in self.author_sets[scope].items():
            for pair in combinations(sorted(authors), 2):
                weights[pair] = weights.get(pair, 0) + n
        return weights
