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
- `sizes`, the number of live files in each scope;
- `labels`, the subsystem label of every live path, recorded when the
  path is born, so a path is classified once;
- two sets of exact integer counts per scope, which `update` keeps
  current by subtracting the old author set of each dead path, and of
  each path whose author set changed, and adding its new one: the
  authored files of each author and the shared files of each co-author
  pair.  The subsystems an author authors in are the label scopes that
  count them.

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
from typing import TYPE_CHECKING, Collection, Hashable, Iterable

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
        scopes = (None,) + rules.labels
        self.authorship: dict[str, FileAuthorship] = {}
        self.sizes: dict[str | None, int] = dict.fromkeys(scopes, 0)
        self.labels: dict[str, str] = {}
        self.author_counts: dict[str | None, dict[str, int]] = {
            scope: {} for scope in scopes}
        self.edge_weights: dict[str | None, dict[Edge, int]] = {
            scope: {} for scope in scopes}
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

    def update(self, new: "dict[str, FileAuthorship]", dead: Collection[str],
               born: "dict[str | None, list[str]]") -> None:
        """Move the state to the next release in place: the results of `dead`
        are dropped, those of `new` replace or join the state's, and `born`,
        the scope partition of the paths of `new` new to the state, each in
        `labels`, gives only the scope sizes."""
        authorship, labels, sizes = self.authorship, self.labels, self.sizes
        for scope, paths in born.items():
            sizes[scope] += len(paths)
        for path in dead:
            self._count(path, authorship.pop(path), -1)
            label = labels.pop(path)
            sizes[None] -= 1
            sizes[label] -= 1
        for path, fa in new.items():
            old = authorship.get(path)
            if old is None:
                self._count(path, fa, 1)
            elif old.authors != fa.authors:
                self._count(path, old, -1)
                self._count(path, fa, 1)
            authorship[path] = fa
        self.rescored = len(new)

    def _count(self, path: str, fa: FileAuthorship, sign: int) -> None:
        label = self.labels[path]
        for scope in (None, label):
            _add(self.author_counts[scope], fa.authors, sign)
        if len(fa.authors) > 1:
            pairs = tuple(combinations(sorted(fa.authors), 2))
            for scope in (None, label):
                _add(self.edge_weights[scope], pairs, sign)


def _add(counts: "dict[Hashable, int]", keys: Iterable[Hashable], sign: int) -> None:
    """Add `sign` to the count of each key; a count that reaches zero is removed."""
    for key in keys:
        n = counts.get(key, 0) + sign
        if n:
            counts[key] = n
        else:
            del counts[key]
