"""One-pass accumulation of per-file counters and release snapshots.

Every non-merge commit touching a file counts as one delivery for its
author on that file; acceptances are derived at read time as the file's
total commit count minus the developer's deliveries.  The creating
commit is a delivery like any other and additionally marks first
authorship.  A file is keyed by its live path, and its counters follow
it: with rename following enabled they move with the file; with it
disabled a rename is a delete plus a fresh creation.

Accumulation is strictly sequential and keeps one state per live path:
a move carries it along and a delete drops it, so the state follows the
live files, not the history.  Snapshots taken at release
boundaries are frozen, safe to share across threads and feed to any
number of concurrent downstream analytics.  A snapshot shares the frozen
counters of every file untouched since the previous release with that
release's snapshot, so a file's counters object changes exactly when
its counters or its life (creation, deletion, move) do.  A
`SeriesState` finds a release's delta by that identity alone.

A developer is their canonical email, a plain `str`: the accumulator
reads it once off each record's author, whose identity type goes no
further than `ingest`, and keys every counter by it.
"""

from __future__ import annotations

import logging
from typing import Iterable, Iterator, KeysView, Mapping, NamedTuple, Sequence

from .errors import AuthormineError, BoundaryNotFoundError, ConfigError
from .ingest import ChangeKind, CommitRecord, ReleaseTag

logger = logging.getLogger(__name__)


class FileCounters(NamedTuple):
    """Frozen per-file accumulation state: creator, commit total, deliveries,
    each developer given by email; all the author rule reads."""

    creator: str
    total_commits: int
    deliveries: Mapping[str, int]


class ReleaseSnapshot(NamedTuple):
    """Immutable view of the history up to (and including) one release boundary.

    `files` maps the path of each live file, and of no other, to its counters.
    """

    release: ReleaseTag
    files: Mapping[str, FileCounters]

    @property
    def live(self) -> KeysView[str]:
        """The live paths."""
        return self.files.keys()


class _FileState:
    __slots__ = ("creator", "total", "deliveries", "counters")

    def __init__(self, creator: str):
        self.creator = creator
        self.total = 0
        self.deliveries: dict[str, int] = {}
        self.counters: FileCounters | None = None  # as last frozen; None once delivered


class _Accumulator:
    def __init__(self, follow_renames: bool):
        self.follow_renames = follow_renames
        self.live: dict[str, _FileState] = {}  # the one per-file table

    def _deliver(self, state: _FileState, dev: str, delivered: set[_FileState]) -> None:
        # at most one delivery per (commit, file); states hash by identity
        if state in delivered:
            return
        delivered.add(state)
        state.total += 1
        state.deliveries[dev] = state.deliveries.get(dev, 0) + 1
        state.counters = None

    def _create(self, path: str, dev: str, delivered: set[_FileState]) -> None:
        state = _FileState(creator=dev)
        self.live[path] = state
        self._deliver(state, dev, delivered)

    def _add(self, commit_id: str, path: str, dev: str, delivered: set[_FileState]) -> None:
        state = self.live.get(path)
        if state is not None:
            logger.warning("commit %s adds already-live path %s; treating as a change",
                           commit_id, path)
            self._deliver(state, dev, delivered)
        else:
            self._create(path, dev, delivered)

    def _modify(self, commit_id: str, path: str, dev: str,
                delivered: set[_FileState]) -> None:
        state = self.live.get(path)
        if state is not None:
            self._deliver(state, dev, delivered)
        else:
            logger.warning("commit %s changes unknown path %s; treating as an "
                           "implicit creation (truncated history?)", commit_id, path)
            self._create(path, dev, delivered)

    def _delete(self, commit_id: str, path: str, dev: str,
                delivered: set[_FileState]) -> None:
        state = self.live.pop(path, None)
        if state is not None:
            self._deliver(state, dev, delivered)
        else:
            logger.warning("commit %s deletes unknown path %s; treating as an "
                           "implicit creation (truncated history?)", commit_id, path)

    def _rename(self, commit_id: str, new_path: str, old_path: str,
                dev: str, delivered: set[_FileState]) -> None:
        if not self.follow_renames:
            self._delete(commit_id, old_path, dev, delivered)
            self._add(commit_id, new_path, dev, delivered)
            return
        state = self.live.pop(old_path, None)
        if state is None:
            logger.warning("commit %s renames unknown path %s; treating as an "
                           "implicit creation at %s", commit_id, old_path, new_path)
            self._add(commit_id, new_path, dev, delivered)
            return
        if self.live.get(new_path, state) is not state:
            logger.warning("commit %s renames %s onto live path %s; the previous "
                           "file becomes dead", commit_id, old_path, new_path)
        self.live[new_path] = state
        self._deliver(state, dev, delivered)

    def feed(self, record: CommitRecord) -> None:
        if not record.changes:  # empty, merge or fully excluded; only the id matters
            return
        commit_id = record.commit_id
        dev = record.author.email
        delivered: set[_FileState] = set()
        for kind, path, old_path in record.changes:
            if kind is ChangeKind.ADD:
                self._add(commit_id, path, dev, delivered)
            elif kind is ChangeKind.MODIFY:
                self._modify(commit_id, path, dev, delivered)
            elif kind is ChangeKind.DELETE:
                self._delete(commit_id, path, dev, delivered)
            else:
                self._rename(commit_id, path, old_path, dev, delivered)

    def freeze(self, release: ReleaseTag) -> ReleaseSnapshot:
        """Freeze the files delivered since the last release; the rest keep
        their counters object."""
        files = {}
        for path, state in self.live.items():
            if state.counters is None:
                state.counters = FileCounters(state.creator, state.total,
                                              dict(state.deliveries))
            files[path] = state.counters
        return ReleaseSnapshot(release, files)


def iter_snapshots(records: Iterable[CommitRecord],
                   releases: Sequence[ReleaseTag],
                   follow_renames: bool = True) -> Iterator[ReleaseSnapshot]:
    """Yield one frozen snapshot per release, in a single pass over the records.

    Records must be ordered oldest first and releases must appear in
    stream order.  Raises ConfigError when a release's boundary comes
    before an earlier-listed release's, AuthormineError when a commit id
    repeats (overlapping logs), and BoundaryNotFoundError if a boundary
    commit never shows up.  The set of commit ids seen, which catches
    overlapping logs, is the one structure that grows with the commits
    rather than the live files (about 13 MB per 100k ids).
    """
    if not releases:
        return
    pending = list(releases)
    boundaries = {tag.boundary for tag in releases}
    seen: set[str] = set()
    acc = _Accumulator(follow_renames)
    for record in records:
        if record.commit_id in seen:
            raise AuthormineError(f"commit {record.commit_id!r} appears twice in the "
                                  "record stream (overlapping logs?)")
        seen.add(record.commit_id)
        acc.feed(record)
        if record.commit_id not in boundaries:
            continue
        while pending and pending[0].boundary == record.commit_id:
            yield acc.freeze(pending.pop(0))
        if not pending:
            return
        early = next((tag for tag in pending if tag.boundary == record.commit_id), None)
        if early is not None:
            raise ConfigError(
                f"release {early.name!r} ends at commit {record.commit_id!r}, before "
                f"the boundary of release {pending[0].name!r}, which is listed "
                "earlier; list releases in stream order")
    raise BoundaryNotFoundError(
        f"boundary commit {pending[0].boundary!r} for release {pending[0].name!r} "
        "not found in the record stream")

