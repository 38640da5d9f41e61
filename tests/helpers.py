"""Shared test utilities: record builders and engine/oracle comparison."""

from __future__ import annotations

import fnmatch
import json

from hypothesis import strategies as st

from authormine import (ChangeKind, CommitRecord, CoauthorGraph, DeveloperId,
                        DoaThresholds, FileAuthorship, FileChange, ReleaseSnapshot,
                        ReleaseTag, SeriesState, build_graph, compute_authorship,
                        default_rules, iter_snapshots, scope_partition, score_file)
from authormine.reports import advance, workload_row


def dev(i: int) -> str:
    """Developer i as the engine keys them: by canonical email."""
    return f"d{i}@example.org"


def make_record(commit_id: str, author: "DeveloperId | str", ts: int,
                changes: list[tuple]) -> CommitRecord:
    """A commit record; an `author` given as an email is named after it."""
    if isinstance(author, str):
        author = DeveloperId(author, author)
    parsed = []
    for entry in changes:
        if entry[0] == "R":
            parsed.append(FileChange(ChangeKind.RENAME, entry[1], entry[2]))
        else:
            parsed.append(FileChange(ChangeKind(entry[0]), entry[1]))
    return CommitRecord(commit_id, author, ts, tuple(parsed))


def records_from_oracle(oracle_records: list[dict]) -> list[CommitRecord]:
    """Convert oracle-side plain records into package CommitRecords."""
    out = []
    for r in oracle_records:
        changes = tuple(
            FileChange(ChangeKind(kind), path, old)
            for kind, path, old in r["changes"])
        out.append(CommitRecord(r["id"], DeveloperId(*r["dev"]), r["ts"], changes))
    return out


def snapshot_at(records, release: ReleaseTag, follow_renames: bool = True,
                ) -> ReleaseSnapshot:
    """Materialize the snapshot for a single release from scratch."""
    return next(iter_snapshots(records, [release], follow_renames))


def engine_view(snapshot: ReleaseSnapshot, authorship: "dict[str, FileAuthorship]") -> dict:
    """Engine results in the oracle's comparison shape, keyed by path/email:
    each file's counters and scores as `score_file` gives them for the
    snapshot's counters of that file, whose author set is the result's."""
    view = {}
    for path, fa in authorship.items():
        scores, authors = score_file(snapshot.files[path])
        assert authors == fa.authors, f"author set of {path} is not score_file's"
        view[path] = {
            "counters": {s.developer: (s.fa, s.dl, s.ac) for s in scores},
            "doa": {s.developer: (s.doa_abs, s.doa_norm) for s in scores},
            "authors": set(fa.authors),
        }
    return view


def assert_views_match(engine: dict, oracle: dict, tol: float = 1e-9) -> None:
    assert set(engine) == set(oracle), "live path sets differ"
    for path in oracle:
        e, o = engine[path], oracle[path]
        assert e["counters"] == o["counters"], f"counters differ for {path}"
        assert set(e["doa"]) == set(o["doa"])
        for email, (abs_o, norm_o) in o["doa"].items():
            abs_e, norm_e = e["doa"][email]
            assert abs(abs_e - abs_o) <= tol, f"doa_abs differs for {path}/{email}"
            assert abs(norm_e - norm_o) <= tol, f"doa_norm differs for {path}/{email}"
        assert e["authors"] == o["authors"], f"author sets differ for {path}"


# up to four patterns, each a prefix ending in '/', a bare name or a glob, over
# characters a regex or fnmatch treats specially; and paths made of the same
PATTERNS = st.lists(st.one_of(
    st.text(alphabet="ab+(.)/", min_size=1, max_size=5).map(lambda p: p + "/"),
    st.text(alphabet="ab+(.)", min_size=1, max_size=5),
    st.text(alphabet="ab+(.)/*?[]!", min_size=1, max_size=6)), max_size=4)
PATHS_NEAR_PATTERNS = st.lists(st.text(alphabet="ab+(.)/*?[]\n", max_size=8), max_size=6)


def reference_match(pattern: str, path: str) -> bool:
    """A path pattern's rule on its own: a prefix ending in '/' by
    `startswith`, a bare name as the path or a directory above it, a glob
    by `fnmatch.fnmatchcase`."""
    if set("*?[") & set(pattern):
        return fnmatch.fnmatchcase(path, pattern)
    if pattern.endswith("/"):
        return path.startswith(pattern)
    return path == pattern or path.startswith(pattern + "/")


def graph_from_data(vertices: list[int], edges: set) -> CoauthorGraph:
    """Build a package graph from oracle-style integer vertex data."""
    devs = {i: f"d{i:02d}@example.org" for i in vertices}
    weights = {}
    for e in edges:
        u, v = sorted(e)
        weights[(devs[u], devs[v])] = 1
    return build_graph(devs.values(), weights)


def canonical_snapshot_json(snapshot: ReleaseSnapshot) -> str:
    """Deterministic serialized form for replay-determinism checks."""
    payload = {
        "release": [snapshot.release.name, snapshot.release.boundary],
        "files": {
            path: {
                "creator": fc.creator,
                "total": fc.total_commits,
                "deliveries": dict(sorted(fc.deliveries.items())),
            }
            for path, fc in sorted(snapshot.files.items())
        },
    }
    return json.dumps(payload, sort_keys=True)


def workload_rows(snapshot: ReleaseSnapshot, state: "SeriesState | None" = None,
                  ) -> list[list[str]]:
    """The workload rows of one release as `stats` prints them: `state`, or
    a new one without a renderer, brought to `snapshot` by `advance`, then
    one row per scope from its counts."""
    state = SeriesState(default_rules(), DoaThresholds()) if state is None else state
    advance(state, snapshot)
    return [workload_row(snapshot.release.name, scope, state.author_counts[scope], n_files)
            for scope, n_files in state.sizes.items()]


def counted(snapshot: ReleaseSnapshot, rules=None) -> tuple[SeriesState, dict]:
    """A series state brought from empty to one snapshot, whose counts are
    then that snapshot's alone, and the snapshot's scope partition, whose
    sizes and live paths the state holds."""
    rules = rules or default_rules()
    state = SeriesState(rules, DoaThresholds())
    advance(state, snapshot)
    partition = scope_partition(snapshot.files, rules)
    assert state.sizes == {scope: len(paths) for scope, paths in partition.items()}
    assert sorted(state.authorship) == partition[None]
    return state, partition


def subsystem_table(state: SeriesState) -> "tuple[dict[str, dict[str, int]], dict[str, int]]":
    """Each author's authored files per subsystem label, read off the
    state's per-scope author counts, and each author's spread: the number
    of subsystems they author files in."""
    table: dict[str, dict[str, int]] = {}
    for scope, counts in state.author_counts.items():
        if scope is not None:
            for author, n in counts.items():
                table.setdefault(author, {})[scope] = n
    return table, {author: len(labels) for author, labels in table.items()}


def view_at(records, release, follow_renames=True):
    """Engine snapshot + authorship view for one release, from scratch."""
    snap = snapshot_at(records, release, follow_renames=follow_renames)
    return snap, engine_view(snap, compute_authorship(snap))
