"""Shared test utilities: record builders and engine/oracle comparison."""

from __future__ import annotations

import json

from authormine import (ChangeKind, CommitRecord, CoauthorGraph, DeveloperId,
                        DoaThresholds, DoaWeights, FileAuthorship, FileChange, ReleaseSnapshot,
                        ReleaseTag, SeriesState, build_graph, compute_authorship,
                        default_rules, iter_snapshots)
from authormine.reports import advance


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


def engine_view(snapshot: ReleaseSnapshot, authorship: "dict[int, FileAuthorship]") -> dict:
    """Engine results in the oracle's comparison shape, keyed by path/email."""
    view = {}
    for fa in authorship.values():
        view[fa.path] = {
            "counters": {s.developer: (s.fa, s.dl, s.ac) for s in fa.scores},
            "doa": {s.developer: (s.doa_abs, s.doa_norm) for s in fa.scores},
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
        "live": {path: fid for path, fid in sorted(snapshot.live.items())},
        "files": {
            str(fid): {
                "creator": fc.creator,
                "total": fc.total_commits,
                "deliveries": dict(sorted(fc.deliveries.items())),
            }
            for fid, fc in sorted(snapshot.files.items())
        },
    }
    return json.dumps(payload, sort_keys=True)


def counted(snapshot: ReleaseSnapshot, rules=None) -> tuple[SeriesState, dict]:
    """A series state brought from empty to one snapshot, whose counts are
    then that snapshot's alone, and the snapshot's scope partition."""
    state = SeriesState()
    _, partition = advance(state, snapshot, rules or default_rules(), DoaThresholds(),
                           DoaWeights())
    return state, partition


def view_at(records, release, follow_renames=True):
    """Engine snapshot + authorship view for one release, from scratch."""
    snap = snapshot_at(records, release, follow_renames=follow_renames)
    return snap, engine_view(snap, compute_authorship(snap))
