"""Frozen snapshots are safe to share: concurrent reads agree with serial ones."""

from concurrent.futures import ThreadPoolExecutor

from authormine import (DoaThresholds, DoaWeights, compute_authorship, default_rules,
                        iter_snapshots, score_file)
from authormine.reports import release_report
from helpers import canonical_snapshot_json, snapshot_at


def test_concurrent_release_analytics_match_serial(fixture_records, fixture_releases):
    snapshots = list(iter_snapshots(fixture_records, fixture_releases))
    rules = default_rules()
    thresholds = DoaThresholds()
    weights = DoaWeights()

    def analyze(snap):
        return release_report(snap, rules, thresholds, weights)

    serial = [analyze(s) for s in snapshots]
    with ThreadPoolExecutor(max_workers=4) as pool:
        twice = list(pool.map(analyze, snapshots + snapshots))
    assert twice[:len(snapshots)] == serial
    assert twice[len(snapshots):] == serial


def test_snapshot_unchanged_by_reads(fixture_records, fixture_releases):
    snap = snapshot_at(fixture_records, fixture_releases[-1])
    before = canonical_snapshot_json(snap)
    compute_authorship(snap)
    for fid in snap.live.values():
        score_file(snap.files[fid])
    assert canonical_snapshot_json(snap) == before
