"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import random
import time
from contextlib import contextmanager

import pytest

from authormine import (DoaThresholds, DoaWeights, FileCounters, ReleaseTag,
                        assortativity, clustering_avg_local, clustering_global,
                        compute_authorship, doa_absolute, gini, iter_snapshots,
                        make_rules, mean_degree, medcouple, profile_proportions,
                        score_file, solitary_authors, default_rules)
from authormine.cli import main
import oracles
from conftest import GOLDEN_DIR
from helpers import (assert_views_match, counted, dev, engine_view, graph_from_data,
                     records_from_oracle, snapshot_at)
from test_cli import CSV_NAMES, base_args


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({description}): PASS")


def test_criterion_1_doa_unit_vector():
    with criterion(1, "DOA unit vector"):
        start = time.perf_counter()
        cases = [
            ((0, 0, 0), 3.293),
            ((1, 1, 5), 3.9798),
            ((1, 10, 5), 5.4558),
            ((0, 1, 20), 2.4797),
        ]
        for (fa, dl, ac), expected in cases:
            value = doa_absolute(fa, dl, ac)
            assert abs(value - expected) <= 1e-4, (fa, dl, ac, value)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_author_rule_boundaries():
    with criterion(2, "author-rule boundary semantics"):
        def verdict(counters, thresholds=DoaThresholds(), weights=DoaWeights()):
            scores, authors = score_file(counters, thresholds, weights)
            return {s.developer: s.doa_norm for s in scores}, authors

        # normalized score exactly 0.75 is NOT enough (strict floor);
        # weights engineered to make the ratio exact in floating point;
        # (fa, dl, ac) is (1, 3, 2) for dev 1 and (0, 2, 3) for dev 2
        weights = DoaWeights(base=1.0, first_author=0.0, delivery=1.0,
                             acceptance_log=0.0)
        counters = FileCounters(dev(1), 5, {dev(1): 3, dev(2): 2})
        thresholds = DoaThresholds(normalized_floor=0.75, absolute_floor=3.0)
        norms, authors = verdict(counters, thresholds, weights)
        assert norms[dev(2)] == 0.75
        assert doa_absolute(0, 2, 3, weights) >= thresholds.absolute_floor
        assert dev(2) not in authors

        # absolute score exactly 3.293 with normalized > 0.75 IS an author
        # (default weights: FA=DL=AC=0 hits the base constant exactly, which
        # takes counters no history accumulates: a creator outside the
        # deliveries and no commits)
        at_floor = FileCounters(dev(0), 0, {dev(1): 0, dev(2): 0})
        norms, authors = verdict(at_floor)
        assert doa_absolute(0, 0, 0) == 3.293
        assert norms[dev(2)] > 0.75
        assert dev(2) in authors

        # conjunction: high normalized score cannot rescue a sub-floor absolute;
        # (fa, dl, ac) is (0, 1, 0) for dev 1 and (0, 0, 1) for dev 2, again
        # with the creator outside the deliveries
        mixed = FileCounters(dev(0), 1, {dev(1): 1, dev(2): 0})
        norms, authors = verdict(mixed)
        assert norms[dev(2)] > 0.75
        assert doa_absolute(0, 0, 1) < 3.293
        assert dev(2) not in authors


def test_criterion_3_replay_oracle_equivalence():
    with criterion(3, "replay oracle equivalence, 500 random histories"):
        start = time.perf_counter()
        rng = random.Random(20260808)
        kinds_seen = set()
        for trial in range(500):
            history = oracles.gen_history(rng, max_commits=30, max_files=8,
                                          max_devs=5)
            kinds_seen.update(kind for rec in history
                              for kind, _, _ in rec["changes"])
            records = records_from_oracle(history)
            boundary = rng.choice(records).commit_id
            follow = trial % 2 == 0
            snap = snapshot_at(records, ReleaseTag("r", boundary),
                               follow_renames=follow)
            live, incs, devs = oracles.replay(history, boundary, follow)
            assert_views_match(
                engine_view(snap, compute_authorship(snap)),
                oracles.authorship_view(live, incs),
                tol=1e-9)
        assert kinds_seen == {"A", "M", "D", "R"}, "renames/deletes not exercised"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_4_statistics_oracles():
    with criterion(4, "gini and medcouple oracles, 200 random samples each"):
        assert gini([1, 1, 1, 1, 96]) == 0.76
        assert abs(medcouple([1, 2, 4, 10]) - 5 / 18) <= 1e-12
        rng = random.Random(41)
        checked = 0
        while checked < 200:
            sample = [rng.randint(0, 100) for _ in range(rng.randint(1, 50))]
            if sum(sample) == 0:
                continue
            assert abs(gini(sample) - oracles.gini_pairwise(sample)) <= 1e-9
            checked += 1
        for _ in range(200):
            sample = [rng.randint(0, 100) for _ in range(rng.randint(3, 50))]
            assert abs(medcouple(sample) - oracles.medcouple_enum(sample)) <= 1e-9


def test_criterion_5_graph_metric_oracles():
    with criterion(5, "graph metric oracles, 200 random graphs"):
        triangle = graph_from_data([0, 1, 2],
                                   {frozenset(e) for e in [(0, 1), (0, 2), (1, 2)]})
        assert clustering_global(triangle) == 1.0
        star = graph_from_data([0, 1, 2, 3],
                               {frozenset(e) for e in [(0, 1), (0, 2), (0, 3)]})
        assert abs(assortativity(star) - (-1.0)) <= 1e-12
        cycle = graph_from_data(
            [0, 1, 2, 3], {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 0)]})
        assert assortativity(cycle) is None

        rng = random.Random(52)
        for _ in range(200):
            vertices, edges = oracles.gen_graph_data(rng, max_vertices=12)
            graph = graph_from_data(vertices, edges)
            assert abs(mean_degree(graph)
                       - oracles.graph_mean_degree(vertices, edges)) <= 1e-9
            pairs = [
                (clustering_global(graph), oracles.graph_transitivity(vertices, edges)),
                (clustering_avg_local(graph),
                 oracles.graph_avg_local_clustering(vertices, edges)),
                (assortativity(graph), oracles.graph_assortativity(vertices, edges)),
            ]
            for actual, expected in pairs:
                if expected is None:
                    assert actual is None
                else:
                    assert abs(actual - expected) <= 1e-9
            solitary = {int(v[1:3]) for v in solitary_authors(graph)}
            assert solitary == oracles.graph_solitary(vertices, edges)


def test_criterion_6_golden_fixture_pipeline(tmp_path, fixture_records,
                                             fixture_releases):
    with criterion(6, "golden fixture pipeline, byte-exact and incremental"):
        assert main(["analyze", *base_args(), "-o", str(tmp_path)]) == 0
        for name in CSV_NAMES + ["manifest.json"]:
            produced = (tmp_path / name).read_bytes()
            golden = (GOLDEN_DIR / name).read_bytes()
            assert produced == golden, f"{name} deviates from the golden file"

        incremental = list(iter_snapshots(fixture_records, fixture_releases))
        assert len(incremental) == 3
        for tag, snap in zip(fixture_releases, incremental):
            assert snapshot_at(fixture_records, tag) == snap


def test_criterion_7_profile_partition_property():
    with criterion(7, "profile partition property, 100 random snapshots"):
        rng = random.Random(1907)
        rules = default_rules()
        merged = make_rules([], "Everything")
        checked = 0
        while checked < 100:
            history = oracles.gen_history(rng)
            records = records_from_oracle(history)
            snap = snapshot_at(records, ReleaseTag("r", records[-1].commit_id))
            if not snap.live:
                continue
            state, partition = counted(snap, rules)
            for scope, fids in partition.items():
                if not fids:
                    continue
                result = profile_proportions(state.author_counts[scope],
                                             state.subsystem_counts)
                assert result.specialists + result.generalists == result.n_authors
                assert abs(result.specialist_pct
                           - 100.0 * result.specialists / result.n_authors) <= 1e-9
            merged_state, _ = counted(snap, merged)
            merged_result = profile_proportions(merged_state.author_counts[None],
                                                merged_state.subsystem_counts)
            assert merged_result.specialist_pct == 100.0
            assert merged_result.generalists == 0
            checked += 1
