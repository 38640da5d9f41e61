"""Scoring formula, author rule and authorship map."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from authormine import (DoaThresholds, DoaWeights, FileDevCounters, ReleaseTag,
                        author_proportion, compute_authorship, doa_absolute, score_file)
import oracles
from helpers import (assert_views_match, counted, dev, engine_view, make_record,
                     records_from_oracle, snapshot_at)

counters_strategy = st.builds(
    FileDevCounters,
    fa=st.integers(0, 1),
    dl=st.integers(0, 500),
    ac=st.integers(0, 500),
)


class TestDoaAbsolute:
    @pytest.mark.parametrize("fa,dl,ac,expected", [
        (0, 0, 0, 3.293),
        (1, 1, 5, 3.9798),
        (1, 10, 5, 5.4558),
        (0, 1, 20, 2.4797),
    ])
    def test_reference_values(self, fa, dl, ac, expected):
        assert doa_absolute(FileDevCounters(fa, dl, ac)) == pytest.approx(
            expected, abs=1e-4)

    @given(counters_strategy)
    def test_matches_direct_formula(self, c):
        expected = 3.293 + 1.098 * c.fa + 0.164 * c.dl - 0.321 * math.log(1 + c.ac)
        assert doa_absolute(c) == pytest.approx(expected, abs=1e-12)

    @given(counters_strategy)
    def test_monotonic_in_own_work(self, c):
        base = doa_absolute(c)
        assert doa_absolute(FileDevCounters(c.fa, c.dl + 1, c.ac)) > base
        assert doa_absolute(FileDevCounters(c.fa, c.dl, c.ac + 1)) < base
        if c.fa == 0:
            assert doa_absolute(FileDevCounters(1, c.dl, c.ac)) > base

    def test_counter_validation(self):
        with pytest.raises(ValueError):
            FileDevCounters(2, 0, 0)
        with pytest.raises(ValueError):
            FileDevCounters(0, -1, 0)


def two_dev_counters(dl1, ac1, dl2, ac2):
    return {dev(1): FileDevCounters(1, dl1, ac1),
            dev(2): FileDevCounters(0, dl2, ac2)}


def norms(counters, weights=DoaWeights()):
    """Normalized score per developer, as the scoring kernel reports it."""
    scores, _ = score_file(counters, DoaThresholds(), weights)
    return {s.developer: s.doa_norm for s in scores}


def authors_of(counters, thresholds=DoaThresholds(), weights=DoaWeights()):
    """Author set of one file, as the scoring kernel decides it."""
    return score_file(counters, thresholds, weights)[1]


class TestDoaNormalized:
    def test_sole_changer_is_one(self):
        counters = {dev(1): FileDevCounters(1, 1, 0)}
        assert norms(counters)[dev(1)] == 1.0

    def test_creator_plus_five_mods(self):
        counters = two_dev_counters(1, 5, 5, 1)
        assert norms(counters)[dev(2)] == pytest.approx(0.9776, abs=1e-4)

    def test_dominant_creator(self):
        counters = two_dev_counters(20, 1, 1, 20)
        assert norms(counters)[dev(2)] == pytest.approx(0.3329, abs=1e-4)

    def test_degenerate_weights_rejected(self):
        counters = {dev(1): FileDevCounters(0, 1, 0)}
        weights = DoaWeights(base=-1.0, first_author=0.0, delivery=0.5,
                             acceptance_log=0.0)
        with pytest.raises(ValueError):
            norms(counters, weights)

    @given(st.lists(counters_strategy, min_size=1, max_size=8))
    def test_argmax_scores_exactly_one(self, counter_list):
        counters = {dev(i): c for i, c in enumerate(counter_list)}
        best = max(counters, key=lambda d: doa_absolute(counters[d]))
        scored = norms(counters)
        assert scored[best] == 1.0
        for d in counters:
            assert 0 < scored[d] <= 1.0


class TestAuthorsOf:
    def test_sole_creator(self):
        counters = {dev(1): FileDevCounters(1, 1, 0)}
        assert doa_absolute(counters[dev(1)]) == pytest.approx(4.555, abs=1e-4)
        assert authors_of(counters) == {dev(1)}

    def test_active_second_developer_included(self):
        assert authors_of(two_dev_counters(1, 5, 5, 1)) == {dev(1), dev(2)}

    def test_marginal_second_developer_excluded(self):
        assert authors_of(two_dev_counters(20, 1, 1, 20)) == {dev(1)}

    def test_empty_counters_rejected(self):
        with pytest.raises(ValueError):
            authors_of({})

    def test_normalized_floor_is_strict(self):
        # engineered so dev2's normalized score is exactly 0.75
        weights = DoaWeights(base=1.0, first_author=0.0, delivery=1.0,
                             acceptance_log=0.0)
        counters = {dev(1): FileDevCounters(1, 3, 2), dev(2): FileDevCounters(0, 2, 3)}
        thresholds = DoaThresholds(normalized_floor=0.75, absolute_floor=3.0)
        assert norms(counters, weights)[dev(2)] == 0.75
        assert doa_absolute(counters[dev(2)], weights) >= 3.0
        assert authors_of(counters, thresholds, weights) == {dev(1)}

    def test_absolute_floor_is_inclusive(self):
        # absolute score exactly at the floor with normalized > 0.75 passes
        counters = {dev(1): FileDevCounters(1, 1, 0), dev(2): FileDevCounters(0, 1, 0)}
        exact = doa_absolute(counters[dev(2)])
        thresholds = DoaThresholds(normalized_floor=0.7, absolute_floor=exact)
        assert norms(counters)[dev(2)] > 0.7
        assert dev(2) in authors_of(counters, thresholds)

    def test_creator_dominance_at_birth(self):
        counters = {dev(1): FileDevCounters(1, 1, 0)}
        assert authors_of(counters) == {dev(1)}

    def test_thresholds_validation(self):
        with pytest.raises(ValueError):
            DoaThresholds(normalized_floor=0.0)
        with pytest.raises(ValueError):
            DoaThresholds(normalized_floor=1.5)
        with pytest.raises(ValueError):
            DoaThresholds(absolute_floor=0.0)


class TestAuthorshipMap:
    def test_every_file_has_a_full_score(self, fixture_records, fixture_releases):
        for tag in fixture_releases:
            snap = snapshot_at(fixture_records, tag)
            authorship = compute_authorship(snap)
            assert len(authorship) == len(snap.live)
            for fa in authorship.values():
                assert max(s.doa_norm for s in fa.scores) == 1.0
                assert fa.authors <= {s.developer for s in fa.scores}

    def test_authored_files_index(self, fixture_records, fixture_releases):
        snap = snapshot_at(fixture_records, fixture_releases[-1])
        authorship = compute_authorship(snap)
        counts = counted(snap)[0].author_counts[None]
        assert set(counts) == {d for fa in authorship.values() for d in fa.authors}
        for developer, n in counts.items():
            assert n == sum(developer in fa.authors for fa in authorship.values())


class TestAuthorProportion:
    def test_single_creator_scope(self):
        recs = [make_record("c1", dev(1), 1, [("A", "f.c")])]
        snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        authorship = compute_authorship(snap)
        result = author_proportion(authorship, list(snap.live.values()))
        assert (result.developers, result.authors, result.proportion) == (1, 1, 1.0)

    def test_fixture_final_release(self, fixture_records, fixture_releases):
        snap = snapshot_at(fixture_records, fixture_releases[-1])
        authorship = compute_authorship(snap)
        result = author_proportion(authorship, list(snap.live.values()))
        # grace changed live files but authors none
        assert result.developers == 7
        assert result.authors == 6
        assert result.proportion == pytest.approx(6 / 7)

    def test_empty_scope_rejected(self, fixture_records, fixture_releases):
        snap = snapshot_at(fixture_records, fixture_releases[0])
        with pytest.raises(ValueError):
            author_proportion(compute_authorship(snap), [])


class TestOracleEquivalence:
    def test_random_histories_match_replay(self):
        rng = random.Random(99)
        for trial in range(40):
            history = oracles.gen_history(rng)
            records = records_from_oracle(history)
            boundary = rng.choice(records).commit_id
            follow = trial % 2 == 0
            snap = snapshot_at(records, ReleaseTag("r", boundary), follow_renames=follow)
            live, incs, _ = oracles.replay(history, boundary, follow)
            assert_views_match(engine_view(snap, compute_authorship(snap)),
                               oracles.authorship_view(live, incs))
