"""Scoring formula, author rule and authorship map."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from authormine import (DoaThresholds, FileCounters, ReleaseTag, author_proportion,
                        compute_authorship, doa, doa_absolute, score_file)
from authormine.reports import AuthorshipRenderer
import oracles
from helpers import (assert_views_match, counted, dev, engine_view, make_record,
                     records_from_oracle, snapshot_at)

# one developer's (fa, dl, ac), for the formula alone
triples = st.tuples(st.integers(0, 1), st.integers(0, 500), st.integers(0, 500))


@st.composite
def file_counters(draw):
    """One file's counters as the accumulator freezes them: every developer
    delivered at least once, the creator is one of them, and the total is
    the sum of the deliveries."""
    deliveries = draw(st.dictionaries(st.integers(0, 7).map(dev), st.integers(1, 500),
                                      min_size=1, max_size=8))
    creator = draw(st.sampled_from(sorted(deliveries)))
    return FileCounters(creator, sum(deliveries.values()), deliveries)


class TestDoaAbsolute:
    @pytest.mark.parametrize("fa,dl,ac,expected", [
        (0, 0, 0, 3.293),
        (1, 1, 5, 3.9798),
        (1, 10, 5, 5.4558),
        (0, 1, 20, 2.4797),
    ])
    def test_reference_values(self, fa, dl, ac, expected):
        assert doa_absolute(fa, dl, ac) == pytest.approx(expected, abs=1e-4)

    @given(triples)
    def test_matches_direct_formula(self, c):
        fa, dl, ac = c
        expected = 3.293 + 1.098 * fa + 0.164 * dl - 0.321 * math.log(1 + ac)
        assert doa_absolute(fa, dl, ac) == pytest.approx(expected, abs=1e-12)

    @given(triples)
    def test_monotonic_in_own_work(self, c):
        fa, dl, ac = c
        base = doa_absolute(fa, dl, ac)
        assert doa_absolute(fa, dl + 1, ac) > base
        assert doa_absolute(fa, dl, ac + 1) < base
        if fa == 0:
            assert doa_absolute(1, dl, ac) > base


def two_dev_counters(dl1, dl2):
    """A file created by dev 1, with dl1 commits by dev 1 and dl2 by dev 2."""
    return FileCounters(dev(1), dl1 + dl2, {dev(1): dl1, dev(2): dl2})


def norms(counters):
    """Normalized score per developer, as the scoring kernel reports it."""
    scores, _ = score_file(counters)
    return {s.developer: s.doa_norm for s in scores}


def authors_of(counters, thresholds=DoaThresholds()):
    """Author set of one file, as the scoring kernel decides it."""
    return score_file(counters, thresholds)[1]


SOLE_CREATOR = FileCounters(dev(1), 1, {dev(1): 1})


class TestDoaNormalized:
    def test_sole_changer_is_one(self):
        assert norms(SOLE_CREATOR)[dev(1)] == 1.0

    def test_creator_plus_five_mods(self):
        counters = two_dev_counters(1, 5)
        assert norms(counters)[dev(2)] == pytest.approx(0.9776, abs=1e-4)

    def test_dominant_creator(self):
        counters = two_dev_counters(20, 1)
        assert norms(counters)[dev(2)] == pytest.approx(0.3329, abs=1e-4)

    def test_non_positive_peak_rejected(self):
        # the creator's one delivery among two million commits: (1, 1, 1999999)
        counters = FileCounters(dev(1), 2_000_000, {dev(1): 1})
        assert doa_absolute(1, 1, 1_999_999) < 0
        with pytest.raises(ValueError, match="maximum absolute score is not positive"):
            norms(counters)

    @given(file_counters())
    def test_argmax_scores_exactly_one(self, counters):
        def absolute(d):
            dl = counters.deliveries[d]
            return doa_absolute(int(d == counters.creator), dl, counters.total_commits - dl)

        best = max(counters.deliveries, key=absolute)
        scored = norms(counters)
        assert scored[best] == 1.0
        for d in counters.deliveries:
            assert 0 < scored[d] <= 1.0


class TestAuthorsOf:
    def test_sole_creator(self):
        assert doa_absolute(1, 1, 0) == pytest.approx(4.555, abs=1e-4)
        assert authors_of(SOLE_CREATOR) == {dev(1)}

    def test_active_second_developer_included(self):
        assert authors_of(two_dev_counters(1, 5)) == {dev(1), dev(2)}

    def test_marginal_second_developer_excluded(self):
        assert authors_of(two_dev_counters(20, 1)) == {dev(1)}

    def test_empty_counters_rejected(self):
        with pytest.raises(ValueError):
            authors_of(FileCounters(dev(1), 0, {}))

    def test_normalized_floor_is_strict(self):
        # a floor set exactly to dev2's normalized score excludes dev2:
        # dev1 (fa, dl, ac) = (1, 1, 5), dev2 (0, 5, 1)
        counters = two_dev_counters(1, 5)
        floor = norms(counters)[dev(2)]
        assert authors_of(counters) == {dev(1), dev(2)}
        assert authors_of(counters, DoaThresholds(normalized_floor=floor)) == {dev(1)}

    def test_absolute_floor_is_inclusive(self):
        # absolute score exactly at the floor with normalized > 0.75 passes:
        # dev1 (fa, dl, ac) = (1, 1, 1), dev2 (0, 1, 1)
        counters = two_dev_counters(1, 1)
        exact = doa_absolute(0, 1, 1)
        thresholds = DoaThresholds(normalized_floor=0.7, absolute_floor=exact)
        assert norms(counters)[dev(2)] > 0.7
        assert dev(2) in authors_of(counters, thresholds)

    def test_creator_dominance_at_birth(self):
        assert authors_of(SOLE_CREATOR) == {dev(1)}

    def test_thresholds_validation(self):
        with pytest.raises(ValueError):
            DoaThresholds(normalized_floor=0.0)
        with pytest.raises(ValueError):
            DoaThresholds(normalized_floor=1.5)
        with pytest.raises(ValueError):
            DoaThresholds(absolute_floor=0.0)

    def test_thresholds_replace_checks_too(self):
        with pytest.raises(ValueError, match="normalized_floor must be in"):
            DoaThresholds()._replace(normalized_floor=1.5)
        with pytest.raises(ValueError, match="absolute_floor must be finite"):
            DoaThresholds._make((0.75, float("nan")))
        assert DoaThresholds()._replace(normalized_floor=0.5) == DoaThresholds(0.5)


def direct_scores(counters, thresholds):
    """One file's score rows with each developer's formula evaluated on its own."""
    rows = []
    for d, dl in sorted(counters.deliveries.items()):
        fa, ac = int(d == counters.creator), counters.total_commits - dl
        rows.append((d, fa, dl, ac, doa_absolute(fa, dl, ac)))
    peak = max(row[4] for row in rows)
    return [row + (row[4] / peak, row[4] / peak > thresholds.normalized_floor
                   and row[4] >= thresholds.absolute_floor) for row in rows]


class TestKernelMemo:
    FLOORS = (DoaThresholds(), DoaThresholds(normalized_floor=0.9, absolute_floor=4.0))

    @given(st.lists(file_counters(), min_size=1, max_size=6))
    def test_memoised_scores_equal_direct_evaluation(self, files):
        # each file under one floor, the other, then the first again: the
        # memo serves the later rounds and must not carry rows across floors
        for counters in files:
            for thresholds in self.FLOORS + self.FLOORS[:1]:
                scores, authors = score_file(counters, thresholds)
                expected = direct_scores(counters, thresholds)
                assert [tuple(s) for s in scores] == expected
                assert authors == {row[0] for row in expected if row[6]}

    def test_memo_stays_within_its_cap(self):
        cap = doa._doa_absolute.cache_info().maxsize
        assert cap is not None
        for dl in range(1, cap + 100):  # (1, dl, 0): one distinct input each
            score_file(FileCounters(dev(1), dl, {dev(1): dl}))
        assert doa._doa_absolute.cache_info().currsize <= cap

    def test_equal_author_sets_are_one_object(self):
        # two files with equal author sets, one scored between them with
        # another set: the second gets the first one's set object
        _, first = score_file(FileCounters(dev(1), 3, {dev(1): 2, dev(2): 1}))
        _, other = score_file(FileCounters(dev(2), 1, {dev(2): 1}))
        _, second = score_file(FileCounters(dev(1), 1, {dev(1): 1}))
        assert first == second == {dev(1)} != other
        assert first is second

    def test_author_set_memo_stays_within_its_cap(self):
        cap = doa.AUTHOR_SETS_SIZE
        for i in range(cap + 100):  # one sole author each: one distinct set each
            score_file(FileCounters(dev(i), 1, {dev(i): 1}))
        assert 0 < len(doa._author_sets) <= cap


class TestAuthorshipMap:
    def test_every_file_has_a_full_score(self, fixture_records, fixture_releases):
        for tag in fixture_releases:
            snap = snapshot_at(fixture_records, tag)
            authorship = compute_authorship(snap)
            assert sorted(authorship) == sorted(snap.files)
            for path, fa in authorship.items():
                scores, authors = score_file(snap.files[path])
                assert max(s.doa_norm for s in scores) == 1.0
                assert fa.authors == authors <= {s.developer for s in scores}

    def test_authored_files_index(self, fixture_records, fixture_releases):
        snap = snapshot_at(fixture_records, fixture_releases[-1])
        authorship = compute_authorship(snap)
        counts = counted(snap)[0].author_counts(None)
        assert set(counts) == {d for fa in authorship.values() for d in fa.authors}
        for developer, n in counts.items():
            assert n == sum(developer in fa.authors for fa in authorship.values())

    def test_given_paths_alone_in_the_order_given(self, fixture_records, fixture_releases):
        render = AuthorshipRenderer(with_json=True)
        rng = random.Random(23)
        for tag in fixture_releases:
            snap = snapshot_at(fixture_records, tag)
            full = compute_authorship(snap, render=render)
            for k in (0, 1, len(full) // 2, len(full)):
                paths = rng.sample(sorted(snap.files), k)
                some = compute_authorship(snap, render=render, paths=paths)
                assert list(some) == paths
                for path, fa in some.items():
                    assert fa.authors == full[path].authors
                    assert fa.text == full[path].text


class TestAuthorProportion:
    def test_single_creator_scope(self):
        recs = [make_record("c1", dev(1), 1, [("A", "f.c")])]
        snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        authorship = compute_authorship(snap)
        result = author_proportion(authorship, list(snap.files))
        assert (result.developers, result.authors, result.proportion) == (1, 1, 1.0)

    def test_fixture_final_release(self, fixture_records, fixture_releases):
        snap = snapshot_at(fixture_records, fixture_releases[-1])
        authorship = compute_authorship(snap)
        result = author_proportion(authorship, list(snap.files))
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
