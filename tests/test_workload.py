"""Workload distribution statistics: quantiles, medcouple, fences, Gini, top-k."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from authormine import (DoaThresholds, DoaWeights, ReleaseTag, adjusted_fences,
                        compute_authorship, default_rules, files_per_author, gini,
                        medcouple, quantile, top_k_share)
from authormine import reports, workload
import oracles
from helpers import counted, dev, make_record, snapshot_at

samples = st.lists(st.integers(0, 1000), min_size=1, max_size=60)
positive_samples = st.lists(st.integers(1, 1000), min_size=1, max_size=60)


def authorship_for(commit_spec):
    """Build an authorship map from {path: [devs in commit order]} where the
    first developer creates the file."""
    records = []
    i = 0
    for path, devs in commit_spec.items():
        for j, d in enumerate(devs):
            i += 1
            records.append(make_record(f"c{i:03d}", d, i,
                                       [("A" if j == 0 else "M", path)]))
    snap = snapshot_at(records, ReleaseTag("r", f"c{i:03d}"))
    return snap, compute_authorship(snap)


def scope_counts(commit_spec, scope=None):
    """Author counts over the live files of one scope (All by default), and
    the scope's live file count."""
    snap, _ = authorship_for(commit_spec)
    state, partition = counted(snap)
    return state.author_counts.get(scope, {}), len(partition[scope])


class TestFilesPerAuthor:
    def test_two_authors(self):
        counts, _ = scope_counts({"a.c": [dev(1)], "b.c": [dev(2)], "c.c": [dev(2)]})
        assert files_per_author(counts) == [1, 2]

    def test_single_author(self):
        # dev 2 changes a file dominated by dev 1 and authors nothing
        spec = {f"f{i}.c": [dev(1)] for i in range(4)}
        spec["f0.c"] = [dev(1)] * 20 + [dev(2)]
        counts, _ = scope_counts(spec)
        assert files_per_author(counts) == [4]

    def test_empty_scope_gives_empty_sample(self):
        counts, n_files = scope_counts({"a.c": [dev(1)]}, scope="Net")
        assert n_files == 0
        assert files_per_author(counts) == []


class TestQuantile:
    @pytest.mark.parametrize("sample,p,expected", [
        ([1, 2, 3, 4], 0.5, 2.5),
        ([1, 2, 3], 0.5, 2.0),
        ([1, 1, 1, 97], 0.75, 25.0),
    ])
    def test_reference_values(self, sample, p, expected):
        assert quantile(sample, p) == expected

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1], -0.1)
        with pytest.raises(ValueError):
            quantile([1], 1.1)

    @given(positive_samples)
    def test_extremes(self, sample):
        assert quantile(sample, 0.0) == min(sample)
        assert quantile(sample, 1.0) == max(sample)

    @given(positive_samples, st.floats(0, 1))
    def test_within_range(self, sample, p):
        q = quantile(sample, p)
        assert min(sample) <= q <= max(sample)


class TestMedcouple:
    def test_symmetric_sample(self):
        assert medcouple([1, 2, 3, 4, 5]) == 0.0

    def test_reference_value(self):
        assert medcouple([1, 2, 4, 10]) == pytest.approx(5 / 18, abs=1e-12)

    def test_constant_sample_is_zero(self):
        assert medcouple([4, 4, 4]) == 0.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            medcouple([1, 2])

    @given(st.lists(st.integers(-500, 500), min_size=3, max_size=40))
    @settings(max_examples=150)
    def test_reflection_antisymmetry(self, sample):
        assert medcouple([-x for x in sample]) == pytest.approx(
            -medcouple(sample), abs=1e-9)

    @given(st.lists(st.integers(0, 100), min_size=3, max_size=50))
    @settings(max_examples=150)
    def test_matches_enumeration_oracle(self, sample):
        assert medcouple(sample) == pytest.approx(
            oracles.medcouple_enum(sample), abs=1e-9)

    @given(st.lists(st.sampled_from([1, 1, 1, 2, 2, 3, 5, 40, 700]),
                    min_size=3, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_counts_match_enumeration_oracle(self, sample):
        assert medcouple(sample) == pytest.approx(
            oracles.medcouple_enum(sample), abs=1e-9)

    def test_bounded(self):
        rng = random.Random(7)
        for _ in range(50):
            sample = [rng.randint(0, 50) for _ in range(rng.randint(3, 30))]
            assert -1.0 <= medcouple(sample) <= 1.0

    def test_memory_bounded_by_distinct_values(self):
        # 2000 files-per-author counts, most of them 1 or 2: the kernel
        # is evaluated per distinct (lower, upper) pair, not per author pair
        rng = random.Random(5)
        counts = [1] * 12 + [2] * 5 + [3, 3, 4, 5, 7, 9, 12] + list(range(15, 700, 25))
        sample = [rng.choice(counts) for _ in range(2000)]
        assert len(set(sample)) <= 40
        tracemalloc.start()
        try:
            mc = medcouple(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mc == pytest.approx(oracles.medcouple_enum(sample), abs=1e-9)
        assert peak < 2 * 2**20


class TestAdjustedFences:
    def test_zero_medcouple_gives_tukey_fences(self):
        sample = [1, 2, 3, 4, 5]  # symmetric, MC = 0
        fences = adjusted_fences(sample, medcouple(sample))
        q1, q3 = quantile(sample, 0.25), quantile(sample, 0.75)
        iqr = q3 - q1
        assert fences.lower == q1 - 1.5 * iqr
        assert fences.upper == q3 + 1.5 * iqr

    def test_reference_values(self):
        fences = adjusted_fences([1, 2, 4, 10], medcouple([1, 2, 4, 10]))
        mc = 5 / 18
        assert fences.lower == pytest.approx(1.75 - 1.5 * math.exp(-4 * mc) * 3.75,
                                             abs=1e-12)
        assert fences.upper == pytest.approx(5.5 + 1.5 * math.exp(3 * mc) * 3.75,
                                             abs=1e-12)
        assert fences.lower == pytest.approx(-0.102, abs=1e-3)
        assert fences.upper == pytest.approx(18.443, abs=1e-3)

    def test_constant_sample_collapses(self):
        fences = adjusted_fences([4, 4, 4, 4], 0.0)
        assert fences.lower == fences.upper == 4.0

    @given(st.lists(st.integers(0, 100), min_size=3, max_size=50))
    @settings(max_examples=100)
    def test_matches_oracle(self, sample):
        lo, hi = oracles.adjusted_fences_oracle(sample)
        fences = adjusted_fences(sample, medcouple(sample))
        assert fences.lower == pytest.approx(lo, abs=1e-9)
        assert fences.upper == pytest.approx(hi, abs=1e-9)


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_reference_value_exact(self):
        assert gini([1, 1, 1, 1, 96]) == 0.76

    def test_single_element(self):
        assert gini([42]) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gini([])
        with pytest.raises(ValueError):
            gini([0, 0, 0])
        with pytest.raises(ValueError):
            gini([-1, 2])

    @given(positive_samples, st.integers(1, 1000))
    @settings(max_examples=150)
    def test_scale_invariance(self, sample, c):
        assert gini([c * x for x in sample]) == pytest.approx(
            gini(sample), abs=1e-12)

    @given(positive_samples, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, sample, rng):
        shuffled = list(sample)
        rng.shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(gini(sample), abs=1e-12)

    @given(samples)
    @settings(max_examples=150)
    def test_matches_pairwise_oracle(self, sample):
        if sum(sample) == 0:
            return
        assert gini(sample) == pytest.approx(
            oracles.gini_pairwise(sample), abs=1e-9)

    @given(positive_samples)
    def test_range(self, sample):
        assert 0.0 <= gini(sample) < 1.0


class TestTopKShare:
    def test_dominant_author(self):
        counts, n_files = scope_counts(
            {"a.c": [dev(1)], "b.c": [dev(1)], "c.c": [dev(1)], "d.c": [dev(2)]})
        top = top_k_share(counts, n_files, 10)
        assert top.top1_share == 0.75
        assert top.topk_share == 1.0  # only two authors for k=10

    def test_next_share_sums_remaining(self):
        counts, n_files = scope_counts(
            {"a.c": [dev(1)], "b.c": [dev(1)], "c.c": [dev(2)], "d.c": [dev(3)]})
        top = top_k_share(counts, n_files, 2)
        assert top.top1_share == pytest.approx(0.5)
        assert top.topk_share == pytest.approx(0.75)

    def test_shares_can_exceed_one(self):
        # one file with two authors: each owns 100% of the single live file
        spec = {"a.c": [dev(1), dev(2), dev(2), dev(1), dev(2), dev(1)]}
        _, authorship = authorship_for(spec)
        assert [len(fa.authors) for fa in authorship.values()] == [2]
        counts, n_files = scope_counts(spec)
        top = top_k_share(counts, n_files, 10)
        assert top.topk_share == pytest.approx(2.0)

    @given(st.dictionaries(st.integers(0, 30), st.integers(1, 4), min_size=1),
           st.integers(1, 40), st.integers(1, 12), st.randoms(use_true_random=False))
    def test_tied_counts_match_brute_force(self, by_dev, n_files, k, rng):
        # ties are the rule in small counts; whichever tied author ranks
        # first, the shares are the same
        counts = {dev(i): n for i, n in by_dev.items()}
        ranked = list(counts.items())
        rng.shuffle(ranked)
        ranked.sort(key=lambda item: -item[1])
        shares = [n / n_files for _, n in ranked[:k]]
        top = top_k_share(counts, n_files, k)
        assert top.top1_share == shares[0]
        assert top.topk_share == shares[0] + sum(shares[1:])

    def test_domain_errors(self):
        counts, _ = scope_counts({"a.c": [dev(1)]})
        with pytest.raises(ValueError):
            top_k_share({}, 0, 10)
        with pytest.raises(ValueError):
            top_k_share(counts, 1, 0)
        with pytest.raises(ValueError):
            top_k_share({}, 1, 10)


class TestFixtureWorkload:
    def test_final_release_sample(self, fixture_records, fixture_releases):
        snap = snapshot_at(fixture_records, fixture_releases[-1])
        state, _ = counted(snap)
        sample = files_per_author(state.author_counts[None])
        assert sample == [1, 2, 3, 4, 5, 6]
        assert gini(sample) == pytest.approx(oracles.gini_pairwise(sample), abs=1e-12)

    def test_medcouple_once_per_scope(self, fixture_records, fixture_releases,
                                      monkeypatch):
        # the workload row hands its medcouple to the fences instead of
        # computing it a second time
        calls = []

        def counted(sample):
            calls.append(len(sample))
            return medcouple(sample)

        monkeypatch.setattr(reports, "medcouple", counted)
        monkeypatch.setattr(workload, "medcouple", counted)
        snap = snapshot_at(fixture_records, fixture_releases[-1])
        _, workload_rows, _, _ = reports.release_report(snap, default_rules(),
                                                        DoaThresholds(), DoaWeights())
        with_mc = [row for row in workload_rows if row[8] != "NA"]
        assert with_mc
        assert len(calls) == len(with_mc)
