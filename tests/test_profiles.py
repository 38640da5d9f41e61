"""Specialist/generalist classification and proportions."""

import random

import pytest

from authormine import ReleaseTag, default_rules, make_rules, profile_proportions
import oracles
from helpers import (counted, dev, make_record, records_from_oracle, snapshot_at,
                     subsystem_table)


def build(commit_spec):
    records = []
    i = 0
    for path, devs in commit_spec.items():
        for j, d in enumerate(devs):
            i += 1
            records.append(make_record(f"c{i:03d}", d, i,
                                       [("A" if j == 0 else "M", path)]))
    return snapshot_at(records, ReleaseTag("r", f"c{i:03d}"))


def profiles(snap, rules=None):
    """Each author's authored files per subsystem and a per-scope breakdown."""
    state, _ = counted(snap, rules)
    subsystems, spread = subsystem_table(state)

    def breakdown(scope):
        return profile_proportions(state.author_counts(scope), spread)
    return subsystems, breakdown


class TestClassifyAuthor:
    def test_driver_only_is_specialist(self):
        subsystems, breakdown = profiles(
            build({"drivers/a.c": [dev(1)], "drivers/b.c": [dev(1)]}))
        assert subsystems[dev(1)] == {"Driver": 2}
        assert breakdown(None).specialists == 1

    def test_two_subsystems_is_generalist(self):
        subsystems, breakdown = profiles(build({"fs/a.c": [dev(1)], "net/b.c": [dev(1)]}))
        assert subsystems[dev(1)] == {"Fs": 1, "Net": 1}
        assert breakdown(None).generalists == 1

    def test_non_author_rejected(self):
        # dev 2 changes a file dominated by dev 1 and authors nothing
        subsystems, breakdown = profiles(build({"fs/a.c": [dev(1)] * 20 + [dev(2)]}))
        assert set(subsystems) == {dev(1)}
        assert breakdown(None).n_authors == 1


class TestProfileProportions:
    def test_even_split_in_scope(self):
        _, breakdown = profiles(build({
            "drivers/a.c": [dev(1)],
            "drivers/b.c": [dev(2)],
            "fs/c.c": [dev(2)],
        }))
        result = breakdown("Driver")
        assert result.n_authors == 2
        assert result.specialist_pct == 50.0
        assert result.generalists == 1

    def test_kind_is_judged_globally(self):
        # dev 1 owns one Core file and one Driver file: a generalist even
        # when viewed from the Core scope
        _, breakdown = profiles(build({"kernel/a.c": [dev(1)], "drivers/b.c": [dev(1)]}))
        result = breakdown("Core")
        assert result.n_authors == 1
        assert result.specialists == 0
        assert result.generalists == 1

    def test_empty_scope_rejected(self):
        _, breakdown = profiles(build({"fs/a.c": [dev(1)]}))
        with pytest.raises(ValueError):
            breakdown("Net")

    def test_fixture_matches_golden_expectations(self, fixture_records,
                                                 fixture_releases):
        snap = snapshot_at(fixture_records, fixture_releases[-1])
        _, breakdown = profiles(snap)
        result = breakdown(None)
        assert result.n_authors == 6
        assert result.specialists == 3  # bob (Driver), dan (Net), frank (Misc)
        assert result.specialist_pct == 50.0


class TestPartitionProperties:
    def test_percentages_partition_and_degenerate_merge(self):
        rng = random.Random(4242)
        rules = default_rules()
        merged = make_rules([], "One")
        checked = 0
        while checked < 30:
            history = oracles.gen_history(rng)
            records = records_from_oracle(history)
            snap = snapshot_at(records, ReleaseTag("r", records[-1].commit_id))
            if not snap.files:
                continue
            _, breakdown = profiles(snap, rules)
            for scope, paths in counted(snap, rules)[1].items():
                if not paths:
                    continue
                result = breakdown(scope)
                assert result.specialists + result.generalists == result.n_authors
                assert result.specialist_pct == \
                    pytest.approx(100.0 * result.specialists / result.n_authors, abs=1e-9)
            _, merged_breakdown = profiles(snap, merged)
            assert merged_breakdown(None).specialist_pct == 100.0
            checked += 1
