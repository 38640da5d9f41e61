"""Parser, alias resolution, path filters and snapshot accumulation."""

import io
import json
import random

import pytest

from authormine import (AuthormineError, BoundaryNotFoundError, ChangeKind, ConfigError,
                        DeveloperId, FileChange, FileCounters, LogParseError,
                        LogSchemaError, ReleaseTag, apply_path_filters, compute_authorship,
                        iter_snapshots, load_alias_map, load_releases, parse_commit_log,
                        resolve_aliases, score_file)
import oracles
from conftest import FIXTURE_ALIASES
from helpers import (assert_views_match, canonical_snapshot_json, dev, engine_view,
                     make_record, records_from_oracle, snapshot_at)


def parse(text):
    return list(parse_commit_log(io.StringIO(text)))


class TestParseCommitLog:
    def test_empty_stream(self):
        assert parse("") == []

    def test_single_add(self):
        line = '{"id":"a1","an":"Ada","ae":"ada@x.org","ts":100,"ch":[["A","kernel/sched.c"]]}'
        records = parse(line)
        assert len(records) == 1
        rec = records[0]
        assert rec.commit_id == "a1"
        assert rec.author == DeveloperId("Ada", "ada@x.org")
        assert rec.timestamp == 100
        assert rec.changes == (FileChange(ChangeKind.ADD, "kernel/sched.c"),)

    def test_rename_entry_old_path(self):
        line = '{"id":"a1","an":"A","ae":"a@x","ts":1,"ch":[["R","new.c","old.c"]]}'
        (rec,) = parse(line)
        assert rec.changes == (FileChange(ChangeKind.RENAME, "new.c", "old.c"),)

    def test_malformed_line_reports_line_number(self):
        good = '{"id":"a1","an":"A","ae":"a@x","ts":1,"ch":[["A","f.c"]]}'
        with pytest.raises(LogParseError) as exc:
            parse(good + "\n{not json")
        assert exc.value.line_no == 2

    def test_missing_field_names_field(self):
        with pytest.raises(LogSchemaError) as exc:
            parse('{"id":"a1","an":"A","ts":1,"ch":[]}')
        assert exc.value.field == "ae"

    def test_carriage_return_in_email(self):
        # the email is a report column; a carriage return would split its CSV row
        with pytest.raises(LogSchemaError) as exc:
            parse(json.dumps({"id": "a1", "an": "A", "ae": "a\r@x", "ts": 1, "ch": []}))
        assert exc.value.field == "ae"

    def test_newline_in_email(self):
        # git refuses one in an ident; a graph export would break its line
        with pytest.raises(LogSchemaError) as exc:
            parse(json.dumps({"id": "a1", "an": "A", "ae": "a\n@x", "ts": 1, "ch": []}))
        assert exc.value.field == "ae"

    def test_unknown_keys_ignored(self):
        line = '{"id":"a1","an":"A","ae":"a@x","ts":1,"ch":[["A","f.c"]],"extra":42}'
        assert len(parse(line)) == 1

    @pytest.mark.parametrize("ch", [
        [["X", "f.c"]],
        [["A"]],
        [["R", "a.c"]],
        [["A", "../escape.c"]],
        [["A", "/abs.c"]],
        [["A", ""]],
        [["A", "a\rb.c"]],
        "notalist",
    ])
    def test_bad_change_entries(self, ch):
        line = json.dumps({"id": "a1", "an": "A", "ae": "a@x", "ts": 1, "ch": ch})
        with pytest.raises(LogSchemaError):
            parse(line)

    def test_paths_normalized(self):
        line = '{"id":"a1","an":"A","ae":"a@x","ts":1,"ch":[["A","./a//b/./c.c"]]}'
        (rec,) = parse(line)
        assert rec.changes[0].path == "a/b/c.c"

    def test_non_integer_timestamp(self):
        with pytest.raises(LogSchemaError) as exc:
            parse('{"id":"a1","an":"A","ae":"a@x","ts":"1","ch":[["A","f.c"]]}')
        assert exc.value.field == "ts"

    def test_blank_lines_skipped(self):
        line = '{"id":"a1","an":"A","ae":"a@x","ts":1,"ch":[["A","f.c"]]}'
        assert len(parse("\n" + line + "\n\n")) == 1

    def test_empty_change_list_kept(self):
        # an empty or merge commit is kept, with no changes, so it can close a release
        (record,) = parse('{"id":"a1","an":"A","ae":"a@x","ts":1,"ch":[]}')
        assert record.commit_id == "a1"
        assert record.changes == ()

    def test_bytes_stream(self):
        line = b'{"id":"a1","an":"A","ae":"a@x","ts":1,"ch":[["A","f.c"]]}'
        assert len(list(parse_commit_log(io.BytesIO(line)))) == 1

    def test_timestamp_regression_warns_once(self, caplog):
        lines = "\n".join(
            json.dumps({"id": f"c{i}", "an": "A", "ae": "a@x", "ts": ts,
                        "ch": [["M", "f.c"]]})
            for i, ts in enumerate([30, 10, 5]))
        with caplog.at_level("WARNING"):
            records = parse(lines)
        assert len(records) == 3  # skew tolerated, nothing dropped
        assert sum("earlier than" in r.message for r in caplog.records) == 1


class TestResolveAliases:
    def test_lookup_hit(self):
        raw = DeveloperId("Linus Torvalds", "torvalds@osdl.org")
        canonical = DeveloperId("Linus Torvalds", "torvalds@linux-foundation.org")
        rec = make_record("c1", raw, 1, [("A", "f.c")])
        (out,) = resolve_aliases([rec], {(raw.name, raw.email): canonical})
        assert out.author == canonical

    def test_passthrough_lowercases_email(self):
        rec = make_record("c1", DeveloperId("Ada", "ADA@X.ORG"), 1, [("A", "f.c")])
        (out,) = resolve_aliases([rec], {})
        assert out.author == DeveloperId("Ada", "ada@x.org")

    def test_passthrough_trims_email(self):
        # the email an unmapped identity passes through with is its lookup
        # key's, so padding does not split one developer in two
        recs = [
            make_record("c1", DeveloperId("Ann", "ann@x.org"), 1, [("A", "a.c")]),
            make_record("c2", DeveloperId("Ann", " Ann@X.org\t"), 2, [("M", "a.c")]),
        ]
        resolved = list(resolve_aliases(recs, {}))
        assert [r.author for r in resolved] == [DeveloperId("Ann", "ann@x.org")] * 2
        snap = snapshot_at(resolved, ReleaseTag("r", "c2"))
        assert snap.files[snap.live["a.c"]] == FileCounters("ann@x.org", 2, {"ann@x.org": 2})

    def test_aliased_identities_unify(self):
        canonical = DeveloperId("Carol Fs", "carol@example.org")
        amap = {("Carol F.", "cf@oldmail.example"): canonical}
        recs = [
            make_record("c1", DeveloperId("Carol F.", "cf@oldmail.example"), 1, [("A", "a.c")]),
            make_record("c2", DeveloperId("Carol Fs", "CAROL@EXAMPLE.ORG"), 2, [("M", "a.c")]),
        ]
        out = list(resolve_aliases(recs, amap))
        assert out[0].author == out[1].author == canonical

    def test_commit_multiset_unchanged(self):
        recs = [make_record(f"c{i}", dev(i % 2), i, [("A", f"f{i}.c")]) for i in range(6)]
        out = list(resolve_aliases(recs, {}))
        assert [r.commit_id for r in out] == [r.commit_id for r in recs]
        assert [r.changes for r in out] == [r.changes for r in recs]

    def test_idempotent(self, fixture_records):
        once = fixture_records
        twice = list(resolve_aliases(once, load_alias_map(FIXTURE_ALIASES)))
        assert twice == once

    def test_email_collision_warns(self, caplog):
        recs = [
            make_record("c1", DeveloperId("Bob", "b@x.org"), 1, [("A", "a.c")]),
            make_record("c2", DeveloperId("Robert", "b@x.org"), 2, [("M", "a.c")]),
        ]
        with caplog.at_level("WARNING"):
            resolved = list(resolve_aliases(recs, {}))
        assert any("different names" in r.message for r in caplog.records)
        # one email is one developer, whatever the name
        snap = snapshot_at(resolved, ReleaseTag("r", "c2"))
        assert snap.files[snap.live["a.c"]] == FileCounters("b@x.org", 2, {"b@x.org": 2})


class TestApplyPathFilters:
    def test_prefix_rule_removes_change(self):
        rec = make_record("c1", dev(0), 1,
                          [("A", "firmware/x.bin"), ("M", "kernel/s.c")])
        (out,) = apply_path_filters([rec], ["firmware/"])
        assert [c.path for c in out.changes] == ["kernel/s.c"]

    def test_empty_rules_identity(self):
        recs = [make_record("c1", dev(0), 1, [("A", "a.c")])]
        assert list(apply_path_filters(recs, [])) == recs

    def test_record_emptied_when_all_changes_excluded(self):
        # kept without changes: its commit id may be a release boundary
        rec = make_record("c1", dev(0), 1, [("A", "firmware/x.bin")])
        (out,) = apply_path_filters([rec], ["firmware/"])
        assert (out.commit_id, out.changes) == ("c1", ())

    def test_rename_matched_on_old_path(self):
        rec = make_record("c1", dev(0), 1, [("R", "kept/x.c", "dropme/x.c")])
        (out,) = apply_path_filters([rec], ["dropme/"])
        assert out.changes == ()

    def test_glob_rule(self):
        rec = make_record("c1", dev(0), 1, [("A", "docs/a.bin"), ("A", "docs/a.txt")])
        (out,) = apply_path_filters([rec], ["*.bin"])
        assert [c.path for c in out.changes] == ["docs/a.txt"]

    def test_invalid_pattern_is_config_error(self):
        with pytest.raises(ConfigError):
            list(apply_path_filters([], [""]))


class TestSnapshotAt:
    def test_single_add(self):
        recs = [make_record("c1", dev(1), 1, [("A", "f")])]
        snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        assert set(snap.live) == {"f"}
        assert snap.files[snap.live["f"]] == FileCounters(dev(1), 1, {dev(1): 1})

    def test_delete_releases_file(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "f")]),
            make_record("c2", dev(2), 2, [("D", "f")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c2"))
        assert snap.live == {}
        assert snap.files == {}

    def test_rename_follow_carries_counters(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "a")]),
            make_record("c2", dev(2), 2, [("R", "b", "a")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c2"))
        assert set(snap.live) == {"b"}
        assert snap.files[snap.live["b"]] == \
            FileCounters(dev(1), 2, {dev(1): 1, dev(2): 1})

    def test_rename_nofollow_resets_counters(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "a")]),
            make_record("c2", dev(2), 2, [("R", "b", "a")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c2"), follow_renames=False)
        counters = snap.files[snap.live["b"]]
        assert set(counters.deliveries) == {dev(2)}
        assert counters.creator == dev(2)

    def test_recreation_gets_fresh_counters(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "f")]),
            make_record("c2", dev(2), 2, [("D", "f")]),
            make_record("c3", dev(3), 3, [("A", "f")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c3"))
        assert set(snap.files[snap.live["f"]].deliveries) == {dev(3)}
        assert len(snap.files) == 1  # the dead incarnation is released

    def test_modify_unknown_path_warns_and_creates(self, caplog):
        recs = [make_record("c1", dev(1), 1, [("M", "ghost.c")])]
        with caplog.at_level("WARNING"):
            snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        assert set(snap.live) == {"ghost.c"}
        assert snap.files[snap.live["ghost.c"]].creator == dev(1)
        assert any("implicit creation" in r.message for r in caplog.records)

    def test_boundary_not_found(self):
        recs = [make_record("c1", dev(1), 1, [("A", "f")])]
        with pytest.raises(BoundaryNotFoundError):
            snapshot_at(recs, ReleaseTag("r", "missing"))

    def test_releases_out_of_stream_order(self):
        recs = [make_record("c1", dev(1), 1, [("A", "f")]),
                make_record("c2", dev(1), 2, [("M", "f")])]
        with pytest.raises(ConfigError, match="'r1'.*'r2'"):
            list(iter_snapshots(recs, [ReleaseTag("r2", "c2"), ReleaseTag("r1", "c1")]))

    def test_two_releases_on_one_boundary(self):
        recs = [make_record("c1", dev(1), 1, [("A", "f")])]
        snaps = list(iter_snapshots(recs, [ReleaseTag("r1", "c1"), ReleaseTag("r2", "c1")]))
        assert [s.release.name for s in snaps] == ["r1", "r2"]
        assert snaps[0].live == snaps[1].live

    def test_repeated_commit_id(self):
        # overlapping logs: c2 would be counted twice
        first = [make_record("c1", dev(1), 1, [("A", "f")]),
                 make_record("c2", dev(1), 2, [("M", "f")])]
        second = [first[1], make_record("c3", dev(2), 3, [("M", "f")])]
        with pytest.raises(AuthormineError, match="'c2' appears twice"):
            list(iter_snapshots(first + second,
                                [ReleaseTag("r1", "c1"), ReleaseTag("r2", "c3")]))

    def test_multi_file_commit_counts_once_per_file(self):
        recs = [make_record("c1", dev(1), 1, [("A", "a"), ("A", "b")])]
        snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        for path in ("a", "b"):
            assert snap.files[snap.live[path]].deliveries[dev(1)] == 1

    def test_boundary_mid_stream(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "a")]),
            make_record("c2", dev(1), 2, [("A", "b")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        assert set(snap.live) == {"a"}


class TestInvariantsAndProperties:
    def test_replay_determinism(self, fixture_records, fixture_releases):
        runs = [
            list(iter_snapshots(fixture_records, fixture_releases))
            for _ in range(2)
        ]
        for first, second in zip(*runs):
            assert first == second
            assert canonical_snapshot_json(first) == canonical_snapshot_json(second)

    def test_monotone_counters(self, fixture_records, fixture_releases):
        snaps = list(iter_snapshots(fixture_records, fixture_releases))
        for earlier, later in zip(snaps, snaps[1:]):
            # a file that died in between is in `earlier` only
            for fid in earlier.files.keys() & later.files.keys():
                state, after = earlier.files[fid], later.files[fid]
                assert after.total_commits >= state.total_commits
                for d, n in state.deliveries.items():
                    assert after.deliveries[d] >= n

    def test_conservation(self):
        rng = random.Random(1234)
        for _ in range(50):
            history = oracles.gen_history(rng)
            records = records_from_oracle(history)
            snap = snapshot_at(records, ReleaseTag("r", records[-1].commit_id))
            for state in snap.files.values():
                assert sum(state.deliveries.values()) == state.total_commits
            for fid in snap.live.values():
                for s in score_file(snap.files[fid])[0]:
                    assert s.dl + s.ac == snap.files[fid].total_commits

    def test_incremental_equals_from_scratch(self, fixture_records, fixture_releases):
        incremental = list(iter_snapshots(fixture_records, fixture_releases))
        for tag, snap in zip(fixture_releases, incremental):
            scratch = snapshot_at(fixture_records, tag)
            assert scratch == snap

    def test_engine_matches_replay_oracle_on_fixture(self, fixture_records,
                                                     fixture_releases):
        oracle_records = oracles.from_package_records(fixture_records)
        for tag in fixture_releases:
            snap = snapshot_at(fixture_records, tag)
            live, incs, _ = oracles.replay(oracle_records, tag.boundary, True)
            assert_views_match(engine_view(snap, compute_authorship(snap)),
                               oracles.authorship_view(live, incs))
            delivered = {d for fc in snap.files.values() for d in fc.deliveries}
            assert delivered == {email for idx in live.values()
                                 for _, (_, email) in incs[idx]["touches"]}


class TestLoaders:
    def test_alias_map_comments_and_lookup(self, tmp_path):
        path = tmp_path / "aliases"
        path.write_text("# comment\nA B <a@X.org> = A Bee <ab@y.org>\n")
        amap = load_alias_map(path)
        assert amap[("A B", "a@x.org")] == DeveloperId("A Bee", "ab@y.org")

    def test_alias_map_bad_line(self, tmp_path):
        path = tmp_path / "aliases"
        path.write_text("no equals sign here\n")
        with pytest.raises(ConfigError):
            load_alias_map(path)

    def test_releases_roundtrip(self, tmp_path):
        path = tmp_path / "releases"
        path.write_text("# comment\nv1 abc\nv2 def\n")
        assert load_releases(path) == [ReleaseTag("v1", "abc"), ReleaseTag("v2", "def")]

    def test_releases_duplicate_name(self, tmp_path):
        path = tmp_path / "releases"
        path.write_text("v1 abc\nv1 def\n")
        with pytest.raises(ConfigError):
            load_releases(path)

    def test_releases_bad_line(self, tmp_path):
        path = tmp_path / "releases"
        path.write_text("v1 abc extra\n")
        with pytest.raises(ConfigError):
            load_releases(path)
