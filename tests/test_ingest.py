"""Parser, alias resolution, path filters and snapshot accumulation."""

import io
import json
import posixpath
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from authormine import (AuthormineError, BoundaryNotFoundError, ChangeKind, ConfigError,
                        DeveloperId, FileChange, FileCounters, LogParseError,
                        LogSchemaError, ReleaseTag, apply_path_filters, compute_authorship,
                        iter_snapshots, load_alias_map, load_releases, parse_commit_log,
                        resolve_aliases, score_file)
from authormine.ingest import _is_plain
from authormine.patterns import PathMatcher
import oracles
from conftest import FIXTURE_ALIASES
from helpers import (PATHS_NEAR_PATTERNS, PATTERNS, assert_views_match,
                     canonical_snapshot_json, dev, engine_view, make_record,
                     records_from_oracle, reference_match, snapshot_at)


def parse(text):
    return list(parse_commit_log(io.StringIO(text)))


def reference_parse(lines):
    """The log format's checks one at a time, in their order, with
    `json.loads` on every line and `posixpath.normpath` on every path."""

    def require(obj, name, line_no):
        if name not in obj:
            raise LogSchemaError("missing required field", line_no, name)
        return obj[name]

    def norm(raw, line_no):
        if not isinstance(raw, str) or not raw:
            raise LogSchemaError("change path must be a non-empty string", line_no, "ch")
        path = posixpath.normpath(raw)
        if path.startswith("/") or path in (".", "..") or path.startswith("../") \
                or "\r" in path:
            raise LogSchemaError(f"illegal path {raw!r}", line_no, "ch")
        return path

    def change(entry, line_no):
        if not isinstance(entry, list) or not entry:
            raise LogSchemaError("change entry must be a non-empty array", line_no, "ch")
        code = entry[0]
        if code not in ("A", "M", "D", "R") or not isinstance(code, str):
            raise LogSchemaError(f"unknown change kind {code!r}", line_no, "ch")
        if code == "R":
            if len(entry) != 3:
                raise LogSchemaError("rename entry must be [\"R\", new, old]", line_no, "ch")
            return (code, norm(entry[1], line_no), norm(entry[2], line_no))
        if len(entry) != 2:
            raise LogSchemaError("change entry must be [kind, path]", line_no, "ch")
        return (code, norm(entry[1], line_no), None)

    out = []
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogParseError(f"invalid JSON: {exc.msg}", line_no) from exc
        if not isinstance(obj, dict):
            raise LogSchemaError("record must be a JSON object", line_no, "record")
        commit_id = require(obj, "id", line_no)
        if not isinstance(commit_id, str) or not commit_id:
            raise LogSchemaError("must be a non-empty string", line_no, "id")
        name = require(obj, "an", line_no)
        if not isinstance(name, str):
            raise LogSchemaError("must be a string", line_no, "an")
        email = require(obj, "ae", line_no)
        if not isinstance(email, str):
            raise LogSchemaError("must be a string", line_no, "ae")
        if "\r" in email or "\n" in email:
            raise LogSchemaError("must not contain a line break", line_no, "ae")
        ts = require(obj, "ts", line_no)
        if isinstance(ts, bool) or not isinstance(ts, int):
            raise LogSchemaError("must be an integer", line_no, "ts")
        ch = require(obj, "ch", line_no)
        if not isinstance(ch, list):
            raise LogSchemaError("must be an array", line_no, "ch")
        out.append((commit_id, name, email, ts, [change(e, line_no) for e in ch]))
    return out


def plain_parse(lines):
    """`parse_commit_log`'s records in `reference_parse`'s form.  Each
    change must be a `FileChange` equal to the one its checking
    constructor builds, which the parser bypasses."""
    records = list(parse_commit_log(lines))
    for r in records:
        for c in r.changes:
            assert type(c) is FileChange and c == FileChange(c.kind, c.path, c.old_path)
    return [(r.commit_id, r.author.name, r.author.email, r.timestamp,
             [(c.kind.value, c.path, c.old_path) for c in r.changes])
            for r in records]


def outcome(parser, lines):
    """What a parser makes of `lines`: its records, or its error."""
    try:
        return parser(lines)
    except LogParseError as exc:
        return (type(exc), str(exc), exc.line_no, getattr(exc, "field", None))


# paths drawn from the characters normpath and the path checks look at
PATH_TEXT = st.text(alphabet="/.\ra", max_size=8) | st.text(alphabet="/.ab-", max_size=12)
EDGE_PATHS = ["a/./b", "a/.", "a//b", "./a", "a/", "/a", "a/..", "a/../..", "..", ".",
              "a\rb", ".cfg", "a/.cfg", "a..b"]
PATHS = PATH_TEXT | st.sampled_from(EDGE_PATHS + [None, 1, ["a"]])
CODES = st.sampled_from(["A", "M", "D", "R", "X", "", 1, None, ["A"]])
ENTRIES = st.one_of(
    st.tuples(CODES, PATHS).map(list),
    st.tuples(CODES, PATHS, PATHS).map(list),
    st.lists(PATHS, max_size=1),
    st.sampled_from(["A", None, {"A": "f"}]))
MISSING = object()
# (field, value) pairs that replace a field of a valid record, or remove it
OVERRIDES = [(name, value) for name, values in {
    "id": ["c2", "", 1, None, ["c1"]],
    "an": ["", 1, ["x"], {"a": 1}, None],
    "ae": [" A@X ", "", "a\r@x", "a\n@x", 2.5, ["x"], {"a": 1}],
    "ts": [0, -5, 2**70, True, "1", 1.5, None],
    "ch": ["x", {}, None],
}.items() for value in [*values, MISSING]]


def record_with(changes, overrides):
    record = {"id": "c1", "an": "Ann", "ae": "a@x", "ts": 1, "ch": changes}
    for name, value in overrides:
        record[name] = value
    return {name: value for name, value in record.items() if value is not MISSING}


RECORDS = st.builds(record_with, st.lists(ENTRIES, max_size=3),
                    st.lists(st.sampled_from(OVERRIDES), max_size=2))
# text around a record: JSON whitespace, other whitespace, a BOM, junk
PADDING = st.sampled_from(["", " ", "\t", "\r", "\n", "  \n", "\xa0", "\x0c", "\ufeff",
                           "x", "}", "[]"])
LINES = st.one_of(
    st.tuples(PADDING, RECORDS, PADDING).map(lambda t: t[0] + json.dumps(t[1]) + t[2]),
    PADDING,
    st.sampled_from(["[1]", '"s"', "{", '{"id":', "null"]))


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

    @pytest.mark.parametrize("name", ["an", "ae"])
    @pytest.mark.parametrize("value", [["x"], {"a": 1}, 3], ids=["list", "object", "number"])
    def test_identity_field_of_wrong_type(self, name, value):
        record = {"id": "a1", "an": "A", "ae": "a@x", "ts": 1, "ch": []}
        record[name] = value
        with pytest.raises(LogSchemaError) as exc:
            parse(json.dumps(record))
        assert (exc.value.field, exc.value.line_no) == (name, 1)
        assert str(exc.value) == f"line 1: field '{name}': must be a string"

    @pytest.mark.parametrize("bad,missing", [
        ("id", "an"), ("an", "ae"), ("ae", "ts"), ("ts", "ch")])
    def test_first_fault_in_field_order_is_reported(self, bad, missing):
        record = {"id": "a1", "an": "A", "ae": "a@x", "ts": 1, "ch": []}
        record[bad] = "1" if bad == "ts" else 1
        del record[missing]
        with pytest.raises(LogSchemaError) as exc:
            parse('{"id":"a0","an":"A","ae":"a@x","ts":1,"ch":[]}\n' + json.dumps(record))
        assert (exc.value.field, exc.value.line_no) == (bad, 2)

    @pytest.mark.parametrize("override", OVERRIDES, ids=[
        f"{name}={'missing' if value is MISSING else json.dumps(value)}"
        for name, value in OVERRIDES])
    def test_one_field_override_equals_reference_parser(self, override):
        lines = [json.dumps(record_with([["A", "f.c"]], [override]))]
        assert outcome(plain_parse, lines) == outcome(reference_parse, lines)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(LINES, max_size=4))
    def test_equals_reference_parser(self, lines):
        lines = [line + "\n" for line in lines]
        assert outcome(plain_parse, lines) == outcome(reference_parse, lines)

    @settings(max_examples=500, deadline=None)
    @given(PATH_TEXT | st.text(max_size=6) | st.sampled_from(EDGE_PATHS))
    def test_path_checks_equal_normpath_then_checks(self, path):
        if _is_plain(path):  # the parser then skips normpath
            assert posixpath.normpath(path) == path
        for entry in (["M", path], ["R", path, "a"], ["R", "a", path]):
            lines = [json.dumps({"id": "a", "an": "A", "ae": "a@x", "ts": 1, "ch": [entry]})]
            assert outcome(plain_parse, lines) == outcome(reference_parse, lines)

    @pytest.mark.parametrize("dump", [
        lambda obj: json.dumps(obj, separators=(",", ":")),  # as gen_history.py writes
        lambda obj: json.dumps(obj, ensure_ascii=False),  # as export_log.sh writes
    ], ids=["compact", "export"])
    def test_well_formed_line_skips_json_loads(self, monkeypatch, dump):
        # a scanner path that fell back on every line would keep every output
        # and lose its gain; json.loads is for the lines the scanner leaves
        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called on a well-formed line")

        monkeypatch.setattr("authormine.ingest.json.loads", refuse)
        obj = {"id": "a1", "an": "Åda", "ae": "ada@x.org", "ts": 100,
               "ch": [["A", "f.c"], ["M", "g.c"], ["R", "h.c", "f.c"]]}
        line = dump(obj) + "\n"
        for stream in ([line], [line.encode("utf-8")]):
            assert plain_parse(stream) == [("a1", "Åda", "ada@x.org", 100, [
                ("A", "f.c", None), ("M", "g.c", None), ("R", "h.c", "f.c")])]

    def test_one_identity_object_per_raw_identity(self):
        (first, second, other) = parse("\n".join(
            json.dumps({"id": f"c{i}", "an": name, "ae": "a@x", "ts": 1, "ch": []})
            for i, name in enumerate(["A", "A", "B"])))
        assert first.author is second.author
        assert other.author == first.author and other.author.name == "B"

    def test_timestamp_regression_warns_once(self, caplog):
        lines = "\n".join(
            json.dumps({"id": f"c{i}", "an": "A", "ae": "a@x", "ts": ts,
                        "ch": [["M", "f.c"]]})
            for i, ts in enumerate([30, 10, 5]))
        with caplog.at_level("WARNING"):
            records = parse(lines)
        assert len(records) == 3  # skew tolerated, nothing dropped
        assert sum("earlier than" in r.message for r in caplog.records) == 1


class TestFileChange:
    @pytest.mark.parametrize("kind,old_path", [
        (ChangeKind.RENAME, None), (ChangeKind.ADD, "b"), (ChangeKind.MODIFY, "b"),
        (ChangeKind.DELETE, "b")])
    def test_old_path_exactly_for_renames(self, kind, old_path):
        with pytest.raises(ValueError, match="old_path must be present exactly for renames"):
            FileChange(kind, "a", old_path)

    def test_fields(self):
        change = FileChange(ChangeKind.RENAME, "b", "a")
        assert (change.kind, change.path, change.old_path) == (ChangeKind.RENAME, "b", "a")
        assert FileChange(ChangeKind.ADD, "a").old_path is None

    def test_replace_and_make_check_too(self):
        rename = FileChange(ChangeKind.RENAME, "b", "a")
        with pytest.raises(ValueError, match="old_path must be present exactly"):
            rename._replace(old_path=None)
        with pytest.raises(ValueError, match="old_path must be present exactly"):
            FileChange._make((ChangeKind.ADD, "a", "b"))
        assert rename._replace(path="c") == FileChange(ChangeKind.RENAME, "c", "a")


class TestDeveloperId:
    @given(st.tuples(st.sampled_from(["Ada", "Ann", ""]), st.sampled_from(["a@x", "b@x"])),
           st.tuples(st.sampled_from(["Ada", "Ann", ""]), st.sampled_from(["a@x", "b@x"])))
    def test_equal_exactly_when_the_emails_are(self, first, second):
        x, y = DeveloperId(*first), DeveloperId(*second)
        assert (x == y) == (first[1] == second[1])
        assert (x != y) == (not x == y)
        if x == y:
            assert hash(x) == hash(y)
        # never equal to its own (name, email), from either side
        assert x != first and not x == first and first != x

    def test_has_no_order(self):
        with pytest.raises(TypeError):
            DeveloperId("Ada", "a@x") < DeveloperId("Ann", "b@x")


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
        assert snap.files["a.c"] == FileCounters("ann@x.org", 2, {"ann@x.org": 2})

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
        assert snap.files["a.c"] == FileCounters("b@x.org", 2, {"b@x.org": 2})


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

    @settings(max_examples=300, deadline=None)
    @given(PATTERNS, PATHS_NEAR_PATTERNS)
    def test_compiled_matcher_equals_its_rules(self, patterns, paths):
        try:
            matcher = PathMatcher(patterns)
        except ConfigError:
            assume(False)
        for path in paths:
            assert bool(matcher.match(path)) == \
                any(reference_match(pattern, path) for pattern in patterns)

    def test_invalid_pattern_is_config_error(self):
        with pytest.raises(ConfigError):
            list(apply_path_filters([], [""]))


class TestSnapshotAt:
    def test_single_add(self):
        recs = [make_record("c1", dev(1), 1, [("A", "f")])]
        snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        assert set(snap.files) == {"f"}
        assert snap.files["f"] == FileCounters(dev(1), 1, {dev(1): 1})

    def test_delete_releases_file(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "f")]),
            make_record("c2", dev(2), 2, [("D", "f")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c2"))
        assert snap.files == {}

    def test_rename_follow_carries_counters(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "a")]),
            make_record("c2", dev(2), 2, [("R", "b", "a")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c2"))
        assert set(snap.files) == {"b"}
        assert snap.files["b"] == \
            FileCounters(dev(1), 2, {dev(1): 1, dev(2): 1})

    def test_rename_nofollow_resets_counters(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "a")]),
            make_record("c2", dev(2), 2, [("R", "b", "a")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c2"), follow_renames=False)
        counters = snap.files["b"]
        assert set(counters.deliveries) == {dev(2)}
        assert counters.creator == dev(2)

    def test_recreation_gets_fresh_counters(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "f")]),
            make_record("c2", dev(2), 2, [("D", "f")]),
            make_record("c3", dev(3), 3, [("A", "f")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c3"))
        assert set(snap.files["f"].deliveries) == {dev(3)}
        assert len(snap.files) == 1  # the dead incarnation is released

    def test_delete_unknown_path_warns_and_counts_nothing(self, caplog):
        recs = [make_record("c1", dev(1), 1, [("D", "ghost.c")]),
                make_record("c2", dev(2), 2, [("A", "ghost.c")])]
        with caplog.at_level("WARNING"):
            first, second = iter_snapshots(recs, [ReleaseTag("r1", "c1"),
                                                  ReleaseTag("r2", "c2")])
        assert [r.message for r in caplog.records] == [
            "commit c1 deletes unknown path ghost.c; treating as an implicit "
            "creation (truncated history?)"]
        assert first.files == {}
        assert second.files == {"ghost.c": FileCounters(dev(2), 1, {dev(2): 1})}

    def test_modify_unknown_path_warns_and_creates(self, caplog):
        recs = [make_record("c1", dev(1), 1, [("M", "ghost.c")])]
        with caplog.at_level("WARNING"):
            snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        assert set(snap.files) == {"ghost.c"}
        assert snap.files["ghost.c"].creator == dev(1)
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
        assert snaps[0].files == snaps[1].files

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
            assert snap.files[path].deliveries[dev(1)] == 1

    @pytest.mark.parametrize("follow", [True, False], ids=["follow", "nofollow"])
    @pytest.mark.parametrize("before,changes", [
        ([("A", "x")], [("A", "a"), ("M", "a")]),
        ([("A", "a")], [("M", "a"), ("M", "a")]),
        ([("A", "a")], [("R", "b", "a"), ("M", "b")]),
        ([("A", "a")], [("M", "a"), ("R", "b", "a")]),
        ([("A", "a")], [("D", "a"), ("A", "a")]),
    ], ids=["add-modify", "modify-modify", "rename-modify", "modify-rename",
            "delete-add"])
    def test_commit_naming_one_file_twice(self, follow, before, changes):
        # c3 repeats the changes, so each file meets a second commit of dev(2)
        recs = [make_record("c1", dev(1), 1, before),
                make_record("c2", dev(2), 2, changes),
                make_record("c3", dev(2), 3, changes)]
        releases = [ReleaseTag("r2", "c2"), ReleaseTag("r3", "c3")]
        oracle_records = oracles.from_package_records(recs)
        for snap in iter_snapshots(recs, releases, follow):
            live, incs, _ = oracles.replay(oracle_records, snap.release.boundary, follow)
            expected = {}
            for path, idx in live.items():
                touches = incs[idx]["touches"]
                commits = {}
                for cid, (_, email) in touches:
                    commits.setdefault(email, set()).add(cid)
                expected[path] = (len({cid for cid, _ in touches}),
                                  {email: len(cids) for email, cids in commits.items()})
            assert {path: (fc.total_commits, fc.deliveries)
                    for path, fc in snap.files.items()} == expected

    def test_boundary_mid_stream(self):
        recs = [
            make_record("c1", dev(1), 1, [("A", "a")]),
            make_record("c2", dev(1), 2, [("A", "b")]),
        ]
        snap = snapshot_at(recs, ReleaseTag("r", "c1"))
        assert set(snap.files) == {"a"}


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
        ids = [record.commit_id for record in fixture_records]
        for earlier, later in zip(snaps, snaps[1:]):
            # each file of `earlier` at its path in `later`, following moves;
            # a file that died in between, deleted or moved onto, is dropped
            where = {path: path for path in earlier.files}
            start, end = (ids.index(s.release.boundary) + 1 for s in (earlier, later))
            for record in fixture_records[start:end]:
                for kind, path, old_path in record.changes:
                    if kind is ChangeKind.DELETE:
                        where.pop(path, None)
                    elif kind is ChangeKind.RENAME:
                        where.pop(path, None)
                        if old_path in where:
                            where[path] = where.pop(old_path)
            assert where
            for path, origin in where.items():
                state, after = earlier.files[origin], later.files[path]
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
                for s in score_file(state)[0]:
                    assert s.dl + s.ac == state.total_commits

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
