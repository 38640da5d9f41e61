"""Subsystem classification rules and live-file partitioning."""

import re

import pytest
from hypothesis import assume, given, settings

from authormine import (ConfigError, ReleaseTag, SubsystemRules, default_rules,
                        load_rules, make_rules, scope_partition)
from authormine.patterns import pattern_regex
from helpers import (PATHS_NEAR_PATTERNS, PATTERNS, dev, make_record, reference_match,
                     snapshot_at)


class TestClassify:
    @pytest.mark.parametrize("path,label", [
        ("drivers/net/e1000/e1000_main.c", "Driver"),
        ("sound/pci/hda.c", "Driver"),
        ("arch/x86/mm/init.c", "Arch"),
        ("fs/ext4/inode.c", "Fs"),
        ("net/ipv4/tcp.c", "Net"),
        ("kernel/sched/core.c", "Core"),
        ("include/linux/sched.h", "Core"),
        ("README", "Misc"),
        ("Documentation/admin.rst", "Misc"),
    ])
    def test_default_rules(self, path, label):
        assert default_rules().classify(path) == label

    def test_empty_rules_fall_back(self):
        rules = make_rules([], "Everything")
        assert rules.classify("any/path/at/all.c") == "Everything"

    def test_first_match_wins_order_sensitivity(self):
        forward = make_rules([("a/", "First"), ("a/b/", "Second")], "Misc")
        reversed_ = make_rules([("a/b/", "Second"), ("a/", "First")], "Misc")
        assert forward.classify("a/b/x.c") == "First"
        assert reversed_.classify("a/b/x.c") == "Second"

    @settings(max_examples=200, deadline=None)
    @given(PATTERNS, PATHS_NEAR_PATTERNS)
    def test_first_match_equals_reference(self, patterns, paths):
        try:
            rules = make_rules([(p, f"L{i}") for i, p in enumerate(patterns)], "Rest")
        except ConfigError:
            assume(False)
        for path in paths:
            expected = next((f"L{i}" for i, p in enumerate(patterns)
                             if reference_match(p, path)), "Rest")
            assert rules.classify(path) == expected

    def test_labels_order_fallback_last(self):
        rules = make_rules([("x/", "X"), ("y/", "Y"), ("z/", "X")], "Rest")
        assert rules.labels == ("X", "Y", "Rest")


def snapshot_with_paths(paths):
    records = [make_record(f"c{i}", dev(1), i, [("A", p)])
               for i, p in enumerate(paths, 1)]
    return snapshot_at(records, ReleaseTag("r", f"c{len(paths)}"))


class TestSubsystemSizes:
    """Live files per label, read from the scope partition."""

    def test_even_split(self):
        snap = snapshot_with_paths(
            ["drivers/a.c", "drivers/b.c", "fs/a.c", "fs/b.c"])
        partition = scope_partition(snap.files, default_rules())
        assert len(partition["Driver"]) == len(partition["Fs"]) == 2
        assert partition["Core"] == []

    def test_all_misc(self):
        snap = snapshot_with_paths(["README", "COPYING"])
        partition = scope_partition(snap.files, default_rules())
        assert len(partition["Misc"]) == len(partition[None]) == 2


class TestScopePartition:
    def test_partition_is_exact(self, fixture_records, fixture_releases):
        snap = snapshot_at(fixture_records, fixture_releases[-1])
        partition = scope_partition(snap.files, default_rules())
        all_paths = partition.pop(None)
        assert all_paths == sorted(snap.files)
        scoped = [path for paths in partition.values() for path in paths]
        assert sorted(scoped) == all_paths  # each file in exactly one label

    def test_order_follows_live_paths(self):
        snap = snapshot_with_paths(["b/z.c", "a/x.c"])
        partition = scope_partition(snap.files, make_rules([], "All-in-one"))
        assert partition[None] == ["a/x.c", "b/z.c"]


class TestLoadRules:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# comment\narch/\tArch\nfallback\tMisc\n")
        rules = load_rules(path)
        assert rules.classify("arch/x.c") == "Arch"
        assert rules.classify("other") == "Misc"

    def test_missing_fallback(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("arch/\tArch\n")
        with pytest.raises(ConfigError):
            load_rules(path)

    def test_duplicate_fallback(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("fallback\tA\nfallback\tB\n")
        with pytest.raises(ConfigError):
            load_rules(path)

    @pytest.mark.parametrize("text,line_no", [
        ("drivers/\tAll\nfallback\tMisc\n", 1),
        ("# comment\ndrivers/\tDriver\nfallback\tAll\n", 3),
    ], ids=["pattern", "fallback"])
    def test_label_all_reserved(self, tmp_path, text, line_no):
        # a rule's scope named All could not be told from the whole tree's
        path = tmp_path / "rules.tsv"
        path.write_text(text)
        message = f"{path}: line {line_no}: label 'All' is reserved for the whole tree"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_rules(path)

    @pytest.mark.parametrize("pairs,fallback", [
        ([("drivers/", "All")], "Misc"),
        ([("drivers/", "Driver")], "All"),
    ], ids=["pattern", "fallback"])
    def test_label_all_reserved_without_a_file(self, pairs, fallback):
        message = "label 'All' is reserved for the whole tree"
        with pytest.raises(ValueError, match=message):
            make_rules(pairs, fallback)
        compiled = tuple((re.compile(pattern_regex(pattern)), label)
                         for pattern, label in pairs)
        with pytest.raises(ValueError, match=message):
            SubsystemRules(compiled, fallback)

    def test_replace_checks_too(self):
        rules = make_rules([("drivers/", "Driver")], "Misc")
        with pytest.raises(ValueError, match="label 'All' is reserved"):
            rules._replace(fallback="All")
        with pytest.raises(ValueError, match="label 'All' is reserved"):
            SubsystemRules._make((rules.rules, "All"))
        assert rules._replace(fallback="Other").labels == ("Driver", "Other")

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("arch/ Arch\n")
        with pytest.raises(ConfigError):
            load_rules(path)

    def test_glob_pattern_rule(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("*.rst\tDocs\nfallback\tMisc\n")
        rules = load_rules(path)
        assert rules.classify("Documentation/guide.rst") == "Docs"
        assert rules.classify("README") == "Misc"
