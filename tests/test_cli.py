"""End-to-end CLI behaviour: analyze goldens, queries, exports, exit codes."""

import csv
import gc
import io
import json
import logging
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from authormine import (compute_authorship, iter_snapshots, load_releases,
                        parse_commit_log, resolve_aliases, score_file)
from authormine.cli import main
from authormine.reports import AUTHORSHIP_HEADER, fmt_float
from conftest import (FIXTURE_ALIASES, FIXTURE_LOG, FIXTURE_RELEASES, GOLDEN_DIR)

CSV_NAMES = ["authorship.csv", "workload.csv", "profiles.csv", "network.csv"]


def base_args():
    return ["--log", str(FIXTURE_LOG),
            "--alias-map", str(FIXTURE_ALIASES),
            "--releases", str(FIXTURE_RELEASES),
            "--exclude", "firmware/"]


def run_analyze(out_dir, extra=()):
    return main(["analyze", *base_args(), "-o", str(out_dir), *extra])


class TestAnalyze:
    def test_reproduces_goldens_byte_exact(self, tmp_path):
        assert run_analyze(tmp_path) == 0
        for name in CSV_NAMES + ["manifest.json"]:
            produced = (tmp_path / name).read_bytes()
            golden = (GOLDEN_DIR / name).read_bytes()
            assert produced == golden, f"{name} deviates from golden"

    def test_rerun_is_bit_identical(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert run_analyze(first) == 0
        assert run_analyze(second) == 0
        for name in CSV_NAMES + ["manifest.json"]:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_goldens_under_any_hash_seed(self, tmp_path):
        # sets and dicts keyed by email strings iterate in an order that
        # depends on the interpreter's hash seed; no output may
        src = Path(__file__).resolve().parent.parent / "src"
        for seed in ("0", "12345"):
            out = tmp_path / seed
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "authormine.cli", "analyze", *base_args(),
                 "-o", str(out)], env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            for name in CSV_NAMES + ["manifest.json"]:
                assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), \
                    f"{name} deviates from golden under PYTHONHASHSEED={seed}"

    def test_manifest_outputs_digests_are_consistent(self, tmp_path):
        assert run_analyze(tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        from authormine.reports import sha256_file
        for output in manifest["outputs"]:
            assert sha256_file(tmp_path / output["name"]) == output["sha256"]

    def test_json_mirror(self, tmp_path):
        assert run_analyze(tmp_path, ["--json"]) == 0
        mirror = json.loads((tmp_path / "workload.json").read_text())
        assert mirror[0]["release"] == "v0.1"
        assert mirror[0]["scope"] == "All"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        names = {o["name"] for o in manifest["outputs"]}
        assert "workload.json" in names
        for name in CSV_NAMES:  # each mirror is json.dump of its CSV's rows
            with open(tmp_path / name, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            expected = json.dumps([dict(zip(header, row)) for row in rows],
                                  indent=2, ensure_ascii=False) + "\n"
            mirror = tmp_path / name.replace(".csv", ".json")
            assert mirror.read_bytes() == expected.encode("utf-8"), name
        assert not list(tmp_path.glob(".authormine-*"))  # the stage is gone

    def test_paths_that_need_quoting_across_a_series(self, tmp_path):
        # the text of every file is rendered once and then reused while the
        # file is unchanged: one such path stays unchanged over three
        # releases, one is modified, and one is the target of a rename
        kept = 'docs/ünï,"q".c'
        modified = "drivers/back\\slash\tTab.c"
        renamed = "fs/new\nline€.c"
        commits = [
            ("jürgen@例え.jp", [["A", kept], ["A", modified], ["A", "fs/plain.c"]]),
            ("b@x.org", [["M", modified], ["R", renamed, "fs/plain.c"]]),
            ("c@x.org", [["M", modified], ["A", "a.c"]]),
            ("b@x.org", [["M", renamed]]),
        ]
        log = tmp_path / "log.ndjson"
        log.write_text("".join(
            json.dumps({"id": f"c{i}", "an": "N", "ae": email, "ts": i, "ch": changes}) + "\n"
            for i, (email, changes) in enumerate(commits)), encoding="utf-8")
        releases = tmp_path / "releases.txt"
        releases.write_text('v1 c0\nv2,"rc" c1\nv3 c2\nv4 c3\n', encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--releases", str(releases),
                     "-o", str(out), "--json"]) == 0

        with open(log, "rb") as fh:
            records = list(resolve_aliases(parse_commit_log(fh), {}))
        rows = [AUTHORSHIP_HEADER]
        for snap in iter_snapshots(records, load_releases(releases)):
            for path in sorted(compute_authorship(snap)):
                scores, _ = score_file(snap.files[path])
                rows.extend([snap.release.name, path, s.developer, str(s.fa), str(s.dl),
                             str(s.ac), fmt_float(s.doa_abs), fmt_float(s.doa_norm),
                             str(int(s.is_author))] for s in scores)
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert (out / "authorship.csv").read_bytes() == expected.getvalue().encode("utf-8")
        releases_of = {path: sorted({row[0] for row in rows[1:] if row[1] == path})
                       for path in (kept, modified, renamed)}
        assert releases_of == {kept: ["v1", 'v2,"rc"', "v3", "v4"],
                               modified: ["v1", 'v2,"rc"', "v3", "v4"],
                               renamed: ['v2,"rc"', "v3", "v4"]}
        for name in CSV_NAMES:  # each mirror is json.dump of its CSV's rows
            with open(out / name, encoding="utf-8", newline="") as fh:
                header, *table = csv.reader(fh)
            assert (out / name.replace(".csv", ".json")).read_text(encoding="utf-8") == \
                json.dumps([dict(zip(header, row)) for row in table],
                           indent=2, ensure_ascii=False) + "\n", name

    def test_failed_run_keeps_previous_report(self, tmp_path):
        out = tmp_path / "out"
        assert run_analyze(out, ["--json"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        bad_log = tmp_path / "bad.ndjson"
        good = FIXTURE_LOG.read_text().splitlines()
        bad_log.write_text("\n".join(good[:40] + ["{broken"] + good[40:]) + "\n")
        code = main(["analyze", "--log", str(bad_log), "--releases", str(FIXTURE_RELEASES),
                     "-o", str(out), "--json"])
        assert code == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_run_without_json_removes_stale_mirrors(self, tmp_path):
        assert run_analyze(tmp_path, ["--json"]) == 0
        assert (tmp_path / "workload.json").is_file()
        assert run_analyze(tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = {o["name"] for o in manifest["outputs"]}
        assert listed == set(CSV_NAMES)
        assert {p.name for p in tmp_path.iterdir()} == listed | {"manifest.json"}

    def test_stage_of_a_killed_run_is_swept(self, tmp_path):
        finished = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                                  check=True, capture_output=True, text=True)
        dead = tmp_path / f".authormine-{int(finished.stdout)}-k1ll3d"
        dead.mkdir()
        (dead / "authorship.csv").write_text("partial\n")
        running = tmp_path / f".authormine-{os.getppid()}-runn1ng"
        running.mkdir()
        assert run_analyze(tmp_path) == 0
        assert not dead.exists()
        assert running.is_dir()

    def test_verbose_names_rescored_files(self, tmp_path, caplog, fixture_records,
                                          fixture_releases):
        # a live path is rescored when its counters object changed since the
        # previous release; a re-created file has new counters, even if equal
        expected = []
        previous = {}
        for snap in iter_snapshots(fixture_records, fixture_releases):
            current = snap.files
            changed = sum(previous.get(path) is not counters
                          for path, counters in current.items())
            expected.append(f"release {snap.release.name} done: {changed} of "
                            f"{len(current)} live files rescored")
            previous = current
        with caplog.at_level(logging.INFO, logger="authormine.cli"):
            assert main(["-v", "analyze", *base_args(), "-o", str(tmp_path)]) == 0
        logged = [r.getMessage() for r in caplog.records if r.name == "authormine.cli"]
        assert logged == expected
        assert 0 < int(expected[-1].split()[3]) < len(current)

    @pytest.mark.parametrize("releases,code", [
        ("v0.1 c015\nv0.2 c036\nv0.3 c058\n", 0),
        ("v0.1 c015\nv0.2 absent\n", 1),
    ], ids=["success", "failure"])
    def test_collector_left_as_found(self, tmp_path, releases, code):
        # a command runs with the collector off, so no collection of any
        # generation runs during it; a caller gets the collector back as it
        # was, enabled or not, whether the run succeeds or fails
        path = tmp_path / "releases.txt"
        path.write_text(releases, encoding="utf-8")
        args = ["analyze", *base_args(), "--releases", str(path), "-o", str(tmp_path / "out")]
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                gc.collect()  # so that no collection is due before the run
                before = sum(stats["collections"] for stats in gc.get_stats())
                assert main(args) == code
                # read before anything allocates: a collection is due now
                after = gc.get_stats()
                assert gc.isenabled() is enabled
            finally:
                gc.enable()
            assert sum(stats["collections"] for stats in after) == before

    def test_cyclic_garbage_does_not_grow_with_releases(self, tmp_path):
        # with the collector off for a run, only reference counting frees
        # what it drops: what the collector finds afterwards must not grow
        # from a run to the first release to a run to the last
        path = tmp_path / "releases.txt"
        found = []
        for releases in ("v0.1 c015\n", "v0.1 c015\nv0.2 c036\nv0.3 c058\n"):
            path.write_text(releases, encoding="utf-8")
            gc.collect()
            gc.disable()
            try:
                assert main(["analyze", *base_args(), "--releases", str(path),
                             "-o", str(tmp_path / "out")]) == 0
                found.append(gc.collect())
            finally:
                gc.enable()
        assert found[1] <= found[0]

    def test_second_call_leaves_no_parser_garbage(self, tmp_path):
        # the parser is built once per process: a second call, with the
        # collector off, leaves no argparse object for it to find
        for _ in range(2):
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                assert run_analyze(tmp_path / "out") == 0
                gc.collect()
                modules = {type(obj).__module__ for obj in gc.garbage}
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
        assert "argparse" not in modules

    def test_caller_frozen_objects_stay_frozen(self, tmp_path):
        # an in-process caller that froze its own objects gets them back frozen
        gc.freeze()
        try:
            before = gc.get_freeze_count()
            assert before > 0
            assert run_analyze(tmp_path / "out") == 0
            assert gc.get_freeze_count() >= before
        finally:
            gc.unfreeze()

    def test_missing_releases_file_fails_fast(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--log", str(FIXTURE_LOG),
                     "--releases", str(tmp_path / "nope.txt"), "-o", str(out)])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flag,value,message", [
        ("--norm-floor", "0", "normalized_floor must be in (0, 1]"),
        ("--abs-floor", "nan", "absolute_floor must be finite and positive"),
        ("--abs-floor", "inf", "absolute_floor must be finite and positive"),
    ], ids=["norm-floor-0", "abs-floor-nan", "abs-floor-inf"])
    def test_invalid_threshold_is_config_error(self, tmp_path, capsys, flag, value,
                                               message):
        code = main(["analyze", *base_args(), "-o", str(tmp_path), flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"authormine: configuration error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_help_names_the_default_floors(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "strictly above (default 0.75)" in text
        assert "inclusive (default 3.293)" in text

    def test_malformed_log_cleans_outputs(self, tmp_path):
        bad_log = tmp_path / "bad.ndjson"
        good = FIXTURE_LOG.read_text().splitlines()
        bad_log.write_text("\n".join(good[:10] + ["{broken"] + good[10:]) + "\n")
        out = tmp_path / "out"
        code = main(["analyze", "--log", str(bad_log),
                     "--releases", str(FIXTURE_RELEASES), "-o", str(out)])
        assert code == 1
        assert not any(out.glob("*.csv"))
        assert not (out / "manifest.json").exists()
        assert not list(out.iterdir())  # no staging directory left either

    def test_boundary_emptied_by_exclusion_closes_release(self, tmp_path):
        log = tmp_path / "log.ndjson"
        log.write_text("".join(json.dumps(
            {"id": cid, "an": name, "ae": f"{name.lower()}@x.org", "ts": ts, "ch": ch}) + "\n"
            for cid, name, ts, ch in [
                ("c1", "Ann", 1, [["A", "kernel/a.c"]]),
                ("c2", "Bob", 2, [["M", "kernel/a.c"]]),
                ("c3", "Cat", 3, [["A", "firmware/blob.bin"]]),
            ]))
        releases = tmp_path / "releases.txt"
        releases.write_text("r1 c1\nr2 c3\n")
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--releases", str(releases),
                     "--exclude", "firmware/", "-o", str(out)]) == 0
        rows = (out / "authorship.csv").read_text().splitlines()
        assert [row.split(",")[:6] for row in rows[1:]] == [
            ["r1", "kernel/a.c", "ann@x.org", "1", "1", "0"],
            ["r2", "kernel/a.c", "ann@x.org", "1", "1", "1"],
            ["r2", "kernel/a.c", "bob@x.org", "0", "1", "1"],
        ]

    def test_empty_commit_closes_release(self, tmp_path):
        log = tmp_path / "log.ndjson"
        log.write_text(
            '{"id":"c1","an":"Ann","ae":"ann@x.org","ts":1,"ch":[["A","kernel/a.c"]]}\n'
            '{"id":"c2","an":"Bob","ae":"bob@x.org","ts":2,"ch":[]}\n')
        releases = tmp_path / "releases.txt"
        releases.write_text("r1 c2\n")
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--releases", str(releases),
                     "-o", str(out)]) == 0
        rows = (out / "authorship.csv").read_text().splitlines()
        assert [row.split(",")[:6] for row in rows[1:]] == [
            ["r1", "kernel/a.c", "ann@x.org", "1", "1", "0"]]
        network = (out / "network.csv").read_text().splitlines()
        assert network[1].startswith("r1,All,1,0,")  # Bob is no developer of a.c

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("AUTHORMINE_OUTPUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", *base_args()]) == 0
        assert (target / "workload.csv").exists()


class TestAuthors:
    def test_sole_creator(self, capsys):
        code = main(["authors", *base_args(), "lib/string.c", "--release", "v0.3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["alice@example.org,4.555000,1.000000"]

    def test_two_authors_sorted_by_norm(self, capsys):
        code = main(["authors", *base_args(), "net/core/dev.c", "--release", "v0.3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("dan@example.org,")
        assert lines[1].startswith("carol@example.org,")
        norms = [float(line.split(",")[2]) for line in lines]
        assert norms == sorted(norms, reverse=True)

    @pytest.mark.parametrize("spelling", ["./Documentation/guide.rst",
                                          "Documentation//guide.rst"])
    def test_path_is_normalised_like_ingest(self, spelling, capsys):
        code = main(["authors", *base_args(), spelling, "--release", "v0.3"])
        assert code == 0
        assert capsys.readouterr().out == "eve@example.org,4.555000,1.000000\n"

    def test_deleted_file_not_live(self, tmp_path, capsys):
        # sound/pci/hda.c is deleted at c032; query the release before re-creation
        releases = tmp_path / "releases.txt"
        releases.write_text("vdel c032\n")
        code = main(["authors", "--log", str(FIXTURE_LOG),
                     "--alias-map", str(FIXTURE_ALIASES),
                     "--releases", str(releases), "--exclude", "firmware/",
                     "sound/pci/hda.c", "--release", "vdel"])
        assert code == 1
        assert "not live at vdel" in capsys.readouterr().err

    def test_email_that_needs_quoting(self, tmp_path, capsys):
        # an RFC 5322 quoted local part may hold a comma and quotes
        odd = '"a,b"@x.org'
        log = tmp_path / "log.ndjson"
        log.write_text("".join(json.dumps(
            {"id": cid, "an": "A", "ae": email, "ts": ts, "ch": [[kind, "kernel/a.c"]]}) + "\n"
            for cid, email, ts, kind in [("c1", odd, 1, "A"), ("c2", "bob@x.org", 2, "M"),
                                         ("c3", odd, 3, "M")]))
        releases = tmp_path / "releases.txt"
        releases.write_text("r1 c3\n")
        args = ["--log", str(log), "--releases", str(releases)]
        assert main(["analyze", *args, "-o", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "authorship.csv", newline="") as fh:
            authors = [row["developer_email"] for row in csv.DictReader(fh)
                       if row["is_author"] == "1"]
        capsys.readouterr()
        assert main(["authors", *args, "kernel/a.c", "--release", "r1"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert sorted(row[0] for row in rows) == sorted(authors)
        assert rows[0][0] == odd and len(rows[0]) == 3

    def test_unknown_release(self, capsys):
        code = main(["authors", *base_args(), "README", "--release", "v9.9"])
        assert code == 1
        assert "v9.9" in capsys.readouterr().err


class TestStatsAndNetwork:
    def test_stats_stdout_matches_golden(self, capsys):
        assert main(["stats", *base_args()]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / "workload.csv").read_text()

    def test_stats_release_filter(self, capsys):
        assert main(["stats", *base_args(), "--release", "v0.2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 7  # header + seven scopes
        assert all(line.startswith("v0.2,") for line in lines[1:])

    def test_network_stdout_matches_golden(self, capsys):
        assert main(["network", *base_args()]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "network.csv").read_text()

    def test_network_exports(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        pajek = tmp_path / "graph.net"
        code = main(["network", *base_args(), "--release", "v0.3",
                     "--edges", str(edges), "--graph", str(pajek)])
        assert code == 0
        capsys.readouterr()
        edge_lines = edges.read_text().splitlines()
        assert edge_lines[0] == "author_a,author_b,shared_files"
        assert "alice@example.org,eve@example.org,2" in edge_lines
        pajek_text = pajek.read_text()
        assert pajek_text.startswith("*Vertices 6")
        assert "*Edges" in pajek_text

    def test_graph_labels_escaped(self, tmp_path, capsys):
        # a quote or a backslash in an email must not end the quoted label
        emails = ['a"q@x.org', "b\\q@x.org", 'c\\"@x.org']
        log = tmp_path / "log.ndjson"
        log.write_text("".join(
            json.dumps({"id": f"c{i}", "an": "N", "ae": email, "ts": i,
                        "ch": [["A", f"f{i}.c"]]}) + "\n"
            for i, email in enumerate(emails)))
        releases = tmp_path / "releases.txt"
        releases.write_text("r c2\n")
        pajek = tmp_path / "graph.net"
        assert main(["network", "--log", str(log), "--releases", str(releases),
                     "--release", "r", "--graph", str(pajek)]) == 0
        capsys.readouterr()
        lines = pajek.read_text().splitlines()
        assert lines[0] == "*Vertices 3"
        assert [shlex.split(line) for line in lines[1:4]] == \
            [[str(i), email] for i, email in enumerate(emails, 1)]

    def test_network_scope_export(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        code = main(["network", *base_args(), "--release", "v0.3",
                     "--scope", "Net", "--edges", str(edges)])
        assert code == 0
        capsys.readouterr()
        lines = edges.read_text().splitlines()
        assert lines[1:] == ["carol@example.org,dan@example.org,1"]

    def test_network_unknown_scope(self, capsys):
        code = main(["network", *base_args(), "--release", "v0.3",
                     "--scope", "Bogus"])
        assert code == 2
        capsys.readouterr()

    def test_network_scope_requires_export(self, capsys):
        # without an export, --scope would be ignored and every scope printed
        code = main(["network", *base_args(), "--release", "v0.3", "--scope", "Net"])
        assert code == 2
        assert "--scope requires an --edges or --graph export" in capsys.readouterr().err

    def test_export_requires_release(self, tmp_path, capsys):
        code = main(["network", *base_args(), "--edges", str(tmp_path / "e.csv")])
        assert code == 2
        capsys.readouterr()


class TestExportLogHelper:
    def test_prints_invocation(self, capsys):
        assert main(["export-log-helper"]) == 0
        script = capsys.readouterr().out
        assert "git" in script and "--topo-order" in script
        assert "--no-merges" not in script  # merges close releases too
        assert "--name-status" in script and "--reverse" in script
        assert "%an" in script and "%ae" in script
