"""Integration test for the bundled git-to-NDJSON export script."""

import io
import os
import shutil
import subprocess

import pytest

from authormine import ChangeKind, ReleaseTag, default_rules, parse_commit_log, scope_partition
from authormine.cli import main
from helpers import snapshot_at

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="git not available")


def git(repo, *args, env=None):
    subprocess.run(["git", "-C", str(repo), *args], check=True,
                   capture_output=True, env=env)


@pytest.fixture
def tiny_repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    git(repo, "config", "user.name", "Test Author")
    git(repo, "config", "user.email", "test@example.org")
    (repo / "src").mkdir()
    (repo / "src" / "a.c").write_text("a\n")
    git(repo, "add", ".")
    git(repo, "commit", "-qm", "one")
    (repo / "src" / "b.c").write_text("b\n")
    git(repo, "add", ".")
    git(repo, "commit", "-qm", "two")
    (repo / "src" / "a.c").write_text("a2\n")
    git(repo, "commit", "-qam", "three")
    git(repo, "mv", "src/b.c", "src/c.c")
    git(repo, "commit", "-qm", "four")
    git(repo, "rm", "-q", "src/a.c")
    git(repo, "commit", "-qm", "five")
    return repo


def export(repo, tmp_path, capsys):
    """Run the printed export script on a repository: (stdout, stderr) bytes."""
    assert main(["export-log-helper"]) == 0
    script = tmp_path / "export.sh"
    script.write_text(capsys.readouterr().out)
    result = subprocess.run(["sh", str(script), str(repo)], check=True,
                            capture_output=True)
    return result.stdout, result.stderr


def test_export_script_round_trips(tiny_repo, tmp_path, capsys):
    out, err = export(tiny_repo, tmp_path, capsys)
    assert err == b""  # every name, email and path was valid UTF-8
    records = list(parse_commit_log(io.BytesIO(out)))
    assert len(records) == 5
    assert all(r.author.email == "test@example.org" for r in records)
    kinds = [[c.kind for c in r.changes] for r in records]
    assert kinds == [[ChangeKind.ADD], [ChangeKind.ADD], [ChangeKind.MODIFY],
                     [ChangeKind.RENAME], [ChangeKind.DELETE]]
    rename = records[3].changes[0]
    assert (rename.path, rename.old_path) == ("src/c.c", "src/b.c")
    # timestamps never decrease: --reverse --topo-order ordering held
    timestamps = [r.timestamp for r in records]
    assert timestamps == sorted(timestamps)


def test_paths_round_trip_verbatim(tiny_repo, tmp_path, capsys):
    # git C-quotes such paths ("drivers/\303\244.c") unless asked for -z;
    # 0x1e, which marks a commit header in the script, is a path byte too
    paths = ["drivers/\u00e4.c", "drivers/tab\tname.c", "drivers/rs\x1ename.c"]
    (tiny_repo / "drivers").mkdir()
    for path in paths:
        (tiny_repo / path).write_text("x\n")
    git(tiny_repo, "add", ".")
    git(tiny_repo, "commit", "-qm", "six")

    out, err = export(tiny_repo, tmp_path, capsys)
    assert err == b""
    records = list(parse_commit_log(io.BytesIO(out)))
    assert sorted(c.path for c in records[-1].changes) == sorted(paths)
    snap = snapshot_at(records, ReleaseTag("r", records[-1].commit_id))
    driver = scope_partition(snap, default_rules())["Driver"]
    assert driver == sorted(paths)


def test_invalid_utf8_path_is_replaced_and_counted(tiny_repo, tmp_path, capsys):
    (tiny_repo / "drivers").mkdir()
    with open(bytes(tiny_repo / "drivers") + b"/bad\xff.c", "w") as fh:
        fh.write("x\n")
    git(tiny_repo, "add", ".")
    git(tiny_repo, "commit", "-qm", "six")

    out, err = export(tiny_repo, tmp_path, capsys)
    records = list(parse_commit_log(io.BytesIO(out)))
    assert [c.path for c in records[-1].changes] == ["drivers/bad\ufffd.c"]
    assert err.decode().startswith("export_log.sh: 1 author names, emails or paths")


def test_merge_commit_closes_release(tiny_repo, tmp_path, capsys):
    git(tiny_repo, "checkout", "-qb", "side")
    (tiny_repo / "src" / "d.c").write_text("d\n")
    git(tiny_repo, "add", ".")
    git(tiny_repo, "commit", "-qm", "side")
    git(tiny_repo, "checkout", "-q", "-")
    git(tiny_repo, "merge", "-q", "--no-ff", "side", "-m", "merge")
    merge = subprocess.run(["git", "-C", str(tiny_repo), "rev-parse", "HEAD"], check=True,
                           capture_output=True, text=True).stdout.strip()

    out, _ = export(tiny_repo, tmp_path, capsys)
    log = tmp_path / "history.ndjson"
    log.write_bytes(out)
    records = list(parse_commit_log(io.BytesIO(out)))
    assert len(records) == 7
    assert (records[-1].commit_id, records[-1].changes) == (merge, ())

    releases = tmp_path / "releases.txt"
    releases.write_text(f"v1 {merge}\n")
    assert main(["stats", "--log", str(log), "--releases", str(releases)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("v1,All,1,")  # one author, of c.c and d.c


def test_invalid_utf8_author_is_replaced_and_counted(tiny_repo, tmp_path, capsys):
    # a project that records and logs in Latin-1: git hands the name's raw
    # 0xff byte on, which is not UTF-8
    git(tiny_repo, "config", "i18n.commitEncoding", "ISO-8859-1")
    git(tiny_repo, "config", "i18n.logOutputEncoding", "ISO-8859-1")
    (tiny_repo / "src" / "e.c").write_text("e\n")
    git(tiny_repo, "add", ".")
    env = dict(os.environb, GIT_AUTHOR_NAME=b"Bad \xff Name",
               GIT_AUTHOR_EMAIL=b"bad@example.org")
    git(tiny_repo, "commit", "-qm", "six", env=env)

    out, err = export(tiny_repo, tmp_path, capsys)
    records = list(parse_commit_log(io.BytesIO(out)))
    assert len(records) == 6
    assert records[-1].author.name == "Bad \ufffd Name"
    assert records[-1].author.email == "bad@example.org"
    assert [c.path for c in records[-1].changes] == ["src/e.c"]
    warnings = err.decode().splitlines()
    assert len(warnings) == 1
    assert warnings[0].startswith("export_log.sh: 1 author names, emails or paths")


def test_record_longer_than_a_read_chunk(tiny_repo, tmp_path, capsys):
    # the script reads git's output in 64 KiB chunks; this commit's record
    # alone spans two of them
    names = [f"drivers/generated/{'x' * 40}{i:04d}.c" for i in range(1600)]
    (tiny_repo / "drivers" / "generated").mkdir(parents=True)
    for name in names:
        (tiny_repo / name).write_text("g\n")
    git(tiny_repo, "add", ".")
    git(tiny_repo, "commit", "-qm", "bulk")
    (tiny_repo / "src" / "c.c").write_text("c2\n")
    git(tiny_repo, "commit", "-qam", "after")

    records = list(parse_commit_log(io.BytesIO(export(tiny_repo, tmp_path, capsys)[0])))
    assert len(records) == 7
    assert sorted(c.path for c in records[5].changes) == names
    assert [c.path for c in records[6].changes] == ["src/c.c"]
