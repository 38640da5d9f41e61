"""The public API is sealed: every exported function and class has a use."""

import ast
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import authormine
from authormine import (DoaThresholds, FileAuthorship, ReleaseSnapshot, SeriesState,
                        default_rules, load_releases)
from conftest import FIXTURE_LOG, FIXTURE_RELEASES

ROOT = Path(__file__).resolve().parent.parent
# read only by tests until the run manifest carries the share of authors
ALLOWED = {"author_proportion"}


def library_use() -> str:
    """The source of README's `Library use` example."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no Library use example"
    return block.group(1)


def library_use_imports() -> set[str]:
    """The names that README's `Library use` example imports."""
    return {alias.name for node in ast.walk(ast.parse(library_use()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    shutil.copy(FIXTURE_LOG, tmp_path / "history.ndjson")
    shutil.copy(FIXTURE_RELEASES, tmp_path / "releases.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == \
        [tag.name for tag in load_releases(FIXTURE_RELEASES)]


def test_every_public_name_is_used():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "authormine").glob("*.py"))
               if path.name != "__init__.py"]
    documented = library_use_imports()
    unused = []
    for name in authormine.__all__:
        obj = getattr(authormine, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        mention = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^(?:def|class) {name}\b", re.M)
        uses = sum(len(mention.findall(text)) - len(definition.findall(text))
                   for text in sources)
        if uses == 0 and name not in documented and name not in ALLOWED:
            unused.append(name)
    assert unused == [], f"exported but used nowhere in the package or README: {unused}"


def test_developer_identity_is_the_email_past_ingest():
    """`DeveloperId` is the ingest record's author and nothing more: the
    engine keys developers by canonical email, and scores straight from
    each file's frozen counters."""
    package = ROOT / "src" / "authormine"
    naming = sorted(path.name for path in package.glob("*.py")
                    if re.search(r"\bDeveloperId\b", path.read_text(encoding="utf-8")))
    assert naming == ["__init__.py", "ingest.py"]
    # names removed from the package, which must not come back
    removed = re.compile(r"\b(?:FileDevCounters|counters_for|sort_key|DoaWeights"
                         r"|DEFAULT_WEIGHTS|release_text|fid|_next_fid|release_workload"
                         r"|release_graphs|json_bodies|rendered|_default_rules"
                         r"|subsystem_counts)\b")
    stale = sorted(str(path.relative_to(ROOT)) for path in package.rglob("*")
                   if path.is_file() and path.suffix != ".pyc"
                   and removed.search(path.read_text(encoding="utf-8", errors="replace")))
    assert stale == []


def test_results_keep_text_not_scores():
    """A file's scores are rendered as they are computed and then dropped: a
    result keeps its author set, counters and text, keyed by the file's path
    alone, and the series state keeps no second table of it."""
    assert list(FileAuthorship.__slots__) == ["authors", "counters", "text"]
    assert not hasattr(SeriesState(default_rules(), DoaThresholds()), "tails")


def test_one_change_detector():
    """A release's delta is found by counters identity alone: a snapshot
    carries no delta of its own, and the series state no record of which
    snapshot it reached."""
    assert list(ReleaseSnapshot._fields) == ["release", "files"]
    assert not hasattr(SeriesState(default_rules(), DoaThresholds()), "reached")


def test_one_count_table_per_scope():
    """A series state keeps one count table per scope, the number of live
    files with each author set; scope sizes, author counts and co-author
    pair counts are read off it when asked, not kept."""
    state = SeriesState(default_rules(), DoaThresholds())
    assert sorted(vars(state)) == ["author_sets", "authorship", "labels", "render",
                                   "rescored", "rules", "thresholds"]
    assert not hasattr(state, "sizes")
    assert inspect.ismethod(state.author_counts) and inspect.ismethod(state.edge_weights)


def test_cli_imports_no_array_library():
    """The package has no runtime dependency: loading the command line
    pulls in no numpy, whose import alone costs every command time and
    memory before it reads the log."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, authormine.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_cli_loads_only_what_it_runs():
    """Loading the command line pulls in no `dataclasses` (nor the `inspect`
    it imports) and no `hashlib`, which loads libcrypto: every command would
    pay for them before it reads the log.  Only `analyze` digests anything,
    so a query loads no `hashlib` either."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import sys, authormine.cli as cli\n"
             "def loaded():\n"
             "    heavy = ('dataclasses', 'inspect', 'hashlib')\n"
             "    print('loaded', [name for name in heavy if name in sys.modules])\n"
             "loaded()\n"
             "assert cli.main(['stats', *sys.argv[1:]]) == 0\n"
             "loaded()\n")
    result = subprocess.run(
        [sys.executable, "-c", probe, "--log", str(FIXTURE_LOG),
         "--releases", str(FIXTURE_RELEASES)],
        env=env, capture_output=True, text=True, check=True)
    lines = result.stdout.splitlines()
    assert len(lines) > 2 and [lines[0], lines[-1]] == ["loaded []", "loaded []"]
