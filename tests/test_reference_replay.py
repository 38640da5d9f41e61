"""Whole runs on small generated histories equal an independent replay.

`bench/reference.py` replays a generated history with plain dicts keyed
by email, and checks every report against statistics computed from their
definitions (numpy quantiles, networkx graph metrics); it shares no code
with `authormine`.  Each benchmark workload's shape is cut to a few
hundred commits here, so a refactor of the engine is checked end to end
on every test run, over more than one seed.  numpy and networkx are in
the `test` extra: without them this test fails rather than skips.
"""

import dataclasses
from pathlib import Path

import pytest

from authormine.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
RULES = BENCH.parent / "src" / "authormine" / "data" / "subsystem_rules.tsv"

# each workload's shape cut to a few hundred commits: the tree, the
# developers and the bulk import shrink with it, the mix and the releases stay
SMALL = {"kernel-series": dict(devs=60, dirs=40, import_files=150, commits=300),
         "deep-history": dict(devs=30, dirs=20, import_files=60, commits=400),
         "crowd": dict(devs=400, dirs=120, import_files=60, commits=300)}


@pytest.fixture
def bench(monkeypatch):
    """bench/gen_history.py with the shrunk shapes, and bench/reference.py."""
    monkeypatch.syspath_prepend(str(BENCH))
    import gen_history
    import reference

    for name, cut in SMALL.items():
        monkeypatch.setitem(gen_history.WORKLOADS, name,
                            dataclasses.replace(gen_history.WORKLOADS[name], **cut))
    return gen_history, reference


def run(capsys, *argv: str) -> str:
    """One command through `main` in-process: its stdout; it must exit 0."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_commands_equal_reference_replay(bench, workload, seed, tmp_path, capsys):
    gen_history, reference = bench
    meta = gen_history.generate(workload, seed, tmp_path / "in")
    assert meta["makeup"]["commits"] == SMALL[workload]["commits"] + 1
    inputs, release, scope = tmp_path / "in", meta["query_release"], gen_history.QUERY_SCOPE
    config = ["--log", str(inputs / "history.ndjson"), "--releases", str(inputs / "releases.txt"),
              "--alias-map", str(inputs / "aliases.txt"), "--exclude", gen_history.FIRMWARE]
    ref = reference.build(inputs, RULES, [gen_history.FIRMWARE])

    out = tmp_path / "report"
    run(capsys, "analyze", *config, "-o", str(out), "--json")
    problems = reference.check_analyze(out, ref, json_mirror=True)

    header, rows = reference.read_csv(run(capsys, "stats", *config))
    problems += reference.check_workload(rows, ref, header=header)

    edges, graph = tmp_path / "edges.csv", tmp_path / "graph.net"
    header, rows = reference.read_csv(run(
        capsys, "network", *config, "--release", release, "--scope", scope,
        "--edges", str(edges), "--graph", str(graph)))
    problems += reference.check_network(rows, ref, releases={release}, header=header)
    problems += reference.check_edges(edges.read_text(encoding="utf-8"), ref, release, scope)
    problems += reference.check_pajek(graph.read_text(encoding="utf-8"), ref, release, scope)

    for path in meta["authors_files"]:
        text = run(capsys, "authors", *config, path, "--release", release)
        problems += reference.check_authors(text, ref, release, path)
    assert problems == []
