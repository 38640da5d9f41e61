"""An incremental release series equals each release computed from an empty state."""

import io
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from authormine import (DoaThresholds, ReleaseTag, SeriesState, default_rules, doa,
                        iter_snapshots)
from authormine.reports import (REPORTS, AuthorshipRenderer, advance, end_json_mirror,
                                release_report, write_csv_text, write_json_mirror)
import oracles
from helpers import (counted, counts_of, dev, make_record, records_from_oracle,
                     snapshot_at, workload_rows)

RULES = default_rules()
THRESHOLDS = DoaThresholds()


def rendering():
    """A new state that gives each result its text, JSON bodies included,
    as `analyze --json` makes it."""
    return SeriesState(RULES, THRESHOLDS, AuthorshipRenderer(with_json=True))


def gen_series(rng):
    """A history over a small path pool with the events a series must carry
    across releases: renames onto live paths, deletes followed by re-adds of
    the same path, and empty commits; plus 1-6 releases, some sharing a
    boundary, some ending on an empty commit."""
    pool = oracles.POOL_PATHS
    devs = [dev(i) for i in range(rng.randint(1, 4))]
    live: set[str] = set()
    records = []
    for i in range(rng.randint(1, 30)):
        changes = []
        touched: set[str] = set()
        for _ in range(0 if rng.random() < 0.15 else rng.randint(1, 3)):
            free = [p for p in pool if p not in live and p not in touched]
            editable = sorted(live - touched)
            ops = ["A"] * bool(free) + ["M", "M", "D"] * bool(editable) \
                + ["R"] * bool(free and editable) + ["RL"] * (len(editable) >= 2)
            if not ops:
                break
            kind = rng.choice(ops)
            if kind == "A":
                change = ("A", rng.choice(free))
                live.add(change[1])
            elif kind in ("M", "D"):
                change = (kind, rng.choice(editable))
                if kind == "D":
                    live.discard(change[1])
            else:  # a move to a free path, or onto another live path
                old, new = rng.sample(editable, 2) if kind == "RL" \
                    else (rng.choice(editable), rng.choice(free))
                live.discard(old)
                live.add(new)
                change = ("R", new, old)
            changes.append(change)
            touched.update(change[1:])
        records.append(make_record(f"c{i:03d}", rng.choice(devs), i + 1, changes))
    ends = sorted(rng.choices(range(len(records)), k=rng.randint(1, 6)))
    releases = [ReleaseTag(f"r{k}", records[i].commit_id) for k, i in enumerate(ends)]
    return records, releases


def written(snap, state=None):
    """What one release adds to each report CSV and to its JSON mirror; from
    an empty state without `state`."""
    report = release_report(snap, rendering() if state is None else state)
    out = []
    for (_, header), groups in zip(REPORTS, report):
        text, mirror = io.StringIO(), io.StringIO()
        write_csv_text(text, snap.release.name, groups)
        write_json_mirror(mirror, header, snap.release.name, groups)
        out.append((text.getvalue(), mirror.getvalue()))
    return out


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_series_rows_equal_rows_from_empty_state(rng, follow_renames):
    records, releases = gen_series(rng)
    state = rendering()
    snapshots = list(iter_snapshots(records, releases, follow_renames))
    for k, snap in enumerate(snapshots):
        scratch = snapshot_at(records, snap.release, follow_renames)
        # every third release the state is handed a snapshot of another
        # accumulator, which shares no counters object with the series
        fed = scratch if k % 3 == 2 else snap
        assert written(fed, state) == written(scratch)

        # each scope's sizes, author counts and pair counts equal a recount
        # of the results, and those of a state brought there from empty
        assert counts_of(state) == counts_of(counted(scratch)[0])
        # entries of files that died are gone
        assert set(state.labels) == set(state.authorship) == set(snap.files) \
            == set(scratch.files)
        assert all(fa.text is not None for fa in state.authorship.values())


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_out_of_sequence_snapshots_equal_rows_from_empty_state(rng, follow_renames, mixed):
    # one state is fed the snapshots of one accumulator with releases
    # skipped, and another with releases repeated, so a snapshot's delta
    # does not lead from the state's last snapshot; with `mixed`, every other
    # release is reached by `advance` alone, as `stats` reaches it, and only
    # its workload rows are compared
    records, releases = gen_series(rng)
    snapshots = list(iter_snapshots(records, releases, follow_renames))
    skipping = snapshots[::2] + snapshots[-1:]
    repeating = [snap for snap in snapshots for _ in range(rng.choice((1, 2)))]
    for sequence in (skipping, repeating):
        state = rendering()
        for k, snap in enumerate(sequence):
            if mixed and k % 2:
                assert workload_rows(snap, state) == workload_rows(snap)
            else:
                assert written(snap, state) == written(snap)
            assert counts_of(state) == counts_of(counted(snap)[0])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_results_merged_into_one_dict(rng, follow_renames):
    # a release step merges its results into the state's, so no release
    # pays for a copy of every live result; the state then holds exactly
    # the snapshot's live paths
    records, releases = gen_series(rng)
    state = rendering()
    results = state.authorship
    for k, snap in enumerate(iter_snapshots(records, releases, follow_renames)):
        if k % 2:
            advance(state, snap)
        else:
            release_report(snap, state)
        assert state.authorship is results
        assert results.keys() == snap.files.keys()


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_untouched_files_keep_their_counters_object(rng, follow_renames):
    # the series finds a release's delta by counters identity alone: a path
    # live at two consecutive releases keeps its counters object exactly when
    # no record between the two boundaries names it
    records, releases = gen_series(rng)
    position = {record.commit_id: i for i, record in enumerate(records)}
    previous = None
    for snap in iter_snapshots(records, releases, follow_renames):
        if previous is not None:
            between = records[position[previous.release.boundary] + 1:
                              position[snap.release.boundary] + 1]
            named = {path for record in between for change in record.changes
                     for path in (change.path, change.old_path)}
            for path in previous.files.keys() & snap.files.keys():
                assert (snap.files[path] is previous.files[path]) == (path not in named), path
        previous = snap


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_frozen_counters_stay_as_at_their_boundary(rng, follow_renames):
    # a snapshot's counters share the accumulator's deliveries dict until the
    # file's next delivery, which must copy it first: with every snapshot
    # taken before any is read, each still holds its own boundary's counters
    history = oracles.gen_history(rng)
    records = records_from_oracle(history)
    ends = sorted(rng.choices(range(len(records)), k=rng.randint(2, 5)))
    releases = [ReleaseTag(f"r{k}", records[i].commit_id) for k, i in enumerate(ends)]
    snapshots = list(iter_snapshots(records, releases, follow_renames))
    for snap in snapshots:
        live, incarnations, _ = oracles.replay(history, snap.release.boundary,
                                               follow_renames)
        assert snap.files.keys() == live.keys()
        for path, idx in live.items():
            touches = set(incarnations[idx]["touches"])
            expected = (len({cid for cid, _ in touches}),
                        Counter(email for _, (_, email) in touches))
            counters = snap.files[path]
            assert (counters.total_commits, counters.deliveries) == expected, path


def test_born_and_dead_between_releases_leaves_no_trace():
    records = [
        make_record("c1", dev(1), 1, [("A", "drivers/a.c"), ("A", "fs/a.c"), ("A", "README")]),
        make_record("c2", dev(2), 2, [("A", "fs/b.c"), ("A", "net/n.c")]),
        make_record("c3", dev(1), 3, [("D", "net/n.c"), ("D", "drivers/a.c"),
                                      ("R", "drivers/c.c", "fs/a.c")]),
    ]
    first, second = iter_snapshots(records, [ReleaseTag("r1", "c1"), ReleaseTag("r2", "c3")])
    state = SeriesState(RULES, THRESHOLDS)
    for snap in (first, second):
        assert workload_rows(snap, state) == workload_rows(snap)
    fresh, partition = counted(second)
    assert counts_of(state) == counts_of(fresh)
    assert {scope: counts[0] for scope, counts in counts_of(state).items()} \
        == {scope: len(paths) for scope, paths in partition.items()}
    assert sorted(state.authorship) == ["README", "drivers/c.c", "fs/b.c"]
    assert set(state.labels) == set(state.authorship) == set(second.files)


def test_rows_stay_in_path_order_through_many_births_and_deaths():
    # a hundred files, then seventy die and eighty are born between those
    # left, then a few of each: the state's results take many changes at
    # once, and few, and each release is still written in path order
    first = [f"drivers/f{i:03d}.c" for i in range(0, 200, 2)]
    born = [f"drivers/f{i:03d}.c" for i in range(41, 200, 2)]
    records = [
        make_record("c1", dev(1), 1, [("A", p) for p in first]),
        make_record("c2", dev(2), 2, [("D", p) for p in first[:70]] + [("A", p) for p in born]),
        make_record("c3", dev(1), 3, [("D", p) for p in born[::30]] + [("A", "a.c"),
                                                                       ("A", "net/z.c")]),
    ]
    releases = [ReleaseTag(f"r{k}", f"c{k}") for k in (1, 2, 3)]
    state = rendering()
    for snap in iter_snapshots(records, releases):
        report = release_report(snap, state)
        assert report == release_report(snap, rendering())
        assert [lines[0].split(",")[0] for lines, _ in report[0]] == sorted(snap.files)
        assert counts_of(state) == counts_of(counted(snap)[0])


def three_files_then_one_changed():
    """Two snapshots: three files, then one of them changed."""
    records = [make_record("c1", dev(1), 1, [("A", "drivers/a.c"), ("A", "fs/b.c"),
                                             ("A", "net/c.c")]),
               make_record("c2", dev(2), 2, [("M", "fs/b.c")])]
    return iter_snapshots(records, [ReleaseTag("r1", "c1"), ReleaseTag("r2", "c2")])


def test_report_needs_a_renderer():
    # a state made without a renderer has no text to report, and is left
    # where it was
    first, _ = three_files_then_one_changed()
    state = SeriesState(RULES, THRESHOLDS)
    with pytest.raises(ValueError) as raised:
        release_report(first, state)
    assert str(raised.value) == "release_report needs a SeriesState made with a renderer"
    assert state.authorship == {} and not any(state.author_sets.values())
    assert counts_of(state) == counts_of(SeriesState(RULES, THRESHOLDS))


def test_report_after_advance_alone_holds_unchanged_files():
    # the first release is reached by `advance` alone; the second changes
    # one of three files, and the report must still hold the rows of all three
    first, second = three_files_then_one_changed()
    state = rendering()
    advance(state, first)
    assert all(fa.text is not None for fa in state.authorship.values())
    assert written(second, state) == written(second)
    assert state.rescored == 1
    assert sorted(state.authorship) == sorted(second.files)


def test_series_rescores_only_changed_files(monkeypatch):
    scored = []
    score_file = doa.score_file
    monkeypatch.setattr(doa, "score_file",
                        lambda *args: scored.append(1) or score_file(*args))
    records = [
        make_record("c1", dev(1), 1, [("A", "drivers/a.c"), ("A", "fs/b.c"),
                                      ("A", "net/c.c")]),
        make_record("c2", dev(2), 2, [("M", "fs/b.c")]),
        make_record("c3", dev(2), 3, []),  # empty commit
        make_record("c4", dev(1), 4, [("R", "net/d.c", "net/c.c")]),
    ]
    releases = [ReleaseTag("r1", "c1"), ReleaseTag("r2", "c2"), ReleaseTag("r3", "c3"),
                ReleaseTag("r3-again", "c3"), ReleaseTag("r4", "c4")]
    state = rendering()
    rescored = []
    for snap in iter_snapshots(records, releases):
        scored.clear()
        release_report(snap, state)
        assert len(scored) == state.rescored
        rescored.append(state.rescored)
    # no commit, or only an empty one, since the previous release: nothing
    assert rescored == [3, 1, 0, 0, 1]


def test_fixture_series_matches_per_release(fixture_records, fixture_releases):
    state = rendering()
    for snap in iter_snapshots(fixture_records, fixture_releases):
        assert written(snap, state) == written(snap)


class Counted:
    """A report file that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_memory_of_a_reused_release_bounded_by_one_file():
    # 4000 files with two developers each, and a second release on the same
    # commit, so every file's text is reused; it is written one file at a
    # time and never joined into the release's text.  What stays is a
    # constant: the csv writer's 128 KiB record buffer
    paths = [f"drivers/d{i % 40}/f{i}.c" for i in range(4000)]
    records = [make_record("c1", dev(1), 1, [("A", p) for p in paths]),
               make_record("c2", dev(2), 2, [("M", p) for p in paths])]
    releases = [ReleaseTag("r1", "c2"), ReleaseTag("r2", "c2")]
    state = rendering()
    first, second = iter_snapshots(records, releases)
    release_report(first, state)
    report = release_report(second, state)
    assert state.rescored == 0 and len(report[0]) == len(paths)
    sink = Counted()
    tracemalloc.start()
    try:
        for (_, header), groups in zip(REPORTS, report):
            write_csv_text(sink, "r2", groups)
            end_json_mirror(sink, write_json_mirror(sink, header, "r2", groups))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 2 * 2**20
    assert peak < sink.size / 10, (peak, sink.size)


def test_one_release_keeps_one_deliveries_dict_per_file():
    # the frozen counters of a one-release query share the accumulator's
    # deliveries dicts while both live, as they do while a query reads the
    # snapshot: a file's state, counters, dict and table entries come to
    # about two dicts' worth, and a second dict per file to three
    n = 2000
    records = [make_record("c1", dev(1), 1,
                           [("A", f"drivers/d{i % 40}/f{i}.c") for i in range(n)])]
    tracemalloc.start()
    try:
        snapshots = iter_snapshots(records, [ReleaseTag("r1", "c1")])
        snap = next(snapshots)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snap.files) == n
    assert held < n * 2.5 * sys.getsizeof({dev(1): 1}), held / n


def held_after_last_freeze(rounds, batch=250):
    """Traced bytes still held once the last release of a history is frozen:
    each of `rounds` commits deletes the previous commit's `batch` files and
    creates `batch` new ones, a last one leaves one file live, and every
    commit closes a release.  Only the last snapshot and the open accumulator
    are kept."""
    records, previous = [], []
    for r in range(rounds + 1):
        fresh = [f"drivers/r{r}/f{i}.c" for i in range(batch)] if r < rounds else ["keep.c"]
        records.append(make_record(f"c{r}", dev(r % 3), r + 1,
                                   [("D", p) for p in previous] + [("A", p) for p in fresh]))
        previous = fresh
    releases = [ReleaseTag(f"v{r}", rec.commit_id) for r, rec in enumerate(records)]
    snapshots = iter_snapshots(records, releases)
    tracemalloc.start()
    try:
        for snap in snapshots:
            if snap.release == releases[-1]:
                held, _ = tracemalloc.get_traced_memory()
                break
            del snap
    finally:
        tracemalloc.stop()
    assert list(snap.files) == ["keep.c"]
    return held


def test_memory_after_freeze_bounded_by_live_files():
    # 500 against 5000 dead files, never more than 250 live: the 4500 more
    # dead files may cost 16 bytes each, where keeping their counters costs
    # hundreds (2.7 MB more)
    assert held_after_last_freeze(20) - held_after_last_freeze(2) < 4500 * 16
