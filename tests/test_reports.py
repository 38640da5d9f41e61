"""The streaming report writers against csv.writer and json.dump of the same rows."""

import csv
import io
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from authormine import DevScore, reports
from authormine.reports import (AUTHORSHIP_HEADER, AuthorshipRenderer, end_json_mirror,
                                fmt_float, render_rows, write_csv_text, write_json_mirror)

HEADER = ["release", "file", "developer_email"]
ROWS = [
    [],
    [["v1", "a.c", "x@y.org"]],
    [["v1", "drivers/ünïcödé.c", "jürgen@例え.jp"], ["v2", "b.c", "z@y.org"]],
    [["v1", 'say "hi"', "back\\slash"]],
    [["v1", "a,b.c", "comma,@y.org"]],
    [["v1", "line\nbreak", "tab\there\x01"]],
]
IDS = ["no-rows", "one-row", "non-ascii", "quote-backslash", "comma", "newline"]


def reference(header, rows):
    return json.dumps([dict(zip(header, row)) for row in rows],
                      indent=2, ensure_ascii=False) + "\n"


def by_release(rows):
    """Each release's rows, rendered without their release column as one
    group per row: the shape of the authorship report's per-file text."""
    for release, group in itertools.groupby(rows, key=lambda row: row[0]):
        yield release, [render_rows(HEADER, [row[1:]], with_json=True) for row in group]


@pytest.mark.parametrize("rows", ROWS, ids=IDS)
def test_mirror_equals_json_dump(rows):
    fh = io.StringIO()
    opener = "["
    for release, groups in by_release(rows):
        opener = write_json_mirror(fh, HEADER, release, groups, opener)
    end_json_mirror(fh, opener)
    assert fh.getvalue() == reference(HEADER, rows)


@pytest.mark.parametrize("rows", ROWS, ids=IDS)
def test_csv_text_equals_csv_writer(rows):
    fh = io.StringIO()
    for release, groups in by_release(rows):
        write_csv_text(fh, release, groups)
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert fh.getvalue() == expected.getvalue()


def test_release_name_is_quoted_and_escaped():
    rows = [['r,"1"', "a.c", "x@y.org"], ['r,"1"', "b.c", "x@y.org"]]
    ((release, groups),) = by_release(rows)
    text, mirror = io.StringIO(), io.StringIO()
    write_csv_text(text, release, groups)
    end_json_mirror(mirror, write_json_mirror(mirror, HEADER, release, groups))
    assert list(csv.reader(io.StringIO(text.getvalue()))) == rows
    assert mirror.getvalue() == reference(HEADER, rows)


# text a CSV writer must quote, or JSON escape, or a template could take for
# a field, mixed with any other characters
TEXT = st.text(st.one_of(st.sampled_from([",", '"', "\n", "\r", " ", "\\", "%", "{",
                                          "é", "例"]),
                         st.characters(blacklist_categories=("Cs",))), max_size=8)
SCORES = st.lists(st.builds(
    DevScore, TEXT, st.integers(0, 1), st.integers(0, 10**6), st.integers(0, 10**6),
    st.one_of(st.sampled_from([-0.0, 0.0, -1.25, 3.293]), st.floats(-1e6, 1e6)),
    st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -0.5]), st.floats(-10, 1)),
    st.booleans()), min_size=1, max_size=4)


def assert_rendered(groups, files):
    """`groups`, the RowText of each (path, scores) of `files`, are what
    csv.writer and json.dump make of the files' rows."""
    rows = [[path, s.developer, str(s.fa), str(s.dl), str(s.ac), fmt_float(s.doa_abs),
             fmt_float(s.doa_norm), "1" if s.is_author else "0"]
            for path, scores in files for s in scores]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert "".join(line for lines, _ in groups for line in lines) == expected.getvalue()
    mirror = io.StringIO()
    end_json_mirror(mirror, write_json_mirror(mirror, AUTHORSHIP_HEADER, "v1", groups))
    assert mirror.getvalue() == reference(AUTHORSHIP_HEADER, [["v1"] + row for row in rows])


@given(st.lists(st.tuples(TEXT, SCORES), max_size=4))
def test_authorship_renderer_equals_csv_writer_and_json_dump(files):
    # one renderer for every file, so an email seen before comes from its memo
    render = AuthorshipRenderer(with_json=True)
    groups = [render(path, scores) for path, scores in files]
    assert_rendered(groups, files)
    plain = AuthorshipRenderer(with_json=False)
    assert [plain(path, scores) for path, scores in files] == \
        [(lines, ()) for lines, _ in groups]


@given(st.lists(st.tuples(TEXT, SCORES), max_size=4))
def test_renderer_memo_hits_equal_csv_writer_and_json_dump(files):
    # the second round renders every email and numeric tail from the memos
    render = AuthorshipRenderer(with_json=True)
    first = [render(path, scores) for path, scores in files]
    again = [render(path, scores) for path, scores in files]
    assert again == first
    assert_rendered(again, files)


def test_renderer_memo_keys_on_every_number():
    # rows that differ in one number each, through one renderer
    base = DevScore("x@y.org", 1, 2, 3, 4.5, 0.5, True)
    files = [("a.c", [base])] + [
        ("a.c", [base._replace(**{field: value})])
        for field, value in (("fa", 0), ("dl", 7), ("ac", 8), ("doa_abs", 4.25),
                             ("doa_norm", 0.25), ("is_author", False))]
    render = AuthorshipRenderer(with_json=True)
    assert_rendered([render(path, scores) for path, scores in files], files)


def test_renderer_memos_stay_within_their_cap(monkeypatch):
    monkeypatch.setattr(reports, "RENDER_MEMO_SIZE", 4)
    render = AuthorshipRenderer(with_json=True)
    files = [(f"f{i}.c", [DevScore(f"d{i % 7}@x.org", i % 2, i, 2 * i, i / 3, i / 8 - 1.0,
                                   i % 3 == 0)]) for i in range(40)]
    groups = [render(path, scores) for path, scores in files * 2]
    assert len(render.emails) <= 4 and len(render.tails) <= 4
    assert_rendered(groups, files * 2)


def test_json_bodies_only_on_request():
    assert render_rows(HEADER, [["a,c", "x@y.org"]], with_json=False) == \
        (('"a,c",x@y.org\n',), ())
