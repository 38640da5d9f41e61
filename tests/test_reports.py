"""The streaming report writers against csv.writer and json.dump of the same rows."""

import csv
import io
import itertools
import json

import pytest

from authormine.reports import (RowRenderer, end_json_mirror, write_csv_text,
                                write_json_mirror)

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
    render = RowRenderer(HEADER, with_json=True)
    for release, group in itertools.groupby(rows, key=lambda row: row[0]):
        yield release, [render([row[1:]]) for row in group]


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


def test_json_bodies_only_on_request():
    assert RowRenderer(HEADER, with_json=False)([["a,c", "x@y.org"]]) == \
        (('"a,c",x@y.org\n',), ())
