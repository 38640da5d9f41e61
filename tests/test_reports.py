"""The streaming JSON mirror writer against json.dump of the same rows."""

import io
import json

import pytest

from authormine.reports import write_json_mirror

HEADER = ["release", "file", "developer_email"]


def reference(header, rows):
    return json.dumps([dict(zip(header, row)) for row in rows],
                      indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("rows", [
    [],
    [["v1", "a.c", "x@y.org"]],
    [["v1", "drivers/ünïcödé.c", "jürgen@例え.jp"], ["v2", "b.c", "z@y.org"]],
    [["v1", 'say "hi"', "back\\slash"]],
    [["v1", "a,b.c", "comma,@y.org"]],
    [["v1", "line\nbreak", "tab\there\x01"]],
], ids=["no-rows", "one-row", "non-ascii", "quote-backslash", "comma", "newline"])
def test_mirror_equals_json_dump(rows):
    fh = io.StringIO()
    write_json_mirror(fh, HEADER, iter(rows))
    assert fh.getvalue() == reference(HEADER, rows)
