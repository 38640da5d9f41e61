#!/bin/sh
# Export a git history as an NDJSON commit log suitable for `authormine`.
#
# Usage: export_log.sh /path/to/repo > history.ndjson
#
# One JSON object per line, oldest commit first:
#   {"id": "<hash>", "an": "<author name>", "ae": "<author email>",
#    "ts": <author unix time>, "ch": [["A","path"], ["M","path"],
#    ["D","path"], ["R","new_path","old_path"], ...]}
#
# Merge and empty commits are kept as records with "ch": [] (git lists no
# changed paths for a merge): they count for nothing, but a release may
# name one as its boundary.
#
# Notes on the invocation below:
#   --reverse       oldest-first order, as the accumulator requires
#   --topo-order    children never precede parents even under clock skew
#   --name-status   one status letter per changed path
#   -z              NUL after every status and path, and paths verbatim:
#                   without it git C-quotes a path holding a tab, a newline,
#                   a double quote or a non-ASCII byte
#   -M              detect renames so moves keep their history
#   %an/%ae/%at     the commit *author*, never the committer
#
# The log is converted record by record as git writes it.  Author names,
# emails and paths that are not valid UTF-8 have their invalid bytes
# replaced by U+FFFD, and one line on stderr says how many were.
#
# Histories split across repositories (e.g. pre-VCS archives) can be
# exported separately and concatenated; feed the pieces oldest-first.
set -eu

REPO="${1:?usage: export_log.sh /path/to/repo}"

git -C "$REPO" log --reverse --topo-order -M --name-status -z \
    --format='%x1e%H%x1f%an%x1f%ae%x1f%at' \
| python3 -c '
import json
import sys

replaced = 0


def fields_of(stream):
    """Yield the NUL-terminated fields of a byte stream as they arrive."""
    rest = b""
    for chunk in iter(lambda: stream.read(1 << 16), b""):
        *done, rest = (rest + chunk).split(b"\0")
        yield from done
    if rest:
        yield rest


def text(raw):
    global replaced
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        replaced += 1
        return raw.decode("utf-8", errors="replace")


# Each commit is its \x1e-marked header, then a status field and one path
# field (two for a rename or copy) per changed path.  A status never
# starts with \x1e, and a path holding one is read as a path.
fields = fields_of(sys.stdin.buffer)
field = next(fields, None)
while field is not None:
    commit, name, email, ts = field[1:].split(b"\x1f")
    changes = []
    for field in fields:
        if field.startswith(b"\x1e"):
            break
        status = field.lstrip(b"\n")  # a newline ends the header
        if status.startswith((b"R", b"C")):
            # name-status gives old path first; copies count as creations
            old, new = text(next(fields)), text(next(fields))
            changes.append(["R", new, old] if status.startswith(b"R") else ["A", new])
        else:
            path = text(next(fields))
            kind = {b"A": "A", b"M": "M", b"D": "D", b"T": "M"}.get(status[:1])
            if kind is not None:
                changes.append([kind, path])
    else:
        field = None
    sys.stdout.write(json.dumps(
        {"id": commit.decode("ascii"), "an": text(name), "ae": text(email),
         "ts": int(ts), "ch": changes},
        ensure_ascii=False) + "\n")
if replaced:
    sys.stderr.write(f"export_log.sh: {replaced} author names, emails or paths were "
                     "not valid UTF-8; their invalid bytes became U+FFFD\n")
'
