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
#   -M              detect renames so moves keep their history
#   %an/%ae/%at     the commit *author*, never the committer
#
# The log is converted record by record as git writes it.  Author names
# and emails that are not valid UTF-8 have their invalid bytes replaced
# by U+FFFD, and one line on stderr says how many were.
#
# Histories split across repositories (e.g. pre-VCS archives) can be
# exported separately and concatenated; feed the pieces oldest-first.
set -eu

REPO="${1:?usage: export_log.sh /path/to/repo}"

git -C "$REPO" log --reverse --topo-order -M --name-status \
    --format='%x1e%H%x1f%an%x1f%ae%x1f%at' \
| python3 -c '
import json
import sys

replaced = 0


def records(stream):
    """Yield the raw \x1e-separated records of a byte stream as they arrive."""
    pending = []
    for chunk in iter(lambda: stream.read(1 << 16), b""):
        *done, rest = chunk.split(b"\x1e")
        if done:
            yield b"".join(pending) + done[0]
            yield from done[1:]
            pending = []
        pending.append(rest)
    yield b"".join(pending)


def text(raw):
    global replaced
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        replaced += 1
        return raw.decode("utf-8", errors="replace")


for record in records(sys.stdin.buffer):
    record = record.strip(b"\n")
    if not record:
        continue
    head, _, body = record.partition(b"\n")
    commit, name, email, ts = head.split(b"\x1f")
    changes = []
    for line in body.decode("utf-8", errors="replace").splitlines():
        if not line.strip():
            continue
        fields = line.split("\t")
        status = fields[0]
        if status.startswith(("R", "C")) and len(fields) == 3:
            # name-status gives old path first; copies count as creations
            old, new = fields[1], fields[2]
            if status.startswith("R"):
                changes.append(["R", new, old])
            else:
                changes.append(["A", new])
        elif len(fields) == 2:
            kind = {"A": "A", "M": "M", "D": "D", "T": "M"}.get(status[:1])
            if kind is not None:
                changes.append([kind, fields[1]])
    sys.stdout.write(json.dumps(
        {"id": commit.decode("ascii"), "an": text(name), "ae": text(email),
         "ts": int(ts), "ch": changes},
        ensure_ascii=False) + "\n")
if replaced:
    sys.stderr.write(f"export_log.sh: {replaced} author names or emails were not "
                     "valid UTF-8; their invalid bytes became U+FFFD\n")
'
