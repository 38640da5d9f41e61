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
# Histories split across repositories (e.g. pre-VCS archives) can be
# exported separately and concatenated; feed the pieces oldest-first.
set -eu

REPO="${1:?usage: export_log.sh /path/to/repo}"

git -C "$REPO" log --reverse --topo-order -M --name-status \
    --format='%x1e%H%x1f%an%x1f%ae%x1f%at' \
| python3 -c '
import json
import sys

records = sys.stdin.buffer.read().decode("utf-8", errors="replace").split("\x1e")
for record in records:
    record = record.strip("\n")
    if not record:
        continue
    head, _, body = record.partition("\n")
    commit, name, email, ts = head.split("\x1f")
    changes = []
    for line in body.splitlines():
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
        {"id": commit, "an": name, "ae": email, "ts": int(ts), "ch": changes},
        ensure_ascii=False) + "\n")
'
