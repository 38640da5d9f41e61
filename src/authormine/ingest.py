"""Commit-log ingestion: NDJSON parsing, identity resolution, path filters.

The expected input is one JSON object per line, oldest commit first:

    {"id": "<hash>", "an": "<author name>", "ae": "<author email>",
     "ts": <unix seconds>, "ch": [["A", "path"], ["M", "path"],
     ["D", "path"], ["R", "new_path", "old_path"], ...]}

Unknown keys are ignored.  Merge and empty commits are records with an
empty change list (the exporter writes them so): they count for nothing,
but a release may end at one.  Only commit authors are represented,
committers are not part of the schema at all.  `DeveloperId` exists only
here, at ingest: `resolve_aliases` trims and lowercases emails and merges
different ones through the alias map, and from the accumulator on a
developer is their canonical email, a plain `str`.

Records, changes and release tags are named tuples.  The parser decodes
a line that is one JSON object with one call into json's own scanner,
checks each plain `[kind, path]` change where it reads it, and builds
records and those changes with `tuple.__new__`, once per commit and per
change; any other change entry goes through `_parse_change` and the
checking `FileChange` constructor.  The other two stages build a record
the same way, and only for a commit whose author or changes they alter.
Each stage is a generator holding one record at a time.  The parser's
shared identities (one per raw email) and the alias resolver's memo (one
per raw name and email) are bounded by the distinct raw identities, not
by commits.  The one structure that grows with the commits is the set of
commit ids that `snapshot.iter_snapshots` keeps to catch overlapping
logs.
"""

from __future__ import annotations

import json
import logging
import posixpath
import re
from enum import Enum
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import ConfigError, LogParseError, LogSchemaError
from .patterns import PathMatcher

logger = logging.getLogger(__name__)


class DeveloperId:
    """Canonical developer identity: the email, which every output is keyed on.

    Equality and hashing use the email only; the name is kept for
    display, so one email committed under several names is one
    developer.  Merging different emails is the alias map's job.
    """

    __slots__ = ("name", "email")

    def __init__(self, name: str, email: str):
        self.name, self.email = name, email

    def __eq__(self, other):
        return self.email == other.email if type(other) is DeveloperId else NotImplemented

    def __hash__(self):
        return hash(self.email)


class ChangeKind(Enum):
    ADD = "A"
    MODIFY = "M"
    DELETE = "D"
    RENAME = "R"


# an enum member read off its class costs a descriptor call; a global does not
_RENAME = ChangeKind.RENAME


class _FileChangeFields(NamedTuple):
    kind: ChangeKind
    path: str
    old_path: str | None = None


class FileChange(_FileChangeFields):
    """One file change of a commit; `old_path` is set exactly for renames."""

    __slots__ = ()

    def __new__(cls, kind: ChangeKind, path: str, old_path: str | None = None):
        if (kind is _RENAME) != (old_path is not None):
            raise ValueError("old_path must be present exactly for renames")
        return super().__new__(cls, kind, path, old_path)

    @classmethod
    def _make(cls, iterable):
        # the base's _make, which _replace calls, bypasses __new__
        return cls(*iterable)


class CommitRecord(NamedTuple):
    commit_id: str
    author: DeveloperId
    timestamp: int
    changes: tuple[FileChange, ...]


class ReleaseTag(NamedTuple):
    """A named release whose history ends at (and includes) `boundary`."""

    name: str
    boundary: str


AliasMap = Mapping[tuple[str, str], DeveloperId]

_KIND_BY_CODE = {k.value: k for k in ChangeKind}
_PLAIN_KIND = {code: kind for code, kind in _KIND_BY_CODE.items()
               if kind is not _RENAME}
_MISSING = object()
# json.loads' own scanner: one call decodes a line that is one JSON object
_scan_once = json.JSONDecoder().scan_once
# builds a named tuple as its class call does, without the Python-level __new__
_new = tuple.__new__


def _is_plain(path: str) -> bool:
    """True when `path` is non-empty, equal to its `posixpath.normpath` and
    legal: no empty, `.` or `..` segment, no leading or trailing slash and
    no carriage return.  False also for some legal paths, such as `.config`."""
    return (path != "" and path[0] != "." and path[0] != "/" and path[-1] != "/"
            and "//" not in path and "/." not in path and "\r" not in path)


def _normalize_path(raw: object, line_no: int) -> str:
    if type(raw) is str and _is_plain(raw):
        return raw
    if not isinstance(raw, str) or not raw:
        raise LogSchemaError("change path must be a non-empty string", line_no, "ch")
    path = posixpath.normpath(raw)
    # a carriage return is written unquoted and would split the report's CSV row
    if path.startswith("/") or path == "." or path == ".." or path.startswith("../") \
            or "\r" in path:
        raise LogSchemaError(f"illegal path {raw!r}", line_no, "ch")
    return path


def _field_error(value: object, field: str, message: str, line_no: int,
                 ) -> LogSchemaError:
    """The error for a record field that failed its type check."""
    if value is _MISSING:
        return LogSchemaError("missing required field", line_no, field)
    return LogSchemaError(message, line_no, field)


def _parse_change(entry: object, line_no: int) -> FileChange:
    if not isinstance(entry, (list, tuple)) or not entry:
        raise LogSchemaError("change entry must be a non-empty array", line_no, "ch")
    code = entry[0]
    kind = _KIND_BY_CODE.get(code) if isinstance(code, str) else None
    if kind is None:
        raise LogSchemaError(f"unknown change kind {code!r}", line_no, "ch")
    if kind is _RENAME:
        if len(entry) != 3:
            raise LogSchemaError("rename entry must be [\"R\", new, old]", line_no, "ch")
        return FileChange(kind, _normalize_path(entry[1], line_no),
                          _normalize_path(entry[2], line_no))
    if len(entry) != 2:
        raise LogSchemaError("change entry must be [kind, path]", line_no, "ch")
    return FileChange(kind, _normalize_path(entry[1], line_no))


def parse_commit_log(stream: Union[IO[bytes], IO[str], Iterable[bytes], Iterable[str]],
                     ) -> Iterator[CommitRecord]:
    """Parse an NDJSON commit log into CommitRecords, in stream order.

    A line that is one JSON object, followed by nothing or by a newline,
    is decoded by one call into json's scanner.  Every other non-blank
    line goes through `json.loads`, whose message a `LogParseError`
    carries: a line padded with whitespace or a byte-order mark, one with
    data after its object, one that is not an object, and malformed JSON.

    Blank lines are skipped.  Records with an empty change list (merge
    and empty commits) are yielded too, so that they can close a release.
    Decreasing timestamps are tolerated (git histories contain clock
    skew) and reported once as a warning.  Records share one `DeveloperId`
    per raw email, until that email comes with another name.
    """
    skew_warned = False
    last_ts: int | None = None
    authors: dict[str, DeveloperId] = {}  # by raw email, under its last name
    for line_no, raw in enumerate(stream, 1):
        if isinstance(raw, bytes):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LogParseError(f"invalid UTF-8: {exc}", line_no) from exc
        else:
            line = raw
        obj = None
        if line[:1] == "{":
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError):
                pass
            else:
                if end != len(line) and line[end:] != "\n":
                    obj = None  # more than a newline follows: json.loads decides
        if obj is None:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogParseError(f"invalid JSON: {exc.msg}", line_no) from exc
        if not isinstance(obj, dict):
            raise LogSchemaError("record must be a JSON object", line_no, "record")

        # json builds exact types, so a type() test is isinstance that
        # keeps bool out of int; fields are checked in order, first fault raised
        get = obj.get
        commit_id = get("id", _MISSING)
        if type(commit_id) is not str or not commit_id:
            raise _field_error(commit_id, "id", "must be a non-empty string", line_no)
        name = get("an", _MISSING)
        if type(name) is not str:
            raise _field_error(name, "an", "must be a string", line_no)
        email = get("ae", _MISSING)
        if type(email) is not str:
            raise _field_error(email, "ae", "must be a string", line_no)
        # see _normalize_path; git refuses a newline in an ident
        if "\r" in email or "\n" in email:
            raise LogSchemaError("must not contain a line break", line_no, "ae")
        ts = get("ts", _MISSING)
        if type(ts) is not int:
            raise _field_error(ts, "ts", "must be an integer", line_no)
        ch = get("ch", _MISSING)
        if type(ch) is not list:
            raise _field_error(ch, "ch", "must be an array", line_no)

        if last_ts is not None and ts < last_ts and not skew_warned:
            logger.warning(
                "commit %s at line %d has a timestamp earlier than its "
                "predecessor; further clock-skew warnings suppressed",
                commit_id, line_no)
            skew_warned = True
        last_ts = ts

        changes = []
        for entry in ch:
            if type(entry) is list and len(entry) == 2:
                code, path = entry
                kind = _PLAIN_KIND.get(code) if type(code) is str else None
                if kind is not None and type(path) is str and _is_plain(path):
                    # a kind that is not RENAME and no old_path: the rule
                    # FileChange.__new__ checks holds
                    changes.append(_new(FileChange, (kind, path, None)))
                    continue
            changes.append(_parse_change(entry, line_no))
        author = authors.get(email)
        if author is None or author.name != name:
            author = authors[email] = DeveloperId(name, email)
        yield _new(CommitRecord, (commit_id, author, ts, tuple(changes)))


def resolve_aliases(records: Iterable[CommitRecord], alias_map: AliasMap,
                    ) -> Iterator[CommitRecord]:
    """Replace raw author identities with canonical ones.

    Lookup keys are (trimmed name, trimmed lowercased email).  Identities
    absent from the map pass through with the email of their key, trimmed
    and lowercased, which is the only automatic normalization applied.
    Each distinct raw (name, email) is resolved once.
    """
    resolved: dict[tuple[str, str], DeveloperId] = {}
    seen_names: dict[str, str] = {}
    collisions: set[str] = set()
    for record in records:
        raw = record.author
        canonical = resolved.get((raw.name, raw.email))
        if canonical is None:
            key = (raw.name.strip(), raw.email.strip().lower())
            canonical = alias_map.get(key)
            if canonical is None:
                email = key[1]
                canonical = raw if raw.email == email else DeveloperId(raw.name, email)
            resolved[raw.name, raw.email] = canonical
            # an entry of seen_names never changes, so a raw identity's
            # first sight is the only one that can warn
            known = seen_names.setdefault(canonical.email, canonical.name)
            if known != canonical.name and canonical.email not in collisions:
                collisions.add(canonical.email)
                logger.warning(
                    "email %s is used with different names (%r, %r); "
                    "they count as one developer", canonical.email, known,
                    canonical.name)
        yield record if canonical is raw else \
            _new(CommitRecord, (record.commit_id, canonical, record.timestamp, record.changes))


def apply_path_filters(records: Iterable[CommitRecord],
                       exclusion_rules: "list[str] | tuple[str, ...]",
                       ) -> Iterator[CommitRecord]:
    """Drop file changes matching any exclusion rule.

    A rename is removed when either its new or its old path matches.
    A record left without changes is still passed on, with no changes, so
    that a release boundary on it still closes its release.
    """
    if not exclusion_rules:
        yield from records
        return
    match = PathMatcher(exclusion_rules).match
    for record in records:
        for _, path, old_path in record.changes:
            if match(path) or (old_path is not None and match(old_path)):
                break
        else:
            yield record
            continue
        kept = tuple([ch for ch in record.changes
                      if not (match(ch.path)
                              or (ch.old_path is not None and match(ch.old_path)))])
        yield _new(CommitRecord, (record.commit_id, record.author, record.timestamp, kept))


_ALIAS_LINE = re.compile(
    r"^(?P<rn>[^<>]*)<(?P<re>[^<>]*)>\s*=\s*(?P<cn>[^<>]*)<(?P<ce>[^<>]*)>\s*$")


def load_alias_map(path) -> dict[tuple[str, str], DeveloperId]:
    """Read an alias map file: `raw_name <raw_email> = name <email>` per line."""
    mapping: dict[tuple[str, str], DeveloperId] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            m = _ALIAS_LINE.match(stripped)
            if m is None:
                raise ConfigError(f"{path}: line {line_no}: expected "
                                  "'name <email> = name <email>'")
            key = (m["rn"].strip(), m["re"].strip().lower())
            mapping[key] = DeveloperId(m["cn"].strip(), m["ce"].strip().lower())
    return mapping


def load_releases(path) -> list[ReleaseTag]:
    """Read a release list file: `tag_name commit_id` per line, oldest first."""
    releases: list[ReleaseTag] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) != 2:
                raise ConfigError(f"{path}: line {line_no}: expected 'tag_name commit_id'")
            name, boundary = fields
            if name in seen:
                raise ConfigError(f"{path}: line {line_no}: duplicate release {name!r}")
            seen.add(name)
            releases.append(ReleaseTag(name, boundary))
    return releases
