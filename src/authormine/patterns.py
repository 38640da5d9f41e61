"""Path pattern matching used by exclusion filters and subsystem rules.

A pattern without glob metacharacters is a path prefix anchored at a
segment boundary: ``firmware/`` matches everything below ``firmware/``,
and ``README`` matches ``README`` itself or anything below a ``README/``
directory, but not ``README.md``.  Patterns containing ``*``, ``?`` or
``[`` are matched against the full path with fnmatch semantics (``*``
crosses ``/``).
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field

from .errors import ConfigError

_GLOB_CHARS = frozenset("*?[")


@dataclass(frozen=True)
class PathRule:
    pattern: str
    _regex: re.Pattern | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def compile(pattern: str) -> "PathRule":
        if not pattern:
            raise ConfigError("empty path pattern")
        if _GLOB_CHARS & set(pattern):
            try:
                regex = re.compile(fnmatch.translate(pattern))
            except re.error as exc:
                raise ConfigError(f"invalid glob pattern {pattern!r}: {exc}") from exc
            return PathRule(pattern, regex)
        return PathRule(pattern, None)

    def matches(self, path: str) -> bool:
        if self._regex is not None:
            return self._regex.match(path) is not None
        if self.pattern.endswith("/"):
            return path.startswith(self.pattern)
        return path == self.pattern or path.startswith(self.pattern + "/")


class PathMatcher:
    """Ordered list of rules; a path matches if any rule matches.

    `match(path)` returns a match object exactly when some rule matches and
    None otherwise.  The rules are compiled into one regex tried at the
    start of the path: a prefix ending in ``/`` as itself, a bare name
    followed by ``/`` or the end of the path, and a glob as its fnmatch
    translation.
    """

    def __init__(self, patterns: "list[str] | tuple[str, ...]"):
        self.rules = tuple(PathRule.compile(p) for p in patterns)
        alternatives = [
            rule._regex.pattern if rule._regex is not None
            else re.escape(rule.pattern) if rule.pattern.endswith("/")
            else re.escape(rule.pattern) + r"(?:/|\Z)"
            for rule in self.rules]
        # with no rules, a regex that matches nothing
        self.match = re.compile("|".join(alternatives) or "(?!)").match

    def __bool__(self) -> bool:
        return bool(self.rules)
