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

from .errors import ConfigError

_GLOB_CHARS = frozenset("*?[")


def pattern_regex(pattern: str) -> str:
    """The regex source that matches a path at its start exactly when
    `pattern` matches it: a prefix ending in ``/`` as itself, a bare name
    followed by ``/`` or the end of the path, and a glob as its fnmatch
    translation.  Raises ConfigError for an empty or invalid pattern."""
    if not pattern:
        raise ConfigError("empty path pattern")
    if _GLOB_CHARS & set(pattern):
        source = fnmatch.translate(pattern)
        try:
            re.compile(source)
        except re.error as exc:
            raise ConfigError(f"invalid glob pattern {pattern!r}: {exc}") from exc
        return source
    if pattern.endswith("/"):
        return re.escape(pattern)
    return re.escape(pattern) + r"(?:/|\Z)"


class PathMatcher:
    """A list of patterns; a path matches if any pattern matches.

    `match(path)` returns a match object exactly when some pattern matches
    and None otherwise: the patterns' `pattern_regex` sources are compiled
    into one alternation tried at the start of the path.
    """

    def __init__(self, patterns: "list[str] | tuple[str, ...]"):
        # with no patterns, a regex that matches nothing
        self.match = re.compile("|".join(map(pattern_regex, patterns)) or "(?!)").match
