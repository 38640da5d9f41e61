"""Classify repository paths into named subsystems with ordered rules."""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .errors import ConfigError
from .patterns import pattern_regex

SCOPE_ALL = "All"  # the name of the whole tree's scope, which no rule may take


@dataclass(frozen=True)
class SubsystemRules:
    """Ordered (pattern, label) pairs, each pattern compiled from its
    `pattern_regex`; the first match wins, else `fallback`."""

    rules: tuple[tuple[re.Pattern, str], ...]
    fallback: str

    def __post_init__(self):
        if SCOPE_ALL in self.labels:
            raise ValueError(f"label {SCOPE_ALL!r} is reserved for the whole tree")

    @property
    def labels(self) -> tuple[str, ...]:
        """All labels in declaration order, fallback last."""
        seen: list[str] = []
        for _, label in self.rules:
            if label not in seen:
                seen.append(label)
        if self.fallback not in seen:
            seen.append(self.fallback)
        return tuple(seen)

    def classify(self, path: str) -> str:
        for regex, label in self.rules:
            if regex.match(path):
                return label
        return self.fallback


def make_rules(pairs: "list[tuple[str, str]]", fallback: str) -> SubsystemRules:
    return SubsystemRules(
        tuple((re.compile(pattern_regex(pattern)), label) for pattern, label in pairs),
        fallback)


def load_rules(path) -> SubsystemRules:
    """Read a rules file: tab-separated `pattern<TAB>label` lines plus a
    required `fallback<TAB>label` line; '#' starts a comment.  No label may
    be SCOPE_ALL."""
    pairs: list[tuple[str, str]] = []
    fallback: str | None = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "\t" not in stripped:
                raise ConfigError(f"{path}: line {line_no}: expected 'pattern<TAB>label'")
            pattern, label = (part.strip() for part in stripped.split("\t", 1))
            if not label:
                raise ConfigError(f"{path}: line {line_no}: empty label")
            if label == SCOPE_ALL:
                raise ConfigError(f"{path}: line {line_no}: label {SCOPE_ALL!r} "
                                  "is reserved for the whole tree")
            if pattern == "fallback":
                if fallback is not None:
                    raise ConfigError(f"{path}: line {line_no}: duplicate fallback")
                fallback = label
            else:
                pairs.append((pattern, label))
    if fallback is None:
        raise ConfigError(f"{path}: missing required 'fallback<TAB>label' line")
    return make_rules(pairs, fallback)


_default_rules: SubsystemRules | None = None


def default_rules() -> SubsystemRules:
    """The bundled seven-subsystem decomposition for Linux-like trees."""
    global _default_rules
    if _default_rules is None:
        ref = resources.files("authormine.data").joinpath("subsystem_rules.tsv")
        with resources.as_file(ref) as path:
            _default_rules = load_rules(path)
    return _default_rules


def scope_partition(paths: Iterable[str], rules: SubsystemRules,
                    labels: "dict[str, str] | None" = None,
                    ) -> "dict[str | None, list[str]]":
    """The given paths per scope, sorted: key None holds them all, then one
    key per label in rules order.  A release step passes the paths born
    since the last release, so each path is classified once.

    `labels` memoizes `rules.classify` by path: a path found there is not
    classified again, and one that is not is classified and added.
    """
    labels = {} if labels is None else labels
    partition: dict[str | None, list[str]] = {None: []}
    for label in rules.labels:
        partition[label] = []
    for path in sorted(paths):
        label = labels.get(path)
        if label is None:
            label = labels[path] = rules.classify(path)
        partition[None].append(path)
        partition[label].append(path)
    return partition
