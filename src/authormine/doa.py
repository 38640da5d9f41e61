"""Degree-of-authorship scoring and the file author rule.

The absolute score for a developer on a file combines three counters:
first authorship FA (1 for the file creator), deliveries DL (commits by
the developer touching the file) and acceptances AC (commits by other
developers touching the file):

    doa_abs = 3.293 + 1.098*FA + 0.164*DL - 0.321*ln(1 + AC)

The normalized score divides by the file's maximum absolute score, so
the strongest contributor(s) score exactly 1.0.  A developer is an
author of a file when doa_norm > 0.75 and doa_abs >= 3.293 (strict
inequality on the normalized floor, inclusive on the absolute floor).

`score_file` is the only place the rule is evaluated: it scores one
file's frozen counters (creator, commit total, deliveries), and
`compute_authorship` applies it to the given live files of a snapshot,
or to all of them; a `series.SeriesState` keeps the results.  A file's
scores take few distinct (FA, DL, AC) inputs, so `score_file` evaluates
the formula through a bounded memo of them, which every command shares.
A result keeps the file's author set and report text, not its scores.
A developer is their canonical email, as the accumulator keys them; the
ingest identity type does not reach this module.  The model's
coefficients are constants; its two floors are parameters, which the
command line sets.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

from .snapshot import FileCounters, ReleaseSnapshot


class _DoaThresholdsFields(NamedTuple):
    normalized_floor: float
    absolute_floor: float


class DoaThresholds(_DoaThresholdsFields):
    __slots__ = ()

    def __new__(cls, normalized_floor: float = 0.75, absolute_floor: float = 3.293):
        if not 0 < normalized_floor <= 1:
            raise ValueError("normalized_floor must be in (0, 1]")
        if not (math.isfinite(absolute_floor) and absolute_floor > 0):
            raise ValueError("absolute_floor must be finite and positive")
        return super().__new__(cls, normalized_floor, absolute_floor)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that _replace checks


DEFAULT_THRESHOLDS = DoaThresholds()


def doa_absolute(fa: int, dl: int, ac: int) -> float:
    return 3.293 + 1.098 * fa + 0.164 * dl - 0.321 * math.log1p(ac)


# `doa_absolute` as `score_file` evaluates it: keyed by (fa, dl, ac) alone,
# as the floors apply to its result
_doa_absolute = lru_cache(maxsize=1 << 14)(doa_absolute)


class DevScore(NamedTuple):
    developer: str
    fa: int
    dl: int
    ac: int
    doa_abs: float
    doa_norm: float
    is_author: bool


class FileAuthorship:
    """A file's authors, the frozen counters they come from and its rows as
    `reports.RowText`, None without a renderer."""

    __slots__ = ("authors", "counters", "text")

    def __init__(self, authors: frozenset[str], counters: FileCounters,
                 text: "tuple | None" = None):
        self.authors, self.counters, self.text = authors, counters, text


def score_file(counters: FileCounters, thresholds: DoaThresholds = DEFAULT_THRESHOLDS,
               ) -> tuple[tuple[DevScore, ...], frozenset[str]]:
    """Evaluate the scores and the author rule for one file's counters.

    A developer's FA is 1 for the file's creator, DL their deliveries and
    AC the file's commits by others.  Returns one DevScore per developer,
    ordered by email, and the set of developers passing both floors.
    """
    if not counters.deliveries:
        raise ValueError("file has no commits")
    creator, total = counters.creator, counters.total_commits
    terms = []
    for dev, dl in sorted(counters.deliveries.items()):
        fa, ac = (1 if dev == creator else 0), total - dl
        terms.append((dev, fa, dl, ac, _doa_absolute(fa, dl, ac)))
    peak = max([term[4] for term in terms])
    if peak <= 0:
        # reachable: a creator with one delivery scores below 0 once
        # ln(1 + AC) passes about 14.2
        raise ValueError("maximum absolute score is not positive; "
                         "normalization is undefined")
    norm_floor, abs_floor = thresholds.normalized_floor, thresholds.absolute_floor
    scores = []
    authors = []
    for dev, fa, dl, ac, score in terms:
        norm = score / peak
        is_author = norm > norm_floor and score >= abs_floor
        if is_author:
            authors.append(dev)
        # as DevScore(...) builds it, without the Python-level __new__
        scores.append(tuple.__new__(DevScore, (dev, fa, dl, ac, score, norm, is_author)))
    return tuple(scores), frozenset(authors)


def compute_authorship(snapshot: ReleaseSnapshot,
                       thresholds: DoaThresholds = DEFAULT_THRESHOLDS,
                       render: "Callable[[str, tuple[DevScore, ...]], tuple] | None" = None,
                       paths: "Iterable[str] | None" = None,
                       ) -> dict[str, FileAuthorship]:
    """Score the given live paths of a snapshot, by default all of them: their
    results by path, in the order given, each with `render(path, scores)`
    as its text if `render` is given."""
    files = {}
    counters_of = snapshot.files
    for path in counters_of if paths is None else paths:
        counters = counters_of[path]
        try:
            scores, authors = score_file(counters, thresholds)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        files[path] = FileAuthorship(authors, counters,
                                     None if render is None else render(path, scores))
    return files


class AuthorProportion(NamedTuple):
    developers: int
    authors: int
    proportion: float


def author_proportion(authorship: Mapping[str, FileAuthorship], paths: "list[str]",
                      ) -> AuthorProportion:
    """Share of developers of the given live files who author at least one."""
    if not paths:
        raise ValueError("scope contains no live files")
    developers: set[str] = set()
    authors: set[str] = set()
    for path in paths:
        fa = authorship[path]
        developers.update(fa.counters.deliveries)
        authors.update(fa.authors)
    return AuthorProportion(len(developers), len(authors), len(authors) / len(developers))
