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
`compute_authorship` applies it to every live file of a snapshot that an
earlier result does not already cover.  A developer is their canonical
email, as the accumulator keys them; the ingest identity type does not
reach this module.  Floors and weights are parameters; the command line
sets the floors and uses the default weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .snapshot import FileCounters, ReleaseSnapshot


@dataclass(frozen=True, slots=True)
class DoaWeights:
    base: float = 3.293
    first_author: float = 1.098
    delivery: float = 0.164
    acceptance_log: float = 0.321


@dataclass(frozen=True, slots=True)
class DoaThresholds:
    normalized_floor: float = 0.75
    absolute_floor: float = 3.293

    def __post_init__(self):
        if not 0 < self.normalized_floor <= 1:
            raise ValueError("normalized_floor must be in (0, 1]")
        if not (math.isfinite(self.absolute_floor) and self.absolute_floor > 0):
            raise ValueError("absolute_floor must be finite and positive")


DEFAULT_WEIGHTS = DoaWeights()
DEFAULT_THRESHOLDS = DoaThresholds()


def doa_absolute(fa: int, dl: int, ac: int, weights: DoaWeights = DEFAULT_WEIGHTS) -> float:
    return (weights.base
            + weights.first_author * fa
            + weights.delivery * dl
            - weights.acceptance_log * math.log1p(ac))


@dataclass(frozen=True, slots=True)
class DevScore:
    developer: str
    fa: int
    dl: int
    ac: int
    doa_abs: float
    doa_norm: float
    is_author: bool


@dataclass(frozen=True)
class FileAuthorship:
    fid: int
    path: str
    scores: tuple[DevScore, ...]  # sorted by developer email
    authors: frozenset[str]
    # the frozen counters the scores were computed from
    counters: FileCounters = field(compare=False, repr=False)


def score_file(counters: FileCounters,
               thresholds: DoaThresholds = DEFAULT_THRESHOLDS,
               weights: DoaWeights = DEFAULT_WEIGHTS,
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
        terms.append((dev, fa, dl, ac, doa_absolute(fa, dl, ac, weights)))
    peak = max(term[4] for term in terms)
    if peak <= 0:
        raise ValueError("maximum absolute score is not positive; "
                         "normalization is undefined for these weights")
    scores = []
    authors = []
    for dev, fa, dl, ac, score in terms:
        norm = score / peak
        is_author = norm > thresholds.normalized_floor and score >= thresholds.absolute_floor
        if is_author:
            authors.append(dev)
        scores.append(DevScore(dev, fa, dl, ac, score, norm, is_author))
    return tuple(scores), frozenset(authors)


def compute_authorship(snapshot: ReleaseSnapshot,
                       thresholds: DoaThresholds = DEFAULT_THRESHOLDS,
                       weights: DoaWeights = DEFAULT_WEIGHTS,
                       previous: "Mapping[int, FileAuthorship] | None" = None,
                       ) -> dict[int, FileAuthorship]:
    """Score every live file of a snapshot: results by file id, in path order.

    `previous` holds results computed with the same floors and weights,
    by file id.  One whose path is unchanged and whose counters object is
    the snapshot's own is taken over as it is: a snapshot shares the
    counters of every file untouched since the previous release.  Every
    other live file is scored.
    """
    previous = previous or {}
    files: dict[int, FileAuthorship] = {}
    for path in sorted(snapshot.live):
        fid = snapshot.live[path]
        counters = snapshot.files[fid]
        fa = previous.get(fid)
        if fa is None or fa.counters is not counters or fa.path != path:
            try:
                scores, authors = score_file(counters, thresholds, weights)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            fa = FileAuthorship(fid, path, scores, authors, counters)
        files[fid] = fa
    return files


@dataclass(frozen=True, slots=True)
class AuthorProportion:
    developers: int
    authors: int
    proportion: float


def author_proportion(authorship: Mapping[int, FileAuthorship], fids: "list[int]",
                      ) -> AuthorProportion:
    """Share of developers of the given live files who author at least one."""
    if not fids:
        raise ValueError("scope contains no live files")
    developers: set[str] = set()
    authors: set[str] = set()
    for fid in fids:
        fa = authorship[fid]
        developers.update(s.developer for s in fa.scores)
        authors.update(fa.authors)
    return AuthorProportion(len(developers), len(authors), len(authors) / len(developers))
