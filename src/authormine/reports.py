"""Report rows, CSV/JSON writers and graph exports.

All report output is deterministic: files are ordered by path,
developers by email, scopes as declared in the rules, and floats are
written with a fixed six-decimal format.  Metrics that are undefined
for a scope are written as "NA", never as zero.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring
from typing import IO, Iterable, Mapping, Sequence

from .doa import DevScore, FileAuthorship, compute_authorship
from .network import (CoauthorGraph, assortativity, build_graph, clustering_avg_local,
                      clustering_global, mean_degree, solitary_authors)
from .profiles import profile_proportions
from .series import SeriesState
from .snapshot import ReleaseSnapshot
from .subsystems import SCOPE_ALL, scope_partition
from .workload import (AuthorCounts, adjusted_fences, files_per_author, gini, medcouple,
                       quantile, top_k_share)

AUTHORSHIP_HEADER = ["release", "file", "developer_email", "fa", "dl", "ac",
                     "doa_abs", "doa_norm", "is_author"]
WORKLOAD_HEADER = ["release", "scope", "n_authors", "min", "q1", "median", "q3",
                   "max", "medcouple", "fence_lo", "fence_hi", "gini",
                   "top1_share", "top10_share"]
PROFILES_HEADER = ["release", "scope", "n_authors", "specialists", "generalists",
                   "specialist_pct"]
NETWORK_HEADER = ["release", "scope", "vertices", "edges", "mean_degree",
                  "transitivity", "avg_local_clustering", "assortativity",
                  "solitary_count", "solitary_pct"]
EDGES_HEADER = ["author_a", "author_b", "shared_files"]

# the reports `analyze` writes, in output order; `release_report` returns
# one entry per report
REPORTS = (("authorship", AUTHORSHIP_HEADER), ("workload", WORKLOAD_HEADER),
           ("profiles", PROFILES_HEADER), ("network", NETWORK_HEADER))


def fmt_float(value: "float | None") -> str:
    if value is None:
        return "NA"
    if value == 0.0:
        value = 0.0  # fold -0.0
    return f"{value:.6f}"


def scope_name(scope: "str | None") -> str:
    return SCOPE_ALL if scope is None else scope


class _Lines(list):
    """A csv writer's file: keeps each line the writer hands it."""
    write = list.append


# one or more rows without their release column, as text: the CSV lines, and
# each row's JSON object body (see `_json_template`), which is left empty
# unless a JSON mirror is written.  A group holds a live file's rows, or a
# table's, which always has a row for scope All
RowText = tuple[tuple[str, ...], tuple[str, ...]]


def render_rows(header: Sequence[str], rows: Sequence[Sequence[str]],
                with_json: bool) -> RowText:
    """A report's rows, given without their release column, as RowText."""
    lines = _Lines()
    csv.writer(lines, lineterminator="\n").writerows(rows)
    if not with_json:
        return tuple(lines), ()
    template = _json_template(header[1:])
    return tuple(lines), tuple(template % tuple(map(encode_basestring, row)) for row in rows)


def _json_template(keys: Sequence[str], numbers: int = 0) -> str:
    """The body of a JSON row object whose first member precedes it, laid out as
    `json.dump(..., indent=2)` does: one member per key, each value a `%s`
    field to fill with an encoded string, then the closing brace; the last
    `numbers` fields are quoted already, as a formatted number needs no
    escaping.  A NUL marks each field until the percent signs are escaped:
    an encoded key holds none."""
    marks = ["\0"] * (len(keys) - numbers) + ['"\0"'] * numbers
    members = "".join(f",\n    {encode_basestring(k)}: {m}" for k, m in zip(keys, marks))
    return (members + "\n  }").replace("%", "%%").replace("\0", "%s")


RENDER_MEMO_SIZE = 1 << 14  # the most entries each memo of a renderer holds


class AuthorshipRenderer:
    """Renders one file's scores as its authorship RowText; one serves a run.

    The csv module and `encode_basestring` quote and escape a file's path
    once, and an email, or a row's numeric tail (fa to is_author), once per
    renderer while its memo holds it; each memo is emptied when full.  A
    number holds only digits, '.' and '-'.
    """

    def __init__(self, with_json: bool) -> None:
        self.with_json = with_json
        line = _Lines()
        writerow = csv.writer(line, lineterminator="\n").writerow

        def quote(text: str) -> str:
            writerow((text, ""))  # beside another field an empty one is not quoted
            return line.pop()[:-2]

        self.quote = quote
        # a JSON body is the file's member, the email's, then the tail's
        self.file_key, self.email_key = (f",\n    {encode_basestring(key)}: "
                                         for key in AUTHORSHIP_HEADER[1:3])
        self.tail_template = _json_template(AUTHORSHIP_HEADER[3:], numbers=6)
        self.emails: dict[str, tuple[str, str]] = {}
        self.tails: dict[tuple, tuple[str, str]] = {}

    def __call__(self, path: str, scores: Sequence[DevScore]) -> RowText:
        emails, tails, with_json = self.emails, self.tails, self.with_json
        csv_path = self.quote(path)
        json_path = with_json and self.file_key + encode_basestring(path)
        lines, bodies = [], []
        for score in scores:
            email = emails.get(score[0])
            if email is None:
                email = self._email(score[0])
            tail = tails.get(score[1:])
            if tail is None:
                tail = self._tail(score)
            lines.append(f"{csv_path},{email[0]}{tail[0]}")
            if with_json:
                bodies.append(json_path + email[1] + tail[1])
        return tuple(lines), tuple(bodies)

    def _email(self, dev: str) -> tuple[str, str]:
        if len(self.emails) >= RENDER_MEMO_SIZE:
            self.emails.clear()
        text = self.emails[dev] = (
            self.quote(dev), self.with_json and self.email_key + encode_basestring(dev))
        return text

    def _tail(self, score: DevScore) -> tuple[str, str]:
        if len(self.tails) >= RENDER_MEMO_SIZE:
            self.tails.clear()
        _, fa, dl, ac, doa_abs, doa_norm, is_author = score
        numbers = (fa, dl, ac, fmt_float(doa_abs), fmt_float(doa_norm),
                   "1" if is_author else "0")
        text = self.tails[score[1:]] = (
            ",%s,%s,%s,%s,%s,%s\n" % numbers,
            self.with_json and self.tail_template % numbers)
        return text


def authorship_rows(authorship: "Mapping[str, FileAuthorship]",
                    paths: Iterable[str]) -> list[RowText]:
    """The authorship rows of the given live files without the release
    column: the text `advance` gave each, under `release_report`."""
    return [authorship[path].text for path in paths]


def workload_row(release_name: str, scope: "str | None",
                 counts: AuthorCounts, n_files: int) -> list[str]:
    sample = files_per_author(counts)
    n = len(sample)
    if n == 0:
        return [release_name, scope_name(scope), "0"] + ["NA"] * 11
    mc = fence_lo = fence_hi = None
    if n >= 3:
        mc = medcouple(sample)
        fences = adjusted_fences(sample, mc)
        fence_lo, fence_hi = fences.lower, fences.upper
    top = top_k_share(counts, n_files, 10)
    return [
        release_name, scope_name(scope), str(n),
        fmt_float(quantile(sample, 0.0)),
        fmt_float(quantile(sample, 0.25)),
        fmt_float(quantile(sample, 0.5)),
        fmt_float(quantile(sample, 0.75)),
        fmt_float(quantile(sample, 1.0)),
        fmt_float(mc), fmt_float(fence_lo), fmt_float(fence_hi),
        fmt_float(gini(sample)),
        fmt_float(top.top1_share),
        fmt_float(top.topk_share),
    ]


def profiles_row(release_name: str, scope: "str | None", counts: AuthorCounts,
                 spread: "Mapping[str, int]") -> list[str]:
    if not counts:
        return [release_name, scope_name(scope), "0", "0", "0", "NA"]
    breakdown = profile_proportions(counts, spread)
    return [
        release_name, scope_name(scope), str(breakdown.n_authors),
        str(breakdown.specialists), str(breakdown.generalists),
        fmt_float(breakdown.specialist_pct),
    ]


def network_row(release_name: str, scope: "str | None",
                graph: CoauthorGraph) -> list[str]:
    n = graph.n_vertices
    solitary = len(solitary_authors(graph))
    return [
        release_name, scope_name(scope), str(n), str(graph.n_edges),
        fmt_float(mean_degree(graph) if n else None),
        fmt_float(clustering_global(graph)),
        fmt_float(clustering_avg_local(graph)),
        fmt_float(assortativity(graph)),
        str(solitary),
        fmt_float(100.0 * solitary / n if n else None),
    ]


def advance(state: SeriesState, snapshot: ReleaseSnapshot) -> None:
    """Bring `state` to `snapshot`: the one release step of every command.

    Past `SeriesState.delta`, only the delta is visited: each changed path
    is scored, given its text by the state's renderer if it has one, and
    merged into the state's results, its count moved to its new author set
    if that changed; each born path is classified, each dead one dropped.
    A new state computes the release from scratch.
    """
    changed, dead = state.delta(snapshot)
    new = compute_authorship(snapshot, state.thresholds, state.render, changed)
    scope_partition([path for path in changed if path not in state.labels],
                    state.rules, state.labels)
    state.update(new, dead)


def scope_graph(state: SeriesState, scope: "str | None") -> CoauthorGraph:
    """The co-authorship graph of one scope, None for All, at the release
    `state` last reached."""
    return build_graph(state.author_counts(scope), state.edge_weights(scope))


def release_report(snapshot: ReleaseSnapshot, state: SeriesState) -> list[list[RowText]]:
    """The reports of one release as text, one RowText list per REPORTS entry:
    each live file's authorship rows in path order (`authorship_rows`), then
    one group of the workload, profiles and network rows each, scopes
    All-first.  The state's renderer gives every release its text; a state
    made without one has none to report."""
    if state.render is None:
        raise ValueError("release_report needs a SeriesState made with a renderer")
    advance(state, snapshot)
    name = snapshot.release.name
    counts = {scope: state.author_counts(scope) for scope in state.author_sets}
    # the number of subsystems each author authors files in
    spread = Counter(chain.from_iterable(
        authors for scope, authors in counts.items() if scope is not None))
    tables = ([], [], [])  # the workload, profiles and network rows
    for scope, authors in counts.items():
        graph = build_graph(authors, state.edge_weights(scope))
        tables[0].append(workload_row(name, scope, authors, state.size(scope)))
        tables[1].append(profiles_row(name, scope, authors, spread))
        tables[2].append(network_row(name, scope, graph))
    files = authorship_rows(state.authorship, sorted(state.authorship))
    with_json = state.render.with_json
    return [files] + [[render_rows(header, [row[1:] for row in rows], with_json)]
                      for (_, header), rows in zip(REPORTS[1:], tables)]


def edge_rows(graph: CoauthorGraph) -> list[list[str]]:
    return [[u, v, str(graph.weights[(u, v)])] for u, v in graph.edges]


def write_csv(fh: IO[str], header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_csv_text(fh: IO[str], release_name: str, groups: Iterable[RowText]) -> None:
    """Write one release's rows to a report CSV, a group at a time, with the
    release column put in front of each line."""
    line = _Lines()
    csv.writer(line, lineterminator="\n").writerow((release_name, ""))
    prefix = line[0][:-1]  # the release field and its delimiter
    for lines, _ in groups:
        fh.write(prefix + prefix.join(lines))


def write_json_mirror(fh: IO[str], header: Sequence[str], release_name: str,
                      groups: Iterable[RowText], opener: str = "[") -> str:
    """Write one release's rows to a JSON mirror, a group at a time, and return
    the opener of the next row.

    A mirror is an array of header-keyed objects.  Its first row opens with
    "[", each later one with ","; `end_json_mirror` closes it.  The bytes
    equal `json.dump([dict(zip(header, row)) for row in rows], fh, indent=2,
    ensure_ascii=False)` plus a newline, with no list of the rows.
    """
    head = f"\n  {{\n    {encode_basestring(header[0])}: {encode_basestring(release_name)}"
    between = "," + head
    for _, bodies in groups:
        fh.write(opener + head + between.join(bodies))
        opener = ","
    return opener


def end_json_mirror(fh: IO[str], opener: str) -> None:
    """Close a JSON mirror whose next row would open with `opener`."""
    fh.write("[]\n" if opener == "[" else "\n]\n")


def write_pajek(fh: IO[str], graph: CoauthorGraph) -> None:
    """Plain-text graph interchange: vertex list plus weighted edge list.

    Vertex labels are double-quoted, with `\\` and `"` backslash-escaped.
    """
    index = {v: i for i, v in enumerate(graph.vertices, start=1)}
    fh.write(f"*Vertices {graph.n_vertices}\n")
    for v, i in index.items():
        label = v.replace("\\", "\\\\").replace('"', '\\"')
        fh.write(f'{i} "{label}"\n')
    fh.write("*Edges\n")
    for u, v in graph.edges:
        fh.write(f"{index[u]} {index[v]} {graph.weights[(u, v)]}\n")


def sha256_file(path) -> str:
    import hashlib  # here and in build_manifest: it loads libcrypto and only analyze digests
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(version: str, settings: dict, inputs: list[dict],
                   outputs: list[dict]) -> dict:
    """Run manifest with a content hash over settings and input digests.

    Paths are recorded as basenames so that identical inputs and
    settings produce a byte-identical manifest anywhere.
    """
    hashed = {
        "settings": settings,
        "inputs": [(item["role"], item["name"], item["sha256"]) for item in inputs],
    }
    import hashlib
    config_hash = hashlib.sha256(
        json.dumps(hashed, sort_keys=True).encode("utf-8")).hexdigest()
    return {
        "tool": "authormine",
        "version": version,
        "settings": settings,
        "inputs": inputs,
        "outputs": outputs,
        "config_hash": config_hash,
    }


def write_manifest(fh: IO[str], manifest: dict) -> None:
    json.dump(manifest, fh, indent=2, sort_keys=True, ensure_ascii=False)
    fh.write("\n")
