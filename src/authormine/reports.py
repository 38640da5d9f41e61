"""Report rows, CSV/JSON writers and graph exports.

All report output is deterministic: files are ordered by path,
developers by email, scopes as declared in the rules, and floats are
rendered with a fixed six-decimal format.  Metrics that are undefined
for a scope are written as "NA", never as zero.
"""

from __future__ import annotations

import csv
import hashlib
import json
from json.encoder import encode_basestring
from typing import IO, Collection, Iterable, Mapping, Sequence

from .doa import DoaThresholds, DoaWeights, FileAuthorship, compute_authorship
from .network import (CoauthorGraph, assortativity, build_graph, clustering_avg_local,
                      clustering_global, mean_degree, solitary_authors)
from .profiles import profile_proportions
from .series import SeriesState
from .snapshot import ReleaseSnapshot
from .subsystems import SubsystemRules, scope_partition
from .workload import (AuthorCounts, adjusted_fences, files_per_author, gini, medcouple,
                       quantile, top_k_share)

SCOPE_ALL = "All"

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
# one row list per entry
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


def authorship_rows(release_name: str, authorship: "dict[int, FileAuthorship]",
                    tails: "dict[int, list[tuple[str, ...]]]") -> list[tuple[str, ...]]:
    """The authorship rows of one release.  `tails` holds each file's rows
    without the release column, by file id; a file found there is not
    formatted again, and one that is not is formatted and added."""
    rows: list[tuple[str, ...]] = []
    prefix = (release_name,)
    for fa in authorship.values():
        rendered = tails.get(fa.fid)
        if rendered is None:
            rendered = tails[fa.fid] = [
                (fa.path, s.developer, str(s.fa), str(s.dl), str(s.ac),
                 fmt_float(s.doa_abs), fmt_float(s.doa_norm), "1" if s.is_author else "0")
                for s in fa.scores]
        rows.extend(map(prefix.__add__, rendered))
    return rows


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
                 subsystems: "Mapping[str, Collection[str]]") -> list[str]:
    if not counts:
        return [release_name, scope_name(scope), "0", "0", "0", "NA"]
    breakdown = profile_proportions(counts, subsystems)
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


def advance(state: SeriesState, snapshot: ReleaseSnapshot, rules: SubsystemRules,
            thresholds: DoaThresholds, weights: DoaWeights,
            ) -> "tuple[dict[int, FileAuthorship], dict[str | None, list[int]]]":
    """Bring `state` to `snapshot` and return its results and scope partition.

    Only files whose counters or path changed since the state's last
    snapshot are scored and counted again.
    """
    state.bind((rules, thresholds, weights))
    authorship = compute_authorship(snapshot, thresholds, weights, state.authorship)
    partition = scope_partition(snapshot, rules, state.labels)
    state.update(snapshot, authorship)
    return authorship, partition


def _graph(state: SeriesState, scope: "str | None") -> CoauthorGraph:
    return build_graph(state.author_counts.get(scope, {}), state.edge_weights.get(scope, {}))


def release_report(snapshot: ReleaseSnapshot, rules: SubsystemRules,
                   thresholds: DoaThresholds, weights: DoaWeights,
                   state: "SeriesState | None" = None) -> tuple[list[Sequence[str]], ...]:
    """All report rows for one release, one list per REPORTS entry, scopes All-first.

    `state` carries a release series over from its previous release; the
    release is computed from an empty state without one.
    """
    state = SeriesState() if state is None else state
    authorship, partition = advance(state, snapshot, rules, thresholds, weights)
    name = snapshot.release.name
    workload_rows = []
    profile_rows = []
    network_rows = []
    for scope, fids in partition.items():
        counts = state.author_counts.get(scope, {})
        workload_rows.append(workload_row(name, scope, counts, len(fids)))
        profile_rows.append(profiles_row(name, scope, counts, state.subsystem_counts))
        network_rows.append(network_row(name, scope, _graph(state, scope)))
    return (authorship_rows(name, authorship, state.tails), workload_rows, profile_rows,
            network_rows)


def release_workload(snapshot: ReleaseSnapshot, rules: SubsystemRules,
                     thresholds: DoaThresholds, weights: DoaWeights,
                     state: "SeriesState | None" = None) -> list[list[str]]:
    """The workload rows of one release and nothing else, as `stats` prints them."""
    state = SeriesState() if state is None else state
    _, partition = advance(state, snapshot, rules, thresholds, weights)
    return [workload_row(snapshot.release.name, scope, state.author_counts.get(scope, {}),
                         len(fids))
            for scope, fids in partition.items()]


def release_graphs(snapshot: ReleaseSnapshot, rules: SubsystemRules,
                   thresholds: DoaThresholds, weights: DoaWeights,
                   state: "SeriesState | None" = None,
                   ) -> "dict[str | None, CoauthorGraph]":
    """The co-authorship graph of each scope of one release, All first."""
    state = SeriesState() if state is None else state
    _, partition = advance(state, snapshot, rules, thresholds, weights)
    return {scope: _graph(state, scope) for scope in partition}


def edge_rows(graph: CoauthorGraph) -> list[list[str]]:
    return [[u, v, str(graph.weights[(u, v)])] for u, v in graph.edges]


def write_csv(fh: IO[str], header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_json_mirror(fh: IO[str], header: Sequence[str],
                      rows: Iterable[Sequence[str]]) -> None:
    """Write string rows as a JSON array of header-keyed objects, one row at a time.

    The bytes equal `json.dump([dict(zip(header, row)) for row in rows], fh,
    indent=2, ensure_ascii=False)` plus a newline, without the list.
    """
    keys = [f"\n    {encode_basestring(key)}: " for key in header]
    opener = "[\n  {"
    for row in rows:
        fh.write(opener + ",".join(k + encode_basestring(v) for k, v in zip(keys, row))
                 + "\n  }")
        opener = ",\n  {"
    fh.write("[]\n" if opener == "[\n  {" else "\n]\n")


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
