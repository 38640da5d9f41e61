"""Reference computation and output checks for the benchmark.

Nothing here imports `authormine`.  The history is replayed from the
generated files with plain dicts keyed by developer email; statistics
are computed from their definitions (numpy quantiles, Gini from the
mean absolute difference, medcouple as a weighted median over distinct
value pairs rather than the engine's kernel matrix) and graph metrics
come from networkx.

Numbers are compared within the six decimals the reports print;
decisions, counts, keys and row order are compared exactly.  Every check
returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

DOA_BASE, DOA_FA, DOA_DL, DOA_AC = 3.293, 1.098, 0.164, 0.321
NORM_FLOOR, ABS_FLOOR = 0.75, 3.293
TOLERANCE = 5e-7 + 1e-9  # half a unit in the sixth printed decimal
SCOPE_ALL = "All"

WORKLOAD_HEADER = ["release", "scope", "n_authors", "min", "q1", "median", "q3",
                   "max", "medcouple", "fence_lo", "fence_hi", "gini",
                   "top1_share", "top10_share"]
PROFILES_HEADER = ["release", "scope", "n_authors", "specialists", "generalists",
                   "specialist_pct"]
NETWORK_HEADER = ["release", "scope", "vertices", "edges", "mean_degree",
                  "transitivity", "avg_local_clustering", "assortativity",
                  "solitary_count", "solitary_pct"]
AUTHORSHIP_HEADER = ["release", "file", "developer_email", "fa", "dl", "ac",
                     "doa_abs", "doa_norm", "is_author"]
EDGES_HEADER = ["author_a", "author_b", "shared_files"]
REPORTS = ("authorship", "workload", "profiles", "network")

# column kinds: k = key (exact), i = integer (exact), f = number or NA
WORKLOAD_KINDS = "kki" + "f" * 11
PROFILES_KINDS = "kkiiif"
NETWORK_KINDS = "kkiiffffif"
AUTHORSHIP_KINDS = "kkkiiiffi"


# --------------------------------------------------------------------------
# replay


@dataclass
class Release:
    name: str
    # path -> [(email, fa, dl, ac, doa_abs, doa_norm, is_author)] sorted by email
    files: dict[str, list[tuple]]
    authors: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class Reference:
    releases: list[Release]
    labels: list[str]
    label_of: dict[str, str]
    workload: list[list] = field(default_factory=list)
    profiles: list[list] = field(default_factory=list)
    network: list[list] = field(default_factory=list)
    edges: dict[tuple[str, str], list[tuple[str, str, int]]] = field(default_factory=dict)

    def release(self, name: str) -> Release:
        return next(r for r in self.releases if r.name == name)


def load_rules(path: Path) -> tuple[list[tuple[str, str]], str]:
    rules, fallback = [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pattern, label = (part.strip() for part in line.split("\t", 1))
        if pattern == "fallback":
            fallback = label
        else:
            rules.append((pattern, label))
    if fallback is None:
        raise ValueError(f"{path}: no fallback label")
    return rules, fallback


def _matches(pattern: str, path: str) -> bool:
    if any(c in pattern for c in "*?["):
        return fnmatch.fnmatchcase(path, pattern)
    if pattern.endswith("/"):
        return path.startswith(pattern)
    return path == pattern or path.startswith(pattern + "/")


def _doa(fa: int, dl: int, ac: int) -> float:
    return DOA_BASE + DOA_FA * fa + DOA_DL * dl - DOA_AC * math.log1p(ac)


def replay(inputs: Path, exclude: list[str]) -> list[Release]:
    """Counters and author decisions at every release, keyed by email."""
    aliases = {}
    for line in (inputs / "aliases.txt").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        raw, canonical = line.split("=")
        raw_name, raw_email = raw.strip().rstrip(">").split("<")
        aliases[(raw_name.strip(), raw_email.strip().lower())] = (
            canonical.strip().rstrip(">").split("<")[1].strip().lower())
    boundaries = {}
    for line in (inputs / "releases.txt").read_text(encoding="utf-8").splitlines():
        if line.strip():
            name, commit = line.split()
            boundaries[commit] = name

    live: dict[str, int] = {}
    creator: list[str] = []
    total: list[int] = []
    deliveries: list[dict[str, int]] = []
    releases = []

    def touch(inc: int, email: str, seen: set[int]) -> None:
        if inc in seen:
            return
        seen.add(inc)
        total[inc] += 1
        deliveries[inc][email] = deliveries[inc].get(email, 0) + 1

    with open(inputs / "history.ndjson", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            email = aliases.get((rec["an"].strip(), rec["ae"].strip().lower()),
                                rec["ae"].lower())
            seen: set[int] = set()
            kept = [change for change in rec["ch"]
                    if not any(_matches(p, path) for p in exclude for path in change[1:])]
            for change in kept:
                kind, path = change[0], change[1]
                if kind == "A":
                    if path in live:
                        raise ValueError(f"history adds live path {path}")
                    live[path] = len(creator)
                    creator.append(email)
                    total.append(0)
                    deliveries.append({})
                    touch(live[path], email, seen)
                elif kind == "M":
                    touch(live[path], email, seen)
                elif kind == "D":
                    touch(live.pop(path), email, seen)
                elif kind == "R":
                    if path in live:
                        raise ValueError(f"history renames onto live path {path}")
                    live[path] = live.pop(change[2])
                    touch(live[path], email, seen)
                else:
                    raise ValueError(f"unknown change kind {kind!r}")
            # a record left without changes is dropped, boundary included
            if kept and rec["id"] in boundaries:
                releases.append(_freeze(boundaries[rec["id"]], live, creator, total,
                                        deliveries))
    if len(releases) != len(boundaries):
        raise ValueError("a release boundary is missing from the history")
    return releases


def _freeze(name, live, creator, total, deliveries) -> Release:
    files = {}
    for path in sorted(live):
        inc = live[path]
        rows = []
        scores = {}
        for email, dl in deliveries[inc].items():
            fa = 1 if email == creator[inc] else 0
            scores[email] = (fa, dl, total[inc] - dl, _doa(fa, dl, total[inc] - dl))
        peak = max(s[3] for s in scores.values())
        for email in sorted(scores):
            fa, dl, ac, score = scores[email]
            norm = score / peak
            rows.append((email, fa, dl, ac, score, norm,
                         norm > NORM_FLOOR and score >= ABS_FLOOR))
        files[path] = rows
    release = Release(name, files)
    release.authors = {path: [r[0] for r in rows if r[6]] for path, rows in files.items()}
    return release


# --------------------------------------------------------------------------
# statistics, from their definitions


def medcouple(sample: list[int]) -> float:
    """Weighted median of the medcouple kernel over distinct value pairs.

    Pairs (x_i <= m <= x_j) with equal values share one kernel value, so
    the kernel is evaluated once per distinct pair and weighted by the
    pair count; median ties (both at m) contribute the sign kernel's
    multiset of k zeros and k(k-1)/2 each of -1 and +1.
    """
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    n = xs.size
    m = xs[(n - 1) // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    values, counts = np.unique(xs - m, return_counts=True)
    lower = [(v, c) for v, c in zip(values, counts) if v <= 0.0]
    upper = [(v, c) for v, c in zip(values, counts) if v >= 0.0]
    kernel, weight = [], []
    ties = int(counts[values == 0.0].sum())
    for a, ca in lower:
        for b, cb in upper:
            if a == 0.0 and b == 0.0:
                continue
            kernel.append((b + a) / (b - a))
            weight.append(int(ca) * int(cb))
    if ties:
        kernel += [0.0, -1.0, 1.0]
        weight += [ties, ties * (ties - 1) // 2, ties * (ties - 1) // 2]
    order = np.argsort(kernel, kind="stable")
    kernel = np.asarray(kernel)[order]
    cum = np.cumsum(np.asarray(weight, dtype=np.int64)[order])
    total = int(cum[-1])
    lo = kernel[np.searchsorted(cum, (total - 1) // 2, side="right")]
    hi = kernel[np.searchsorted(cum, total // 2, side="right")]
    return float(0.5 * (lo + hi))


def gini(sample: list[int]) -> float:
    """Mean absolute difference over twice the mean: sum|xi-xj| / (2 n^2 mean)."""
    values, counts = np.unique(np.asarray(sample, dtype=np.float64), return_counts=True)
    mad = float(np.sum(np.abs(values[:, None] - values[None, :])
                       * np.outer(counts, counts)))
    n = len(sample)
    return mad / (2.0 * n * n * (sum(sample) / n))


def fences(sample: list[int], mc: float) -> tuple[float, float]:
    q1, q3 = np.quantile(sample, [0.25, 0.75])
    iqr = q3 - q1
    if mc >= 0:
        return q1 - 1.5 * math.exp(-4 * mc) * iqr, q3 + 1.5 * math.exp(3 * mc) * iqr
    return q1 - 1.5 * math.exp(-3 * mc) * iqr, q3 + 1.5 * math.exp(4 * mc) * iqr


# --------------------------------------------------------------------------
# per-release, per-scope expectations


def build(inputs: Path, rules_path: Path, exclude: list[str]) -> Reference:
    rules, fallback = load_rules(rules_path)
    labels = []
    for _, label in rules + [("", fallback)]:
        if label not in labels:
            labels.append(label)
    releases = replay(inputs, exclude)
    label_of = {}
    for release in releases:
        for path in release.files:
            if path not in label_of:
                label_of[path] = next((lab for pat, lab in rules if _matches(pat, path)),
                                      fallback)
    ref = Reference(releases, labels, label_of)
    for release in releases:
        _scopes(ref, release)
    return ref


def _scopes(ref: Reference, release: Release) -> None:
    reach: dict[str, set[str]] = {}
    for path, authors in release.authors.items():
        for email in authors:
            reach.setdefault(email, set()).add(ref.label_of[path])
    for scope in [SCOPE_ALL] + ref.labels:
        paths = [p for p in release.files
                 if scope == SCOPE_ALL or ref.label_of[p] == scope]
        owned: dict[str, int] = {}
        shared: dict[tuple[str, str], int] = {}
        for path in paths:
            authors = sorted(release.authors[path])
            for email in authors:
                owned[email] = owned.get(email, 0) + 1
            for i, a in enumerate(authors):
                for b in authors[i + 1:]:
                    shared[(a, b)] = shared.get((a, b), 0) + 1
        key = [release.name, scope]
        ref.workload.append(key + _workload(sorted(owned.values()), len(paths)))
        n = len(owned)
        specialists = sum(1 for email in owned if len(reach[email]) == 1)
        ref.profiles.append(key + [n, specialists, n - specialists,
                                   100.0 * specialists / n if n else None])
        ref.network.append(key + _network(list(owned), shared))
        ref.edges[(release.name, scope)] = [(a, b, w) for (a, b), w in sorted(shared.items())]


def _workload(sample: list[int], n_files: int) -> list:
    n = len(sample)
    if n == 0:
        return [0] + [None] * 11
    mc = lo = hi = None
    if n >= 3:
        mc = medcouple(sample)
        lo, hi = fences(sample, mc)
    quantiles = [float(q) for q in np.quantile(sample, [0.0, 0.25, 0.5, 0.75, 1.0])]
    top = sorted(sample, reverse=True)
    return [n] + quantiles + [mc, lo, hi, gini(sample), top[0] / n_files,
                              sum(top[:10]) / n_files]


def _network(vertices: list[str], shared: dict[tuple[str, str], int]) -> list:
    graph = nx.Graph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from(shared)
    n, e = graph.number_of_nodes(), graph.number_of_edges()
    degrees = dict(graph.degree())
    triples = sum(d * (d - 1) // 2 for d in degrees.values())
    transitivity = nx.transitivity(graph) if triples else None
    clustering = nx.clustering(graph)
    local = [clustering[v] for v, d in degrees.items() if d >= 2]
    ends = [degrees[v] for edge in graph.edges() for v in edge]
    assortativity = None
    if e and min(ends) != max(ends):
        assortativity = nx.degree_assortativity_coefficient(graph)
    solitary = sum(1 for d in degrees.values() if d == 0)
    return [n, e, 2.0 * e / n if n else None, transitivity,
            sum(local) / len(local) if local else None, assortativity,
            solitary, 100.0 * solitary / n if n else None]


def authorship_rows(ref: Reference) -> list[list]:
    return [[release.name, path, *row[:6], int(row[6])]
            for release in ref.releases for path, rows in release.files.items()
            for row in rows]


# --------------------------------------------------------------------------
# comparison


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def compare_rows(what: str, header: list[str], expected_header: list[str],
                 rows: list[list[str]], expected: list[list], kinds: str) -> list[str]:
    """Row-by-row comparison: keys and integers exactly, numbers to 6 decimals."""
    if header != expected_header:
        return [f"{what}: header {header} != {expected_header}"]
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{what}: {len(rows)} rows, expected {len(expected)}")
    for i, (row, exp) in enumerate(zip(rows, expected)):
        for col, kind, got, want in zip(header, kinds, row, exp):
            if not _same(kind, got, want):
                problems.append(f"{what} row {i + 1} ({row[0]},{row[1]}) {col}: "
                                f"{got!r} != {want!r}")
                break
        if len(problems) >= 5:
            break
    return problems


def _same(kind: str, got: str, want) -> bool:
    if kind == "k":
        return got == want
    if kind == "i":
        return got == str(int(want))
    if want is None:
        return got == "NA"
    try:
        return abs(float(got) - want) <= TOLERANCE
    except ValueError:
        return False


def check_workload(rows, ref: Reference, releases=None, header=WORKLOAD_HEADER):
    expected = [r for r in ref.workload if releases is None or r[0] in releases]
    return compare_rows("workload", header, WORKLOAD_HEADER, rows, expected,
                        WORKLOAD_KINDS)


def check_profiles(rows, ref: Reference, header=PROFILES_HEADER):
    return compare_rows("profiles", header, PROFILES_HEADER, rows, ref.profiles,
                        PROFILES_KINDS)


def check_network(rows, ref: Reference, releases=None, header=NETWORK_HEADER):
    expected = [r for r in ref.network if releases is None or r[0] in releases]
    return compare_rows("network", header, NETWORK_HEADER, rows, expected,
                        NETWORK_KINDS)


def check_authorship(rows, ref: Reference, header=AUTHORSHIP_HEADER):
    return compare_rows("authorship", header, AUTHORSHIP_HEADER, rows,
                        authorship_rows(ref), AUTHORSHIP_KINDS)


def check_analyze(out_dir: Path, ref: Reference, json_mirror: bool) -> list[str]:
    """Every report of one `analyze` run, their mirrors and the manifest."""
    problems = []
    tables = {}
    for name in REPORTS:
        path = out_dir / f"{name}.csv"
        if not path.is_file():
            return [f"missing {path.name}"]
        tables[name] = read_csv(path.read_text(encoding="utf-8"))
    for name, checker in (("authorship", check_authorship), ("workload", check_workload),
                          ("profiles", check_profiles), ("network", check_network)):
        header, rows = tables[name]
        problems += checker(rows, ref, header=header)
    problems += check_consistency(tables["workload"][1], tables["profiles"][1],
                                  tables["network"][1])

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = {item["name"]: item["sha256"] for item in manifest["outputs"]}
    produced = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    if sorted(listed) != produced:
        problems.append(f"manifest lists {sorted(listed)}, directory has {produced}")
    for name, digest in listed.items():
        path = out_dir / name
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest digest of {name} does not match the file")
    if json_mirror:
        for name in REPORTS:
            path = out_dir / f"{name}.json"
            if not path.is_file():
                problems.append(f"missing {path.name}")
                continue
            header, rows = tables[name]
            if json.loads(path.read_text(encoding="utf-8")) != [
                    dict(zip(header, row)) for row in rows]:
                problems.append(f"{name}.json differs from {name}.csv")
    return problems


def check_consistency(workload, profiles, network) -> list[str]:
    """n_authors agrees across workload, profiles and network per (release, scope)."""
    problems = []
    for w, p, n in zip(workload, profiles, network):
        if not (w[:2] == p[:2] == n[:2] and w[2] == p[2] == n[2]):
            problems.append(f"n_authors disagree at {w[:2]}: {w[2]}, {p[2]}, {n[2]}")
    if not len(workload) == len(profiles) == len(network):
        problems.append("workload, profiles and network row counts differ")
    return problems


def check_authors(stdout: str, ref: Reference, release: str, path: str) -> list[str]:
    """`authors FILE --release R`: email,doa_abs,doa_norm by (-doa_norm, email)."""
    rows = [r for r in ref.release(release).files[path] if r[6]]
    rows.sort(key=lambda r: (-r[5], r[0]))
    got = [line.split(",") for line in stdout.splitlines()]
    if [g[0] for g in got] != [r[0] for r in rows]:
        return [f"authors {path}: {[g[0] for g in got]} != {[r[0] for r in rows]}"]
    for g, r in zip(got, rows):
        if not (_same("f", g[1], r[4]) and _same("f", g[2], r[5])):
            return [f"authors {path}: {g} != {r[:1] + r[4:6]}"]
    return []


def check_edges(text: str, ref: Reference, release: str, scope: str) -> list[str]:
    header, rows = read_csv(text)
    expected = [[a, b, str(w)] for a, b, w in ref.edges[(release, scope)]]
    if header != EDGES_HEADER or rows != expected:
        return [f"edges of {release}/{scope}: {len(rows)} rows differ from the "
                f"{len(expected)} reference co-author pairs"]
    return []


def check_pajek(text: str, ref: Reference, release: str, scope: str) -> list[str]:
    edges = ref.edges[(release, scope)]
    rel = ref.release(release)
    vertices = sorted({a for path, authors in rel.authors.items()
                       if scope == SCOPE_ALL or ref.label_of[path] == scope
                       for a in authors})
    index = {v: i for i, v in enumerate(vertices, start=1)}
    expected = ([f"*Vertices {len(vertices)}"] + [f'{i} "{v}"' for v, i in index.items()]
                + ["*Edges"] + [f"{index[a]} {index[b]} {w}" for a, b, w in edges])
    if text.splitlines() != expected:
        return [f"graph of {release}/{scope} differs from the reference"]
    return []
