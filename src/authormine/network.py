"""Co-authorship graph construction and network metrics.

Vertices are the authors in scope; an undirected edge links two authors
who share at least one authored live file.  The graph is simple (no
self-loops or multi-edges); edge weights record the number of shared
files but every metric here is unweighted.  Metrics that are undefined
for a given graph (no length-2 paths, zero degree variance) return
None rather than a fake zero.  Vertices are authors' canonical emails.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Mapping, NamedTuple

Edge = tuple[str, str]


class CoauthorGraph(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    weights: Mapping[Edge, int]
    adjacency: Mapping[str, frozenset[str]]

    def degree(self, vertex: str) -> int:
        return len(self.adjacency[vertex])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_graph(authors: Iterable[str],
                weights: Mapping[Edge, int]) -> CoauthorGraph:
    """Co-authorship graph of one scope from its authors and the number of
    live files each co-author pair shares there, in sorted order.

    An empty scope yields an empty graph.  Solitary authors (degree 0)
    are retained as vertices, and all of them map to one shared empty
    neighbour set: only a vertex with an edge has a set of its own.
    """
    verts = tuple(sorted(set(authors)))
    vert_set = set(verts)
    adjacency: defaultdict[str, set[str]] = defaultdict(set)
    edge_weights: dict[Edge, int] = {}
    for (u, v), w in weights.items():
        if u == v:
            raise ValueError("self-loops are not allowed")
        if u not in vert_set or v not in vert_set:
            raise ValueError("edge endpoint is not a vertex")
        a, b = sorted((u, v))
        edge_weights[(a, b)] = edge_weights.get((a, b), 0) + w
        adjacency[a].add(b)
        adjacency[b].add(a)
    edges = tuple(sorted(edge_weights))
    solitary: frozenset[str] = frozenset()
    return CoauthorGraph(verts, edges, edge_weights,
                         {v: frozenset(adjacency[v]) if v in adjacency else solitary
                          for v in verts})


def mean_degree(graph: CoauthorGraph) -> float:
    if graph.n_vertices == 0:
        raise ValueError("mean degree of an empty graph")
    return 2.0 * graph.n_edges / graph.n_vertices


def clustering_global(graph: CoauthorGraph) -> "float | None":
    """Transitivity: 3 * triangles / connected triples, or None when the
    graph has no length-2 paths."""
    triples = sum(d * (d - 1) // 2 for d in map(graph.degree, graph.vertices))
    if triples == 0:
        return None
    closed = sum(len(graph.adjacency[u] & graph.adjacency[v])
                 for u, v in graph.edges)
    return closed / triples


def clustering_avg_local(graph: CoauthorGraph) -> "float | None":
    """Mean local clustering over vertices of degree >= 2, or None when
    no vertex qualifies."""
    locals_: list[float] = []
    for v in graph.vertices:
        neighbors = graph.adjacency[v]
        d = len(neighbors)
        if d < 2:
            continue
        links = sum(len(graph.adjacency[u] & neighbors) for u in neighbors) // 2
        locals_.append(links / (d * (d - 1) / 2))
    if not locals_:
        return None
    return sum(locals_) / len(locals_)


def assortativity(graph: CoauthorGraph) -> "float | None":
    """Degree assortativity: Pearson correlation over the 2|E| ordered
    edge-endpoint degree pairs.  None when the graph has no edges or all
    endpoint degrees are equal (zero variance)."""
    if graph.n_edges == 0:
        return None
    xs: list[int] = []
    ys: list[int] = []
    for u, v in graph.edges:
        du, dv = graph.degree(u), graph.degree(v)
        xs.extend((du, dv))
        ys.extend((dv, du))
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return None
    return cov / math.sqrt(var_x * var_y)


def solitary_authors(graph: CoauthorGraph) -> frozenset[str]:
    return frozenset(v for v in graph.vertices if graph.degree(v) == 0)
