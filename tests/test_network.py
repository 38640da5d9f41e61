"""Co-authorship graph construction and network metrics."""

import random
from itertools import combinations

import pytest

from authormine import (DoaThresholds, ReleaseTag, SeriesState, assortativity,
                        build_graph, clustering_avg_local, clustering_global,
                        default_rules, mean_degree, solitary_authors)
from authormine.reports import advance, scope_graph
import oracles
from helpers import dev, graph_from_data, make_record, snapshot_at


def graph_of(edge_pairs, n_vertices):
    return graph_from_data(list(range(n_vertices)),
                           {frozenset(e) for e in edge_pairs})


TRIANGLE = graph_of([(0, 1), (0, 2), (1, 2)], 3)
PATH3 = graph_of([(0, 1), (1, 2)], 3)
STAR3 = graph_of([(0, 1), (0, 2), (0, 3)], 4)
CYCLE4 = graph_of([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
TWO_ISOLATED = graph_of([], 2)
TRIANGLE_PENDANT = graph_of([(0, 1), (0, 2), (1, 2), (2, 3)], 4)


def coauthored(commit_spec, scope=None):
    """The co-authorship graph of one scope (All by default) of the snapshot
    after {path: [devs in commit order]}, the first developer creating."""
    records = []
    i = 0
    for path, devs in commit_spec.items():
        for j, d in enumerate(devs):
            i += 1
            records.append(make_record(f"c{i:03d}", d, i,
                                       [("A" if j == 0 else "M", path)]))
    snap = snapshot_at(records, ReleaseTag("r", f"c{i:03d}"))
    state = SeriesState(default_rules(), DoaThresholds())
    advance(state, snap)
    return scope_graph(state, scope)


def three_author_history():
    # balanced contributions so all three developers pass both floors
    devs = [dev(1)] * 2 + [dev(2)] * 4 + [dev(3)] * 4
    return {"shared.c": devs}


class TestBuildGraph:
    def test_three_author_file_is_a_triangle(self):
        graph = coauthored(three_author_history())
        assert graph.n_vertices == 3
        assert graph.n_edges == 3

    def test_disjoint_single_authors(self):
        graph = coauthored({"a.c": [dev(1)], "b.c": [dev(2)]})
        assert graph.n_vertices == 2
        assert graph.n_edges == 0

    def test_empty_scope_is_empty_graph(self):
        snap_graph = coauthored({"a.c": [dev(1)]}, scope="Net")
        assert snap_graph.n_vertices == 0
        assert snap_graph.n_edges == 0

    def test_shared_files_weight_but_single_edge(self):
        spec = three_author_history()
        spec["other.c"] = [dev(1)] * 2 + [dev(2)] * 4 + [dev(3)] * 4
        graph = coauthored(spec)
        assert graph.n_edges == 3  # still simple
        assert all(w == 2 for w in graph.weights.values())

    def test_deterministic_ordering(self):
        graph = coauthored(three_author_history())
        assert list(graph.vertices) == sorted(graph.vertices)
        assert list(graph.edges) == sorted(graph.edges)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            build_graph([dev(1)], {(dev(1), dev(1)): 1})


class TestMeanDegree:
    def test_triangle(self):
        assert mean_degree(TRIANGLE) == 2.0

    def test_isolated(self):
        assert mean_degree(TWO_ISOLATED) == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            mean_degree(graph_of([], 0))

    def test_degree_sum_is_twice_edges(self):
        rng = random.Random(11)
        for _ in range(30):
            vertices, edges = oracles.gen_graph_data(rng)
            graph = graph_from_data(vertices, edges)
            total = sum(graph.degree(v) for v in graph.vertices)
            assert total == 2 * graph.n_edges


class TestClustering:
    def test_global_triangle(self):
        assert clustering_global(TRIANGLE) == 1.0

    def test_global_path(self):
        assert clustering_global(PATH3) == 0.0

    def test_global_star(self):
        assert clustering_global(STAR3) == 0.0

    def test_global_undefined_without_length2_paths(self):
        assert clustering_global(TWO_ISOLATED) is None
        assert clustering_global(graph_of([(0, 1)], 2)) is None

    def test_avg_local_triangle(self):
        assert clustering_avg_local(TRIANGLE) == 1.0

    def test_avg_local_star_counts_center_only(self):
        assert clustering_avg_local(STAR3) == 0.0

    def test_avg_local_triangle_with_pendant(self):
        assert clustering_avg_local(TRIANGLE_PENDANT) == pytest.approx(7 / 9, abs=1e-12)

    def test_avg_local_undefined_without_degree2(self):
        assert clustering_avg_local(graph_of([(0, 1)], 2)) is None

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_complete_graph_is_fully_clustered(self, n):
        graph = graph_of(list(combinations(range(n), 2)), n)
        assert clustering_global(graph) == 1.0
        assert clustering_avg_local(graph) == 1.0


class TestAssortativity:
    def test_star_is_perfectly_disassortative(self):
        assert assortativity(STAR3) == pytest.approx(-1.0, abs=1e-12)

    def test_path3(self):
        assert assortativity(PATH3) == pytest.approx(-1.0, abs=1e-12)

    def test_regular_graph_undefined(self):
        assert assortativity(CYCLE4) is None

    def test_edgeless_undefined(self):
        assert assortativity(TWO_ISOLATED) is None

    def test_relabeling_invariance(self):
        rng = random.Random(23)
        for _ in range(20):
            vertices, edges = oracles.gen_graph_data(rng)
            value = assortativity(graph_from_data(vertices, edges))
            relabel = {v: (v * 7 + 3) % 97 for v in vertices}
            shuffled = graph_from_data(
                [relabel[v] for v in vertices],
                {frozenset((relabel[u], relabel[v])) for u, v in map(tuple, edges)})
            other = assortativity(shuffled)
            if value is None:
                assert other is None
            else:
                assert other == pytest.approx(value, abs=1e-12)


class TestSolitary:
    def test_isolated_vertices(self):
        graph = coauthored({"a.c": [dev(1)], "b.c": [dev(2)]})
        assert solitary_authors(graph) == {dev(1), dev(2)}

    def test_triangle_has_none(self):
        assert solitary_authors(TRIANGLE) == frozenset()


class TestOracleEquivalence:
    def test_random_graphs_match_enumeration(self):
        rng = random.Random(77)
        for _ in range(60):
            vertices, edges = oracles.gen_graph_data(rng)
            graph = graph_from_data(vertices, edges)

            assert mean_degree(graph) == pytest.approx(
                oracles.graph_mean_degree(vertices, edges), abs=1e-9)

            for engine_fn, oracle_fn in [
                (clustering_global, oracles.graph_transitivity),
                (clustering_avg_local, oracles.graph_avg_local_clustering),
                (assortativity, oracles.graph_assortativity),
            ]:
                expected = oracle_fn(vertices, edges)
                actual = engine_fn(graph)
                if expected is None:
                    assert actual is None
                else:
                    assert actual == pytest.approx(expected, abs=1e-9)

            solitary = {int(v[1:3]) for v in solitary_authors(graph)}
            assert solitary == oracles.graph_solitary(vertices, edges)
