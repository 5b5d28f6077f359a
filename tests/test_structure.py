import numpy as np
import pytest

from gofa.structure import MAX_PATHS, UNREACHABLE, all_shortest_paths, common_neighbors
from gofa.tag import TAG, GraphError, assign_node_id_tags, attach_prompt_node

from conftest import brute_force_all_paths, brute_force_distance, random_tag, undirected_adj


def path_graph(n):
    g = TAG()
    for i in range(n):
        g.add_node(f"p{i}")
    for i in range(n - 1):
        g.add_undirected_edge(i, i + 1)
    return g


class TestAllShortestPaths:
    def test_src_equals_dst(self):
        g = path_graph(3)
        ps = all_shortest_paths(g, 1, 1)
        assert ps.distance == 0
        assert ps.paths == [[1]]

    def test_table_style_two_hop_single_path(self):
        # L - G - B chain: distance 2, a single path through the middle node.
        g = TAG()
        for name in ("L", "G", "B"):
            g.add_node(f"paper {name}")
        g.add_undirected_edge(0, 1)
        g.add_undirected_edge(1, 2)
        ps = all_shortest_paths(g, 0, 2)
        assert ps.distance == 2
        assert ps.paths == [[0, 1, 2]]

    def test_unreachable(self):
        g = TAG()
        g.add_node("a")
        g.add_node("b")
        ps = all_shortest_paths(g, 0, 1)
        assert ps.distance == UNREACHABLE
        assert ps.paths == []
        assert not ps.reachable()

    def test_multiple_paths_sorted_by_tag_sequence(self):
        # Diamond: 0-1-3 and 0-2-3 are both shortest.
        g = TAG()
        for i in range(4):
            g.add_node(f"n{i}")
        for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            g.add_undirected_edge(u, v)
        tagged = assign_node_id_tags(g, rng_seed=5)
        ps = all_shortest_paths(tagged, 0, 3)
        assert ps.distance == 2
        assert len(ps.paths) == 2
        keys = [tuple(tagged.sort_key(v) for v in p) for p in ps.paths]
        assert keys == sorted(keys)

    def test_cap_keeps_the_first_paths_in_answer_order(self):
        # a chain of 7 diamonds has 2**7 = 128 shortest paths, twice MAX_PATHS
        g = TAG()
        g.add_node("hub 0")
        for i in range(7):
            for name in ("upper", "lower", "hub"):
                g.add_node(f"{name} {i + 1}")
            hub, up, low, nxt = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
            for u, v in [(hub, up), (hub, low), (up, nxt), (low, nxt)]:
                g.add_undirected_edge(u, v)
        tagged = assign_node_id_tags(g, rng_seed=11)
        dst = tagged.n_nodes() - 1
        ps = all_shortest_paths(tagged, 0, dst)
        every = brute_force_all_paths(tagged, 0, dst, ps.distance)
        assert ps.distance == 14 and len(every) == 128 == 2 * MAX_PATHS
        every.sort(key=lambda p: tuple(tagged.sort_key(v) for v in p))
        assert ps.paths == every[:MAX_PATHS]

    def test_agrees_with_exhaustive_dfs(self, rng):
        for trial in range(40):
            g = random_tag(rng, int(rng.integers(4, 31)), edge_prob=0.12, with_text=False)
            u, v = rng.choice(g.n_nodes(), size=2, replace=False)
            ps = all_shortest_paths(g, int(u), int(v))
            dist = brute_force_distance(g, int(u))
            if int(v) not in dist:
                assert not ps.reachable()
                continue
            d = dist[int(v)]
            assert ps.distance == d
            expected = [p for p in brute_force_all_paths(g, int(u), int(v), d) if len(p) - 1 == d]
            assert sorted(map(tuple, ps.paths)) == sorted(map(tuple, expected))

    def test_path_invariants(self, rng):
        g = random_tag(rng, 20, edge_prob=0.15, with_text=False)
        adj = undirected_adj(g)
        for _ in range(20):
            u, v = rng.choice(20, size=2, replace=False)
            ps = all_shortest_paths(g, int(u), int(v))
            assert ps.reachable() == (len(ps.paths) >= 1)
            for p in ps.paths:
                assert len(p) == ps.distance + 1
                assert p[0] == int(u) and p[-1] == int(v)
                for a, b in zip(p, p[1:]):
                    assert b in adj[a]
            assert len(set(map(tuple, ps.paths))) == len(ps.paths)

    def test_symmetry_and_triangle_inequality(self, rng):
        g = random_tag(rng, 15, edge_prob=0.2, with_text=False)

        def dist(a, b):
            return all_shortest_paths(g, a, b).distance

        for _ in range(15):
            a, b, c = (int(x) for x in rng.choice(15, size=3, replace=False))
            dab, dba = dist(a, b), dist(b, a)
            assert dab == dba
            dac, dcb = dist(a, c), dist(c, b)
            if dab != UNREACHABLE and dac != UNREACHABLE and dcb != UNREACHABLE:
                assert dab <= dac + dcb

    def test_invalid_index(self):
        with pytest.raises(GraphError, match="9"):
            all_shortest_paths(path_graph(3), 0, 9)

    def test_prompt_nodes_are_invisible(self):
        g = path_graph(4)  # distance 0->3 is 3
        attach_prompt_node(g, [0, 3], "q?", "single")
        ps = all_shortest_paths(g, 0, 3)
        assert ps.distance == 3  # no shortcut through the prompt node


class TestCommonNeighbors:
    def test_disjoint_nodes(self):
        g = TAG()
        for i in range(4):
            g.add_node(f"n{i}")
        g.add_undirected_edge(0, 1)
        g.add_undirected_edge(2, 3)
        assert common_neighbors(g, 0, 2) == []

    def test_single_shared_neighbor(self):
        g = TAG()
        for i in range(3):
            g.add_node(f"n{i}")
        g.add_undirected_edge(0, 1)
        g.add_undirected_edge(1, 2)
        assert common_neighbors(g, 0, 2) == [1]

    def test_sorted_by_tag(self):
        g = TAG()
        for i in range(5):
            g.add_node(f"n{i}")
        for shared in (2, 3, 4):
            g.add_undirected_edge(0, shared)
            g.add_undirected_edge(1, shared)
        tagged = assign_node_id_tags(g, rng_seed=11)
        result = common_neighbors(tagged, 0, 1)
        keys = [tagged.sort_key(v) for v in result]
        assert keys == sorted(keys)
        assert set(result) == {2, 3, 4}

    def test_agrees_with_brute_force(self, rng):
        for _ in range(40):
            g = random_tag(rng, int(rng.integers(4, 31)), edge_prob=0.2, with_text=False)
            u, v = (int(x) for x in rng.choice(g.n_nodes(), size=2, replace=False))
            adj = undirected_adj(g)
            assert set(common_neighbors(g, u, v)) == adj[u] & adj[v]

    def test_same_node_rejected(self):
        with pytest.raises(GraphError):
            common_neighbors(path_graph(3), 1, 1)

    def test_self_loops_ignored(self):
        g = TAG()
        for i in range(3):
            g.add_node(f"n{i}")
        g.add_edge(0, 0, "loop")
        g.add_undirected_edge(0, 2)
        g.add_undirected_edge(1, 2)
        assert common_neighbors(g, 0, 1) == [2]

    def test_prompt_nodes_never_counted(self):
        g = TAG()
        for i in range(2):
            g.add_node(f"n{i}")
        attach_prompt_node(g, [0, 1], "q?", "double")
        assert common_neighbors(g, 0, 1) == []
