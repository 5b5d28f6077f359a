"""Exact graph-structure computations: shortest paths and common neighbors.

These double as label generators for the structural pre-training tasks and
as independent oracles in tests. All neighborhoods are taken over the
undirected view of the arc set, ignoring self-loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tag import TAG, GraphError

UNREACHABLE = -1

# Enumeration cap; never binds on desk-scale graphs but bounds label length.
MAX_PATHS = 64


@dataclass
class PathSet:
    """All shortest paths between one node pair.

    ``distance`` is a hop count, or UNREACHABLE with no paths. Paths are
    node-index sequences from source to target, sorted ascending by the
    sequence of node-ID tags (node index when tags are absent).
    """

    distance: int
    paths: list[list[int]] = field(default_factory=list)

    def reachable(self) -> bool:
        return self.distance != UNREACHABLE


def _adjacency(graph: TAG) -> list[set[int]]:
    """Undirected content-only adjacency; self-loops and prompt nodes are
    ignored so task scaffolding cannot create phantom shortcuts."""
    prompt = [n.is_prompt() for n in graph.nodes]
    adj: list[set[int]] = [set() for _ in graph.nodes]
    for e in graph.edges:
        if e.src != e.dst and not prompt[e.src] and not prompt[e.dst]:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
    return adj


def _check_content(graph: TAG, idx: int) -> None:
    graph.check_node(idx)
    if graph.nodes[idx].is_prompt():
        raise GraphError(f"node {idx} is a prompt node; structure queries take content nodes")


def all_shortest_paths(graph: TAG, src: int, dst: int) -> PathSet:
    """BFS layering from ``src``, then a walk forward over the nodes that
    lie on a shortest path to ``dst``, each node's successors in ascending
    ``sort_key`` order. Paths come out in answer order, so the cap keeps
    the first ``MAX_PATHS`` of the sorted list."""
    _check_content(graph, src)
    _check_content(graph, dst)
    adj = _adjacency(graph)

    dist = {src: 0}
    frontier = [src]
    while frontier and dst not in dist:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if dst not in dist:
        return PathSet(distance=UNREACHABLE)

    # The nodes on a shortest path: dst, then level by level its predecessors.
    on_path, level = {dst}, {dst}
    for _ in range(dist[dst]):
        level = {u for v in level for u in adj[v] if dist.get(u) == dist[v] - 1}
        on_path |= level
    successors = {
        u: sorted((v for v in adj[u] if v in on_path and dist[v] == dist[u] + 1), key=graph.sort_key) for u in on_path
    }
    paths: list[list[int]] = []
    stack = [[src]]
    while stack and len(paths) < MAX_PATHS:
        partial = stack.pop()
        if partial[-1] == dst:
            paths.append(partial)
            continue
        stack.extend(partial + [v] for v in reversed(successors[partial[-1]]))
    return PathSet(distance=dist[dst], paths=paths)


def common_neighbors(graph: TAG, u: int, v: int) -> list[int]:
    """Shared neighbors of u and v, sorted ascending by node-ID tag."""
    _check_content(graph, u)
    _check_content(graph, v)
    if u == v:
        raise GraphError(f"common_neighbors requires distinct nodes, got {u} twice")
    adj = _adjacency(graph)
    return sorted(adj[u] & adj[v], key=graph.sort_key)
