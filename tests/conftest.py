"""Shared test helpers: independent oracles, a finite-difference checker,
and the compressor and decoder paths of bare texts.

The oracles here are deliberately naive reimplementations (exhaustive DFS,
dense loops) kept separate from the library code paths they check.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from gofa import tokenizer
from gofa.compressor import attention_plan
from gofa.tag import TAG

NODE_TAG_RE = re.compile(r"\[NODEID\.([A-Z]+)\]")


def random_tag(rng, n_nodes: int, edge_prob: float = 0.25, with_text: bool = True) -> TAG:
    g = TAG()
    for i in range(n_nodes):
        g.add_node(text=f"node number {i} text" if with_text else "")
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            if rng.random() < edge_prob:
                g.add_undirected_edge(u, v, "")
    return g


def tags_equal(a: TAG, b: TAG) -> bool:
    """Structural equality: node order, texts, tags, kinds and arcs."""
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if (na.id, na.text, na.node_id_tag, na.kind) != (nb.id, nb.text, nb.node_id_tag, nb.kind):
            return False
    for ea, eb in zip(a.edges, b.edges):
        if (ea.src, ea.dst, ea.text) != (eb.src, eb.dst, eb.text):
            return False
    return True


def undirected_adj(graph: TAG) -> dict[int, set[int]]:
    adj = {i: set() for i in range(graph.n_nodes())}
    prompt = [n.is_prompt() for n in graph.nodes]
    for e in graph.edges:
        if e.src != e.dst and not prompt[e.src] and not prompt[e.dst]:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
    return adj


def brute_force_distance(graph: TAG, src: int) -> dict[int, int]:
    """Plain BFS distances, written independently of the library."""
    adj = undirected_adj(graph)
    dist = {src: 0}
    queue = [src]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def brute_force_all_paths(graph: TAG, src: int, dst: int, max_len: int) -> list[list[int]]:
    """Exhaustive DFS enumeration of simple paths up to max_len edges."""
    adj = undirected_adj(graph)
    out = []

    def walk(path):
        head = path[-1]
        if head == dst:
            out.append(list(path))
            return
        if len(path) - 1 >= max_len:
            return
        for nxt in sorted(adj[head]):
            if nxt not in path:
                walk(path + [nxt])

    walk([src])
    return out


def finite_difference(f, tensors: list, h: float = 1e-5, max_coords: int | None = None, rng=None):
    """Central finite differences of scalar-valued ``f`` w.r.t. raw arrays.

    Yields (tensor index, coordinate, fd value). ``f`` must recompute the
    scalar from the tensors' current ``.data`` on every call.
    """
    for ti, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        coords = range(flat.size)
        if max_coords is not None and flat.size > max_coords:
            picker = rng if rng is not None else np.random.default_rng(0)
            coords = picker.choice(flat.size, size=max_coords, replace=False)
        for c in coords:
            old = flat[c]
            flat[c] = old + h
            up = f()
            flat[c] = old - h
            down = f()
            flat[c] = old
            yield ti, int(c), (up - down) / (2 * h)


def assert_grad_close(analytic: float, fd: float, rel_tol: float = 1e-4, abs_floor: float = 1e-7):
    scale = max(abs(analytic), abs(fd), abs_floor)
    assert abs(analytic - fd) / scale < rel_tol, f"grad mismatch: analytic {analytic} vs fd {fd}"


# How far a fused op's gradient may sit from the composed chain it replaced,
# as a share of the reference's largest entry: the fused backwards sum the
# same terms in other orders. 1e-12 in float64; the same number of units in
# the last place in float32.
GRAD_RTOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-12 * np.finfo(np.float32).eps / np.finfo(np.float64).eps}


def assert_grads_match(fused: np.ndarray, ref: np.ndarray, scale: float | None = None):
    """``fused`` equals ``ref`` within ``GRAD_RTOL`` of ``scale``, by
    default ``ref``'s largest entry. A gradient that is zero in exact
    arithmetic, such as a query's over a single key, comes out as rounding
    noise, so a caller passes the scale of the op's other gradients."""
    assert fused.dtype == ref.dtype and fused.shape == ref.shape
    tol = GRAD_RTOL[ref.dtype]
    scale = np.abs(ref).max(initial=0.0) if scale is None else scale
    np.testing.assert_allclose(fused, ref, rtol=tol, atol=tol * scale)


def full_windows(s: int, lk: int) -> np.ndarray:
    """[S, 2] windows that each hold all Lk key columns: plain causal
    attention."""
    return np.tile([0, lk], (s, 1))


def causal_plan(cfg, x, first: int = 0):
    """The ``attention_plan`` of plain causal attention for the rows of ``x``
    [S, L, d] after ``first`` columns of keys: full windows, so each row's
    rotary position is its column."""
    s, n = x.shape[:2]
    return attention_plan(cfg, full_windows(s, first + n), first, n)


def compress(model, texts: list[str]):
    """Memory blocks [len(texts), K, d] of bare texts, no graph: the
    compressor pass every node and edge text goes through."""
    return model.compressor.run([tokenizer.encode(t) for t in texts])


def decode_loss(model, memory, target_text: str) -> float:
    """Mean token NLL of teacher-forcing ``target_text`` from one memory
    block [K, d], through the decoder path ``forward_batch`` runs."""
    k, d = model.cfg.memory_tokens, model.cfg.d_model
    nll, counts = model.decoder_nll_per_target(memory.reshape(1, k, d), [model.target_ids(target_text)])
    return float(nll.data[0] * (1.0 / counts[0]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
