"""Token-level transformer-convolution GNN over memory embeddings.

Message passing runs independently at each of the K memory-token indices:
node i attends over its in-neighbors j (arcs j->i) with logits
(Wq h_i) . (Wk_node h_j + Wk_edge h_e) / sqrt(d_head), aggregates values
Wv_node h_j + Wv_edge h_e, and applies an output projection. The attention
runs through the fused ``autodiff.attention`` op. A tanh-gated
residual plus a tanh-gated feed-forward sublayer follow, both pre-normed,
so a freshly initialized layer (gates at 0) is an exact identity. Edge
memories are read but never updated here. Nodes with no in-neighbors pass
through untouched. Which arcs reach which node, and the attention plan of
each in-degree group (``ArcGroups``), depend on the graph alone, so a
caller builds them once and passes them to every layer, restricted to the
nodes that layer updates (``ArcGroups.within``): a layer computes queries,
messages and its feed-forward for those nodes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import AttentionPlan, ShapeError, Tensor, _attention_op, attention_kernel, gather_rows, rms_norm, split_heads
from .compressor import FF_MULT, ModelConfig, ParamStore, gather_in_order, select_rows


def init_gnn_layer(store: ParamStore, prefix: str, cfg: ModelConfig, rng) -> dict:
    d, ff = cfg.d_model, cfg.d_model * FF_MULT
    w = lambda: rng.normal(0.0, cfg.init_std, (d, d))
    return {
        "norm_nodes": store.add(f"{prefix}.norm_nodes", np.ones(d)),
        "norm_edges": store.add(f"{prefix}.norm_edges", np.ones(d)),
        "wq": store.add(f"{prefix}.wq", w()),
        "wk_node": store.add(f"{prefix}.wk_node", w()),
        "wk_edge": store.add(f"{prefix}.wk_edge", w()),
        "wv_node": store.add(f"{prefix}.wv_node", w()),
        "wv_edge": store.add(f"{prefix}.wv_edge", w()),
        "wo": store.add(f"{prefix}.wo", w()),
        "gate_gnn": store.add(f"{prefix}.gate_gnn", np.zeros(())),
        "gate_ff": store.add(f"{prefix}.gate_ff", np.zeros(())),
        "ff_norm": store.add(f"{prefix}.ff_norm", np.ones(d)),
        "ff1": store.add(f"{prefix}.ff1", rng.normal(0.0, cfg.init_std, (d, ff))),
        "ff2": store.add(f"{prefix}.ff2", rng.normal(0.0, cfg.init_std, (ff, d))),
    }


@dataclass
class ArcGroups:
    """The nodes a GNN layer updates, grouped by in-degree, with their
    in-arcs and the plan of their attention call.

    ``nodes`` are the rows of the layer's node memories that it updates
    and returns, ascending: every node of a graph (``arc_groups``), or the
    nodes of one layer's field (``within``). A node's query attends over
    its in-arcs, in arc order; nodes of equal in-degree share one attention
    call, so a node's result does not depend on the other nodes of the
    call or of a batch."""

    nodes: np.ndarray  # [M] ascending node-memory rows
    has_in_arcs: np.ndarray  # [M] bool
    groups: list[tuple]  # (places in nodes [m], their in-arcs [m, deg], AttentionPlan(1, deg)); (places, None, None) at degree 0

    def within(self, held: np.ndarray, updated: np.ndarray, arcs: np.ndarray) -> "ArcGroups":
        """These groups of every node of a graph (``arc_groups``) for a
        layer that holds the memories of the nodes ``held`` and updates the
        nodes ``updated``, given every arc into them, ``arcs``: all three
        ascending, in the graph's numbering. Nodes and arcs are renumbered
        as the layer holds them, and each group keeps its plan; the groups
        themselves when every node is updated."""
        if len(updated) == len(self.nodes):
            return self
        place = np.full(len(self.nodes), -1)  # each node's place in ``updated``
        place[updated] = np.arange(len(updated))
        groups = []
        for nodes, in_arcs, plan in self.groups:
            kept = place[nodes] >= 0
            if kept.any():
                groups.append((place[nodes[kept]], None if in_arcs is None else np.searchsorted(arcs, in_arcs[kept]), plan))
        return ArcGroups(np.searchsorted(held, updated), self.has_in_arcs[updated], groups)


def arc_groups(dst: np.ndarray, n_nodes: int) -> ArcGroups:
    """``ArcGroups`` of the arcs ending at ``dst`` among ``n_nodes`` nodes,
    every node updated."""
    dst = np.asarray(dst, dtype=np.int64)
    in_deg = np.bincount(dst, minlength=n_nodes)
    by_dst = np.argsort(dst, kind="stable")
    first = np.cumsum(in_deg) - in_deg  # node n's in-arcs are by_dst[first[n] : first[n] + in_deg[n]]
    groups = []
    for deg in np.unique(in_deg):
        nodes = np.flatnonzero(in_deg == deg)
        arcs = by_dst[first[nodes, None] + np.arange(deg)] if deg else None
        groups.append((nodes, arcs, AttentionPlan(1, int(deg)) if deg else None))
    return ArcGroups(np.arange(n_nodes), in_deg > 0, groups)


def gnn_layer(
    src: np.ndarray,
    dst: np.ndarray,
    node_mem: Tensor,
    edge_mem: Tensor,
    params: dict,
    cfg: ModelConfig,
    collect_attention: list | None = None,
    groups: ArcGroups | None = None,
) -> Tensor:
    """One message-passing layer.

    ``src``/``dst`` are arc endpoint arrays, rows of ``node_mem`` [N, K, d];
    ``edge_mem`` [E, K, d] holds one row block per arc (already expanded
    from any shared text). ``groups`` (``ArcGroups``, plans included) names
    the nodes to update and groups them with their in-arcs; it is
    ``arc_groups(dst, N)``, every node, when not given. Returns the updated
    memories [M, K, d] of the nodes ``groups.nodes``, in that order.
    Queries, messages and the feed-forward run for those nodes alone, so
    the arcs must be every arc into them and may be no others; node rows
    only read as sources are not updated.
    """
    n_nodes, k, d = node_mem.shape
    n_edges = len(src)
    if groups is None:
        groups = arc_groups(dst, n_nodes)
    if n_edges == 0:
        return select_rows(node_mem, groups.nodes)
    if edge_mem.shape != (n_edges, k, d):
        raise ShapeError(f"edge memories {edge_mem.shape} do not match {n_edges} arcs of [{k}, {d}]")
    heads = cfg.n_heads
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n_out = len(groups.nodes)

    hn = rms_norm(node_mem, params["norm_nodes"])
    he = rms_norm(edge_mem, params["norm_edges"])
    q = select_rows(hn, groups.nodes) @ params["wq"]
    h_src = gather_rows(hn, src)
    key = h_src @ params["wk_node"] + he @ params["wk_edge"]  # [E, K, d]
    val = h_src @ params["wv_node"] + he @ params["wv_edge"]

    # A node's query at memory index t attends over its in-arcs as
    # attention head (t, head); nodes without in-arcs get zero rows. One
    # kernel run per group yields both the taped output and the collected
    # probabilities.
    alpha = None if collect_attention is None else np.empty((n_edges, k, heads), dtype=key.dtype)
    blocks = []
    for places, arcs, plan in groups.groups:
        if arcs is None:
            blocks.append(Tensor(np.zeros((len(places), 1, k * d)), dtype=node_mem.dtype))
            continue
        qg = split_heads(gather_rows(q, places[:, None]), k * heads)
        kg, vg = (split_heads(gather_rows(t, arcs), k * heads) for t in (key, val))
        kernel = attention_kernel(qg.data, kg.data, vg.data, plan)
        blocks.append(_attention_op(qg, kg, vg, plan, kernel))  # [m, 1, K * d]
        if alpha is not None:
            p = kernel.probabilities[0]  # [m, K * heads, 1, deg]
            deg = arcs.shape[1]
            alpha[arcs.reshape(-1)] = p.reshape(len(places), k, heads, deg).transpose(0, 3, 1, 2).reshape(-1, k, heads)
    if alpha is not None:
        collect_attention.append((alpha, dst.copy()))
    # the zero blocks leave exact zero rows in ``out`` for nodes without in-arcs
    out = gather_in_order(blocks, [places for places, *_ in groups.groups]).reshape(n_out, k, d) @ params["wo"]

    h1 = select_rows(node_mem, groups.nodes) + params["gate_gnn"].tanh() * out
    hf = rms_norm(h1, params["ff_norm"])
    ff_out = (hf @ params["ff1"]).silu() @ params["ff2"]
    mask = Tensor(groups.has_in_arcs.reshape(n_out, 1, 1), dtype=node_mem.dtype)
    return h1 + (params["gate_ff"].tanh() * ff_out) * mask


def representation_change_ratio(h, q) -> float:
    """Relative perturbation a GNN layer applied: ||H - Q||_F / ||Q||_F."""
    h = h.data if isinstance(h, Tensor) else np.asarray(h)
    q = q.data if isinstance(q, Tensor) else np.asarray(q)
    if h.shape != q.shape:
        raise ShapeError(f"shape mismatch {h.shape} vs {q.shape}")
    q_norm = float(np.linalg.norm(q))
    if q_norm == 0.0:
        raise ZeroDivisionError("representation_change_ratio undefined for a zero reference")
    return float(np.linalg.norm(h - q) / q_norm)
