import numpy as np
import pytest

from gofa.autodiff import ShapeError, Tensor
from gofa.compressor import ModelConfig, ParamStore
from gofa import autodiff as autodiff_module
from gofa import gnn as gnn_module
from gofa import model as model_module
from gofa.gnn import arc_groups, gnn_layer, init_gnn_layer, representation_change_ratio
from gofa.model import GofaModel

from conftest import assert_grad_close, finite_difference, random_tag


def tiny_cfg(**kw):
    base = dict(d_model=8, n_heads=2, n_layers=2, memory_tokens=3, gnn_layers=(1,), max_seq_len=32)
    base.update(kw)
    return ModelConfig(**base)


def make_params(cfg, seed=0, gates=0.0):
    store = ParamStore(dtype=cfg.dtype)
    params = init_gnn_layer(store, "g", cfg, np.random.default_rng(seed))
    params["gate_gnn"].data = np.asarray(gates, dtype=cfg.dtype)
    params["gate_ff"].data = np.asarray(gates, dtype=cfg.dtype)
    return params


def star_arcs(n_leaves):
    """Leaves 1..n all point at hub 0."""
    src = np.array([i + 1 for i in range(n_leaves)])
    dst = np.zeros(n_leaves, dtype=np.int64)
    return src, dst


def uneven_arcs():
    """In-degrees 3, 2, 1, 1 and 0 with arcs of different nodes interleaved:
    node 0 has three in-arcs, node 1 two parallel arcs from node 0, node 2
    a self-loop, node 3 one arc from node 4, and node 4 none."""
    src = np.array([1, 0, 2, 2, 0, 3, 4])
    dst = np.array([0, 1, 0, 2, 1, 0, 3])
    return src, dst


def dense_oracle(src, dst, node_mem, edge_mem, params, cfg):
    """Straight-line computation of the attention-GNN formula, written
    independently with loops over nodes, heads and token indices. Returns
    the new node memories and the attention weights [E, K, heads] in arc
    order."""
    n, k, d = node_mem.shape
    heads, dh = cfg.n_heads, cfg.head_dim
    eps = 1e-6

    def rms(x, gain):
        return x / np.sqrt(np.mean(x * x) + eps) * gain

    p = {name: t.data for name, t in params.items()}
    hn = np.stack([[rms(node_mem[i, t], p["norm_nodes"]) for t in range(k)] for i in range(n)])
    he = np.stack([[rms(edge_mem[e, t], p["norm_edges"]) for t in range(k)] for e in range(len(src))])

    out = np.zeros_like(node_mem)
    alpha = np.zeros((len(src), k, heads))
    for i in range(n):
        in_arcs = [e for e in range(len(src)) if dst[e] == i]
        if not in_arcs:
            continue
        for t in range(k):
            q = (hn[i, t] @ p["wq"]).reshape(heads, dh)
            collected = np.zeros(d)
            for h in range(heads):
                logits = []
                values = []
                for e in in_arcs:
                    kk = (hn[src[e], t] @ p["wk_node"] + he[e, t] @ p["wk_edge"]).reshape(heads, dh)[h]
                    vv = (hn[src[e], t] @ p["wv_node"] + he[e, t] @ p["wv_edge"]).reshape(heads, dh)[h]
                    logits.append(q[h] @ kk / np.sqrt(dh))
                    values.append(vv)
                logits = np.array(logits)
                weights = np.exp(logits - logits.max())
                weights /= weights.sum()
                alpha[in_arcs, t, h] = weights
                collected.reshape(heads, dh)[h] = sum(w * v for w, v in zip(weights, values))
            out[i, t] = collected @ p["wo"]

    g1, g2 = np.tanh(p["gate_gnn"]), np.tanh(p["gate_ff"])
    h1 = node_mem.copy()
    result = node_mem.copy()
    for i in range(n):
        if not any(dst == i):
            continue
        h1[i] = node_mem[i] + g1 * out[i]
        for t in range(k):
            hf = rms(h1[i, t], p["ff_norm"])
            z = hf @ p["ff1"]
            ff = (z * (1 / (1 + np.exp(-z)))) @ p["ff2"]
            result[i, t] = h1[i, t] + g2 * ff
    return result, alpha


class TestGateZero:
    def test_identity_at_initialization(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg, gates=0.0)
        src, dst = star_arcs(3)
        node_mem = Tensor(rng.normal(size=(4, 3, 8)))
        edge_mem = Tensor(rng.normal(size=(3, 3, 8)))
        out = gnn_layer(src, dst, node_mem, edge_mem, params, cfg)
        assert np.array_equal(out.data, node_mem.data)

    def test_gates_initialized_at_zero(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        assert params["gate_gnn"].data == 0.0
        assert params["gate_ff"].data == 0.0


class TestStructure:
    def test_single_node_no_edges_identity_object(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg, gates=0.7)
        node_mem = Tensor(rng.normal(size=(1, 3, 8)))
        edge_mem = Tensor(np.zeros((0, 3, 8)))
        out = gnn_layer(np.array([], dtype=np.int64), np.array([], dtype=np.int64), node_mem, edge_mem, params, cfg)
        assert out is node_mem

    def test_isolated_nodes_pass_through(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg, gates=0.9)
        src, dst = star_arcs(2)  # nodes 1,2 -> 0; node 3 isolated
        node_mem = Tensor(rng.normal(size=(4, 3, 8)))
        edge_mem = Tensor(rng.normal(size=(2, 3, 8)))
        out = gnn_layer(src, dst, node_mem, edge_mem, params, cfg)
        assert np.array_equal(out.data[3], node_mem.data[3])
        # leaves have no in-arcs either; only the hub changes
        assert np.array_equal(out.data[1], node_mem.data[1])
        assert not np.allclose(out.data[0], node_mem.data[0])

    def test_token_index_isolation(self, rng):
        # Perturbing a neighbor memory at index k changes the hub only at k.
        cfg = tiny_cfg()
        params = make_params(cfg, gates=0.8, seed=3)
        src, dst = star_arcs(3)
        node_mem = rng.normal(size=(4, 3, 8))
        edge_mem = rng.normal(size=(3, 3, 8))
        base = gnn_layer(src, dst, Tensor(node_mem), Tensor(edge_mem), params, cfg).data
        for k_idx in range(3):
            bumped = node_mem.copy()
            bumped[1, k_idx] += 0.5
            out = gnn_layer(src, dst, Tensor(bumped), Tensor(edge_mem), params, cfg).data
            other = [t for t in range(3) if t != k_idx]
            assert np.array_equal(base[0][other], out[0][other])
            assert not np.allclose(base[0, k_idx], out[0, k_idx])

    def test_edge_memories_not_updated(self, rng):
        # The layer returns node memories only; callers keep edge memories as-is.
        cfg = tiny_cfg()
        params = make_params(cfg, gates=0.5)
        src, dst = star_arcs(2)
        edge_mem = Tensor(rng.normal(size=(2, 3, 8)))
        before = edge_mem.data.copy()
        gnn_layer(src, dst, Tensor(rng.normal(size=(3, 3, 8))), edge_mem, params, cfg)
        assert np.array_equal(edge_mem.data, before)

    def test_attention_rows_sum_to_one(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg, gates=0.6, seed=9)
        src = np.array([1, 2, 3, 2, 0])
        dst = np.array([0, 0, 0, 1, 1])
        collected = []
        gnn_layer(src, dst, Tensor(rng.normal(size=(4, 3, 8))), Tensor(rng.normal(size=(5, 3, 8))),
                  params, cfg, collect_attention=collected)
        alpha, dst_out = collected[0]
        for node in (0, 1):
            rows = alpha[dst_out == node]  # [n_in, K, heads]
            assert np.all(np.abs(rows.sum(axis=0) - 1.0) < 1e-12)

    def test_shape_mismatch_error(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg)
        src, dst = star_arcs(2)
        with pytest.raises(ShapeError):
            gnn_layer(src, dst, Tensor(rng.normal(size=(3, 3, 8))), Tensor(rng.normal(size=(1, 3, 8))), params, cfg)


class TestDenseOracle:
    def test_star_matches_dense_computation(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=4, gates=0.43)
        src, dst = star_arcs(2)
        node_mem = rng.normal(size=(3, 3, 8))
        edge_mem = rng.normal(size=(2, 3, 8))
        fast = gnn_layer(src, dst, Tensor(node_mem), Tensor(edge_mem), params, cfg).data
        slow, _ = dense_oracle(src, dst, node_mem, edge_mem, params, cfg)
        assert np.allclose(fast, slow, atol=1e-12)

    def test_random_graph_matches_dense(self, rng):
        cfg = tiny_cfg(d_model=12, n_heads=3)
        params = make_params(cfg, seed=6, gates=-0.3)
        src = np.array([0, 1, 2, 3, 3, 0])
        dst = np.array([1, 2, 3, 0, 1, 2])
        node_mem = rng.normal(size=(4, 3, 12))
        edge_mem = rng.normal(size=(6, 3, 12))
        fast = gnn_layer(src, dst, Tensor(node_mem), Tensor(edge_mem), params, cfg).data
        slow, _ = dense_oracle(src, dst, node_mem, edge_mem, params, cfg)
        assert np.allclose(fast, slow, atol=1e-12)

    def test_uneven_in_degrees_match_dense(self, rng):
        # parallel arcs, a self-loop and a node without in-arcs, with the
        # attention weights compared in arc order
        cfg = tiny_cfg(d_model=12, n_heads=3)
        params = make_params(cfg, seed=12, gates=0.55)
        src, dst = uneven_arcs()
        node_mem = rng.normal(size=(5, 3, 12))
        edge_mem = rng.normal(size=(7, 3, 12))
        collected = []
        fast = gnn_layer(src, dst, Tensor(node_mem), Tensor(edge_mem), params, cfg, collect_attention=collected).data
        slow, alpha = dense_oracle(src, dst, node_mem, edge_mem, params, cfg)
        assert np.allclose(fast, slow, atol=1e-12)
        assert np.allclose(collected[0][0], alpha, atol=1e-12)
        assert np.array_equal(collected[0][1], dst)
        assert np.array_equal(fast[4], node_mem[4])


class TestArcGroups:
    """The in-degree groups depend on the graph alone: ``encode_graphs``
    builds them once and every GNN layer reads them."""

    def test_given_groups_give_the_same_bits(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg, gates=0.6, seed=5)
        src, dst = uneven_arcs()
        node_mem, edge_mem = Tensor(rng.normal(size=(5, 3, 8))), Tensor(rng.normal(size=(7, 3, 8)))
        results = []
        for groups in (None, arc_groups(dst, 5)):
            collected = []
            out = gnn_layer(src, dst, node_mem, edge_mem, params, cfg, collect_attention=collected, groups=groups)
            results.append((out.data, collected[0][0]))
        (out_a, alpha_a), (out_b, alpha_b) = results
        assert out_a.tobytes() == out_b.tobytes() and alpha_a.tobytes() == alpha_b.tobytes()

    def test_groups(self):
        groups = arc_groups(uneven_arcs()[1], 5)
        assert groups.has_in_arcs.tolist() == [True, True, True, True, False]
        by_degree = {0 if arcs is None else arcs.shape[1]: (nodes.tolist(), arcs) for nodes, arcs, _ in groups.groups}
        assert by_degree[0][0] == [4] and by_degree[0][1] is None
        assert by_degree[1][0] == [2, 3] and by_degree[1][1].tolist() == [[3], [6]]
        assert by_degree[2][0] == [1] and by_degree[2][1].tolist() == [[1, 4]]
        assert by_degree[3][0] == [0] and by_degree[3][1].tolist() == [[0, 2, 5]]

    def test_encode_graphs_builds_them_once_for_every_layer(self, monkeypatch):
        cfg = tiny_cfg(n_layers=5, gnn_layers=(2, 3, 4))
        model = GofaModel(cfg, seed=3)
        built, read = [], []
        inner_groups, inner_layer = model_module.arc_groups, model_module.gnn_layer

        def building(*args):
            built.append(inner_groups(*args))
            return built[-1]

        def reading(*args, groups=None, **kwargs):
            read.append(groups)
            return inner_layer(*args, groups=groups, **kwargs)

        monkeypatch.setattr(model_module, "arc_groups", building)
        monkeypatch.setattr(model_module, "gnn_layer", reading)
        model.encode_graphs([random_tag(np.random.default_rng(0), 5, edge_prob=0.5)])
        assert len(built) == 1 and len(read) == 3 and all(g is built[0] for g in read)


    def test_every_layer_reads_each_group_plan(self, monkeypatch):
        # the attention of all three layers, taped output and collected
        # probabilities alike, reads one AttentionPlan(1, deg) per in-degree group
        cfg = tiny_cfg(n_layers=5, gnn_layers=(2, 3, 4))
        model = GofaModel(cfg, seed=3)
        taped = []
        inner = gnn_module.attention_kernel

        def recording(q, k, v, plan):
            taped.append((k.shape[2], plan))
            return inner(q, k, v, plan)

        monkeypatch.setattr(gnn_module, "attention_kernel", recording)
        model.encode_graphs([random_tag(np.random.default_rng(0), 5, edge_prob=0.5)], collect_attention=[])
        per_layer = len(taped) // 3
        assert per_layer > 1 and len(taped) == 3 * per_layer
        first = taped[:per_layer]
        assert all(plan is not None and (plan.lq, plan.lk, plan.window) == (1, deg, None) for deg, plan in first)
        assert len({id(plan) for _, plan in first}) == per_layer
        for layer in (1, 2):
            assert all(a is b for (_, a), (_, b) in zip(first, taped[layer * per_layer : (layer + 1) * per_layer]))

    def test_collecting_attention_runs_each_group_once(self, monkeypatch):
        # the collected probabilities come from the kernel run that the taped
        # output reads: one run per in-degree group with arcs, per layer
        cfg = tiny_cfg(n_layers=5, gnn_layers=(2, 3, 4))
        model = GofaModel(cfg, seed=3)
        graph = random_tag(np.random.default_rng(0), 5, edge_prob=0.5)
        runs = []
        inner = autodiff_module.attention_kernel

        def counting(q, k, v, plan):
            if plan.window is None:  # a GNN group's plan; compressor and decoder plans have windows
                runs.append(plan)
            return inner(q, k, v, plan)

        for module in (autodiff_module, gnn_module):
            monkeypatch.setattr(module, "attention_kernel", counting)
        collected = []
        model.encode_graphs([graph], collect_attention=collected)
        dst = np.array([e.dst for e in graph.edges])
        n_groups = len(np.unique(np.bincount(dst, minlength=5)[np.unique(dst)]))
        assert len(collected) == 3 and n_groups > 1 and len(runs) == 3 * n_groups


class TestEquivariance:
    def test_permutation_equivariance(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=8, gates=0.51)
        src = np.array([0, 1, 2, 3, 1])
        dst = np.array([1, 2, 3, 0, 0])
        node_mem = rng.normal(size=(4, 3, 8))
        edge_mem = rng.normal(size=(5, 3, 8))
        out = gnn_layer(src, dst, Tensor(node_mem), Tensor(edge_mem), params, cfg).data

        perm = np.array([2, 0, 3, 1])  # new index of each old node
        out_p = gnn_layer(perm[src], perm[dst], Tensor(node_mem[np.argsort(perm)]),
                          Tensor(edge_mem), params, cfg).data
        assert np.allclose(out_p[perm], out, atol=1e-9)


class TestGradients:
    def test_full_layer_gradient_vs_fd(self, rng):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=11, gates=0.37)
        src, dst = uneven_arcs()
        upstream = rng.normal(size=(5, 3, 8))

        node_mem = Tensor(rng.normal(size=(5, 3, 8)), requires_grad=True)
        edge_mem = Tensor(rng.normal(size=(7, 3, 8)), requires_grad=True)
        checked = [node_mem, edge_mem, *params.values()]
        assert len(checked) == 15

        def build():
            return (gnn_layer(src, dst, node_mem, edge_mem, params, cfg) * Tensor(upstream)).sum()

        loss = build()
        loss.backward()
        grads = [t.grad.copy() for t in checked]
        for ti, c, fd in finite_difference(lambda: build().item(), checked, max_coords=6, rng=rng):
            assert_grad_close(grads[ti].reshape(-1)[c], fd, rel_tol=1e-4)


class TestChangeRatio:
    def test_identical_tensors(self, rng):
        q = rng.normal(size=(3, 4))
        assert representation_change_ratio(q, q) == 0.0

    def test_doubled_tensor(self, rng):
        q = rng.normal(size=(5, 2))
        assert abs(representation_change_ratio(2 * q, q) - 1.0) < 1e-12

    def test_random_pair_vs_independent_norms(self, rng):
        h = rng.normal(size=(4, 6))
        q = rng.normal(size=(4, 6))
        want = np.sqrt(((h - q) ** 2).sum()) / np.sqrt((q**2).sum())
        assert abs(representation_change_ratio(h, q) - want) < 1e-12

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroDivisionError):
            representation_change_ratio(np.ones((2, 2)), np.zeros((2, 2)))
