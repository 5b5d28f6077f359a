"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The three trained
directional checks (6, 7, 8) build small corpora and train desk-scale
models; they are the slow part of the suite and cache their models at
module scope.
"""

import time

import numpy as np
import pytest

from gofa import tokenizer
from gofa.autodiff import Tensor, no_grad
from gofa.compressor import ModelConfig, _rope_tables, layer_forward
from gofa.corpus import (
    CorpusConfig,
    LOOKUP_VALUES,
    gen_completion_corpus,
    gen_lookup_corpus,
    gen_structural_corpus,
    split_corpus,
)
from gofa.evaluation import (
    evaluate_accuracy,
    evaluate_structural,
    layer_delta_profile,
    parse_cn_answer,
    parse_spd_answer,
    perplexity,
)
from gofa.gnn import gnn_layer, init_gnn_layer
from gofa.model import GofaModel
from gofa.structure import UNREACHABLE, all_shortest_paths, common_neighbors
from gofa.tag import TAG, GenerationTarget, TaskSample, attach_prompt_node
from gofa.taskgen import Conversation, make_qa_chain_graphs, render_cn_answer, render_spd_answer
from gofa.training import AdamW, TrainConfig, clip_gradients, cosine_restart_lr, resume, train

from conftest import (
    assert_grad_close,
    brute_force_all_paths,
    brute_force_distance,
    finite_difference,
    random_tag,
    undirected_adj,
)


def report(criterion: int, text: str):
    print(f"\n[criterion {criterion:02d}] PASS {text}")


def small_cfg(**kw):
    base = dict(d_model=32, n_heads=4, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5), max_seq_len=64)
    base.update(kw)
    return ModelConfig(**base)


def random_task_graph(rng, n_nodes):
    g = random_tag(rng, n_nodes, edge_prob=0.3)
    p = attach_prompt_node(g, [0], "describe node?", "single")
    return g, p


# ---------------------------------------------------------------------------
# 1. Gate-zero equivalence


def test_criterion_01_gate_zero_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        model = GofaModel(small_cfg(), seed=trial)
        g, p = random_task_graph(rng, int(rng.integers(2, 8)))
        with no_grad():
            full, _ = model.encode_graphs([g], use_gnn=True)
            bare, _ = model.encode_graphs([g], use_gnn=False)
            for nog in range(g.n_nodes()):
                la = model.decoder.next_logits(full[nog], tokenizer.encode("check target"))
                lb = model.decoder.next_logits(bare[nog], tokenizer.encode("check target"))
                worst = max(worst, float(np.max(np.abs(la - lb))))
    assert worst < 1e-9, f"gate-zero logit mismatch {worst}"
    assert time.time() - t0 < 60
    report(1, f"fresh model logits match the GNN-free stack (max abs diff {worst:.2e}, 20 graphs)")


# ---------------------------------------------------------------------------
# 2. Gradient integrity


def _fd_check(build, tensors, rng, max_coords=4, rel_tol=1e-4):
    loss = build()
    loss.backward()
    grads = [t.grad.copy() for t in tensors]
    for ti, c, fd in finite_difference(lambda: build().item(), tensors, max_coords=max_coords, rng=rng):
        assert_grad_close(grads[ti].reshape(-1)[c], fd, rel_tol=rel_tol)


def test_criterion_02_gradient_integrity():
    t0 = time.time()
    rng = np.random.default_rng(202)
    cfg = small_cfg(d_model=16, n_heads=2, n_layers=2, memory_tokens=3, gnn_layers=(1,))
    model = GofaModel(cfg, seed=1)

    # attention/feed-forward block
    total = 9
    x = Tensor(rng.normal(size=(1, total, cfg.d_model)), requires_grad=True)
    up = Tensor(rng.normal(size=(1, total, cfg.d_model)))
    cos_t, sin_t = _rope_tables(total, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)
    pos = np.arange(total)[None]
    layer = model.compressor_stack.layers[0]
    _fd_check(  # plain causal attention: no window
        lambda: (layer_forward(x, layer, cfg, None, cos_t[pos][:, None], sin_t[pos][:, None]) * up).sum(),
        [x, layer["wq"], layer["ff1"], layer["attn_norm"]],
        rng,
    )

    # rms_norm
    from gofa.autodiff import cross_entropy, rms_norm

    xv = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    gv = Tensor(rng.normal(size=(8,)) + 1.0, requires_grad=True)
    upv = Tensor(rng.normal(size=(5, 8)))
    _fd_check(lambda: (rms_norm(xv, gv) * upv).sum(), [xv, gv], rng)

    # cross entropy
    logits = Tensor(rng.normal(size=(6, 16)), requires_grad=True)
    targets = np.array([1, 3, -100, 7, 15, 0])
    _fd_check(lambda: cross_entropy(logits, targets), [logits], rng)

    # gnn layer on a 4-node cycle
    gcfg = small_cfg(d_model=16, n_heads=2, n_layers=2, gnn_layers=(1,), memory_tokens=3)
    from gofa.compressor import ParamStore

    store = ParamStore()
    params = init_gnn_layer(store, "g", gcfg, np.random.default_rng(3))
    params["gate_gnn"].data = np.asarray(0.4)
    params["gate_ff"].data = np.asarray(-0.3)
    src = np.array([0, 1, 2, 3])
    dst = np.array([1, 2, 3, 0])
    node_mem = Tensor(rng.normal(size=(4, 3, 16)), requires_grad=True)
    edge_data = rng.normal(size=(4, 3, 16))
    up_g = Tensor(rng.normal(size=(4, 3, 16)))
    _fd_check(
        lambda: (gnn_layer(src, dst, node_mem, Tensor(edge_data), params, gcfg) * up_g).sum(),
        [node_mem, params["wq"], params["wv_edge"], params["gate_gnn"], params["ff2"]],
        rng,
    )

    # full model on a 4-node graph
    fcfg = small_cfg(d_model=16, n_heads=2, n_layers=3, gnn_layers=(1, 2), memory_tokens=3, max_seq_len=48)
    fmodel = GofaModel(fcfg, seed=4)
    for p in fmodel.gnn_params.values():
        p["gate_gnn"].data = np.asarray(0.5)
        p["gate_ff"].data = np.asarray(0.2)
    g = TAG()
    for i in range(4):
        g.add_node(f"node {i} words")
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        g.add_undirected_edge(u, v, "rel")
    p = attach_prompt_node(g, [0], "finish?", "single")
    sample = TaskSample(graph=g, targets=[GenerationTarget(p, "the end")], task_kind="downstream")
    checked = [
        fmodel.memory_tokens,
        fmodel.compressor_stack.embed,
        fmodel.compressor_stack.layers[1]["wv"],
        fmodel.gnn_params[1]["wk_edge"],
        fmodel.gnn_params[2]["gate_gnn"],
        fmodel.decoder_stack.layers[0]["ff2"],
        fmodel.decoder_stack.final_norm,
    ]

    def full_loss():
        loss, _, _ = fmodel.forward_batch([sample])
        return loss

    loss = full_loss()
    loss.backward()
    grads = [t.grad.copy() for t in checked]
    for ti, c, fd in finite_difference(lambda: full_loss().item(), checked, max_coords=3, rng=rng):
        assert_grad_close(grads[ti].reshape(-1)[c], fd, rel_tol=1e-4)

    assert time.time() - t0 < 300
    report(2, f"attention, rms-norm, cross-entropy, GNN layer and full model pass FD checks ({time.time()-t0:.0f}s)")


# ---------------------------------------------------------------------------
# 3. Structural oracles


def test_criterion_03_structural_oracles():
    t0 = time.time()
    rng = np.random.default_rng(303)
    n_checked = 0
    for trial in range(500):
        n = int(rng.integers(3, 31))
        g = random_tag(rng, n, edge_prob=min(0.5, 2.5 / n), with_text=False)
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))

        ps = all_shortest_paths(g, u, v)
        dist = brute_force_distance(g, u)
        if v not in dist:
            assert not ps.reachable() and ps.paths == []
        else:
            assert ps.distance == dist[v]
            expected = [p for p in brute_force_all_paths(g, u, v, dist[v]) if len(p) - 1 == dist[v]]
            assert sorted(map(tuple, ps.paths)) == sorted(map(tuple, expected))

        adj = undirected_adj(g)
        assert set(common_neighbors(g, u, v)) == adj[u] & adj[v]

        # grammar round trip on the rendered labels
        spd_answer = render_spd_answer(g, ps)
        parsed = parse_spd_answer(spd_answer)
        assert parsed is not None
        if ps.reachable():
            assert parsed[0] == ps.distance
            assert parsed[1] == sorted(tuple(g.sort_key(x) for x in p) for p in ps.paths)
        else:
            assert parsed[0] == UNREACHABLE
        cn = common_neighbors(g, u, v)
        parsed_cn = parse_cn_answer(render_cn_answer(g, cn))
        assert parsed_cn == (len(cn), sorted(g.sort_key(x) for x in cn))
        n_checked += 1
    assert n_checked == 500
    assert time.time() - t0 < 60
    report(3, f"500 random graphs agree with brute force; all labels re-parse exactly ({time.time()-t0:.0f}s)")


# ---------------------------------------------------------------------------
# 4. Token-index isolation and attention normalization


def test_criterion_04_token_index_isolation():
    t0 = time.time()
    rng = np.random.default_rng(404)
    cfg = small_cfg(d_model=16, n_heads=2, n_layers=2, gnn_layers=(1,), memory_tokens=4)
    from gofa.compressor import ParamStore

    store = ParamStore()
    params = init_gnn_layer(store, "g", cfg, np.random.default_rng(7))
    params["gate_gnn"].data = np.asarray(0.9)
    params["gate_ff"].data = np.asarray(0.6)
    src = np.array([1, 2, 3, 0, 2])
    dst = np.array([0, 0, 0, 1, 1])
    node_mem = rng.normal(size=(4, 4, 16))
    edge_mem = rng.normal(size=(5, 4, 16))

    collected = []
    base = gnn_layer(src, dst, Tensor(node_mem), Tensor(edge_mem), params, cfg, collect_attention=collected).data
    alpha, dst_out = collected[0]
    for node in (0, 1):
        sums = alpha[dst_out == node].sum(axis=0)
        assert np.all(np.abs(sums - 1.0) < 1e-12)

    for k_idx in range(4):
        bumped = node_mem.copy()
        bumped[2, k_idx] += 0.7
        out = gnn_layer(src, dst, Tensor(bumped), Tensor(edge_mem), params, cfg).data
        others = [t for t in range(4) if t != k_idx]
        assert np.array_equal(base[0][others], out[0][others])
        assert not np.allclose(base[0, k_idx], out[0, k_idx])

    assert time.time() - t0 < 60
    report(4, "per-index independence holds; attention rows sum to 1 within 1e-12")


# ---------------------------------------------------------------------------
# 5. Degenerate language modeling


def test_criterion_05_degenerate_language_modeling():
    t0 = time.time()
    model = GofaModel(small_cfg(), seed=5)
    rng = np.random.default_rng(505)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for trial in range(10):
        text = " ".join(rng.choice(words, size=rng.integers(1, 6)))
        target = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        g = TAG()
        g.add_node(text)
        graph_mem = model.encode_graphs([g])[0][0]
        text_mem = model.encode_texts([text])[0]
        graph_loss = model.decode_loss(graph_mem, target).item()
        text_loss = model.decode_loss(text_mem, target).item()
        assert graph_loss == text_loss, f"bitwise mismatch {graph_loss} vs {text_loss}"
    assert time.time() - t0 < 60
    report(5, "single-node graph loss is bit-identical to the pure sequence model")


# ---------------------------------------------------------------------------
# 11. QA-chain construction (fast; numbered per the criteria list)


def test_criterion_11_qa_chain_construction():
    t0 = time.time()
    rng = np.random.default_rng(111)
    for trial in range(1000):
        k = int(rng.integers(1, 6))
        conv = Conversation(rounds=[(f"q{i} text?", f"a{i} text.") for i in range(k)])
        samples = make_qa_chain_graphs(conv)
        assert len(samples) == k - 1
        for i, s in enumerate(samples, start=1):
            chain = s.graph.content_nodes()
            assert len(chain) == 2 * i
            prompt = s.targets[0].nog
            assert s.graph.nodes[prompt].kind == "prompt"
            incoming = {e.src for e in s.graph.edges if e.dst == prompt}
            assert incoming == set(chain)
            for e in s.graph.edges:
                if e.dst != prompt:
                    assert e.src < e.dst, "backward arc in chain"
            assert s.graph.nodes[prompt].text == conv.rounds[i][0]
            assert s.targets[0].target_text == conv.rounds[i][1]
    assert time.time() - t0 < 60
    report(11, "1000 conversations produce k-1 chain graphs with forward arcs and fully connected prompts")
