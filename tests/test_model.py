import logging

import numpy as np
import pytest

from conftest import assert_grad_close, finite_difference
from gofa import compressor, tokenizer
from gofa.autodiff import Tensor, no_grad
from gofa.checkpoint import load_checkpoint, save_checkpoint
from gofa.compressor import ModelConfig, _rope_tables, layer_forward, make_decode_buckets
from gofa.gnn import gnn_layer
from gofa.model import GofaModel
from gofa.tag import TAG, GenerationTarget, GraphError, TaskSample, attach_prompt_node
from gofa.training import AdamW, TrainConfig


def tiny_cfg(**kw):
    base = dict(d_model=16, n_heads=2, n_layers=3, memory_tokens=3, gnn_layers=(1, 2), max_seq_len=48)
    base.update(kw)
    return ModelConfig(**base)


def path_sample(texts, target_node=0, y="target text"):
    g = TAG()
    for t in texts:
        g.add_node(t)
    for i in range(len(texts) - 1):
        g.add_undirected_edge(i, i + 1, "link")
    p = attach_prompt_node(g, [target_node], "complete?", "single")
    s = TaskSample(graph=g, targets=[GenerationTarget(nog=p, target_text=y)], task_kind="downstream")
    s.validate()
    return s


def unrolled_encode(model: GofaModel, graph: TAG):
    """Layer-by-layer reference: every sequence processed alone, GNN applied
    on collected memories after each interleave layer."""
    cfg = model.cfg
    k, d = cfg.memory_tokens, cfg.d_model

    seqs = [tokenizer.encode(n.text) for n in graph.nodes]
    edge_texts = []
    arc_uid = []
    for e in graph.edges:
        if e.text not in edge_texts:
            edge_texts.append(e.text)
        arc_uid.append(edge_texts.index(e.text))
    seqs = seqs + [tokenizer.encode(t) for t in edge_texts]

    states = []
    consts = []
    for s in seqs:
        total = len(s) + k
        ids = np.asarray(s, dtype=np.int64)
        emb = model.compressor_stack.embed.data[ids] if len(s) else np.zeros((0, d))
        x = np.concatenate([emb, model.memory_tokens.data], axis=0)[None]
        cos_tab, sin_tab = _rope_tables(total, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)
        pos = np.arange(total)[None]
        consts.append((None, cos_tab[pos][:, None], sin_tab[pos][:, None]))  # plain causal attention
        states.append(Tensor(x))

    n_nodes = graph.n_nodes()
    src = np.array([e.src for e in graph.edges], dtype=np.int64)
    dst = np.array([e.dst for e in graph.edges], dtype=np.int64)
    for t in range(1, cfg.n_layers + 1):
        layer = model.compressor_stack.layers[t - 1]
        states = [layer_forward(x, layer, cfg, *c) for x, c in zip(states, consts)]
        if t in cfg.gnn_layers and len(src):
            node_mem = Tensor(np.concatenate([states[i].data[:, -k:, :] for i in range(n_nodes)], axis=0))
            edge_mem = Tensor(np.stack([states[n_nodes + u].data[0, -k:, :] for u in arc_uid], axis=0))
            new_mem = gnn_layer(src, dst, node_mem, edge_mem, model.gnn_params[t], cfg).data
            for i in range(n_nodes):
                patched = states[i].data.copy()
                patched[0, -k:, :] = new_mem[i]
                states[i] = Tensor(patched)
    return np.concatenate([states[i].data[:, -k:, :] for i in range(n_nodes)], axis=0)


class TestEncodeGraph:
    def test_single_node_equals_compressor_only(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=2)
        text = "lonely node text"
        g = TAG()
        g.add_node(text)
        graph_mems = model.encode_graphs([g])[0][0].data
        text_mems = model.encode_texts([text]).data[0]
        assert np.array_equal(graph_mems, text_mems)

    def test_gate_zero_matches_gnn_free_path(self, rng):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=3)
        s = path_sample(["alpha text here", "beta text", "gamma words"])
        with_gnn, _ = model.encode_graphs([s.graph], use_gnn=True)
        without, _ = model.encode_graphs([s.graph], use_gnn=False)
        assert np.max(np.abs(with_gnn.data - without.data)) < 1e-9

    def test_nonzero_gates_match_unrolled_oracle(self, rng):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=4)
        for params in model.gnn_params.values():
            params["gate_gnn"].data = np.asarray(0.6)
            params["gate_ff"].data = np.asarray(-0.4)
        g = path_sample(["first node", "second node", "third node"]).graph
        fast, _ = model.encode_graphs([g])
        slow = unrolled_encode(model, g)
        assert np.allclose(fast.data, slow, atol=1e-9)

    def test_union_batching_matches_singletons(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=5)
        s1 = path_sample(["aa bb cc", "dd ee"])
        s2 = path_sample(["xx yy", "zz ww vv", "uu"])
        batched, offsets = model.encode_graphs([s1.graph, s2.graph])
        alone1, _ = model.encode_graphs([s1.graph])
        alone2, _ = model.encode_graphs([s2.graph])
        n1 = s1.graph.n_nodes()
        assert np.allclose(batched.data[:n1], alone1.data, atol=1e-9)
        assert np.allclose(batched.data[n1:], alone2.data, atol=1e-9)

    def test_node_order_permutation_equivariance(self, rng):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=6)
        for params in model.gnn_params.values():
            params["gate_gnn"].data = np.asarray(0.5)
        g = TAG()
        texts = ["node aye", "node bee", "node sea", "node dee"]
        for t in texts:
            g.add_node(t)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            g.add_undirected_edge(u, v, "e")
        perm = np.array([2, 0, 3, 1])  # perm[old] = new
        g2 = TAG()
        order = np.argsort(perm)
        for old in order:
            g2.add_node(texts[old])
        for e in g.edges:
            g2.add_edge(int(perm[e.src]), int(perm[e.dst]), e.text)
        base, _ = model.encode_graphs([g])
        permuted, _ = model.encode_graphs([g2])
        assert np.allclose(permuted.data[perm], base.data, atol=1e-9)


class TestFrozenCompressor:
    def test_gnn_gradient_vs_fd(self, rng):
        model = GofaModel(tiny_cfg(), seed=12)
        for params in model.gnn_params.values():
            params["gate_gnn"].data = np.asarray(0.5)
            params["gate_ff"].data = np.asarray(-0.3)
        frozen = [t for n, t in model.parameters().items() if n.startswith(("compressor.", "memory_tokens"))]
        for t in frozen:
            t.requires_grad = False
        s = path_sample(["alpha text here", "beta", "gamma words"], y="ok")
        first, second = model.gnn_params[1], model.gnn_params[2]
        checked = [first["wq"], first["wv_edge"], first["gate_gnn"], second["ff1"], second["norm_nodes"]]

        def build():
            return model.forward_batch([s])[0]

        build().backward()
        assert all(t.grad is None for t in frozen)
        grads = [t.grad.copy() for t in checked]
        for ti, c, fd in finite_difference(lambda: build().item(), checked, max_coords=4, rng=rng):
            assert_grad_close(grads[ti].reshape(-1)[c], fd, rel_tol=1e-4)


class TestPrecision:
    def test_float32_loss_matches_float64_and_stays_float32(self):
        samples = [
            path_sample(["first node text", "second"], y="a target"),
            path_sample(["x y z", "w", "v u"], target_node=1, y="other target text"),
        ]
        losses = {}
        for precision in ("float64", "float32"):
            model = GofaModel(tiny_cfg(precision=precision), seed=21)
            for params in model.gnn_params.values():
                params["gate_gnn"].data[...] = 0.6
                params["gate_ff"].data[...] = -0.4
            loss, _, _ = model.forward_batch(samples)
            loss.backward()
            assert loss.dtype == model.cfg.dtype
            for name, t in model.parameters().items():
                assert t.dtype == model.cfg.dtype, name
                assert t.grad.dtype == model.cfg.dtype, name
            losses[precision] = loss.item()
        assert abs(losses["float32"] - losses["float64"]) <= 1e-5 * abs(losses["float64"])


class TestDecode:
    def test_untrained_loss_near_uniform(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=7)
        s = path_sample(["some text here", "other node"], y="answer words")
        loss, _, _ = model.forward_batch([s])
        assert abs(loss.item() - np.log(260)) < 0.3

    def test_empty_target_rejected(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=0)
        mem = Tensor(np.zeros((cfg.memory_tokens, cfg.d_model)))
        with pytest.raises(GraphError):
            model.decode_loss(mem, "")

    def test_batch_of_one_equals_decode_loss(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=8)
        s = path_sample(["graph node one", "graph node two"], y="the target")
        loss, n, _ = model.forward_batch([s])
        assert n == 1
        mems, _ = model.encode_graphs([s.graph])
        direct = model.decode_loss(mems[s.targets[0].nog], "the target")
        assert abs(loss.item() - direct.item()) < 1e-12

    def test_mean_of_singletons_equals_batch_of_two(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=9)
        s1 = path_sample(["one text node", "two"], y="first target")
        s2 = path_sample(["three word node", "four"], y="second")
        l1, _, _ = model.forward_batch([s1])
        l2, _, _ = model.forward_batch([s2])
        both, n, _ = model.forward_batch([s1, s2])
        assert n == 2
        assert abs(both.item() - 0.5 * (l1.item() + l2.item())) < 1e-9

    def test_multi_target_sample(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=10)
        g = TAG()
        g.add_node("node a text")
        g.add_node("node b text")
        g.add_undirected_edge(0, 1)
        p1 = attach_prompt_node(g, [0], "q1", "single")
        p2 = attach_prompt_node(g, [1], "q2", "single")
        s = TaskSample(
            graph=g,
            targets=[GenerationTarget(p1, "alpha"), GenerationTarget(p2, "beta")],
            task_kind="completion",
        )
        loss, n, tokens = model.forward_batch([s])
        assert n == 2
        assert tokens == len("alpha") + 1 + len("beta") + 1

    def test_long_target_keeps_its_head(self, caplog):
        cfg = tiny_cfg(max_seq_len=16)
        model = GofaModel(cfg, seed=11)
        mem = model.encode_texts(["prompt"])
        limit = cfg.max_seq_len - cfg.memory_tokens
        ids = model.target_ids("The shortest path distance is 3. Shortest paths: A -> B -> C -> D.")
        assert len(ids) > limit
        with caplog.at_level(logging.WARNING, logger="gofa"):
            [(long_nll, long_n)] = model.decoder_nll_per_target(mem, [ids])
        [(head_nll, head_n)] = model.decoder_nll_per_target(mem, [ids[:limit]])
        assert long_n == head_n == limit
        assert long_nll.data.tobytes() == head_nll.data.tobytes()
        assert any(r.getMessage().startswith("target length") and "dropping the tail" in r.getMessage()
                   for r in caplog.records)


class TestPromptIsolation:
    def _two_prompt_graph(self, question_a):
        g = TAG()
        g.add_node("content node one")
        g.add_node("content node two")
        g.add_undirected_edge(0, 1, "link")
        pa = attach_prompt_node(g, [0], question_a, "single")
        pb = attach_prompt_node(g, [1], "question b", "single")
        return g, pa, pb

    def test_single_edge_prompts_isolated(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=11)
        for params in model.gnn_params.values():
            params["gate_gnn"].data = np.asarray(0.8)
        g1, pa, pb = self._two_prompt_graph("question a")
        g2, _, _ = self._two_prompt_graph("a very different question")
        m1, _ = model.encode_graphs([g1])
        m2, _ = model.encode_graphs([g2])
        assert np.max(np.abs(m1.data[pb] - m2.data[pb])) < 1e-12
        assert not np.allclose(m1.data[pa], m2.data[pa])

    def test_double_edge_prompt_steers_targets(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=12)
        for params in model.gnn_params.values():
            params["gate_gnn"].data = np.asarray(0.8)

        def build(question):
            g = TAG()
            g.add_node("target node text")
            g.add_node("other node")
            g.add_undirected_edge(0, 1)
            attach_prompt_node(g, [0], question, "double")
            return g

        m1, _ = model.encode_graphs([build("what color?")])
        m2, _ = model.encode_graphs([build("what shape?")])
        assert not np.allclose(m1.data[0], m2.data[0])


class TestGenerate:
    def test_greedy_deterministic(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=13)
        mem = model.encode_texts(["prompt text"])[0]
        a = model.generate(mem, max_new_tokens=12)
        b = model.generate(mem, max_new_tokens=12)
        assert a == b

    def test_seeded_sampling_deterministic(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=14)
        mem = model.encode_texts(["prompt text"])[0]
        a = model.generate(mem, max_new_tokens=12, mode="sample", temperature=1.3, seed=42)
        b = model.generate(mem, max_new_tokens=12, mode="sample", temperature=1.3, seed=42)
        assert a == b

    def test_overfit_then_reproduce(self):
        cfg = tiny_cfg(d_model=32, n_heads=4)
        model = GofaModel(cfg, seed=15)
        s = path_sample(["memorize this node", "neighbor"], y="ok good")
        tcfg = TrainConfig(lr=3e-3, weight_decay=0.0, grad_clip=1.0, max_steps=1, batch_size=1)
        opt = AdamW(model.parameters(), tcfg)
        losses = []
        for step in range(250):
            opt.zero_grad()
            loss, _, _ = model.forward_batch([s])
            loss.backward()
            opt.step(3e-3)
            losses.append(loss.item())
        # decreasing on average while overfitting one sample
        assert np.mean(losses[-20:]) < np.mean(losses[:20])
        assert losses[-1] < 0.05
        mems, _ = model.encode_graphs([s.graph])
        out = model.generate(mems[s.targets[0].nog], max_new_tokens=16)
        assert out == "ok good"


def reference_next_logits(model: GofaModel, mem, prefix):
    """Teacher-forcing forward over memory plus the whole prefix (its last
    max_seq_len - K tokens), read at the last position."""
    cfg = model.cfg
    k = cfg.memory_tokens
    window = list(prefix)[-(cfg.max_seq_len - k) :]
    bucket = make_decode_buckets([window], cfg, cfg.dtype)[0]
    with no_grad():
        logits = model.decoder._forward_bucket(mem.reshape(1, k, cfg.d_model), bucket, cfg)
    return logits.data[0, k + len(window) - 1]


def reference_generate(model: GofaModel, mem, max_new_tokens, mode="greedy", temperature=1.0, seed=0):
    """The decoding loop of ``generate`` with every token recomputed from scratch."""
    rng = np.random.default_rng(seed)
    ids = []
    for _ in range(max_new_tokens):
        logits = reference_next_logits(model, mem, ids)
        if mode == "greedy":
            nxt = int(np.argmax(logits))
        else:
            z = logits / max(temperature, 1e-8)
            z = z - z.max()
            p = np.exp(z)
            p /= p.sum()
            nxt = int(rng.choice(len(p), p=p))
        if nxt == tokenizer.EOS_ID:
            break
        ids.append(nxt)
    return tokenizer.decode(ids)


def recorded_generate(model: GofaModel, mem, **kw):
    """``generate`` plus the (prefix, logits) of every next_logits call."""
    calls = []
    inner = model.decoder.next_logits

    def next_logits(memory, prefix):
        logits = inner(memory, prefix)
        calls.append((list(prefix), logits.copy()))
        return logits

    model.decoder.next_logits = next_logits
    try:
        return model.generate(mem, **kw), calls
    finally:
        del model.decoder.next_logits


class TestKVCache:
    def test_greedy_text_equals_full_recompute(self):
        model = GofaModel(tiny_cfg(), seed=21)
        mems = model.encode_texts(["prompt text", "another prompt", ""])
        for i in range(mems.shape[0]):
            assert model.generate(mems[i], max_new_tokens=20) == reference_generate(model, mems[i], 20)

    def test_logits_match_teacher_forcing_over_generated_sequence(self):
        model = GofaModel(tiny_cfg(), seed=22)
        mem = model.encode_texts(["prompt text"])[0]
        text, calls = recorded_generate(model, mem, max_new_tokens=30)
        ids = calls[-1][0] + [int(np.argmax(calls[-1][1]))]
        assert len(calls) == 30 and tokenizer.decode(ids) == text
        k = model.cfg.memory_tokens
        bucket = make_decode_buckets([ids], model.cfg, model.cfg.dtype)[0]
        with no_grad():
            full = model.decoder._forward_bucket(mem.reshape(1, k, model.cfg.d_model), bucket, model.cfg).data[0]
        for i, (prefix, logits) in enumerate(calls):
            assert prefix == ids[:i]
            np.testing.assert_allclose(logits, full[k - 1 + i], rtol=0, atol=1e-12)

    def test_seeded_sampling_equals_full_recompute(self):
        model = GofaModel(tiny_cfg(), seed=14)
        mem = model.encode_texts(["prompt text"])[0]
        kw = dict(mode="sample", temperature=1.3, seed=42)
        assert model.generate(mem, max_new_tokens=20, **kw) == reference_generate(model, mem, 20, **kw)

    def test_sliding_window_past_max_seq_len(self, caplog):
        model = GofaModel(tiny_cfg(max_seq_len=16), seed=23)
        mem = model.encode_texts(["window"])[0]
        limit = model.cfg.max_seq_len - model.cfg.memory_tokens
        with caplog.at_level(logging.WARNING, logger="gofa"):
            text, calls = recorded_generate(model, mem, max_new_tokens=2 * limit)
        warned = [r for r in caplog.records if r.getMessage().startswith("target length")]
        assert len(warned) == 1
        assert len(calls) == 2 * limit
        assert text == reference_generate(model, mem, 2 * limit)
        for prefix, logits in calls:
            np.testing.assert_allclose(logits, reference_next_logits(model, mem, prefix), rtol=0, atol=1e-12)

    def test_next_logits_outside_generate_or_off_prefix_is_fresh(self):
        model = GofaModel(tiny_cfg(), seed=24)
        mems = model.encode_texts(["first", "second"])
        a, b = mems[0], mems[1]
        dec = model.decoder
        cases = [(a, [72]), (a, [72, 105]), (a, [72, 106, 1]), (a, [9]), (b, [9, 10]), (a, [])]
        fresh = [dec.next_logits(memory, prefix) for memory, prefix in cases]
        for (memory, prefix), logits in zip(cases, fresh):
            np.testing.assert_allclose(logits, reference_next_logits(model, memory, prefix), rtol=0, atol=1e-12)
        # after [72], only (a, [72, 105]) extends the cached prefix; the rest start over
        with dec.kv_cache():
            for (memory, prefix), logits in zip(cases, fresh):
                if prefix == [72, 105]:
                    np.testing.assert_allclose(dec.next_logits(memory, prefix), logits, rtol=0, atol=1e-12)
                else:
                    assert np.array_equal(dec.next_logits(memory, prefix), logits)
        assert dec._state is None

    def test_one_decoder_position_per_token(self, monkeypatch):
        model = GofaModel(tiny_cfg(), seed=26)
        mem = model.encode_texts(["prompt text"])[0]
        first = model.decoder_stack.layers[0]
        positions = []
        inner = compressor.layer_forward

        def counting_layer_forward(x, p, *rest):
            if p is first:
                positions.append(x.shape[1])
            return inner(x, p, *rest)

        monkeypatch.setattr(compressor, "layer_forward", counting_layer_forward)
        _, calls = recorded_generate(model, mem, max_new_tokens=20)
        assert len(calls) == 20
        assert positions == [model.cfg.memory_tokens] + [1] * 19

    def test_weight_change_between_generates(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=25)
        mem = model.encode_texts(["prompt text"])[0]
        model.generate(mem, max_new_tokens=12)
        for name, t in model.parameters().items():
            if name.startswith("decoder."):
                t.data *= 1.5
        fresh = GofaModel(cfg, seed=99)
        for name, t in fresh.parameters().items():
            t.data = model.parameters()[name].data.copy()
        assert model.generate(mem, max_new_tokens=12) == fresh.generate(mem, max_new_tokens=12)
        assert model.generate(mem, max_new_tokens=12) == reference_generate(model, mem, 12)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=16)
        s = path_sample(["persist me", "and me"])
        before, _ = model.encode_graphs([s.graph])
        path = tmp_path / "model.gofa"
        model.save(path)
        loaded, extras, config = GofaModel.load(path)
        assert extras == {}
        after, _ = loaded.encode_graphs([s.graph])
        assert np.array_equal(before.data, after.data)

    def test_load_rejects_missing_parameter(self, tmp_path):
        model = GofaModel(tiny_cfg(), seed=17)
        path = tmp_path / "model.gofa"
        model.save(path)
        tensors, config = load_checkpoint(path)
        del tensors["decoder.layers.0.wq"]
        save_checkpoint(path, tensors, config)
        with pytest.raises(ValueError, match="decoder.layers.0.wq"):
            GofaModel.load(path)
