import contextlib
import logging
import math

import numpy as np
import pytest

from conftest import assert_grad_close, assert_grads_match, causal_plan, compress, decode_loss, finite_difference
from gofa import compressor, tokenizer
from gofa import model as model_module
from gofa.autodiff import Tensor, concat, gather_rows, no_grad, rms_norm
from gofa.checkpoint import load_checkpoint, save_checkpoint
from gofa.compressor import LayerKV, ModelConfig, layer_forward, make_decode_buckets
from gofa.gnn import gnn_layer
from gofa.model import GofaModel
from gofa.tag import TAG, GenerationTarget, TaskSample, attach_prompt_node
from gofa.taskgen import make_autoencode_task
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
    for s in seqs:
        ids = np.asarray(s, dtype=np.int64)
        emb = model.compressor_stack.embed.data[ids] if len(s) else np.zeros((0, d))
        x = np.concatenate([emb, model.memory_tokens.data], axis=0)[None]
        states.append(Tensor(x))

    n_nodes = graph.n_nodes()
    src = np.array([e.src for e in graph.edges], dtype=np.int64)
    dst = np.array([e.dst for e in graph.edges], dtype=np.int64)
    for t in range(1, cfg.n_layers + 1):
        layer = model.compressor_stack.layers[t - 1]
        states = [layer_forward(x, layer, cfg, causal_plan(cfg, x)) for x in states]
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
        text_mems = compress(model, [text]).data[0]
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
        # bit for bit with the GNN on, beside a star whose hub has a higher
        # in-degree than any node of the path
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=5)
        for params in model.gnn_params.values():
            params["gate_gnn"].data = np.asarray(0.7)
            params["gate_ff"].data = np.asarray(-0.5)
        s1 = path_sample(["aa bb cc", "dd ee", "ff gg", "hh"])
        star = TAG()
        star.add_node("hub")
        for i in range(10):
            star.add_node(f"leaf {i}")
            star.add_undirected_edge(0, i + 1, "spoke")
        attach_prompt_node(star, [0], "complete?", "single")
        batched, offsets = model.encode_graphs([s1.graph, star])
        alone1, _ = model.encode_graphs([s1.graph])
        alone2, _ = model.encode_graphs([star])
        n1 = s1.graph.n_nodes()
        assert not np.allclose(alone1.data, model.encode_graphs([s1.graph], use_gnn=False)[0].data)
        assert np.array_equal(batched.data[:n1], alone1.data)
        assert np.array_equal(batched.data[n1:], alone2.data)

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


def field_graphs(rng) -> list[TAG]:
    """Random TAGs with edge texts, isolated nodes, an edge-less graph and
    nodes without in-arcs."""
    graphs = []
    for n_nodes, edge_prob in ((6, 0.35), (1, 0.0), (4, 0.0), (7, 0.2)):
        g = TAG()
        for i in range(n_nodes):
            g.add_node(f"node {i} of {n_nodes} says {rng.integers(100)}")
        for u in range(n_nodes):
            for v in range(n_nodes):
                if u != v and rng.random() < edge_prob:
                    g.add_edge(u, v, ["", "cites", "links to"][rng.integers(3)])
        graphs.append(g)
    return graphs


def open_gates(model: GofaModel) -> None:
    for params in model.gnn_params.values():
        params["gate_gnn"].data = np.asarray(0.6, dtype=model.cfg.dtype)
        params["gate_ff"].data = np.asarray(-0.4, dtype=model.cfg.dtype)


class TestFields:
    """``encode_graphs(rows=...)`` runs each layer only on its field, the
    receptive field of the rows; every row it returns has the full
    encode's bits."""

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("use_gnn", [True, False])
    @pytest.mark.parametrize("cached", [False, True])
    def test_rows_equal_the_full_encode_byte_for_byte(self, precision, use_gnn, cached):
        model = GofaModel(tiny_cfg(n_layers=6, gnn_layers=(2, 4, 5), precision=precision), seed=31)
        open_gates(model)
        graphs = field_graphs(np.random.default_rng(3))
        full = model.encode_graphs(graphs, use_gnn=use_gnn)[0].data
        in_degree = np.bincount([e.dst for e in graphs[0].edges], minlength=6)
        sources = [int(np.flatnonzero(in_degree == 0)[0])] if (in_degree == 0).any() else []
        # repeated and unsorted rows; the edge-less graph's nodes and a node without in-arcs
        picks = [[17, 3, 3, 0], [6, 7, 8], sources + [len(full) - 1], list(range(len(full)))[::-1], [5]]
        if cached:
            for name, t in model.parameters().items():
                t.requires_grad = not name.startswith(("compressor.", "memory_tokens"))
        with model.compressor.text_cache() if cached else contextlib.nullcontext():
            for _ in range(2 if cached else 1):  # a cold cache, then a warm one
                for rows in picks:
                    part = model.encode_graphs(graphs, use_gnn=use_gnn, rows=np.asarray(rows))[0].data
                    assert part.dtype == full.dtype and part.tobytes() == full[rows].tobytes()

    def test_forward_batch_matches_a_loss_from_the_full_encode(self):
        model = GofaModel(tiny_cfg(n_layers=4, gnn_layers=(1, 2, 3)), seed=32)
        open_gates(model)
        graphs = field_graphs(np.random.default_rng(4))
        samples = [
            TaskSample(graph=g, targets=[GenerationTarget(nog=nog, target_text=f"answer {nog}") for nog in nogs],
                       task_kind="downstream")
            for g, nogs in zip(graphs, ([4, 1], [0], [2], [6]))
        ]
        params = model.parameters()

        def full_loss():
            mems, offsets = model.encode_graphs([s.graph for s in samples])
            rows = [base + t.nog for s, base in zip(samples, offsets) for t in s.targets]
            targets = [model.target_ids(t.target_text) for s in samples for t in s.targets]
            nll, counts = model.decoder_nll_per_target(gather_rows(mems, np.asarray(rows)), targets)
            return (nll * (1.0 / (counts * len(targets)))).sum()

        results = []
        for build in (lambda: model.forward_batch(samples)[0], full_loss):
            for t in params.values():
                t.zero_grad()
            loss = build()
            loss.backward()
            results.append((loss.data.tobytes(), {n: t.grad for n, t in params.items()}))
        (loss, grads), (ref_loss, ref_grads) = results
        assert loss == ref_loss
        assert {n for n, g in grads.items() if g is not None} == {n for n, g in ref_grads.items() if g is not None}
        for name, g in ref_grads.items():
            if g is not None:
                assert_grads_match(grads[name], g)

    def test_each_layer_runs_its_field(self, monkeypatch):
        # a -> b -> c -> NOG; layers 1-3 run every text, and each GNN layer
        # at 3, 4 and 5 narrows the next layer's field by one hop
        model = GofaModel(ModelConfig(d_model=16, n_heads=2, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5),
                                      max_seq_len=48), seed=33)
        g = TAG()
        for text in ("alpha node", "bravo node", "charlie node", "delta node"):
            g.add_node(text)
        for src, text in enumerate(("one link", "two link", "six link")):
            g.add_edge(src, src + 1, text)
        sample = TaskSample(graph=g, targets=[GenerationTarget(nog=3, target_text="done")], task_kind="downstream")
        layer_names = {id(p): t for t, p in enumerate(model.compressor_stack.layers, start=1)}
        memory_rows, updated = {}, {}
        inner_layer, inner_gnn = compressor.layer_forward, model_module.gnn_layer

        def recording_layer(x, p, cfg, *rest):
            if id(p) in layer_names and x.shape[1] == cfg.memory_tokens:  # memory rows; every text is longer
                memory_rows[layer_names[id(p)]] = memory_rows.get(layer_names[id(p)], 0) + x.shape[0]
            return inner_layer(x, p, cfg, *rest)

        def recording_gnn(src, dst, node_mem, edge_mem, params, cfg, **kwargs):
            out = inner_gnn(src, dst, node_mem, edge_mem, params, cfg, **kwargs)
            updated[next(t for t, p in model.gnn_params.items() if p is params)] = out.shape[0]
            return out

        monkeypatch.setattr(compressor, "layer_forward", recording_layer)
        monkeypatch.setattr(model_module, "gnn_layer", recording_gnn)
        model.forward_batch([sample])
        # NOG; + c and c->NOG's text; + b and b->c's; + a and a->b's (every sequence)
        assert memory_rows == {1: 7, 2: 7, 3: 7, 4: 5, 5: 3, 6: 1}
        assert updated == {3: 3, 4: 2, 5: 1}


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

    def test_batch_of_one_equals_decode_loss(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=8)
        s = path_sample(["graph node one", "graph node two"], y="the target")
        loss, n, _ = model.forward_batch([s])
        assert n == 1
        mems, _ = model.encode_graphs([s.graph])
        assert abs(loss.item() - decode_loss(model, mems[s.targets[0].nog], "the target")) < 1e-12

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

    # 21, 3, 12, 4 and 7 target ids: buckets of width 24, 4, 16, 4 and 8
    MIXED_TARGETS = ["a twenty byte target", "ab", "eleven byte", "cde", "six by"]

    def test_loss_vector_entries_equal_singleton_calls(self):
        model = GofaModel(tiny_cfg(), seed=12)
        ids = [model.target_ids(t) for t in self.MIXED_TARGETS]
        buckets = make_decode_buckets(ids, model.cfg, model.cfg.dtype)
        assert len(buckets) >= 3
        assert [i for b in buckets for i in b.indices] != list(range(len(ids)))  # given out of bucket order
        mems = compress(model, [f"node {i}" for i in range(len(ids))])
        nll, counts = model.decoder_nll_per_target(mems, ids)
        assert nll.shape == (len(ids),) and counts.tolist() == [len(t) for t in ids]
        for i, target in enumerate(ids):
            one, one_count = model.decoder_nll_per_target(mems[i : i + 1], [target])
            assert nll.data[i].tobytes() == one.data[0].tobytes()
            assert counts[i] == one_count[0]

    def test_forward_batch_averages_the_target_means(self):
        model = GofaModel(tiny_cfg(), seed=13)
        samples = [make_autoencode_task(t) for t in self.MIXED_TARGETS]
        loss, n, tokens = model.forward_batch(samples)
        nll, counts = model.decoder_nll_per_target(*model.encode_targets(samples))
        means = [float(total) / int(count) for total, count in zip(nll.data, counts)]
        ref = math.fsum(means) / len(means)
        assert n == len(samples) and tokens == sum(len(t) + 1 for t in self.MIXED_TARGETS)
        assert abs(loss.item() - ref) <= 1e-15 * abs(ref)

    def test_long_target_keeps_its_head(self, caplog):
        cfg = tiny_cfg(max_seq_len=16)
        model = GofaModel(cfg, seed=11)
        mem = compress(model, ["prompt"])
        limit = cfg.max_seq_len - cfg.memory_tokens
        ids = model.target_ids("The shortest path distance is 3. Shortest paths: A -> B -> C -> D.")
        assert len(ids) > limit
        with caplog.at_level(logging.WARNING, logger="gofa"):
            long_nll, long_n = model.decoder_nll_per_target(mem, [ids])
        head_nll, head_n = model.decoder_nll_per_target(mem, [ids[:limit]])
        assert long_n.tolist() == head_n.tolist() == [limit]
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
        mem = compress(model, ["prompt text"])[0]
        a = model.generate(mem, max_new_tokens=12)
        b = model.generate(mem, max_new_tokens=12)
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


def teacher_logits(model: GofaModel, mem, ids) -> np.ndarray:
    """Teacher-forcing logits [K + Lb, V] of one memory block and target:
    the final norm and the head over every row ``_forward_bucket`` returns."""
    cfg = model.cfg
    stack = model.decoder_stack
    bucket = make_decode_buckets([list(ids)], cfg, cfg.dtype)[0]
    with no_grad():
        rows = model.decoder._forward_bucket(mem.reshape(1, cfg.memory_tokens, cfg.d_model), bucket, cfg)
        return (rms_norm(rows, stack.final_norm) @ stack.embed.swapaxes(0, 1)).data[0]


def reference_next_logits(model: GofaModel, mem, prefix):
    """Teacher-forcing forward over memory plus the whole prefix, read at
    the last position."""
    return teacher_logits(model, mem, prefix)[model.cfg.memory_tokens + len(prefix) - 1]


class TapeDecoder:
    """The decode step as tape ops: ``Decoder.next_logits`` before it ran on
    arrays. Each layer is ``layer_forward`` over tensors with keys and
    values kept per layer; a prefix that extends the previous call's by one
    token, for the same memory block, runs that token's position alone, and
    every other call prefills memory plus prefix."""

    def __init__(self, model: GofaModel):
        self.stack = model.decoder_stack
        self.memory, self.prefix, self.layers = None, [], []

    def next_logits(self, memory, prefix):
        stack, cfg = self.stack, self.stack.cfg
        k, d = cfg.memory_tokens, cfg.d_model
        n = len(self.prefix)
        with no_grad():
            if memory is self.memory and len(prefix) == n + 1 and list(prefix[:n]) == self.prefix:
                self.prefix.append(prefix[-1])
                x = gather_rows(stack.embed, prefix[-1:]).reshape(1, 1, d)
            else:
                self.memory, self.prefix = memory, list(prefix)
                self.layers = [LayerKV() for _ in stack.layers]
                x = memory.reshape(1, k, d)
                if prefix:
                    x = concat([x, gather_rows(stack.embed, prefix).reshape(1, len(prefix), d)], axis=1)
            for layer, kv in zip(stack.layers, self.layers):
                x = layer_forward(x, layer, cfg, causal_plan(cfg, x, kv.n), kv)
            xn = rms_norm(x[:, -1:, :], stack.final_norm)
            return (xn @ stack.embed.swapaxes(0, 1)).data[0, 0]


def tape_generate(model: GofaModel, mem, max_new_tokens):
    """Greedy ``generate`` through one ``TapeDecoder``."""
    tape = TapeDecoder(model)
    ids = []
    for _ in range(max_new_tokens):
        nxt = int(np.argmax(tape.next_logits(mem, ids)))
        if nxt == tokenizer.EOS_ID:
            break
        ids.append(nxt)
    return tokenizer.decode(ids)


def reference_generate(model: GofaModel, mem, max_new_tokens):
    """The greedy loop of ``generate`` with every token recomputed from scratch."""
    ids = []
    for _ in range(max_new_tokens):
        nxt = int(np.argmax(reference_next_logits(model, mem, ids)))
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
        mems = compress(model, ["prompt text", "another prompt", ""])
        for i in range(mems.shape[0]):
            assert model.generate(mems[i], max_new_tokens=20) == reference_generate(model, mems[i], 20)

    def test_logits_match_teacher_forcing_over_generated_sequence(self):
        model = GofaModel(tiny_cfg(), seed=22)
        mem = compress(model, ["prompt text"])[0]
        text, calls = recorded_generate(model, mem, max_new_tokens=30)
        ids = calls[-1][0] + [int(np.argmax(calls[-1][1]))]
        assert len(calls) == 30 and tokenizer.decode(ids) == text
        k = model.cfg.memory_tokens
        full = teacher_logits(model, mem, ids)
        for i, (prefix, logits) in enumerate(calls):
            assert prefix == ids[:i]
            np.testing.assert_allclose(logits, full[k - 1 + i], rtol=0, atol=1e-12)

    def test_long_target_logits_match_teacher_forcing_across_tiles(self):
        # 90 target tokens: the teacher-forced decoder runs 99 query columns in
        # four attention tiles, the KV cache one query at a time
        model = GofaModel(tiny_cfg(max_seq_len=128), seed=27)
        mem = compress(model, ["prompt text"])[0]
        ids = [int(i) for i in np.random.default_rng(0).integers(0, 256, 90)]
        k = model.cfg.memory_tokens
        full = teacher_logits(model, mem, ids)
        with model.decoder.kv_cache():
            for i in range(len(ids) + 1):
                np.testing.assert_allclose(model.decoder.next_logits(mem, ids[:i]), full[k - 1 + i], rtol=0, atol=1e-12)

    @staticmethod
    def _check_desk_scale_generation(precision, close):
        # the bench's model: a 96-token budget crosses the 32/64/96-column
        # attention tiles of the teacher-forcing pass
        cfg = ModelConfig(
            d_model=32, n_heads=4, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5), max_seq_len=128, precision=precision
        )
        model = GofaModel(cfg, seed=1)
        mems = compress(model, ["node 3 links to node 7 and node 9", "what is the shortest path?"])
        for i in range(mems.shape[0]):
            text, calls = recorded_generate(model, mems[i], max_new_tokens=96)
            assert len(calls) == 96 and text == reference_generate(model, mems[i], 96)
            for prefix, logits in calls:
                reference = reference_next_logits(model, mems[i], prefix)
                assert logits.dtype == cfg.dtype
                close(logits, reference)
                close(model.decoder.next_logits(mems[i], prefix), reference)  # fresh outside kv_cache()

    def test_desk_scale_generation_matches_teacher_forcing(self):
        self._check_desk_scale_generation(
            "float64", lambda logits, reference: np.testing.assert_allclose(logits, reference, rtol=0, atol=1e-12)
        )

    def test_desk_scale_float32_generation_matches_teacher_forcing(self):
        # within 1e-5 of the largest logit's magnitude; greedy text equal
        def close(logits, reference):
            assert np.abs(logits - reference).max() <= 1e-5 * np.abs(reference).max()

        self._check_desk_scale_generation("float32", close)

    def test_budget_past_max_seq_len_is_rejected_before_decoding(self):
        model = GofaModel(tiny_cfg(max_seq_len=16), seed=23)
        mem = compress(model, ["window"])[0]
        limit = model.cfg.max_seq_len - model.cfg.memory_tokens
        calls = []
        inner = model.decoder.next_logits
        model.decoder.next_logits = lambda memory, prefix: calls.append(len(prefix)) or inner(memory, prefix)
        try:
            with pytest.raises(ValueError, match="max_seq_len - memory_tokens"):
                model.generate(mem, max_new_tokens=limit + 1)
            assert calls == []
            assert model.generate(mem, max_new_tokens=limit) == reference_generate(model, mem, limit)
        finally:
            del model.decoder.next_logits

    def test_prefix_past_max_seq_len_is_rejected(self):
        model = GofaModel(tiny_cfg(max_seq_len=16), seed=23)
        mem = compress(model, ["window"])[0]
        limit = model.cfg.max_seq_len - model.cfg.memory_tokens
        ids = [65 + i % 26 for i in range(limit + 1)]
        with pytest.raises(ValueError, match="max_seq_len - memory_tokens"):
            model.decoder.next_logits(mem, ids)
        with model.decoder.kv_cache():
            for i in range(limit + 1):
                np.testing.assert_allclose(
                    model.decoder.next_logits(mem, ids[:i]), reference_next_logits(model, mem, ids[:i]), rtol=0, atol=1e-12
                )
            with pytest.raises(ValueError, match="max_seq_len - memory_tokens"):
                model.decoder.next_logits(mem, ids)

    def test_next_logits_outside_generate_or_off_prefix_is_fresh(self):
        model = GofaModel(tiny_cfg(), seed=24)
        mems = compress(model, ["first", "second"])
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
        mem = compress(model, ["prompt text"])[0]
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
        # every layer call steps one row: the first call the K memory rows
        # of the empty prefix, then one position per token
        assert positions == [1] * (model.cfg.memory_tokens + 19)

    def test_array_step_matches_the_tape_step(self):
        # prefix of 40 tokens: K + 40 = 43 key columns, past one 32-column attention tile
        model = GofaModel(tiny_cfg(), seed=28)
        mems = compress(model, ["first", "second"])
        a, b = mems[0], mems[1]
        long = [int(i) for i in np.random.default_rng(1).integers(0, 256, 42)]
        cases = [
            (a, []),  # empty prefix
            (a, [72]),
            (a, [72, 105]),  # a one-token extension
            (a, [72, 106, 1]),  # off the cached prefix: a fresh call
            (b, [72, 106]),  # another memory block
            (b, long[:40]),  # a prefill over two tiles
            (b, long[:41]),
            (b, long[:42]),
        ]
        tape = TapeDecoder(model)
        with model.decoder.kv_cache():
            for memory, prefix in cases:
                np.testing.assert_allclose(
                    model.decoder.next_logits(memory, prefix), tape.next_logits(memory, prefix), rtol=0, atol=1e-12
                )
        for mem, budget in ((a, 20), (b, 45)):
            assert model.generate(mem, max_new_tokens=budget) == tape_generate(model, mem, budget)

    def test_no_tape_objects_per_token(self, monkeypatch):
        model = GofaModel(tiny_cfg(), seed=26)
        mem = compress(model, ["prompt text"])[0]
        calls, made = 0, 0
        make, init = Tensor._make, Tensor.__init__
        next_logits = model.decoder.next_logits

        def counting_make(tensor, *args):
            nonlocal made
            made += 1
            return make(tensor, *args)

        def counting_init(tensor, *args, **kwargs):
            nonlocal made
            made += 1
            init(tensor, *args, **kwargs)

        def counting_next_logits(memory, prefix):
            nonlocal calls
            logits = next_logits(memory, prefix)
            calls += 1
            return logits

        monkeypatch.setattr(Tensor, "_make", counting_make)
        monkeypatch.setattr(Tensor, "__init__", counting_init)
        monkeypatch.setattr(model.decoder, "next_logits", counting_next_logits)
        model.generate(mem, max_new_tokens=21)
        assert calls == 21
        assert made == 0  # the first token's call included

    def test_weight_change_between_generates(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=25)
        mem = compress(model, ["prompt text"])[0]
        model.generate(mem, max_new_tokens=12)
        for name, t in model.parameters().items():
            if name.startswith("decoder."):
                t.data *= 1.5
        fresh = GofaModel(cfg, seed=99)
        for name, t in fresh.parameters().items():
            t.data = model.parameters()[name].data.copy()
        assert model.generate(mem, max_new_tokens=12) == fresh.generate(mem, max_new_tokens=12)
        assert model.generate(mem, max_new_tokens=12) == reference_generate(model, mem, 12)

    def test_folded_weights_follow_a_weight_change(self):
        # the step folds wq, attn_norm and ff_norm into per-cache arrays; a
        # later generate must fold the changed weights, not reuse old ones
        model = GofaModel(tiny_cfg(), seed=29)
        mem = compress(model, ["prompt text"])[0]
        before = model.generate(mem, max_new_tokens=20)
        rng = np.random.default_rng(3)
        layer = model.decoder_stack.layers[1]
        for name in ("wq", "attn_norm", "ff_norm"):
            layer[name].data = layer[name].data * rng.uniform(0.5, 2.0, layer[name].shape)
        text, calls = recorded_generate(model, mem, max_new_tokens=20)
        assert text == reference_generate(model, mem, 20) and text != before
        assert len(calls) > 1
        for prefix, logits in calls:
            np.testing.assert_allclose(logits, reference_next_logits(model, mem, prefix), rtol=0, atol=1e-12)


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
