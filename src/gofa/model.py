"""Full graph language model: interleaved compressor/GNN encoder plus a
separate decoder that generates target text from a node's memory block.

Encoding runs every node and edge text through the transformer stack; after
each configured interleave layer, the GNN rewrites node memories using the
graph structure while edge memories continue through the stack unchanged.
Batches of graphs are encoded as one disjoint union, which is exactly
equivalent to per-graph encoding because no arcs cross samples.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import tokenizer
from .autodiff import Tensor, concat, cross_entropy_rows, gather_rows, no_grad
from .checkpoint import load_checkpoint, save_checkpoint
from .compressor import Compressor, Decoder, ModelConfig, ParamStore, TransformerStack, make_decode_buckets
from .gnn import gnn_layer, init_gnn_layer, representation_change_ratio
from .tag import TAG, GraphError, TaskSample


def _mean_of_target_means(per_target) -> Tensor:
    """Mean over targets of each target's mean token NLL, summed in target
    order; ``per_target`` holds (summed NLL, token count) pairs."""
    loss = None
    for total, count in per_target:
        part = total * (1.0 / count)
        loss = part if loss is None else loss + part
    return loss * (1.0 / len(per_target))


class GofaModel:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        store = ParamStore(dtype=cfg.dtype)
        rng = np.random.default_rng(seed)
        self.compressor_stack = TransformerStack(store, "compressor", cfg, rng, with_final_norm=False)
        self.memory_tokens = store.add(
            "memory_tokens", rng.normal(0.0, cfg.embed_std, (cfg.memory_tokens, cfg.d_model))
        )
        self.decoder_stack = TransformerStack(store, "decoder", cfg, rng, with_final_norm=True)
        self.gnn_params = {t: init_gnn_layer(store, f"gnn.{t}", cfg, rng) for t in cfg.gnn_layers}
        self.store = store
        self.compressor = Compressor(self.compressor_stack, self.memory_tokens)
        self.decoder = Decoder(self.decoder_stack)

    # -- parameters -----------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        return self.store.named()

    def zero_grad(self) -> None:
        for t in self.store.params.values():
            t.zero_grad()

    def check_finite(self) -> None:
        for name, t in self.store.params.items():
            t.validate_finite(name)

    # -- encoding ---------------------------------------------------------------

    def encode_graphs(
        self,
        graphs: list[TAG],
        use_gnn: bool = True,
        capture_deltas: dict[int, list[float]] | None = None,
        collect_attention: list | None = None,
    ) -> tuple[Tensor, list[int]]:
        """Encode a batch of graphs as one disjoint union.

        Returns the [total_nodes, K, d] node-memory tensor and per-graph
        node offsets into it.
        """
        node_seqs: list[list[int]] = []
        offsets: list[int] = []
        src: list[int] = []
        dst: list[int] = []
        arc_text_uid: list[int] = []
        edge_text_uids: dict[str, int] = {}
        for g in graphs:
            offsets.append(len(node_seqs))
            base = offsets[-1]
            for n in g.nodes:
                node_seqs.append(tokenizer.encode(n.text))
            for e in g.edges:
                if e.text not in edge_text_uids:
                    edge_text_uids[e.text] = len(edge_text_uids)
                src.append(base + e.src)
                dst.append(base + e.dst)
                arc_text_uid.append(edge_text_uids[e.text])
        n_nodes = len(node_seqs)
        edge_seqs = [tokenizer.encode(t) for t in sorted(edge_text_uids, key=edge_text_uids.get)]

        hook = None
        if use_gnn and src and self.gnn_params:
            src_arr = np.asarray(src, dtype=np.int64)
            dst_arr = np.asarray(dst, dtype=np.int64)
            uid_arr = n_nodes + np.asarray(arc_text_uid, dtype=np.int64)

            def hook(mems: Tensor, layer_t: int) -> Tensor:
                node_mem = mems[:n_nodes]
                edge_mem = gather_rows(mems, uid_arr)
                updated = gnn_layer(
                    src_arr, dst_arr, node_mem, edge_mem,
                    self.gnn_params[layer_t], self.cfg,
                    collect_attention=collect_attention,
                )
                if capture_deltas is not None:
                    capture_deltas.setdefault(layer_t, []).append(
                        representation_change_ratio(updated, node_mem)
                    )
                if len(edge_seqs) == 0:
                    return updated
                return concat([updated, mems[n_nodes:]], axis=0)

        mems = self.compressor.run(node_seqs + edge_seqs, memory_hook=hook)
        node_mems = mems[:n_nodes] if edge_seqs else mems
        return node_mems, offsets

    def encode_texts(self, texts: list[str]) -> Tensor:
        """Compressor-only path: memory embeddings of bare texts, no graph."""
        return self.compressor.run([tokenizer.encode(t) for t in texts])

    # -- decoding ---------------------------------------------------------------

    @staticmethod
    def target_ids(text: str) -> list[int]:
        return tokenizer.encode(text) + [tokenizer.EOS_ID]

    def decode_loss(self, nog_memory: Tensor, target_text: str) -> Tensor:
        """Mean token NLL of teacher-forcing ``target_text`` from one memory
        block [K, d]."""
        if not target_text:
            raise GraphError("decode_loss requires a non-empty target text")
        memory = nog_memory.reshape(1, self.cfg.memory_tokens, self.cfg.d_model)
        return _mean_of_target_means(self.decoder_nll_per_target(memory, [self.target_ids(target_text)]))

    def decoder_nll_per_target(self, memories: Tensor, targets: list[list[int]]):
        """Per-target (summed NLL tensor, token count) pairs."""
        cfg = self.cfg
        k = cfg.memory_tokens
        buckets = make_decode_buckets(targets, cfg, cfg.dtype)
        results: list = [None] * len(targets)
        for b in buckets:
            mem_rows = gather_rows(memories, b.indices)
            logits = self.decoder._forward_bucket(mem_rows, b, cfg)
            sb, lb = b.ids.shape
            # the position before each target token predicts it; pad columns score nothing
            n = b.window[:, 1:] - k
            labels = np.full((sb, k + lb), -100, dtype=np.int64)
            labels[:, k - 1 : k - 1 + lb] = np.where(np.arange(lb) < n, b.ids, -100)
            totals, counts = cross_entropy_rows(logits, labels)
            for row, i in enumerate(b.indices):
                results[i] = (totals[row], int(counts[row]))
        return results

    def encode_targets(self, samples: list[TaskSample], use_gnn: bool = True) -> tuple[Tensor, list[list[int]]]:
        """Encode the samples' graphs as one batch; return the NOG memory
        block of every generation target ([T, K, d], samples in order, then
        their targets in order) and each target's token ids."""
        node_mems, offsets = self.encode_graphs([s.graph for s in samples], use_gnn=use_gnn)
        rows = [base + t.nog for s, base in zip(samples, offsets) for t in s.targets]
        target_ids = [self.target_ids(t.target_text) for s in samples for t in s.targets]
        return gather_rows(node_mems, np.asarray(rows, dtype=np.int64)), target_ids

    def forward_batch(self, samples: list[TaskSample], use_gnn: bool = True):
        """Mean loss over every generation target of every sample.

        Returns (loss tensor, target count, total token count).
        """
        mems, target_ids = self.encode_targets(samples, use_gnn=use_gnn)
        if not target_ids:
            raise GraphError("forward_batch requires at least one generation target")
        per_target = self.decoder_nll_per_target(mems, target_ids)
        return _mean_of_target_means(per_target), len(per_target), sum(count for _, count in per_target)

    def generate(
        self,
        nog_memory: Tensor,
        max_new_tokens: int = 64,
        mode: str = "greedy",
        temperature: float = 1.0,
        seed: int = 0,
    ) -> str:
        """Autoregressive decoding from a memory block until EOS or budget.

        The decoder keeps per-layer K/V for this call only, so each token
        after the first computes one decoder position."""
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if mode not in ("greedy", "sample"):
            raise ValueError(f"unknown generation mode {mode!r}")
        rng = np.random.default_rng(seed)
        ids: list[int] = []
        with no_grad(), self.decoder.kv_cache():
            for _ in range(max_new_tokens):
                logits = self.decoder.next_logits(nog_memory, ids)
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

    # -- objectives beyond graph decoding ---------------------------------------

    def autoencode_loss(self, texts: list[str]) -> Tensor:
        """Reconstruction objective: compress each text, then decode the
        original tokens from the memory prefix alone. Mean over targets."""
        if not texts:
            raise GraphError("autoencode_loss requires a non-empty batch")
        mems = self.encode_texts(texts)
        return _mean_of_target_means(self.decoder_nll_per_target(mems, [self.target_ids(t) for t in texts]))

    # -- persistence ---------------------------------------------------------------

    def save(self, path, extra_tensors: dict[str, np.ndarray] | None = None, extra_config: dict | None = None) -> None:
        tensors = {name: t.data for name, t in self.store.params.items()}
        if extra_tensors:
            tensors.update(extra_tensors)
        config = {"model": asdict(self.cfg), "seed": self.seed}
        if extra_config:
            config.update(extra_config)
        save_checkpoint(path, tensors, config)

    @classmethod
    def load(cls, path) -> tuple["GofaModel", dict[str, np.ndarray], dict]:
        """Rebuild a model from a checkpoint; returns (model, extra tensors,
        config) where extras are entries not matching model parameters."""
        tensors, config = load_checkpoint(path)
        if config is None or "model" not in config:
            raise ValueError(f"{path}: checkpoint lacks a model config chunk")
        cfg = ModelConfig(**config["model"])
        model = cls(cfg, seed=config.get("seed", 0))
        missing = sorted(set(model.store.params) - set(tensors))
        if missing:
            raise ValueError(f"{path}: checkpoint lacks model parameter(s) {', '.join(missing)}")
        extras = {}
        for name, arr in tensors.items():
            if name in model.store.params:
                param = model.store.params[name]
                if param.data.shape != arr.shape:
                    raise ValueError(f"{name}: checkpoint shape {arr.shape} != model shape {param.data.shape}")
                param.data = arr.astype(param.data.dtype)
            else:
                extras[name] = arr
        return model, extras, config
