"""Full graph language model: interleaved compressor/GNN encoder plus a
separate decoder that generates target text from a node's memory block.

Encoding runs node and edge texts through the transformer stack; after
each configured interleave layer, the GNN rewrites node memories using the
graph structure while edge memories continue through the stack unchanged.
A caller that reads only some node rows, as the loss reads the nodes of
generation, has each layer run only their receptive field. Batches of
graphs are encoded as one disjoint union, which is exactly equivalent to
per-graph encoding because no arcs cross samples.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import tokenizer
from .autodiff import Tensor, concat, gather_rows, head_cross_entropy
from .checkpoint import load_checkpoint, save_checkpoint
from .compressor import (
    EMBED_STD, Compressor, Decoder, ModelConfig, ParamStore, TransformerStack, gather_in_order, make_decode_buckets,
    select_rows,
)
from .gnn import arc_groups, gnn_layer, init_gnn_layer, representation_change_ratio
from .tag import TAG, GraphError, TaskSample


class GofaModel:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        store = ParamStore(dtype=cfg.dtype)
        rng = np.random.default_rng(seed)
        self.compressor_stack = TransformerStack(store, "compressor", cfg, rng, with_final_norm=False)
        self.memory_tokens = store.add(
            "memory_tokens", rng.normal(0.0, EMBED_STD, (cfg.memory_tokens, cfg.d_model))
        )
        self.decoder_stack = TransformerStack(store, "decoder", cfg, rng, with_final_norm=True)
        self.gnn_params = {t: init_gnn_layer(store, f"gnn.{t}", cfg, rng) for t in cfg.gnn_layers}
        self.store = store
        self.compressor = Compressor(self.compressor_stack, self.memory_tokens)
        self.decoder = Decoder(self.decoder_stack)

    # -- parameters -----------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        return self.store.named()

    # -- encoding ---------------------------------------------------------------

    def encode_graphs(
        self,
        graphs: list[TAG],
        use_gnn: bool = True,
        capture_deltas: dict[int, list[float]] | None = None,
        collect_attention: list | None = None,
        rows: np.ndarray | None = None,
    ) -> tuple[Tensor, list[int]]:
        """Encode a batch of graphs as one disjoint union.

        Returns the [total_nodes, K, d] node-memory tensor and per-graph
        node offsets into it; with ``rows``, node rows of the union in any
        order, repeats allowed, the memories [len(rows), K, d] of those
        rows alone, bit-equal to the full encode's rows there.

        Only what the rows read is computed. From the arcs, the call works
        out the field of each layer t0..n, t0 = ``cfg.cache_point``: the
        sequences (node texts, then distinct edge texts) whose memory rows
        run it. The field of layer n is ``rows``, every sequence without
        them; below each GNN layer t it is the field of t+1 plus the source
        nodes and edge texts of every arc into it. The compressor runs each
        layer on its field (``Compressor.run``), and GNN layer t updates the
        nodes of the field of t+1 from the rows of the field of t.
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
        cfg = self.cfg
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        uid_arr = n_nodes + np.asarray(arc_text_uid, dtype=np.int64)
        gnn = use_gnn and bool(src) and bool(self.gnn_params)

        field = np.arange(n_nodes + len(edge_seqs)) if rows is None else np.unique(np.asarray(rows, dtype=np.int64))
        fields = {cfg.n_layers: field}
        for t in range(cfg.n_layers - 1, cfg.cache_point - 1, -1):
            if gnn and t in self.gnn_params:
                into = np.isin(dst_arr, field)
                field = np.union1d(field, np.concatenate([src_arr[into], uid_arr[into]]))
            fields[t] = field

        hook = None
        if gnn:
            groups = arc_groups(dst_arr, n_nodes)  # shared by every GNN layer

            def hook(mems: Tensor, layer_t: int) -> Tensor:
                held, updated = fields[layer_t], fields[layer_t + 1]
                # each field holds node rows first, then edge texts
                held_nodes = held[: np.searchsorted(held, n_nodes)]
                updated_nodes = updated[: np.searchsorted(updated, n_nodes)]
                arcs = np.flatnonzero(np.isin(dst_arr, updated_nodes))
                node_mem = mems[: len(held_nodes)]
                out = gnn_layer(
                    np.searchsorted(held_nodes, src_arr[arcs]), np.searchsorted(held_nodes, dst_arr[arcs]), node_mem,
                    gather_rows(mems, np.searchsorted(held, uid_arr[arcs])), self.gnn_params[layer_t], cfg,
                    collect_attention=collect_attention, groups=groups.within(held_nodes, updated_nodes, arcs),
                )
                if capture_deltas is not None:
                    before = select_rows(node_mem, np.searchsorted(held_nodes, updated_nodes))
                    capture_deltas.setdefault(layer_t, []).append(representation_change_ratio(out, before))
                if len(updated_nodes) == len(updated):
                    return out
                return concat([out, gather_rows(mems, np.searchsorted(held, updated[len(updated_nodes) :]))], axis=0)

        mems = self.compressor.run(node_seqs + edge_seqs, memory_hook=hook, fields=fields)
        if rows is None:
            return mems[:n_nodes], offsets
        return select_rows(mems, np.searchsorted(fields[cfg.n_layers], rows)), offsets

    # -- decoding ---------------------------------------------------------------

    @staticmethod
    def target_ids(text: str) -> list[int]:
        return tokenizer.encode(text) + [tokenizer.EOS_ID]

    def decoder_nll_per_target(self, memories: Tensor, targets: list[list[int]]) -> tuple[Tensor, np.ndarray]:
        """Each target's summed token NLL, one [T] tensor in target order,
        and its scored token count, an int array [T]. Per decode bucket, one
        ``head_cross_entropy`` op takes the final norm and the head over the
        scored rows of the teacher-forced rows alone."""
        cfg = self.cfg
        k = cfg.memory_tokens
        stack = self.decoder_stack
        buckets = make_decode_buckets(targets, cfg, cfg.dtype)
        totals, counts = [], np.zeros(len(targets), dtype=np.int64)
        for b in buckets:
            mem_rows = gather_rows(memories, b.indices)
            rows = self.decoder._forward_bucket(mem_rows, b, cfg)
            sb, lb = b.ids.shape
            # the position before each target token predicts it; pad columns score nothing
            n = b.window[:, 1:] - k
            labels = np.full((sb, k + lb), -100, dtype=np.int64)
            labels[:, k - 1 : k - 1 + lb] = np.where(np.arange(lb) < n, b.ids, -100)
            bucket_totals, counts[b.indices] = head_cross_entropy(rows, stack.final_norm, stack.embed, labels)
            totals.append(bucket_totals)
        return gather_in_order(totals, [b.indices for b in buckets]), counts

    def encode_targets(self, samples: list[TaskSample], use_gnn: bool = True) -> tuple[Tensor, list[list[int]]]:
        """Encode the samples' graphs as one batch, computing only what the
        NOG rows read (``encode_graphs(rows=...)``); return the NOG memory
        block of every generation target ([T, K, d], samples in order, then
        their targets in order) and each target's token ids."""
        offsets = np.cumsum([0] + [s.graph.n_nodes() for s in samples[:-1]])
        rows = np.asarray([base + t.nog for s, base in zip(samples, offsets.tolist()) for t in s.targets], dtype=np.int64)
        target_ids = [self.target_ids(t.target_text) for s in samples for t in s.targets]
        return self.encode_graphs([s.graph for s in samples], use_gnn=use_gnn, rows=rows)[0], target_ids

    def forward_batch(self, samples: list[TaskSample], use_gnn: bool = True):
        """Mean loss over every generation target of every sample.

        Returns (loss tensor, target count, total token count).
        """
        mems, target_ids = self.encode_targets(samples, use_gnn=use_gnn)
        if not target_ids:
            raise GraphError("forward_batch requires at least one generation target")
        nll, counts = self.decoder_nll_per_target(mems, target_ids)
        n_targets = len(target_ids)
        # mean over targets of each target's mean token NLL
        return (nll * (1.0 / (counts * n_targets))).sum(), n_targets, self.scored_tokens(target_ids)

    def scored_tokens(self, targets: list[list[int]]) -> int:
        """How many tokens of ``targets`` the decoder scores: the first
        ``cfg.max_text_len`` of each, as its decode bucket keeps them."""
        return sum(min(len(t), self.cfg.max_text_len) for t in targets)

    def generate(self, nog_memory: Tensor, max_new_tokens: int = 64) -> str:
        """Greedy decoding from a memory block until EOS or budget.

        The decoder keeps per-layer K/V for this call only, so each token
        after the first computes one decoder position. A budget above
        ``max_seq_len - memory_tokens``, the longest target the decoder is
        trained on, is a ``ValueError``."""
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        limit = self.cfg.max_text_len
        if max_new_tokens > limit:
            raise ValueError(f"max_new_tokens {max_new_tokens} exceeds max_seq_len - memory_tokens = {limit}")
        ids: list[int] = []
        with self.decoder.kv_cache():
            for _ in range(max_new_tokens):
                nxt = int(np.argmax(self.decoder.next_logits(nog_memory, ids)))
                if nxt == tokenizer.EOS_ID:
                    break
                ids.append(nxt)
        return tokenizer.decode(ids)

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
        config) where extras are entries not matching model parameters; a
        retired key off its constant is a ``CheckpointError`` (``without_retired``)."""
        tensors, config = load_checkpoint(path)
        if config is None or "model" not in config:
            raise ValueError(f"{path}: checkpoint lacks a model config chunk")
        cfg = ModelConfig.from_checkpoint(config["model"])
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
