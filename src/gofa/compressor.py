"""Decoder-only transformer layers processing text tokens plus trailing
memory slots.

Each input sequence is a node or edge text appended with K shared memory
tokens; causal attention lets the memory positions read the whole text, so
their final states compress the sentence into K fixed-size vectors. The
same layer machinery also powers the separate decoder stack that generates
target text from a memory prefix.

Sequences are grouped into length buckets; text tokens are left-padded so
memory slots always occupy the trailing K columns of a bucket. Each row's
real columns form one window that its attention keys are limited to, so
padding columns contribute exact zeros and a single-sequence call is
arithmetically identical however it is routed.

Compression runs in two phases split at the cache point ``min(gnn_layers)``
(the last layer without GNN layers). Up to it no hook has touched the
memory rows, so a text's rows are a function of the text alone: phase 1
computes them once per distinct token sequence of a call, or reads them
from a ``Compressor.text_cache()`` that keeps them across calls. Phase 2
runs the hooks and the remaining layers with memory rows per sequence and
text rows still per distinct text.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tokenizer
from .autodiff import Tensor, attention, concat, gather_rows, no_grad, rms_norm, rope, split_heads

log = logging.getLogger("gofa")

_BUCKET_STEPS = (0, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)


@dataclass
class ModelConfig:
    vocab_size: int = tokenizer.VOCAB_SIZE
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 6
    memory_tokens: int = 4
    gnn_layers: tuple[int, ...] = (3, 4, 5)
    max_seq_len: int = 128
    ff_mult: int = 4
    rope_base: float = 10000.0
    init_std: float | None = None  # interior projections; default 1/sqrt(d_model)
    embed_std: float = 0.02  # kept small so untrained logits stay near-uniform
    precision: str = "float64"

    def __post_init__(self):
        self.gnn_layers = tuple(sorted(self.gnn_layers))
        if self.init_std is not None and self.init_std <= 0:
            raise ValueError("init_std must be positive")
        if self.embed_std <= 0:
            raise ValueError("embed_std must be positive")
        if self.init_std is None:
            self.init_std = float(self.d_model) ** -0.5
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("head dimension must be even for rotary positions")
        bad = [t for t in self.gnn_layers if not 1 <= t <= self.n_layers - 1]
        if bad:
            raise ValueError(
                f"gnn_layers {bad} outside [1, {self.n_layers - 1}]; "
                "first and last layers must be transformer layers"
            )
        if self.memory_tokens < 1:
            raise ValueError("memory_tokens must be >= 1")
        if self.max_seq_len <= self.memory_tokens:
            raise ValueError("max_seq_len must exceed memory_tokens")
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"precision {self.precision!r} is neither 'float32' nor 'float64'")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64


class ParamStore:
    """Flat name -> Tensor registry; names must be unique."""

    def __init__(self, dtype=np.float64):
        self.params: dict[str, Tensor] = {}
        self.dtype = dtype

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(array, requires_grad=True, dtype=self.dtype)
        self.params[name] = t
        return t

    def named(self) -> dict[str, Tensor]:
        return dict(self.params)


class TransformerStack:
    """Embedding plus n_layers of pre-norm attention/feed-forward blocks."""

    def __init__(self, store: ParamStore, prefix: str, cfg: ModelConfig, rng, with_final_norm: bool):
        d, ff = cfg.d_model, cfg.d_model * cfg.ff_mult
        self.cfg = cfg
        self.prefix = prefix
        self.embed = store.add(f"{prefix}.embed", rng.normal(0.0, cfg.embed_std, (cfg.vocab_size, d)))
        self.layers = []
        for i in range(cfg.n_layers):
            p = f"{prefix}.layers.{i}"
            self.layers.append(
                {
                    "attn_norm": store.add(f"{p}.attn_norm", np.ones(d)),
                    "wq": store.add(f"{p}.wq", rng.normal(0.0, cfg.init_std, (d, d))),
                    "wk": store.add(f"{p}.wk", rng.normal(0.0, cfg.init_std, (d, d))),
                    "wv": store.add(f"{p}.wv", rng.normal(0.0, cfg.init_std, (d, d))),
                    "wo": store.add(f"{p}.wo", rng.normal(0.0, cfg.init_std, (d, d))),
                    "ff_norm": store.add(f"{p}.ff_norm", np.ones(d)),
                    "ff1": store.add(f"{p}.ff1", rng.normal(0.0, cfg.init_std, (d, ff))),
                    "ff2": store.add(f"{p}.ff2", rng.normal(0.0, cfg.init_std, (ff, d))),
                }
            )
        self.final_norm = store.add(f"{prefix}.final_norm", np.ones(d)) if with_final_norm else None


@lru_cache(maxsize=16)  # a few configurations per process; tables are read-only
def _rope_tables(n_pos: int, half: int, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rotations [n_pos, 2*half] of positions 0..n_pos-1 in the
    form ``autodiff.rope`` takes: cosines in both halves, sines negated in
    the first half."""
    inv = base ** (-np.arange(half, dtype=np.float64) * 2.0 / (2 * half))
    angles = np.arange(n_pos, dtype=np.float64)[:, None] * inv[None, :]
    cos, sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    tables = np.concatenate([cos, cos], axis=1), np.concatenate([-sin, sin], axis=1)
    for t in tables:
        t.flags.writeable = False
    return tables


def _rotation_tables(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every position a bucket of ``cfg`` can hold, pad
    columns of the longest decode bucket included."""
    k = cfg.memory_tokens
    return _rope_tables(_bucket_len(cfg.max_seq_len - k) + k, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)


class LayerKV:
    """Keys and values [S, H, n, dh] that one layer computed in earlier calls.

    ``extend`` appends one call's keys and values and returns all of them.
    With a ``capacity``, they are written into buffers of that many
    positions, allocated on the first ``extend``; the buffers are written in
    place, so no tape can flow through them and that form serves inference
    only. Without one, ``extend`` concatenates tensors, so gradients flow
    back into every call that contributed keys and values.
    """

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self.keys: np.ndarray | Tensor | None = None
        self.values: np.ndarray | Tensor | None = None
        self.n = 0

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions; return the keys and values of all of them."""
        if self.capacity is None:
            if self.n:
                k = concat([self.keys, k], axis=2)
                v = concat([self.values, v], axis=2)
            self.keys, self.values, self.n = k, v, k.shape[2]
            return k, v
        if k.requires_grad or v.requires_grad:
            raise ValueError("K/V caching runs without a tape; use no_grad()")
        if self.keys is None:
            s, h, _, dh = k.shape
            self.keys = np.empty((s, h, self.capacity, dh), dtype=k.dtype)
            self.values = np.empty((s, h, self.capacity, dh), dtype=v.dtype)
        end = self.n + k.shape[2]
        self.keys[:, :, self.n : end] = k.data
        self.values[:, :, self.n : end] = v.data
        self.n = end
        return (
            Tensor(self.keys[:, :, :end], dtype=self.keys.dtype),
            Tensor(self.values[:, :, :end], dtype=self.values.dtype),
        )


def _keys_values(xn: Tensor, p: dict, cfg: ModelConfig, cos: np.ndarray, sin: np.ndarray) -> tuple[Tensor, Tensor]:
    """Rotated keys and values [S, H, L, dh] of the normalised rows ``xn``."""
    return rope(split_heads(xn @ p["wk"], cfg.n_heads), cos, sin), split_heads(xn @ p["wv"], cfg.n_heads)


def layer_forward(
    x: Tensor, p: dict, cfg: ModelConfig, window: np.ndarray | None, cos: np.ndarray, sin: np.ndarray,
    kv: LayerKV | None = None,
) -> Tensor:
    """One pre-norm transformer block over [S, L, d].

    The rows of ``x`` are the last L key columns, and each attends causally;
    ``window`` [S, 2] further limits row s to the key columns
    ``window[s, 0] <= j < window[s, 1]`` (see ``autodiff.blocked_keys``).
    ``cos`` and ``sin`` rotate the rows of ``x``. With ``kv``, the keys and
    values of ``x`` are appended to the cached ones and the queries attend
    over all of them.
    """
    xn = rms_norm(x, p["attn_norm"])
    q = rope(split_heads(xn @ p["wq"], cfg.n_heads), cos, sin)
    k, v = _keys_values(xn, p, cfg, cos, sin)
    if kv is not None:
        k, v = kv.extend(k, v)
    x = x + attention(q, k, v, window) @ p["wo"]
    xn2 = rms_norm(x, p["ff_norm"])
    return x + (xn2 @ p["ff1"]).silu() @ p["ff2"]


# -- sequence bucketing -------------------------------------------------------


def _bucket_len(n: int) -> int:
    for step in _BUCKET_STEPS:
        if n <= step:
            return step
    return n


@dataclass
class _Bucket:
    indices: list[int]
    ids: np.ndarray  # [Sb, Lb] token ids, padded on the side away from the memory rows
    pos: np.ndarray  # [Sb, Lb + K] rotary position ids
    window: np.ndarray  # [Sb, 2] each row's real columns: first, one past the last
    text_len: int  # Lb


def _truncate(seq: list[int], limit: int, what: str, keep_head: bool = False) -> list[int]:
    """At most ``limit`` tokens of ``seq``: its last ones, or its first ones
    with ``keep_head``."""
    if len(seq) > limit:
        how = "dropping the tail" if keep_head else "truncating from the left"
        # the kind leads the message template, so log handlers can tell targets from texts
        log.warning(f"{what} length %d exceeds %d tokens; {how}", len(seq), limit)
        return seq[:limit] if keep_head else seq[-limit:]
    return seq


def _make_buckets(sequences: list[list[int]], cfg: ModelConfig, memory_first: bool) -> list[_Bucket]:
    """Group sequences by padded text length into [Sb, Lb + K] buckets.

    Compression puts the K memory rows after left-padded text; decoding
    (``memory_first``) puts them before right-padded text. Either way a
    row's text and memory rows form one unpadded block, its ``window``:
    positions count from its first column, and each query sees the keys of
    that block at or before it.

    A text too long for ``max_seq_len`` keeps its last tokens; a target
    keeps its first, so the memory rows always learn the answer's start.
    """
    k = cfg.memory_tokens
    what = "target" if memory_first else "node/edge text"
    seqs = [_truncate(list(s), cfg.max_seq_len - k, what, keep_head=memory_first) for s in sequences]
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        # a decode bucket always has target columns, even for an empty target
        groups.setdefault(_bucket_len(max(len(s), int(memory_first))), []).append(i)
    buckets = []
    for lb in sorted(groups):
        idxs = groups[lb]
        total = lb + k
        n = np.array([len(seqs[i]) for i in idxs], dtype=np.int64)
        start = np.zeros_like(n) if memory_first else lb - n
        ids = np.full((len(idxs), lb), tokenizer.PAD_ID, dtype=np.int64)
        for row, i in enumerate(idxs):
            ids[row, start[row] : start[row] + n[row]] = seqs[i]
        col = np.arange(total, dtype=np.int64) - start[:, None]  # [Sb, L], 0 at the block's first column
        window = np.stack([start, start + n + k], axis=1)
        buckets.append(_Bucket(idxs, ids, np.maximum(col, 0), window, lb))
    return buckets


def make_compress_buckets(sequences: list[list[int]], cfg: ModelConfig, dtype) -> list[_Bucket]:
    """Buckets of [left-padded text ; K memory rows]. A bucket holds integer
    arrays only, whatever the model's ``dtype``."""
    return _make_buckets(sequences, cfg, memory_first=False)


def make_decode_buckets(targets: list[list[int]], cfg: ModelConfig, dtype) -> list[_Bucket]:
    """Buckets of [K memory rows ; right-padded target tokens]. A bucket
    holds integer arrays only, whatever the model's ``dtype``."""
    return _make_buckets(targets, cfg, memory_first=True)


def _split_consts(bucket: _Bucket, cfg: ModelConfig):
    """Window, cos and sin of a compression bucket's text rows and of its
    memory rows, each indexed by bucket row on axis 0. Rows start at
    different columns, so each row reads its own positions' rotations."""
    cos_tab, sin_tab = _rotation_tables(cfg)
    cos, sin = cos_tab[bucket.pos][:, None], sin_tab[bucket.pos][:, None]
    lb = bucket.text_len
    w = bucket.window
    return (w, cos[:, :, :lb], sin[:, :, :lb]), (w, cos[:, :, lb:], sin[:, :, lb:])


def gather_in_order(per_bucket: list[Tensor], indices: list[list[int]]) -> Tensor:
    """Stack per-bucket rows back into original sequence order; bucket i
    holds the rows of sequences ``indices[i]``."""
    stacked = concat(per_bucket, axis=0) if len(per_bucket) > 1 else per_bucket[0]
    order = [i for idx in indices for i in idx]
    inverse = np.argsort(np.asarray(order, dtype=np.int64))
    return gather_rows(stacked, inverse)


@dataclass
class TextCache:
    """Each text's compressor state at the cache point, keyed by its token
    tuple: its real text rows [n, d] and its memory rows [K, d], before any
    hook. ``hits`` and ``misses`` count the distinct texts of each call
    found and not found; ``bytes`` is the size of every entry stored."""

    entries: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    bytes: int = 0


class Compressor:
    """Runs the transformer stack over node/edge texts, yielding memory
    embeddings; an optional hook rewrites the memory states after the
    configured interleave layers (this is where graph message passing
    plugs in)."""

    def __init__(self, stack: TransformerStack, memory_embedding: Tensor):
        self.stack = stack
        self.memory = memory_embedding
        self._cache: TextCache | None = None

    @property
    def frozen(self) -> bool:
        """True when no compressor parameter or memory token takes a gradient."""
        params = [self.memory, self.stack.embed] + [p for layer in self.stack.layers for p in layer.values()]
        return not any(p.requires_grad for p in params)

    @contextmanager
    def text_cache(self):
        """Keep every text's state at the cache point across ``run`` calls
        until the block exits, and read it back instead of recomputing it;
        yields the ``TextCache``, which is emptied on exit. An entry is a
        function of the text only while the compressor does not change, so
        the block opens only on a ``frozen`` compressor, and no parameter
        of it may be changed while it is open."""
        if not self.frozen:
            raise ValueError("the text cache needs a frozen compressor; switch off requires_grad first")
        outer = self._cache
        self._cache = cache = TextCache()
        try:
            yield cache
        finally:
            self._cache = outer
            cache.entries.clear()

    def run(self, sequences: list[list[int]], memory_hook=None) -> Tensor:
        """Compress token sequences to a [S, K, d] memory tensor.

        Each bucket runs as two tensors: the text rows [S, Lb, d] attending
        causally within their windows, and the memory rows [S, K, d] as a K-position
        extension that attends to the layer's text keys and values plus its
        own. Causal attention keeps text rows independent of memory rows, so
        the split computes what one [text; memory] tensor per bucket would,
        up to the order in which a softmax row's terms are summed. Text rows
        carry a tape only when the compressor itself is trained, and the last
        layer computes only their keys and values.

        Phase 1 runs layers 1..t0, ``t0 = min(cfg.gnn_layers)`` (all layers
        without GNN layers), once per distinct sequence, skipping the ones
        an open ``text_cache()`` holds. Phase 2 gives every sequence its own
        memory rows, reading its text's keys and values, and runs the hook
        at t0 and layers t0+1..n. A text's rows do not depend on the other
        texts of its bucket, so either phase gives each sequence the bits it
        would get alone.

        ``memory_hook(mems, layer_idx)`` may return a replacement [S, K, d]
        tensor after each layer listed in ``cfg.gnn_layers``.
        """
        cfg = self.stack.cfg
        t0 = min(cfg.gnn_layers, default=cfg.n_layers)
        keys = [tuple(s) for s in sequences]
        distinct = list(dict.fromkeys(keys))
        buckets = make_compress_buckets(distinct, cfg, cfg.dtype)
        slot = {distinct[u]: (i, row) for i, b in enumerate(buckets) for row, u in enumerate(b.indices)}
        members: list[list[int]] = [[] for _ in buckets]  # the sequences of each bucket
        owners: list[list[int]] = [[] for _ in buckets]  # the bucket row of each one's text
        for s, key in enumerate(keys):
            i, row = slot[key]
            members[i].append(s)
            owners[i].append(row)
        texts, mems, consts = [], [], []
        for b, owner in zip(buckets, owners):
            text_consts, mem_consts = _split_consts(b, cfg)
            text, mem = self._state_at(t0, b, [distinct[u] for u in b.indices], text_consts, mem_consts)
            rows = None if owner == list(range(len(b.indices))) else np.asarray(owner, dtype=np.int64)
            if rows is not None:
                mem = gather_rows(mem, rows)
                mem_consts = tuple(c[rows] for c in mem_consts)
            texts.append(text)
            mems.append(mem)
            consts.append((text_consts, mem_consts, rows))
        for t in range(t0, cfg.n_layers + 1):
            if t > t0:
                for i, c in enumerate(consts):
                    texts[i], mems[i] = self._layer(t, texts[i], mems[i], *c)
            if memory_hook is not None and t in cfg.gnn_layers:
                ordered = gather_in_order(mems, members)
                new_mems = memory_hook(ordered, t)
                if new_mems is not ordered:
                    mems = [gather_rows(new_mems, m) for m in members]
        return gather_in_order(mems, members)

    def _state_at(self, t0: int, bucket: _Bucket, keys: list[tuple[int, ...]], text_consts, mem_consts):
        """Phase 1 for one bucket of distinct texts: their text rows (None
        without text columns) and memory rows at the output of layer ``t0``,
        read from the open cache or computed and stored there."""
        cfg = self.stack.cfg
        k, d = cfg.memory_tokens, cfg.d_model
        cache = self._cache
        table = cache.entries if cache is not None else {}
        lb = bucket.text_len
        miss = [row for row, key in enumerate(keys) if key not in table]
        text = mem = None
        if miss:
            sb = len(miss)
            if lb:
                text = gather_rows(self.stack.embed, bucket.ids[miss].reshape(-1)).reshape(sb, lb, d)
            mem = self.memory.reshape(1, k, d).broadcast_to((sb, k, d))
            sub_text = tuple(c[miss] for c in text_consts)
            sub_mem = tuple(c[miss] for c in mem_consts)
            for t in range(1, t0 + 1):
                text, mem = self._layer(t, text, mem, sub_text, sub_mem)
        if cache is not None:
            cache.hits += len(keys) - len(miss)
            cache.misses += len(miss)
            for j, row in enumerate(miss):
                n = min(len(keys[row]), cfg.max_seq_len - k)
                entry = (text.data[j, lb - n :].copy() if lb else np.zeros((0, d), cfg.dtype), mem.data[j].copy())
                table[keys[row]] = entry
                cache.bytes += entry[0].nbytes + entry[1].nbytes
        if len(miss) == len(keys):
            return text, mem
        # some rows come from the cache, so nothing here carries a tape; pad rows
        # are zeros, which masked attention never reads
        text_rows = np.zeros((len(keys), lb, d), dtype=cfg.dtype)
        mem_rows = np.empty((len(keys), k, d), dtype=cfg.dtype)
        for row, key in enumerate(keys):
            real, mem_rows[row] = table[key]
            text_rows[row, lb - len(real) :] = real
        return (Tensor(text_rows, dtype=cfg.dtype) if lb else None), Tensor(mem_rows, dtype=cfg.dtype)

    def _layer(self, t: int, text, mem: Tensor, text_consts, mem_consts, rows=None):
        """Layer ``t`` over one bucket's text rows [m, Lb, d] (None without
        text columns) and memory rows [S, K, d]; memory row j reads the keys
        and values of text row ``rows[j]``, or of row j without ``rows``."""
        cfg = self.stack.cfg
        layer = self.stack.layers[t - 1]
        kv = LayerKV()
        if text is not None:
            if t < cfg.n_layers:
                text = layer_forward(text, layer, cfg, *text_consts, kv)
            else:
                # nothing reads the last layer's text rows but the memory rows' attention
                _, cos, sin = text_consts
                kv.extend(*_keys_values(rms_norm(text, layer["attn_norm"]), layer, cfg, cos, sin))
            if rows is not None:
                kv.keys, kv.values = gather_rows(kv.keys, rows), gather_rows(kv.values, rows)
        return text, layer_forward(mem, layer, cfg, *mem_consts, kv)


class _DecodeState:
    """Per-layer K/V of one memory block followed by the prefix tokens
    decoded after it, with RoPE tables for every position a window can use."""

    def __init__(self, cfg: ModelConfig, n_layers: int):
        cos, sin = _rotation_tables(cfg)
        self.cos, self.sin = cos[None, None], sin[None, None]
        self.layers = [LayerKV(cfg.max_seq_len) for _ in range(n_layers)]
        self.memory: Tensor | None = None
        self.prefix: list[int] = []
        self.truncated = False  # a window was cut; warn only once per cache

    def extends(self, memory: Tensor, prefix: list[int]) -> bool:
        """True when ``prefix`` is the cached prefix plus one token for the
        cached memory block."""
        n = len(self.prefix)
        return memory is self.memory and len(prefix) == n + 1 and list(prefix[:n]) == self.prefix

    def reset(self, memory: Tensor, prefix: list[int]) -> None:
        self.memory = memory
        self.prefix = list(prefix)
        for kv in self.layers:
            kv.n = 0


class Decoder:
    """Generates target text conditioned on a K-slot memory prefix."""

    def __init__(self, stack: TransformerStack):
        self.stack = stack
        if stack.final_norm is None:
            raise ValueError("decoder stack requires a final norm")
        self._state: _DecodeState | None = None

    def _forward_bucket(self, mem_rows: Tensor, bucket: _Bucket, cfg: ModelConfig):
        d = cfg.d_model
        sb, lb = bucket.ids.shape
        emb = gather_rows(self.stack.embed, bucket.ids.reshape(-1)).reshape(sb, lb, d)
        x = concat([mem_rows, emb], axis=1) if lb else mem_rows
        # every decode row starts at column 0, so positions are columns
        cos_tab, sin_tab = _rotation_tables(cfg)
        total = lb + cfg.memory_tokens
        cos, sin = cos_tab[None, None, :total], sin_tab[None, None, :total]
        for layer in self.stack.layers:
            x = layer_forward(x, layer, cfg, bucket.window, cos, sin)
        xn = rms_norm(x, self.stack.final_norm)
        return xn @ self.stack.embed.swapaxes(0, 1)

    @contextmanager
    def kv_cache(self):
        """Let ``next_logits`` keep per-layer K/V between calls until the
        block exits; ``GofaModel.generate`` holds one per answer."""
        outer = self._state
        self._state = _DecodeState(self.stack.cfg, len(self.stack.layers))
        try:
            yield
        finally:
            self._state = outer

    def next_logits(self, memory: Tensor, prefix: list[int]) -> np.ndarray:
        """Logits for the next token given one memory block and generated ids.

        Inside ``kv_cache()``, a prefix that extends the previous call's by
        one token, for the same memory block, runs only that token's
        position against the cached K/V. Every other call prefills memory
        plus prefix (its last ``max_seq_len - K`` tokens) from scratch; the
        left truncation is logged once per ``kv_cache()`` block.
        """
        cfg = self.stack.cfg
        k, d = cfg.memory_tokens, cfg.d_model
        state = self._state
        with no_grad():
            if state is not None and k + len(prefix) <= cfg.max_seq_len and state.extends(memory, prefix):
                state.prefix.append(prefix[-1])
                pos = k + len(prefix) - 1
                x = gather_rows(self.stack.embed, prefix[-1:]).reshape(1, 1, d)
                cos, sin = state.cos[:, :, pos : pos + 1], state.sin[:, :, pos : pos + 1]
            else:
                if state is None:
                    state = _DecodeState(cfg, len(self.stack.layers))
                state.reset(memory, prefix)
                limit = cfg.max_seq_len - k
                if state.truncated:
                    window = list(prefix[-limit:])
                else:
                    window = _truncate(list(prefix), limit, "target")
                    state.truncated = len(window) < len(prefix)
                x = memory.reshape(1, k, d)
                if window:
                    x = concat([x, gather_rows(self.stack.embed, window).reshape(1, len(window), d)], axis=1)
                total = k + len(window)
                cos, sin = state.cos[:, :, :total], state.sin[:, :, :total]
            for layer, kv in zip(self.stack.layers, state.layers):
                x = layer_forward(x, layer, cfg, None, cos, sin, kv)
            xn = rms_norm(x[:, -1:, :], self.stack.final_norm)
            return (xn @ self.stack.embed.swapaxes(0, 1)).data[0, 0]
