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

Compression runs in two phases split at the cache point ``t0 =
min(gnn_layers)`` (the last layer without GNN layers). Only memory rows
pass through the hooks, and causal attention keeps text rows from reading
memory rows, so a text's rows at every layer are a function of the text
alone. Each distinct token sequence of a call runs once: phase 1 runs
layers 1..t0, and phase 2 the hooks and the layers after t0, with memory
rows per sequence that read their text's keys and values.

Texts of equal length in a bucket also run the rows of their shared
leading tokens once (``_share_prefixes``): a representative runs all its
rows, and a text that shares a prefix with it runs only the rows after
it, reading the representative's keys and values for the prefix columns.
Only equal lengths share: their left pad is the same, so a shared token
sits at the same column and rotary position and falls in the same
attention tile, and each row computes what it would without sharing. No
member call and no attention tile of one may hold exactly one row: numpy
runs a one-row product through another BLAS kernel than the rows of a
longer one, with other bits, so such a member starts a column earlier.
Members that start in the same attention tile run as one call from the
earliest of their columns. A text's rows therefore do not depend on which
texts share its batch.

A ``Compressor.text_cache()`` keeps what the memory rows need of a text:
its memory rows at t0 and its text rows at the input of each layer after
t0. A call buckets its distinct texts once. The texts of a bucket that
the cache lacks run through the layers once, as a row subset of that
bucket that shares prefixes within itself, to fill their entries; from
then on each layer rebuilds a text's keys and values from the cached
rows, and only memory rows run through layers.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tokenizer
from .autodiff import (
    _TILE, Tensor, _query_tiles, attention, concat, gather_rows, no_grad, rms_norm, rope, split_heads,
)

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
        if self.vocab_size < tokenizer.VOCAB_SIZE:
            raise ValueError(f"vocab_size {self.vocab_size} is below the tokenizer's {tokenizer.VOCAB_SIZE} ids")
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


@lru_cache(maxsize=16)
def _rope_matrices(n_pos: int, half: int, base: float, dtype) -> np.ndarray:
    """Read-only rotations [n_pos, 2*half, 2*half] of ``_rope_tables`` as
    matrices: a row vector times entry i is ``autodiff.rope`` of it at
    position i. Column j holds the cosine on the diagonal and the sine in
    the row of j's partner in the other half."""
    cos, sin = _rope_tables(n_pos, half, base, dtype)
    cols = np.arange(2 * half)
    rot = np.zeros((n_pos, 2 * half, 2 * half), dtype=dtype)
    rot[:, cols, cols] = cos
    rot[:, np.roll(cols, half), cols] = sin
    rot.flags.writeable = False
    return rot


def _rotation_tables(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every position a bucket of ``cfg`` can hold, pad
    columns of the longest decode bucket included."""
    k = cfg.memory_tokens
    return _rope_tables(_bucket_len(cfg.max_seq_len - k) + k, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)


def _rotation_matrices(cfg: ModelConfig) -> np.ndarray:
    """The rotation matrices of the positions of ``_rotation_tables``."""
    n_pos = len(_rotation_tables(cfg)[0])
    return _rope_matrices(n_pos, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)


class LayerKV:
    """Keys and values that one layer computed in earlier calls.

    Without a ``capacity``, ``extend`` appends one call's key and value
    tensors [S, H, n, dh] and returns all of them, so gradients flow back
    into every call that contributed keys and values.

    With a ``capacity``, it is the inference cache of one sequence, which
    ``layer_forward`` steps on arrays without a tape (``_cached_layer``):
    ``fill`` copies the first key columns of a prefill's taped cache into
    buffers [H, capacity, dh], and every step writes one more column. The
    layer's step arrays (``_step_weights``: its weights with the norm gains
    and the score scale folded in) are made on the first step and kept as
    long as the cache is, so the layer's weights must not change meanwhile.
    """

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self.keys: np.ndarray | Tensor | None = None
        self.values: np.ndarray | Tensor | None = None
        self.weights: tuple | None = None
        self.n = 0

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions; return the keys and values of all of them."""
        if self.n:
            k = concat([self.keys, k], axis=2)
            v = concat([self.values, v], axis=2)
        self.keys, self.values, self.n = k, v, k.shape[2]
        return k, v

    def fill(self, taped: "LayerKV", n: int) -> None:
        """Start the inference cache from the first ``n`` key columns of
        ``taped``, the cache a one-sequence tape pass extended."""
        keys, values = taped.keys.data[0], taped.values.data[0]
        self.keys = np.empty((keys.shape[0], self.capacity, keys.shape[2]), dtype=keys.dtype)
        self.values = np.empty_like(self.keys)
        self.keys[:, :n], self.values[:, :n], self.n = keys[:, :n], values[:, :n], n


def _keys_values(xn: Tensor, p: dict, cfg: ModelConfig, cos: np.ndarray, sin: np.ndarray) -> tuple[Tensor, Tensor]:
    """Rotated keys and values [S, H, L, dh] of the normalised rows ``xn``."""
    return rope(split_heads(xn @ p["wk"], cfg.n_heads), cos, sin), split_heads(xn @ p["wv"], cfg.n_heads)


def layer_forward(
    x: Tensor | np.ndarray, p: dict, cfg: ModelConfig, window: np.ndarray | None, cos: np.ndarray, sin: np.ndarray,
    kv: LayerKV | None = None,
) -> Tensor | np.ndarray:
    """One pre-norm transformer block over [S, L, d].

    The rows of ``x`` are the last L key columns, and each attends causally;
    ``window`` [S, 2] further limits row s to the key columns
    ``window[s, 0] <= j < window[s, 1]`` (see ``autodiff.blocked_keys``).
    ``cos`` and ``sin`` rotate the rows of ``x``. With ``kv``, the keys and
    values of ``x`` are appended to the cached ones and the queries attend
    over all of them. When ``kv`` is the inference cache (a ``LayerKV`` with
    a capacity), ``x`` is one new position [1, 1, d] as an array, ``window``
    is None, ``cos`` is that position's rotation matrix [dh, dh] (from
    ``_rotation_matrices``), ``sin`` is None, and the step runs without a
    tape (``_cached_layer``).

    Attention runs the rows in tiles that end at every 32nd key column and
    reads only the keys before a tile's end (``autodiff.attention``). The
    tiles depend on L and the key count alone, so a row's output does not
    depend on the other rows of its bucket.
    """
    if kv is not None and kv.capacity is not None:
        return _cached_layer(x, p, cfg, window, cos, sin, kv)
    xn = rms_norm(x, p["attn_norm"])
    q = rope(split_heads(xn @ p["wq"], cfg.n_heads), cos, sin)
    k, v = _keys_values(xn, p, cfg, cos, sin)
    if kv is not None:
        k, v = kv.extend(k, v)
    x = x + attention(q, k, v, window) @ p["wo"]
    xn2 = rms_norm(x, p["ff_norm"])
    return x + (xn2 @ p["ff1"]).silu() @ p["ff2"]


def _rms_scale(row: np.ndarray, eps: float = 1e-6) -> float:
    """The reciprocal root-mean-square of one row [d] that ``rms_norm``
    scales it by, on Python floats."""
    return 1.0 / math.sqrt(float(row @ row) / row.shape[0] + eps)


def _step_weights(p: dict, cfg: ModelConfig) -> tuple[np.ndarray, ...]:
    """The arrays of the one-row step of layer ``p``: ``[wq | wk | wv]``
    [d, 3d] with the score scale 1/sqrt(dh) folded into the ``wq`` columns
    and ``attn_norm`` into the rows, ``wo``, ``ff1`` with ``ff_norm``
    folded into the rows, and ``ff2``."""
    qkv = np.concatenate([p["wq"].data * (1.0 / math.sqrt(cfg.head_dim)), p["wk"].data, p["wv"].data], axis=1)
    qkv *= p["attn_norm"].data[:, None]
    return qkv, p["wo"].data, p["ff_norm"].data[:, None] * p["ff1"].data, p["ff2"].data


def _cached_layer(
    x: np.ndarray, p: dict, cfg: ModelConfig, window: np.ndarray | None, rot: np.ndarray, sin: None,
    kv: LayerKV,
) -> np.ndarray:
    """``layer_forward`` of one new position against the inference cache
    ``kv``, on arrays. With the constants folded into the cache's step
    arrays (``_step_weights``), each norm is one scale on Python floats and
    the projection through ``[wq | wk | wv]`` yields the scaled query; one
    product with the rotation matrix ``rot`` rotates the query and key
    together, the key and value go straight into the buffers, and the
    softmax of the one query's scores, with no tiles or mask, divides the
    [H, 1, dh] output by its row sums rather than the probabilities. This
    is the tape ops' arithmetic in another order, so results differ from
    teacher forcing by rounding alone."""
    if isinstance(x, Tensor):
        raise ValueError("the K/V cache runs on arrays, without a tape; pass x.data")
    if x.shape[:2] != (1, 1) or window is not None or sin is not None:
        raise ValueError(
            f"the K/V cache steps one position [1, 1, d] with its rotation matrix, without a window or sin, "
            f"not {x.shape}; prefill with fill()"
        )
    if kv.weights is None:
        kv.weights = _step_weights(p, cfg)
    qkv_w, wo, ff1, ff2 = kv.weights
    h, n = cfg.n_heads, kv.n + 1
    row = x.reshape(-1)
    qkv = ((row * _rms_scale(row)) @ qkv_w).reshape(3 * h, cfg.head_dim)
    qk = qkv[: 2 * h] @ rot
    kv.keys[:, kv.n] = qk[h:]
    kv.values[:, kv.n] = qkv[2 * h :]
    kv.n = n
    att = qk[:h, None] @ kv.keys[:, :n].swapaxes(-1, -2)  # [H, 1, n]
    att -= np.maximum.reduce(att, axis=-1, keepdims=True)
    np.exp(att, out=att)
    out = att @ kv.values[:, :n]
    out /= np.add.reduce(att, axis=-1, keepdims=True)
    row = row + out.reshape(-1) @ wo
    hidden = (row * _rms_scale(row)) @ ff1
    hidden /= 1.0 + np.exp(-hidden)  # silu
    return (row + hidden @ ff2).reshape(x.shape)


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
    limit = cfg.max_seq_len - k
    longest = max(map(len, sequences), default=0)
    if longest > limit:
        what, how = ("target", "dropping the tail") if memory_first else ("node/edge text", "truncating from the left")
        n_long = sum(len(s) > limit for s in sequences)
        # the kind leads the message template, so log handlers can tell targets from texts
        log.warning(f"{what} length exceeds %d tokens in %d of %d sequences (longest %d); {how}",
                    limit, n_long, len(sequences), longest)
    seqs = [list(s[:limit]) if memory_first else list(s[-limit:]) for s in sequences]
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        groups.setdefault(_bucket_len(len(s)), []).append(i)
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


@dataclass
class _Part:
    """Rows of a compression bucket that run through the layers together:
    the representatives, every column of them, or members that share the
    columns before ``start`` with a representative and run only the rest."""

    rows: np.ndarray  # bucket rows
    start: int  # the first column it runs; 0 for the representatives
    source: np.ndarray | None  # per row, the representative (a row of the first part) it reads keys from
    consts: tuple  # window, cos and sin of its rows and columns


def _first_run_column(column: int, lb: int) -> int:
    """The first column a member runs when its text first differs from its
    representative's at ``column``: earlier while the member's first
    attention tile (and with it the whole call, at the bucket's end) would
    hold one row. A one-row product takes another BLAS kernel than the rows
    of a longer one, whose bits it would not match."""
    while True:
        r0, r1, _ = _query_tiles(lb - column, lb)[0]
        if r1 - r0 > 1:
            return column
        column -= 1


def _share_prefixes(ids: np.ndarray, text_consts) -> list[_Part]:
    """Split the text rows [m, Lb] of a compression bucket (``text_consts``
    from ``_split_consts``) into the parts they run as: the representatives
    first, then the members, one part per attention tile they start in.

    Texts that start at the same column have the same pad, so a token they
    share sits at the same column and position, sees the same keys and
    falls in the same attention tile. A text joins the representative of
    its start column with which it shares the most leading tokens; it would
    run from its first differing column on (``_first_run_column``), reading
    the representative's keys and values before it. A text that would save
    no row becomes a representative. Members whose first columns fall in
    the same tile run together from the earliest of them, so a bucket makes
    at most one member call per tile. A member then recomputes fewer than a
    tile of rows: rows it shares, with the representative's bits, or pad
    rows of a shorter text, which its window hides from every real row."""
    window, cos, sin = text_consts
    lb = ids.shape[1]
    reps: dict[int, list[int]] = {}  # representative rows by start column
    index: dict[int, int] = {}  # a representative row's place in the first part
    members: dict[int, list[tuple[int, int, int]]] = {}  # (row, representative, first column) by tile
    for row, start in enumerate(window[:, 0].tolist()):
        candidates = reps.setdefault(start, [])
        first = start
        if candidates:
            differ = (ids[candidates] != ids[row]).argmax(axis=1)  # distinct texts differ somewhere
            best = int(differ.argmax())
            first = max(start, _first_run_column(int(differ[best]), lb))
        if first == start:
            index[row] = len(index)
            candidates.append(row)
        else:
            members.setdefault(first // _TILE, []).append((row, candidates[best], first))

    def part(rows: list[int], start: int, source) -> _Part:
        return _Part(np.asarray(rows, dtype=np.int64), start, source,
                     (window[rows], cos[rows][:, :, start:], sin[rows][:, :, start:]))

    parts = [part(list(index), 0, None)]
    for tile in sorted(members):
        rows, sources, firsts = zip(*members[tile])
        parts.append(part(list(rows), min(firsts), np.asarray([index[r] for r in sources], dtype=np.int64)))
    return parts


def _part_order(parts: list[_Part]) -> np.ndarray:
    """The bucket rows of ``parts`` in the order they run."""
    return np.concatenate([p.rows for p in parts])


def _unless_identity(rows: np.ndarray) -> np.ndarray | None:
    """``rows``, or None when it selects every row in order."""
    return None if np.array_equal(rows, np.arange(len(rows))) else rows


def gather_in_order(per_bucket: list[Tensor], indices: list[list[int]]) -> Tensor:
    """Stack per-bucket rows back into original sequence order; bucket i
    holds the rows of sequences ``indices[i]``."""
    stacked = concat(per_bucket, axis=0) if len(per_bucket) > 1 else per_bucket[0]
    order = [i for idx in indices for i in idx]
    inverse = np.argsort(np.asarray(order, dtype=np.int64))
    return gather_rows(stacked, inverse)


@dataclass
class TextCache:
    """What the memory rows of each text read after the cache point t0,
    keyed by its token tuple: its real text rows at the inputs of layers
    t0+1..n, one [n_layers - t0, n, d] array, and its memory rows [K, d] at
    the output of layer t0, before any hook. ``hits`` and ``misses`` count
    the distinct texts of each call found and not found; ``bytes`` is the
    size of every entry stored."""

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
        """Keep what each text's memory rows read after the cache point (a
        ``TextCache`` entry) across ``run`` calls until the block exits, and
        read it back instead of recomputing it;
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

        Each bucket runs as text rows attending causally within their
        windows, and the memory rows [S, K, d] as a K-position extension
        that attends to the layer's text keys and values plus its own.
        Causal attention keeps text rows independent of memory rows, so the
        split computes what one [text; memory] tensor per bucket would, up
        to the order in which a softmax row's terms are summed. Text rows
        carry a tape only when the compressor itself is trained, and the
        last layer computes only their keys and values.

        Phase 1 runs layers 1..t0, ``t0 = min(cfg.gnn_layers)`` (all layers
        without GNN layers), once per distinct sequence. Phase 2 gives every
        sequence its own memory rows and runs the hook at t0 and layers
        t0+1..n, text rows still once per distinct text. The distinct
        texts are bucketed once per call, and a text that shares leading
        tokens with an equally long one runs only the rows after them
        (``_share_prefixes``). With a ``text_cache()`` open, the texts of
        each bucket that it does not hold yet first run once, as the subset
        of the bucket's rows and constants that holds them, and are stored:
        their text rows through layers 1..n-1, their memory rows through
        layers 1..t0. Then every text is read from the cache: phase 1
        computes nothing, and in phase 2 each layer's text keys and values
        are rebuilt from the cached rows and only memory rows run. A text's
        rows do not depend on the other texts of its bucket, so every path
        gives each sequence the bits it would get alone.

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
            owner = np.asarray(owner, dtype=np.int64)
            if self._cache is not None:
                b_keys = [distinct[u] for u in b.indices]
                self._fill_cache(t0, b, b_keys, text_consts, mem_consts)
                text, mem = self._cached_state(t0, b, b_keys, text_consts)
                parts, rows = None, owner
            else:
                text, mem, parts = self._state_at(t0, b.ids, text_consts, mem_consts)
                rows = np.argsort(_part_order(parts))[owner]  # each sequence's text in the run order
            rows = _unless_identity(rows)
            if rows is not None:
                mem = gather_rows(mem, rows)
            if _unless_identity(owner) is not None:
                mem_consts = tuple(c[owner] for c in mem_consts)
            texts.append(text)
            mems.append(mem)
            consts.append((parts, mem_consts, rows))
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

    def _state_at(self, t0: int, ids: np.ndarray, text_consts, mem_consts):
        """Phase 1 for the bucket rows of distinct texts ``ids`` [m, Lb]:
        the parts they run as (``_share_prefixes``), the text rows of each
        part (None without text columns) and the memory rows, in the order
        of the parts' rows, at the output of layer ``t0``."""
        cfg = self.stack.cfg
        k, d = cfg.memory_tokens, cfg.d_model
        sb, lb = ids.shape
        parts = _share_prefixes(ids, text_consts)
        text = None
        if lb:
            embed = self.stack.embed
            text = [gather_rows(embed, ids[p.rows, p.start :].reshape(-1)).reshape(len(p.rows), lb - p.start, d) for p in parts]
        mem_consts = tuple(c[_part_order(parts)] for c in mem_consts)
        mem = self.memory.reshape(1, k, d).broadcast_to((sb, k, d))
        for t in range(1, t0 + 1):
            text, mem = self._layer(t, text, mem, parts, mem_consts)
        return text, mem, parts

    def _fill_cache(self, t0: int, bucket: _Bucket, keys: list[tuple[int, ...]], text_consts, mem_consts) -> None:
        """Store each text of ``bucket`` (``keys``, one per row) that the
        open cache does not hold yet: its real text rows at the inputs of
        layers t0+1..n and its memory rows at the output of layer ``t0``.
        The missing texts run as the subset of the bucket's rows and
        constants that holds them."""
        cfg = self.stack.cfg
        cache = self._cache
        rows = [row for row, key in enumerate(keys) if key not in cache.entries]
        cache.hits += len(keys) - len(rows)
        cache.misses += len(rows)
        if not rows:
            return
        text_consts, mem_consts = (tuple(c[rows] for c in consts) for consts in (text_consts, mem_consts))
        text, mem, parts = self._state_at(t0, bucket.ids[rows], text_consts, mem_consts)
        lb = bucket.text_len
        starts = bucket.window[rows, 0]  # each text's first real column
        stored = [np.empty((cfg.n_layers - t0, lb - start, cfg.d_model), dtype=cfg.dtype) for start in starts]
        full = np.empty((len(rows), lb, cfg.d_model), dtype=cfg.dtype)
        for t in range(t0 + 1, cfg.n_layers + 1) if lb else ():
            for p, x in zip(parts, text):  # the first part, the representatives, fills first
                if p.start:
                    full[p.rows, : p.start] = full[parts[0].rows[p.source], : p.start]
                full[p.rows, p.start :] = x.data
            for text_rows, start, x in zip(stored, starts, full):
                text_rows[t - t0 - 1] = x[start:]  # the rows at the input of layer t
            if t < cfg.n_layers:
                text = self._text_layer(t, text, parts)[0]
        for row, m in zip(_part_order(parts), mem.data):
            cache.entries[keys[rows[row]]] = stored[row], m.copy()
            cache.bytes += stored[row].nbytes + m.nbytes

    def _cached_state(self, t0: int, bucket: _Bucket, keys: list[tuple[int, ...]], text_consts):
        """Phase 1 for one bucket of texts the open cache holds: an iterator
        over the keys and values [m, H, Lb, dh] of their text rows at layers
        t0+1..n, one pair per layer rebuilt from the cached rows (None
        without text columns), and their memory rows at the output of layer
        ``t0``. Pad rows are zeros, which masked attention never reads."""
        cfg = self.stack.cfg
        m, lb = bucket.ids.shape
        text = np.zeros((cfg.n_layers - t0, m, lb, cfg.d_model), dtype=cfg.dtype)
        mem = np.empty((m, cfg.memory_tokens, cfg.d_model), dtype=cfg.dtype)
        for row, key in enumerate(keys):
            real, mem[row] = self._cache.entries[key]
            text[:, row, lb - real.shape[1] :] = real
        _, cos, sin = text_consts
        # built as each layer asks, while the memory rows that read them are about to run
        kvs = (
            _keys_values(rms_norm(Tensor(x, dtype=cfg.dtype), layer["attn_norm"]), layer, cfg, cos, sin)
            for x, layer in zip(text, self.stack.layers[t0:])
        )
        return (kvs if lb else None), Tensor(mem, dtype=cfg.dtype)

    def _text_layer(self, t: int, text: list[Tensor], parts: list[_Part]) -> tuple[list[Tensor], list[LayerKV]]:
        """Layer ``t`` over the text rows of each of ``parts``: their rows
        for layer t+1 (none after the last layer, which computes only keys
        and values) and, per part, the keys and values of all Lb columns of
        its rows, a member's first columns read from its representative."""
        cfg = self.stack.cfg
        layer = self.stack.layers[t - 1]
        out, kvs = [], []
        for p, x in zip(parts, text):
            kv = LayerKV()
            if p.source is not None:
                reps = kvs[0]
                kv.extend(gather_rows(reps.keys, p.source)[:, :, : p.start], gather_rows(reps.values, p.source)[:, :, : p.start])
            if t < cfg.n_layers:
                out.append(layer_forward(x, layer, cfg, *p.consts, kv))
            else:
                kv.extend(*_keys_values(rms_norm(x, layer["attn_norm"]), layer, cfg, *p.consts[1:]))
            kvs.append(kv)
        return out, kvs

    def _layer(self, t: int, text, mem: Tensor, parts: list[_Part] | None, mem_consts, rows=None):
        """Layer ``t`` over one bucket's text rows and memory rows [S, K, d];
        memory row j reads the keys and values of text ``rows[j]``, or of
        text j without ``rows``, counting texts in the order they run: that
        of ``parts``' rows, or bucket order for cached texts (``parts``
        None). ``text`` is None without text columns, the text rows of each
        part at the layer's input, or, for cached texts, the iterator over
        the keys and values of layers t..n, whose next pair is this layer's.
        Returns the text for layer t+1 in the same form, and the memory
        rows."""
        cfg = self.stack.cfg
        layer = self.stack.layers[t - 1]
        kv = LayerKV()
        if text is not None:
            if parts is None:
                k, v = next(text)
            else:
                text, kvs = self._text_layer(t, text, parts)
                k, v = kvs[0].keys, kvs[0].values
                if len(kvs) > 1:
                    k, v = concat([x.keys for x in kvs], axis=0), concat([x.values for x in kvs], axis=0)
            if rows is not None:
                k, v = gather_rows(k, rows), gather_rows(v, rows)
            kv.extend(k, v)
        return text, layer_forward(mem, layer, cfg, *mem_consts, kv)


class _DecodeState:
    """The inference K/V of each decoder layer for one memory block and the
    prefix decoded after it, with the rotation matrix of every position and,
    from the first step on, the output projection with the final norm's
    gain folded into its rows."""

    def __init__(self, cfg: ModelConfig, n_layers: int):
        self.rotations = _rotation_matrices(cfg)
        self.layers = [LayerKV(cfg.max_seq_len) for _ in range(n_layers)]
        self.head: np.ndarray | None = None
        self.memory: Tensor | None = None
        self.prefix: list[int] = []

    def extends(self, memory: Tensor, prefix: list[int]) -> bool:
        """True when ``prefix`` is the cached prefix plus one token for the
        cached memory block."""
        n = len(self.prefix)
        return memory is self.memory and len(prefix) == n + 1 and list(prefix[:n]) == self.prefix


class Decoder:
    """Generates target text conditioned on a K-slot memory prefix."""

    def __init__(self, stack: TransformerStack):
        self.stack = stack
        if stack.final_norm is None:
            raise ValueError("decoder stack requires a final norm")
        self._state: _DecodeState | None = None

    def _forward_bucket(self, mem_rows: Tensor, bucket: _Bucket, cfg: ModelConfig, kvs: list[LayerKV] | None = None):
        """Logits [S, K + Lb, V] of a decode bucket; with ``kvs``, layer i
        extends the taped ``kvs[i]`` with its keys and values."""
        d = cfg.d_model
        sb, lb = bucket.ids.shape
        emb = gather_rows(self.stack.embed, bucket.ids.reshape(-1)).reshape(sb, lb, d)
        x = concat([mem_rows, emb], axis=1) if lb else mem_rows
        # every decode row starts at column 0, so positions are columns
        cos_tab, sin_tab = _rotation_tables(cfg)
        total = lb + cfg.memory_tokens
        cos, sin = cos_tab[None, None, :total], sin_tab[None, None, :total]
        for i, layer in enumerate(self.stack.layers):
            x = layer_forward(x, layer, cfg, bucket.window, cos, sin, kvs[i] if kvs else None)
        xn = rms_norm(x, self.stack.final_norm)
        return xn @ self.stack.embed.swapaxes(0, 1)

    @contextmanager
    def kv_cache(self):
        """Let ``next_logits`` keep per-layer K/V between calls until the
        block exits; ``GofaModel.generate`` holds one per answer. The
        decoder's weights must not change inside the block."""
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
        position, on arrays against the cached K/V (see ``layer_forward``),
        so no tape object is made. Every other call is a prefill: the
        teacher-forcing pass (``_forward_bucket``, without gradients) over
        the decode bucket of memory plus prefix (the K memory rows alone
        for an empty prefix), whose keys and values start the cache inside
        ``kv_cache()``, so its logits are those of teacher forcing. A
        prefix longer than ``max_seq_len - K`` tokens is a ``ValueError``.
        """
        cfg = self.stack.cfg
        k, d = cfg.memory_tokens, cfg.d_model
        if len(prefix) > cfg.max_seq_len - k:
            raise ValueError(f"prefix of {len(prefix)} tokens exceeds max_seq_len - memory_tokens = {cfg.max_seq_len - k}")
        state = self._state
        if state is None or not state.extends(memory, prefix):
            bucket = make_decode_buckets([list(prefix)], cfg, cfg.dtype)[0]
            taped = [LayerKV() for _ in self.stack.layers] if state is not None else None
            with no_grad():
                logits = self._forward_bucket(memory.reshape(1, k, d), bucket, cfg, taped)
            n = k + len(prefix)
            if state is not None:
                for kv, t in zip(state.layers, taped):
                    kv.fill(t, n)
                state.memory, state.prefix = memory, list(prefix)
            return logits.data[0, n - 1]
        state.prefix.append(prefix[-1])
        embed = self.stack.embed.data
        if state.head is None:
            state.head = self.stack.final_norm.data[:, None] * embed.T
        x = embed[prefix[-1]].reshape(1, 1, d)
        rot = state.rotations[k + len(prefix) - 1]
        for layer, kv in zip(self.stack.layers, state.layers):
            x = layer_forward(x, layer, cfg, None, rot, None, kv)
        row = x.reshape(d)
        return (row * _rms_scale(row)) @ state.head
