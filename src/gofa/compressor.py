"""Decoder-only transformer layers processing text tokens plus trailing
memory slots.

Each input sequence is a node or edge text appended with K shared memory
tokens; causal attention lets the memory positions read the whole text, so
their final states compress the sentence into K fixed-size vectors. The
same layer machinery also powers the separate decoder stack that generates
target text from a memory prefix: teacher forcing over decode buckets cut
to their targets, whose loss reads only the rows it scores, and
generation one position at a time, the K memory rows first, on arrays
(``_cached_layer``). Each cache has one role: a ``LayerKV`` holds the taped
keys and values that a later call of the same layer extends, and a
``StepKV`` the array buffers and folded weights of one decoder layer's
generation steps.

Sequences are grouped into length buckets; text tokens are left-padded so
memory slots always occupy the trailing K columns of a bucket. Compression
buckets step through ``_BUCKET_STEPS``; a decode bucket is as long as its
longest target rounded up to a multiple of 8 (``_decode_len``). Each row's
real columns form one window that its attention keys are limited to, so
padding columns contribute exact zeros. A text's compression rows and
memory rows are bit-equal whatever else the call holds. A decode target's
teacher-forced logits agree only within rounding across the buckets it
could run in: the last attention tile's softmax row sums round by the
bucket's length, and the head product by the other rows it holds. A layer
call's rows sit at the columns after the keys it extends, and their
rotary positions count from their windows' first columns
(``_rotations``), so no call carries positions of its own. Each decode
bucket, text part and set of memory rows has one ``attention_plan`` with
its window, attention masks and rotary tables, built before the first
layer and read by every layer. One builder
(``_rope_tables``) makes both those tables and the step's rotation
matrices.

Compression runs in two phases split at the cache point ``t0 =
min(gnn_layers)`` (the last layer without GNN layers). Only memory rows
pass through the hooks, and causal attention keeps text rows from reading
memory rows, so a text's rows at every layer are a function of the text
alone. Each bucket has one text side, an iterator over layers that yields
the text keys and values its memory rows read, and one memory-row step
consumes it layer by layer. A caller may name each layer's field, the
sequences whose memory rows run it (``Compressor.run``); fields shrink
toward the last layer, and the sequences outside a field are never
computed at that layer. Each distinct token sequence of the first field
runs once: a text pass runs its text rows through every layer that a
memory row of its bucket reads, phase 1 runs one set of memory rows per
distinct text through layers 1..t0 against that pass, and phase 2 the
hooks and the layers after t0, with memory rows per sequence of each
layer's field that read their text's keys and values from the rest of
it.

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
the cache lacks run phase 1 as a row subset of that bucket that shares
prefixes within itself, and their text pass goes on through the layers
before the last, storing their rows as it passes them. The bucket's text
side then rebuilds a layer's keys and values from the cached rows of the
texts that the layer's field reads, and only memory rows run through
layers.
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
    _TILE, AttentionPlan, Tensor, _query_tiles, attention, concat, feed_forward, gather_rows, rms_norm, rope,
    split_heads,
)
from .checkpoint import without_retired

log = logging.getLogger("gofa")

_BUCKET_STEPS = (0, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)


# Fixed as a pretrained LM fixes them: feed-forward width in multiples of d_model, rotary
# base, and an embedding init scale small enough that untrained logits stay near-uniform.
FF_MULT = 4
ROPE_BASE = 10000.0
EMBED_STD = 0.02


@dataclass
class ModelConfig:
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 6
    memory_tokens: int = 4
    gnn_layers: tuple[int, ...] = (3, 4, 5)
    max_seq_len: int = 128
    precision: str = "float64"

    def __post_init__(self):
        self.gnn_layers = tuple(sorted(self.gnn_layers))
        if len(set(self.gnn_layers)) < len(self.gnn_layers):
            raise ValueError(f"gnn_layers {list(self.gnn_layers)} lists a layer twice")
        for name in ("d_model", "n_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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

    @classmethod
    def from_checkpoint(cls, fields: dict) -> "ModelConfig":
        """The config of a checkpoint's ``model`` section (``without_retired``)."""
        retired = {"vocab_size": tokenizer.VOCAB_SIZE, "ff_mult": FF_MULT, "rope_base": ROPE_BASE, "embed_std": EMBED_STD}
        retired["init_std"] = float(fields.get("d_model", cls.d_model)) ** -0.5
        return cls(**without_retired("model", fields, retired))

    @property
    def init_std(self) -> float:  # of every interior projection
        return float(self.d_model) ** -0.5

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def cache_point(self) -> int:
        """t0 = min(gnn_layers), the layer after which the first GNN layer
        runs (n_layers without GNN layers): layers 1..t0 run before any
        hook, once per distinct text."""
        return min(self.gnn_layers, default=self.n_layers)

    @property
    def max_text_len(self) -> int:
        """The most tokens a node/edge text or a decoder target keeps: what
        ``max_seq_len`` leaves after the K memory rows."""
        return self.max_seq_len - self.memory_tokens

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
        d, ff = cfg.d_model, cfg.d_model * FF_MULT
        self.cfg = cfg
        self.prefix = prefix
        self.embed = store.add(f"{prefix}.embed", rng.normal(0.0, EMBED_STD, (tokenizer.VOCAB_SIZE, d)))
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
def _rope_tables(n_pos: int, half: int, dtype, n_heads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rotations of positions 0..n_pos-1: ``cos`` and ``sin``
    [n_pos, n_heads*2*half] in the form ``autodiff.rope`` takes (for each
    head, cosines in both halves, sines negated in the first half), and the
    same rotations as matrices [n_pos, 2*half, 2*half], a row vector of one
    head times entry i being ``autodiff.rope`` of it at position i (column j
    holds the cosine on the diagonal and the sine in the row of j's partner
    in the other half)."""
    inv = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / (2 * half))
    angles = np.arange(n_pos, dtype=np.float64)[:, None] * inv[None, :]
    cos, sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    cos, sin = np.concatenate([cos, cos], axis=1), np.concatenate([-sin, sin], axis=1)
    cols = np.arange(2 * half)
    rot = np.zeros((n_pos, 2 * half, 2 * half), dtype=dtype)
    rot[:, cols, cols] = cos
    rot[:, np.roll(cols, half), cols] = sin
    tables = np.tile(cos, n_heads), np.tile(sin, n_heads), rot
    for t in tables:
        t.flags.writeable = False
    return tables


def _rotation_tables(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_rope_tables`` of ``cfg``'s heads at every position a bucket of
    ``cfg`` can hold, pad columns included: ``_bucket_len`` of the longest
    text plus the K memory rows, which no decode bucket passes either
    (``_decode_len`` is at most ``_bucket_len``). cos and sin [n_pos, d]
    for a [S, L, d] projection and the [dh, dh] matrices of the array
    step."""
    n_pos = _bucket_len(cfg.max_text_len) + cfg.memory_tokens
    return _rope_tables(n_pos, cfg.head_dim // 2, cfg.dtype, cfg.n_heads)


def _rotations(cfg: ModelConfig, window: np.ndarray, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin [S, n, d] of the rows at columns first..first+n-1 under
    ``window`` [S, 2], gathered from the tables by position. A row's rotary
    position is its column minus its window's first column, 0 for the pad
    columns before that."""
    cos, sin, _ = _rotation_tables(cfg)
    pos = np.maximum(np.arange(first, first + n) - window[:, :1], 0)
    return cos[pos], sin[pos]


def attention_plan(cfg: ModelConfig, window: np.ndarray, first: int, n: int) -> AttentionPlan:
    """The ``AttentionPlan`` of a layer call whose ``n`` rows sit at the key
    columns first..first+n-1 after the ``first`` columns its keys extend,
    under ``window`` [S, 2], with the rotations of those rows
    (``_rotations``). Every layer that runs rows of this geometry shares it."""
    return AttentionPlan(n, first + n, window, *_rotations(cfg, window, first, n))


class LayerKV:
    """The taped keys and values that one layer computed in earlier calls:
    ``extend`` appends one call's key and value tensors [S, H, n, dh] and
    returns all of them, so gradients flow back into every call that
    contributed keys and values."""

    def __init__(self):
        self.keys: Tensor | None = None
        self.values: Tensor | None = None
        self.n = 0

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions; return the keys and values of all of them."""
        if self.n:
            k = concat([self.keys, k], axis=2)
            v = concat([self.values, v], axis=2)
        self.keys, self.values, self.n = k, v, k.shape[2]
        return k, v


class StepKV:
    """The inference cache of one layer ``p`` for one sequence, which
    ``layer_forward`` steps on arrays without a tape (``_cached_layer``):
    buffers ``keys`` and ``values`` [H, max_seq_len, dh], of which every
    step writes one more column, ``n``, also the step's position, and the
    layer's step arrays (``_step_weights``), folded when the cache is made,
    so the layer's weights must not change while it is kept."""

    def __init__(self, p: dict, cfg: ModelConfig):
        shape = (cfg.n_heads, cfg.max_seq_len, cfg.head_dim)
        self.keys, self.values = np.empty(shape, dtype=cfg.dtype), np.empty(shape, dtype=cfg.dtype)
        self.weights = _step_weights(p, cfg)
        self.n = 0


def _keys_values(xn: Tensor, p: dict, cfg: ModelConfig, plan: AttentionPlan) -> tuple[Tensor, Tensor]:
    """Keys, rotated by the ``plan``'s tables, and values [S, H, L, dh] of
    the normalised rows ``xn``."""
    k = split_heads(rope(xn @ p["wk"], plan.cos, plan.sin, cfg.head_dim), cfg.n_heads)
    return k, split_heads(xn @ p["wv"], cfg.n_heads)


def layer_forward(
    x: Tensor | np.ndarray, p: dict, cfg: ModelConfig, plan: AttentionPlan | None,
    kv: LayerKV | StepKV | None = None,
) -> Tensor | np.ndarray:
    """One pre-norm transformer block over [S, L, d].

    The rows of ``x`` are the L key columns after the ones ``kv`` holds (the
    first L without it), and each attends causally. The ``plan``
    (``attention_plan``), built once by the caller for every layer that
    runs rows of this geometry, holds their rotary tables and which keys
    each row sees: its window [S, 2] limits row s to the key columns
    ``window[s, 0] <= j < window[s, 1]`` (see ``autodiff.blocked_keys``).
    With a ``LayerKV``, the keys and values of ``x`` are appended to the
    taped ones and the queries attend over all of them. With a ``StepKV``,
    the inference cache, ``x`` is one new position [1, 1, d] as an array,
    ``plan`` is None, the one call without a plan, and the step runs
    without a tape (``_cached_layer``).

    RoPE rotates the contiguous [S, L, d] projections before they are split
    into heads. Attention runs the rows in tiles that end at every 32nd key
    column and reads only the keys before a tile's end
    (``autodiff.attention``). The tiles depend on L and the key count alone,
    so a row's output does not depend on the other rows of its bucket. The
    feed-forward sub-block and its residual are one tape op
    (``autodiff.feed_forward``).
    """
    if isinstance(kv, StepKV):
        return _cached_layer(x, cfg, plan, kv)
    xn = rms_norm(x, p["attn_norm"])
    q = split_heads(rope(xn @ p["wq"], plan.cos, plan.sin, cfg.head_dim), cfg.n_heads)
    k, v = _keys_values(xn, p, cfg, plan)
    if kv is not None:
        k, v = kv.extend(k, v)
    x = x + attention(q, k, v, plan) @ p["wo"]
    return feed_forward(x, p["ff_norm"], p["ff1"], p["ff2"])


def _rms_scale(row: np.ndarray, eps: float = 1e-6) -> float:
    """The reciprocal root-mean-square of one row [d] that ``rms_norm``
    scales it by, on Python floats."""
    return 1.0 / math.sqrt(float(row @ row) / row.shape[0] + eps)


def _step_weights(p: dict, cfg: ModelConfig) -> tuple[np.ndarray, ...]:
    """The arrays of the one-row step of layer ``p``: ``[wq | wk | wv]``
    [d, 3d] with the score scale 1/sqrt(dh) folded into the ``wq`` columns
    and ``attn_norm`` into the rows, ``wo``, ``ff1`` with ``ff_norm``
    folded into the rows, ``ff2``, and the rotation matrix of every
    position (``_rotation_tables``)."""
    qkv = np.concatenate([p["wq"].data * (1.0 / math.sqrt(cfg.head_dim)), p["wk"].data, p["wv"].data], axis=1)
    qkv *= p["attn_norm"].data[:, None]
    return qkv, p["wo"].data, p["ff_norm"].data[:, None] * p["ff1"].data, p["ff2"].data, _rotation_tables(cfg)[2]


def _cached_layer(x: np.ndarray, cfg: ModelConfig, plan: AttentionPlan | None, kv: StepKV) -> np.ndarray:
    """``layer_forward`` of one new position against the inference cache
    ``kv`` (a ``StepKV``), on arrays: every position ``Decoder.next_logits``
    computes, memory rows and prefix tokens alike. The layer's weights are
    the step arrays folded when the cache was made (``_step_weights``), so
    each norm is one scale on Python floats and the projection through
    ``[wq | wk | wv]`` yields the scaled query; one product with the
    rotation matrix of the step's column ``kv.n`` (its position: the cache
    has no plan or window) rotates the query and key together, the key and
    value go straight into the cache's buffers, and the softmax of the one
    query's scores, with no tiles or mask, divides the [H, 1, dh] output by
    its row sums rather than the probabilities. This is the tape ops'
    arithmetic in another order, so results differ from teacher forcing by
    rounding alone."""
    if isinstance(x, Tensor):
        raise ValueError("the K/V cache runs on arrays, without a tape; pass x.data")
    if x.shape[:2] != (1, 1) or plan is not None:
        raise ValueError(f"the K/V cache steps one position [1, 1, d] without a plan, not {x.shape}")
    qkv_w, wo, ff1, ff2, rotations = kv.weights
    h, n = cfg.n_heads, kv.n + 1
    row = x.reshape(-1)
    qkv = ((row * _rms_scale(row)) @ qkv_w).reshape(3 * h, cfg.head_dim)
    qk = qkv[: 2 * h] @ rotations[kv.n]
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
    """The text length of a compression bucket for texts of ``n`` tokens:
    the next of ``_BUCKET_STEPS``, or ``n`` itself past the last."""
    for step in _BUCKET_STEPS:
        if n <= step:
            return step
    return n


def _decode_len(n: int) -> int:
    """The text length of a decode bucket for targets of ``n`` tokens: ``n``
    rounded up to a multiple of 8, never past ``_bucket_len(n)``, so targets
    of 1-4 tokens keep 4 and one of more than 512 its own length."""
    return min(-(-n // 8) * 8, _bucket_len(n))


@dataclass
class _Bucket:
    indices: list[int]
    ids: np.ndarray  # [Sb, Lb] token ids, padded on the side away from the memory rows
    window: np.ndarray  # [Sb, 2] each row's real columns: first, one past the last


def _make_buckets(sequences: list[list[int]], cfg: ModelConfig, memory_first: bool) -> list[_Bucket]:
    """Group sequences by padded text length into [Sb, Lb + K] buckets.

    Compression puts the K memory rows after left-padded text; decoding
    (``memory_first``) puts them before right-padded text. Either way a
    row's text and memory rows form one unpadded block, its ``window``:
    each query sees the keys of that block at or before it, and rotary
    positions count from its first column (``_rotations``).

    A compression bucket's text length is the next of ``_BUCKET_STEPS``
    (``_bucket_len``); a decode bucket's is its longest target rounded up
    to a multiple of 8 (``_decode_len``), so it runs fewer than 8 pad
    columns. With K = 4 a decode bucket then spans 8j + 4 columns, and its
    last attention tile holds 4, 12, 20 or 28 query rows, never the one
    row that numpy would run through another BLAS kernel.

    A text too long for ``max_seq_len`` keeps its last tokens; a target
    keeps its first, so the memory rows always learn the answer's start.
    """
    k, limit = cfg.memory_tokens, cfg.max_text_len
    longest = max(map(len, sequences), default=0)
    if longest > limit:
        what, how = ("target", "dropping the tail") if memory_first else ("node/edge text", "truncating from the left")
        n_long = sum(len(s) > limit for s in sequences)
        # the kind leads the message template, so log handlers can tell targets from texts
        log.warning(f"{what} length exceeds %d tokens in %d of %d sequences (longest %d); {how}",
                    limit, n_long, len(sequences), longest)
    seqs = [list(s[:limit]) if memory_first else list(s[-limit:]) for s in sequences]
    length = _decode_len if memory_first else _bucket_len
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        groups.setdefault(length(len(s)), []).append(i)
    buckets = []
    for lb in sorted(groups):
        idxs = groups[lb]
        n = np.array([len(seqs[i]) for i in idxs], dtype=np.int64)
        start = np.zeros_like(n) if memory_first else lb - n
        ids = np.full((len(idxs), lb), tokenizer.PAD_ID, dtype=np.int64)
        for row, i in enumerate(idxs):
            ids[row, start[row] : start[row] + n[row]] = seqs[i]
        buckets.append(_Bucket(idxs, ids, np.stack([start, start + n + k], axis=1)))
    return buckets


def make_compress_buckets(sequences: list[list[int]], cfg: ModelConfig, dtype) -> list[_Bucket]:
    """Buckets of [left-padded text ; K memory rows]. A bucket holds integer
    arrays only, whatever the model's ``dtype``."""
    return _make_buckets(sequences, cfg, memory_first=False)


def make_decode_buckets(targets: list[list[int]], cfg: ModelConfig, dtype) -> list[_Bucket]:
    """Buckets of [K memory rows ; right-padded target tokens], each as
    long as its longest target rounded up to a multiple of 8
    (``_decode_len``). A bucket holds integer arrays only, whatever the
    model's ``dtype``."""
    return _make_buckets(targets, cfg, memory_first=True)


@dataclass
class _Part:
    """Rows of a compression bucket that run through the layers together:
    the representatives, every column of them, or members that share the
    columns before ``start`` with a representative and run only the rest."""

    rows: np.ndarray  # bucket rows
    start: int  # the first column it runs; 0 for the representatives
    source: np.ndarray | None  # per row, the representative (a row of the first part) it reads keys from
    window: np.ndarray  # its rows' windows


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


def _share_prefixes(ids: np.ndarray, window: np.ndarray) -> list[_Part]:
    """Split the text rows [m, Lb] of a compression bucket, with their
    windows [m, 2], into the parts they run as: the representatives first,
    then the members, one part per attention tile they start in.

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
        return _Part(np.asarray(rows, dtype=np.int64), start, source, window[rows])

    parts = [part(list(index), 0, None)]
    for tile in sorted(members):
        rows, sources, firsts = zip(*members[tile])
        parts.append(part(list(rows), min(firsts), np.asarray([index[r] for r in sources], dtype=np.int64)))
    return parts


def gather_in_order(per_bucket: list[Tensor], indices: list) -> Tensor:
    """Stack per-bucket rows back into original sequence order; bucket i
    holds the rows of sequences ``indices[i]``."""
    stacked = concat(per_bucket, axis=0)
    order = np.concatenate([np.asarray(idx, dtype=np.int64) for idx in indices])
    return gather_rows(stacked, np.argsort(order))


def select_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """The rows ``rows`` of ``x`` along axis 0, or ``x`` itself when they
    are all of its rows in order."""
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == x.shape[0] and np.array_equal(rows, np.arange(len(rows))):
        return x
    return gather_rows(x, rows)


def _joined(pairs: list[tuple[Tensor, Tensor]]) -> tuple[Tensor, Tensor] | None:
    """The keys and values of a text side's parts joined in part order;
    None for a bucket without text columns."""
    if len(pairs) < 2:
        return pairs[0] if pairs else None
    return concat([k for k, _ in pairs], axis=0), concat([v for _, v in pairs], axis=0)


def _reading(text, key_row: np.ndarray, reads: list[np.ndarray]):
    """Per layer of the text pass ``text``, the keys and values of the
    bucket rows ``reads[j]`` (rows of the joined parts ``key_row[rows]``);
    the pass stops after the last layer that ``reads`` lists."""
    for rows, pairs in zip(reads, text):
        kv = _joined(pairs)
        yield None if kv is None else tuple(select_rows(x, key_row[rows]) for x in kv)


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

    def run(self, sequences: list[list[int]], memory_hook=None, fields: dict[int, np.ndarray] | None = None) -> Tensor:
        """Compress token sequences to a [S, K, d] memory tensor, or to the
        memory rows of the sequences that the last layer's field holds.

        Each bucket runs as text rows attending causally within their
        windows, and the memory rows [S, K, d] as a K-position extension
        that attends to the layer's text keys and values plus its own.
        Causal attention keeps text rows independent of memory rows, so the
        split computes what one [text; memory] tensor per bucket would, up
        to the order in which a softmax row's terms are summed. Text rows
        carry a tape only when the compressor itself is trained, and the
        last layer computes only their keys and values.

        ``fields`` maps each layer t of t0..n, ``t0 = cfg.cache_point``
        (all layers without GNN layers), to its field: the sequences, as
        ascending indices, whose memory rows run layer t (the output of
        phase 1 at t0). Fields are nested, each holding the next, and
        change only across a hook. Without them every field holds every
        sequence.

        Phase 1 runs layers 1..t0 once per distinct text of the field of
        t0. Phase 2 gives each sequence of a field its own memory rows and
        runs the hook at t0 and layers t0+1..n, each on the memory rows of
        its field. In both, one step runs a layer's memory rows against the
        text keys and values that the bucket's text side yields for the
        rows it runs. The distinct texts are bucketed once per call.
        Without a cache, the text side is one text pass over the bucket's
        texts, which runs each text's rows through every layer that a row
        of the bucket reads, a text that shares leading tokens with an
        equally long one only the rows after them (``_share_prefixes``).
        With a ``text_cache()`` open, the texts of each bucket that it does
        not hold yet run phase 1 in the same way, as the subset of the
        bucket's rows and windows that holds them, and their text pass goes
        on through layer n-1 to store their rows; the text side then
        rebuilds a layer's keys and values from the cached rows of the
        texts that its field reads, so phase 1 computes nothing for a text
        the cache holds and only memory rows run after t0. A text's rows do
        not depend on the other texts of its bucket, so every path gives
        each sequence the bits it would get alone.

        ``memory_hook(mems, t)``, after each layer t listed in
        ``cfg.gnn_layers``, gets the memory rows of the field of t in
        sequence order and returns those of the field of t+1.
        """
        cfg = self.stack.cfg
        k, n = cfg.memory_tokens, cfg.n_layers
        t0 = cfg.cache_point
        if fields is None:
            fields = dict.fromkeys(range(t0, n + 1), np.arange(len(sequences)))
        if not len(fields[n]):
            return Tensor(np.zeros((0, k, cfg.d_model)), dtype=cfg.dtype)
        keys = [tuple(sequences[s]) for s in fields[t0].tolist()]
        distinct = list(dict.fromkeys(keys))
        buckets = make_compress_buckets(distinct, cfg, cfg.dtype)
        slot = {distinct[u]: (i, row) for i, b in enumerate(buckets) for row, u in enumerate(b.indices)}
        text_of = np.array([slot[key] for key in keys], dtype=np.int64)  # bucket and bucket row per sequence of field t0
        # per layer and bucket: the field's sequences in it (places in the field),
        # their bucket rows and the plan of their memory rows; a field as large
        # as the one below it is the same field and shares its layout
        layouts = {}
        for t in range(t0, n + 1):
            if t > t0 and len(fields[t]) == len(fields[t - 1]):
                layouts[t] = layouts[t - 1]
                continue
            where = text_of[np.searchsorted(fields[t0], fields[t])]
            by_bucket = np.argsort(where[:, 0], kind="stable")
            cuts = np.searchsorted(where[by_bucket, 0], np.arange(1, len(buckets)))
            layouts[t] = [
                (places, where[places, 1], attention_plan(cfg, b.window[where[places, 1]], b.ids.shape[1], k))
                for b, places in zip(buckets, np.split(by_bucket, cuts))
            ]
        texts, mems = [], []
        for i, b in enumerate(buckets):
            reads = [layouts[t][i][1] for t in range(t0 + 1, n + 1)]
            reads = reads[: sum(len(r) > 0 for r in reads)]  # nested fields: empty from some layer on
            if self._cache is None:
                order, mem, text = self._computed(t0, b.ids, b.window)
                text = _reading(text, np.argsort(order), reads)
            else:
                order, mem, text = self._cached(t0, b, [distinct[u] for u in b.indices], reads)
            texts.append(text)
            mems.append(gather_rows(mem, np.argsort(order)[layouts[t0][i][1]]))

        def in_order(layout) -> Tensor:  # the memory rows of a layout's field, in sequence order
            held = [i for i, (places, _, _) in enumerate(layout) if len(places)]
            return gather_in_order([mems[i] for i in held], [layout[i][0] for i in held])

        for t in range(t0, n + 1):
            layout = layouts[t]
            if t > t0:
                mems = [
                    self._memory_layer(t, mem, next(text), plan) if len(places) else None
                    for mem, text, (places, _, plan) in zip(mems, texts, layout)
                ]
            if memory_hook is not None and t in cfg.gnn_layers:
                joined = memory_hook(in_order(layout), t)
                mems = [gather_rows(joined, places) if len(places) else None for places, _, _ in layouts[t + 1]]
        return in_order(layouts[n])

    def _computed(self, t0: int, ids: np.ndarray, window: np.ndarray, stored: list[np.ndarray] | None = None):
        """Phase 1 for the bucket rows of distinct texts ``ids`` [m, Lb] with
        their windows [m, 2]: the rows in the order their ``_share_prefixes``
        parts run, their memory rows at the output of layer ``t0`` in that
        order, and the text side of layers t0+1..n.

        The text side is one pass of the parts through layers 1..n, whose
        layers 1..t0 phase 1 reads: per layer it yields each part's keys and
        values [m_i, H, Lb, dh], a member's first columns read from its
        representative (no pair without text columns), and the last layer
        computes only keys and values. With ``stored``, one array [n - t0,
        real columns, d] per row of ``ids``, each text's real rows at the
        inputs of layers t0+1..n go there as the pass reaches them, a
        member's first columns its representative's."""
        cfg = self.stack.cfg
        (m, lb), k, d = ids.shape, cfg.memory_tokens, cfg.d_model
        parts = _share_prefixes(ids, window)
        order = np.concatenate([p.rows for p in parts])
        plans = [attention_plan(cfg, p.window, p.start, lb - p.start) for p in parts]

        def text_layer(t: int, layer: dict) -> list[tuple[Tensor, Tensor]]:
            # a function of its own, so that no part's rows or keys outlive the
            # memory-row step that reads them
            nonlocal x
            out, pairs = [], []
            for p, plan, xp in zip(parts, plans, x):
                kv = LayerKV()
                if p.source is not None:
                    keys, values = pairs[0]
                    kv.extend(gather_rows(keys, p.source)[:, :, : p.start], gather_rows(values, p.source)[:, :, : p.start])
                if t < cfg.n_layers:
                    out.append(layer_forward(xp, layer, cfg, plan, kv))
                else:
                    kv.extend(*_keys_values(rms_norm(xp, layer["attn_norm"]), layer, cfg, plan))
                pairs.append((kv.keys, kv.values))
            x = out
            if stored is not None and t0 <= t < cfg.n_layers:
                for p, xp in zip(parts, x):  # the first part, the representatives, fills first
                    if p.start:
                        joined[p.rows, : p.start] = joined[parts[0].rows[p.source], : p.start]
                    joined[p.rows, p.start :] = xp.data
                for rows, full in zip(stored, joined):
                    rows[t - t0] = full[lb - rows.shape[1] :]  # the rows at the input of layer t+1
            return pairs

        joined = np.empty((m, lb, d), dtype=cfg.dtype) if stored is not None else None
        embed = self.stack.embed
        x = [gather_rows(embed, ids[p.rows, p.start :].reshape(-1)).reshape(len(p.rows), lb - p.start, d) for p in parts] if lb else []
        text = (text_layer(t, layer) for t, layer in enumerate(self.stack.layers, start=1))
        mem = self.memory.reshape(1, k, d).broadcast_to((m, k, d))
        plan = attention_plan(cfg, window[order], lb, k)
        for t in range(1, t0 + 1):
            mem = self._memory_layer(t, mem, _joined(next(text)), plan)
        return order, mem, text

    def _cached(self, t0: int, bucket: _Bucket, keys: list[tuple[int, ...]], reads: list[np.ndarray]):
        """Phase 1 for a bucket of texts (``keys``, one per row) from the open
        cache: the rows in bucket order, their memory rows at the output of
        layer ``t0``, and the text side of layers t0+1.., which yields per
        layer the keys and values [len(rows), H, Lb, dh] of the bucket rows
        ``reads[j]``, rebuilt from the cached rows of those texts alone as
        it is asked for (pad rows are zeros, which masked attention never
        reads). The texts the cache lacks first run as the subset of the
        bucket's rows and windows that holds them (``_computed``), through
        phase 1 and on through the text layers before the last, and are
        stored as they pass."""
        cfg = self.stack.cfg
        cache = self._cache
        later, (m, lb), d = cfg.n_layers - t0, bucket.ids.shape, cfg.d_model
        missing = [row for row, key in enumerate(keys) if key not in cache.entries]
        cache.hits += m - len(missing)
        cache.misses += len(missing)
        if missing:
            stored = [np.empty((later, lb - first, d), dtype=cfg.dtype) for first in bucket.window[missing, 0]]
            order, mem, filling = self._computed(t0, bucket.ids[missing], bucket.window[missing], stored)
            for _ in range(t0 + 1, cfg.n_layers):
                next(filling)
            del filling  # frees the pass's last rows before the cached read allocates its own
            for row, mem_rows in zip(order, mem.data):
                cache.entries[keys[missing[row]]] = stored[row], mem_rows.copy()
                cache.bytes += stored[row].nbytes + mem_rows.nbytes
        mem = np.stack([cache.entries[key][1] for key in keys])

        def kvs():
            for j, rows in enumerate(reads):
                if not lb:
                    yield None
                    continue
                needed, inverse = np.unique(rows, return_inverse=True)
                x = np.zeros((len(needed), lb, d), dtype=cfg.dtype)
                for i, row in enumerate(needed.tolist()):
                    real = cache.entries[keys[row]][0][j]
                    x[i, lb - real.shape[0] :] = real
                layer = self.stack.layers[t0 + j]
                plan = attention_plan(cfg, bucket.window[needed], 0, lb)
                kv = _keys_values(rms_norm(Tensor(x, dtype=cfg.dtype), layer["attn_norm"]), layer, cfg, plan)
                yield tuple(select_rows(t, inverse) for t in kv)

        return np.arange(m), Tensor(mem, dtype=cfg.dtype), kvs()

    def _memory_layer(self, t: int, mem: Tensor, kv: tuple[Tensor, Tensor] | None, plan: AttentionPlan) -> Tensor:
        """Layer ``t`` over one bucket's memory rows [S, K, d] under their
        ``plan``: memory row j reads row j of the text keys and values
        ``kv``; none without them."""
        layer_kv = LayerKV()
        if kv is not None:
            layer_kv.extend(*kv)
        return layer_forward(mem, self.stack.layers[t - 1], self.stack.cfg, plan, layer_kv)


class _DecodeState:
    """The inference cache of each layer of a decoder ``stack`` (a
    ``StepKV``) for one memory block and the prefix decoded after it (each
    layer's ``n`` is the next step's position), and the output projection
    with the final norm's gain folded into its rows, made with the state."""

    def __init__(self, stack: TransformerStack):
        self.layers = [StepKV(layer, stack.cfg) for layer in stack.layers]
        self.head = stack.final_norm.data[:, None] * stack.embed.data.T
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

    def _forward_bucket(self, mem_rows: Tensor, bucket: _Bucket, cfg: ModelConfig) -> Tensor:
        """Teacher forcing: the last layer's rows [S, K + Lb, d] of a decode
        bucket, before the final norm. The loss
        (``autodiff.head_cross_entropy``) takes the final norm and the head
        on the rows it scores only."""
        d = cfg.d_model
        sb, lb = bucket.ids.shape
        emb = gather_rows(self.stack.embed, bucket.ids.reshape(-1)).reshape(sb, lb, d)
        x = concat([mem_rows, emb], axis=1)
        plan = attention_plan(cfg, bucket.window, 0, cfg.memory_tokens + lb)
        for layer in self.stack.layers:
            x = layer_forward(x, layer, cfg, plan)
        return x

    @contextmanager
    def kv_cache(self):
        """Let ``next_logits`` keep per-layer K/V between calls until the
        block exits; ``GofaModel.generate`` holds one per answer. The
        decoder's weights must not change inside the block."""
        outer = self._state
        self._state = _DecodeState(self.stack)
        try:
            yield
        finally:
            self._state = outer

    def next_logits(self, memory: Tensor, prefix: list[int]) -> np.ndarray:
        """Logits for the next token given one memory block and generated ids.

        Every position runs as one step of each layer on arrays against the
        cached K/V (see ``layer_forward``), so no tape object is made. Inside
        ``kv_cache()``, a prefix that extends the previous call's by one
        token, for the same memory block, steps that token alone. Every
        other call empties the layer caches and steps the K memory rows and
        then every prefix token, one row at a time; outside ``kv_cache()``
        it does so on a state of its own. The logits are the final norm and
        the head over the rows of teacher forcing (``_forward_bucket``) up
        to rounding. A prefix longer than
        ``cfg.max_text_len`` tokens is a ``ValueError``.
        """
        cfg = self.stack.cfg
        d = cfg.d_model
        if len(prefix) > cfg.max_text_len:
            raise ValueError(f"prefix of {len(prefix)} tokens exceeds max_seq_len - memory_tokens = {cfg.max_text_len}")
        state = self._state if self._state is not None else _DecodeState(self.stack)
        embed = self.stack.embed.data
        if state.extends(memory, prefix):
            rows = embed[prefix[-1:]]
        else:  # start over, keeping the folded weights
            for kv in state.layers:
                kv.n = 0
            state.memory = memory
            rows = np.concatenate([memory.data.reshape(-1, d), embed[list(prefix)]])
        state.prefix = list(prefix)
        for row in rows:
            x = row.reshape(1, 1, d)
            for layer, kv in zip(self.stack.layers, state.layers):
                x = layer_forward(x, layer, cfg, None, kv)
        row = x.reshape(d)
        return (row * _rms_scale(row)) @ state.head
