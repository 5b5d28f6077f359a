"""Dense tensors with tape-based reverse-mode automatic differentiation.

Every operation links the graph node of the tensor it produces to its
inputs' nodes and records an adjoint rule there; ``backward`` on a scalar
walks the nodes in reverse topological order and accumulates gradients
into ``.grad`` buffers. A node never holds a value: each adjoint rule
keeps, at record time, only the arrays it reads (the other operand of a
product, the input of ``silu``, ``rms_norm`` and ``feed_forward``,
attention's operands and probabilities), so an intermediate's value is
freed once the forward code drops it, unless some backward reads it.

64-bit floats are the default so finite-difference checks are
meaningful; 32-bit is an opt-in via the ``dtype`` argument on leaf
tensors.

The tape is confined to a single thread. ``no_grad()`` suspends recording
for inference paths.

Besides the elementwise and shape ops, the transformer block runs on a few
fused ops with hand-written backward passes: ``rms_norm``, ``rope``,
``split_heads``, ``attention`` and ``feed_forward``, and the decoder's loss
is one more, ``head_cross_entropy``, which runs its chain on the scored
rows alone. Their forwards compute the numpy sequence of the small ops
they replace, bit for bit; their backwards sum the same terms in other
orders. Every ``attention`` call reads which keys each query sees from
its caller's ``AttentionPlan``, which the caller builds once per call
geometry and shares across layers.
"""

from __future__ import annotations

import contextlib
import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

DEFAULT_DTYPE = np.float64

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class ShapeError(ValueError):
    pass


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class _Node:
    """A tensor's place on the tape: its gradient buffer, the nodes of the
    parents that take a gradient, its backward rule, and the shape and dtype
    of its value. A node never holds the value, so the tape keeps an array
    alive only where a backward rule captured it."""

    __slots__ = ("grad", "requires_grad", "parents", "backward", "grad_owned", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], dtype, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents: tuple[_Node, ...] = ()
        self.backward = None
        self.grad_owned = True
        self.shape = shape
        self.dtype = dtype

    def accum(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this node's gradient buffer.

        ``owned=True`` promises the buffer is freshly allocated and
        unaliased, so it can be adopted without a copy. Unowned buffers
        may be views of an upstream gradient; leaves copy them right away
        (optimizers mutate leaf grads in place), interior nodes adopt the
        alias and only copy if a second accumulation arrives.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned or self.backward is not None:
                self.grad = grad
                self.grad_owned = owned
            else:
                self.grad = np.array(grad, dtype=self.dtype, copy=True)
                self.grad_owned = True
        else:
            if not self.grad_owned:
                self.grad = np.array(self.grad, copy=True)
                self.grad_owned = True
            self.grad += grad


class Tensor:
    """A value ``data`` and its ``_Node`` on the tape. ``grad`` and
    ``requires_grad`` read and write the node's. An op's backward rule
    captures its parents' nodes and, at record time, only the arrays it
    reads, so the value of an intermediate is freed once the forward code
    drops the tensor, unless some backward reads it."""

    # __weakref__ lets tests see when the tape lets go of a tensor
    __slots__ = ("_data", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self._data = data
        self._node = _Node(data.shape, data.dtype, bool(requires_grad) and _GRAD_ENABLED)

    # -- basics -----------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self._node.shape, self._node.dtype = value.shape, value.dtype

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self._node.requires_grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def item(self) -> float:
        return float(self._data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self._node.grad = None

    # -- tape -------------------------------------------------------------

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out._data = data
        # backward walks only the parents that take a gradient
        kept = tuple(p._node for p in parents if p._node.requires_grad) if _GRAD_ENABLED else ()
        node = out._node = _Node(data.shape, data.dtype, bool(kept))
        if kept:
            node.parents = kept
            node.backward = backward
        return out

    def backward(self) -> None:
        """Populate ``.grad`` of every reachable tensor, then release the tape."""
        if self._data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        root = self._node
        topo: list[_Node] = []
        visited = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        if root.grad is None:
            root.grad = np.ones_like(self._data)
        for node in reversed(topo):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
                if node is not root:
                    node.grad = None
            if node is not root:
                node.parents = ()
                node.backward = None

    def _accum(self, grad: np.ndarray, owned: bool = False) -> None:
        """``_Node.accum`` on this tensor's node."""
        self._node.accum(grad, owned)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self._data.dtype)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self._node, other._node

        def bw(g):
            if a.requires_grad:
                a.accum(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(g, b.shape))

        return self._make(self._data + other._data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        a = self._node

        def bw(g):
            a.accum(-g, owned=True)

        return self._make(-self._data, (self,), bw)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self._node, other._node
        # each side's gradient reads the other side's value
        a_data = self._data if b.requires_grad else None
        b_data = other._data if a.requires_grad else None

        def bw(g):
            if b_data is not None:
                a.accum(_unbroadcast(g * b_data, a.shape), owned=True)
            if a_data is not None:
                b.accum(_unbroadcast(g * a_data, b.shape), owned=True)

        return self._make(self._data * other._data, (self, other), bw)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._coerce(other)
        if self._data.shape[-1] != other._data.shape[-2]:
            raise ShapeError(f"matmul shape mismatch: {self.shape} @ {other.shape}")
        x, w = self._node, other._node
        a_shape, b_shape = self._data.shape, other._data.shape
        # each side's gradient reads the other side's value
        a = self._data if w.requires_grad else None
        b = other._data if x.requires_grad else None

        def bw(g):
            if b is not None:
                x.accum(_unbroadcast(g @ b.swapaxes(-1, -2), a_shape), owned=True)
            if a is not None:
                if len(b_shape) == 2 and g.ndim > 2:
                    # stacked activations against a flat weight: fold the
                    # batch into one GEMM instead of summing a stack
                    gb = a.reshape(-1, a_shape[-1]).T @ g.reshape(-1, g.shape[-1])
                    w.accum(gb, owned=True)
                else:
                    w.accum(_unbroadcast(a.swapaxes(-1, -2) @ g, b_shape), owned=True)

        return self._make(self._data @ other._data, (self, other), bw)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a, src_shape = self._node, self.shape

        def bw(g):
            a.accum(g.reshape(src_shape))

        return self._make(self._data.reshape(shape), (self,), bw)

    def swapaxes(self, a: int, b: int):
        node = self._node

        def bw(g):
            node.accum(g.swapaxes(a, b))

        return self._make(self._data.swapaxes(a, b), (self,), bw)

    def __getitem__(self, key):
        a, src_shape = self._node, self.shape

        def bw(g):
            if not a.requires_grad:
                return
            full = np.zeros(src_shape, dtype=g.dtype)
            full[key] = g
            a.accum(full, owned=True)

        return self._make(self._data[key], (self,), bw)

    def broadcast_to(self, shape):
        a = self._node

        def bw(g):
            a.accum(_unbroadcast(g, a.shape), owned=True)

        return self._make(np.broadcast_to(self._data, tuple(shape)).copy(), (self,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a, src_shape = self._node, self.shape

        def bw(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a.accum(np.broadcast_to(gg, src_shape).copy(), owned=True)

        return self._make(np.asarray(self._data.sum(axis=axis, keepdims=keepdims)), (self,), bw)

    # -- elementwise nonlinearities --------------------------------------------

    def tanh(self):
        a = self._node
        out_data = np.tanh(self._data)

        def bw(g):
            a.accum(g * (1.0 - out_data * out_data), owned=True)

        return self._make(out_data, (self,), bw)

    def silu(self):
        a, x = self._node, self._data
        out_data = _sigmoid(x)
        out_data *= x

        def bw(g):
            # recomputed rather than kept: one array less per call until backward;
            # g * sig * (1 + x * (1 - sig)) in place, in that order
            sig = _sigmoid(x)
            grad = np.subtract(1.0, sig)
            grad *= x
            grad += 1.0
            sig *= g
            sig *= grad
            a.accum(sig, owned=True)

        return self._make(out_data, (self,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in one fresh array."""
    sig = np.negative(x)
    np.exp(sig, out=sig)
    sig += 1.0
    return np.divide(1.0, sig, out=sig)


# -- free functions -------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    # only the parts that take a gradient are kept for backward
    parts = [(t._node, start, stop) for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]) if t.requires_grad]

    def bw(g):
        for node, start, stop in parts:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            node.accum(g[tuple(idx)])

    return tensors[0]._make(out_data, tuple(tensors), bw)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Rows of ``x`` selected along axis 0; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    a, shape, size = x._node, x.shape, x.size

    def bw(g):
        if not a.requires_grad:
            return
        # one bin per element of x; each bin adds its rows in index order from
        # 0.0, as np.add.at would, but in one pass
        width = math.prod(shape[1:])
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        full = np.bincount(flat, weights=g.reshape(-1), minlength=size)
        a.accum(full.astype(g.dtype, copy=False).reshape(shape), owned=True)

    return x._make(x.data[idx], (x,), bw)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """View [S, L, ...] as H heads [S, H, L, dh]: the trailing axes of each
    row, flattened, are the H*dh features."""
    s, seq_len = x.shape[:2]
    out_data = x.data.reshape(s, seq_len, n_heads, math.prod(x.shape[2:]) // n_heads).transpose(0, 2, 1, 3)
    a, shape = x._node, x.shape

    def bw(g):
        a.accum(g.transpose(0, 2, 1, 3).reshape(shape))

    return x._make(out_data, (x,), bw)


@lru_cache(maxsize=16)
def _half_swap(d: int, head_dim: int) -> np.ndarray:
    """Indices that exchange the two halves of each head of ``head_dim``
    features within a row of ``d``; read-only."""
    swap = np.arange(d).reshape(-1, 2, head_dim // 2)[:, ::-1].reshape(d)
    swap.flags.writeable = False
    return swap


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray, head_dim: int) -> Tensor:
    """Rotary positions on rows whose last axis holds heads of ``head_dim``
    features: the halves [a, b] of each head become [a cos - b sin, b cos +
    a sin]. ``cos`` holds each angle's cosine in both halves of every head
    and ``sin`` its sine, negated in the first half, so the result is ``x *
    cos + swap(x) * sin``; both broadcast against ``x``. It runs on the
    contiguous [S, L, d] projection output, before ``split_heads``."""
    swap = _half_swap(x.shape[-1], head_dim)
    out_data = x.data * cos
    swapped = x.data.take(swap, axis=-1)
    swapped *= sin
    out_data += swapped
    a = x._node

    def bw(g):
        grad = g * cos
        grad += (g * sin).take(swap, axis=-1)
        a.accum(grad, owned=True)

    return x._make(out_data, (x,), bw)


# Score of a key a query may not see. It is finite, so a query that sees no
# key at all gets a uniform row instead of NaN.
_BLOCKED_SCORE = -1e30


def blocked_keys(lq: int, lk: int, window: np.ndarray | None) -> np.ndarray | None:
    """True where a query may not see a key, [S, Lq, Lk].

    The Lq queries are the last Lq of the Lk key columns, and each sees the
    keys at or before its own column. ``window`` [S, 2] further limits row s
    to the key columns ``window[s, 0] <= j < window[s, 1]``. Without a
    window there is a single query that sees every key, and the result is
    None (``AttentionPlan`` allows no other windowless call).
    """
    if window is None:
        return None
    cols = np.arange(lk)
    last = np.arange(lk - lq, lk)  # each query's own column
    limit = np.minimum(last, window[:, 1:] - 1)  # [S, Lq]: the last key each query sees
    return (cols < window[:, :1, None]) | (cols > limit[:, :, None])


# Key columns per attention tile: a query tile ends at a multiple of this
# column (or at the last one) and scores only the keys up to its end.
_TILE = 32


def _query_tiles(lq: int, lk: int) -> list[tuple[int, int, int]]:
    """Tiles ``(r0, r1, c1)`` of the Lq queries, which sit at the last Lq of
    Lk key columns: queries ``[r0, r1)`` end at key column ``c1``, a multiple
    of ``_TILE`` or ``lk``, and see no key at or past it."""
    first = lk - lq  # the first query's column
    tiles, r0 = [], 0
    for c1 in [*range((first // _TILE + 1) * _TILE, lk, _TILE), lk]:
        tiles.append((r0, c1 - first, c1))
        r0 = c1 - first
    return tiles


class AttentionPlan:
    """What every layer call of one geometry shares: Lq query rows at the
    last Lq of Lk key columns, each row limited to the key columns of its
    ``window`` [S, 2] (``blocked_keys``), and the rotations ``cos`` and
    ``sin`` of the query rows in the form ``rope`` takes (None where nothing
    is rotated). Only a single query that sees every key, as in a GNN
    in-degree group, goes without a window; a windowless plan of more
    queries is a ``ShapeError``.

    A caller builds one plan per decode bucket, text part, set of memory
    rows or in-degree group and hands it to every layer; ``attention`` and
    its backward read the query tiles (``_query_tiles``), each tile's
    blocked keys and the rows that see no key from it. The masks are worked
    out on first use, once per plan."""

    def __init__(self, lq: int, lk: int, window: np.ndarray | None = None, cos=None, sin=None):
        if window is None and lq != 1:
            raise ShapeError(f"a plan of {lq} queries needs a window; only a single query goes without one")
        self.lq, self.lk, self.window = lq, lk, window
        self.cos, self.sin = cos, sin
        self.tiles = _query_tiles(lq, lk)

    @cached_property
    def blocked(self) -> list[np.ndarray | None]:
        """Per tile, True where a query may not see a key, broadcastable to
        its scores [S, H, r1 - r0, c1]; None for the single query of a
        windowless plan, which sees every key."""
        masks = [blocked_keys(r1 - r0, c1, self.window) for r0, r1, c1 in self.tiles]
        return masks if self.window is None else [m[:, None] for m in masks]  # one mask for every head

    @cached_property
    def dead(self) -> np.ndarray | None:
        """The [S, Lq] rows that see no key, or None if there are none."""
        if self.window is None:
            return None
        dead = np.concatenate([m[:, 0].all(axis=-1) for m in self.blocked], axis=1)
        return dead if dead.any() else None


def _probabilities(q: np.ndarray, k: np.ndarray, blocked: np.ndarray | None):
    """Attention probabilities [S, H, Lq, Lk] of queries ``q`` against the
    keys ``k``, none where ``blocked``, and the score scale."""
    p = q @ k.swapaxes(-1, -2)
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=p.dtype)
    p *= scale
    if blocked is not None:
        np.copyto(p, _BLOCKED_SCORE, where=blocked)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p, scale


def _add_prefix(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """``part`` added into the first key columns (axis 2) of ``total``, or
    ``part`` itself while there is no total yet."""
    if total is None:
        return part
    total[:, :, : part.shape[2]] += part
    return total


class AttentionOutput(NamedTuple):
    """What ``attention_kernel`` returns."""

    out: np.ndarray  # [S, Lq, H*dh]
    probabilities: list[np.ndarray]  # per query tile of the plan, [S, H, r1 - r0, c1]
    scale: np.ndarray  # the score scale 1/sqrt(dh)


def attention_kernel(q: np.ndarray, k: np.ndarray, v: np.ndarray, plan: AttentionPlan) -> AttentionOutput:
    """Causal scaled dot-product attention with merged heads, on arrays.

    ``q`` is [S, H, Lq, dh] and ``k``, ``v`` are [S, H, Lk, dh]; the output
    is [S, Lq, H*dh]. Which keys a query sees is set by the caller's
    ``plan`` (``AttentionPlan``), which must be of Lq queries over Lk keys.

    The queries run in the plan's tiles (``_query_tiles``): a tile ends at a
    key column that is a multiple of ``_TILE`` or at the last one, and
    scores and softmaxes only the keys before its end, since no query of
    the tile sees a later one. The tiles depend only on Lq and Lk; a call
    whose queries fit in one tile, such as a single query or at most
    ``_TILE`` key columns, runs as one tile over all keys.

    A query that sees no key (a pad row) outputs the mean of its tile's key
    prefix values, a finite stand-in.
    """
    s, h, lq, dh = q.shape
    if (plan.lq, plan.lk) != (lq, k.shape[2]):
        raise ShapeError(f"attention plan of {plan.lq} queries over {plan.lk} keys given {lq} over {k.shape[2]}")
    out = np.empty((s, lq, h, dh), dtype=np.result_type(q, k, v))
    kept = []
    for (r0, r1, c1), blocked in zip(plan.tiles, plan.blocked):
        p, scale = _probabilities(q[:, :, r0:r1], k[:, :, :c1], blocked)
        out[:, r0:r1] = (p @ v[:, :, :c1]).transpose(0, 2, 1, 3)
        kept.append(p)
    return AttentionOutput(out.reshape(s, lq, h * dh), kept, scale)


def attention(q: Tensor, k: Tensor, v: Tensor, plan: AttentionPlan) -> Tensor:
    """``attention_kernel`` on the tape. The backward pass runs the plan's
    query tiles and reads only each tile's kept probabilities; a query that
    sees no key passes no gradient.

    As in FlashAttention-2 (Dao 2023), the backward takes each query's
    softmax correction ``rowsum(dP * P)`` as ``rowsum(dO * O)`` over its
    head's dh output features instead of its row of scores, and applies the
    score scale to the query and key gradients rather than to the score
    block."""
    return _attention_op(q, k, v, plan, attention_kernel(q.data, k.data, v.data, plan))


def _attention_op(q: Tensor, k: Tensor, v: Tensor, plan: AttentionPlan, kernel: AttentionOutput) -> Tensor:
    """``attention`` of the ``kernel`` run that the caller made on the data
    of ``q``, ``k`` and ``v``: a caller that reads the probabilities as well
    runs the kernel once."""
    s, h, lq, dh = q.shape
    out_data, kept, scale = kernel
    q_node, k_node, v_node = q._node, k._node, v._node
    want_q, want_k, want_v = q_node.requires_grad, k_node.requires_grad, v_node.requires_grad
    want_qk = want_q or want_k
    # each gradient keeps only what it reads: the query gradient the keys,
    # the key gradient the queries, and both the values and the output
    q_data = q.data if want_k else None
    k_data = k.data if want_q else None
    v_data, o_data = (v.data, out_data) if want_qk else (None, None)

    def bw(g):
        if plan.dead is not None:
            g = np.where(plan.dead[:, :, None], 0, g)
        g = g.reshape(s, lq, h, dh)
        if want_qk:
            # [S, Lq, H]: each query's sum over its head of dO * O
            corr = np.add.reduce(g * o_data.reshape(s, lq, h, dh), axis=-1)
        # the last tile reads every key: its key and value gradients are full
        # size and take the earlier tiles' prefixes
        dqs, dk, dv = [], None, None
        for (r0, r1, c1), p in zip(reversed(plan.tiles), reversed(kept)):
            gc = g[:, r0:r1].transpose(0, 2, 1, 3)
            if want_qk:
                ds = gc @ v_data[:, :, :c1].swapaxes(-1, -2)
                ds -= corr[:, r0:r1].transpose(0, 2, 1)[..., None]
                ds *= p
                if want_q:
                    dqs.append(ds @ k_data[:, :, :c1])
                if want_k:
                    dk = _add_prefix(dk, (q_data[:, :, r0:r1].swapaxes(-1, -2) @ ds).swapaxes(-1, -2))
            if want_v:
                dv = _add_prefix(dv, p.swapaxes(-1, -2) @ gc)
        if want_q:
            dq = np.concatenate(dqs[::-1], axis=2)
            dq *= scale
            q_node.accum(dq, owned=True)
        if want_k:
            dk *= scale
            k_node.accum(dk)
        if want_v:
            v_node.accum(dv, owned=True)

    return q._make(out_data, (q, k, v), bw)


def _rms_reciprocal(x: np.ndarray, eps: float) -> np.ndarray:
    """The reciprocal root-mean-square [..., 1] of ``x`` over its last axis."""
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    return 1.0 / np.sqrt(ms + eps)


def _rms_norm_backward(g: np.ndarray, x: np.ndarray, r: np.ndarray, gain: _Node, gain_data: np.ndarray | None) -> np.ndarray | None:
    """Adds ``gain``'s gradient and returns ``x``'s for the gradient ``g``
    of ``x * r * gain_data``; None without ``gain_data``, which a caller
    keeps only when ``x`` takes a gradient. With ``xr = x * r``, ``dx = r *
    (g gain - xr mean(g gain xr))``."""
    n = x.shape[-1]
    xr = x * r  # the forward's bits, recomputed rather than kept
    if gain.requires_grad:
        gain.accum(np.add.reduce((g * xr).reshape(-1, n), axis=0), owned=True)
    if gain_data is None:
        return None
    dx = g * gain_data
    corr = np.add.reduce(dx * xr, axis=-1, keepdims=True)
    corr /= n
    xr *= corr
    dx -= xr
    dx *= r
    return dx


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """``x`` scaled by the reciprocal root-mean-square ``r`` over its last
    axis and by ``gain``. Backward keeps ``x``'s value and ``r``."""
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"rms_norm gain shape {gain.shape} does not match feature dim {x.shape[-1]}")
    x_data, x_node, gain_node = x.data, x._node, gain._node
    r = _rms_reciprocal(x_data, eps)
    out_data = x_data * r * gain.data
    gain_data = gain.data if x_node.requires_grad else None

    def bw(g):
        dx = _rms_norm_backward(g, x_data, r, gain_node, gain_data)
        if dx is not None:
            x_node.accum(dx, owned=True)

    return x._make(out_data, (x, gain), bw)


def feed_forward(x: Tensor, gain: Tensor, w1: Tensor, w2: Tensor, eps: float = 1e-6) -> Tensor:
    """The pre-norm feed-forward sub-block with its residual, ``x +
    silu(rms_norm(x, gain) @ w1) @ w2``, as one tape op.

    The forward runs the numpy sequence of ``rms_norm``, the two matrix
    products, ``Tensor.silu`` and the residual add, so its bits are theirs.
    Backward keeps the hidden pre-activation, and of the rest only what the
    wanted gradients read: the normalised rows for ``w1``'s, and ``x``'s
    value and ``r`` for ``x``'s and ``gain``'s. It keeps neither the
    activation nor the ``w2`` product, and recomputes the sigmoid."""
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"feed_forward gain shape {gain.shape} does not match feature dim {x.shape[-1]}")
    d, ff = w1.shape
    x_data = x.data
    r = _rms_reciprocal(x_data, eps)
    xn = x_data * r * gain.data
    hidden = xn @ w1.data
    act = _sigmoid(hidden)
    act *= hidden
    out_data = x_data + act @ w2.data
    x_node, gain_node, w1_node, w2_node = x._node, gain._node, w1._node, w2._node
    want_x, want_w1, want_w2 = x_node.requires_grad, w1_node.requires_grad, w2_node.requires_grad
    want_norm = want_x or gain_node.requires_grad
    want_dh = want_norm or want_w1
    # each gradient keeps only the arrays it reads
    w2_data = w2.data if want_dh else None
    xn_kept = xn if want_w1 else None
    x_kept, r_kept, w1_data = (x_data, r, w1.data) if want_norm else (None, None, None)
    gain_data = gain.data if want_x else None

    def bw(g):
        sig = _sigmoid(hidden)
        if want_w2:
            act = sig * hidden
            w2_node.accum(act.reshape(-1, ff).T @ g.reshape(-1, d), owned=True)
        if not want_dh:
            return
        # silu backward as ``Tensor.silu``: g * sig * (1 + h * (1 - sig))
        dh = np.subtract(1.0, sig)
        dh *= hidden
        dh += 1.0
        sig *= g @ w2_data.T
        dh *= sig
        del sig
        if want_w1:
            w1_node.accum(xn_kept.reshape(-1, d).T @ dh.reshape(-1, ff), owned=True)
        if want_norm:
            dx = _rms_norm_backward(dh @ w1_data.T, x_kept, r_kept, gain_node, gain_data)
            if dx is not None:
                dx += g
                x_node.accum(dx, owned=True)

    return x._make(out_data, (x, gain, w1, w2), bw)


def head_cross_entropy(
    x: Tensor, gain: Tensor, head: Tensor, targets, ignore_index: int = -100, eps: float = 1e-6
) -> tuple[Tensor, np.ndarray]:
    """Summed token NLL of each row of ``rms_norm(x, gain) @ head.T`` and
    the count of its scored positions, as one tape op that reads only the
    scored positions.

    ``x`` is [S, L, d], ``gain`` [d], ``head`` [V, d] (a decoder's tied
    embedding) and ``targets`` an int array [S, L] of class ids or
    ``ignore_index``. Returns an [S] tensor and an [S] count array. The
    forward gathers the N scored rows of ``x`` in row-major order and runs
    the numpy sequence of ``rms_norm``, the head product, a log-softmax
    and, per row, the sum of its positions' NLL in column order, as a lone
    row would; no [S, L, V] logits are made. The backward forms softmax
    minus one-hot on the [N, V] scored logits alone and scatters their
    ``x`` gradient into a zero [S, L, d]; it keeps ``x``'s shape and dtype,
    not its value.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if x.ndim != 3 or targets.shape != x.shape[:2]:
        raise ShapeError(f"head_cross_entropy expects [S, L, d] rows and [S, L] targets, got {x.shape} / {targets.shape}")
    if gain.shape != (x.shape[-1],) or head.ndim != 2 or head.shape[1] != x.shape[-1]:
        raise ShapeError(f"head_cross_entropy gain {gain.shape} and head {head.shape} do not match feature dim {x.shape[-1]}")
    v = head.shape[0]
    row, col = np.nonzero(targets != ignore_index)
    tgt = targets[row, col]
    if np.any((tgt < 0) | (tgt >= v)):
        raise ShapeError(f"target ids out of vocabulary range [0, {v})")
    counts = np.bincount(row, minlength=targets.shape[0])
    xs = x.data[row, col]  # [N, d]
    r = _rms_reciprocal(xs, eps)
    xn = xs * r * gain.data
    z = xn @ head.data.T
    z -= z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = z[np.arange(len(tgt)), tgt] - lse[:, 0]
    ends = np.cumsum(counts)
    # each row sums its own slice, as a lone [L, V] row would
    totals = np.array([-picked[e - c : e].sum() if c else 0.0 for c, e in zip(counts, ends)], dtype=x.dtype)
    x_node, gain_node, head_node = x._node, gain._node, head._node
    x_shape, x_dtype = x.shape, x.dtype
    want_head, want_norm = head_node.requires_grad, x_node.requires_grad or gain_node.requires_grad
    # each gradient keeps only the arrays it reads
    xn_kept = xn if want_head else None
    xs_kept, r_kept, head_data = (xs, r, head.data) if want_norm else (None, None, None)
    gain_data = gain.data if x_node.requires_grad else None

    def bw(g):
        if not len(tgt):
            return
        dz = np.exp(z - lse)
        dz[np.arange(len(tgt)), tgt] -= 1.0
        dz *= g[row][:, None]
        if want_head:
            head_node.accum(dz.T @ xn_kept, owned=True)
        if want_norm:
            dxs = _rms_norm_backward(dz @ head_data, xs_kept, r_kept, gain_node, gain_data)
            if dxs is not None:
                dx = np.zeros(x_shape, dtype=x_dtype)
                dx[row, col] = dxs
                x_node.accum(dx, owned=True)

    return x._make(totals, (x, gain, head), bw), counts


def global_grad_norm(tensors: list[Tensor]) -> float:
    sq = 0.0
    for t in tensors:
        if t.grad is not None:
            sq += float((t.grad * t.grad).sum())
    return float(np.sqrt(sq))
