"""Dense tensors with tape-based reverse-mode automatic differentiation.

Every operation records its inputs and an adjoint rule on the value it
produces; ``backward`` on a scalar walks the tape in reverse topological
order and accumulates gradients into ``.grad`` buffers. 64-bit floats are
the default so finite-difference checks are meaningful; 32-bit is an
opt-in via the ``dtype`` argument on leaf tensors.

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


class Tensor:
    # __weakref__ lets tests see when the tape lets go of a tensor
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_owned", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._grad_owned = True

    # -- basics -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- tape -------------------------------------------------------------

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._grad_owned = True
        out._parents = ()
        out._backward = None
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if out.requires_grad:
            # backward walks only parents that take a gradient; keeping the
            # others would hold frozen inputs alive until backward runs
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def backward(self) -> None:
        """Populate ``.grad`` of every reachable tensor, then release the tape."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        visited = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        if self.grad is None:
            self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None
            if node is not self:
                node._parents = ()
                node._backward = None

    def _accum(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``owned=True`` promises the buffer is freshly allocated and
        unaliased, so it can be adopted without a copy. Unowned buffers
        may be views of an upstream gradient; leaves copy them right away
        (optimizers mutate leaf grads in place), interior nodes adopt the
        alias and only copy if a second accumulation arrives.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned or self._backward is not None:
                self.grad = grad
                self._grad_owned = owned
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
                self._grad_owned = True
        else:
            if not self._grad_owned:
                self.grad = np.array(self.grad, copy=True)
                self._grad_owned = True
            self.grad += grad

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self.data.dtype)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(g):
            self._accum(-g, owned=True)

        return self._make(-self.data, (self,), bw)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.shape), owned=True)

        return self._make(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.data.shape[-1] != other.data.shape[-2]:
            raise ShapeError(f"matmul shape mismatch: {self.shape} @ {other.shape}")
        a, b = self.data, other.data
        out_data = a @ b
        # a frozen operand is kept by its data only
        x = self if self.requires_grad else None
        w = other if other.requires_grad else None

        def bw(g):
            if x is not None:
                x._accum(_unbroadcast(g @ b.swapaxes(-1, -2), a.shape), owned=True)
            if w is not None:
                if b.ndim == 2 and g.ndim > 2:
                    # stacked activations against a flat weight: fold the
                    # batch into one GEMM instead of summing a stack
                    gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                    w._accum(gb, owned=True)
                else:
                    w._accum(_unbroadcast(a.swapaxes(-1, -2) @ g, b.shape), owned=True)

        return self._make(out_data, (self, other), bw)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        src_shape = self.shape

        def bw(g):
            self._accum(g.reshape(src_shape))

        return self._make(out_data, (self,), bw)

    def swapaxes(self, a: int, b: int):
        def bw(g):
            self._accum(g.swapaxes(a, b))

        return self._make(self.data.swapaxes(a, b), (self,), bw)

    def __getitem__(self, key):
        out_data = self.data[key]
        src_shape = self.shape

        def bw(g):
            if not self.requires_grad:
                return
            full = np.zeros(src_shape, dtype=g.dtype)
            full[key] = g
            self._accum(full, owned=True)

        return self._make(out_data, (self,), bw)

    def broadcast_to(self, shape):
        shape = tuple(shape)
        out_data = np.broadcast_to(self.data, shape).copy()

        def bw(g):
            self._accum(_unbroadcast(g, self.shape), owned=True)

        return self._make(out_data, (self,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.shape

        def bw(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            self._accum(np.broadcast_to(gg, src_shape).copy(), owned=True)

        return self._make(np.asarray(out_data), (self,), bw)

    # -- elementwise nonlinearities --------------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)

        def bw(g):
            self._accum(g * (1.0 - out_data * out_data), owned=True)

        return self._make(out_data, (self,), bw)

    def silu(self):
        out_data = _sigmoid(self.data)
        out_data *= self.data

        def bw(g):
            # recomputed rather than kept: one array less per call until backward;
            # g * sig * (1 + x * (1 - sig)) in place, in that order
            sig = _sigmoid(self.data)
            grad = np.subtract(1.0, sig)
            grad *= self.data
            grad += 1.0
            sig *= g
            sig *= grad
            self._accum(sig, owned=True)

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
    parts = [(t, start, stop) for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]) if t.requires_grad]

    def bw(g):
        for t, start, stop in parts:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            t._accum(g[tuple(idx)])

    return tensors[0]._make(out_data, tuple(tensors), bw)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Rows of ``x`` selected along axis 0; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    out_data = x.data[idx]

    def bw(g):
        if not x.requires_grad:
            return
        # one bin per element of x; each bin adds its rows in index order from
        # 0.0, as np.add.at would, but in one pass
        width = math.prod(x.shape[1:])
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        full = np.bincount(flat, weights=g.reshape(-1), minlength=x.size)
        x._accum(full.astype(g.dtype, copy=False).reshape(x.shape), owned=True)

    return x._make(out_data, (x,), bw)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """View [S, L, ...] as H heads [S, H, L, dh]: the trailing axes of each
    row, flattened, are the H*dh features."""
    s, seq_len = x.shape[:2]
    out_data = x.data.reshape(s, seq_len, n_heads, math.prod(x.shape[2:]) // n_heads).transpose(0, 2, 1, 3)

    def bw(g):
        x._accum(g.transpose(0, 2, 1, 3).reshape(x.shape))

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

    def bw(g):
        grad = g * cos
        grad += (g * sin).take(swap, axis=-1)
        x._accum(grad, owned=True)

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

    def bw(g):
        if plan.dead is not None:
            g = np.where(plan.dead[:, :, None], 0, g)
        g = g.reshape(s, lq, h, dh)
        if q.requires_grad or k.requires_grad:
            # [S, Lq, H]: each query's sum over its head of dO * O
            corr = np.add.reduce(g * out_data.reshape(s, lq, h, dh), axis=-1)
        # the last tile reads every key: its key and value gradients are full
        # size and take the earlier tiles' prefixes
        dqs, dk, dv = [], None, None
        for (r0, r1, c1), p in zip(reversed(plan.tiles), reversed(kept)):
            gc = g[:, r0:r1].transpose(0, 2, 1, 3)
            if q.requires_grad or k.requires_grad:
                ds = gc @ v.data[:, :, :c1].swapaxes(-1, -2)
                ds -= corr[:, r0:r1].transpose(0, 2, 1)[..., None]
                ds *= p
                if q.requires_grad:
                    dqs.append(ds @ k.data[:, :, :c1])
                if k.requires_grad:
                    dk = _add_prefix(dk, (q.data[:, :, r0:r1].swapaxes(-1, -2) @ ds).swapaxes(-1, -2))
            if v.requires_grad:
                dv = _add_prefix(dv, p.swapaxes(-1, -2) @ gc)
        if q.requires_grad:
            dq = np.concatenate(dqs[::-1], axis=2)
            dq *= scale
            q._accum(dq, owned=True)
        if k.requires_grad:
            dk *= scale
            k._accum(dk)
        if v.requires_grad:
            v._accum(dv, owned=True)

    return q._make(out_data, (q, k, v), bw)


def _rms_reciprocal(x: np.ndarray, eps: float) -> np.ndarray:
    """The reciprocal root-mean-square [..., 1] of ``x`` over its last axis."""
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    return 1.0 / np.sqrt(ms + eps)


def _rms_norm_backward(g: np.ndarray, x: np.ndarray, r: np.ndarray, gain: Tensor, want_dx: bool) -> np.ndarray | None:
    """Adds ``gain``'s gradient and returns ``x``'s (None unless
    ``want_dx``) for the gradient ``g`` of ``x * r * gain``. With ``xr = x *
    r``, ``dx = r * (g gain - xr mean(g gain xr))``."""
    n = x.shape[-1]
    xr = x * r  # the forward's bits, recomputed rather than kept
    if gain.requires_grad:
        gain._accum(np.add.reduce((g * xr).reshape(-1, n), axis=0), owned=True)
    if not want_dx:
        return None
    dx = g * gain.data
    corr = np.add.reduce(dx * xr, axis=-1, keepdims=True)
    corr /= n
    xr *= corr
    dx -= xr
    dx *= r
    return dx


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """``x`` scaled by the reciprocal root-mean-square ``r`` over its last
    axis and by ``gain``."""
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"rms_norm gain shape {gain.shape} does not match feature dim {x.shape[-1]}")
    r = _rms_reciprocal(x.data, eps)
    out_data = x.data * r * gain.data

    def bw(g):
        dx = _rms_norm_backward(g, x.data, r, gain, x.requires_grad)
        if dx is not None:
            x._accum(dx, owned=True)

    return x._make(out_data, (x, gain), bw)


def feed_forward(x: Tensor, gain: Tensor, w1: Tensor, w2: Tensor, eps: float = 1e-6) -> Tensor:
    """The pre-norm feed-forward sub-block with its residual, ``x +
    silu(rms_norm(x, gain) @ w1) @ w2``, as one tape op.

    The forward runs the numpy sequence of ``rms_norm``, the two matrix
    products, ``Tensor.silu`` and the residual add, so its bits are theirs.
    It keeps the normalised rows and the hidden pre-activation for backward,
    not the activation or the ``w2`` product, and recomputes the sigmoid."""
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"feed_forward gain shape {gain.shape} does not match feature dim {x.shape[-1]}")
    d, ff = w1.shape
    r = _rms_reciprocal(x.data, eps)
    xn = x.data * r * gain.data
    hidden = xn @ w1.data
    act = _sigmoid(hidden)
    act *= hidden
    out_data = x.data + act @ w2.data

    def bw(g):
        sig = _sigmoid(hidden)
        if w2.requires_grad:
            act = sig * hidden
            w2._accum(act.reshape(-1, ff).T @ g.reshape(-1, d), owned=True)
        if not (x.requires_grad or gain.requires_grad or w1.requires_grad):
            return
        # silu backward as ``Tensor.silu``: g * sig * (1 + h * (1 - sig))
        dh = np.subtract(1.0, sig)
        dh *= hidden
        dh += 1.0
        sig *= g @ w2.data.T
        dh *= sig
        del sig
        if w1.requires_grad:
            w1._accum(xn.reshape(-1, d).T @ dh.reshape(-1, ff), owned=True)
        if x.requires_grad or gain.requires_grad:
            dx = _rms_norm_backward(dh @ w1.data.T, x.data, r, gain, x.requires_grad)
            if dx is not None:
                dx += g
                x._accum(dx, owned=True)

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
    ``x`` gradient into a zero [S, L, d].
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

    def bw(g):
        if not len(tgt):
            return
        dz = np.exp(z - lse)
        dz[np.arange(len(tgt)), tgt] -= 1.0
        dz *= g[row][:, None]
        if head.requires_grad:
            head._accum(dz.T @ xn, owned=True)
        if x.requires_grad or gain.requires_grad:
            dxs = _rms_norm_backward(dz @ head.data, xs, r, gain, x.requires_grad)
            if dxs is not None:
                dx = np.zeros_like(x.data)
                dx[row, col] = dxs
                x._accum(dx, owned=True)

    return x._make(totals, (x, gain, head), bw), counts


def global_grad_norm(tensors: list[Tensor]) -> float:
    sq = 0.0
    for t in tensors:
        if t.grad is not None:
            sq += float((t.grad * t.grad).sum())
    return float(np.sqrt(sq))
