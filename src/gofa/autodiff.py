"""Dense tensors with tape-based reverse-mode automatic differentiation.

Every operation records its inputs and an adjoint rule on the value it
produces; ``backward`` on a scalar walks the tape in reverse topological
order and accumulates gradients into ``.grad`` buffers. 64-bit floats are
the default so finite-difference checks are meaningful; 32-bit is an
opt-in via the ``dtype`` argument on leaf tensors.

The tape is confined to a single thread. ``no_grad()`` suspends recording
for inference paths.
"""

from __future__ import annotations

import contextlib

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


class NonFiniteError(FloatingPointError):
    """Raised by validation passes when NaN/Inf values are detected."""


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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_owned")

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

    def validate_finite(self, label: str = "tensor") -> None:
        if not np.all(np.isfinite(self.data)):
            bad = int(np.sum(~np.isfinite(self.data)))
            raise NonFiniteError(f"{label}: {bad} non-finite value(s) detected")

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
            out._parents = parents
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

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

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

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accum(_unbroadcast(-g * self.data / (other.data * other.data), other.shape), owned=True)

        return self._make(out_data, (self, other), bw)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise ShapeError("pow exponent must be a python scalar")
        out_data = self.data**p

        def bw(g):
            self._accum(g * p * self.data ** (p - 1), owned=True)

        return self._make(out_data, (self,), bw)

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.data.shape[-1] != other.data.shape[-2]:
            raise ShapeError(f"matmul shape mismatch: {self.shape} @ {other.shape}")
        out_data = self.data @ other.data

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g @ other.data.swapaxes(-1, -2), self.shape), owned=True)
            if other.requires_grad:
                if other.data.ndim == 2 and g.ndim > 2:
                    # stacked activations against a flat weight: fold the
                    # batch into one GEMM instead of summing a stack
                    k = self.data.shape[-1]
                    gb = self.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
                    other._accum(gb, owned=True)
                else:
                    other._accum(_unbroadcast(self.data.swapaxes(-1, -2) @ g, other.shape), owned=True)

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

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def bw(g):
            self._accum(g.transpose(inv))

        return self._make(self.data.transpose(axes), (self,), bw)

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

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities --------------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)

        def bw(g):
            self._accum(g * (1.0 - out_data * out_data), owned=True)

        return self._make(out_data, (self,), bw)

    def exp(self):
        out_data = np.exp(self.data)

        def bw(g):
            self._accum(g * out_data, owned=True)

        return self._make(out_data, (self,), bw)

    def log(self):
        def bw(g):
            self._accum(g / self.data, owned=True)

        return self._make(np.log(self.data), (self,), bw)

    def silu(self):
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out_data = self.data * sig

        def bw(g):
            self._accum(g * sig * (1.0 + self.data * (1.0 - sig)), owned=True)

        return self._make(out_data, (self,), bw)


# -- free functions -------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            t._accum(g[tuple(idx)])

    return tensors[0]._make(out_data, tuple(tensors), bw)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    return concat([t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors], axis=axis)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Rows of ``x`` selected along axis 0; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    out_data = x.data[idx]

    def bw(g):
        if not x.requires_grad:
            return
        full = np.zeros(x.shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        x._accum(full, owned=True)

    return x._make(out_data, (x,), bw)


def segment_sum(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``x`` (axis 0) into ``num_segments`` buckets."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = np.zeros((num_segments,) + x.shape[1:], dtype=x.data.dtype)
    np.add.at(out_data, segment_ids, x.data)

    def bw(g):
        x._accum(g[segment_ids], owned=True)

    return x._make(out_data, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; rows sum to 1 along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accum(out_data * (g - dot), owned=True)

    return x._make(out_data, (x,), bw)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """Scale by the reciprocal root-mean-square over the last axis."""
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"rms_norm gain shape {gain.shape} does not match feature dim {x.shape[-1]}")
    ms = (x.data * x.data).mean(axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(ms + eps)
    out_data = x.data * r * gain.data
    n = x.shape[-1]

    def bw(g):
        if x.requires_grad:
            inner = (g * gain.data * x.data).sum(axis=-1, keepdims=True)
            x._accum(g * gain.data * r - x.data * (r**3) * inner / n, owned=True)
        if gain.requires_grad:
            gg = g * x.data * r
            gain._accum(gg.reshape(-1, n).sum(axis=0), owned=True)

    return x._make(out_data, (x, gain), bw)


def cross_entropy_sum(logits: Tensor, targets, ignore_index: int = -100) -> tuple[Tensor, int]:
    """Summed token NLL and the count of scored positions.

    ``logits`` is [N, V]; ``targets`` an int array of length N whose entries
    are class ids or ``ignore_index``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy expects [N, V] logits and [N] targets, got {logits.shape} / {targets.shape}")
    valid = targets != ignore_index
    count = int(valid.sum())
    v = logits.shape[1]
    if np.any((targets[valid] < 0) | (targets[valid] >= v)):
        raise ShapeError(f"target ids out of vocabulary range [0, {v})")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.nonzero(valid)[0]
    nll = -logp[rows, targets[rows]].sum() if count else 0.0

    def bw(g):
        grad = np.zeros_like(logits.data)
        if count:
            sm = np.exp(logp[rows])
            sm[np.arange(len(rows)), targets[rows]] -= 1.0
            grad[rows] = sm * g
        logits._accum(grad, owned=True)

    out = logits._make(np.asarray(nll), (logits,), bw)
    return out, count


def cross_entropy(logits: Tensor, targets, ignore_index: int = -100) -> Tensor:
    """Mean NLL over non-ignored positions; errors on an empty batch."""
    total, count = cross_entropy_sum(logits, targets, ignore_index)
    if count == 0:
        raise ShapeError("cross_entropy: no effective targets (all ignored)")
    return total * (1.0 / count)


def global_grad_norm(tensors: list[Tensor]) -> float:
    sq = 0.0
    for t in tensors:
        if t.grad is not None:
            sq += float((t.grad * t.grad).sum())
    return float(np.sqrt(sq))
