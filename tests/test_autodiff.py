import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofa.autodiff import (
    AttentionPlan,
    ShapeError,
    Tensor,
    attention,
    concat,
    feed_forward,
    gather_rows,
    global_grad_norm,
    head_cross_entropy,
    no_grad,
    rms_norm,
    rope,
    split_heads,
)

from conftest import GRAD_RTOL, assert_grad_close, assert_grads_match, finite_difference, full_windows


def check_op(build, tensors, max_coords=None, rng=None, rel_tol=1e-4):
    """FD-check the scalar produced by ``build()`` against every tensor."""
    loss = build()
    loss.backward()
    grads = [t.grad.copy() for t in tensors]
    for ti, c, fd in finite_difference(lambda: build().item(), tensors, max_coords=max_coords, rng=rng):
        assert_grad_close(grads[ti].reshape(-1)[c], fd, rel_tol=rel_tol)


class TestBasicOps:
    def test_identity_matmul(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        eye = Tensor(np.eye(3))
        assert np.allclose((x @ eye).data, x.data)

    def test_matmul_shapes(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(3, 4)))
        assert (a @ b).shape == (2, 4)
        with pytest.raises(ShapeError, match="2, 3"):
            _ = a @ Tensor(rng.normal(size=(2, 3)))

    def test_matmul_gradient_vs_fd(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        up = Tensor(rng.normal(size=(2, 4)))
        check_op(lambda: ((x @ w) * up).sum(), [x, w])

    def test_matmul_grad_wrt_w_is_xT_upstream(self, rng):
        x = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        up = rng.normal(size=(5, 2))
        loss = ((x @ w) * Tensor(up)).sum()
        loss.backward()
        assert np.allclose(w.grad, x.data.T @ up, rtol=1e-12)

    def test_batched_matmul_gradient(self, rng):
        a = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)  # broadcast over batch
        up = Tensor(rng.normal(size=(4, 2, 5)))
        check_op(lambda: ((a @ b) * up).sum(), [a, b])

    def test_elementwise_and_broadcast_gradients(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        check_op(lambda: ((a * b + b) * (a - 2.0)).sum(), [a, b])

    def test_nonlinearity_gradients(self, rng):
        x = Tensor(rng.normal(size=(8,)), requires_grad=True)
        check_op(lambda: (x.tanh() + x.silu()).sum(), [x])

    def test_square_derivative(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [6.0])

    def test_slice_concat_transpose_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

        def build():
            top = x[:2]
            bottom = x[2:]
            y = concat([top.swapaxes(0, 1), bottom.swapaxes(0, 1)], axis=1)
            return (y * y).sum()

        check_op(build, [x])

    def test_gather_gradients(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])

        def build():
            rows = gather_rows(x, idx)
            return (rows * rows).sum()

        check_op(build, [x])

    def test_sum_axis_gradients(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)

        def build():
            y = (x.sum(axis=1) * 0.25).sum(axis=0, keepdims=True)
            return (y * y).sum()

        check_op(build, [x])

    def test_broadcast_to_gradient(self, rng):
        x = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        up = Tensor(rng.normal(size=(3, 4)))
        check_op(lambda: (x.broadcast_to((3, 4)) * up).sum(), [x])


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over each row of x [R, n], computed by ``attention``: one
    query per row over n one-hot keys whose values are one-hot too, so the
    output is the probability row itself."""
    r, n = x.shape
    eye = Tensor(np.broadcast_to(np.eye(n), (r, 1, n, n)))
    return attention((x * np.sqrt(n)).reshape(r, 1, 1, n), eye, eye, AttentionPlan(1, n)).reshape(r, n)


class TestSoftmax:
    """The softmax inside ``attention``."""

    def test_uniform_logits(self):
        out = softmax_rows(Tensor(np.zeros((2, 5))))
        assert np.allclose(out.data, 0.2)

    def test_analytic_two_entry(self):
        out = softmax_rows(Tensor(np.array([[0.0, np.log(3.0)]])))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = softmax_rows(Tensor(rng.normal(size=(7, 9)) * 30))
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient_vs_fd(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        up = Tensor(rng.normal(size=(3, 5)))
        check_op(lambda: (softmax_rows(x) * up).sum(), [x])


class TestRmsNorm:
    def test_constant_vector(self):
        gain = Tensor(np.full(4, 2.0))
        x = Tensor(np.full((1, 4), 3.0))
        out = rms_norm(x, gain)
        # rms of a constant vector c is |c|, so output is gain * sign(c).
        assert np.allclose(out.data, 2.0, atol=1e-6)

    def test_zero_input_uses_epsilon(self):
        out = rms_norm(Tensor(np.zeros((2, 8))), Tensor(np.ones(8)))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, 0.0)

    def test_gradient_vs_fd(self, rng):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=(6,)) + 1.0, requires_grad=True)
        up = Tensor(rng.normal(size=(3, 6)))
        check_op(lambda: (rms_norm(x, g) * up).sum(), [x, g])

    def test_gradient_vs_fd_3d(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        g = Tensor(rng.normal(size=(4,)) + 1.0, requires_grad=True)
        up = Tensor(rng.normal(size=(2, 3, 4)))
        check_op(lambda: (rms_norm(x, g) * up).sum(), [x, g])


class TestCrossEntropy:
    """``head_cross_entropy`` over one row of targets: its summed NLL over
    the count of scored positions is the mean token NLL of the logits
    ``rms_norm(x, gain) @ head.T``."""

    def test_uniform_logits_value(self):
        # zero rows normalise to zero, so every logit is zero
        totals, counts = head_cross_entropy(
            Tensor(np.zeros((1, 3, 8))), Tensor(np.ones(8)), Tensor(np.ones((16, 8))), np.array([[1, 5, 9]])
        )
        assert np.allclose(totals.data[0] / counts[0], np.log(16.0), atol=1e-12)

    def test_confident_correct_near_zero(self):
        # a one-hot row normalises to sqrt(8) at its class, whose head row is 50 there
        x = np.zeros((1, 2, 8))
        x[0, 0, 3] = 1.0
        x[0, 1, 1] = 1.0
        totals, counts = head_cross_entropy(Tensor(x), Tensor(np.ones(8)), Tensor(50.0 * np.eye(8)), np.array([[3, 1]]))
        assert totals.data[0] / counts[0] < 1e-6

    def test_ignore_index(self):
        totals, counts = head_cross_entropy(
            Tensor(np.zeros((1, 4, 4))), Tensor(np.ones(4)), Tensor(np.ones((4, 4))), np.array([[0, -100, 2, -100]])
        )
        assert counts.tolist() == [2]
        assert np.allclose(totals.data[0], 2 * np.log(4.0))

    def test_out_of_vocab_errors(self):
        with pytest.raises(ShapeError):
            head_cross_entropy(Tensor(np.zeros((1, 1, 4))), Tensor(np.ones(4)), Tensor(np.ones((4, 4))), np.array([[4]]))

    def test_gradient_vs_fd(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True)
        gain = Tensor(rng.normal(size=8) + 1.0, requires_grad=True)
        head = Tensor(rng.normal(size=(16, 8)), requires_grad=True)
        targets = np.array([[3, -100, 7, 11]])
        check_op(lambda: head_cross_entropy(x, gain, head, targets)[0].sum() * (1.0 / 3), [x, gain, head])


# -- the composed chain the fused ops replaced, kept as their reference ---------------

REF_MASK_VALUE = -1e30  # the additive mask value of the composed chain


def ref_softmax(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        x._accum(out_data * (g - dot), owned=True)

    return x._make(out_data, (x,), bw)


def ref_heads(t: Tensor, n_heads: int) -> Tensor:
    s, seq_len, d = t.shape
    return t.reshape(s, seq_len, n_heads, d // n_heads).swapaxes(1, 2)


def ref_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary positions from cosines and sines of each half's angles, taken
    from the tables in the form ``rope`` reads them."""
    half = x.shape[-1] // 2
    a, b = x[..., :half], x[..., half:]
    cos_t, sin_t = Tensor(cos[..., :half], dtype=cos.dtype), Tensor(sin[..., half:], dtype=sin.dtype)
    return concat([a * cos_t - b * sin_t, b * cos_t + a * sin_t], axis=-1)


def ref_mask(s: int, lq: int, lk: int, window, dtype) -> np.ndarray:
    """Dense additive mask, one entry at a time: query i sits at column
    lk - lq + i and sees the keys of its row's window at or before it."""
    mask = np.full((s, 1, lq, lk), REF_MASK_VALUE, dtype=dtype)
    for r in range(s):
        lo, hi = (0, lk) if window is None else window[r]
        for i in range(lq):
            for j in range(lo, min(hi, lk - lq + i + 1)):
                mask[r, 0, i, j] = 0.0
    return mask


def ref_attention(q: Tensor, k: Tensor, v: Tensor, window=None) -> Tensor:
    s, h, lq, dh = q.shape
    lk = k.shape[2]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dh))
    scores = scores + Tensor(ref_mask(s, lq, lk, window, scores.dtype), dtype=scores.dtype)
    return (ref_softmax(scores) @ v).swapaxes(1, 2).reshape(s, lq, h * dh)


def ref_cross_entropy_sum(logits: Tensor, targets) -> Tensor:
    """Summed NLL of one [L, V] row, as the per-target loss computed it."""
    valid = targets != -100
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.nonzero(valid)[0]
    nll = -logp[rows, targets[rows]].sum()

    def bw(g):
        grad = np.zeros_like(logits.data)
        sm = np.exp(logp[rows])
        sm[np.arange(len(rows)), targets[rows]] -= 1.0
        grad[rows] = sm * g
        logits._accum(grad, owned=True)

    return logits._make(np.asarray(nll), (logits,), bw)


def ref_cross_entropy_rows(logits: Tensor, targets) -> tuple[Tensor, np.ndarray]:
    """Summed NLL and scored count of each [L, V] row of [S, L, V] logits,
    the loss op that took the decoder's full logits before
    ``head_cross_entropy`` took its rows."""
    row, col = np.nonzero(targets != -100)
    tgt = targets[row, col]
    counts = np.bincount(row, minlength=targets.shape[0])
    z = logits.data[row, col]
    z -= z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = z[np.arange(len(tgt)), tgt] - lse[:, 0]
    ends = np.cumsum(counts)
    totals = np.array([-picked[e - c : e].sum() if c else 0.0 for c, e in zip(counts, ends)], dtype=logits.dtype)

    def bw(g):
        grad = np.zeros_like(logits.data)
        sm = np.exp(z - lse)
        sm[np.arange(len(tgt)), tgt] -= 1.0
        grad[row, col] = sm * g[row][:, None]
        logits._accum(grad, owned=True)

    return logits._make(totals, (logits,), bw), counts


def dead_rows(lq: int, lk: int, window) -> np.ndarray:
    """[S, Lq]: queries whose window holds no key at or before their column."""
    last = np.arange(lk - lq, lk)
    return window[:, :1] > np.minimum(last, window[:, 1:] - 1)


def rotations(rng, s: int, lk: int, half: int, dtype):
    """Rotations [S, 1, Lk, 2*half] of random per-row positions, in the
    form ``rope`` takes: cosines in both halves, sines negated in the first."""
    inv = 10000.0 ** (-np.arange(half) * 2.0 / (2 * half))
    angles = rng.integers(0, 64, (s, lk))[:, None, :, None] * inv
    cos, sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    return np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)


def rows_of_heads(table: np.ndarray, n_heads: int) -> np.ndarray:
    """A rotation table [S, 1, L, dh] of ``rotations`` repeated for every
    head of a [S, L, H*dh] projection, the layout ``rope`` rotates."""
    return np.tile(table[:, 0], n_heads)


def plan_of(q: Tensor, k: Tensor, window=None) -> AttentionPlan:
    """The plan of queries ``q`` [S, H, Lq, dh] at the last columns of keys
    ``k`` [S, H, Lk, dh] under ``window``. Without one, a single query sees
    every key, as in a GNN in-degree group, and more queries get full
    windows: plain causal attention."""
    s, _, lq, _ = q.shape
    if window is None and lq > 1:
        window = full_windows(s, k.shape[2])
    return AttentionPlan(lq, k.shape[2], window)


def leaf(rng, shape, dtype=np.float64) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)


class TestFusedAttentionChain:
    """``split_heads``, ``rope`` and ``attention`` against the composed chain
    of reshape, transpose, getitem, mul, concat, an additive dense mask and
    softmax that they replaced: the same forward bits, and gradients within
    rounding of the chain's (``assert_grads_match``), since the fused
    backward takes the softmax correction from the output rows and scales
    the query and key gradients rather than the scores."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.data(),
        st.sampled_from([np.float32, np.float64]), st.booleans(), st.integers(0, 2**31 - 1),
    )
    def test_forward_bit_equal_and_gradients_close_to_composed_chain(self, s, h, half, lk, data, dtype, windowed, seed):
        lq = data.draw(st.integers(1, lk))
        rng = np.random.default_rng(seed)
        d = h * 2 * half
        window = full_windows(s, lk)
        up = rng.normal(size=(s, lq, d)).astype(dtype)
        if windowed:
            lo = rng.integers(0, lk, s)
            window = np.stack([lo, rng.integers(lo + 1, lk + 1)], axis=1)
            # the composed chain passes gradient from rows that see no key; the fused op does not
            up[dead_rows(lq, lk, window)] = 0.0
        cos, sin = rotations(rng, s, lk, half, dtype)
        xq, xk, xv = leaf(rng, (s, lq, d), dtype), leaf(rng, (s, lk, d), dtype), leaf(rng, (s, lk, d), dtype)
        # the fused op rotates the [S, L, d] projection before splitting heads
        flat_cos, flat_sin = rows_of_heads(cos, h), rows_of_heads(sin, h)
        chains = (
            lambda: attention(
                split_heads(rope(xq, flat_cos[:, lk - lq :], flat_sin[:, lk - lq :], 2 * half), h),
                split_heads(rope(xk, flat_cos, flat_sin, 2 * half), h),
                split_heads(xv, h),
                AttentionPlan(lq, lk, window),
            ),
            lambda: ref_attention(
                ref_rope(ref_heads(xq, h), cos[:, :, lk - lq :], sin[:, :, lk - lq :]),
                ref_rope(ref_heads(xk, h), cos, sin),
                ref_heads(xv, h),
                window,
            ),
        )
        results = []
        for chain in chains:
            for t in (xq, xk, xv):
                t.zero_grad()
            out = chain()
            (out * Tensor(up, dtype=dtype)).sum().backward()
            results.append([out.data] + [t.grad for t in (xq, xk, xv)])
        (fused_out, *fused_grads), (ref_out, *ref_grads) = results
        assert fused_out.dtype == ref_out.dtype == dtype and np.array_equal(fused_out, ref_out)
        scale = max(np.abs(ref).max() for ref in ref_grads)
        for fused, ref in zip(fused_grads, ref_grads):
            assert fused.dtype == ref.dtype == dtype
            assert_grads_match(fused, ref, scale)

    def test_rows_that_see_no_key_stay_finite_and_pass_no_gradient(self, rng):
        q, k, v = (leaf(rng, (2, 2, 5, 4)) for _ in range(3))
        q.data *= 1e3  # scores far beyond any real key's
        window = np.array([[2, 5], [0, 5]])  # row 0: columns 0 and 1 are padding
        out = attention(q, k, v, plan_of(q, k, window))
        assert np.all(np.isfinite(out.data))
        mean_v = v.data.mean(axis=2).reshape(2, 1, 8)  # a dead row averages every value
        np.testing.assert_allclose(out.data[0, :2], np.broadcast_to(mean_v[0], (2, 8)), rtol=1e-12)
        up = np.zeros(out.shape)
        up[0, :2] = rng.normal(size=(2, 8))
        (out * Tensor(up)).sum().backward()
        for t in (q, k, v):
            assert np.all(np.isfinite(t.grad)) and not np.any(t.grad)

    def test_float32_stays_float32(self, rng):
        f32 = np.float32
        x, gain = leaf(rng, (2, 5, 8), f32), Tensor(np.ones(8), requires_grad=True, dtype=f32)
        cos, sin = (rows_of_heads(t, 2) for t in rotations(rng, 2, 5, 2, f32))
        xn = rms_norm(x, gain)
        q = split_heads(rope(xn, cos, sin, 4), 2)
        out = attention(q, q, split_heads(xn, 2), plan_of(q, q, np.array([[1, 5], [0, 3]])))
        totals, _ = head_cross_entropy(out, gain, Tensor(rng.normal(size=(11, 8)), dtype=f32), rng.integers(0, 11, (2, 5)))
        for t in (xn, q, out, totals):
            assert t.dtype == f32
        totals.sum().backward()
        assert x.grad.dtype == f32 and gain.grad.dtype == f32

    def test_rms_norm_mean_square_bit_equal_to_mean(self, rng):
        for dtype in (np.float32, np.float64):
            x = rng.normal(size=(3, 5, 7)).astype(dtype)
            gain = rng.normal(size=7).astype(dtype)
            want = x * (1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-6)) * gain
            got = rms_norm(Tensor(x, dtype=dtype), Tensor(gain, dtype=dtype)).data
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


class TestFeedForward:
    """``feed_forward`` against the ops it fuses: ``rms_norm``, two matrix
    products, ``silu`` and the residual add."""

    @staticmethod
    def _composed(x, gain, w1, w2):
        return x + (rms_norm(x, gain) @ w1).silu() @ w2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_equal_and_gradients_close_to_composed_ops(self, rng, dtype):
        tensors = [leaf(rng, (3, 5, 8), dtype), leaf(rng, (8,), dtype), leaf(rng, (8, 32), dtype), leaf(rng, (32, 8), dtype)]
        up = Tensor(rng.normal(size=(3, 5, 8)), dtype=dtype)
        results = []
        for op in (feed_forward, self._composed):
            for t in tensors:
                t.zero_grad()
            out = op(*tensors)
            (out * up).sum().backward()
            results.append([out.data] + [t.grad for t in tensors])
        (fused_out, *fused_grads), (ref_out, *ref_grads) = results
        assert fused_out.dtype == dtype and fused_out.tobytes() == ref_out.tobytes()
        for fused, ref in zip(fused_grads, ref_grads):
            assert_grads_match(fused, ref)

    def test_frozen_inputs_take_no_gradient(self, rng):
        x, gain = leaf(rng, (2, 3, 4)), Tensor(np.ones(4))
        w1, w2 = Tensor(rng.normal(size=(4, 8))), leaf(rng, (8, 4))
        feed_forward(x, gain, w1, w2).sum().backward()
        assert gain.grad is None and w1.grad is None
        assert x.grad.shape == x.shape and w2.grad.shape == w2.shape


class TestAttentionPlan:
    """Every attention call takes its caller's plan; only a single query
    that sees every key, a GNN in-degree group's, goes without a window."""

    def test_only_a_single_query_goes_without_a_window(self):
        plan = AttentionPlan(1, 40)
        assert plan.tiles == [(0, 1, 40)] and plan.blocked == [None] and plan.dead is None
        for lq in (2, 40):
            with pytest.raises(ShapeError, match="needs a window"):
                AttentionPlan(lq, 40)

    def test_a_plan_of_other_counts_is_a_shape_error(self, rng):
        q, k = leaf(rng, (1, 2, 3, 4)), leaf(rng, (1, 2, 5, 4))
        with pytest.raises(ShapeError, match="plan of 3 queries over 6 keys given 3 over 5"):
            attention(q, k, k, AttentionPlan(3, 6, full_windows(1, 6)))


class TestTiledAttention:
    """``attention`` scores a query tile only against the keys up to its last
    column, a multiple of 32 or Lk; the dense-mask chain scores every key."""

    @staticmethod
    def _windows(lk: int) -> np.ndarray:
        # left padding that leaves whole tiles of pad rows, right padding, both
        return np.array([[min(lk - 1, 40), lk], [0, lk - lk // 3], [lk // 4, lk - 2], [0, lk]])

    @pytest.mark.parametrize("lk", [31, 32, 33, 63, 64, 65, 100, 132])
    @pytest.mark.parametrize("queries", ["one", "memory", "all"])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_matches_dense_mask_chain(self, lk, queries, windowed):
        rng = np.random.default_rng(lk)
        lq = {"one": 1, "memory": 4, "all": lk}[queries]
        window = self._windows(lk) if windowed else None
        s, h, dh = 4, 2, 4
        q, k, v = leaf(rng, (s, h, lq, dh)), leaf(rng, (s, h, lk, dh)), leaf(rng, (s, h, lk, dh))
        up = rng.normal(size=(s, lq, h * dh))
        live = np.ones((s, lq), dtype=bool) if window is None else ~dead_rows(lq, lk, window)
        if window is not None and lq == lk:
            assert not live.all()
        up[~live] = 0.0  # the chain passes gradient from rows that see no key; the fused op does not
        results = []
        for att in (attention, ref_attention):
            for t in (q, k, v):
                t.zero_grad()
            out = att(q, k, v, plan_of(q, k, window) if att is attention else window)
            (out * Tensor(up)).sum().backward()
            results.append([out.data[live]] + [t.grad for t in (q, k, v)])
        (fused_out, *fused_grads), (ref_out, *ref_grads) = results
        if lk <= 32:
            assert np.array_equal(fused_out, ref_out)
        else:
            assert_grads_match(fused_out, ref_out)  # tiles sum their keys in other groups
        for fused, ref in zip(fused_grads, ref_grads):
            assert_grads_match(fused, ref)

    def test_three_tiles_vs_fd(self, rng):
        # queries at columns 0..69 end tiles at columns 32, 64 and 70
        q, k, v = (leaf(rng, (1, 1, 70, 2)) for _ in range(3))
        window = np.array([[3, 70]])
        up = rng.normal(size=(1, 70, 2))
        up[dead_rows(70, 70, window)] = 0.0
        check_op(lambda: (attention(q, k, v, plan_of(q, k, window)) * Tensor(up)).sum(), [q, k, v])

    def test_dead_rows_average_their_tile_prefix(self, rng):
        q, k, v = (leaf(rng, (1, 1, 40, 2)) for _ in range(3))
        out = attention(q, k, v, plan_of(q, k, np.array([[36, 40]])))
        # rows 0..31 end their tile at column 32, rows 32..35 at column 40
        np.testing.assert_allclose(out.data[0, :32], np.broadcast_to(v.data[0, 0, :32].mean(axis=0), (32, 2)), rtol=1e-12)
        np.testing.assert_allclose(out.data[0, 32:36], np.broadcast_to(v.data[0, 0].mean(axis=0), (4, 2)), rtol=1e-12)
        up = np.zeros(out.shape)
        up[0, :36] = rng.normal(size=(36, 2))
        (out * Tensor(up)).sum().backward()
        for t in (q, k, v):
            assert np.all(np.isfinite(t.grad)) and not np.any(t.grad)


class TestInPlaceKernels:
    """``silu`` and the ``gather_rows`` backward compute in place or in one
    pass what the plain expressions compute."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_bytes_equal_the_plain_expressions(self, rng, dtype):
        x = Tensor(rng.normal(size=(3, 5, 7)) * 4, requires_grad=True, dtype=dtype)
        g = rng.normal(size=(3, 5, 7)).astype(dtype)
        out = x.silu()
        (out * Tensor(g, dtype=dtype)).sum().backward()
        sig = 1.0 / (1.0 + np.exp(-x.data))
        assert out.data.dtype == x.grad.dtype == dtype
        assert out.data.tobytes() == (x.data * sig).tobytes()
        assert x.grad.tobytes() == (g * sig * (1.0 + x.data * (1.0 - sig))).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_rows_backward_matches_add_at(self, rng, dtype):
        x = Tensor(rng.normal(size=(26, 3, 4)), requires_grad=True, dtype=dtype)
        idx = rng.integers(0, 26, 300)
        g = rng.normal(size=(300, 3, 4)).astype(dtype)
        (gather_rows(x, idx) * Tensor(g, dtype=dtype)).sum().backward()
        want = np.zeros(x.shape, dtype=dtype)
        np.add.at(want, idx, g)
        assert x.grad.dtype == dtype
        if dtype is np.float64:
            assert x.grad.tobytes() == want.tobytes()
        else:  # bincount sums in float64, then rounds once
            np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())


class TestFusedOpGradients:
    """Float64 finite-difference checks of the fused tape ops."""

    def test_attention_causal_vs_fd(self, rng):
        q, k, v = (leaf(rng, (2, 2, 5, 4)) for _ in range(3))
        up = Tensor(rng.normal(size=(2, 5, 8)))
        check_op(lambda: (attention(q, k, v, plan_of(q, k)) * up).sum(), [q, k, v])

    def test_attention_windowed_vs_fd(self, rng):
        q, k, v = (leaf(rng, (3, 2, 6, 2)) for _ in range(3))
        window = np.array([[2, 6], [0, 4], [1, 6]])  # left padding, right padding, both
        up = rng.normal(size=(3, 6, 4))
        up[dead_rows(6, 6, window)] = 0.0
        check_op(lambda: (attention(q, k, v, plan_of(q, k, window)) * Tensor(up)).sum(), [q, k, v])

    def test_attention_single_query_against_a_kv_cache_vs_fd(self, rng):
        q = leaf(rng, (1, 2, 1, 4))
        k, v = leaf(rng, (1, 2, 7, 4)), leaf(rng, (1, 2, 7, 4))
        up = Tensor(rng.normal(size=(1, 1, 8)))
        check_op(lambda: (attention(q, k, v, plan_of(q, k)) * up).sum(), [q, k, v])

    def test_memory_rows_after_text_keys_vs_fd(self, rng):
        # K=2 queries at the last columns over 4 left-padded text keys plus their own
        q = leaf(rng, (2, 1, 2, 4))
        k, v = leaf(rng, (2, 1, 6, 4)), leaf(rng, (2, 1, 6, 4))
        window = np.array([[1, 6], [3, 6]])
        up = Tensor(rng.normal(size=(2, 2, 4)))
        check_op(lambda: (attention(q, k, v, plan_of(q, k, window)) * up).sum(), [q, k, v])

    def test_rope_vs_fd(self, rng):
        # two heads of 6 features in each [S, L, d] row, rotated before they are split
        x = leaf(rng, (2, 3, 12))
        cos, sin = (rows_of_heads(t, 2) for t in rotations(rng, 2, 3, 3, np.float64))
        up = Tensor(rng.normal(size=(2, 3, 12)))
        check_op(lambda: (rope(x, cos, sin, 6) * up).sum(), [x])

    def test_rope_of_rows_equals_rope_of_each_head(self, rng):
        # the halves swap within each head, not across the row
        x = rng.normal(size=(2, 5, 12))
        cos, sin = rotations(rng, 2, 5, 2, np.float64)
        got = split_heads(rope(Tensor(x), rows_of_heads(cos, 3), rows_of_heads(sin, 3), 4), 3).data
        want = ref_rope(ref_heads(Tensor(x), 3), cos, sin).data
        assert np.array_equal(got, want)

    def test_attention_windowed_over_three_tiles_vs_fd(self, rng):
        # 70 queries over 70 keys end tiles at columns 32, 64 and 70; row 0's
        # window leaves its first 40 rows, a whole tile and more, seeing no key
        q, k, v = (leaf(rng, (2, 2, 70, 2)) for _ in range(3))
        window = np.array([[40, 70], [5, 66]])
        up = rng.normal(size=(2, 70, 4))
        up[dead_rows(70, 70, window)] = 0.0
        plan = plan_of(q, k, window)
        assert len(plan.tiles) == 3 and plan.dead[0, :40].all() and plan.dead[1, :5].all()
        check_op(lambda: (attention(q, k, v, plan) * Tensor(up)).sum(), [q, k, v], max_coords=40, rng=rng)

    def test_feed_forward_vs_fd(self, rng):
        x, w1, w2 = leaf(rng, (2, 3, 4)), leaf(rng, (4, 6)), leaf(rng, (6, 4))
        gain = Tensor(rng.normal(size=4) + 1.0, requires_grad=True)
        up = Tensor(rng.normal(size=(2, 3, 4)))
        check_op(lambda: (feed_forward(x, gain, w1, w2) * up).sum(), [x, gain, w1, w2])

    def test_split_heads_vs_fd(self, rng):
        x = leaf(rng, (2, 3, 6))
        up = Tensor(rng.normal(size=(2, 3, 3, 2)))
        check_op(lambda: (split_heads(x, 3) * up).sum(), [x])

    def test_split_heads_of_trailing_axes_equals_the_flat_reshape(self, rng):
        x4 = leaf(rng, (3, 2, 4, 6))
        x3 = Tensor(x4.data.reshape(3, 2, 24), requires_grad=True)
        up = Tensor(rng.normal(size=(3, 8, 2, 3)))
        outs = []
        for x in (x4, x3):
            out = split_heads(x, 8)
            (out * up).sum().backward()
            outs.append(out.data)
        assert outs[0].shape == outs[1].shape and outs[0].tobytes() == outs[1].tobytes()
        assert x4.grad.shape == x4.shape and x4.grad.tobytes() == x3.grad.tobytes()

    def test_cross_entropy_rows_vs_fd(self, rng):
        # ``head_cross_entropy`` in float64 for the rows, the gain and the
        # head, with a row that scores nothing
        x, gain, head = leaf(rng, (3, 4, 6)), leaf(rng, (6,)), leaf(rng, (7, 6))
        targets = np.array([[1, 6, -100, -100], [-100, -100, -100, -100], [0, 2, 2, 5]])
        w = Tensor(rng.normal(size=3))
        check_op(lambda: (head_cross_entropy(x, gain, head, targets)[0] * w).sum(), [x, gain, head])
        assert list(head_cross_entropy(x, gain, head, targets)[1]) == [2, 0, 4]
        assert not x.grad[1].any() and not x.grad[0, 2:].any()


def decode_rows(rng, dtype):
    """Rows [4, 9, 32] of a decode bucket as the loss sees them, with a gain,
    a head over the model's 260 ids and right-padded targets of 3, 6, 1 and
    5 scored positions, as leaves of ``dtype``."""
    n = np.array([3, 6, 1, 5])
    targets = np.where(np.arange(9) < n[:, None], rng.integers(0, 260, (4, 9)), -100)
    x, gain, head = (Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype) for shape in ((4, 9, 32), (32,), (260, 32)))
    return x, gain, head, targets, n


def weighted(parts, weights) -> Tensor:
    loss = None
    for part, w in zip(parts, weights):
        loss = part * w if loss is None else loss + part * w
    return loss


class TestCrossEntropyRows:
    """``head_cross_entropy`` against the composed chain ``rms_norm`` ->
    ``@ head.T`` -> cross-entropy that it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_per_row_reference(self, rng, dtype):
        # the chain over the scored rows alone, each target's NLL summed over
        # its own rows: the fused op's arithmetic in the fused op's order
        x, gain, head, targets, n = decode_rows(rng, dtype)
        weights = rng.normal(size=4)
        fused, counts = head_cross_entropy(x, gain, head, targets)
        assert list(counts) == list(n)
        weighted([fused[r] for r in range(4)], weights).backward()
        want = [t.grad for t in (x, gain, head)]
        for t in (x, gain, head):
            t.zero_grad()
        row, col = np.nonzero(targets != -100)
        logits = rms_norm(x[row, col], gain) @ head.swapaxes(0, 1)
        ends = np.cumsum(n)
        parts = [ref_cross_entropy_sum(logits[e - c : e], targets[r, :c]) for r, (c, e) in enumerate(zip(n, ends))]
        weighted(parts, weights).backward()
        for r, part in enumerate(parts):
            assert part.data.dtype == fused.dtype == dtype and part.data.tobytes() == fused.data[r].tobytes()
        for got, t in zip(want, (x, gain, head)):
            assert_grads_match(got, t.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_chain_over_the_whole_bucket(self, rng, dtype):
        # the chain as the decoder ran it, over every column of the bucket:
        # a BLAS product may round the last columns of a row's logits
        # differently by where the row falls among the product's rows
        # (OpenBLAS edge tiles), so totals agree to rounding
        x, gain, head, targets, _ = decode_rows(rng, dtype)
        weights = Tensor(rng.normal(size=4), dtype=dtype)
        fused, counts = head_cross_entropy(x, gain, head, targets)
        (fused * weights).sum().backward()
        want = [t.grad for t in (x, gain, head)]
        for t in (x, gain, head):
            t.zero_grad()
        ref, ref_counts = ref_cross_entropy_rows(rms_norm(x, gain) @ head.swapaxes(0, 1), targets)
        (ref * weights).sum().backward()
        assert list(counts) == list(ref_counts)
        np.testing.assert_allclose(fused.data, ref.data, rtol=GRAD_RTOL[np.dtype(dtype)], atol=0)
        for got, t in zip(want, (x, gain, head)):
            assert_grads_match(got, t.grad)

    def test_shape_and_vocabulary_checks(self):
        gain, head = Tensor(np.ones(4)), Tensor(np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            head_cross_entropy(Tensor(np.zeros((2, 4))), gain, head, np.zeros((2,), dtype=np.int64))
        with pytest.raises(ShapeError):
            head_cross_entropy(Tensor(np.zeros((1, 2, 4))), gain, head, np.array([[0, 4]]))
        with pytest.raises(ShapeError):
            head_cross_entropy(Tensor(np.zeros((1, 2, 4))), Tensor(np.ones(3)), head, np.array([[0, 1]]))
        with pytest.raises(ShapeError):
            head_cross_entropy(Tensor(np.zeros((1, 2, 4))), gain, Tensor(np.zeros((4, 3))), np.array([[0, 1]]))


class TestBackward:
    def test_chain_of_ten_layers_vs_fd(self, rng):
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        ws = [Tensor(rng.normal(size=(4, 4)) * 0.5, requires_grad=True) for _ in range(10)]

        def build():
            h = x
            for w in ws:
                h = (h @ w).tanh()
            return (h * h).sum()

        check_op(build, [x] + ws, max_coords=4, rng=rng)

    def test_unreachable_parameter_grad_stays_none(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        unused = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad is not None
        assert unused.grad is None

    def test_non_scalar_backward_rejected(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_grad_accumulates_across_backwards(self, rng):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        assert np.allclose(x.grad, 2 * first)

    def test_deterministic_gradients(self, rng):
        data = rng.normal(size=(6, 6))
        grads = []
        for _ in range(2):
            x = Tensor(data.copy(), requires_grad=True)
            h = (x @ x).reshape(1, 1, 6, 6)
            (attention(h, h, h, plan_of(h, h)) * h.reshape(1, 6, 6)).sum().backward()
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_shared_subexpression(self, rng):
        x = Tensor(np.array([1.5]), requires_grad=True)
        y = x * x  # used twice
        (y + y).sum().backward()
        assert np.allclose(x.grad, [2 * 2 * 1.5])


class TestTapeHoldsOnlyGradientInputs:
    """A frozen input is not kept alive by the output of an op: the tape
    keeps only parents that take a gradient, and a backward closure keeps
    only the arrays it reads."""

    def test_concat_drops_a_frozen_part(self, rng):
        frozen, trained = Tensor(rng.normal(size=(2, 3))), leaf(rng, (2, 3))
        ref = weakref.ref(frozen)
        out = concat([frozen, trained], axis=0)
        del frozen
        gc.collect()
        assert ref() is None and out._parents == (trained,)
        (out * out).sum().backward()
        assert np.array_equal(trained.grad, 2 * trained.data)

    def test_matmul_drops_a_frozen_operand(self, rng):
        for frozen_left in (True, False):
            frozen, trained = Tensor(rng.normal(size=(3, 3))), leaf(rng, (3, 3))
            a, b = (frozen, trained) if frozen_left else (trained, frozen)
            want = (a.data.T @ np.ones((3, 3))) if frozen_left else (np.ones((3, 3)) @ b.data.T)
            ref = weakref.ref(frozen)
            out = a @ b
            del frozen, a, b
            gc.collect()
            assert ref() is None and out._parents == (trained,)
            out.sum().backward()
            assert np.array_equal(trained.grad, want)


class TestUtilities:
    def test_no_grad_suppresses_tape(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad

    def test_global_grad_norm(self, rng):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = Tensor(np.array([4.0]), requires_grad=True)
        ((a * a) * 0.5 + (b * b) * 0.5).sum().backward()
        assert np.allclose(global_grad_norm([a, b]), 5.0)

    def test_float32_opt_in(self):
        t = Tensor(np.zeros(3), dtype=np.float32)
        assert t.dtype == np.float32
