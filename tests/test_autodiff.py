import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofa.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    attention,
    concat,
    cross_entropy,
    cross_entropy_rows,
    cross_entropy_sum,
    gather_rows,
    global_grad_norm,
    no_grad,
    rms_norm,
    rope,
    segment_sum,
    split_heads,
)

from conftest import assert_grad_close, finite_difference


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

    def test_div_pow_gradients(self, rng):
        a = Tensor(rng.normal(size=(6,)) + 3.0, requires_grad=True)
        b = Tensor(rng.normal(size=(6,)) + 3.0, requires_grad=True)
        check_op(lambda: ((a / b) ** 2).sum(), [a, b])

    def test_nonlinearity_gradients(self, rng):
        x = Tensor(rng.normal(size=(8,)), requires_grad=True)
        check_op(lambda: (x.tanh() + x.silu() + (x * x + 1.0).log() + (0.1 * x).exp()).sum(), [x])

    def test_square_derivative(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x**2).sum().backward()
        assert np.allclose(x.grad, [6.0])

    def test_slice_concat_transpose_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

        def build():
            top = x[:2]
            bottom = x[2:]
            y = concat([top.transpose(1, 0), bottom.transpose(1, 0)], axis=1)
            return (y * y).sum()

        check_op(build, [x])

    def test_gather_segment_gradients(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        seg = np.array([0, 1, 1, 0])

        def build():
            rows = gather_rows(x, idx)
            pooled = segment_sum(rows * rows, seg, 2)
            return pooled.sum()

        check_op(build, [x])

    def test_mean_and_sum_axis(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        check_op(lambda: (x.mean(axis=1).sum(axis=0, keepdims=True) ** 2).sum(), [x])

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
    return attention((x * np.sqrt(n)).reshape(r, 1, 1, n), eye, eye).reshape(r, n)


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
    def test_uniform_logits_value(self):
        logits = Tensor(np.zeros((3, 16)))
        loss = cross_entropy(logits, np.array([1, 5, 9]))
        assert np.allclose(loss.item(), np.log(16.0), atol=1e-12)

    def test_confident_correct_near_zero(self):
        logits = np.zeros((2, 8))
        logits[0, 3] = 50.0
        logits[1, 1] = 50.0
        loss = cross_entropy(Tensor(logits), np.array([3, 1]))
        assert loss.item() < 1e-6

    def test_ignore_index(self):
        logits = Tensor(np.zeros((4, 4)))
        total, count = cross_entropy_sum(logits, np.array([0, -100, 2, -100]))
        assert count == 2
        assert np.allclose(total.item(), 2 * np.log(4.0))

    def test_empty_batch_errors(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 4))), np.array([-100, -100]))

    def test_out_of_vocab_errors(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))

    def test_gradient_vs_fd(self, rng):
        x = Tensor(rng.normal(size=(4, 16)), requires_grad=True)
        targets = np.array([3, -100, 7, 11])
        check_op(lambda: cross_entropy(x, targets), [x])


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
    return t.reshape(s, seq_len, n_heads, d // n_heads).transpose(0, 2, 1, 3)


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
    return (ref_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(s, lq, h * dh)


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


def leaf(rng, shape, dtype=np.float64) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)


class TestFusedAttentionChain:
    """``split_heads``, ``rope`` and ``attention`` against the composed chain
    of reshape, transpose, getitem, mul, concat, an additive dense mask and
    softmax that they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.data(),
        st.sampled_from([np.float32, np.float64]), st.booleans(), st.integers(0, 2**31 - 1),
    )
    def test_forward_and_gradients_bit_equal_to_composed_chain(self, s, h, half, lk, data, dtype, windowed, seed):
        lq = data.draw(st.integers(1, lk))
        rng = np.random.default_rng(seed)
        d = h * 2 * half
        window = None
        up = rng.normal(size=(s, lq, d)).astype(dtype)
        if windowed:
            lo = rng.integers(0, lk, s)
            window = np.stack([lo, rng.integers(lo + 1, lk + 1)], axis=1)
            # the composed chain passes gradient from rows that see no key; the fused op does not
            up[dead_rows(lq, lk, window)] = 0.0
        cos, sin = rotations(rng, s, lk, half, dtype)
        xq, xk, xv = leaf(rng, (s, lq, d), dtype), leaf(rng, (s, lk, d), dtype), leaf(rng, (s, lk, d), dtype)
        results = []
        for heads, rot, att in ((split_heads, rope, attention), (ref_heads, ref_rope, ref_attention)):
            for t in (xq, xk, xv):
                t.zero_grad()
            q = rot(heads(xq, h), cos[:, :, lk - lq :], sin[:, :, lk - lq :])
            k = rot(heads(xk, h), cos, sin)
            out = att(q, k, heads(xv, h), window)
            (out * Tensor(up, dtype=dtype)).sum().backward()
            results.append([out.data] + [t.grad for t in (xq, xk, xv)])
        for fused, ref in zip(*results):
            assert fused.dtype == ref.dtype == dtype and fused.shape == ref.shape
            # equal values are equal bits, except that a zero gradient may differ in sign:
            # the composed chain adds +0.0 halves where the fused op writes its zeros
            assert np.array_equal(fused, ref)

    def test_rows_that_see_no_key_stay_finite_and_pass_no_gradient(self, rng):
        q, k, v = (leaf(rng, (2, 2, 5, 4)) for _ in range(3))
        q.data *= 1e3  # scores far beyond any real key's
        window = np.array([[2, 5], [0, 5]])  # row 0: columns 0 and 1 are padding
        out = attention(q, k, v, window)
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
        cos, sin = rotations(rng, 2, 5, 2, f32)
        xn = rms_norm(x, gain)
        q = rope(split_heads(xn, 2), cos, sin)
        out = attention(q, q, split_heads(xn, 2), np.array([[1, 5], [0, 3]]))
        logits = out @ Tensor(rng.normal(size=(8, 11)), dtype=f32)
        totals, _ = cross_entropy_rows(logits, rng.integers(0, 11, (2, 5)))
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


class TestFusedOpGradients:
    """Float64 finite-difference checks of the fused tape ops."""

    def test_attention_causal_vs_fd(self, rng):
        q, k, v = (leaf(rng, (2, 2, 5, 4)) for _ in range(3))
        up = Tensor(rng.normal(size=(2, 5, 8)))
        check_op(lambda: (attention(q, k, v) * up).sum(), [q, k, v])

    def test_attention_windowed_vs_fd(self, rng):
        q, k, v = (leaf(rng, (3, 2, 6, 2)) for _ in range(3))
        window = np.array([[2, 6], [0, 4], [1, 6]])  # left padding, right padding, both
        up = rng.normal(size=(3, 6, 4))
        up[dead_rows(6, 6, window)] = 0.0
        check_op(lambda: (attention(q, k, v, window) * Tensor(up)).sum(), [q, k, v])

    def test_attention_single_query_against_a_kv_cache_vs_fd(self, rng):
        q = leaf(rng, (1, 2, 1, 4))
        k, v = leaf(rng, (1, 2, 7, 4)), leaf(rng, (1, 2, 7, 4))
        up = Tensor(rng.normal(size=(1, 1, 8)))
        check_op(lambda: (attention(q, k, v) * up).sum(), [q, k, v])

    def test_memory_rows_after_text_keys_vs_fd(self, rng):
        # K=2 queries at the last columns over 4 left-padded text keys plus their own
        q = leaf(rng, (2, 1, 2, 4))
        k, v = leaf(rng, (2, 1, 6, 4)), leaf(rng, (2, 1, 6, 4))
        window = np.array([[1, 6], [3, 6]])
        up = Tensor(rng.normal(size=(2, 2, 4)))
        check_op(lambda: (attention(q, k, v, window) * up).sum(), [q, k, v])

    def test_rope_vs_fd(self, rng):
        x = leaf(rng, (2, 2, 3, 6))
        cos, sin = rotations(rng, 2, 3, 3, np.float64)
        up = Tensor(rng.normal(size=(2, 2, 3, 6)))
        check_op(lambda: (rope(x, cos, sin) * up).sum(), [x])

    def test_split_heads_vs_fd(self, rng):
        x = leaf(rng, (2, 3, 6))
        up = Tensor(rng.normal(size=(2, 3, 3, 2)))
        check_op(lambda: (split_heads(x, 3) * up).sum(), [x])

    def test_cross_entropy_rows_vs_fd(self, rng):
        logits = leaf(rng, (3, 4, 7))
        targets = np.array([[1, 6, -100, -100], [-100, -100, -100, -100], [0, 2, 2, 5]])
        w = Tensor(rng.normal(size=3))
        check_op(lambda: (cross_entropy_rows(logits, targets)[0] * w).sum(), [logits])
        assert list(cross_entropy_rows(logits, targets)[1]) == [2, 0, 4]


class TestCrossEntropyRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_per_row_reference(self, rng, dtype):
        # right-padded rows of 1 to 6 scored positions out of 9, as a decode bucket has
        n = np.array([3, 6, 1, 5])
        targets = np.where(np.arange(9) < n[:, None], rng.integers(0, 260, (4, 9)), -100)
        weights = rng.normal(size=4)
        data = rng.normal(size=(4, 9, 260)) * 3
        results = []
        for fused in (True, False):
            logits = Tensor(data, requires_grad=True, dtype=dtype)
            if fused:
                totals, counts = cross_entropy_rows(logits, targets)
                parts = [totals[r] for r in range(4)]
                assert list(counts) == list(n)
            else:
                parts = [ref_cross_entropy_sum(logits[r], targets[r]) for r in range(4)]
            loss = None
            for part, w in zip(parts, weights):
                loss = part * w if loss is None else loss + part * w
            loss.backward()
            results.append(([p.data for p in parts], logits.grad))
        (fused_parts, fused_grad), (ref_parts, ref_grad) = results
        for a, b in zip(fused_parts, ref_parts):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
        assert fused_grad.tobytes() == ref_grad.tobytes()

    def test_shape_and_vocabulary_checks(self):
        with pytest.raises(ShapeError):
            cross_entropy_rows(Tensor(np.zeros((2, 4))), np.zeros((2,), dtype=np.int64))
        with pytest.raises(ShapeError):
            cross_entropy_rows(Tensor(np.zeros((1, 2, 4))), np.array([[0, 4]]))


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
            (attention(h, h, h) * h.reshape(1, 6, 6)).sum().backward()
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_shared_subexpression(self, rng):
        x = Tensor(np.array([1.5]), requires_grad=True)
        y = x * x  # used twice
        (y + y).sum().backward()
        assert np.allclose(x.grad, [2 * 2 * 1.5])


class TestUtilities:
    def test_no_grad_suppresses_tape(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad

    def test_validate_finite(self):
        t = Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError, match="bad_tensor"):
            t.validate_finite("bad_tensor")
        Tensor(np.array([1.0])).validate_finite()

    def test_global_grad_norm(self, rng):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = Tensor(np.array([4.0]), requires_grad=True)
        ((a * a) * 0.5 + (b * b) * 0.5).sum().backward()
        assert np.allclose(global_grad_norm([a, b]), 5.0)

    def test_float32_opt_in(self):
        t = Tensor(np.zeros(3), dtype=np.float32)
        assert t.dtype == np.float32
