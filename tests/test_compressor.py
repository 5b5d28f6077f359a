import inspect
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gofa import compressor, corpus, tokenizer
from gofa.autodiff import (
    AttentionPlan, Tensor, _query_tiles, attention, attention_kernel, blocked_keys, concat, gather_rows, no_grad, rms_norm,
    rope, split_heads,
)
from gofa.compressor import (
    _BUCKET_STEPS,
    ModelConfig,
    StepKV,
    _bucket_len,
    _rotation_tables,
    _rotations,
    _share_prefixes,
    attention_plan,
    gather_in_order,
    layer_forward,
    make_compress_buckets,
    make_decode_buckets,
)
from gofa.model import GofaModel
from gofa.taskgen import make_autoencode_task
from gofa.training import TrainConfig, train

from conftest import causal_plan, compress


def tiny_cfg(**kw):
    base = dict(d_model=16, n_heads=2, n_layers=2, memory_tokens=4, gnn_layers=(1,), max_seq_len=64)
    base.update(kw)
    return ModelConfig(**base)


def concatenated_run(comp, sequences, memory_hook=None):
    """Reference compressor: one [text; memory] tensor per bucket under its
    rows' windows, memory rows sliced out for the hook and put back."""
    cfg = comp.stack.cfg
    k, d = cfg.memory_tokens, cfg.d_model
    buckets = make_compress_buckets(sequences, cfg, cfg.dtype)
    xs = []
    for b in buckets:
        sb, lb = b.ids.shape
        mem = comp.memory.reshape(1, k, d).broadcast_to((sb, k, d))
        emb = gather_rows(comp.stack.embed, b.ids.reshape(-1)).reshape(sb, lb, d)
        xs.append(concat([emb, mem], axis=1) if lb else mem)
    plans = [attention_plan(cfg, b.window, 0, b.ids.shape[1] + k) for b in buckets]
    for t, layer in enumerate(comp.stack.layers, start=1):
        xs = [layer_forward(x, layer, cfg, plan) for x, plan in zip(xs, plans)]
        if memory_hook is not None and t in cfg.gnn_layers:
            new = memory_hook(gather_in_order([x[:, -k:] for x in xs], [b.indices for b in buckets]), t)
            xs = [
                concat([x[:, : b.ids.shape[1]], gather_rows(new, b.indices)], axis=1) if b.ids.shape[1] else gather_rows(new, b.indices)
                for x, b in zip(xs, buckets)
            ]
    return gather_in_order([x[:, -k:] for x in xs], [b.indices for b in buckets])


# texts in buckets of length 0, 4, 8, 16, 24 and 48, several sharing one
SPLIT_TEXTS = ["", "ab", "abc", "abcdef", "abcdefgh", "nine char", "", "a text of twenty-one.", "x" * 40, "link"]


def _variant(text, i):
    return text[:i] + "#" + text[i + 1 :]


# texts of equal length that share leading tokens, for max_seq_len 64, and
# where each first differs from the first text of its length. 56 tokens (the
# 64-column bucket, first column 8): at column 31, the last of an attention
# tile, and at 63, the bucket's last; at 8 nothing is shared. 40 tokens (the
# 48-column bucket, first column 8): at 32, a tile's first, and at 13 and 17,
# in one tile. 34 tokens (first column 14 of that bucket): at 19, in the same
# tile, so it runs from column 13, a pad column of its own. 20 tokens (first
# column 4): at 23, the last, and at 4. The 21-token text and the 2-token
# texts share a prefix but not a length or a saved row.
_B56 = "".join(chr(97 + i * 7 % 26) for i in range(56))
_B40 = "".join(chr(65 + i * 5 % 26) for i in range(40))
_B34 = "".join(chr(48 + i * 3 % 10) for i in range(34))
_B20 = "shortest path from n"
SHARED_TEXTS = [
    _B56, _variant(_B56, 23), _variant(_B56, 55), _variant(_B56, 0),
    _B40, _variant(_B40, 24), _variant(_B40, 5), _variant(_B40, 9), _B34, _variant(_B34, 5),
    _B20, _variant(_B20, 19), _variant(_B20, 0), _B20 + "!", "ab", "ac",
]


class TestTokenizer:
    def test_empty(self):
        assert tokenizer.encode("") == []

    def test_two_chars(self):
        assert tokenizer.encode("ab") == [97, 98]

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_round_trip(self, s):
        assert tokenizer.decode(tokenizer.encode(s)) == s

    def test_vocab_size(self):
        assert tokenizer.VOCAB_SIZE == 260


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=30, n_heads=4)

    def test_gnn_layer_positions(self):
        with pytest.raises(ValueError):
            ModelConfig(n_layers=4, gnn_layers=(4,))
        with pytest.raises(ValueError):
            ModelConfig(n_layers=4, gnn_layers=(0,))
        ModelConfig(n_layers=4, gnn_layers=(1, 2, 3))

    def test_memory_token_count(self):
        with pytest.raises(ValueError):
            ModelConfig(memory_tokens=0)

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="float16"):
            ModelConfig(precision="float16")


class TestEmbedding:
    def test_empty_text_zero_length(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=0)
        mems = compress(model, [""])
        assert mems.shape == (1, cfg.memory_tokens, cfg.d_model)
        assert np.all(np.isfinite(mems.data))

    def test_two_char_text(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=0)
        mems = compress(model, ["ab"])
        assert mems.shape == (1, cfg.memory_tokens, cfg.d_model)


class TestTransformerLayer:
    def _run_layer(self, cfg, x_data, model):
        # Plain causal attention over x exactly: no padding, positions 0..L-1.
        return layer_forward(Tensor(x_data), model.compressor_stack.layers[0], cfg, causal_plan(cfg, x_data))

    def test_causality_text_positions(self, rng):
        # Perturbing text token j leaves every output before j unchanged.
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=1)
        length = 9
        x = rng.normal(size=(1, length + cfg.memory_tokens, cfg.d_model))
        base = self._run_layer(cfg, x, model).data
        j = 4
        x2 = x.copy()
        x2[0, j] += 1.0
        out = self._run_layer(cfg, x2, model).data
        assert np.array_equal(base[0, :j], out[0, :j])
        assert not np.allclose(base[0, j:], out[0, j:])

    def test_memory_reach(self, rng):
        # Any text token perturbation reaches at least one memory output.
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=2)
        text = "hello graph"
        base = compress(model, [text]).data
        for j, repl in [(0, "Jello graph"), (6, "hello Xraph")]:
            out = compress(model, [repl]).data
            assert not np.allclose(base, out), f"memory blind to token {j}"

    def test_per_node_independence(self, rng):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=3)
        a = "first sequence"
        base = compress(model, [a, "second one"]).data[0]
        out = compress(model, [a, "second TWO"]).data[0]
        assert np.array_equal(base, out)

    def test_memory_slot_count_invariant(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=0)
        mems = compress(model, ["short", "a much longer sequence of text here"])
        assert mems.shape[1] == cfg.memory_tokens

    def test_kv_steps_match_full_causal_pass(self, rng):
        # Step every row from an empty inference cache, one at a time:
        # every output row matches one causal pass.
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=4)
        layer = model.compressor_stack.layers[0]
        total = 9
        x = rng.normal(size=(1, total, cfg.d_model))
        full = self._run_layer(cfg, x, model).data
        kv = StepKV(layer, cfg)
        rows = [layer_forward(x[:, i : i + 1], layer, cfg, None, kv) for i in range(total)]
        assert kv.n == total
        np.testing.assert_allclose(np.concatenate(rows, axis=1), full, rtol=0, atol=1e-12)

    def test_rotation_matrices_match_rope(self, rng):
        # the step rotates [2H, dh] query and key rows with one matrix product
        cfg = tiny_cfg(d_model=32, n_heads=4)
        cos_tab, sin_tab, rot = _rotation_tables(cfg)
        assert rot.shape == (len(cos_tab), cfg.head_dim, cfg.head_dim) and not rot.flags.writeable
        for i in range(len(cos_tab)):
            rows = rng.normal(size=(2 * cfg.n_heads, cfg.head_dim))
            want = rope(Tensor(rows.reshape(2, -1)), cos_tab[i], sin_tab[i], cfg.head_dim).data.reshape(rows.shape)
            assert np.abs(rows @ rot[i] - want).max() <= 1e-15 * np.abs(want).max()

    def test_kv_cache_refuses_a_tape(self, rng):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=4)
        x = rng.normal(size=(1, 3, cfg.d_model))
        layer = model.decoder_stack.layers[0]
        for tensor in (Tensor(x), Tensor(x, requires_grad=True)):
            with pytest.raises(ValueError, match="without a tape"):
                layer_forward(tensor, layer, cfg, None, StepKV(layer, cfg))
        # the step runs one position at a time
        with pytest.raises(ValueError, match="one position"):
            layer_forward(x, layer, cfg, None, StepKV(layer, cfg))

    def test_truncation_is_logged_once_per_call_with_a_count(self, caplog):
        cfg = tiny_cfg(max_seq_len=12)
        limit = cfg.max_seq_len - cfg.memory_tokens
        seqs = [[65] * 50, [66] * 3, [67] * (limit + 1), [68] * limit]
        for make, kind, keep in [
            (make_compress_buckets, "node/edge text length", lambda s: s[-limit:]),
            (make_decode_buckets, "target length", lambda s: s[:limit]),
        ]:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="gofa"):
                buckets = make(seqs, cfg, cfg.dtype)
                make(seqs[1:2], cfg, cfg.dtype)  # nothing to cut: no record
            [record] = caplog.records
            assert record.getMessage().startswith(kind)
            assert f"exceeds {limit} tokens in 2 of 4 sequences (longest 50)" in record.getMessage()
            for b in buckets:
                for row, i in enumerate(b.indices):
                    first, stop = b.window[row]  # text columns, then K memory columns
                    assert b.ids[row, first : stop - cfg.memory_tokens].tolist() == keep(seqs[i])

    def test_left_truncation_warns_and_keeps_memory(self, caplog):
        cfg = tiny_cfg(max_seq_len=12)
        model = GofaModel(cfg, seed=0)
        with caplog.at_level(logging.WARNING, logger="gofa"):
            mems = compress(model, ["x" * 50])
        assert mems.shape == (1, cfg.memory_tokens, cfg.d_model)
        assert any("truncating from the left" in r.message for r in caplog.records)


class TestSplitRun:
    """``Compressor.run`` runs text rows and memory rows apart; the reference
    runs them as one tensor."""

    @staticmethod
    def _hook_and_weight(cfg, rng):
        w = Tensor(rng.normal(0.0, 0.3, (cfg.d_model, cfg.d_model)), requires_grad=True, dtype=cfg.dtype)
        return (lambda mems, t: mems + (mems @ w).tanh()), w

    # Both paths sum a softmax row with numpy. A row of Lb text keys and the
    # same row followed by K zero-probability memory keys can be summed in a
    # different order, so with 4 memory tokens the 4-token bucket differs in
    # the last bits; with 3, every memory of these texts is bit-equal.
    @pytest.mark.parametrize(
        "k, exact, texts",
        [
            pytest.param(3, True, SPLIT_TEXTS, id="3-True"),
            pytest.param(4, False, SPLIT_TEXTS, id="4-False"),
            pytest.param(3, True, SHARED_TEXTS, id="3-True-shared"),
            pytest.param(4, True, SHARED_TEXTS, id="4-True-shared"),
        ],
    )
    def test_memories_match_concatenated_reference(self, rng, k, exact, texts):
        cfg = tiny_cfg(memory_tokens=k, n_layers=3, gnn_layers=(1, 2))
        model = GofaModel(cfg, seed=8)
        hook, _ = self._hook_and_weight(cfg, rng)
        seqs = [tokenizer.encode(t) for t in texts]
        with no_grad():
            for h in (None, hook):
                split = model.compressor.run(seqs, memory_hook=h).data
                ref = concatenated_run(model.compressor, seqs, memory_hook=h).data
                if exact:
                    assert np.array_equal(split, ref)
                else:
                    np.testing.assert_allclose(split, ref, rtol=1e-13, atol=1e-15)

    @staticmethod
    def _gradients(model, texts, rng):
        """The gradients of every parameter and of the hook's weight, from
        ``Compressor.run`` and from the concatenated reference."""
        cfg = model.compressor.stack.cfg
        hook, w = TestSplitRun._hook_and_weight(cfg, rng)
        seqs = [tokenizer.encode(t) for t in texts]
        upstream = Tensor(rng.normal(size=(len(seqs), cfg.memory_tokens, cfg.d_model)))
        checked = {**model.parameters(), "hook.w": w}
        grads = []
        for run in (model.compressor.run, lambda s, memory_hook: concatenated_run(model.compressor, s, memory_hook)):
            for t in checked.values():
                t.zero_grad()
            (run(seqs, memory_hook=hook) * upstream).sum().backward()
            grads.append({n: t.grad for n, t in checked.items()})
        return grads

    def test_gradients_match_concatenated_reference(self, rng):
        cfg = tiny_cfg(memory_tokens=4, n_layers=3, gnn_layers=(1, 2))
        model = GofaModel(cfg, seed=9)
        split, ref = self._gradients(model, SPLIT_TEXTS, rng)
        assert {n for n, g in ref.items() if g is not None} == {n for n, g in split.items() if g is not None}
        assert split["hook.w"] is not None and split["compressor.layers.0.wq"] is not None
        for name, g in ref.items():
            if g is not None:
                np.testing.assert_allclose(split[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max(), err_msg=name)

    def test_frozen_compressor_leaves_text_rows_untaped(self, rng, monkeypatch):
        cfg = tiny_cfg(memory_tokens=4, n_layers=3, gnn_layers=(2,))
        model = GofaModel(cfg, seed=10)
        for name, t in model.parameters().items():
            t.requires_grad = not name.startswith(("compressor.", "memory_tokens"))
        hook, _ = self._hook_and_weight(cfg, rng)
        taped = []
        inner = layer_forward

        def recording_layer_forward(x, p, cfg, *rest):
            out = inner(x, p, cfg, *rest)
            taped.append((x.shape[1], out.requires_grad))
            return out

        monkeypatch.setattr("gofa.compressor.layer_forward", recording_layer_forward)
        model.compressor.run([tokenizer.encode("some text")], memory_hook=hook)
        k = cfg.memory_tokens
        # text rows, then memory rows, per layer; the last layer reads text rows only
        # as keys and values; only memory rows after the layer-2 hook carry a tape
        assert taped == [(16, False), (k, False), (16, False), (k, False), (k, True)]


def positions_of(cfg, cos, sin):
    """The positions [S, n] whose rows of the rotation tables ``cos`` and
    ``sin`` [S, n, d] hold, read back by value."""
    index = {(c.tobytes(), s.tobytes()): i for i, (c, s) in enumerate(zip(*_rotation_tables(cfg)[:2]))}
    rows = [[index[c.tobytes(), s.tobytes()] for c, s in zip(cr, sr)] for cr, sr in zip(cos, sin)]
    return np.array(rows, dtype=np.int64).reshape(cos.shape[:2])


def rotary_positions(cfg, window, first, n):
    """The positions ``_rotations`` rotates the rows at columns first.. by."""
    return positions_of(cfg, *_rotations(cfg, window, first, n))


def reference_buckets(sequences, cfg, memory_first):
    """Per-row bucket builder: text left-padded before the K memory rows and
    cut to its last tokens, or (``memory_first``) right-padded after them and
    cut to its first tokens, to the first multiple of 8 at or above its
    length unless its compression step is shorter; one row at a time. Each
    row's dense [L, L] mask of the keys its queries see and its window of
    real columns."""
    limit = cfg.max_seq_len - cfg.memory_tokens
    k = cfg.memory_tokens
    seqs = [list(s)[:limit] if memory_first else list(s)[-limit:] for s in sequences]
    groups = {}
    for i, s in enumerate(seqs):
        lb = _bucket_len(len(s))
        if memory_first:
            lb = min(lb, 8 * math.ceil(len(s) / 8))
        groups.setdefault(lb, []).append(i)
    out = []
    for lb in sorted(groups):
        idxs = groups[lb]
        total = lb + k
        ids = np.full((len(idxs), lb), tokenizer.PAD_ID, dtype=np.int64)
        pos = np.zeros((len(idxs), total), dtype=np.int64)
        window = np.zeros((len(idxs), 2), dtype=np.int64)
        seen = np.zeros((len(idxs), total, total), dtype=bool)
        causal = np.tril(np.ones((total, total), dtype=bool))
        for row, i in enumerate(idxs):
            s = seqs[i]
            n = len(s)
            real = np.zeros(total, dtype=bool)
            if memory_first:
                ids[row, :n] = s
                pos[row] = np.arange(total)
                real[: k + n] = True
            else:
                ids[row, lb - n :] = s
                pos[row, lb - n : lb] = np.arange(n)
                pos[row, lb:] = np.arange(n, n + k)
                real[lb - n :] = True
            seen[row] = causal & real[None, :]
            window[row] = np.flatnonzero(real)[[0, -1]] + [0, 1]
        out.append((idxs, ids, pos, window, seen, lb))
    return out


# every bucket boundary, one below and one above it
BOUNDARY_LENGTHS = sorted({n for step in _BUCKET_STEPS for n in (step - 1, step, step + 1) if n >= 0})


class TestBuckets:
    def test_compress_bucket_layout(self):
        cfg = tiny_cfg()
        buckets = make_compress_buckets([[1, 2, 3], [5], [7, 8, 9, 10, 11]], cfg, np.float64)
        by_len = {b.ids.shape[1]: b for b in buckets}
        assert set(by_len) == {4, 8}
        b4 = by_len[4]
        row3 = b4.ids[b4.indices.index(0)]
        assert list(row3) == [tokenizer.PAD_ID, 1, 2, 3]

    def test_positions_continue_into_memory(self):
        cfg = tiny_cfg()
        b = make_compress_buckets([[1, 2, 3]], cfg, np.float64)[0]
        assert list(rotary_positions(cfg, b.window, 0, 8)[0]) == [0, 0, 1, 2, 3, 4, 5, 6]  # pad, 3 text, 4 memory

    def test_decode_bucket_labels_right_padded(self):
        cfg = tiny_cfg()
        b = make_decode_buckets([[9, 8, 7]], cfg, np.float64)[0]
        assert list(b.ids[0][:3]) == [9, 8, 7]

    @pytest.mark.parametrize("max_seq_len", [128, 600])
    def test_decode_bucket_fits_its_target(self, max_seq_len):
        # the bench's model, and one whose targets pass the last step (512)
        cfg = ModelConfig(d_model=32, n_heads=4, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5), max_seq_len=max_seq_len)
        k = cfg.memory_tokens
        n_pos = _rotation_tables(cfg)[0].shape[0]
        for n in range(1, cfg.max_text_len + 1):
            (b,) = make_decode_buckets([[7] * n], cfg, cfg.dtype)
            lb = b.ids.shape[1]
            assert lb == (4 if n <= 4 else n if n > 512 else 8 * math.ceil(n / 8))
            assert 0 <= lb - n < 8 and lb + k <= n_pos
            if lb <= 512:
                # 8j + 4 columns: the last tile holds 4, 12, 20 or 28 rows, never
                # one; past 512 a target keeps its length, as it did before
                tiles = attention_plan(cfg, b.window, 0, k + lb).tiles
                assert all(r1 - r0 > 1 for r0, r1, _ in tiles)

    @settings(max_examples=60, deadline=None)
    @example(BOUNDARY_LENGTHS + [600], 520, 4, np.float32, 0)
    @example(BOUNDARY_LENGTHS + [600], 520, 4, np.float64, 1)
    @given(
        st.lists(st.one_of(st.sampled_from(BOUNDARY_LENGTHS), st.integers(0, 40)), min_size=1, max_size=6),
        st.sampled_from([24, 100, 520]),
        st.integers(1, 4),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**31 - 1),
    )
    def test_builders_match_per_row_reference(self, lengths, max_seq_len, k, dtype, seed):
        cfg = tiny_cfg(memory_tokens=k, max_seq_len=max_seq_len)
        rng = np.random.default_rng(seed)
        seqs = [list(rng.integers(0, 256, n)) for n in lengths]
        for build, memory_first in ((make_compress_buckets, False), (make_decode_buckets, True)):
            got = build(seqs, cfg, dtype)
            want = reference_buckets(seqs, cfg, memory_first)
            assert len(got) == len(want)
            for b, (idxs, ids, pos, window, seen, lb) in zip(got, want):
                assert b.indices == idxs and b.ids.shape[1] == lb
                positions = np.broadcast_to(rotary_positions(cfg, b.window, 0, lb + k), pos.shape)
                for have, ref in ((b.ids, ids), (positions, pos), (b.window, window)):
                    assert have.dtype == ref.dtype and have.shape == ref.shape
                    assert have.tobytes() == ref.tobytes()
                # the keys attention masks from the window: whole bucket, and the
                # text rows and memory rows the split compressor runs apart
                total = lb + k
                assert np.array_equal(blocked_keys(total, total, b.window), ~seen)
                if not memory_first:
                    assert np.array_equal(blocked_keys(lb, lb, b.window), ~seen[:, :lb, :lb])
                    assert np.array_equal(blocked_keys(k, total, b.window), ~seen[:, lb:])


class TestRotaryPositions:
    """Each kind of layer call rotates its rows by ``max(column - start, 0)``,
    ``start`` its row's window's first column (0 without a window), the
    columns being those after the keys the call extends."""

    KINDS = ["text", "member", "memory", "empty-text", "decode-bucket"]

    @staticmethod
    def _calls(monkeypatch):
        """Every ``_rotations`` call of a compressor run over texts that share
        prefixes, the empty text among them, and of teacher forcing three
        targets, with the kind of call each is."""
        cfg = tiny_cfg(n_layers=3, gnn_layers=(2,))
        model = GofaModel(cfg, seed=19)
        calls = []
        inner = _rotations

        def recording(c, window, first, n):
            cos, sin = inner(c, window, first, n)
            calls.append((window, first, n, cos, sin))
            return cos, sin

        monkeypatch.setattr("gofa.compressor._rotations", recording)
        with no_grad():
            mems = model.compressor.run([tokenizer.encode(t) for t in SHARED_TEXTS + [""]])
            compressed = len(calls)
            model.decoder_nll_per_target(mems[:3], [[1, 2, 3], [4], [5, 6, 7, 8, 9]])
        kinds = []
        for i, (window, first, n, _, _) in enumerate(calls):
            if i >= compressed:
                kinds.append("decode-bucket")
            elif first + n < window[0, 1]:  # text rows end K columns before their windows
                kinds.append("member" if first else "text")
            else:
                kinds.append("memory" if first else "empty-text")
        return cfg, calls, kinds

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_of_call_matches_the_per_row_reference(self, monkeypatch, kind):
        cfg, calls, kinds = self._calls(monkeypatch)
        chosen = [call for call, k in zip(calls, kinds) if k == kind]
        assert chosen
        k = cfg.memory_tokens
        for window, first, n, cos, sin in chosen:
            columns = np.arange(first, first + n)
            want = np.maximum(columns[None] - window[:, :1], 0)
            assert np.array_equal(np.broadcast_to(positions_of(cfg, cos, sin), want.shape), want)
            # the rows are the last columns: text rows end at the text's last
            # column, memory rows at their windows' last, decode rows start at 0
            if kind in ("text", "member"):
                assert first + n == window[0, 1] - k
            if kind in ("memory", "empty-text"):
                assert first + n == window[0, 1]
            if kind == "member":  # members start mid-bucket and read a representative's first columns
                assert 0 < first < window[0, 1] - k
            if kind == "memory":  # memory rows after Lb text keys
                assert n == k and first > 0
            if kind == "empty-text":
                assert n == k and window.tolist() == [[0, k]]
            if kind == "decode-bucket":  # every window starts at column 0: the tables' first rows
                tables = _rotation_tables(cfg)
                assert first == 0 and not window[:, 0].any()
                assert all(np.array_equal(t, np.broadcast_to(table[:n], t.shape)) for t, table in zip((cos, sin), tables))

    def test_decode_step_reads_the_rotation_of_its_column(self, monkeypatch):
        # the step has no window, so its position is its column: the K/V
        # cache's length before it, memory rows included
        cfg = tiny_cfg(n_layers=2)
        model = GofaModel(cfg, seed=20)
        read = []
        inner = compressor._step_weights

        class Recording:
            def __init__(self, rotations):
                self.rotations = rotations

            def __getitem__(self, i):
                read.append(i)
                return self.rotations[i]

        def recording(p, c):
            *arrays, rotations = inner(p, c)
            return (*arrays, Recording(rotations))

        monkeypatch.setattr("gofa.compressor._step_weights", recording)
        mem = compress(model, ["a node"])[0]
        prefix = [7, 8, 9, 10]
        with model.decoder.kv_cache():
            for i in range(len(prefix) + 1):
                model.decoder.next_logits(mem, prefix[:i])  # the first call steps the K memory rows
        k = cfg.memory_tokens
        assert read == [column for column in range(k + len(prefix)) for _ in range(cfg.n_layers)]


def composed_layer(x, p, cfg, window, kv_keys, kv_values):
    """``layer_forward`` as the separate tape ops it ran before plans: RoPE
    on the [S, H, L, dh] head views with per-head tables, the attention
    mask built for this call, and rms_norm, ff1, silu, ff2 and the residual
    one op each. The rows sit after the ``kv_keys`` columns (None: none)."""
    first, n, half = 0 if kv_keys is None else kv_keys.shape[2], x.shape[1], cfg.head_dim // 2
    cos, sin = (t[:, : cfg.head_dim] for t in _rotation_tables(cfg)[:2])  # one head's
    pos = np.arange(first, first + n)[None]
    if window is not None:
        pos = np.maximum(pos - window[:, :1], 0)
    cos, sin = cos[pos][:, None], sin[pos][:, None]  # [S, 1, n, dh]
    swap = np.arange(-half, half)

    def head_rope(t):
        out = t.data * cos
        out += t.data.take(swap, axis=-1) * sin
        return Tensor(out, dtype=cfg.dtype)

    xn = rms_norm(x, p["attn_norm"])
    q = head_rope(split_heads(xn @ p["wq"], cfg.n_heads))
    k, v = head_rope(split_heads(xn @ p["wk"], cfg.n_heads)), split_heads(xn @ p["wv"], cfg.n_heads)
    if kv_keys is not None:
        k, v = concat([kv_keys, k], axis=2), concat([kv_values, v], axis=2)
    x = x + attention(q, k, v, AttentionPlan(n, first + n, window)) @ p["wo"]
    return x + (rms_norm(x, p["ff_norm"]) @ p["ff1"]).silu() @ p["ff2"]


class TestAttentionPlans:
    """One plan per call geometry: every layer reads it, and the layer
    output is the composed ops' to the bit."""

    KINDS = ["decode-bucket", "member", "memory"]

    def test_no_taped_call_has_a_default_plan(self):
        for fn in (attention, attention_kernel, layer_forward):
            assert inspect.signature(fn).parameters["plan"].default is inspect.Parameter.empty, fn.__name__

    @pytest.mark.parametrize("kind", KINDS)
    def test_layer_forward_bit_equal_to_composed_ops(self, monkeypatch, kind):
        # the 48- and 64-column buckets of SHARED_TEXTS run two attention
        # tiles, left padding and members that start mid-bucket; memory rows
        # read the text keys and values; a 40-token target runs two tiles of
        # a right-padded decode bucket
        cfg = tiny_cfg(n_layers=3, gnn_layers=(2,))
        model = GofaModel(cfg, seed=21)
        rng = np.random.default_rng(21)
        for name, t in model.parameters().items():
            if name.endswith("norm"):  # gains away from their initial ones
                t.data = rng.uniform(0.5, 1.5, t.shape)
        k = cfg.memory_tokens
        checked = []
        inner = layer_forward

        def comparing(x, p, c, plan, kv=None):
            prior = (None, None) if kv is None or not kv.n else (kv.keys, kv.values)
            out = inner(x, p, c, plan, kv)
            first = 0 if prior[0] is None else prior[0].shape[2]
            window = plan.window
            if first and x.shape[1] == k and first + k == window[0, 1]:
                seen = "memory"
            elif first:
                seen = "member"
            else:
                seen = "decode-bucket" if decoding else "text"
            if seen == kind:
                want = composed_layer(x, p, c, window, *prior)
                assert out.data.dtype == want.data.dtype and out.data.tobytes() == want.data.tobytes()
                checked.append(len(plan.tiles))
            return out

        monkeypatch.setattr("gofa.compressor.layer_forward", comparing)
        with no_grad():
            decoding = False
            mems = model.compressor.run([tokenizer.encode(t) for t in SHARED_TEXTS])
            decoding = True
            model.decoder_nll_per_target(mems[:3], [list(range(65, 105)), [4], [5, 6, 7]])
        assert checked and (kind == "memory" or max(checked) >= 2)

    def test_one_plan_per_bucket_for_every_layer(self, monkeypatch):
        # teacher forcing three targets of 35 to 45 tokens in two buckets, 40
        # text columns (35 and 40 tokens) and 48 (45 tokens), each with 4
        # memory columns in two tiles, through three layers, forward and
        # backward: each bucket's tile masks and rotary tables are built once
        cfg = tiny_cfg(n_layers=3, gnn_layers=(2,))
        model = GofaModel(cfg, seed=22)
        masks, tables = [], []
        inner_masks, inner_tables = blocked_keys, _rotations

        def counting_masks(lq, lk, window=None):
            masks.append((lq, lk))
            return inner_masks(lq, lk, window)

        def counting_tables(*args):
            tables.append(args[2:])
            return inner_tables(*args)

        monkeypatch.setattr("gofa.autodiff.blocked_keys", counting_masks)
        monkeypatch.setattr("gofa.compressor._rotations", counting_tables)
        memory = Tensor(np.random.default_rng(0).normal(size=(3, cfg.memory_tokens, cfg.d_model)), requires_grad=True)
        nll, _ = model.decoder_nll_per_target(memory, [list(range(65, 105)), list(range(70, 105)), list(range(60, 105))])
        nll.sum().backward()
        totals = [40 + cfg.memory_tokens, 48 + cfg.memory_tokens]
        assert tables == [(0, total) for total in totals]
        assert masks == [(r1 - r0, c1) for total in totals for r0, r1, c1 in _query_tiles(total, total)] and len(masks) == 4
        assert memory.grad is not None


class TestBatchIndependence:
    """A text's memory rows must not depend on the other texts of a call:
    the text cache computes them in one batch and serves them to later ones."""

    @settings(max_examples=25, deadline=None)
    @example(BOUNDARY_LENGTHS + [600], 4, np.float64, 0)
    @example(BOUNDARY_LENGTHS + [600], 1, np.float32, 1)
    @example([33, 47, 70, 100, 120, 5], 4, np.float64, 2)
    @example([120, 33, 65, 97], 3, np.float32, 3)
    @given(
        st.lists(st.one_of(st.sampled_from(BOUNDARY_LENGTHS), st.integers(0, 40)), min_size=2, max_size=6),
        st.integers(1, 4),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**31 - 1),
    )
    def test_memory_alone_in_a_subset_and_padded_among_longer_texts(self, lengths, k, dtype, seed):
        precision = "float32" if dtype is np.float32 else "float64"
        cfg = tiny_cfg(memory_tokens=k, n_layers=3, gnn_layers=(2,), max_seq_len=520, precision=precision)
        model = GofaModel(cfg, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        seqs = [list(rng.integers(0, 256, n)) for n in lengths]
        with no_grad():
            full = model.compressor.run(seqs).data
            for i, seq in enumerate(seqs):
                alone = model.compressor.run([seq]).data[0]
                subset = [j for j in range(len(seqs)) if j == i or rng.random() < 0.5]
                among = model.compressor.run([seqs[j] for j in subset]).data[subset.index(i)]
                assert alone.dtype == dtype
                assert alone.tobytes() == full[i].tobytes() == among.tobytes(), f"text of length {len(seq)}"


class TestSharedPrefixes:
    """Texts of equal length run the rows of their shared leading tokens once
    (``_share_prefixes``); the rest of each text reads those rows' keys."""

    def test_members_start_after_the_shared_columns(self):
        cfg = tiny_cfg()
        seqs = [tokenizer.encode(t) for t in SHARED_TEXTS]
        buckets = {b.ids.shape[1]: b for b in make_compress_buckets(seqs, cfg, cfg.dtype)}
        for lb, want in [
            # (text, representative, first column run) of each member: a member
            # whose tile or call would hold one row starts a column earlier, and
            # members that start in one tile run from the earliest column
            (64, {(1, 0, 30), (2, 0, 62)}),
            (48, {(5, 4, 32), (6, 4, 13), (7, 4, 13), (9, 8, 13)}),
            (24, {(11, 10, 22)}),
            (4, set()),
        ]:
            b = buckets[lb]
            parts = _share_prefixes(b.ids, b.window)
            reps = parts[0]
            assert reps.start == 0 and reps.source is None
            got = {
                (b.indices[row], b.indices[reps.rows[src]], p.start)
                for p in parts[1:]
                for row, src in zip(p.rows, p.source)
            }
            assert got == want
            members = [b.indices[row] for p in parts[1:] for row in p.rows]
            assert sorted(b.indices[row] for row in reps.rows) == sorted(set(b.indices) - set(members))
            for p in parts[1:]:
                # every member call and every attention tile of it holds two rows or more
                assert all(r1 - r0 > 1 for r0, r1, _ in _query_tiles(lb - p.start, lb))

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_memories_equal_each_text_alone(self, precision):
        cfg = tiny_cfg(n_layers=3, gnn_layers=(2,), precision=precision)
        model = GofaModel(cfg, seed=16)
        seqs = [tokenizer.encode(t) for t in SHARED_TEXTS]
        with no_grad():
            batch = model.compressor.run(seqs).data
            for seq, mem in zip(seqs, batch):
                alone = model.compressor.run([seq]).data[0]
                assert alone.dtype == cfg.dtype and alone.tobytes() == mem.tobytes()

    def test_gradients_match_concatenated_reference(self, rng):
        cfg = tiny_cfg(memory_tokens=4, n_layers=3, gnn_layers=(1, 2))
        split, ref = TestSplitRun._gradients(GofaModel(cfg, seed=17), SHARED_TEXTS, rng)
        compressor_grads = [n for n, g in ref.items() if g is not None and n.startswith("compressor.")]
        assert len(compressor_grads) == 1 + 8 * cfg.n_layers
        assert {n for n, g in ref.items() if g is not None} == {n for n, g in split.items() if g is not None}
        for name, g in ref.items():
            if g is not None:
                np.testing.assert_allclose(split[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max(), err_msg=name)

    def test_an_spd_batch_runs_few_text_rows(self, monkeypatch):
        # one batch of 8 SPD samples at desk scale: 3,816 padded text rows per
        # layer without sharing, 1,154 with it
        spd, _ = corpus.gen_structural_corpus(corpus.CorpusConfig(n_graphs=8, rng_seed=1))
        cfg = ModelConfig(d_model=32, n_heads=4, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5), max_seq_len=128)
        model = GofaModel(cfg, seed=1)
        first = model.compressor_stack.layers[0]
        rows, texts = [], set()
        inner_layer, inner_buckets = layer_forward, make_compress_buckets

        def recording_layer(x, p, *rest):
            if p is first:
                rows.append(x.shape[0] * x.shape[1])
            return inner_layer(x, p, *rest)

        def recording_buckets(seqs, *rest):
            texts.update(tuple(s) for s in seqs)
            return inner_buckets(seqs, *rest)

        monkeypatch.setattr("gofa.compressor.layer_forward", recording_layer)
        monkeypatch.setattr("gofa.compressor.make_compress_buckets", recording_buckets)
        with no_grad():
            model.encode_graphs([s.graph for s in spd[:8]])
        padded = sum(b.ids.size for b in inner_buckets([list(t) for t in texts], cfg, cfg.dtype))
        # layer 1 runs each distinct text's K memory rows, and text rows
        text_rows = sum(rows) - cfg.memory_tokens * len(texts)
        assert padded == 3816
        assert text_rows <= 1154


class TestTextCache:
    # three calls that share texts, the last one repeating the first; one text
    # is longer than max_seq_len
    CALLS = [SPLIT_TEXTS[:6], SPLIT_TEXTS[3:] + ["link", "new one", "y" * 60], SPLIT_TEXTS[:6]]

    @staticmethod
    def _frozen_model(cfg, seed):
        model = GofaModel(cfg, seed=seed)
        for name, t in model.parameters().items():
            t.requires_grad = not name.startswith(("compressor.", "memory_tokens"))
        return model

    # texts of 33-120 tokens, whose text rows run in several attention tiles
    LONG_CALLS = [["q" * 33, "r" * 70, "s" * 120, "ab"], ["r" * 70, "t" * 64, "u" * 97], ["s" * 120, "q" * 33]]

    # the same with texts that share prefixes: the second call holds members
    # whose representatives the cache already has
    SHARED_CALLS = [SHARED_TEXTS[:8], SHARED_TEXTS[3:] + [_variant(_B56, 40)], SHARED_TEXTS[:8]]

    def _calls(self, model, hook, w, upstream, calls=CALLS):
        out = []
        for texts in calls:
            w.zero_grad()
            mems = model.compressor.run([tokenizer.encode(t) for t in texts], memory_hook=hook)
            if hook is not None:
                (mems * upstream[: len(texts)]).sum().backward()
            out.append((mems.data, None if w.grad is None else w.grad.copy()))
        return out

    # each case in float64, under its id, and in float32
    @pytest.mark.parametrize(
        "gnn_layers, calls, precision",
        [
            pytest.param(gnn_layers, calls, precision, id=name if precision == "float64" else f"{name}-{precision}")
            for gnn_layers, calls, name in [
                ((1, 2), CALLS, "gnn_layers0"),
                ((), CALLS, "gnn_layers1"),
                ((2,), CALLS, "gnn_layers2"),
                ((1, 2), SHARED_CALLS, "gnn_layers0-shared"),
                ((2,), SHARED_CALLS, "gnn_layers2-shared"),
            ]
            for precision in ("float64", "float32")
        ],
    )
    def test_cached_calls_match_uncached(self, rng, gnn_layers, calls, precision):
        cfg = tiny_cfg(n_layers=3, gnn_layers=gnn_layers, precision=precision)
        model = self._frozen_model(cfg, seed=11)
        hook, w = TestSplitRun._hook_and_weight(cfg, rng)
        hook = hook if gnn_layers else None
        upstream = Tensor(rng.normal(size=(max(map(len, calls)), cfg.memory_tokens, cfg.d_model)), dtype=cfg.dtype)
        uncached = self._calls(model, hook, w, upstream, calls)
        with model.compressor.text_cache() as cache:
            cached = self._calls(model, hook, w, upstream, calls)
            assert model.compressor._cache is cache
            stored = set(cache.entries)
        for (mem_a, grad_a), (mem_b, grad_b) in zip(uncached, cached):
            assert mem_a.dtype == cfg.dtype and mem_a.tobytes() == mem_b.tobytes()
            assert (grad_a is None) == (grad_b is None) == (hook is None)
            assert grad_a is None or grad_a.tobytes() == grad_b.tobytes()
        distinct = {tuple(tokenizer.encode(t)) for texts in calls for t in texts}
        assert stored == distinct and cache.misses == len(distinct)
        assert cache.hits == sum(len(set(texts)) for texts in calls) - len(distinct)
        # text rows at the inputs of layers t0+1..n, memory rows at t0
        k, d, later = cfg.memory_tokens, cfg.d_model, cfg.n_layers - min(gnn_layers, default=cfg.n_layers)
        assert cache.bytes == sum(np.dtype(cfg.dtype).itemsize * d * (later * min(len(key), cfg.max_seq_len - k) + k) for key in distinct)
        assert cache.entries == {} and model.compressor._cache is None

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_long_cached_texts_match_uncached(self, rng, precision):
        cfg = tiny_cfg(n_layers=3, gnn_layers=(1,), max_seq_len=128, precision=precision)
        model = self._frozen_model(cfg, seed=15)
        hook, w = TestSplitRun._hook_and_weight(cfg, rng)
        upstream = Tensor(rng.normal(size=(4, cfg.memory_tokens, cfg.d_model)), dtype=cfg.dtype)
        uncached = self._calls(model, hook, w, upstream, self.LONG_CALLS)
        with model.compressor.text_cache() as cache:
            cached = self._calls(model, hook, w, upstream, self.LONG_CALLS)
            assert cache.hits == 3
        for (mem_a, grad_a), (mem_b, grad_b) in zip(uncached, cached):
            assert mem_a.dtype == grad_a.dtype == cfg.dtype
            assert mem_a.tobytes() == mem_b.tobytes() and grad_a.tobytes() == grad_b.tobytes()

    @pytest.mark.parametrize("gnn_layers", [(1,), (2,), ()])
    def test_filling_runs_the_text_rows_of_an_uncached_call(self, monkeypatch, gnn_layers):
        # per layer, the text rows that run while a fresh cache fills are those
        # of the same call without a cache. The 4-column bucket of "ab" and "ac"
        # runs K text rows, as many as a memory call, so a call is told by its
        # columns: memory rows end at their windows' last column, the K memory
        # columns, and text rows K columns before it
        cfg = tiny_cfg(n_layers=3, gnn_layers=gnn_layers)
        model = self._frozen_model(cfg, seed=18)
        names = {id(p): i + 1 for i, p in enumerate(model.compressor_stack.layers)}
        inner = layer_forward

        def text_rows(cached: bool) -> dict[int, int]:
            rows: dict[int, int] = {}

            def recording(x, p, c, plan, kv=None):
                end = x.shape[1] + (kv.n if kv is not None else 0)
                if end < plan.window[0, 1]:
                    t = names[id(p)]
                    rows[t] = rows.get(t, 0) + x.shape[0] * x.shape[1]
                return inner(x, p, c, plan, kv)

            monkeypatch.setattr("gofa.compressor.layer_forward", recording)
            seqs = [tokenizer.encode(t) for t in SHARED_TEXTS + SPLIT_TEXTS]
            if cached:
                with model.compressor.text_cache() as cache:
                    model.compressor.run(seqs)
                    assert cache.hits == 0
            else:
                model.compressor.run(seqs)
            monkeypatch.undo()
            return rows

        uncached = text_rows(cached=False)
        assert sorted(uncached) == list(range(1, cfg.n_layers))
        assert text_rows(cached=True) == uncached

    def test_repeated_call_skips_the_layers_below_the_cache_point(self, monkeypatch):
        for gnn_layers, ran in (((1,), [2, 3]), ((2,), [3]), ((), [])):
            cfg = tiny_cfg(n_layers=3, gnn_layers=gnn_layers)
            model = self._frozen_model(cfg, seed=12)
            names = {id(p): i + 1 for i, p in enumerate(model.compressor_stack.layers)}
            called = []
            inner = layer_forward

            def recording(x, p, *rest):
                called.append((names[id(p)], x.shape[1]))
                return inner(x, p, *rest)

            monkeypatch.setattr("gofa.compressor.layer_forward", recording)
            seqs = [tokenizer.encode(t) for t in SPLIT_TEXTS]
            with model.compressor.text_cache():
                model.compressor.run(seqs)
                called.clear()
                model.compressor.run(seqs)
            assert sorted({t for t, _ in called}) == ran
            # no text row runs through a layer: every call holds K memory rows
            assert {rows for _, rows in called} <= {cfg.memory_tokens}
            monkeypatch.undo()

    def test_each_distinct_text_is_bucketed_once(self, monkeypatch):
        model = self._frozen_model(tiny_cfg(n_layers=3, gnn_layers=(1, 2)), seed=14)
        bucketed = []

        def recording(seqs, *rest):
            bucketed.extend(tuple(s) for s in seqs)
            return make_compress_buckets(seqs, *rest)

        # hits, misses and duplicate texts ("" twice, three texts repeated)
        texts = SPLIT_TEXTS[2:] + SPLIT_TEXTS[2:5]
        distinct = {tuple(tokenizer.encode(t)) for t in texts}
        with model.compressor.text_cache() as cache:
            model.compressor.run([tokenizer.encode(t) for t in SPLIT_TEXTS[:4]])
            hits, misses = cache.hits, cache.misses
            monkeypatch.setattr("gofa.compressor.make_compress_buckets", recording)
            model.compressor.run([tokenizer.encode(t) for t in texts])
            assert (cache.hits - hits, cache.misses - misses) == (3, len(distinct) - 3)
        assert len(bucketed) == len(distinct) and set(bucketed) == distinct

    def test_refuses_a_compressor_that_takes_gradients(self):
        model = GofaModel(tiny_cfg(), seed=13)
        with pytest.raises(ValueError, match="frozen compressor"):
            with model.compressor.text_cache():
                pass
        assert model.compressor._cache is None


def reference_autoencode_loss(model, texts):
    """Reconstruction loss straight from the compressor and the decoder:
    compress the bare texts, then decode each one's tokens from its memory
    block alone; mean over texts."""
    mems = compress(model, texts)
    nll, counts = model.decoder_nll_per_target(mems, [model.target_ids(t) for t in texts])
    return (nll * (1.0 / (counts * len(texts)))).sum()


class TestAutoencoder:
    def test_untrained_loss_near_uniform(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=0)
        loss, _, _ = model.forward_batch([make_autoencode_task(t) for t in ["abab", "bbaa"]])
        assert abs(loss.item() - np.log(tokenizer.VOCAB_SIZE)) < 0.5

    def test_identical_texts_identical_memories(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=0)
        mems = compress(model, ["same text", "same text"]).data
        assert np.array_equal(mems[0], mems[1])

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_one_node_tasks_match_the_reconstruction_loss(self, precision):
        # an empty text, a duplicate, and one longer than max_seq_len - K
        texts = ["abab", "", "bbaa", "a longer text in its own bucket", "abab", "z" * 70]
        model = GofaModel(tiny_cfg(precision=precision), seed=3)
        params = model.parameters()
        runs = []
        for loss_of in (
            lambda: reference_autoencode_loss(model, texts),
            lambda: model.forward_batch([make_autoencode_task(t) for t in texts])[0],
        ):
            for t in params.values():
                t.zero_grad()
            loss = loss_of()
            loss.backward()
            runs.append((loss.data.tobytes(), {n: None if t.grad is None else t.grad.tobytes() for n, t in params.items()}))
        (ref_loss, ref_grads), (loss, grads) = runs
        assert loss == ref_loss
        assert all(grads[n] is not None for n in ("compressor.embed", "memory_tokens", "decoder.embed"))
        assert grads == ref_grads

    def test_overfit_two_symbol_alphabet(self):
        # K >= text length on a 2-symbol alphabet: reconstruction drives
        # below 0.05 after overfitting 32 samples.
        cfg = tiny_cfg(d_model=32, n_heads=2, n_layers=2, memory_tokens=4)
        model = GofaModel(cfg, seed=5)
        rng = np.random.default_rng(7)
        texts = ["".join(rng.choice(["a", "b"], size=rng.integers(1, 5))) for _ in range(32)]
        samples = [make_autoencode_task(t) for t in texts]
        tcfg = TrainConfig(lr=3e-3, weight_decay=0.0, grad_clip=1.0, batch_size=32, max_steps=400, seed=1)
        train(model, samples, tcfg)
        final = model.forward_batch(samples)[0].item()
        assert final < 0.05, f"reconstruction loss stuck at {final}"
