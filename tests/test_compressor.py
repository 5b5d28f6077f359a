import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gofa import corpus, tokenizer
from gofa.autodiff import Tensor, _query_tiles, blocked_keys, concat, gather_rows, no_grad, rope
from gofa.compressor import (
    _BUCKET_STEPS,
    LayerKV,
    ModelConfig,
    _bucket_len,
    _rope_matrices,
    _rope_tables,
    _rotation_matrices,
    _rotation_tables,
    _share_prefixes,
    _split_consts,
    gather_in_order,
    layer_forward,
    make_compress_buckets,
    make_decode_buckets,
)
from gofa.model import GofaModel
from gofa.taskgen import make_autoencode_task
from gofa.training import TrainConfig, train

from conftest import compress


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
    consts = []
    for b in buckets:
        cos_tab, sin_tab = _rope_tables(int(b.pos.max()) + 1, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)
        consts.append((b.window, cos_tab[b.pos][:, None], sin_tab[b.pos][:, None]))
    for t, layer in enumerate(comp.stack.layers, start=1):
        xs = [layer_forward(x, layer, cfg, *c) for x, c in zip(xs, consts)]
        if memory_hook is not None and t in cfg.gnn_layers:
            new = memory_hook(gather_in_order([x[:, -k:] for x in xs], [b.indices for b in buckets]), t)
            xs = [
                concat([x[:, : b.text_len], gather_rows(new, b.indices)], axis=1) if b.text_len else gather_rows(new, b.indices)
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
        total = x_data.shape[1]
        cos_tab, sin_tab = _rope_tables(total, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)
        pos = np.arange(total)[None, :]
        cos, sin = cos_tab[pos][:, None], sin_tab[pos][:, None]
        return layer_forward(Tensor(x_data), model.compressor_stack.layers[0], cfg, None, cos, sin)

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
        # Prefill 5 positions on the tape, start the inference cache from
        # them with fill(), then step the rest one row at a time: every
        # output row matches one causal pass.
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=4)
        layer = model.compressor_stack.layers[0]
        total = 9
        x = rng.normal(size=(1, total, cfg.d_model))
        full = self._run_layer(cfg, x, model).data
        cos_tab, sin_tab = _rope_tables(total, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)
        rot = _rope_matrices(total, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)
        taped = LayerKV()
        with no_grad():
            prefill = layer_forward(Tensor(x[:, :5]), layer, cfg, None, cos_tab[None, None, :5], sin_tab[None, None, :5], taped)
        rows = [prefill.data]
        kv = LayerKV(capacity=total)
        kv.fill(taped, 5)
        for i in range(5, total):
            rows.append(layer_forward(x[:, i : i + 1], layer, cfg, None, rot[i], None, kv))
        assert kv.n == total
        np.testing.assert_allclose(np.concatenate(rows, axis=1), full, rtol=0, atol=1e-12)

    def test_rotation_matrices_match_rope(self, rng):
        # the step rotates [2H, dh] query and key rows with one matrix product
        cfg = tiny_cfg(d_model=32, n_heads=4)
        cos_tab, sin_tab = _rotation_tables(cfg)
        rot = _rotation_matrices(cfg)
        assert rot.shape == (len(cos_tab), cfg.head_dim, cfg.head_dim) and not rot.flags.writeable
        for i in range(len(cos_tab)):
            rows = rng.normal(size=(2 * cfg.n_heads, cfg.head_dim))
            want = rope(Tensor(rows), cos_tab[i], sin_tab[i]).data
            assert np.abs(rows @ rot[i] - want).max() <= 1e-15 * np.abs(want).max()

    def test_kv_cache_refuses_a_tape(self, rng):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=4)
        x = rng.normal(size=(1, 3, cfg.d_model))
        rot = _rope_matrices(3, cfg.head_dim // 2, cfg.rope_base, cfg.dtype)
        layer = model.decoder_stack.layers[0]
        for tensor in (Tensor(x), Tensor(x, requires_grad=True)):
            with pytest.raises(ValueError, match="without a tape"):
                layer_forward(tensor, layer, cfg, None, rot[0], None, LayerKV(3))
        # the step runs one position; several rows are a prefill's, on the tape
        with pytest.raises(ValueError, match="one position"):
            layer_forward(x, layer, cfg, None, rot[0], None, LayerKV(3))

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
        w = Tensor(rng.normal(0.0, 0.3, (cfg.d_model, cfg.d_model)), requires_grad=True)
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


def reference_buckets(sequences, cfg, memory_first):
    """Per-row bucket builder: text left-padded before the K memory rows and
    cut to its last tokens, or (``memory_first``) right-padded after them and
    cut to its first tokens; one row at a time. Each row's dense [L, L]
    mask of the keys its queries see and its window of real columns."""
    limit = cfg.max_seq_len - cfg.memory_tokens
    k = cfg.memory_tokens
    seqs = [list(s)[:limit] if memory_first else list(s)[-limit:] for s in sequences]
    groups = {}
    for i, s in enumerate(seqs):
        groups.setdefault(_bucket_len(len(s)), []).append(i)
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
        by_len = {b.text_len: b for b in buckets}
        assert set(by_len) == {4, 8}
        b4 = by_len[4]
        row3 = b4.ids[b4.indices.index(0)]
        assert list(row3) == [tokenizer.PAD_ID, 1, 2, 3]

    def test_positions_continue_into_memory(self):
        cfg = tiny_cfg()
        b = make_compress_buckets([[1, 2, 3]], cfg, np.float64)[0]
        assert list(b.pos[0]) == [0, 0, 1, 2, 3, 4, 5, 6]  # pad, 3 text, 4 memory

    def test_decode_bucket_labels_right_padded(self):
        cfg = tiny_cfg()
        b = make_decode_buckets([[9, 8, 7]], cfg, np.float64)[0]
        assert list(b.ids[0][:3]) == [9, 8, 7]

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
                assert b.indices == idxs and b.text_len == lb
                for have, ref in ((b.ids, ids), (b.pos, pos), (b.window, window)):
                    assert have.dtype == ref.dtype and have.shape == ref.shape
                    assert have.tobytes() == ref.tobytes()
                # the keys attention masks from the window: whole bucket, and the
                # text rows and memory rows the split compressor runs apart
                total = lb + k
                assert np.array_equal(blocked_keys(total, total, b.window), ~seen)
                if not memory_first:
                    assert np.array_equal(blocked_keys(lb, lb, b.window), ~seen[:, :lb, :lb])
                    assert np.array_equal(blocked_keys(k, total, b.window), ~seen[:, lb:])


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
        buckets = {b.text_len: b for b in make_compress_buckets(seqs, cfg, cfg.dtype)}
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
            parts = _share_prefixes(b.ids, _split_consts(b, cfg)[0])
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

    @pytest.mark.parametrize(
        "gnn_layers, calls",
        [
            pytest.param((1, 2), CALLS, id="gnn_layers0"),
            pytest.param((), CALLS, id="gnn_layers1"),
            pytest.param((2,), CALLS, id="gnn_layers2"),
            pytest.param((1, 2), SHARED_CALLS, id="gnn_layers0-shared"),
            pytest.param((2,), SHARED_CALLS, id="gnn_layers2-shared"),
        ],
    )
    def test_cached_calls_match_uncached(self, rng, gnn_layers, calls):
        cfg = tiny_cfg(n_layers=3, gnn_layers=gnn_layers)
        model = self._frozen_model(cfg, seed=11)
        hook, w = TestSplitRun._hook_and_weight(cfg, rng)
        hook = hook if gnn_layers else None
        upstream = Tensor(rng.normal(size=(max(map(len, calls)), cfg.memory_tokens, cfg.d_model)))
        uncached = self._calls(model, hook, w, upstream, calls)
        with model.compressor.text_cache() as cache:
            cached = self._calls(model, hook, w, upstream, calls)
            assert model.compressor._cache is cache
            stored = set(cache.entries)
        for (mem_a, grad_a), (mem_b, grad_b) in zip(uncached, cached):
            assert mem_a.tobytes() == mem_b.tobytes()
            assert (grad_a is None) == (grad_b is None) == (hook is None)
            assert grad_a is None or grad_a.tobytes() == grad_b.tobytes()
        distinct = {tuple(tokenizer.encode(t)) for texts in calls for t in texts}
        assert stored == distinct and cache.misses == len(distinct)
        assert cache.hits == sum(len(set(texts)) for texts in calls) - len(distinct)
        # text rows at the inputs of layers t0+1..n, memory rows at t0
        k, d, later = cfg.memory_tokens, cfg.d_model, cfg.n_layers - min(gnn_layers, default=cfg.n_layers)
        assert cache.bytes == sum(8 * d * (later * min(len(key), cfg.max_seq_len - k) + k) for key in distinct)
        assert cache.entries == {} and model.compressor._cache is None

    def test_long_cached_texts_match_uncached(self, rng):
        cfg = tiny_cfg(n_layers=3, gnn_layers=(1,), max_seq_len=128)
        model = self._frozen_model(cfg, seed=15)
        hook, w = TestSplitRun._hook_and_weight(cfg, rng)
        upstream = Tensor(rng.normal(size=(4, cfg.memory_tokens, cfg.d_model)))
        uncached = self._calls(model, hook, w, upstream, self.LONG_CALLS)
        with model.compressor.text_cache() as cache:
            cached = self._calls(model, hook, w, upstream, self.LONG_CALLS)
            assert cache.hits == 3
        for (mem_a, grad_a), (mem_b, grad_b) in zip(uncached, cached):
            assert mem_a.tobytes() == mem_b.tobytes() and grad_a.tobytes() == grad_b.tobytes()

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
        assert abs(loss.item() - np.log(cfg.vocab_size)) < 0.5

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
            model.zero_grad()
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
