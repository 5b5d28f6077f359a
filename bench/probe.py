"""Instrumentation of the gofa package from outside it.

``Patcher`` replaces attributes of gofa modules and classes and puts every
original back on ``restore``. ``Tracer`` uses it to wrap the public entry
point of each layer: every call becomes a span (name, start, end, parent,
op id), and counters record the work done at the same boundaries. Nothing
under ``src/`` knows it is being measured; the wrappers only time and count,
so numbers computed by the program are unchanged.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from collections import defaultdict

import numpy as np

from gofa import autodiff, checkpoint, compressor, corpus, evaluation, gnn, model, structure, taskgen, tokenizer, training

# Op kinds reported one by one; every other tape op is counted as "other".
OP_KINDS = (
    "matmul", "softmax", "rms_norm", "silu", "mul", "add", "getitem", "reshape",
    "transpose", "concat", "gather_rows", "segment_sum", "cross_entropy_sum", "exp",
)

perf_counter = time.perf_counter


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def function(self, module, name: str, make_wrapper) -> None:
        """Replace ``module.name`` and every alias of it that another gofa
        module imported by name, so callers see the wrapper either way."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "gofa" or mod_name.startswith("gofa.")) and mod.__dict__.get(name) is original:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class GofaWarnings(logging.Handler):
    """Counts the truncation warnings of the ``gofa`` logger instead of
    letting them reach stderr."""

    def __init__(self):
        super().__init__()
        self.counts: dict[str, int] = defaultdict(int)
        self.active = True
        self._logger = logging.getLogger("gofa")
        self._propagate = self._logger.propagate

    def emit(self, record: logging.LogRecord) -> None:
        if self.active:
            kind = "target" if str(record.msg).startswith("target length") else "text"
            self.counts[kind] += 1

    def __enter__(self):
        self._logger.addHandler(self)
        self._logger.propagate = False
        return self

    def __exit__(self, *exc):
        self._logger.removeHandler(self)
        self._logger.propagate = self._propagate


class Tracer:
    """Spans and counters at the layer boundaries of one benchmark run.

    ``op`` names the step, answer or set-up that the next span belongs to;
    ``counting`` gates the counters, so they cover only the fixed window of
    ops that every run completes and therefore repeat exactly.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent index or None, start, end]
        self._stack: list[int] = []
        self.op = "setup-0"
        self.counting = False
        self.counts: dict[str, float] = defaultdict(float)
        self.bw_seconds: dict[str, float] = defaultdict(float)
        self._layer_names: dict[int, str] = {}
        self._in_next_logits = False
        self._optimizer = None
        self.patcher = Patcher()

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, self.op, self._stack[-1] if self._stack else None, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float) -> None:
        if self.counting:
            self.counts[key] += n

    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                rec = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(rec)

            return wrapper

        return make

    def register_model(self, m: model.GofaModel) -> None:
        """Name the layer parameter dicts of ``m`` so layer calls can be
        attributed to ``compressor.layerN``, ``decoder.layerN`` and ``gnn.layerN``."""
        self._layer_names.clear()
        for stack in (m.compressor_stack, m.decoder_stack):
            for i, layer in enumerate(stack.layers):
                self._layer_names[id(layer)] = f"{stack.prefix}.layer{i + 1}"
        for t, params in m.gnn_params.items():
            self._layer_names[id(params)] = f"gnn.layer{t}"

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        p = self.patcher
        spanned = self._spanned
        p.function(corpus, "gen_completion_corpus", spanned("corpus.gen"))
        p.function(corpus, "gen_structural_corpus", spanned("corpus.gen"))
        p.function(taskgen, "write_samples", spanned("taskgen.jsonl_write"))
        p.function(taskgen, "read_samples", spanned("taskgen.jsonl_read"))
        p.function(structure, "all_shortest_paths", spanned("structure.oracle"))
        p.function(structure, "common_neighbors", spanned("structure.oracle"))
        p.function(evaluation, "score_structural", spanned("evaluation.score"))
        p.function(training, "clip_gradients", self._wrap_clip)
        p.method(training.AdamW, "step", spanned("training.opt_step"))
        p.method(training.AdamW, "zero_grad", self._wrap_zero_grad)
        p.function(checkpoint, "save_checkpoint", self._wrap_save)
        p.function(checkpoint, "load_checkpoint", spanned("checkpoint.load"))
        p.method(model.GofaModel, "forward_batch", spanned("model.forward_batch"))
        p.method(model.GofaModel, "encode_graphs", spanned("model.encode"))
        p.method(model.GofaModel, "decoder_nll_per_target", spanned("model.decode_loss"))
        p.function(compressor, "layer_forward", self._wrap_layer)
        p.function(gnn, "gnn_layer", self._wrap_gnn)
        p.function(compressor, "make_compress_buckets", self._wrap_buckets("compressor"))
        p.function(compressor, "make_decode_buckets", self._wrap_buckets("decoder"))
        p.method(compressor.Decoder, "next_logits", self._wrap_next_logits)
        p.method(autodiff.Tensor, "backward", spanned("autodiff.backward"))
        p.method(autodiff.Tensor, "_make", self._wrap_make)

    def restore(self) -> None:
        self.patcher.restore()

    # -- wrappers with counters ----------------------------------------------------

    def _wrap_layer(self, fn):
        def layer_forward(x, p, cfg, *rest):
            name = self._layer_names.get(id(p), "unknown.layer")
            if self._in_next_logits and name == "decoder.layer1":
                self.count("decoder.next_logits_positions", x.shape[0] * x.shape[1])
            rec = self.open(name)
            try:
                return fn(x, p, cfg, *rest)
            finally:
                self.close(rec)

        return layer_forward

    def _wrap_gnn(self, fn):
        def gnn_layer(src, dst, node_mem, edge_mem, params, cfg, **kwargs):
            self.count("gnn.arcs", len(src))
            rec = self.open(self._layer_names.get(id(params), "gnn.unknown"))
            try:
                return fn(src, dst, node_mem, edge_mem, params, cfg, **kwargs)
            finally:
                self.close(rec)

        return gnn_layer

    def _wrap_buckets(self, side: str):
        def make(fn):
            def make_buckets(seqs, cfg, dtype):
                rec = self.open(f"{side}.bucket")
                try:
                    buckets = fn(seqs, cfg, dtype)
                finally:
                    self.close(rec)
                for b in buckets:
                    sb, lb = b.ids.shape
                    pad = int(np.count_nonzero(b.ids == tokenizer.PAD_ID))
                    self.count(f"{side}.positions", sb * (lb + cfg.memory_tokens))
                    self.count(f"{side}.pad", pad)
                    self.count(f"{side}.tokens", sb * lb - pad)
                return buckets

            return make_buckets

        return make

    def _wrap_next_logits(self, fn):
        def next_logits(dec, memory, prefix):
            self.count("decoder.next_logits_calls", 1)
            self._in_next_logits = True
            rec = self.open("decoder.next_logits")
            try:
                return fn(dec, memory, prefix)
            finally:
                self.close(rec)
                self._in_next_logits = False

        return next_logits

    def _wrap_clip(self, fn):
        """Before clipping, every gradient of the step exists: count the
        elements computed for parameters the optimizer never updates."""

        def clip_gradients(params, max_norm):
            if self.counting and self._optimizer is not None:
                trainable = {id(t) for t in params}
                for t in self._optimizer.named.values():
                    if t.grad is not None:
                        self.counts["training.grad_elements"] += t.grad.size
                        if id(t) not in trainable:
                            self.counts["training.frozen_grad_elements"] += t.grad.size
            rec = self.open("training.clip")
            try:
                return fn(params, max_norm)
            finally:
                self.close(rec)

        return clip_gradients

    def _wrap_zero_grad(self, fn):
        def zero_grad(opt):
            self._optimizer = opt
            rec = self.open("training.zero_grad")
            try:
                return fn(opt)
            finally:
                self.close(rec)

        return zero_grad

    def _wrap_save(self, fn):
        def save_checkpoint(path, tensors, config=None):
            rec = self.open("checkpoint.save")
            try:
                fn(path, tensors, config)
            finally:
                self.close(rec)
            self.counts["checkpoint.saves"] += 1
            self.counts["checkpoint.bytes"] += os.path.getsize(path)

        return save_checkpoint

    def _wrap_make(self, fn):
        kinds: dict[object, str] = {}
        bw_seconds = self.bw_seconds

        def _make(tensor, data, parents, backward):
            code = backward.__code__
            kind = kinds.get(code)
            if kind is None:
                kind = kinds[code] = op_kind(backward.__qualname__)
            if self.counting:
                self.counts[f"autodiff.fwd_ops.{kind}"] += 1

            def timed_backward(g):
                t0 = perf_counter()
                try:
                    return backward(g)
                finally:
                    bw_seconds[kind] += perf_counter() - t0

            return fn(tensor, data, parents, timed_backward)

        return _make

    # -- reduction -------------------------------------------------------------------

    def span_seconds(self) -> tuple[dict, dict, dict]:
        """Per span name: (op -> inclusive seconds, op -> self seconds, calls)."""
        incl: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] is not None:
                child[rec[2]] += rec[4] - rec[3]
        for i, (name, op, _parent, t0, t1) in enumerate(self.spans):
            incl[name][op] += t1 - t0
            self_s[name][op] += t1 - t0 - child[i]
            calls[name] += 1
        return incl, self_s, calls

    def write(self, path) -> None:
        """Write every span as one JSON line: name, op id, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent, "start": t0, "end": t1}) + "\n")


def op_kind(qualname: str) -> str:
    """``Tensor.__matmul__.<locals>.bw`` -> ``matmul``; ``softmax.<locals>.bw`` -> ``softmax``."""
    name = qualname.split(".<locals>")[0].rsplit(".", 1)[-1].strip("_")
    return name if name in OP_KINDS else "other"
