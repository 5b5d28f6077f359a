"""Tests of the benchmark itself: instrumented runs compute exactly what plain
calls compute, counters repeat, wrappers come off, and the declared metrics
match the emitted ones.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads as w
from gofa import evaluation, training
from probe import Tracer, op_kind

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# Small corpora and short loops; the schedule ends with the window, so
# training.train returns on its own and a plain call can run the same steps.
SMALL = w.Settings(
    n_graphs=10, schedule_steps=3, checkpoint_every=2, window_steps=3,
    setup_repeats=1, max_new_tokens=6, val_every=2,
)


SEED = 3


def _patchable_state() -> dict:
    """Every attribute of gofa modules and of the classes whose methods the
    benchmark wraps."""
    from gofa.autodiff import Tensor
    from gofa.compressor import Decoder
    from gofa.model import GofaModel
    from gofa.training import AdamW

    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "gofa" or name.startswith("gofa."):
            state.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (Tensor, Decoder, GofaModel, AdamW):
        state.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return state


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced run and two traced runs of the same seed,
    plus the gofa attributes as they were before any of them."""
    before = _patchable_state()
    out = {"before": before}
    for workload in w.WORKLOADS:
        tmp = tmp_path_factory.mktemp(workload)
        untraced = w.run_workload(workload, SEED, 0.0, SMALL, tmp / "untraced")
        traced = []
        for name in ("a", "b"):
            tracer = Tracer()
            traced.append((w.run_workload(workload, SEED, 0.0, SMALL, tmp / name, tracer), tracer))
        out[workload] = (untraced, traced)
    return out


@pytest.mark.parametrize("workload", ["train-completion", "train-spd"])
def test_train_losses_equal_plain_call(workload, runs, tmp_path):
    inputs = w.make_inputs(workload, SEED, SMALL, tmp_path)
    report = training.train(inputs.model, inputs.train, w.train_config(workload, SEED, SMALL))
    plain = w.digest(np.asarray(report.losses, dtype=np.float64).tobytes())
    untraced, traced = runs[workload]
    for run in [untraced] + [r for r, _ in traced]:
        assert run.failures == []
        assert len(run.op_ms) == SMALL.window_steps
        assert run.loss_digest == plain


def test_eval_outputs_equal_plain_call(runs, tmp_path):
    inputs = w.make_inputs("eval-structural", SEED, SMALL, tmp_path)
    chunks = w.batches(inputs.test, SMALL.batch_size)
    ppls = [evaluation.perplexity(inputs.model, chunk, batch_size=SMALL.batch_size) for chunk in chunks]
    report = evaluation.evaluate_structural(inputs.model, chunks[0], max_new_tokens=SMALL.max_new_tokens)
    texts = [row["generated"] for row in report.transcripts]
    untraced, traced = runs["eval-structural"]
    for run in [untraced] + [r for r, _ in traced]:
        assert run.failures == []
        assert run.window_ops == len(texts)
        assert run.loss_digest == w.digest(np.asarray(ppls, dtype=np.float64).tobytes())
        assert run.output_digest == w.digest("\0".join(texts).encode("utf-8"))


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_counters_repeat_exactly(workload, runs):
    untraced, traced = runs[workload]
    counters = []
    for run, tracer in traced:
        metrics = w.per_layer(tracer, run, untraced)
        counters.append({
            k: v for k, (v, unit) in metrics.items()
            if unit in ("count", "bytes") or (unit == "share" and not k.startswith("trace."))
        })
    assert counters[0] == counters[1]
    assert sum(v for k, v in counters[0].items() if k.startswith("autodiff.fwd_ops.")) > 0


def test_counters_show_the_known_waste_and_spans_cover_steps(runs):
    (c_run, c_tracer), _ = runs["train-completion"][1]
    (s_run, s_tracer), _ = runs["train-spd"][1]
    (e_run, e_tracer), _ = runs["eval-structural"][1]
    c = w.per_layer(c_tracer, c_run, c_run)
    s = w.per_layer(s_tracer, s_run, s_run)
    e = w.per_layer(e_tracer, e_run, e_run)
    assert 0.3 < c["training.frozen_grad_share"][0] < 0.5  # compressor grads computed, never used
    assert s["training.frozen_grad_share"][0] == 0.0
    assert 0.0 < c["compressor.pad_share"][0] < 1.0
    assert c["trace.top_level_share"][0] >= 0.95 and s["trace.top_level_share"][0] >= 0.95
    assert e["decoder.next_logits_calls"][0] == e_run.window_ops * SMALL.max_new_tokens
    assert e["decoder.positions_per_token"][0] > 1.0


def test_every_wrapper_is_restored(runs):
    after = _patchable_state()
    changed = [key for key, value in runs["before"].items() if after.get(key) is not value]
    assert changed == []


def test_op_kind_names_tape_ops_by_their_function():
    assert op_kind("Tensor.__matmul__.<locals>.bw") == "matmul"
    assert op_kind("rms_norm.<locals>.bw") == "rms_norm"
    assert op_kind("cross_entropy_sum.<locals>.bw") == "cross_entropy_sum"
    assert op_kind("Tensor.swapaxes.<locals>.bw") == "other"


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(w.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(w.PER_LAYER)
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-spd", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
