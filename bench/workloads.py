"""The gofa benchmark workloads: seeded set-up, closed loops and checks.

- ``train-completion``: ``training.train`` on the completion corpus with the
  README recipe (compressor and memory tokens frozen, ``gate_lr_mult=25``).
- ``train-spd``: ``training.train`` on the SPD half of the structural corpus,
  nothing frozen.
- ``eval-structural``: ``evaluation.perplexity`` and
  ``evaluation.evaluate_structural`` on SPD and CN test samples, with a model
  that set-up saved and loaded again as ``gofa eval`` does.

Every loop is closed: one caller issues the next train step or answer only
after the previous one returned. All inputs derive from the workload seed.
Loop hooks around gofa entry points mark op boundaries and record losses,
tokens and answers; with a ``Tracer`` the same run also yields spans.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gofa import corpus, evaluation, structure, taskgen, tokenizer, training
from gofa.compressor import Decoder, ModelConfig
from gofa.model import GofaModel
from gofa.tag import TAG, TaskSample

from probe import OP_KINDS, GofaWarnings, Patcher, Tracer, perf_counter

WORKLOADS = ("train-completion", "train-spd", "eval-structural")

# Desk-scale model of the ROADMAP; max_seq_len stays at its default so the
# left truncation of long SPD targets shows in decoder.truncated_targets.
MODEL = dict(d_model=32, n_heads=4, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5), max_seq_len=128, precision="float64")

RECIPES = {
    "train-completion": dict(freeze=("compressor.", "memory_tokens"), gate_lr_mult=25.0),
    "train-spd": {},
}


@dataclass(frozen=True)
class Settings:
    """Sizes of one run. The defaults define the benchmark; tests shrink them."""

    n_graphs: int = 200
    test_fraction: float = 0.2
    batch_size: int = 8
    schedule_steps: int = 700  # length of the LR schedule, as in the README recipe
    checkpoint_every: int = 5
    window_steps: int = 12  # train steps every run completes; counters and digests cover them
    window_chunks: int = 1  # eval batches whose answers every run completes
    setup_repeats: int = 5
    max_new_tokens: int = 96
    val_every: int = 2  # train steps between held-out perplexity batches


class Stop(Exception):
    """Raised by a loop hook to end a closed loop at its deadline."""


# The machine this runs on shares its cores: its speed drifts by +-20% over
# tens of seconds, and raw op times spread by 6-25% from run to run. A fixed
# reference kernel, timed before every op and after the last, tracks that
# drift, so each op is reported at reference speed: raw time x REFERENCE_S /
# (mean of the kernel times around it). The kernel does not touch gofa, so a
# change to the program moves only the op times. REFERENCE_S is the kernel's
# typical time where the baseline was recorded; any constant would do, this
# one keeps values near raw ms there.
REFERENCE_S = 0.017


class ReferenceKernel:
    """Small matmuls, elementwise ops on 256 KB arrays, streaming over 24 MB
    and a plain interpreter loop: the kinds of work a gofa step is made of."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(64, 32))
        self.b = rng.normal(size=(32, 128))
        self.x = rng.normal(size=1 << 15)
        self.y = rng.normal(size=1 << 15)
        self.z = np.empty(1 << 15)
        self.big = [rng.normal(size=1 << 20) for _ in range(3)]

    def _work(self) -> None:
        for _ in range(200):
            np.tanh(self.a @ self.b).sum()
        for _ in range(100):
            np.multiply(self.x, self.y, out=self.z)
            np.add(self.z, self.x, out=self.z)
        u, v, w = self.big
        for _ in range(2):
            np.multiply(u, v, out=w)
            np.add(w, u, out=w)
        n = 0
        for i in range(20000):
            n += i * i

    def __call__(self) -> float:
        """Seconds the kernel takes right now. An untimed run goes first:
        right after a gofa step the streaming part runs ~20% slower, and
        that effect would tie the reference to the program."""
        self._work()
        t0 = perf_counter()
        self._work()
        return perf_counter() - t0


class Timeline:
    """Timed units (set-ups, steps, answers, perplexity calls) with the
    tokens each produced; a reference-kernel sample precedes every unit and
    one more follows the last."""

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.refs: list[float] = []
        self.units: list[tuple[str, float, int, int]] = []  # kind, raw seconds, tokens, index of the sample before

    def sample(self) -> None:
        self.refs.append(self.kernel())

    def add(self, kind: str, seconds: float, tokens: int = 0) -> None:
        self.units.append((kind, seconds, tokens, len(self.refs) - 1))

    def series(self, kind: str, normalized: bool = True) -> list[tuple[float, int]]:
        """(seconds, tokens) of each unit of ``kind``; seconds at reference
        speed unless ``normalized`` is false."""
        out = []
        for k, sec, tokens, i in self.units:
            if k == kind:
                if normalized:
                    sec *= REFERENCE_S / ((self.refs[i] + self.refs[min(i + 1, len(self.refs) - 1)]) / 2)
                out.append((sec, tokens))
        return out


@dataclass
class Inputs:
    train: list[TaskSample]
    test: list[TaskSample]
    model: GofaModel


@dataclass
class Run:
    """What one pass of a workload measured and checked."""

    workload: str
    timeline: Timeline = field(default_factory=Timeline)
    op_ms: list[float] = field(default_factory=list)  # raw ms of train steps or answers, in order
    window_ops: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    loss_digest: str = ""
    output_digest: str = ""
    truncated_targets: int = 0
    param_dtype: str = ""
    peak_rss_mb: float = 0.0  # through set-up and the window, so runs of any length compare

    def fail(self, message: str) -> None:
        self.failures.append(message)


# -- set-up -------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, s: Settings, workdir: Path) -> Inputs:
    """Generate the corpus, round-trip it through JSONL, build or load the model."""
    workdir.mkdir(parents=True, exist_ok=True)
    cc = corpus.CorpusConfig(n_graphs=s.n_graphs, rng_seed=seed)
    if workload == "train-completion":
        train, test = corpus.split_corpus(corpus.gen_completion_corpus(cc), s.test_fraction, seed)
    else:
        spd, cn = corpus.gen_structural_corpus(cc)
        train, test = corpus.split_corpus(spd, s.test_fraction, seed)
        if workload == "eval-structural":
            cn_test = corpus.split_corpus(cn, s.test_fraction, seed)[1]
            test = [x for pair in zip(test, cn_test) for x in pair]
            train = []
    train = _round_trip(train, workdir / "train.jsonl")
    test = _round_trip(test, workdir / "test.jsonl")
    model = GofaModel(ModelConfig(**MODEL), seed=seed)
    if workload == "eval-structural":
        path = workdir / "model.gofa"
        model.save(path)
        model = GofaModel.load(path)[0]
    return Inputs(train, test, model)


def _round_trip(samples: list[TaskSample], path: Path) -> list[TaskSample]:
    if not samples:
        return []
    taskgen.write_samples(path, samples)
    return taskgen.read_samples(path)


def set_up(workload: str, seed: int, s: Settings, workdir: Path, run: Run, tracer: Tracer | None) -> Inputs:
    """Set up ``s.setup_repeats`` times, timing each; keep the last inputs."""
    inputs = None
    for r in range(s.setup_repeats):
        if tracer is not None:
            tracer.op = f"setup-{r}"
        run.timeline.sample()
        t0 = perf_counter()
        inputs = make_inputs(workload, seed, s, workdir)
        run.timeline.add("setup", perf_counter() - t0)
    run.timeline.sample()
    if tracer is not None:
        tracer.op = "check-0"
        tracer.register_model(inputs.model)
    run.param_dtype = str(next(iter(inputs.model.parameters().values())).dtype)
    if workload == "eval-structural":
        check_labels(inputs.test, run)
    return inputs


def prompt_endpoints(graph: TAG, prompt: int) -> tuple[int, int]:
    """The two content nodes wired into a structural prompt node."""
    a, b = sorted({e.src for e in graph.edges if e.dst == prompt and not graph.nodes[e.src].is_prompt()})
    return a, b


def check_labels(samples: list[TaskSample], run: Run) -> None:
    """Every SPD/CN label must equal the answer rendered from the oracle."""
    for sample in samples:
        for t in sample.targets:
            run.attempted += 1
            a, b = prompt_endpoints(sample.graph, t.nog)
            if sample.task_kind == "spd":
                want = taskgen.render_spd_answer(sample.graph, structure.all_shortest_paths(sample.graph, a, b))
            else:
                want = taskgen.render_cn_answer(sample.graph, structure.common_neighbors(sample.graph, a, b))
            if want != t.target_text:
                run.fail(f"{sample.task_kind} label differs from the oracle: {t.target_text!r} vs {want!r}")


# -- closed loops ---------------------------------------------------------------------


class Loop:
    """Hooks that drive one closed loop: they mark where each op starts,
    record losses, tokens and answers, and end the loop at the deadline once
    the window of ops is complete."""

    def __init__(self, run: Run, seconds: float, window: int, tracer: Tracer | None, warnings: GofaWarnings):
        self.run = run
        self.seconds = seconds
        self.window = window
        self.tracer = tracer
        self.warnings = warnings
        self.patcher = Patcher()
        self.deadline = 0.0
        self.losses: list[float] = []
        self.texts: list[str] = []
        self._step_start: float | None = None
        self._tokens = 0
        self._calls = 0
        self._last_token = -1

    def mark(self, op: str, counting: bool) -> None:
        self.warnings.active = counting
        if self.tracer is not None:
            self.tracer.op = op
            self.tracer.counting = counting

    def start(self) -> None:
        self.deadline = perf_counter() + self.seconds

    def expired(self, done: int) -> bool:
        if done == self.window:
            self.run.peak_rss_mb = peak_rss_mb()
        return done >= self.window and perf_counter() >= self.deadline

    # train: AdamW.zero_grad opens every step, forward_batch yields its loss
    def install_train(self, between=None) -> None:
        """``between(done)`` runs after a step ends and before the next one
        starts, outside the timed steps."""

        def zero_grad(fn):
            def wrapper(opt):
                self.end_step(perf_counter())
                done = len(self.run.op_ms)
                if self.expired(done):
                    raise Stop
                if between is not None:
                    between(done)
                self.mark(f"step-{done}", done < self.window)
                self.run.timeline.sample()
                self._step_start = perf_counter()
                return fn(opt)

            return wrapper

        def forward_batch(fn):
            def wrapper(m, samples, use_gnn=True):
                out = fn(m, samples, use_gnn=use_gnn)
                self.losses.append(out[0].item())
                self._tokens += out[2]
                return out

            return wrapper

        self.patcher.method(training.AdamW, "zero_grad", zero_grad)
        self.patcher.method(GofaModel, "forward_batch", forward_batch)
        self._install_ppl()

    def end_step(self, now: float) -> None:
        if self._step_start is not None:
            self.run.op_ms.append((now - self._step_start) * 1e3)
            self.run.timeline.add("op", now - self._step_start, self._tokens)
            self._step_start = None
            self._tokens = 0

    # eval: generate is one answer, next_logits one generated token
    def install_eval(self) -> None:
        def generate(fn):
            def wrapper(m, nog_memory, max_new_tokens=64, **kwargs):
                answer = len(self.run.op_ms)
                if self.expired(answer):
                    raise Stop
                outer = self.tracer.op if self.tracer is not None else ""
                if self.tracer is not None:
                    self.tracer.op = f"answer-{answer}"
                self._calls, self._last_token = 0, -1
                self.run.timeline.sample()
                t0 = perf_counter()
                text = fn(m, nog_memory, max_new_tokens=max_new_tokens, **kwargs)
                seconds = perf_counter() - t0
                self.run.op_ms.append(seconds * 1e3)
                self.run.timeline.add("op", seconds, self._calls)
                if self.tracer is not None:
                    self.tracer.op = outer
                self.run.attempted += 1
                self._check_stop(max_new_tokens)
                self.texts.append(text)
                return text

            return wrapper

        def next_logits(fn):
            def wrapper(dec, memory, prefix):
                logits = fn(dec, memory, prefix)
                self._calls += 1
                self._last_token = int(np.argmax(logits))
                return logits

            return wrapper

        self.patcher.method(GofaModel, "generate", generate)
        self.patcher.method(Decoder, "next_logits", next_logits)
        self._install_ppl()

    def _check_stop(self, budget: int) -> None:
        """An answer ends at EOS or when its token budget is spent."""
        at_eos = self._last_token == tokenizer.EOS_ID
        if not (self._calls == budget or (at_eos and self._calls < budget)):
            self.run.fail(f"answer stopped after {self._calls} of {budget} tokens without EOS")

    def _install_ppl(self) -> None:
        def eval_token_nll(fn):
            def wrapper(*args, **kwargs):
                total, tokens = fn(*args, **kwargs)
                self._tokens += tokens
                return total, tokens

            return wrapper

        self.patcher.function(evaluation, "eval_token_nll", eval_token_nll)

    def perplexity(self, model: GofaModel, samples: list[TaskSample], batch_size: int) -> float:
        """Timed ``evaluation.perplexity``; a non-finite or sub-1 value fails."""
        self.run.attempted += 1
        self.run.timeline.sample()
        self._tokens = 0
        t0 = perf_counter()
        ppl = evaluation.perplexity(model, samples, batch_size=batch_size)
        self.run.timeline.add("ppl", perf_counter() - t0, self._tokens)
        self._tokens = 0
        if not (math.isfinite(ppl) and ppl >= 1.0):
            self.run.fail(f"perplexity {ppl} is not finite and at least 1")
        return ppl

    def restore(self) -> None:
        self.patcher.restore()


def train_config(workload: str, seed: int, s: Settings) -> training.TrainConfig:
    return training.TrainConfig(
        batch_size=s.batch_size, max_steps=s.schedule_steps, checkpoint_every=s.checkpoint_every, seed=seed,
        **RECIPES[workload],
    )


def batches(samples: list[TaskSample], size: int) -> list[list[TaskSample]]:
    return [samples[i : i + size] for i in range(0, len(samples), size)]


def run_train(workload: str, inputs: Inputs, seed: int, s: Settings, loop: Loop, workdir: Path) -> None:
    """``training.train`` until the deadline; every ``s.val_every`` steps one
    held-out batch is scored, so perplexity throughput samples the same
    stretch of machine time as the steps do."""
    run = loop.run
    held_out = batches(inputs.test, s.batch_size)
    validations = 0

    def validate(done: int) -> None:
        nonlocal validations
        if done and done % s.val_every == 0:
            loop.mark(f"val-{validations}", False)
            loop.perplexity(inputs.model, held_out[validations % len(held_out)], s.batch_size)
            validations += 1

    loop.install_train(validate)
    try:
        loop.start()
        try:
            training.train(inputs.model, inputs.train, train_config(workload, seed, s), out_dir=workdir / "checkpoints")
            loop.end_step(perf_counter())
        except Stop:
            pass
        except training.TrainingDivergedError as exc:
            run.attempted += 1
            run.fail(str(exc))
        if not validations:  # a loop shorter than val_every steps
            validate(s.val_every)
        run.timeline.sample()
    finally:
        loop.restore()
    run.attempted += len(run.op_ms)
    run.window_ops = min(s.window_steps, len(run.op_ms))
    for i, loss in enumerate(loop.losses):
        if not math.isfinite(loss):
            run.fail(f"step {i}: non-finite loss {loss}")
    run.loss_digest = digest(np.asarray(loop.losses[: s.window_steps], dtype=np.float64).tobytes())


def run_eval(inputs: Inputs, s: Settings, loop: Loop) -> None:
    """Perplexity over every test batch, then greedy answers batch by batch
    until the deadline stops an answer from starting. The perplexity pass and
    the answers of the first ``s.window_chunks`` batches are the window."""
    run = loop.run
    chunks = batches(inputs.test, s.batch_size)
    loop.window = run.window_ops = sum(len(x.targets) for chunk in chunks[: s.window_chunks] for x in chunk)
    ppls: list[float] = []
    loop.install_eval()
    try:
        loop.start()
        for c, chunk in enumerate(chunks):
            loop.mark(f"ppl-{c}", True)
            ppls.append(loop.perplexity(inputs.model, chunk, s.batch_size))
        c = 0
        while not loop.expired(len(run.op_ms)):
            loop.mark(f"chunk-{c}", c < s.window_chunks)
            evaluation.evaluate_structural(inputs.model, chunks[c % len(chunks)], max_new_tokens=s.max_new_tokens)
            c += 1
    except Stop:
        pass
    finally:
        loop.restore()
    run.timeline.sample()
    run.loss_digest = digest(np.asarray(ppls, dtype=np.float64).tobytes())
    run.output_digest = digest("\0".join(loop.texts[: run.window_ops]).encode("utf-8"))


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def run_workload(workload: str, seed: int, seconds: float, s: Settings, workdir: Path, tracer: Tracer | None = None) -> Run:
    """Set up, run the closed loop for ``seconds`` (and at least the window)
    and check the outputs. With ``tracer`` every layer call becomes a span."""
    run = Run(workload)
    with GofaWarnings() as warnings:
        warnings.active = False
        if tracer is not None:
            tracer.install()
        try:
            inputs = set_up(workload, seed, s, workdir, run, tracer)
            loop = Loop(run, seconds, s.window_steps, tracer, warnings)
            if workload == "eval-structural":
                run_eval(inputs, s, loop)
            else:
                run_train(workload, inputs, seed, s, loop, workdir)
        finally:
            if tracer is not None:
                tracer.counting = False
                tracer.restore()
        run.truncated_targets = warnings.counts["target"]
    run.peak_rss_mb = run.peak_rss_mb or peak_rss_mb()  # a loop shorter than its window
    return run


# -- metrics ------------------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("op_tokens_per_s", "1/s"),
    ("ppl_tokens_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Names under which the issue-level metrics print on each kind of workload.
DISPLAY = {
    "train": {"op_ms.p50": "train_step_ms.p50", "op_ms.tail": "train_step_ms.tail", "op_tokens_per_s": "train_tokens_per_s"},
    "eval": {"op_ms.p50": "gen_answer_ms.p50", "op_ms.tail": "gen_answer_ms.tail", "op_tokens_per_s": "gen_tokens_per_s"},
}


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest whole percentile that leaves at
    least ten samples beyond it; the median when there are fewer than 20."""
    pct = max(50.0, math.floor(100.0 * (1.0 - 10.0 / len(values))))
    return pct, float(np.percentile(values, pct))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, normalized: bool = True) -> dict[str, tuple[float, str]]:
    """The declared metrics; times at reference speed unless ``normalized``
    is false, which gives the raw wall-clock figures. The first step, answer
    and perplexity call of a run fill caches and are left out."""
    ops = run.timeline.series("op", normalized)[1:]
    ppl = run.timeline.series("ppl", normalized)
    ppl = ppl[1:] or ppl
    latencies = [1e3 * sec for sec, _ in ops]
    _, tail_ms = tail(latencies)
    values = {
        "setup_s": statistics.median(sec for sec, _ in run.timeline.series("setup", normalized)),
        "op_ms.p50": statistics.median(latencies),
        "op_ms.tail": tail_ms,
        "op_tokens_per_s": sum(t for _, t in ops) / sum(sec for sec, _ in ops),
        "ppl_tokens_per_s": sum(t for _, t in ppl) / sum(sec for sec, _ in ppl),
        "peak_rss_mb": run.peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


PER_LAYER = (
    [(f"compressor.layer{i}.fwd_ms", "ms") for i in range(1, 7)]
    + [("compressor.bucket_ms", "ms"), ("compressor.pad_share", "share"), ("compressor.tokens", "count")]
    + [(f"gnn.layer{t}.fwd_ms", "ms") for t in MODEL["gnn_layers"]]
    + [("gnn.arcs", "count"), ("model.forward_batch_ms", "ms"), ("model.encode_ms", "ms"), ("model.decode_loss_ms", "ms")]
    + [(f"decoder.layer{i}.fwd_ms", "ms") for i in range(1, 7)]
    + [("decoder.bucket_ms", "ms"), ("decoder.pad_share", "share"), ("decoder.truncated_targets", "count")]
    + [("decoder.next_logits_ms", "ms"), ("decoder.next_logits_calls", "count"), ("decoder.positions_per_token", "count")]
    + [("autodiff.backward_ms", "ms")]
    + [(f"autodiff.bw.{k}_ms", "ms") for k in OP_KINDS + ("other",)]
    + [(f"autodiff.fwd_ops.{k}", "count") for k in OP_KINDS + ("other",)]
    + [("training.opt_step_ms", "ms"), ("training.clip_ms", "ms"), ("training.zero_grad_ms", "ms")]
    + [("training.frozen_grad_share", "share")]
    + [("checkpoint.save_ms", "ms"), ("checkpoint.load_ms", "ms"), ("checkpoint.bytes", "bytes")]
    + [("corpus.gen_s", "s"), ("taskgen.jsonl_write_s", "s"), ("taskgen.jsonl_read_s", "s")]
    + [("evaluation.score_ms", "ms"), ("structure.oracle_ms", "ms")]
    + [("trace.overhead_ms", "ms"), ("trace.top_level_share", "share")]
)

# Spans timed per op of the loop (ms per train step or per answer).
_PER_OP_SPANS = {
    "model.forward_batch_ms": "model.forward_batch",
    "model.encode_ms": "model.encode",
    "model.decode_loss_ms": "model.decode_loss",
    "compressor.bucket_ms": "compressor.bucket",
    "decoder.bucket_ms": "decoder.bucket",
    "decoder.next_logits_ms": "decoder.next_logits",
    "autodiff.backward_ms": "autodiff.backward",
    "training.opt_step_ms": "training.opt_step",
    "training.clip_ms": "training.clip",
    "training.zero_grad_ms": "training.zero_grad",
    "evaluation.score_ms": "evaluation.score",
    "structure.oracle_ms": "structure.oracle",
}
_PER_SETUP_SPANS = {
    "corpus.gen_s": "corpus.gen",
    "taskgen.jsonl_write_s": "taskgen.jsonl_write",
    "taskgen.jsonl_read_s": "taskgen.jsonl_read",
}


def _loop_op(op: str) -> bool:
    return op.split("-")[0] in ("step", "ppl", "chunk", "answer")


def per_layer(tracer: Tracer, run: Run, reference: Run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; ``reference`` is an untraced pass
    over the same window, for the tracing overhead.

    Times are inclusive milliseconds per loop op (train step or answer);
    set-up stages are seconds per set-up; counts and shares cover the window.
    """
    incl, _self_s, calls = tracer.span_seconds()
    counts = tracer.counts
    n_ops = len(run.op_ms)
    n_setups = len(run.timeline.series("setup"))

    def loop_ms(span: str) -> float:
        return 1e3 * sum(v for op, v in incl.get(span, {}).items() if _loop_op(op)) / n_ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values: dict[str, float] = {}
    for i in range(1, 7):
        values[f"compressor.layer{i}.fwd_ms"] = loop_ms(f"compressor.layer{i}")
        values[f"decoder.layer{i}.fwd_ms"] = loop_ms(f"decoder.layer{i}")
    for t in MODEL["gnn_layers"]:
        values[f"gnn.layer{t}.fwd_ms"] = loop_ms(f"gnn.layer{t}")
    for metric, span in _PER_OP_SPANS.items():
        values[metric] = loop_ms(span)
    for metric, span in _PER_SETUP_SPANS.items():
        values[metric] = sum(v for op, v in incl.get(span, {}).items() if op.startswith("setup")) / n_setups
    for k in OP_KINDS + ("other",):
        values[f"autodiff.bw.{k}_ms"] = 1e3 * tracer.bw_seconds.get(k, 0.0) / n_ops
        values[f"autodiff.fwd_ops.{k}"] = counts.get(f"autodiff.fwd_ops.{k}", 0.0)
    for side in ("compressor", "decoder"):
        values[f"{side}.pad_share"] = ratio(counts.get(f"{side}.pad", 0.0), counts.get(f"{side}.positions", 0.0))
    values["compressor.tokens"] = counts.get("compressor.tokens", 0.0)
    values["gnn.arcs"] = counts.get("gnn.arcs", 0.0)
    values["decoder.truncated_targets"] = float(run.truncated_targets)
    values["decoder.next_logits_calls"] = counts.get("decoder.next_logits_calls", 0.0)
    values["decoder.positions_per_token"] = ratio(
        counts.get("decoder.next_logits_positions", 0.0), counts.get("decoder.next_logits_calls", 0.0)
    )
    values["training.frozen_grad_share"] = ratio(
        counts.get("training.frozen_grad_elements", 0.0), counts.get("training.grad_elements", 0.0)
    )
    saves = counts.get("checkpoint.saves", 0.0)
    values["checkpoint.save_ms"] = ratio(1e3 * sum(incl.get("checkpoint.save", {}).values()), saves)
    values["checkpoint.load_ms"] = ratio(1e3 * sum(incl.get("checkpoint.load", {}).values()), calls.get("checkpoint.load", 0))
    values["checkpoint.bytes"] = ratio(counts.get("checkpoint.bytes", 0.0), saves)
    w = run.window_ops
    traced = statistics.median(sec for sec, _ in run.timeline.series("op")[1:w])
    untraced = statistics.median(sec for sec, _ in reference.timeline.series("op")[1:w])
    values["trace.overhead_ms"] = 1e3 * (traced - untraced)
    values["trace.top_level_share"] = top_level_share(tracer, run)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def top_level_share(tracer: Tracer, run: Run) -> float:
    """Lowest share, over the loop's ops, of an op's wall time covered by
    spans without a parent."""
    kind = "answer" if run.workload == "eval-structural" else "step"
    covered: dict[str, float] = {}
    for name, op, parent, t0, t1 in tracer.spans:
        if parent is None and op.startswith(kind + "-"):
            covered[op] = covered.get(op, 0.0) + (t1 - t0)
    return min(covered.get(f"{kind}-{i}", 0.0) / (ms / 1e3) for i, ms in enumerate(run.op_ms))


def self_times(tracer: Tracer, run: Run) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self ms per loop op."""
    incl, self_s, calls = tracer.span_seconds()
    n_ops = len(run.op_ms)
    out = {}
    for name in sorted(incl):
        out[name] = {
            "calls": calls[name],
            "incl_ms_per_op": 1e3 * sum(v for op, v in incl[name].items() if _loop_op(op)) / n_ops,
            "self_ms_per_op": 1e3 * sum(v for op, v in self_s[name].items() if _loop_op(op)) / n_ops,
        }
    return out
