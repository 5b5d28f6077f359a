"""Optimization loop: AdamW with decoupled weight decay, global-norm
gradient clipping, cosine annealing with warm restarts, parameter freezing
by name prefix, and bit-exact checkpoint resume.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, global_grad_norm
from .checkpoint import without_retired
from .model import GofaModel

log = logging.getLogger("gofa")


class TrainingDivergedError(RuntimeError):
    """Raised when the loss turns NaN/Inf; carries a diagnostic dump path."""

    def __init__(self, message: str, dump_path: str | None = None):
        self.dump_path = dump_path
        super().__init__(message)


# AdamW's betas and eps, and the schedule: RESTARTS warm restarts, each
# cycle annealing from lr down to MIN_LR_FRACTION * lr.
BETAS = (0.9, 0.95)
EPS = 1e-8
RESTARTS = 2
MIN_LR_FRACTION = 0.1


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 0.1
    grad_clip: float = 0.5
    batch_size: int = 8
    gate_lr_mult: float = 1.0  # escape hatch for tanh gates pinned at zero
    freeze: tuple[str, ...] = ()
    seed: int = 0
    max_steps: int = 100
    checkpoint_every: int = 500
    log_every: int = 10

    def __post_init__(self):
        if isinstance(self.freeze, str):
            raise TypeError("freeze must be a list of parameter name prefixes")
        self.freeze = tuple(self.freeze)
        for name in ("batch_size", "max_steps", "checkpoint_every", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
        for name in ("weight_decay", "gate_lr_mult"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def from_checkpoint(cls, fields: dict) -> "TrainConfig":
        """The config of a checkpoint's ``train`` section (``without_retired``)."""
        retired = {"betas": BETAS, "eps": EPS, "restarts": RESTARTS, "min_lr_fraction": MIN_LR_FRACTION}
        retired.update(grad_accum=1, debug_nan_checks=False)  # keys gone with their code
        return cls(**without_retired("train", fields, retired))


def cosine_restart_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Cosine annealing from lr to MIN_LR_FRACTION*lr within each cycle;
    the RESTARTS restarts split the run into RESTARTS+1 equal cycles, so the
    schedule resets at 1/3 and 2/3 of the run."""
    n_cycles = RESTARTS + 1
    bounds = [total_steps * i // n_cycles for i in range(n_cycles + 1)]
    c = max(i for i in range(n_cycles) if bounds[i] <= step)  # the last cycle also takes steps past the run
    length = bounds[c + 1] - bounds[c]
    u = min((step - bounds[c]) / (length - 1), 1.0) if length > 1 else 0.0
    lo = cfg.lr * MIN_LR_FRACTION
    return lo + (cfg.lr - lo) * 0.5 * (1.0 + np.cos(np.pi * u))


def clip_gradients(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most ``max_norm``;
    returns the pre-clip norm."""
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for t in params:
            if t.grad is not None:
                t.grad *= scale
    return norm


def check_freeze(prefixes, names) -> None:
    """Raise a ``ValueError`` naming each of the ``freeze`` ``prefixes`` that
    starts none of the parameter ``names``."""
    unmatched = [p for p in prefixes if not any(name.startswith(p) for name in names)]
    if unmatched:
        raise ValueError(f"freeze prefixes {unmatched} match no parameter name")


class AdamW:
    """Decoupled weight decay Adam with bias correction.

    Weight decay is skipped for rank-0/rank-1 parameters (gains, gates,
    biases). Frozen parameters (matched by name prefix) are never updated;
    a ``freeze`` prefix that matches no parameter name is a ``ValueError``,
    so a misspelt one cannot leave its parameters training.
    """

    def __init__(self, named_params: dict[str, Tensor], cfg: TrainConfig):
        self.cfg = cfg
        self.named = dict(named_params)
        check_freeze(cfg.freeze, self.named)
        self.trainable = {
            name: t for name, t in self.named.items()
            if not any(name.startswith(p) for p in cfg.freeze)
        }
        self.m = {n: np.zeros_like(t.data) for n, t in self.trainable.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in self.trainable.items()}
        self.step_count = 0
        self.lr_mult = {
            n: (cfg.gate_lr_mult if ".gate_" in n else 1.0) for n in self.trainable
        }

    def zero_grad(self) -> None:
        for t in self.named.values():
            t.zero_grad()

    def step(self, lr: float) -> None:
        self.step_count += 1
        b1, b2 = BETAS
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for name, t in self.trainable.items():
            g = t.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + EPS)
            if self.cfg.weight_decay and t.data.ndim >= 2:
                update = update + self.cfg.weight_decay * t.data
            t.data -= lr * self.lr_mult[name] * update

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.trainable:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        out["opt.step"] = np.asarray([self.step_count], dtype=np.int64)
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        for name in self.trainable:
            if f"opt.m.{name}" in tensors:
                self.m[name] = tensors[f"opt.m.{name}"].copy()
                self.v[name] = tensors[f"opt.v.{name}"].copy()
        if "opt.step" in tensors:
            self.step_count = int(tensors["opt.step"][0])


@contextmanager
def _frozen(opt: AdamW):
    """Switch off ``requires_grad`` on every parameter the optimizer never
    updates, so backward builds no gradient for it; every parameter's flag
    is restored on exit, also when an error leaves the block."""
    flags = {name: t.requires_grad for name, t in opt.named.items()}
    for name, t in opt.named.items():
        if name not in opt.trainable:
            t.requires_grad = False
    try:
        yield
    finally:
        for name, t in opt.named.items():
            t.requires_grad = flags[name]


@contextmanager
def _loss_log(path, start_step: int):
    """The CSV loss log, open for the rows of steps ``start_step`` on, or
    None without a path. The rows an earlier run wrote for those steps are
    dropped, so a resumed run leaves the same file as an uninterrupted one."""
    if path is None:
        yield None
        return
    kept = []
    if start_step > 0 and Path(path).exists():
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                step = line.split(",", 1)[0]
                if step.isdigit() and int(step) < start_step:
                    kept.append(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,lr,loss,grad_norm,tokens_seen\n")
        fh.writelines(kept)
        yield fh


@dataclass
class TrainReport:
    steps: int
    losses: list[float] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)
    log_rows: list[dict] = field(default_factory=list)
    final_loss: float = float("nan")
    # the compressor text cache (zero when the run trains the compressor)
    text_cache_hits: int = 0
    text_cache_misses: int = 0
    text_cache_bytes: int = 0


def train(
    model: GofaModel,
    corpus,
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
    use_gnn: bool = True,
    start_step: int = 0,
    optimizer: AdamW | None = None,
    loss_log_path: str | Path | None = None,
) -> TrainReport:
    """Run ``cfg.max_steps`` optimization steps over ``corpus``.

    ``corpus`` is a sequence of TaskSamples; batches are drawn in a
    deterministic seeded shuffle, re-derivable at resume so a resumed run
    is bit-identical to an uninterrupted one.

    When the optimizer updates no ``compressor.`` parameter and no memory
    token, so none of them takes a gradient, the compressor keeps what
    each text's memory rows read for the length of the call
    (``Compressor.text_cache``): every text runs through the compressor
    once per run, and after the first GNN layer each step runs only memory
    rows. The cached rows are the bits a fresh computation gives, so
    losses, checkpoints and resume do not change.
    """
    samples = list(corpus)
    if not samples:
        raise ValueError("training corpus is empty")
    opt = optimizer if optimizer is not None else AdamW(model.parameters(), cfg)
    report = TrainReport(steps=cfg.max_steps)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    tokens_seen = 0

    def batch_for_step(step: int) -> list:
        per_epoch = max(len(samples) // cfg.batch_size, 1)
        epoch = step // per_epoch
        slot = step % per_epoch
        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(samples))
        picked = order[slot * cfg.batch_size : (slot + 1) * cfg.batch_size]
        if len(picked) == 0:
            picked = order[: cfg.batch_size]
        return [samples[i] for i in picked]

    # Replay token counters for an exact resume of the CSV log.
    for step in range(start_step):
        targets = [model.target_ids(t.target_text) for s in batch_for_step(step) for t in s.targets]
        tokens_seen += model.scored_tokens(targets)

    # _frozen switches off every parameter the optimizer skips before the cache condition is read
    with (
        _frozen(opt),
        model.compressor.text_cache() if model.compressor.frozen else nullcontext() as cache,
        _loss_log(loss_log_path, start_step) as log_file,
    ):
        for step in range(start_step, cfg.max_steps):
            batch = batch_for_step(step)
            opt.zero_grad()
            loss, _, n_tokens = model.forward_batch(batch, use_gnn=use_gnn)
            loss.backward()
            loss_value = loss.item()
            tokens_seen += n_tokens
            if not np.isfinite(loss_value):
                dump = None
                if out_dir is not None:
                    dump = str(out_dir / f"diverged_step_{step}.json")
                    with open(dump, "w", encoding="utf-8") as fh:
                        json.dump(
                            {
                                "step": step,
                                "loss": loss_value,
                                "batch_targets": [
                                    {"nog": t.nog, "y": t.target_text}
                                    for s in batch
                                    for t in s.targets
                                ],
                            },
                            fh,
                            indent=2,
                        )
                raise TrainingDivergedError(f"non-finite loss {loss_value} at step {step}", dump)
            grad_norm = clip_gradients(list(opt.trainable.values()), cfg.grad_clip)
            lr = cosine_restart_lr(step, cfg.max_steps, cfg)
            opt.step(lr)
            report.losses.append(loss_value)
            if step % cfg.log_every == 0 or step == cfg.max_steps - 1:
                row = {
                    "step": step,
                    "lr": lr,
                    "loss": loss_value,
                    "grad_norm": grad_norm,
                    "tokens_seen": tokens_seen,
                }
                report.log_rows.append(row)
                if log_file is not None:
                    log_file.write(f"{step},{lr:.8g},{loss_value:.8g},{grad_norm:.8g},{tokens_seen}\n")
                    log_file.flush()
                cached = "" if cache is None else f" text cache hit rate {cache.hits / (cache.hits + cache.misses):.1%}"
                log.info("step %d lr %.3g loss %.4f grad_norm %.3f%s", step, lr, loss_value, grad_norm, cached)
            if out_dir is not None and (
                (step + 1) % cfg.checkpoint_every == 0 or step == cfg.max_steps - 1
            ):
                path = out_dir / f"checkpoint_{step + 1:06d}.gofa"
                model.save(
                    path,
                    extra_tensors=opt.state_tensors(),
                    extra_config={"train_step": step + 1, "train": asdict(cfg), "use_gnn": use_gnn},
                )
                report.checkpoints.append(str(path))
        if cache is not None:
            report.text_cache_hits, report.text_cache_misses = cache.hits, cache.misses
            report.text_cache_bytes = cache.bytes
    report.final_loss = report.losses[-1] if report.losses else float("nan")
    return report


def resume(model_path, corpus, out_dir=None, loss_log_path=None) -> tuple[GofaModel, TrainReport]:
    """Continue a checkpointed run to its configured max_steps, with or
    without the GNN as the run was (with it for a checkpoint that does not
    say)."""
    model, extras, config = GofaModel.load(model_path)
    if "train" not in config:
        raise ValueError(f"{model_path}: checkpoint has no train section, so it holds no run to resume")
    cfg = TrainConfig.from_checkpoint(config["train"])
    opt = AdamW(model.parameters(), cfg)
    opt.load_state_tensors(extras)
    start_step = int(config.get("train_step", 0))
    report = train(
        model, corpus, cfg, out_dir=out_dir, use_gnn=config.get("use_gnn", True),
        start_step=start_step, optimizer=opt, loss_log_path=loss_log_path,
    )
    return model, report
