"""The paper's trained claims (README criteria 6-8) as one table of fixed
recipes, each with its README threshold. An entry holds everything its
measurement reads: corpus, split, model and seed, every training run, and
the evaluation call with its budget. ``gofa reproduce`` runs the table.
"""

from __future__ import annotations

import operator
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .compressor import ModelConfig
from .corpus import LOOKUP_VALUES, CorpusConfig, split_corpus
from .corpus import gen_completion_corpus, gen_lookup_corpus, gen_structural_corpus
from .evaluation import evaluate_accuracy, evaluate_structural, perplexity
from .model import GofaModel
from .taskgen import make_autoencode_task
from .training import TrainConfig, train

COMPARISONS = {">=": operator.ge, "<": operator.lt}


@dataclass(frozen=True)
class Arm:
    """One training run from a fresh model of the claim's recipe."""

    use_gnn: bool
    train: TrainConfig


@dataclass(frozen=True)
class Claim:
    thresholds: dict  # metric -> (comparison, bound)
    corpus: CorpusConfig
    split: tuple  # (test fraction, seed)
    model: ModelConfig
    model_seed: int
    arms: dict[str, Arm]
    eval: dict  # the evaluation call and its budget
    score: Callable  # claim -> (metric values, diagnostics)
    pretrain: Arm | None = None  # autoencoder pre-training that every arm starts from

    def recipe(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in ("thresholds", "score")}


def train_arm(claim: Claim, samples, arm: Arm, start: dict | None = None):
    """A fresh model of the claim's recipe, set to the ``start`` parameters
    when given, trained on ``samples``; returns it with its loss curve and
    ``tanh`` GNN gates."""
    t0 = time.perf_counter()
    model = GofaModel(claim.model, seed=claim.model_seed)
    for name, data in (start or {}).items():
        model.parameters()[name].data = data.copy()
    report = train(model, samples, arm.train, use_gnn=arm.use_gnn)
    return model, {
        "train_seconds": time.perf_counter() - t0,
        "first_loss": report.losses[0],
        "final_loss": report.final_loss,
        "curve": [row["loss"] for row in report.log_rows],
        "gates": {str(t): float(np.tanh(p["gate_gnn"].data)) for t, p in model.gnn_params.items()},
    }


def perplexity_gap(claim: Claim):
    """1 - gofa / text test perplexity, each arm trained from the same start."""
    train_set, test_set = split_corpus(gen_completion_corpus(claim.corpus), *claim.split)
    diagnostics = {"train_samples": len(train_set), "test_samples": len(test_set)}
    start = None
    if claim.pretrain is not None:
        texts = sorted({n.text for s in train_set for n in s.graph.nodes})
        tasks = [make_autoencode_task(t) for t in texts]
        base, diagnostics["pretrain"] = train_arm(claim, tasks, claim.pretrain)
        diagnostics["pretrain"]["texts"] = len(texts)
        start = {name: t.data for name, t in base.parameters().items()}
    ppl = {}
    for name, arm in claim.arms.items():
        model, diagnostics[name] = train_arm(claim, train_set, arm, start)
        ppl[name] = perplexity(model, test_set, use_gnn=arm.use_gnn)
        diagnostics[name]["perplexity"] = ppl[name]
    return {"gap": 1 - ppl["gofa"] / ppl["text"]}, diagnostics


def structural_rmse(claim: Claim):
    """SPD and CN RMSE of greedy answers after training, and before it."""
    spd, cn = gen_structural_corpus(claim.corpus)
    (spd_train, spd_test), (cn_train, cn_test) = split_corpus(spd, *claim.split), split_corpus(cn, *claim.split)
    n, budget = claim.eval["per_task"], claim.eval["max_new_tokens"]
    eval_set = spd_test[:n] + cn_test[:n]
    untrained = evaluate_structural(GofaModel(claim.model, seed=claim.model_seed), eval_set, max_new_tokens=budget)
    [(name, arm)] = claim.arms.items()
    model, run = train_arm(claim, spd_train + cn_train, arm)
    trained = evaluate_structural(model, eval_set, use_gnn=arm.use_gnn, max_new_tokens=budget)
    run.update(metrics=trained.metrics, notes=trained.notes, transcripts=trained.transcripts[:6])
    values = {"spd_rmse": trained.metrics["spd_rmse"], "cn_rmse": trained.metrics["cn_rmse"]}
    return values, {"train_samples": len(spd_train) + len(cn_train), "untrained": untrained.metrics, name: run}


def prompt_edge_margin(claim: Claim):
    """Lookup accuracy with double prompt edges minus that with single ones."""
    acc, diagnostics = {}, {"chance": 1 / len(LOOKUP_VALUES)}
    for mode, arm in claim.arms.items():
        train_set, test_set = split_corpus(gen_lookup_corpus(claim.corpus, mode), *claim.split)
        model, diagnostics[mode] = train_arm(claim, train_set, arm)
        report = evaluate_accuracy(
            model, test_set[: claim.eval["n"]], candidates=LOOKUP_VALUES, use_gnn=arm.use_gnn,
            max_new_tokens=claim.eval["max_new_tokens"],
        )
        acc[mode] = report.metrics["accuracy"]
        diagnostics[mode].update(accuracy=acc[mode], n=report.metrics["n"], transcripts=report.transcripts[:4])
    return {"margin": acc["double"] - acc["single"]}, diagnostics


def _run(**kw) -> TrainConfig:
    return TrainConfig(weight_decay=0.0, grad_clip=1.0, **kw)


_FROZEN = ("compressor.", "memory_tokens")
_COMPLETION = CorpusConfig(n_graphs=400, nodes_low=7, nodes_high=10, n_selected=3, n_markers=2, rng_seed=0)
_STRUCTURAL = CorpusConfig(
    n_graphs=2500, nodes_low=8, nodes_high=12, n_selected=3, question_style="compact", rng_seed=1
)
_COMPLETION_MODEL = ModelConfig(d_model=32, n_heads=4, n_layers=4, memory_tokens=4, gnn_layers=(2, 3), max_seq_len=64)
_GAP_RUN = dict(lr=2e-3, batch_size=8, max_steps=600, seed=3, log_every=60, gate_lr_mult=50.0)
_GAP_ARMS = {
    "gofa": Arm(True, _run(freeze=_FROZEN, **_GAP_RUN)),
    "text": Arm(False, _run(freeze=_FROZEN + ("gnn.",), **_GAP_RUN)),
}
_GAP = dict(
    thresholds={"gap": (">=", 0.20)}, corpus=_COMPLETION, split=(0.15, 1), model=_COMPLETION_MODEL, model_seed=7,
    arms=_GAP_ARMS, eval={"call": "perplexity"}, score=perplexity_gap,
)
_LOOKUP_RUN = _run(lr=1.5e-3, batch_size=8, max_steps=600, seed=5, freeze=_FROZEN, log_every=100)

CLAIMS = {
    "c6": Claim(**_GAP),
    "c6b": Claim(**_GAP, pretrain=Arm(True, _run(lr=2e-3, batch_size=16, max_steps=400, seed=9, freeze=("gnn.",)))),
    "c7": Claim(
        thresholds={"spd_rmse": ("<", 0.5), "cn_rmse": ("<", 0.75)},
        corpus=_STRUCTURAL,
        split=(0.04, 2),
        model=ModelConfig(d_model=32, n_heads=4, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5), max_seq_len=96),
        model_seed=11,
        arms={"trained": Arm(True, _run(lr=1.5e-3, batch_size=8, max_steps=1200, seed=4, log_every=100))},
        eval={"call": "evaluate_structural", "per_task": 40, "max_new_tokens": 48},
        score=structural_rmse,
    ),
    "c8": Claim(
        thresholds={"margin": (">=", 0.15)},
        corpus=CorpusConfig(n_graphs=2000, lookup_facts=6, rng_seed=2),
        split=(0.1, 3),
        model=ModelConfig(d_model=32, n_heads=4, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5), max_seq_len=64),
        model_seed=13,
        arms={"single": Arm(True, _LOOKUP_RUN), "double": Arm(True, _LOOKUP_RUN)},
        eval={"call": "evaluate_accuracy", "n": 200, "max_new_tokens": 8},
        score=prompt_edge_margin,
    ),
}


def run_claim(claim: Claim) -> dict:
    t0 = time.perf_counter()
    values, diagnostics = claim.score(claim)
    return {
        "value": values,
        "threshold": {m: list(t) for m, t in claim.thresholds.items()},
        "pass": all(COMPARISONS[op](values[m], bound) for m, (op, bound) in claim.thresholds.items()),
        "seconds": time.perf_counter() - t0,
        "recipe": claim.recipe(),
        "diagnostics": diagnostics,
    }


def render_claims(results: dict) -> str:
    lines = [f"{'claim':<6} {'metric':<9} {'value':>8}  {'threshold':<10} {'result':<6} seconds", "-" * 52]
    for name, r in results.items():
        for i, (metric, value) in enumerate(r["value"].items()):
            op, bound = r["threshold"][metric]
            tail = f"{'pass' if r['pass'] else 'miss':<6} {r['seconds']:.0f}" if i == 0 else ""
            row = f"{name if i == 0 else '':<6} {metric:<9} {value:>8.4f}  {op + ' ' + str(bound):<10} {tail}"
            lines.append(row.rstrip())
    return "\n".join(lines)
