"""Command-line entry points tying the pipeline together.

Commands:
  gen-corpus           write the synthetic task corpora and their splits
  autoencode-pretrain  train the text reconstruction objective
  train                train on task sample corpora (or resume a run)
  eval                 evaluate a checkpoint on a corpus
  reproduce            run the paper's trained claims and write claims.json
  inspect-checkpoint   list a checkpoint's tensors and config

Exit codes: 0 success, 2 config error, 3 runtime failure. The GOFA_LOG
environment variable (debug/info/warning/error) controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint
from .claims import CLAIMS, render_claims, run_claim
from .compressor import ModelConfig
from .config import ConfigError, load_config, pretrain_train_section, write_run_meta
from .corpus import (
    LOOKUP_VALUES,
    CorpusConfig,
    gen_completion_corpus,
    gen_lookup_corpus,
    gen_qa_corpus,
    gen_structural_corpus,
    split_corpus,
)
from .evaluation import (
    EvalReport,
    _prompt_endpoints,
    evaluate_accuracy,
    evaluate_structural,
    layer_delta_profile,
    perplexity,
    write_transcripts,
)
from .model import GofaModel
from .structure import all_shortest_paths, common_neighbors
from .tag import TaskSample
from .taskgen import make_autoencode_task, read_samples, render_cn_answer, render_spd_answer, write_samples
from .training import TrainConfig, check_freeze, resume, train

log = logging.getLogger("gofa")

# gen-corpus's held-out share of each corpus
TEST_FRACTION = 0.2
# autoencode-pretrain's texts: lengths drawn from [low, high] over this alphabet
PRETRAIN_TEXT_LEN = (2, 8)
PRETRAIN_ALPHABET = "ab"


def _setup_logging() -> None:
    level = os.environ.get("GOFA_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _verify_structural_labels(spd: list[TaskSample], cn: list[TaskSample]) -> None:
    """Re-derive every emitted structural label from the oracle."""
    for sample in spd:
        for t in sample.targets:
            a, b = _prompt_endpoints(sample.graph, t.nog)
            want = render_spd_answer(sample.graph, all_shortest_paths(sample.graph, a, b))
            if want != t.target_text:
                raise RuntimeError(f"SPD label mismatch against oracle: {t.target_text!r} vs {want!r}")
    for sample in cn:
        for t in sample.targets:
            a, b = _prompt_endpoints(sample.graph, t.nog)
            want = render_cn_answer(sample.graph, common_neighbors(sample.graph, a, b))
            if want != t.target_text:
                raise RuntimeError(f"CN label mismatch against oracle: {t.target_text!r} vs {want!r}")


def cmd_gen_corpus(args) -> int:
    cfg = load_config(args.config, args.set)
    out = Path(args.out)
    write_run_meta(out, cfg)
    ccfg = CorpusConfig(**cfg["corpus"])
    seed = cfg["seed"]

    completion = gen_completion_corpus(ccfg)
    spd, cn = gen_structural_corpus(ccfg)
    _verify_structural_labels(spd, cn)
    qa = gen_qa_corpus(ccfg)
    lookup_single = gen_lookup_corpus(ccfg, "single")
    lookup_double = gen_lookup_corpus(ccfg, "double")

    for name, samples in [
        ("completion", completion),
        ("spd", spd),
        ("cn", cn),
        ("qa", qa),
        ("lookup_single", lookup_single),
        ("lookup_double", lookup_double),
    ]:
        train_part, test_part = split_corpus(samples, TEST_FRACTION, seed)
        write_samples(out / f"{name}_train.jsonl", train_part)
        write_samples(out / f"{name}_test.jsonl", test_part)
        log.info("%s: %d train / %d test samples", name, len(train_part), len(test_part))
    print(f"corpus written to {out}")
    return 0


def _fresh_model(cfg: dict, train_fields: dict) -> tuple[GofaModel, TrainConfig]:
    """The model a run of ``cfg`` starts from and its ``TrainConfig``. The
    freeze prefixes can be checked only against the built model's parameter
    names; one that matches none is a ``ConfigError``, raised before the
    command writes output."""
    model = GofaModel(ModelConfig(**cfg["model"]), seed=cfg["seed"])
    tcfg = TrainConfig(**train_fields)
    try:
        check_freeze(tcfg.freeze, model.parameters())
    except ValueError as exc:
        raise ConfigError(f"train.freeze: {exc}") from exc
    return model, tcfg


def cmd_autoencode_pretrain(args) -> int:
    cfg = load_config(args.config, args.set)
    out = Path(args.out)
    model, tcfg = _fresh_model(cfg, pretrain_train_section(cfg))
    write_run_meta(out, cfg)
    rng = np.random.default_rng(cfg["seed"])
    low, high = PRETRAIN_TEXT_LEN
    texts = ["".join(rng.choice(list(PRETRAIN_ALPHABET), size=rng.integers(low, high + 1))) for _ in range(256)]
    samples = [make_autoencode_task(t) for t in texts]
    report = train(model, samples, tcfg, out_dir=out, loss_log_path=out / "loss_log.csv")
    model.save(out / "autoencoder.gofa")
    print(f"final reconstruction loss {report.final_loss:.4f}; checkpoint in {out}")
    return 0


def cmd_train(args) -> int:
    if args.resume:  # the run goes on with the checkpoint's config and GNN setting
        if args.config or args.set or args.text_only:
            raise ConfigError("--resume continues the checkpoint's run and takes no --config, --set or --text-only")
        _, ckpt = load_checkpoint(args.resume)
        if not ckpt or not {"model", "train"} <= set(ckpt):
            raise ConfigError(f"{args.resume}: checkpoint lacks the model or train section of a training run to resume")
        try:  # the sections as this version reads them, retired keys dropped or refused
            mcfg, tcfg = ModelConfig.from_checkpoint(ckpt["model"]), TrainConfig.from_checkpoint(ckpt["train"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{args.resume}: {exc}") from exc
        cfg = {**load_config(None), "seed": ckpt.get("seed", 0), "model": asdict(mcfg), "train": asdict(tcfg)}
    else:
        cfg = load_config(args.config, args.set)
        model, tcfg = _fresh_model(cfg, cfg["train"])
    out = Path(args.out)
    write_run_meta(out, cfg)
    samples = []
    for path in args.corpus:
        samples.extend(read_samples(path))
    if args.resume:
        model, report = resume(args.resume, samples, out_dir=out, loss_log_path=out / "loss_log.csv")
    else:
        report = train(
            model, samples, tcfg, out_dir=out, use_gnn=not args.text_only,
            loss_log_path=out / "loss_log.csv",
        )
    print(f"trained {report.steps} steps, final loss {report.final_loss:.4f}; outputs in {out}")
    return 0


def _load_model(path, budget: int | None) -> GofaModel:
    """The checkpoint's model; a generation ``budget`` its decoder cannot
    hold is a ``ConfigError``."""
    model, _extras, _config = GofaModel.load(path)
    limit = model.cfg.max_text_len
    if budget is not None and budget > limit:
        raise ConfigError(
            f"eval.max_new_tokens {budget} exceeds max_seq_len - memory_tokens = {limit} of checkpoint {path}"
        )
    return model


def _eval_kind(samples: list[TaskSample]) -> str:
    """The eval the corpus's task kinds select."""
    kinds = {s.task_kind for s in samples}
    if kinds <= {"spd", "cn"}:
        return "structural"
    if kinds == {"downstream"}:
        return "accuracy"
    return "perplexity"


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set)
    samples = read_samples(args.corpus)
    kind = _eval_kind(samples)
    budget = cfg["eval"]["max_new_tokens"]
    # only structural and accuracy evals generate, so only they need the budget to fit
    model = _load_model(args.checkpoint, budget if kind != "perplexity" else None)
    out = Path(args.out)
    write_run_meta(out, cfg)
    use_gnn = not args.text_only
    if kind == "structural":
        report = evaluate_structural(model, samples, use_gnn=use_gnn, max_new_tokens=budget)
    elif kind == "accuracy":
        report = evaluate_accuracy(model, samples, candidates=LOOKUP_VALUES, use_gnn=use_gnn, max_new_tokens=budget)
    else:
        report = EvalReport()
    report.metrics["perplexity"] = perplexity(model, samples, use_gnn=use_gnn)
    if model.cfg.gnn_layers and use_gnn:
        profile = layer_delta_profile(model, samples)
        report.metrics["delta_profile"] = {str(k): v for k, v in profile.items()}
    (out / "eval_report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "eval_report.txt").write_text(report.render_table() + "\n", encoding="utf-8")
    write_transcripts(out / "eval_report_transcripts.jsonl", report)
    print(report.render_table())
    return 0


def cmd_reproduce(args) -> int:
    unknown = [name for name in args.claims if name not in CLAIMS]
    if unknown:
        raise ConfigError(f"unknown claim(s) {', '.join(unknown)}; known: {', '.join(CLAIMS)}")
    names = args.claims or list(CLAIMS)
    out = Path(args.out)
    write_run_meta(out, {"claims": {name: CLAIMS[name].recipe() for name in names}})
    results = {}
    for name in names:
        log.info("claim %s: running", name)
        results[name] = run_claim(CLAIMS[name])
        # rewritten after every claim, so a cut run keeps the claims it finished
        (out / "claims.json").write_text(json.dumps(results, indent=2), encoding="utf-8")
    print(render_claims(results))
    return 0


def cmd_inspect_checkpoint(args) -> int:
    tensors, config = load_checkpoint(args.checkpoint)
    total = 0
    for name in sorted(tensors):
        arr = tensors[name]
        print(f"{name:<48} {str(arr.dtype):<8} {arr.shape}")
        total += arr.size
    print(f"total values: {total}")
    if config is not None:
        print(json.dumps(config, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gofa", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gofa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE", help="config override")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-corpus", help="generate synthetic task corpora")
    common(p)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("autoencode-pretrain", help="train the text reconstruction objective")
    common(p)
    p.set_defaults(func=cmd_autoencode_pretrain)

    p = sub.add_parser("train", help="train on task sample corpora")
    common(p)
    p.add_argument("--corpus", nargs="+", required=True, help="task sample JSONL file(s)")
    p.add_argument("--resume", default=None, help="checkpoint to resume from, with its own config")
    p.add_argument("--text-only", action="store_true", help="disable graph message passing")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--text-only", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce", help="run the paper's trained claims and write claims.json")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("claims", nargs="*", metavar="CLAIM", help=f"claims to run (default: all of {', '.join(CLAIMS)})")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("inspect-checkpoint", help="list checkpoint contents")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_inspect_checkpoint)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: exit code 3
        if os.environ.get("GOFA_LOG", "").lower() == "debug":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
