"""Run configuration: one structured JSON file plus command-line overrides.

The model, corpus and train sections are the fields of ``ModelConfig``,
``CorpusConfig`` and ``TrainConfig``. Unknown keys are rejected so typos
fail loudly, and every section is built once at load, so a bad value is a
``ConfigError`` before any command writes output. The effective config is
echoed into every output directory together with seed, version and a
content-derived build id.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .compressor import ModelConfig
from .corpus import CorpusConfig
from .training import TrainConfig

EVAL_KINDS = ("auto", "structural", "accuracy", "perplexity")

# Bit-exact results hold for a fixed BLAS thread count, which these set.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ConfigError(ValueError):
    pass


def default_config() -> dict:
    cfg = {
        "seed": 0,
        # null init_std means 1/sqrt(d_model) of the d_model the run ends up with
        "model": {**asdict(ModelConfig()), "init_std": None},
        "corpus": asdict(CorpusConfig()),
        "train": asdict(TrainConfig()),
        "pretrain": {"steps": 200, "batch_size": 16, "text_low": 2, "text_high": 8, "alphabet": "ab"},
        "eval": {"kind": "auto", "batch_size": 8, "max_new_tokens": 96, "delta_profile_n": 100},
        "gen": {"test_fraction": 0.2},
    }
    return json.loads(json.dumps(cfg))  # the shape a config file has: tuples become lists


def pretrain_train_section(cfg: dict) -> dict:
    """The ``TrainConfig`` fields ``autoencode-pretrain`` runs with: the
    train section with the pretrain section's step count and batch size."""
    pre = cfg["pretrain"]
    return {**cfg["train"], "max_steps": pre["steps"], "batch_size": pre["batch_size"]}


def _validate(cfg: dict) -> None:
    sections = [
        ("model", ModelConfig, cfg["model"]),
        ("corpus", CorpusConfig, cfg["corpus"]),
        ("train", TrainConfig, cfg["train"]),
        ("pretrain (steps as max_steps)", TrainConfig, pretrain_train_section(cfg)),
    ]
    for name, cls, fields in sections:
        try:
            cls(**fields)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    if cfg["eval"]["kind"] not in EVAL_KINDS:
        raise ConfigError(f"eval.kind {cfg['eval']['kind']!r} is not one of {', '.join(EVAL_KINDS)}")
    for key in ("batch_size", "max_new_tokens", "delta_profile_n"):
        _require(f"eval.{key}", cfg["eval"][key], int, lambda v: v >= 1, "an integer >= 1")
    _require("gen.test_fraction", cfg["gen"]["test_fraction"], (int, float), lambda v: 0 < v < 1, "in (0, 1)")
    pre = cfg["pretrain"]
    _require("pretrain.text_low", pre["text_low"], int, lambda v: v >= 0, "an integer >= 0")
    _require("pretrain.text_high", pre["text_high"], int, lambda v: v >= pre["text_low"], "an integer >= text_low")
    _require("pretrain.alphabet", pre["alphabet"], str, len, "a non-empty string")


def _require(name: str, value, kind, ok, what: str) -> None:
    """Raise a ``ConfigError`` unless ``value`` is a ``kind`` (not a bool) that ``ok`` accepts."""
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    cfg = default_config()
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        cfg = _merge(cfg, user)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        key_path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key_path.split(".")):
            value = {part: value}
        cfg = _merge(cfg, value)
    _validate(cfg)
    return cfg


def build_id(cfg: dict) -> str:
    blob = json.dumps({"config": cfg, "version": __version__}, sort_keys=True).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()[:12]


def write_run_meta(out_dir: Path, cfg: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "config": cfg,
        "seed": cfg.get("seed", 0),
        "version": __version__,
        "build_id": build_id(cfg),
        # what the bits of a run depend on besides the config
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
