import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gofa
from gofa.checkpoint import load_checkpoint
from gofa.cli import main
from gofa.compressor import ModelConfig
from gofa.config import BLAS_THREAD_VARS, ConfigError, build_id, default_config, load_config
from gofa.model import GofaModel
from gofa.taskgen import read_samples


def run(argv):
    return main(argv)


SMALL_MODEL = [
    "--set", 'model.d_model=16',
    "--set", 'model.n_heads=2',
    "--set", 'model.n_layers=2',
    "--set", 'model.memory_tokens=2',
    "--set", 'model.gnn_layers=[1]',
    "--set", 'model.max_seq_len=48',
]


def test_cli_import_loads_every_module():
    """No module of the package is out of the command line's reach."""
    package = Path(gofa.__file__).parent
    code = "import sys, gofa.cli; print(' '.join(m for m in sys.modules if m.startswith('gofa.')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = {f"gofa.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    assert modules - set(out.stdout.split()) == set()


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg["model"]["d_model"] == 128
        assert cfg["train"]["grad_clip"] == 0.5
        assert cfg["train"]["betas"] == [0.9, 0.95]
        assert cfg["train"]["lr"] == 1e-4

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text('{"modle": {}}')
        with pytest.raises(ConfigError, match="modle"):
            load_config(bad)

    def test_nested_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text('{"model": {"d_modle": 3}}')
        with pytest.raises(ConfigError, match="model.d_modle"):
            load_config(bad)

    def test_overrides(self):
        cfg = load_config(None, ["model.d_model=64", "seed=9"])
        assert cfg["model"]["d_model"] == 64
        assert cfg["seed"] == 9

    def test_bad_override_path(self):
        with pytest.raises(ConfigError):
            load_config(None, ["nope.x=1"])

    def test_cli_config_builds_the_api_model(self):
        # init_std follows the d_model a config sets, as ModelConfig's default does
        cfg = load_config(None, ["model.d_model=32"])
        cli_params = GofaModel(ModelConfig(**cfg["model"]), seed=0).parameters()
        for name, t in GofaModel(ModelConfig(d_model=32), seed=0).parameters().items():
            assert np.array_equal(cli_params[name].data, t.data), name

    def test_build_id_stable(self):
        cfg = default_config()
        assert build_id(cfg) == build_id(json.loads(json.dumps(cfg)))


class TestGenCorpus:
    def test_writes_all_corpora_and_meta(self, tmp_path):
        out = tmp_path / "corpus"
        code = run(["gen-corpus", "--out", str(out), "--set", "corpus.n_graphs=6"])
        assert code == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert {"config", "seed", "version", "build_id", "numpy", "blas_threads"} <= set(meta)
        assert meta["numpy"] == np.__version__
        for name in ("completion", "spd", "cn", "qa", "lookup_single", "lookup_double"):
            assert (out / f"{name}_train.jsonl").exists()
            assert (out / f"{name}_test.jsonl").exists()
        samples = read_samples(out / "spd_train.jsonl")
        assert samples and samples[0].task_kind == "spd"

    def test_run_meta_records_the_blas_thread_settings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert run(["gen-corpus", "--out", str(tmp_path), "--set", "corpus.n_graphs=2"]) == 0
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        assert set(meta["blas_threads"]) == set(BLAS_THREAD_VARS)

    def test_idempotent(self, tmp_path):
        args = ["gen-corpus", "--set", "corpus.n_graphs=4"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in ("completion_train.jsonl", "qa_test.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrainEval:
    def test_train_then_eval_round_trip(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=6"])
        train_dir = tmp_path / "train"
        code = run(
            ["train", "--out", str(train_dir), "--corpus", str(corpus_dir / "qa_train.jsonl")]
            + SMALL_MODEL
            + ["--set", "train.max_steps=3", "--set", "train.batch_size=2", "--set", "train.checkpoint_every=3"]
        )
        assert code == 0
        ckpts = sorted(train_dir.glob("checkpoint_*.gofa"))
        assert ckpts
        assert (train_dir / "loss_log.csv").exists()

        eval_dir = tmp_path / "eval"
        code = run(
            ["eval", "--out", str(eval_dir), "--checkpoint", str(ckpts[-1]),
             "--corpus", str(corpus_dir / "qa_test.jsonl"),
             "--set", "eval.delta_profile_n=2", "--set", "eval.max_new_tokens=4"]
        )
        assert code == 0
        report = json.loads((eval_dir / "eval_report.json").read_text())
        assert "perplexity" in report["metrics"]
        assert "delta_profile" in report["metrics"]
        assert (eval_dir / "eval_report_transcripts.jsonl").exists()

    def test_gate_zero_model_reports_zero_delta_profile(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        train_dir = tmp_path / "train"
        run(
            ["train", "--out", str(train_dir), "--corpus", str(corpus_dir / "qa_train.jsonl")]
            + SMALL_MODEL
            + ["--set", "train.max_steps=1", "--set", "train.batch_size=2",
               "--set", 'train.freeze=["compressor.","decoder.","gnn.","memory_tokens"]',
               "--set", "train.checkpoint_every=1"]
        )
        eval_dir = tmp_path / "eval"
        run(
            ["eval", "--out", str(eval_dir), "--checkpoint", str(next(train_dir.glob("checkpoint_*.gofa"))),
             "--corpus", str(corpus_dir / "qa_test.jsonl"),
             "--set", "eval.delta_profile_n=2", "--set", "eval.max_new_tokens=2"]
        )
        report = json.loads((eval_dir / "eval_report.json").read_text())
        assert all(v == 0.0 for v in report["metrics"]["delta_profile"].values())


    def test_debug_nan_checks_override_reaches_checkpoint(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        train_dir = tmp_path / "train"
        code = run(
            ["train", "--out", str(train_dir), "--corpus", str(corpus_dir / "qa_train.jsonl")]
            + SMALL_MODEL
            + ["--set", "train.max_steps=1", "--set", "train.batch_size=2", "--set", "train.checkpoint_every=1",
               "--set", "train.debug_nan_checks=true"]
        )
        assert code == 0
        _, config = load_checkpoint(next(train_dir.glob("checkpoint_*.gofa")))
        assert config["train"]["debug_nan_checks"] is True

    def test_accuracy_eval_honours_max_new_tokens(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        ckpt = tmp_path / "m.gofa"
        GofaModel(ModelConfig(d_model=16, n_heads=2, n_layers=2, memory_tokens=2, gnn_layers=(1,)), seed=0).save(ckpt)
        longest = {}
        for budget in (3, 8):
            eval_dir = tmp_path / f"eval{budget}"
            code = run(
                ["eval", "--out", str(eval_dir), "--checkpoint", str(ckpt),
                 "--corpus", str(corpus_dir / "lookup_single_test.jsonl"),
                 "--set", "eval.delta_profile_n=1", "--set", f"eval.max_new_tokens={budget}"]
            )
            assert code == 0
            lines = (eval_dir / "eval_report_transcripts.jsonl").read_text().splitlines()
            rows = [json.loads(line) for line in lines]
            assert rows and all("correct" in r for r in rows)
            # one byte token decodes to at most one character
            longest[budget] = max(len(r["generated"]) for r in rows)
        assert longest[3] <= 3 < longest[8]
        out = tmp_path / "ablation"
        test_corpus = str(corpus_dir / "lookup_single_test.jsonl")
        code = run(
            ["ablate-edges", "--out", str(out), "--checkpoint-single", str(ckpt), "--checkpoint-double", str(ckpt),
             "--corpus-single", test_corpus, "--corpus-double", test_corpus, "--set", "eval.max_new_tokens=3"]
        )
        assert code == 0
        rows = [json.loads(line) for line in (out / "ablation_single_transcripts.jsonl").read_text().splitlines()]
        assert rows and max(len(r["generated"]) for r in rows) <= 3


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        assert run(["gen-corpus", "--out", str(tmp_path / "x"), "--set", "bogus.key=1"]) == 2

    @pytest.mark.parametrize(
        "command, override",
        [
            ("train", "model.n_heads=3"),
            ("train", "model.d_model=abc"),
            ("train", "train.lr=-1"),
            ("train", "train.grad_accum=0"),
            ("autoencode-pretrain", "pretrain.steps=0"),
            ("gen-corpus", "corpus.question_style=verbose"),
            ("eval", "eval.kind=bogus"),
            ("gen-corpus", "gen.test_fraction=1.5"),
            ("gen-corpus", "gen.test_fraction=0"),
            ("eval", "eval.batch_size=0"),
            ("eval", "eval.max_new_tokens=0"),
            ("eval", "eval.delta_profile_n=0"),
            ("autoencode-pretrain", "pretrain.text_low=9"),
            ("autoencode-pretrain", 'pretrain.alphabet=""'),
            ("train", "train.betas=[1.0,0.95]"),
            ("train", "train.betas=[0.9,-0.1]"),
            ("train", "train.betas=[0.9]"),
            ("train", "train.eps=0"),
            ("train", "train.weight_decay=-1"),
            ("train", "train.restarts=-3"),
            ("train", "train.gate_lr_mult=-1"),
            ("autoencode-pretrain", "train.betas=[0.9,1.0]"),
            ("train", "model.embed_std=-1"),
            ("train", "model.embed_std=0"),
            ("train", "model.init_std=0"),
        ],
    )
    def test_invalid_value_is_2_before_any_output(self, tmp_path, capsys, command, override):
        out = tmp_path / "out"
        missing = str(tmp_path / "missing")  # inputs are never read
        inputs = {"train": ["--corpus", missing], "eval": ["--checkpoint", missing, "--corpus", missing]}
        assert run([command, "--out", str(out), "--set", override] + inputs.get(command, [])) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: ")

    def test_runtime_error_is_3(self, tmp_path):
        assert run(["eval", "--out", str(tmp_path / "x"), "--checkpoint", "/nonexistent.gofa",
                    "--corpus", "/nonexistent.jsonl"]) == 3

    def test_inspect_checkpoint(self, tmp_path, capsys):
        from gofa.compressor import ModelConfig
        from gofa.model import GofaModel

        model = GofaModel(ModelConfig(d_model=16, n_heads=2, n_layers=2, memory_tokens=2, gnn_layers=(1,)), seed=0)
        path = tmp_path / "m.gofa"
        model.save(path)
        assert run(["inspect-checkpoint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compressor.embed" in out
        assert '"d_model": 16' in out


class TestAutoencodeCommand:
    def test_runs_and_saves(self, tmp_path):
        out = tmp_path / "ae"
        code = run(
            ["autoencode-pretrain", "--out", str(out)]
            + SMALL_MODEL
            + ["--set", "pretrain.steps=3", "--set", "pretrain.batch_size=4"]
        )
        assert code == 0
        assert (out / "autoencoder.gofa").exists()


class TestAblateCommand:
    def test_comparison_table(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        ckpts = {}
        for mode in ("single", "double"):
            d = tmp_path / f"train_{mode}"
            run(
                ["train", "--out", str(d), "--corpus", str(corpus_dir / f"lookup_{mode}_train.jsonl")]
                + SMALL_MODEL
                + ["--set", "train.max_steps=2", "--set", "train.batch_size=2", "--set", "train.checkpoint_every=2"]
            )
            ckpts[mode] = next(d.glob("checkpoint_*.gofa"))
        out = tmp_path / "ablation"
        code = run(
            ["ablate-edges", "--out", str(out),
             "--checkpoint-single", str(ckpts["single"]), "--checkpoint-double", str(ckpts["double"]),
             "--corpus-single", str(corpus_dir / "lookup_single_test.jsonl"),
             "--corpus-double", str(corpus_dir / "lookup_double_test.jsonl"),
             "--set", "eval.max_new_tokens=4"]
        )
        assert code == 0
        table = (out / "ablation_comparison.txt").read_text()
        assert "single" in table and "double" in table
        assert (out / "ablation_single.json").exists()
        assert (out / "ablation_double.json").exists()

    def test_identical_checkpoints_identical_reports(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        d = tmp_path / "train"
        run(
            ["train", "--out", str(d), "--corpus", str(corpus_dir / "lookup_single_train.jsonl")]
            + SMALL_MODEL
            + ["--set", "train.max_steps=2", "--set", "train.batch_size=2", "--set", "train.checkpoint_every=2"]
        )
        ckpt = str(next(d.glob("checkpoint_*.gofa")))
        out = tmp_path / "ablation"
        run(
            ["ablate-edges", "--out", str(out),
             "--checkpoint-single", ckpt, "--checkpoint-double", ckpt,
             "--corpus-single", str(corpus_dir / "lookup_single_test.jsonl"),
             "--corpus-double", str(corpus_dir / "lookup_single_test.jsonl"),
             "--set", "eval.max_new_tokens=4"]
        )
        a = json.loads((out / "ablation_single.json").read_text())
        b = json.loads((out / "ablation_double.json").read_text())
        assert a == b
