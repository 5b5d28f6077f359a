import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gofa
from gofa.checkpoint import load_checkpoint, save_checkpoint
from gofa.cli import main
from gofa.compressor import ModelConfig
from gofa.config import BLAS_THREAD_VARS, ConfigError, build_id, default_config, load_config
from gofa.model import GofaModel
from gofa.taskgen import read_samples
from gofa.training import TrainConfig


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
        assert cfg["train"]["lr"] == 1e-4

    def test_settable_keys(self):
        """Only what a recipe sets is a key; the rest are constants."""
        assert [f.name for f in fields(ModelConfig)] == [
            "d_model", "n_heads", "n_layers", "memory_tokens", "gnn_layers", "max_seq_len", "precision",
        ]
        assert [f.name for f in fields(TrainConfig)] == [
            "lr", "weight_decay", "grad_clip", "batch_size", "gate_lr_mult", "freeze", "seed", "max_steps",
            "checkpoint_every", "log_every",
        ]
        sections = {name: list(v) for name, v in default_config().items() if isinstance(v, dict)}
        assert sections == {
            "model": [f.name for f in fields(ModelConfig)],
            "corpus": [
                "n_graphs", "nodes_low", "nodes_high", "n_selected", "question_style", "n_markers", "lookup_facts",
                "rng_seed",
            ],
            "train": [f.name for f in fields(TrainConfig)],
            "pretrain": ["steps"],
            "eval": ["max_new_tokens"],
        }

        def settable(value):
            return sum(settable(v) for v in value.values()) if isinstance(value, dict) else 1

        assert settable(default_config()) == 28

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

    def test_generation_budget_is_not_checked_against_the_config_model(self):
        # train never generates; eval checks the budget against each checkpoint
        cfg = load_config(None, ["model.max_seq_len=64"])
        assert cfg["eval"]["max_new_tokens"] > cfg["model"]["max_seq_len"] - cfg["model"]["memory_tokens"]

    def test_bad_override_path(self):
        with pytest.raises(ConfigError):
            load_config(None, ["nope.x=1"])

    def test_cli_config_builds_the_api_model(self):
        # the interior init scale follows the d_model a config sets
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

    # sha256 of each file a 4-graph corpus writes: the corpus and split constants fix these bytes
    PINNED = {
        "cn_test.jsonl": "650acee33679da64158f50070d0e2c3a4e0738977443eeb1b8e6b83831e07f10",
        "cn_train.jsonl": "d232ff328bb0c94e5ef4fb639757b158fb30d04e31599725ab7d4bd20db05c07",
        "completion_test.jsonl": "0f832a175e2df02ec0ef6205b41afd6d2668ab67502abe87c77723e704bededa",
        "completion_train.jsonl": "00af5d706e4d523fb32d37475cf82aa7d66f9f0a6bfba98550fc52088979abf0",
        "lookup_double_test.jsonl": "5db2d2664d5fe319de80865c06408297ed1bfbfc15b9ae75da04ae683e3a885b",
        "lookup_double_train.jsonl": "1187e66aaba7857f93116a8019630c402436c32e8ed5b878fcc0d08c1f489258",
        "lookup_single_test.jsonl": "97d087614f1887a750bdf12ce571e51d850f6ad7aef776eb4755fd0f147323c1",
        "lookup_single_train.jsonl": "9638ac76ca478152fac96b60c0bdfe5672cd50da0f97ca4a5870de791bc3bb96",
        "qa_test.jsonl": "a323a403090a1e20a6a8901df1ca8bd526eb0b2c6cea555cc07106d3f18de673",
        "qa_train.jsonl": "e8d0752c87898fe34544d16c2a571186ecf842b7bf9a5facc382869c6351260e",
        "spd_test.jsonl": "5e0ae2ca03b0f8cebdcf798181b0fa9812fb574870064ade271e36a43ce4ca1b",
        "spd_train.jsonl": "dcb7739f85d9d9d925025cd42e7b940c85075e9830853223505a0fb823cd3423",
    }

    def test_corpus_bytes_are_pinned(self, tmp_path):
        assert run(["gen-corpus", "--out", str(tmp_path), "--set", "corpus.n_graphs=4"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.jsonl")}
        assert digests == self.PINNED

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
             "--corpus", str(corpus_dir / "qa_test.jsonl"), "--set", "eval.max_new_tokens=4"]
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
             "--corpus", str(corpus_dir / "qa_test.jsonl"), "--set", "eval.max_new_tokens=2"]
        )
        report = json.loads((eval_dir / "eval_report.json").read_text())
        assert all(v == 0.0 for v in report["metrics"]["delta_profile"].values())


    def test_train_override_reaches_checkpoint(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        train_dir = tmp_path / "train"
        code = run(
            ["train", "--out", str(train_dir), "--corpus", str(corpus_dir / "qa_train.jsonl")]
            + SMALL_MODEL
            + ["--set", "train.max_steps=1", "--set", "train.batch_size=2", "--set", "train.checkpoint_every=1",
               "--set", "train.gate_lr_mult=25"]
        )
        assert code == 0
        _, config = load_checkpoint(next(train_dir.glob("checkpoint_*.gofa")))
        assert config["train"]["gate_lr_mult"] == 25

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
                 "--corpus", str(corpus_dir / "lookup_single_test.jsonl"), "--set", f"eval.max_new_tokens={budget}"]
            )
            assert code == 0
            lines = (eval_dir / "eval_report_transcripts.jsonl").read_text().splitlines()
            rows = [json.loads(line) for line in lines]
            assert rows and all("correct" in r for r in rows)
            # one byte token decodes to at most one character
            longest[budget] = max(len(r["generated"]) for r in rows)
        assert longest[3] <= 3 < longest[8]


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
            ("train", "model.vocab_size=100"),
            ("train", "model.n_heads=0"),
            ("train", "model.d_model=0"),
            ("train", "model.ff_mult=0"),
            ("train", "model.rope_base=0"),
            ("train", "model.gnn_layers=[3,3]"),
            ("gen-corpus", "corpus.nodes_high=5"),
            ("gen-corpus", "corpus.nodes_low=1"),
            ("gen-corpus", "corpus.lookup_facts=0"),
            ("gen-corpus", "corpus.lookup_facts=17"),
            ("gen-corpus", "corpus.n_graphs=0"),
            ("gen-corpus", "corpus.n_graphs=-3"),
            ("gen-corpus", "corpus.n_markers=-1"),
            ("gen-corpus", "corpus.extra_edge_factor=-1"),
            ("gen-corpus", "corpus.conversation_rounds=[4,2]"),
            ("gen-corpus", "corpus.conversation_rounds=[0,1]"),
            ("gen-corpus", "corpus.conversation_rounds=[2]"),
            ("train", 'train.freeze=["compresor."]'),
            ("autoencode-pretrain", 'train.freeze=["gnn.", "decoder.layers.9"]'),
        ],
    )
    def test_invalid_value_is_2_before_any_output(self, tmp_path, capsys, command, override):
        out = tmp_path / "out"
        missing = str(tmp_path / "missing")  # inputs are never read
        inputs = {"train": ["--corpus", missing], "eval": ["--checkpoint", missing, "--corpus", missing]}
        assert run([command, "--out", str(out), "--set", override] + inputs.get(command, [])) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "command, override",
        [
            ("gen-corpus", "corpus.extra_edge_factor=0.5"),
            ("gen-corpus", "corpus.split_fraction=0.5"),
            ("gen-corpus", "corpus.conversation_rounds=[2,4]"),
            ("gen-corpus", "gen.test_fraction=0.2"),
            ("autoencode-pretrain", "pretrain.batch_size=16"),
            ("autoencode-pretrain", "pretrain.text_low=2"),
            ("autoencode-pretrain", "pretrain.text_high=8"),
            ("autoencode-pretrain", 'pretrain.alphabet="ab"'),
            ("eval", "eval.delta_profile_n=100"),
            ("eval", 'eval.kind="auto"'),
        ],
    )
    def test_retired_key_at_its_constant_is_2_before_any_output(self, tmp_path, capsys, command, override):
        key, value = override.split("=", 1)
        section, name = key.split(".")
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({section: {name: json.loads(value)}}))
        missing = str(tmp_path / "missing")
        inputs = {"eval": ["--checkpoint", missing, "--corpus", missing]}.get(command, [])
        for extra in (["--set", override], ["--config", str(cfg_file)]):
            out = tmp_path / "out"
            assert run([command, "--out", str(out)] + extra + inputs) == 2
            assert not out.exists()
            assert capsys.readouterr().err.startswith("config error: unknown config key: ")

    def test_budget_past_the_checkpoint_decoder_is_2_before_any_output(self, tmp_path, capsys):
        # the default budget of 96 is past the checkpoint decoder's 46
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        ckpt = str(tmp_path / "m.gofa")
        small = ModelConfig(d_model=16, n_heads=2, n_layers=2, memory_tokens=2, gnn_layers=(1,), max_seq_len=48)
        GofaModel(small).save(ckpt)
        out = tmp_path / "out"
        assert run(["eval", "--out", str(out), "--checkpoint", ckpt, "--corpus", str(corpus_dir / "spd_test.jsonl")]) == 2
        assert not out.exists()
        assert "exceeds max_seq_len - memory_tokens = 46 of checkpoint" in capsys.readouterr().err
        # a perplexity eval generates nothing, so the budget does not bind it
        out = tmp_path / "ppl"
        completion = str(corpus_dir / "completion_test.jsonl")
        code = run(["eval", "--out", str(out), "--checkpoint", ckpt, "--corpus", completion])
        assert code == 0 and (out / "eval_report.json").exists()

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


class TestResume:
    """``train --resume`` continues the checkpoint's run with the
    checkpoint's own config and GNN setting."""

    @staticmethod
    def _train(corpus, out, extra):
        return run(
            ["train", "--out", str(out), "--corpus", corpus] + SMALL_MODEL
            + ["--set", "train.max_steps=4", "--set", "train.batch_size=2", "--set", "train.checkpoint_every=2"] + extra
        )

    def test_run_meta_holds_the_checkpoint_config_and_overrides_are_2(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        corpus = str(corpus_dir / "qa_train.jsonl")
        assert self._train(corpus, tmp_path / "first", ["--set", "seed=5"]) == 0
        ckpt = str(tmp_path / "first" / "checkpoint_000002.gofa")
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{"train": {"max_steps": 50}}')
        for extra in (["--set", "train.max_steps=50"], ["--config", str(cfg_file)], ["--text-only"]):
            out = tmp_path / "refused"
            assert run(["train", "--out", str(out), "--corpus", corpus, "--resume", ckpt] + extra) == 2
            assert not out.exists()
            assert capsys.readouterr().err.startswith("config error: ")
        out = tmp_path / "resumed"
        assert run(["train", "--out", str(out), "--corpus", corpus, "--resume", ckpt]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        _, config = load_checkpoint(ckpt)
        assert meta["seed"] == meta["config"]["seed"] == 5
        assert meta["config"]["model"] == config["model"] and meta["config"]["train"] == config["train"]
        assert meta["config"]["model"]["d_model"] == 16 and meta["config"]["train"]["max_steps"] == 4
        assert [p.name for p in out.glob("checkpoint_*.gofa")] == ["checkpoint_000004.gofa"]

    def test_interrupted_text_only_run_resumes_bit_exact(self, tmp_path, monkeypatch):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        corpus = str(corpus_dir / "completion_train.jsonl")
        text_only = ["--text-only", "--set", "train.log_every=1", "--set", "train.lr=1e-2"]
        assert self._train(corpus, tmp_path / "full", text_only) == 0

        inner, calls = GofaModel.forward_batch, []

        def forward_batch(model, samples, use_gnn=True):
            calls.append(use_gnn)
            if len(calls) == 3:  # step 2, after the checkpoint of step 2
                raise RuntimeError("interrupted")
            return inner(model, samples, use_gnn=use_gnn)

        monkeypatch.setattr(GofaModel, "forward_batch", forward_batch)
        assert self._train(corpus, tmp_path / "cut", text_only) == 3
        monkeypatch.undo()
        ckpt = tmp_path / "cut" / "checkpoint_000002.gofa"
        assert load_checkpoint(ckpt)[1]["use_gnn"] is False
        assert run(["train", "--out", str(tmp_path / "cut"), "--corpus", corpus, "--resume", str(ckpt)]) == 0
        for name in ("loss_log.csv", "checkpoint_000004.gofa"):
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


    def test_checkpoint_without_a_run_is_2_before_any_output(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        corpus = str(corpus_dir / "qa_train.jsonl")
        ae = tmp_path / "ae"
        pretrain = ["--set", "pretrain.steps=1"]
        assert run(["autoencode-pretrain", "--out", str(ae)] + SMALL_MODEL + pretrain) == 0
        bare = tmp_path / "bare.gofa"  # no config chunk at all
        save_checkpoint(bare, load_checkpoint(ae / "autoencoder.gofa")[0])
        capsys.readouterr()
        for ckpt in (ae / "autoencoder.gofa", bare):
            out = tmp_path / "resumed"
            assert run(["train", "--out", str(out), "--corpus", corpus, "--resume", str(ckpt)]) == 2
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "train section" in err

    # what a checkpoint of the previous format holds besides this format's keys, at the values it fixes
    RETIRED = {
        "model": {"vocab_size": 260, "ff_mult": 4, "rope_base": 10000.0, "embed_std": 0.02,
                  "init_std": 16 ** -0.5},  # 1/sqrt(d_model) of SMALL_MODEL
        "train": {
            "betas": [0.9, 0.95], "eps": 1e-8, "grad_accum": 1, "restarts": 2, "min_lr_fraction": 0.1,
            "debug_nan_checks": False,
        },
    }

    def test_previous_format_loads_and_resumes_bit_exact_and_other_values_are_refused(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus_dir), "--set", "corpus.n_graphs=4"])
        corpus = str(corpus_dir / "completion_train.jsonl")
        assert self._train(corpus, tmp_path / "full", ["--set", "train.log_every=1", "--set", "train.lr=1e-2"]) == 0
        new = tmp_path / "full" / "checkpoint_000002.gofa"
        tensors, config = load_checkpoint(new)

        def previous_format(path, **changed):
            sections = {name: {**config[name], **keys} for name, keys in self.RETIRED.items()}
            for key, value in changed.items():
                sections["model" if key in sections["model"] else "train"][key] = value
            save_checkpoint(path, tensors, {**config, **sections})

        cut = tmp_path / "cut"
        cut.mkdir()
        old = cut / "checkpoint_000002.gofa"
        previous_format(old)
        log_rows = (tmp_path / "full" / "loss_log.csv").read_text().splitlines(keepends=True)
        (cut / "loss_log.csv").write_text("".join(log_rows[:3]))  # the header and steps 0 and 1

        test_corpus = str(corpus_dir / "completion_test.jsonl")

        def evaluate(ckpt, out):
            return run(["eval", "--out", str(out), "--checkpoint", str(ckpt), "--corpus", test_corpus])

        assert evaluate(old, tmp_path / "eval_old") == 0 and evaluate(new, tmp_path / "eval_new") == 0
        report = "eval_report.json"
        assert (tmp_path / "eval_old" / report).read_bytes() == (tmp_path / "eval_new" / report).read_bytes()
        assert run(["train", "--out", str(cut), "--corpus", corpus, "--resume", str(old)]) == 0
        for name in ("loss_log.csv", "checkpoint_000004.gofa"):
            assert (cut / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name

        for key, value, fixed in (("rope_base", 500, "10000.0"), ("betas", [0.8, 0.9], "(0.9, 0.95)")):
            refused = tmp_path / f"{key}.gofa"
            previous_format(refused, **{key: value})
            section = "model" if key in self.RETIRED["model"] else "train"
            capsys.readouterr()
            if section == "model":  # only the model section is read to evaluate
                assert evaluate(refused, tmp_path / "refused") == 3
                assert not (tmp_path / "refused").exists()
                assert f"{section}.{key} is {value!r}" in capsys.readouterr().err
            assert run(["train", "--out", str(tmp_path / "refused"), "--corpus", corpus, "--resume", str(refused)]) == 2
            assert not (tmp_path / "refused").exists()
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and f"{section}.{key} is {value!r}" in err and fixed in err


class TestAutoencodeCommand:
    def test_runs_and_saves(self, tmp_path):
        out = tmp_path / "ae"
        code = run(
            ["autoencode-pretrain", "--out", str(out)]
            + SMALL_MODEL
            + ["--set", "pretrain.steps=3"]
        )
        assert code == 0
        assert (out / "autoencoder.gofa").exists()
        assert (out / "checkpoint_000003.gofa").exists()
        rows = (out / "loss_log.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "step,lr,loss,grad_norm,tokens_seen" and rows[-1].startswith("2,")

    def test_diverging_run_exits_3_and_saves_nothing(self, tmp_path, monkeypatch, capsys):
        class NanMemory(GofaModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.memory_tokens.data[0, 0] = np.nan

        monkeypatch.setattr("gofa.cli.GofaModel", NanMemory)
        out = tmp_path / "ae"
        code = run(
            ["autoencode-pretrain", "--out", str(out)]
            + SMALL_MODEL
            + ["--set", "pretrain.steps=3"]
        )
        assert code == 3
        assert "non-finite loss" in capsys.readouterr().err
        assert not (out / "autoencoder.gofa").exists()
        assert not list(out.glob("checkpoint_*.gofa"))
