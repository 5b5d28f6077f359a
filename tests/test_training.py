import contextlib
import json
import logging
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gofa import training

from gofa.autodiff import Tensor
from gofa.compressor import Compressor, ModelConfig
from gofa.corpus import CorpusConfig
from gofa.model import GofaModel
from gofa.tag import TAG, GenerationTarget, TaskSample, attach_prompt_node
from gofa.evaluation import perplexity
from gofa.taskgen import make_autoencode_task
from gofa.training import (
    AdamW,
    TrainConfig,
    TrainingDivergedError,
    clip_gradients,
    cosine_restart_lr,
    resume,
    train,
)


def tiny_cfg(**kw):
    base = dict(d_model=16, n_heads=2, n_layers=2, memory_tokens=2, gnn_layers=(1,), max_seq_len=32)
    base.update(kw)
    return ModelConfig(**base)


def make_corpus(n, seed=0, answer_tail=""):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        g = TAG()
        g.add_node(f"node {i} alpha")
        g.add_node(f"node {i} beta")
        g.add_undirected_edge(0, 1)
        p = attach_prompt_node(g, [0], "question?", "single")
        targets = [GenerationTarget(p, f"ans {i}{answer_tail}")]
        if rng.random() < 0.5:
            p2 = attach_prompt_node(g, [1], "other?", "single")
            targets.append(GenerationTarget(p2, f"more {i}"))
        s = TaskSample(graph=g, targets=targets, task_kind="downstream")
        s.validate()
        out.append(s)
    return out


class TestSchedule:
    def test_start_and_cycle_end_values(self):
        cfg = TrainConfig(lr=1e-3, max_steps=300)
        assert cosine_restart_lr(0, 300, cfg) == pytest.approx(1e-3)
        assert cosine_restart_lr(99, 300, cfg) == pytest.approx(1e-4)  # end of first cycle
        assert cosine_restart_lr(299, 300, cfg) == pytest.approx(1e-4)

    def test_restarts_at_thirds(self):
        cfg = TrainConfig(lr=1e-3, max_steps=300)
        assert cosine_restart_lr(100, 300, cfg) == pytest.approx(1e-3)  # floor(N/3)
        assert cosine_restart_lr(200, 300, cfg) == pytest.approx(1e-3)  # floor(2N/3)
        assert cosine_restart_lr(101, 300, cfg) < 1e-3

    def test_monotone_within_cycle(self):
        cfg = TrainConfig(lr=1e-3, max_steps=300)
        values = [cosine_restart_lr(s, 300, cfg) for s in range(100)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(grad_clip=0.0)


class TestClip:
    def _tensor_with_grad(self, grad):
        t = Tensor(np.zeros_like(grad), requires_grad=True)
        t.grad = grad.copy()
        return t

    def test_below_cap_unchanged(self):
        t = self._tensor_with_grad(np.array([0.15, 0.2]))
        norm = clip_gradients([t], 0.5)
        assert norm == pytest.approx(0.25)
        assert np.allclose(t.grad, [0.15, 0.2])

    def test_above_cap_scaled_to_cap(self):
        t = self._tensor_with_grad(np.array([0.6, 0.8]))
        norm = clip_gradients([t], 0.5)
        assert norm == pytest.approx(1.0)
        assert np.linalg.norm(t.grad) == pytest.approx(0.5)
        assert np.allclose(t.grad, [0.3, 0.4])

    def test_matches_independent_norm(self, rng):
        tensors = [self._tensor_with_grad(rng.normal(size=(4, 5))) for _ in range(3)]
        expected = np.sqrt(sum((t.grad**2).sum() for t in tensors))
        norm = clip_gradients(tensors, 0.5)
        assert norm == pytest.approx(expected)
        post = np.sqrt(sum((t.grad**2).sum() for t in tensors))
        assert post <= 0.5 + 1e-12


class TestAdamW:
    def test_weight_decay_skips_gains_and_gates(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=0)
        tcfg = TrainConfig(lr=1e-2, weight_decay=0.5, max_steps=1)
        opt = AdamW(model.parameters(), tcfg)
        gate = model.gnn_params[1]["gate_gnn"]
        norm_gain = model.compressor_stack.layers[0]["attn_norm"]
        # zero grads everywhere: only decay could move parameters
        for t in opt.trainable.values():
            t.grad = np.zeros_like(t.data)
        w_before = model.compressor_stack.layers[0]["wq"].data.copy()
        opt.step(1e-2)
        assert gate.data == 0.0
        assert np.array_equal(norm_gain.data, np.ones(cfg.d_model))
        assert not np.array_equal(model.compressor_stack.layers[0]["wq"].data, w_before)

    def test_frozen_prefixes_never_move(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=1)
        frozen_before = {
            n: t.data.copy() for n, t in model.parameters().items() if n.startswith("compressor.")
        }
        tcfg = TrainConfig(lr=1e-2, max_steps=5, batch_size=2, freeze=("compressor.", "memory_tokens"))
        train(model, make_corpus(6), tcfg)
        for n, before in frozen_before.items():
            assert np.array_equal(model.parameters()[n].data, before), f"{n} moved"
        assert "memory_tokens" not in AdamW(model.parameters(), tcfg).trainable

    def test_freeze_prefix_matching_no_parameter_is_refused(self):
        # a misspelt prefix would freeze nothing and train the compressor
        model = GofaModel(tiny_cfg(), seed=1)
        with pytest.raises(ValueError, match="compresor"):
            AdamW(model.parameters(), TrainConfig(freeze=("compresor.",)))
        with pytest.raises(ValueError, match=r"\['gnn\.9'\]"):
            AdamW(model.parameters(), TrainConfig(freeze=("memory_tokens", "gnn.9")))
        assert set(AdamW(model.parameters(), TrainConfig(freeze=("compressor.",))).trainable) == {
            n for n in model.parameters() if not n.startswith("compressor.")
        }


class TestFreezing:
    FREEZE = ("compressor.", "memory_tokens")

    @staticmethod
    def _open_gates(model):
        for params in model.gnn_params.values():
            params["gate_gnn"].data = np.asarray(0.5)
            params["gate_ff"].data = np.asarray(-0.3)

    @staticmethod
    def _flags(model):
        return {n: t.requires_grad for n, t in model.parameters().items()}

    def test_frozen_parameters_get_no_gradient(self):
        model = GofaModel(tiny_cfg(), seed=31)
        self._open_gates(model)
        train(model, make_corpus(2), TrainConfig(lr=1e-3, max_steps=1, batch_size=2, freeze=self.FREEZE))
        for name, t in model.parameters().items():
            if name.startswith(self.FREEZE):
                assert t.grad is None, name
        assert model.parameters()["gnn.1.wq"].grad is not None
        assert model.parameters()["decoder.embed"].grad is not None

    def test_trainable_update_equals_step_with_full_tape(self, monkeypatch):
        tcfg = TrainConfig(lr=1e-3, max_steps=1, batch_size=2, freeze=self.FREEZE, seed=4)
        corpus = make_corpus(2, seed=2)
        after = []
        for full_tape in (False, True):
            if full_tape:
                monkeypatch.setattr(training, "_frozen", contextlib.nullcontext)
            model = GofaModel(tiny_cfg(), seed=32)
            self._open_gates(model)
            train(model, corpus, tcfg)
            after.append(model.parameters())
        frozen, reference = after
        assert reference["compressor.layers.0.wq"].grad is not None
        for name, t in reference.items():
            assert np.array_equal(frozen[name].data, t.data), name

    def test_requires_grad_restored_after_return_and_divergence(self, tmp_path):
        model = GofaModel(tiny_cfg(), seed=33)
        model.parameters()["decoder.final_norm"].requires_grad = False
        before = self._flags(model)
        tcfg = TrainConfig(lr=1e-3, max_steps=1, batch_size=2, freeze=self.FREEZE)
        train(model, make_corpus(2), tcfg)
        assert self._flags(model) == before
        train(model, [make_autoencode_task(t) for t in ("abab", "ba")], tcfg)
        assert self._flags(model) == before
        model.memory_tokens.data[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            train(model, make_corpus(2), tcfg, out_dir=tmp_path)
        assert self._flags(model) == before


class TestTrainLoop:
    def test_loss_log_format(self, tmp_path):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=2)
        tcfg = TrainConfig(lr=1e-3, max_steps=3, batch_size=2, log_every=1)
        train(model, make_corpus(4), tcfg, loss_log_path=tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().strip().split("\n")
        assert lines[0] == "step,lr,loss,grad_norm,tokens_seen"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[4]) > 0

    def test_nan_loss_aborts_with_dump(self, tmp_path):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=3)
        model.memory_tokens.data[0, 0] = np.nan
        tcfg = TrainConfig(lr=1e-3, max_steps=2, batch_size=2)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, make_corpus(4), tcfg, out_dir=tmp_path)
        assert err.value.dump_path is not None
        assert (tmp_path / err.value.dump_path.split("/")[-1]).exists()

    def test_empty_corpus_rejected(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=4)
        with pytest.raises(ValueError):
            train(model, [], TrainConfig(max_steps=1))

    def test_seed_reproducibility(self):
        runs = []
        for _ in range(2):
            model = GofaModel(tiny_cfg(), seed=6)
            tcfg = TrainConfig(lr=1e-3, max_steps=4, batch_size=2, seed=9)
            report = train(model, make_corpus(5, seed=1), tcfg)
            runs.append((report.losses, {n: t.data.copy() for n, t in model.parameters().items()}))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])


class TestResume:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_bit_exact_resume(self, tmp_path, precision):
        corpus = make_corpus(6, seed=4)

        model_a = GofaModel(tiny_cfg(precision=precision), seed=21)
        cfg_a = TrainConfig(lr=1e-3, max_steps=6, batch_size=2, checkpoint_every=3, seed=2)
        train(model_a, corpus, cfg_a, out_dir=tmp_path / "full")

        # resume from the checkpoint the full run wrote at step 3
        resumed, report = resume(tmp_path / "full" / "checkpoint_000003.gofa", corpus, out_dir=tmp_path / "resumed")
        assert report.steps == 6
        for name, t in model_a.parameters().items():
            assert t.dtype == resumed.parameters()[name].dtype == np.dtype(precision)
            assert np.array_equal(t.data, resumed.parameters()[name].data), f"{name} differs after resume"

    def test_resumed_loss_log_equals_uninterrupted(self, tmp_path, monkeypatch):
        corpus = make_corpus(6, seed=4)
        cfg = TrainConfig(lr=1e-3, max_steps=6, batch_size=2, checkpoint_every=3, log_every=1, seed=2)
        train(GofaModel(tiny_cfg(), seed=21), corpus, cfg, loss_log_path=tmp_path / "full.csv")

        class Interrupted(Exception):
            pass

        inner = GofaModel.forward_batch
        steps = []

        def forward_batch(m, samples, use_gnn=True):
            if len(steps) == 5:
                raise Interrupted
            steps.append(len(samples))
            return inner(m, samples, use_gnn=use_gnn)

        monkeypatch.setattr(GofaModel, "forward_batch", forward_batch)
        with pytest.raises(Interrupted):
            train(GofaModel(tiny_cfg(), seed=21), corpus, cfg, out_dir=tmp_path / "cut", loss_log_path=tmp_path / "cut.csv")
        monkeypatch.undo()
        # steps 0-4 logged, the last checkpoint holds step 3
        assert len((tmp_path / "cut.csv").read_text().splitlines()) == 6
        resume(tmp_path / "cut" / "checkpoint_000003.gofa", corpus, loss_log_path=tmp_path / "cut.csv")
        assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()

    def test_resumed_token_count_of_targets_past_the_decoder(self, tmp_path):
        # targets longer than the decoder's max_text_len tokens score only
        # their first max_text_len; the replayed count must do the same
        corpus = make_corpus(4, seed=6, answer_tail=" and more" * 8)
        cfg = TrainConfig(lr=1e-3, max_steps=4, batch_size=2, checkpoint_every=2, log_every=1, seed=3)
        model = GofaModel(tiny_cfg(), seed=23)
        assert len(model.target_ids(corpus[0].targets[0].target_text)) > model.cfg.max_text_len
        full = train(model, corpus, cfg, out_dir=tmp_path / "a", loss_log_path=tmp_path / "full.csv")
        (tmp_path / "resumed.csv").write_bytes((tmp_path / "full.csv").read_bytes())
        _, resumed = resume(tmp_path / "a" / "checkpoint_000002.gofa", corpus, loss_log_path=tmp_path / "resumed.csv")
        assert resumed.log_rows == full.log_rows[2:]
        assert (tmp_path / "resumed.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()

    def test_resume_writes_matching_final_checkpoint(self, tmp_path):
        corpus = make_corpus(4, seed=5)
        model = GofaModel(tiny_cfg(), seed=22)
        cfg = TrainConfig(lr=1e-3, max_steps=4, batch_size=2, checkpoint_every=2, seed=3)
        train(model, corpus, cfg, out_dir=tmp_path / "a")
        resume(tmp_path / "a" / "checkpoint_000002.gofa", corpus, out_dir=tmp_path / "b")
        blob_a = (tmp_path / "a" / "checkpoint_000004.gofa").read_bytes()
        blob_b = (tmp_path / "b" / "checkpoint_000004.gofa").read_bytes()
        assert blob_a == blob_b


class TestTextCache:
    """Under a frozen compressor, ``train`` reads every text's state at the
    cache point from ``Compressor.text_cache``; nothing it computes changes."""

    FREEZE = ("compressor.", "memory_tokens")

    @staticmethod
    def _cache_states(monkeypatch) -> list[bool]:
        """Whether a text cache is open, for every ``Compressor.run`` call."""
        seen = []
        inner = Compressor.run

        def run(comp, sequences, memory_hook=None, fields=None):
            seen.append(comp._cache is not None)
            return inner(comp, sequences, memory_hook=memory_hook, fields=fields)

        monkeypatch.setattr(Compressor, "run", run)
        return seen

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_cached_and_uncached_training_are_bit_equal(self, monkeypatch, precision):
        corpus = make_corpus(6, seed=6)
        tcfg = TrainConfig(lr=1e-3, max_steps=7, batch_size=2, freeze=self.FREEZE, gate_lr_mult=25.0, seed=4)
        runs = []
        for cached in (True, False):
            if not cached:
                monkeypatch.setattr(Compressor, "frozen", property(lambda comp: False))
            grads = []
            inner = training.clip_gradients

            def recording(params, max_norm):
                grads.append([None if t.grad is None else t.grad.copy() for t in params])
                return inner(params, max_norm)

            monkeypatch.setattr(training, "clip_gradients", recording)
            model = GofaModel(tiny_cfg(n_layers=3, gnn_layers=(1, 2), precision=precision), seed=34)
            report = train(model, corpus, tcfg)
            runs.append((report, grads, {n: t.data.copy() for n, t in model.parameters().items()}))
            monkeypatch.undo()
        (cached, cached_grads, cached_params), (plain, plain_grads, plain_params) = runs
        assert cached.text_cache_hits > 0 and cached.text_cache_misses > 0 and cached.text_cache_bytes > 0
        assert (plain.text_cache_hits, plain.text_cache_misses, plain.text_cache_bytes) == (0, 0, 0)
        assert cached.losses == plain.losses
        assert len(cached_grads) == len(plain_grads) == tcfg.max_steps
        for step_a, step_b in zip(cached_grads, plain_grads):
            for a, b in zip(step_a, step_b):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
        for name, data in plain_params.items():
            assert data.dtype == model.cfg.dtype and cached_params[name].tobytes() == data.tobytes(), name

    def test_interrupted_cached_run_resumes_to_identical_checkpoint(self, tmp_path, monkeypatch):
        corpus = make_corpus(6, seed=4)
        cfg = TrainConfig(lr=1e-3, max_steps=6, batch_size=2, checkpoint_every=3, seed=2, freeze=self.FREEZE, gate_lr_mult=25.0)
        train(GofaModel(tiny_cfg(), seed=21), corpus, cfg, out_dir=tmp_path / "full")

        class Interrupted(Exception):
            pass

        inner = GofaModel.forward_batch
        steps = []

        def forward_batch(m, samples, use_gnn=True):
            if len(steps) == 5:
                raise Interrupted
            steps.append(m.compressor._cache is not None)
            return inner(m, samples, use_gnn=use_gnn)

        monkeypatch.setattr(GofaModel, "forward_batch", forward_batch)
        with pytest.raises(Interrupted):
            train(GofaModel(tiny_cfg(), seed=21), corpus, cfg, out_dir=tmp_path / "cut")
        monkeypatch.undo()
        assert steps == [True] * 5
        resume(tmp_path / "cut" / "checkpoint_000003.gofa", corpus, out_dir=tmp_path / "resumed")
        final = "checkpoint_000006.gofa"
        assert (tmp_path / "resumed" / final).read_bytes() == (tmp_path / "full" / final).read_bytes()

    @pytest.mark.parametrize(
        "freeze, cached",
        [
            ((), False),
            (("compressor.",), False),
            (("memory_tokens", "compressor.layers.0."), False),
            (("decoder.", "gnn."), False),
            (("compressor.", "memory_tokens"), True),
        ],
    )
    def test_cache_open_only_while_no_compressor_parameter_trains(self, freeze, cached, monkeypatch):
        seen = self._cache_states(monkeypatch)
        model = GofaModel(tiny_cfg(), seed=35)
        samples = make_corpus(4)
        report = train(model, samples, TrainConfig(lr=1e-3, max_steps=2, batch_size=2, freeze=freeze))
        assert seen == [cached, cached]
        assert (report.text_cache_misses > 0) == cached
        # outside train no cache is open, whatever is frozen
        for name, t in model.parameters().items():
            t.requires_grad = not name.startswith(self.FREEZE)
        seen.clear()
        perplexity(model, samples, batch_size=2)
        assert seen and not any(seen)
        # autoencode pre-training runs through train, so it opens one on the same condition
        for t in model.parameters().values():
            t.requires_grad = True
        seen.clear()
        texts = [make_autoencode_task(t) for t in ("abab", "ba")]
        report = train(model, texts, TrainConfig(lr=1e-3, max_steps=2, batch_size=2, freeze=freeze))
        assert seen == [cached, cached]
        assert (report.text_cache_misses, report.text_cache_hits) == ((2, 2) if cached else (0, 0))
        assert model.compressor._cache is None

    def test_cache_emptied_after_divergence(self, tmp_path, monkeypatch):
        caches = []
        inner = Compressor.text_cache

        @contextlib.contextmanager
        def text_cache(comp):
            with inner(comp) as cache:
                caches.append(cache)
                yield cache

        monkeypatch.setattr(Compressor, "text_cache", text_cache)
        model = GofaModel(tiny_cfg(), seed=36)
        model.parameters()["decoder.final_norm"].data[0] = np.nan
        tcfg = TrainConfig(lr=1e-3, max_steps=2, batch_size=2, freeze=self.FREEZE)
        with pytest.raises(TrainingDivergedError):
            train(model, make_corpus(4), tcfg, out_dir=tmp_path)
        assert len(caches) == 1 and caches[0].misses > 0 and caches[0].bytes > 0
        assert caches[0].entries == {}
        assert model.compressor._cache is None

    def test_log_line_reports_the_hit_rate(self, caplog):
        tcfg = TrainConfig(lr=1e-3, max_steps=4, batch_size=2, log_every=1, freeze=self.FREEZE)
        with caplog.at_level(logging.INFO, logger="gofa"):
            report = train(GofaModel(tiny_cfg(), seed=37), make_corpus(4), tcfg)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("step ")]
        assert len(lines) == 4 and all("text cache hit rate" in line for line in lines)
        rate = report.text_cache_hits / (report.text_cache_hits + report.text_cache_misses)
        assert lines[-1].endswith(f"text cache hit rate {rate:.1%}")


class TestTrainConfigRoundTrip:
    def test_checkpoint_keeps_every_setting(self, tmp_path):
        cfg = TrainConfig(lr=1e-3, max_steps=1, batch_size=2, checkpoint_every=1, gate_lr_mult=25.0)
        train(GofaModel(tiny_cfg(), seed=23), make_corpus(2), cfg, out_dir=tmp_path)
        _, _, config = GofaModel.load(tmp_path / "checkpoint_000001.gofa")
        assert config["train"]["gate_lr_mult"] == 25.0
        assert TrainConfig(**config["train"]) == cfg

    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(d_model=32, gnn_layers=(2, 1), precision="float32"),
            CorpusConfig(n_graphs=7, question_style="full"),
            TrainConfig(lr=3e-4, gate_lr_mult=25.0, freeze=("compressor.", "memory_tokens"), log_every=5),
        ],
        ids=lambda cfg: type(cfg).__name__,
    )
    def test_config_round_trips_through_json(self, cfg):
        assert type(cfg)(**json.loads(json.dumps(asdict(cfg)))) == cfg


class TestAutoencodePretrain:
    def test_loss_decreases(self):
        model = GofaModel(tiny_cfg(d_model=24, n_heads=2), seed=30)
        texts = ["abba", "baab", "aabb", "bbaa"]
        tcfg = TrainConfig(lr=2e-3, weight_decay=0.0, grad_clip=1.0, batch_size=4, max_steps=60, seed=1)
        report = train(model, [make_autoencode_task(t) for t in texts], tcfg)
        assert report.losses[-1] < report.losses[0]


ON_GLIBC = platform.libc_ver()[0] == "glibc"

# 14 steps of the benchmark's desk-scale model under the README recipe: the
# process's minor page faults as each step's forward pass starts, and its
# resident MiB before train(), after it returns and at its peak
STEADY_STEPS = """
import json, os, resource
from gofa.compressor import ModelConfig
from gofa.corpus import CorpusConfig, gen_completion_corpus
from gofa.model import GofaModel
from gofa.training import TrainConfig, train

def resident_mib():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

model = GofaModel(
    ModelConfig(d_model=32, n_heads=4, n_layers=6, memory_tokens=4, gnn_layers=(3, 4, 5), max_seq_len=128), seed=0
)
faults = []
inner = GofaModel.forward_batch

def forward_batch(m, samples, use_gnn=True):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return inner(m, samples, use_gnn=use_gnn)

GofaModel.forward_batch = forward_batch
tcfg = TrainConfig(batch_size=8, max_steps=14, freeze=("compressor.", "memory_tokens"), gate_lr_mult=25.0)
before = resident_mib()
train(model, gen_completion_corpus(CorpusConfig(n_graphs=40, rng_seed=0)), tcfg)
after = resident_mib()
print(json.dumps({"faults": faults, "mib": [before, after, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]}))
"""


@pytest.mark.skipif(not ON_GLIBC, reason="the thresholds are set on glibc only")
class TestFreedPages:
    """``train`` runs its steps with glibc's malloc thresholds fixed, so a
    step reuses the pages that the step before it freed instead of faulting
    them in again, and hands the free heap back when it returns."""

    @pytest.fixture(scope="class")
    def steady_steps(self):
        # a fresh interpreter: once any train() call has run, this process
        # keeps the thresholds
        src = str(Path(training.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", STEADY_STEPS], env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    def test_steady_steps_fault_in_no_pages(self, steady_steps):
        # at glibc's default thresholds, which move with every large block
        # freed, each of these steps faults in about 5,000 pages
        per_step = np.diff(steady_steps["faults"])[6:]
        assert len(per_step) == 7
        assert np.median(per_step) < 1000, per_step

    def test_free_heap_goes_back_on_return(self, steady_steps):
        # kept through the steps, the training peak would still be resident
        before, after, peak = steady_steps["mib"]
        assert after < before + (peak - before) / 2, steady_steps["mib"]

    def test_blocks_in_turn_and_nested_are_harmless(self):
        with training._freed_pages_kept() as kept:
            assert kept
            with training._freed_pages_kept() as again:
                assert again
        with training._freed_pages_kept() as kept:
            assert kept


def test_nothing_is_set_off_glibc(monkeypatch):
    def no_library(*args, **kwargs):
        raise AssertionError("the C library reached off glibc")

    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2.4"))
    monkeypatch.setattr(training.ctypes, "CDLL", no_library)
    with training._freed_pages_kept() as kept:
        assert kept is False
