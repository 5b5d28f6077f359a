"""Criterion-6 calibration, variant with autoencoder-pretrained compressor."""
import sys
import time

import numpy as np

from gofa.compressor import ModelConfig
from gofa.corpus import CorpusConfig, gen_completion_corpus, split_corpus
from gofa.evaluation import perplexity
from gofa.model import GofaModel
from gofa.taskgen import make_autoencode_task
from gofa.training import TrainConfig, train

ae_steps = int(sys.argv[1]) if len(sys.argv) > 1 else 400
steps = int(sys.argv[2]) if len(sys.argv) > 2 else 600
lr = float(sys.argv[3]) if len(sys.argv) > 3 else 2e-3
mult = float(sys.argv[4]) if len(sys.argv) > 4 else 50.0
layers = int(sys.argv[5]) if len(sys.argv) > 5 else 4

t0 = time.time()
ccfg = CorpusConfig(n_graphs=400, nodes_low=7, nodes_high=10, n_selected=3, n_markers=2, rng_seed=0)
samples = gen_completion_corpus(ccfg)
train_set, test_set = split_corpus(samples, 0.15, seed=1)

texts = sorted({n.text for s in train_set for n in s.graph.nodes})
print(f"corpus: {len(train_set)} train, {len(test_set)} test; {len(texts)} unique texts", flush=True)

gnn_layers = tuple(range(layers - 2, layers))
mcfg = ModelConfig(d_model=32, n_heads=4, n_layers=layers, memory_tokens=4,
                   gnn_layers=gnn_layers, max_seq_len=64)

base = GofaModel(mcfg, seed=7)
ae_cfg = TrainConfig(lr=2e-3, weight_decay=0.0, grad_clip=1.0, batch_size=16,
                     max_steps=ae_steps, seed=9, freeze=("gnn.",))
ae_report = train(base, [make_autoencode_task(t) for t in texts], ae_cfg)
print(f"AE pretrain: loss {ae_report.losses[0]:.3f} -> {ae_report.final_loss:.3f} "
      f"({time.time()-t0:.0f}s)", flush=True)
snapshot = {k: v.data.copy() for k, v in base.parameters().items()}

results = {}
for name, use_gnn, freeze in [
    ("gofa", True, ("compressor.", "memory_tokens")),
    ("text", False, ("compressor.", "memory_tokens", "gnn.")),
]:
    t1 = time.time()
    model = GofaModel(mcfg, seed=7)
    for k, v in snapshot.items():
        model.parameters()[k].data = v.copy()
    tcfg = TrainConfig(lr=lr, weight_decay=0.0, grad_clip=1.0, batch_size=8,
                       max_steps=steps, seed=3, freeze=freeze, log_every=max(50, steps // 10),
                       gate_lr_mult=mult)
    report = train(model, train_set, tcfg, use_gnn=use_gnn)
    ppl = perplexity(model, test_set, use_gnn=use_gnn)
    results[name] = ppl
    curve = [round(r["loss"], 3) for r in report.log_rows]
    gates = {t: round(float(np.tanh(model.gnn_params[t]["gate_gnn"].data)), 3) for t in mcfg.gnn_layers}
    print(f"{name}: test ppl {ppl:.4f}, {time.time()-t1:.0f}s, gates {gates}, curve {curve}", flush=True)

gap = 1 - results["gofa"] / results["text"]
print(f"\ntext {results['text']:.4f} gofa {results['gofa']:.4f} gap {gap:.1%} (need >= 20%) total {time.time()-t0:.0f}s")
