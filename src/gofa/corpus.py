"""Synthetic corpus generators.

Three families back the directional training checks:

- completion graphs: every node's text ends in keywords copied from its
  marker-designated neighbors, so the cut half of a sentence is a
  deterministic function of graph context and graph-aware models can beat
  text-only models by a wide perplexity margin;
- structural graphs: small random connected graphs with terse node texts
  for shortest-path-distance and common-neighbor tasks;
- lookup graphs: a hub whose neighbors hold key/value facts and a question
  naming one key, so the answer depends jointly on the prompt text and the
  graph (the prompt-edge ablation task).

Synthetic conversations feed the QA-chain builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tag import TAG, TaskSample
from .taskgen import (
    Conversation,
    make_completion_tasks,
    make_downstream_task,
    make_qa_chain_graphs,
    make_structural_tasks,
)

KEYWORDS = [
    "amber", "birch", "cobalt", "dune", "ember", "fjord", "garnet", "harbor",
    "iris", "juniper", "kelp", "lagoon", "maple", "nectar", "onyx", "prism",
    "quartz", "raven", "sable", "tundra", "umber", "velvet", "willow",
    "xenon", "yarrow", "zephyr",
]

LOOKUP_KEYS = [
    "alpha", "bravo", "carbon", "delta", "ember", "falcon", "gamma", "harbor",
    "ion", "jade", "krypton", "lumen", "meridian", "nova", "orbit", "pulse",
]
LOOKUP_VALUES = ["red", "blue", "green", "amber", "violet", "teal"]


@dataclass
class CorpusConfig:
    n_graphs: int = 200
    nodes_low: int = 8
    nodes_high: int = 12
    extra_edge_factor: float = 0.5
    n_selected: int = 3
    split_fraction: float = 0.5
    question_style: str = "compact"
    n_markers: int = 2
    lookup_facts: int = 6
    conversation_rounds: tuple[int, int] = (2, 4)
    rng_seed: int = 0

    def __post_init__(self):
        self.conversation_rounds = tuple(self.conversation_rounds)
        rounds = self.conversation_rounds
        integers = all(isinstance(r, int) and not isinstance(r, bool) for r in rounds)
        if not (len(rounds) == 2 and integers and 1 <= rounds[0] <= rounds[1]):
            raise ValueError(f"conversation_rounds must be two integers low, high with 1 <= low <= high, got {list(rounds)}")
        if self.n_graphs < 1:
            raise ValueError("n_graphs must be >= 1")
        for name in ("n_markers", "extra_edge_factor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.nodes_low < 2:
            raise ValueError("nodes_low must be >= 2")
        if self.nodes_high < self.nodes_low:
            raise ValueError(f"nodes_high {self.nodes_high} is below nodes_low {self.nodes_low}")
        if not 1 <= self.lookup_facts <= len(LOOKUP_KEYS):
            raise ValueError(f"lookup_facts must lie in [1, {len(LOOKUP_KEYS)}], one fact per lookup key")
        if self.n_selected < 1:
            raise ValueError("n_selected must be >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")
        if self.question_style not in ("full", "compact"):
            raise ValueError(f"unknown question_style {self.question_style!r}")


def random_connected_graph(rng, n_nodes: int, extra_edges: int, min_degree: int = 1) -> list[tuple[int, int]]:
    """Undirected edge list: random spanning tree plus extras, optionally
    topped up so every node reaches ``min_degree``."""
    edges: set[tuple[int, int]] = set()
    for v in range(1, n_nodes):
        u = int(rng.integers(0, v))
        edges.add((min(u, v), max(u, v)))
    for _ in range(extra_edges):
        u, v = rng.choice(n_nodes, size=2, replace=False)
        edges.add((min(u, v), max(u, v)))
    degree = [0] * n_nodes
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for v in range(n_nodes):
        attempts = 0
        while degree[v] < min_degree and attempts < 10 * n_nodes:
            u = int(rng.integers(0, n_nodes))
            key = (min(u, v), max(u, v))
            if u != v and key not in edges:
                edges.add(key)
                degree[u] += 1
                degree[v] += 1
            attempts += 1
    return sorted(edges)


# -- completion corpus ---------------------------------------------------------


def gen_completion_graph(rng, cfg: CorpusConfig) -> TAG:
    """Citation-like graph whose sentence tails name marker neighbors.

    Each node designates marker neighbors; the incoming arcs from markers
    are labeled and the node's sentence tail lists the markers' keywords in
    sorted order. Graph context therefore pins the tail exactly, while the
    visible half reveals nothing about it.
    """
    n = int(rng.integers(cfg.nodes_low, cfg.nodes_high + 1))
    pairs = random_connected_graph(rng, n, int(n * cfg.extra_edge_factor), min_degree=max(cfg.n_markers, 1))
    neighbors: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in pairs:
        neighbors[u].append(v)
        neighbors[v].append(u)

    kw = [KEYWORDS[int(rng.integers(0, len(KEYWORDS)))] for _ in range(n)]
    markers: dict[int, list[int]] = {}
    for v in range(n):
        pool = list(neighbors[v])
        rng.shuffle(pool)
        markers[v] = pool[: cfg.n_markers]

    graph = TAG()
    for v in range(n):
        tail = " ".join(sorted(kw[m] for m in markers[v]))
        graph.add_node(text=f"entry {kw[v]} notes {tail}")
    marker_arcs = {(m, v) for v in range(n) for m in markers[v]}
    for u, v in pairs:
        graph.add_edge(u, v, "marker link" if (u, v) in marker_arcs else "link")
        graph.add_edge(v, u, "marker link" if (v, u) in marker_arcs else "link")
    return graph


def gen_completion_corpus(cfg: CorpusConfig) -> list[TaskSample]:
    rng = np.random.default_rng((cfg.rng_seed, 10))
    samples = []
    for i in range(cfg.n_graphs):
        graph = gen_completion_graph(rng, cfg)
        samples.append(make_completion_tasks(graph, cfg.n_selected, cfg.split_fraction, cfg.rng_seed * 1_000_003 + i))
    return samples


# -- structural corpus ---------------------------------------------------------


def gen_structural_graph(rng, cfg: CorpusConfig) -> TAG:
    n = int(rng.integers(cfg.nodes_low, cfg.nodes_high + 1))
    pairs = random_connected_graph(rng, n, int(n * cfg.extra_edge_factor))
    graph = TAG()
    for v in range(n):
        word = KEYWORDS[int(rng.integers(0, len(KEYWORDS)))]
        graph.add_node(text=f"{word} study")
    for u, v in pairs:
        graph.add_undirected_edge(u, v, "")
    return graph


def gen_structural_corpus(cfg: CorpusConfig) -> tuple[list[TaskSample], list[TaskSample]]:
    """Paired SPD and CN sample lists, one of each per generated graph."""
    rng = np.random.default_rng((cfg.rng_seed, 11))
    spd, cn = [], []
    for i in range(cfg.n_graphs):
        graph = gen_structural_graph(rng, cfg)
        s, c = make_structural_tasks(graph, cfg.n_selected, cfg.question_style, cfg.rng_seed * 1_000_003 + i)
        spd.append(s)
        cn.append(c)
    return spd, cn


# -- QA-chain corpus ---------------------------------------------------------


def gen_conversations(cfg: CorpusConfig) -> list[Conversation]:
    rng = np.random.default_rng((cfg.rng_seed, 12))
    lo, hi = cfg.conversation_rounds
    convs = []
    for _ in range(cfg.n_graphs):
        k = int(rng.integers(lo, hi + 1))
        rounds = []
        for _ in range(k):
            a, b = rng.choice(len(KEYWORDS), size=2, replace=False)
            rounds.append(
                (f"What pairs with {KEYWORDS[a]}?", f"It pairs with {KEYWORDS[b]}.")
            )
        convs.append(Conversation(rounds=rounds))
    return convs


def gen_qa_corpus(cfg: CorpusConfig) -> list[TaskSample]:
    samples = []
    for conv in gen_conversations(cfg):
        samples.extend(make_qa_chain_graphs(conv))
    return samples


# -- prompt-dependent lookup corpus ---------------------------------------------


def gen_lookup_corpus(cfg: CorpusConfig, edge_mode: str) -> list[TaskSample]:
    """Hub-and-facts graphs where the question names the fact to retrieve.

    The prompt connects only to the hub; the queried value sits one hop
    behind it, so with single-edge wiring the hub's message cannot depend
    on which key the question asks for.
    """
    rng = np.random.default_rng((cfg.rng_seed, 13))
    samples = []
    for _ in range(cfg.n_graphs):
        keys = rng.choice(len(LOOKUP_KEYS), size=cfg.lookup_facts, replace=False)
        values = rng.integers(0, len(LOOKUP_VALUES), size=cfg.lookup_facts)
        graph = TAG()
        hub = graph.add_node(text="registry hub")
        for key_i, val_i in zip(keys, values):
            fact = graph.add_node(text=f"{LOOKUP_KEYS[key_i]} maps to {LOOKUP_VALUES[val_i]}")
            graph.add_undirected_edge(fact, hub, "")
        pick = int(rng.integers(0, cfg.lookup_facts))
        question = f"What does {LOOKUP_KEYS[keys[pick]]} map to?"
        answer = LOOKUP_VALUES[values[pick]]
        samples.append(make_downstream_task(graph, [hub], question, answer, edge_mode=edge_mode))
    return samples


def split_corpus(samples: list, test_fraction: float, seed: int) -> tuple[list, list]:
    """Deterministic train/test split over whole samples."""
    order = np.random.default_rng((seed, 99)).permutation(len(samples))
    n_test = max(1, int(len(samples) * test_fraction)) if samples else 0
    test_idx = set(order[:n_test].tolist())
    train = [s for i, s in enumerate(samples) if i not in test_idx]
    test = [s for i, s in enumerate(samples) if i in test_idx]
    return train, test
