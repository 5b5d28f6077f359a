import numpy as np
import pytest

from gofa.corpus import (
    CorpusConfig,
    KEYWORDS,
    LOOKUP_VALUES,
    gen_completion_corpus,
    gen_conversations,
    gen_lookup_corpus,
    gen_qa_corpus,
    gen_structural_corpus,
    random_connected_graph,
    split_corpus,
)
from gofa.evaluation import _prompt_endpoints
from gofa.structure import all_shortest_paths, common_neighbors
from gofa.taskgen import render_cn_answer, render_spd_answer

from conftest import brute_force_distance, tags_equal


class TestRandomGraph:
    def test_connected(self, rng):
        for trial in range(10):
            n = int(rng.integers(4, 15))
            edges = random_connected_graph(np.random.default_rng(trial), n, 2)
            from gofa.tag import TAG

            g = TAG()
            for i in range(n):
                g.add_node(f"n{i}")
            for u, v in edges:
                g.add_undirected_edge(u, v)
            assert len(brute_force_distance(g, 0)) == n

    def test_min_degree(self):
        edges = random_connected_graph(np.random.default_rng(0), 10, 0, min_degree=2)
        deg = [0] * 10
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        assert min(deg) >= 2


class TestCompletionCorpus:
    def test_tail_is_function_of_marker_neighbors(self):
        cfg = CorpusConfig(n_graphs=5, rng_seed=3, n_markers=2)
        for sample in gen_completion_corpus(cfg):
            for t in sample.targets:
                subject = [e.src for e in sample.graph.edges if e.dst == t.nog][0]
                # tail keywords match the sorted keywords of marker-arc sources
                kws = [
                    sample.graph.nodes[e.src].text.split()[1]
                    for e in sample.graph.edges
                    if e.dst == subject and e.text == "marker link"
                ]
                assert t.target_text == " ".join(sorted(kws))

    def test_determinism(self):
        cfg = CorpusConfig(n_graphs=3, rng_seed=8)
        a = gen_completion_corpus(cfg)
        b = gen_completion_corpus(cfg)
        for sa, sb in zip(a, b):
            assert tags_equal(sa.graph, sb.graph)
            assert [t.target_text for t in sa.targets] == [t.target_text for t in sb.targets]

    def test_target_count(self):
        cfg = CorpusConfig(n_graphs=4, n_selected=3, rng_seed=0)
        for s in gen_completion_corpus(cfg):
            assert len(s.targets) == 4  # root + 3


class TestStructuralCorpus:
    def test_labels_verified_against_oracle(self):
        cfg = CorpusConfig(n_graphs=10, rng_seed=1, question_style="compact")
        spd, cn = gen_structural_corpus(cfg)
        assert len(spd) == len(cn) == 10
        for sample in spd:
            for t in sample.targets:
                a, b = _prompt_endpoints(sample.graph, t.nog)
                assert t.target_text == render_spd_answer(sample.graph, all_shortest_paths(sample.graph, a, b))
        for sample in cn:
            for t in sample.targets:
                a, b = _prompt_endpoints(sample.graph, t.nog)
                assert t.target_text == render_cn_answer(sample.graph, common_neighbors(sample.graph, a, b))

    def test_distance_label_distribution_learnable(self):
        # most SPD labels should sit in the 1..3 band the model can see
        cfg = CorpusConfig(n_graphs=120, rng_seed=5, question_style="compact")
        spd, _ = gen_structural_corpus(cfg)
        distances = []
        for sample in spd:
            for t in sample.targets:
                a, b = _prompt_endpoints(sample.graph, t.nog)
                ps = all_shortest_paths(sample.graph, a, b)
                if ps.reachable():
                    distances.append(ps.distance)
        distances = np.asarray(distances)
        assert (distances <= 3).mean() > 0.9
        assert distances.std() > 0.4  # not degenerate either


class TestQaCorpus:
    def test_round_counts(self):
        cfg = CorpusConfig(n_graphs=20, rng_seed=2)
        convs = gen_conversations(cfg)
        assert all(2 <= len(c.rounds) <= 4 for c in convs)
        samples = gen_qa_corpus(cfg)
        assert len(samples) == sum(len(c.rounds) - 1 for c in convs)


class TestLookupCorpus:
    def test_answer_depends_on_question(self):
        cfg = CorpusConfig(n_graphs=30, lookup_facts=6, rng_seed=4)
        for s in gen_lookup_corpus(cfg, "single"):
            question = s.graph.nodes[s.targets[0].nog].text
            key = question.split("What does ")[1].split(" map to?")[0]
            facts = {
                n.text.split(" maps to ")[0]: n.text.split(" maps to ")[1]
                for n in s.graph.nodes
                if " maps to " in n.text
            }
            assert facts[key] == s.targets[0].target_text
            assert s.targets[0].target_text in LOOKUP_VALUES

    def test_single_and_double_share_content(self):
        cfg = CorpusConfig(n_graphs=5, rng_seed=6)
        singles = gen_lookup_corpus(cfg, "single")
        doubles = gen_lookup_corpus(cfg, "double")
        for s, d in zip(singles, doubles):
            assert s.graph.nodes[s.targets[0].nog].text == d.graph.nodes[d.targets[0].nog].text
            assert s.targets[0].target_text == d.targets[0].target_text
            prompt = s.targets[0].nog
            assert not any(e.src == prompt for e in s.graph.edges)
            assert any(e.src == d.targets[0].nog for e in d.graph.edges)

    def test_prompt_reads_only_hub(self):
        cfg = CorpusConfig(n_graphs=3, rng_seed=7)
        for s in gen_lookup_corpus(cfg, "single"):
            prompt = s.targets[0].nog
            sources = {e.src for e in s.graph.edges if e.dst == prompt}
            assert len(sources) == 1


class TestSplit:
    def test_disjoint_and_deterministic(self):
        cfg = CorpusConfig(n_graphs=10, rng_seed=0)
        samples = gen_qa_corpus(cfg)
        tr1, te1 = split_corpus(samples, 0.25, seed=3)
        tr2, te2 = split_corpus(samples, 0.25, seed=3)
        assert len(tr1) + len(te1) == len(samples)
        assert [id(s) for s in tr1] == [id(s) for s in tr2]
        assert te1 and tr1
