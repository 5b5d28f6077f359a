import numpy as np
import pytest

from gofa.structure import all_shortest_paths, common_neighbors
from gofa.tag import TAG, GraphError
from gofa.taskgen import (
    CN_EMPTY_ANSWER,
    COMPLETION_QUESTION,
    Conversation,
    SPD_UNREACHABLE_ANSWER,
    make_completion_tasks,
    make_downstream_task,
    make_qa_chain_graphs,
    make_structural_tasks,
    read_samples,
    render_cn_answer,
    render_spd_answer,
    sample_from_obj,
    sample_to_obj,
    split_text,
    write_samples,
)

from conftest import NODE_TAG_RE, random_tag, tags_equal


def rooted_graph(n=10, seed=0):
    rng = np.random.default_rng(seed)
    g = TAG()
    for i in range(n):
        g.add_node(f"paper number {i} studies topic {i}")
    for v in range(1, n):
        u = int(rng.integers(0, v))
        g.add_undirected_edge(u, v)
    return g


class TestSplitText:
    def test_four_tokens_half(self):
        assert split_text("a b c d", 0.5) == ("a b", "c d")

    def test_first_half_rounds_up(self):
        assert split_text("a b c d e", 0.5) == ("a b c", "d e")

    def test_too_short(self):
        assert split_text("single", 0.5) is None
        assert split_text("", 0.5) is None

    def test_extreme_fractions_keep_both_halves(self):
        assert split_text("a b", 0.99) == ("a", "b")
        assert split_text("a b c", 0.01) == ("a", "b c")


class TestCompletionTasks:
    def test_target_count_root_plus_selected(self):
        sample = make_completion_tasks(rooted_graph(10), 3, 0)
        assert sample.task_kind == "completion"
        assert len(sample.targets) == 4

    def test_deterministic_under_seed(self):
        a = make_completion_tasks(rooted_graph(10), 3, 5)
        b = make_completion_tasks(rooted_graph(10), 3, 5)
        assert tags_equal(a.graph, b.graph)
        assert [t.target_text for t in a.targets] == [t.target_text for t in b.targets]

    def test_truncated_text_keeps_tag_and_target_excludes_it(self):
        sample = make_completion_tasks(rooted_graph(6), 2, 1)
        for t in sample.targets:
            prompt_node = sample.graph.nodes[t.nog]
            assert prompt_node.kind == "prompt"
            sources = [e.src for e in sample.graph.edges if e.dst == t.nog]
            assert len(sources) == 1
            subject = sample.graph.nodes[sources[0]]
            assert subject.node_id_tag is not None
            assert subject.text.endswith(subject.node_id_tag)
            assert subject.node_id_tag not in t.target_text
            # kept half + cut half reassemble the original token stream
            kept = subject.text[: -len(subject.node_id_tag)].strip()
            assert f"{kept} {t.target_text}".startswith("paper number")

    def test_prompt_template(self):
        sample = make_completion_tasks(rooted_graph(5), 1, 2)
        t = sample.targets[0]
        sources = [e.src for e in sample.graph.edges if e.dst == t.nog]
        tag = sample.graph.nodes[sources[0]].node_id_tag
        assert sample.graph.nodes[t.nog].text == COMPLETION_QUESTION.format(tag=tag)
        assert sample.graph.nodes[t.nog].text == f"Complete the sentence of the node{tag}."

    def test_single_directed_arc_per_prompt(self):
        sample = make_completion_tasks(rooted_graph(8), 3, 3)
        for t in sample.targets:
            incoming = [e for e in sample.graph.edges if e.dst == t.nog]
            outgoing = [e for e in sample.graph.edges if e.src == t.nog]
            assert len(incoming) == 1 and len(outgoing) == 0

    def test_short_node_skipped_with_replacement(self):
        g = TAG()
        g.add_node("root node with plenty of words")
        g.add_node("short")  # unsplittable, must be skipped
        g.add_node("another node with many words")
        g.add_undirected_edge(0, 1)
        g.add_undirected_edge(0, 2)
        sample = make_completion_tasks(g, 1, 0)
        selected = {e.src for t in sample.targets for e in sample.graph.edges if e.dst == t.nog}
        assert 1 not in selected
        assert len(sample.targets) == 2

    def test_all_nodes_too_short_errors(self):
        g = TAG()
        g.add_node("one")
        g.add_node("two")
        g.add_undirected_edge(0, 1)
        with pytest.raises(GraphError):
            make_completion_tasks(g, 1, 0)


class TestStructuralTasks:
    def test_two_questions_per_selected_node(self):
        spd, cn = make_structural_tasks(rooted_graph(10), 3, "full", 0)
        assert spd.task_kind == "spd" and cn.task_kind == "cn"
        assert len(spd.targets) == 3 and len(cn.targets) == 3

    def test_prompt_connected_from_both_endpoints(self):
        spd, _ = make_structural_tasks(rooted_graph(8), 2, "full", 1)
        for t in spd.targets:
            sources = {e.src for e in spd.graph.edges if e.dst == t.nog}
            assert len(sources) == 2 and 0 in sources

    def test_adjacent_node_distance_one(self):
        g = TAG()
        g.add_node("root paper text")
        g.add_node("neighbor text here")
        g.add_undirected_edge(0, 1)
        spd, _ = make_structural_tasks(g, 1, "full", 0)
        assert spd.targets[0].target_text.startswith("The shortest path distance is 1. ")

    def test_unreachable_negative_template(self):
        g = TAG()
        g.add_node("root text")
        g.add_node("island text")
        spd, cn = make_structural_tasks(g, 1, "full", 0)
        assert spd.targets[0].target_text == SPD_UNREACHABLE_ANSWER
        assert cn.targets[0].target_text == CN_EMPTY_ANSWER

    def test_answers_reparse_to_oracle(self, rng):
        for trial in range(10):
            g = random_tag(rng, 12, edge_prob=0.25)
            spd, cn = make_structural_tasks(g, 3, "full", trial)
            from gofa.evaluation import _prompt_endpoints, score_structural

            for t in spd.targets:
                a, b = _prompt_endpoints(spd.graph, t.nog)
                oracle = all_shortest_paths(spd.graph, a, b)
                score = score_structural(t.target_text, oracle, spd.graph)
                assert score["path_set_exact"] is True
                assert score["distance_error"] == 0.0
            for t in cn.targets:
                a, b = _prompt_endpoints(cn.graph, t.nog)
                oracle = common_neighbors(cn.graph, a, b)
                score = score_structural(t.target_text, oracle, cn.graph)
                assert score["cn_set_exact"] is True
                assert score["cn_count_error"] == 0


class TestRenderTemplates:
    def test_paper_spd_example_string(self):
        # Chain L - G - B with hand-pinned tags renders the documented answer.
        g = TAG()
        for label in ("L", "G", "B"):
            g.add_node(f"paper {label}")
            g.nodes[-1].node_id_tag = f"[NODEID.{label}]"
        g.add_undirected_edge(0, 1)
        g.add_undirected_edge(1, 2)
        ps = all_shortest_paths(g, 0, 2)
        assert (
            render_spd_answer(g, ps)
            == "The shortest path distance is 2. Shortest paths: [NODEID.L] -> [NODEID.G] -> [NODEID.B]."
        )

    def test_paper_cn_example_string(self):
        g = TAG()
        for label in ("L", "G", "B"):
            g.add_node(f"paper {label}")
            g.nodes[-1].node_id_tag = f"[NODEID.{label}]"
        g.add_undirected_edge(0, 1)
        g.add_undirected_edge(1, 2)
        shared = common_neighbors(g, 0, 2)
        assert render_cn_answer(g, shared) == "There is 1 common neighbor between two nodes, including [NODEID.G]."

    def test_plural_cn_rendering(self):
        g = TAG()
        for label in ("A", "B", "C", "D"):
            g.add_node(f"n {label}")
            g.nodes[-1].node_id_tag = f"[NODEID.{label}]"
        for shared in (2, 3):
            g.add_undirected_edge(0, shared)
            g.add_undirected_edge(1, shared)
        out = render_cn_answer(g, common_neighbors(g, 0, 1))
        assert out == "There are 2 common neighbors between two nodes, including [NODEID.C]; [NODEID.D]."

    def test_multiple_paths_separated_by_semicolon(self):
        g = TAG()
        for label in ("S", "A", "B", "T"):
            g.add_node(f"n {label}")
            g.nodes[-1].node_id_tag = f"[NODEID.{label}]"
        for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            g.add_undirected_edge(u, v)
        out = render_spd_answer(g, all_shortest_paths(g, 0, 3))
        assert out == (
            "The shortest path distance is 2. Shortest paths: "
            "[NODEID.S] -> [NODEID.A] -> [NODEID.T]; [NODEID.S] -> [NODEID.B] -> [NODEID.T]."
        )


class TestQaChains:
    def _conv(self, k):
        return Conversation(rounds=[(f"question {i}?", f"answer {i}.") for i in range(k)])

    def test_single_round_yields_nothing(self):
        assert make_qa_chain_graphs(self._conv(1)) == []

    def test_three_rounds_yield_two_graphs(self):
        samples = make_qa_chain_graphs(self._conv(3))
        assert len(samples) == 2
        assert [s.graph.n_nodes() for s in samples] == [3, 5]  # 2i chain nodes + prompt
        assert [len(s.graph.content_nodes()) for s in samples] == [2, 4]

    def test_forward_only_arcs(self):
        for s in make_qa_chain_graphs(self._conv(4)):
            prompt = s.targets[0].nog
            for e in s.graph.edges:
                if e.dst != prompt:
                    assert e.src < e.dst

    def test_prompt_connected_from_all_chain_nodes(self):
        samples = make_qa_chain_graphs(self._conv(3))
        for s in samples:
            prompt = s.targets[0].nog
            sources = {e.src for e in s.graph.edges if e.dst == prompt}
            assert sources == set(s.graph.content_nodes())
            assert s.graph.nodes[prompt].kind == "prompt"

    def test_prompt_text_and_target(self):
        samples = make_qa_chain_graphs(self._conv(3))
        s = samples[0]
        assert s.graph.nodes[s.targets[0].nog].text == "question 1?"
        assert s.targets[0].target_text == "answer 1."

    def test_alternating_chain_texts(self):
        s = make_qa_chain_graphs(self._conv(3))[1]
        texts = [s.graph.nodes[i].text for i in s.graph.content_nodes()]
        assert texts == ["question 0?", "answer 0.", "question 1?", "answer 1."]


class TestDownstream:
    def test_node_classification_single(self):
        g = rooted_graph(5)
        s = make_downstream_task(g, [0], "What category?", "biology", "single")
        assert s.task_kind == "downstream"
        assert len(s.targets) == 1
        assert s.graph.nodes[s.targets[0].nog].text == "What category?"

    def test_link_task_two_targets(self):
        g = rooted_graph(5)
        s = make_downstream_task(g, [0, 3], "Co-cited?", "yes", "single")
        sources = {e.src for e in s.graph.edges if e.dst == s.targets[0].nog}
        assert sources == {0, 3}

    def test_double_edge_mode(self):
        g = rooted_graph(5)
        s = make_downstream_task(g, [1], "q?", "a", "double")
        p = s.targets[0].nog
        assert any(e.src == p and e.dst == 1 for e in s.graph.edges)

    def test_invalid_target_propagates(self):
        with pytest.raises(GraphError):
            make_downstream_task(rooted_graph(3), [99], "q", "a")


class TestSampleSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        samples = [
            make_completion_tasks(rooted_graph(8, seed=s), 2, s)
            for s in range(3)
        ]
        path = tmp_path / "corpus.jsonl"
        write_samples(path, samples)
        loaded = read_samples(path)
        assert len(loaded) == 3
        for a, b in zip(samples, loaded):
            assert tags_equal(a.graph, b.graph)
            assert [(t.nog, t.target_text) for t in a.targets] == [(t.nog, t.target_text) for t in b.targets]
            assert a.task_kind == b.task_kind

    def test_obj_contains_prompt_text(self):
        s = make_completion_tasks(rooted_graph(6), 1, 0)
        obj = sample_to_obj(s)
        assert obj["kind"] == "completion"
        for t in obj["targets"]:
            assert t["prompt"].startswith("Complete the sentence")
        assert tags_equal(sample_from_obj(obj).graph, s.graph)
