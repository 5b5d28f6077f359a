import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofa.tag import (
    TAG,
    GraphError,
    GraphParseError,
    assign_node_id_tags,
    attach_prompt_node,
    node_id_labels,
    tag_from_records,
    tag_to_records,
)

from conftest import NODE_TAG_RE, random_tag, tags_equal


def two_node_graph():
    g = TAG()
    g.add_node("first")
    g.add_node("second")
    return g


class TestAttachPromptNode:
    def test_single_mode_minimal(self):
        g = two_node_graph()
        p = attach_prompt_node(g, [0], "q?", "single")
        assert p == 2
        assert [(e.src, e.dst) for e in g.edges] == [(0, 2)]
        assert g.nodes[p].kind == "prompt"
        assert g.nodes[p].text == "q?"

    def test_double_mode_two_targets(self):
        g = two_node_graph()
        g.add_node("third")
        p = attach_prompt_node(g, [0, 1], "q?", "double")
        assert p == 3
        arcs = {(e.src, e.dst) for e in g.edges}
        assert arcs == {(0, 3), (1, 3), (3, 0), (3, 1)}

    def test_graph_level_connects_all_nodes(self):
        g = TAG()
        for i in range(4):
            g.add_node(f"content {i}")
        p = attach_prompt_node(g, list(range(4)), "graph question", "single")
        assert {e.src for e in g.edges if e.dst == p} == {0, 1, 2, 3}

    def test_invalid_index_names_index(self):
        g = two_node_graph()
        with pytest.raises(GraphError, match="7"):
            attach_prompt_node(g, [7], "q?", "single")

    def test_empty_targets_rejected(self):
        with pytest.raises(GraphError):
            attach_prompt_node(two_node_graph(), [], "q?", "single")

    def test_never_links_two_prompt_nodes(self):
        g = two_node_graph()
        p1 = attach_prompt_node(g, [0], "q1", "single")
        with pytest.raises(GraphError):
            attach_prompt_node(g, [p1], "q2", "single")
        p2 = attach_prompt_node(g, [1], "q2", "single")
        prompts = {p1, p2}
        for e in g.edges:
            assert not (e.src in prompts and e.dst in prompts)

    def test_prompt_arcs_carry_empty_text(self):
        g = two_node_graph()
        p = attach_prompt_node(g, [0], "q?", "double")
        assert all(e.text == "" for e in g.edges if p in (e.src, e.dst))


class TestNodeIdTags:
    def test_deterministic_and_unique(self):
        g = TAG()
        for i in range(3):
            g.add_node(f"text {i}")
        a = assign_node_id_tags(g, rng_seed=7)
        b = assign_node_id_tags(g, rng_seed=7)
        tags_a = [n.node_id_tag for n in a.nodes]
        assert tags_a == [n.node_id_tag for n in b.nodes]
        assert len(set(tags_a)) == 3

    def test_tag_format_matches_answer_templates(self):
        g = TAG()
        g.add_node("some text")
        tagged = assign_node_id_tags(g, rng_seed=0)
        tag = tagged.nodes[0].node_id_tag
        assert NODE_TAG_RE.fullmatch(tag)
        assert tagged.nodes[0].text == f"some text {tag}"

    def test_requires_content_node(self):
        g = TAG()
        with pytest.raises(GraphError):
            assign_node_id_tags(g, rng_seed=0)

    def test_prompt_nodes_not_tagged(self):
        g = two_node_graph()
        attach_prompt_node(g, [0], "q?", "single")
        tagged = assign_node_id_tags(g, rng_seed=1)
        assert tagged.nodes[2].node_id_tag is None
        assert tagged.nodes[2].text == "q?"

    def test_injective_on_large_graph(self):
        g = TAG()
        for i in range(60):
            g.add_node(f"n{i}")
        tagged = assign_node_id_tags(g, rng_seed=3)
        tags = [n.node_id_tag for n in tagged.nodes]
        assert len(set(tags)) == 60

    def test_label_sequence(self):
        assert node_id_labels(28)[:2] == ["A", "B"]
        assert node_id_labels(28)[25:28] == ["Z", "AA", "AB"]


def round_trip(g):
    """Records through JSON text and back, as a corpus line carries them."""
    return tag_from_records(json.loads(json.dumps(tag_to_records(g), ensure_ascii=False)))


class TestSerialization:
    def test_empty_graph_round_trip(self):
        g = TAG()
        assert len(tag_to_records(g)) == 1  # header only
        assert tags_equal(round_trip(g), g)

    def test_small_graph_round_trip_bit_exact(self):
        g = two_node_graph()
        g.add_edge(0, 1, "cites")
        once = tag_to_records(g)
        again = tag_to_records(round_trip(g))
        assert json.dumps(once) == json.dumps(again)

    def test_large_random_graph_round_trip(self, rng):
        g = random_tag(rng, 1000, edge_prob=0.004)
        parsed = round_trip(g)
        assert tags_equal(parsed, g)
        assert [n.text for n in parsed.nodes] == [n.text for n in g.nodes]

    def test_header_of_older_files_with_directed_key_loads(self):
        g = two_node_graph()
        g.add_edge(0, 1, "cites")
        records = tag_to_records(g)
        records[0]["directed"] = True
        assert tags_equal(tag_from_records(records), g)

    def test_missing_header_rejected(self):
        with pytest.raises(GraphParseError):
            tag_from_records([{"n": {"id": 0, "text": "x"}}])

    def test_malformed_record_carries_record_number(self):
        records = tag_to_records(two_node_graph())
        del records[2]["n"]["text"]
        with pytest.raises(GraphParseError, match="line 3"):
            tag_from_records(records)

    def test_empty_text_survives(self):
        g = TAG()
        g.add_node("")
        parsed = round_trip(g)
        assert parsed.nodes[0].text == ""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(max_size=30), min_size=0, max_size=12), st.data())
    def test_round_trip_property(self, texts, data):
        g = TAG()
        for t in texts:
            g.add_node(t)
        if len(texts) >= 2:
            n_edges = data.draw(st.integers(0, min(8, len(texts) * 2)))
            for i in range(n_edges):
                u = data.draw(st.integers(0, len(texts) - 1))
                v = data.draw(st.integers(0, len(texts) - 1))
                try:
                    g.add_edge(u, v, f"e{i}")
                except GraphError:
                    pass
        assert tags_equal(round_trip(g), g)


class TestInvariants:
    def test_duplicate_arc_rejected(self):
        g = two_node_graph()
        g.add_edge(0, 1, "x")
        with pytest.raises(GraphError):
            g.add_edge(0, 1, "x")
        g.add_edge(0, 1, "different text")  # distinct text is allowed

    def test_self_loop_preserved(self):
        g = TAG()
        g.add_node("a")
        g.add_edge(0, 0, "loop")
        parsed = round_trip(g)
        assert (parsed.edges[0].src, parsed.edges[0].dst) == (0, 0)

    def test_edge_endpoint_validation(self):
        g = two_node_graph()
        with pytest.raises(GraphError, match="5"):
            g.add_edge(0, 5)
