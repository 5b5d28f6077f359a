import json

import numpy as np
import pytest

from gofa.compressor import ModelConfig
from gofa.corpus import LOOKUP_VALUES
from gofa.evaluation import (
    EvalReport,
    _rmse,
    eval_token_nll,
    evaluate_accuracy,
    evaluate_structural,
    extract_number,
    layer_delta_profile,
    match_answer,
    normalize_label,
    parse_cn_answer,
    parse_spd_answer,
    perplexity,
    score_structural,
    write_transcripts,
)
from gofa.model import GofaModel
from gofa.structure import UNREACHABLE, all_shortest_paths, common_neighbors
from gofa.tag import TAG, GenerationTarget, TaskSample, assign_node_id_tags, attach_prompt_node
from gofa.taskgen import make_structural_tasks, render_cn_answer, render_spd_answer

from conftest import decode_loss, random_tag


def tiny_cfg(**kw):
    base = dict(d_model=16, n_heads=2, n_layers=2, memory_tokens=2, gnn_layers=(1,), max_seq_len=48)
    base.update(kw)
    return ModelConfig(**base)


def simple_sample(y="target words"):
    g = TAG()
    g.add_node("node alpha text")
    g.add_node("node beta text")
    g.add_undirected_edge(0, 1)
    p = attach_prompt_node(g, [0], "question?", "single")
    s = TaskSample(graph=g, targets=[GenerationTarget(p, y)], task_kind="downstream")
    s.validate()
    return s


def reference_match(generated: str, label: str, candidates) -> bool:
    """Independent matcher: naive loops, no shared helpers. A normalised
    label or candidate matches where it occurs with no letter, digit or
    underscore right before or after it."""

    def norm(s):
        s = s.lower()
        while s and not s[0].isalnum():
            s = s[1:]
        while s and not s[-1].isalnum():
            s = s[:-1]
        return " ".join(s.split())

    def word_char(ch):
        return ch.isalnum() or ch == "_"

    def has_words(text, words):
        for i in range(len(text) - len(words) + 1):
            if text[i : i + len(words)] != words:
                continue
            before = i > 0 and word_char(text[i - 1])
            after = i + len(words) < len(text) and word_char(text[i + len(words)])
            if not before and not after:
                return True
        return False

    g, l = norm(generated), norm(label)
    if not l or not has_words(g, l):
        return False
    for c in candidates or []:
        cn = norm(c)
        if cn and cn != l and has_words(g, cn):
            return False
    return True


class TestMatchAnswer:
    def test_containment_case_insensitive(self):
        assert match_answer("the category is Neural Networks", "neural networks")

    def test_ambiguous_two_candidates_incorrect(self):
        cands = ["red", "blue", "green"]
        assert not match_answer("maybe red or blue", "red", cands)
        assert match_answer("certainly red here", "red", cands)

    def test_symmetric_under_case_and_whitespace(self):
        assert match_answer("  ANSWER:   Graph  Models  ", "graph models")
        assert match_answer("answer: graph models", "  Graph   MODELS ")

    def test_boundary_punctuation_stripped(self):
        assert match_answer("it is 'biology'.", "Biology!")

    def test_label_inside_a_word_does_not_match(self):
        assert not match_answer("tired", "red")
        assert not match_answer("It maps to steal.", "teal", LOOKUP_VALUES)
        assert match_answer("It maps to teal.", "teal", LOOKUP_VALUES)
        # a candidate inside a word makes no ambiguity either
        assert match_answer("it is red, not tired", "red", ["red", "ire"])
        assert match_answer("graph models, not subgraph models", "graph models")

    def test_empty_label_never_matches(self):
        assert not match_answer("anything", "")

    def test_fuzz_against_reference_matcher(self, rng):
        vocab = ["red", "blue", "green", "amber", "violet", "teal"]
        # the last fillers hold a label inside a word, which is no match
        fillers = ["the answer is", "category:", "likely", "", "### ", "tired", "steal", "bluer", "evergreen_ish"]
        for _ in range(1000):
            label = vocab[rng.integers(0, len(vocab))]
            mention = vocab[rng.integers(0, len(vocab))]
            second = vocab[rng.integers(0, len(vocab))]
            parts = [fillers[rng.integers(0, len(fillers))], mention]
            if rng.random() < 0.4:
                parts.append(second)
            if rng.random() < 0.3:
                parts.insert(1 + rng.integers(0, len(parts)), fillers[rng.integers(0, len(fillers))])
            generated = " ".join(p for p in parts if p)
            if rng.random() < 0.3:
                generated = generated.upper() + "."
            use_cands = vocab if rng.random() < 0.5 else None
            assert match_answer(generated, label, use_cands) == reference_match(generated, label, use_cands)


class TestExtractNumber:
    def test_template_distance(self):
        assert extract_number("The shortest path distance is 2.") == 2.0

    def test_no_number(self):
        assert extract_number("no number here") is None

    def test_decimal(self):
        assert extract_number("rating 3.5 out of 5") == 3.5

    def test_sign(self):
        assert extract_number("delta -4 units") == -4.0


class TestStructuralGrammar:
    def test_parse_spd_round_trip(self, rng):
        for trial in range(20):
            g = assign_node_id_tags(random_tag(rng, 10, edge_prob=0.3), trial)
            u, v = (int(x) for x in rng.choice(10, size=2, replace=False))
            ps = all_shortest_paths(g, u, v)
            rendered = render_spd_answer(g, ps)
            parsed = parse_spd_answer(rendered)
            assert parsed is not None
            distance, paths = parsed
            if ps.reachable():
                assert distance == ps.distance
                assert paths == sorted(tuple(g.sort_key(n) for n in p) for p in ps.paths)
            else:
                assert distance == UNREACHABLE and paths == []

    def test_parse_cn_round_trip(self, rng):
        for trial in range(20):
            g = assign_node_id_tags(random_tag(rng, 10, edge_prob=0.3), trial)
            u, v = (int(x) for x in rng.choice(10, size=2, replace=False))
            shared = common_neighbors(g, u, v)
            parsed = parse_cn_answer(render_cn_answer(g, shared))
            assert parsed is not None
            count, tags = parsed
            assert count == len(shared)
            assert tags == sorted(g.sort_key(n) for n in shared)

    def test_exact_echo_scores_clean(self, rng):
        g = assign_node_id_tags(random_tag(rng, 8, edge_prob=0.4), 3)
        ps = all_shortest_paths(g, 0, 5)
        score = score_structural(render_spd_answer(g, ps), ps, g)
        assert score["path_set_exact"] is True and score["distance_error"] == 0.0
        cn = common_neighbors(g, 0, 5)
        score = score_structural(render_cn_answer(g, cn), cn, g)
        assert score["cn_set_exact"] is True and score["cn_count_error"] == 0

    def test_distance_off_by_one(self):
        g = TAG()
        g.add_node("a")
        g.add_node("b")
        g.add_undirected_edge(0, 1)
        g = assign_node_id_tags(g, 1)
        ps = all_shortest_paths(g, 0, 1)
        assert ps.distance == 1
        wrong = render_spd_answer(g, ps).replace("distance is 1", "distance is 2")
        score = score_structural(wrong, ps, g)
        assert score["distance_error"] == 1.0

    def test_unparseable_falls_back_to_number(self):
        g = TAG()
        g.add_node("a")
        g.add_node("b")
        g.add_undirected_edge(0, 1)
        ps = all_shortest_paths(g, 0, 1)
        score = score_structural("I think about 3 maybe", ps, g)
        assert score["parsed"] is False
        assert score["distance_error"] == 2.0
        score = score_structural("total gibberish", ps, g)
        assert score["distance_error"] is None


class TestPerplexity:
    def test_uniform_predictor_equals_vocab_size(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=1)
        model.decoder_stack.embed.data[:] = 0.0  # logits collapse to uniform
        s = simple_sample()
        assert perplexity(model, [s]) == pytest.approx(260.0, rel=1e-9)

    def test_matches_exp_decode_loss_singleton(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=2)
        s = simple_sample()
        mems, _ = model.encode_graphs([s.graph])
        direct = decode_loss(model, mems[s.targets[0].nog], s.targets[0].target_text)
        assert perplexity(model, [s]) == pytest.approx(float(np.exp(direct)), rel=1e-9)

    def test_token_weighted_aggregation(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=3)
        samples = [simple_sample("ab"), simple_sample("a much longer target phrase")]
        total, tokens = eval_token_nll(model, samples)
        assert perplexity(model, samples) == pytest.approx(float(np.exp(total / tokens)), rel=1e-12)

    def test_shard_invariance(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=4)
        samples = [simple_sample(f"answer {i}") for i in range(5)]
        t1, n1 = eval_token_nll(model, samples, batch_size=1)
        t5, n5 = eval_token_nll(model, samples, batch_size=5)
        assert n1 == n5
        assert t1 == pytest.approx(t5, abs=1e-9)

    def test_empty_set_undefined(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=5)
        with pytest.raises(ValueError):
            perplexity(model, [])


class TestDeltaProfile:
    def test_gate_zero_profile_is_zero(self):
        cfg = tiny_cfg(n_layers=3, gnn_layers=(1, 2))
        model = GofaModel(cfg, seed=6)
        profile = layer_delta_profile(model, [simple_sample() for _ in range(3)], n=3)
        assert set(profile) == {1, 2}
        assert all(v == 0.0 for v in profile.values())

    def test_nonzero_gates_positive_profile(self):
        cfg = tiny_cfg(n_layers=3, gnn_layers=(1, 2))
        model = GofaModel(cfg, seed=7)
        for p in model.gnn_params.values():
            p["gate_gnn"].data = np.asarray(0.5)
        profile = layer_delta_profile(model, [simple_sample() for _ in range(3)], n=3)
        assert all(v > 0 for v in profile.values())

    def test_deterministic(self):
        cfg = tiny_cfg(n_layers=3, gnn_layers=(1, 2))
        model = GofaModel(cfg, seed=8)
        for p in model.gnn_params.values():
            p["gate_gnn"].data = np.asarray(0.3)
        samples = [simple_sample(f"t {i}") for i in range(4)]
        a = layer_delta_profile(model, samples, n=4)
        b = layer_delta_profile(model, samples, n=4)
        assert a == b

    def test_no_gnn_layers_error(self):
        cfg = tiny_cfg(gnn_layers=())
        model = GofaModel(cfg, seed=9)
        with pytest.raises(ValueError):
            layer_delta_profile(model, [simple_sample()], n=1)


class TestRmse:
    def test_misses_are_charged_the_label_spread(self):
        labels = [1.0, 3.0]
        assert _rmse([None, None], labels) == (1.0, 1.0)
        assert _rmse([0.0, None], labels) == (pytest.approx(np.sqrt(0.5)), 1.0)

    @pytest.mark.parametrize("labels", [[], [2.0, 2.0]])
    def test_a_miss_costs_one_when_the_labels_do_not_vary(self, labels):
        assert _rmse([None, None], labels) == (1.0, 1.0)
        assert _rmse([0.0, 0.0], labels) == (0.0, 1.0)


class TestReports:
    def test_structural_report_and_schema(self, rng, tmp_path):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=10)
        g = random_tag(rng, 6, edge_prob=0.4)
        spd, cn = make_structural_tasks(g, 2, "compact", 0)
        report = evaluate_structural(model, [spd, cn], max_new_tokens=8)
        payload = json.loads(report.to_json())
        assert set(payload) == {"metrics", "notes"}
        assert "spd_rmse" in report.metrics and "cn_rmse" in report.metrics
        assert np.isfinite(report.metrics["spd_rmse"])
        table = report.render_table()
        assert "spd_rmse" in table
        write_transcripts(tmp_path / "t.jsonl", report)
        rows = [json.loads(l) for l in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert len(rows) == len(report.transcripts)

    def test_accuracy_report(self):
        cfg = tiny_cfg()
        model = GofaModel(cfg, seed=11)
        report = evaluate_accuracy(model, [simple_sample("red")], candidates=["red", "blue"], max_new_tokens=4)
        assert report.metrics["n"] == 1
        assert report.metrics["accuracy"] in (0.0, 1.0)
        assert report.transcripts[0]["label"] == "red"
