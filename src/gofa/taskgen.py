"""Construction of the pre-training task families and downstream prompts.

Every maker copies its input graph, decorates content nodes with unique
node-ID tags, wires virtual prompt nodes, and emits TaskSamples whose
target texts follow fixed templates. Structural answers are computed by
the structure oracle and rendered exactly; the evaluator re-parses the
same grammar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .structure import PathSet, all_shortest_paths, common_neighbors
from .tag import (
    TAG,
    GenerationTarget,
    GraphError,
    TaskSample,
    assign_node_id_tags,
    attach_prompt_node,
    tag_from_records,
    tag_to_records,
)

ROOT = 0  # by convention the rooted graph's target node

# Share of a completion node's words its text keeps; the cut rest is the target.
SPLIT_FRACTION = 0.5


@dataclass
class Conversation:
    rounds: list[tuple[str, str]]

    def __post_init__(self):
        if not self.rounds:
            raise ValueError("a conversation needs at least one round")
        for q, a in self.rounds:
            if not q or not a:
                raise ValueError("conversation rounds must have non-empty question and answer")


# -- text templates -----------------------------------------------------------

COMPLETION_QUESTION = "Complete the sentence of the node{tag}."

SPD_QUESTION = (
    "Compute the shortest path distance between the target node {a} and node {b} "
    "and generate all shortest paths from the target node to the node {b}. "
    "Please separate nodes in the path with ->. If multiple paths exist, generate "
    "all of them with an ascending order of node sequences and separate different paths with ;."
)
SPD_QUESTION_COMPACT = "Shortest path distance and all shortest paths from {a} to {b}?"

CN_QUESTION = (
    "Is there any common neighbor between the target node {a} and node {b}? "
    "If it exist, please give the total number and list all common neighbors "
    "in ascending order of node, separate nodes with ;."
)
CN_QUESTION_COMPACT = "Common neighbors of {a} and {b}?"

SPD_UNREACHABLE_ANSWER = "The two nodes are not connected."
CN_EMPTY_ANSWER = "There are no common neighbors between two nodes."


def render_spd_answer(graph: TAG, paths: PathSet) -> str:
    if not paths.reachable():
        return SPD_UNREACHABLE_ANSWER
    rendered = []
    for p in paths.paths:
        rendered.append(" -> ".join(graph.sort_key(v) for v in p))
    return f"The shortest path distance is {paths.distance}. Shortest paths: {'; '.join(rendered)}."


def render_cn_answer(graph: TAG, shared: list[int]) -> str:
    if not shared:
        return CN_EMPTY_ANSWER
    tags = "; ".join(graph.sort_key(v) for v in shared)
    if len(shared) == 1:
        return f"There is 1 common neighbor between two nodes, including {tags}."
    return f"There are {len(shared)} common neighbors between two nodes, including {tags}."


# -- helpers --------------------------------------------------------------------


def split_text(text: str, fraction: float) -> tuple[str, str] | None:
    """Split on whitespace tokens, first half rounded up; None if too short."""
    tokens = text.split()
    if len(tokens) < 2:
        return None
    keep = int(np.ceil(len(tokens) * fraction))
    keep = min(max(keep, 1), len(tokens) - 1)
    return " ".join(tokens[:keep]), " ".join(tokens[keep:])


def _select_nodes(graph: TAG, n_selected: int, seed: int, exclude: set[int]) -> list[int]:
    pool = [i for i in graph.content_nodes() if i not in exclude]
    rng = np.random.default_rng((seed, 1))
    rng.shuffle(pool)
    return pool[:n_selected]


# -- task makers ---------------------------------------------------------------


def make_completion_tasks(graph: TAG, n_selected: int, seed: int) -> TaskSample:
    """Sentence-completion sample: root plus n selected nodes keep only the
    first half of their text; each gets a prompt node wired with a single
    directed arc, and the cut half becomes the generation target."""
    content = graph.content_nodes()
    if ROOT not in content:
        raise GraphError("completion tasks need a rooted graph with content node 0")
    work = graph.copy()

    candidates = [i for i in content if i != ROOT]
    rng = np.random.default_rng((seed, 2))
    rng.shuffle(candidates)

    chosen: list[tuple[int, str, str]] = []  # (node, kept, cut)
    root_split = split_text(work.nodes[ROOT].text, SPLIT_FRACTION)
    if root_split is not None:
        chosen.append((ROOT, *root_split))
    for i in candidates:
        if len(chosen) >= n_selected + (1 if root_split is not None else 0):
            break
        split = split_text(work.nodes[i].text, SPLIT_FRACTION)
        if split is not None:
            chosen.append((i, *split))
    if not chosen:
        raise GraphError("no node text is long enough to split for completion")

    for node, kept, _cut in chosen:
        work.nodes[node].text = kept
    tagged = assign_node_id_tags(work, seed)

    targets = []
    for node, _kept, cut in chosen:
        question = COMPLETION_QUESTION.format(tag=tagged.nodes[node].node_id_tag)
        prompt = attach_prompt_node(tagged, [node], question, edge_mode="single")
        targets.append(GenerationTarget(nog=prompt, target_text=cut))
    sample = TaskSample(graph=tagged, targets=targets, task_kind="completion")
    sample.validate()
    return sample


def make_structural_tasks(
    graph: TAG, n_selected: int, question_style: str, seed: int
) -> tuple[TaskSample, TaskSample]:
    """Shortest-path-distance and common-neighbor samples over the same
    tagged graph: for each selected node, one SPD question and one CN
    question against the root, each on its own prompt node wired from both
    endpoints."""
    content = graph.content_nodes()
    if ROOT not in content or len(content) < 2:
        raise GraphError("structural tasks need a rooted graph with >= 2 content nodes")
    selected = _select_nodes(graph, n_selected, seed, exclude={ROOT})
    if not selected:
        raise GraphError("no selectable nodes besides the root")
    tagged = assign_node_id_tags(graph.copy(), seed)

    q_spd = SPD_QUESTION if question_style == "full" else SPD_QUESTION_COMPACT
    q_cn = CN_QUESTION if question_style == "full" else CN_QUESTION_COMPACT

    spd_graph = tagged.copy()
    spd_targets = []
    for node in selected:
        paths = all_shortest_paths(spd_graph, ROOT, node)
        question = q_spd.format(a=spd_graph.nodes[ROOT].node_id_tag, b=spd_graph.nodes[node].node_id_tag)
        prompt = attach_prompt_node(spd_graph, [ROOT, node], question, edge_mode="single")
        spd_targets.append(GenerationTarget(nog=prompt, target_text=render_spd_answer(spd_graph, paths)))
    spd_sample = TaskSample(graph=spd_graph, targets=spd_targets, task_kind="spd")
    spd_sample.validate()

    cn_graph = tagged.copy()
    cn_targets = []
    for node in selected:
        shared = common_neighbors(cn_graph, ROOT, node)
        question = q_cn.format(a=cn_graph.nodes[ROOT].node_id_tag, b=cn_graph.nodes[node].node_id_tag)
        prompt = attach_prompt_node(cn_graph, [ROOT, node], question, edge_mode="single")
        cn_targets.append(GenerationTarget(nog=prompt, target_text=render_cn_answer(cn_graph, shared)))
    cn_sample = TaskSample(graph=cn_graph, targets=cn_targets, task_kind="cn")
    cn_sample.validate()

    return spd_sample, cn_sample


def make_qa_chain_graphs(conv: Conversation) -> list[TaskSample]:
    """One sample per conversation prefix: rounds 1..i become a forward
    chain of alternating question/answer nodes, round i+1's question sits
    on the prompt node (wired from every chain node) and its answer is the
    target."""
    k = len(conv.rounds)
    samples = []
    for i in range(1, k):
        graph = TAG()
        for q, a in conv.rounds[:i]:
            qi = graph.add_node(text=q)
            ai = graph.add_node(text=a)
            if qi > 0:
                graph.add_edge(qi - 1, qi)
            graph.add_edge(qi, ai)
        next_q, next_a = conv.rounds[i]
        chain = list(range(graph.n_nodes()))
        prompt = attach_prompt_node(graph, chain, next_q, edge_mode="single")
        sample = TaskSample(
            graph=graph,
            targets=[GenerationTarget(nog=prompt, target_text=next_a)],
            task_kind="qa",
        )
        sample.validate()
        samples.append(sample)
    return samples


def make_downstream_task(
    graph: TAG,
    targets: list[int],
    question: str,
    answer: str,
    edge_mode: str = "single",
) -> TaskSample:
    """Free-form downstream sample: one prompt node over the target nodes."""
    work = graph.copy()
    prompt = attach_prompt_node(work, targets, question, edge_mode=edge_mode)
    sample = TaskSample(
        graph=work,
        targets=[GenerationTarget(nog=prompt, target_text=answer)],
        task_kind="downstream",
    )
    sample.validate()
    return sample


def make_autoencode_task(text: str) -> TaskSample:
    """Reconstruction sample (ICAE autoencoding): a one-node graph whose
    target is the node's own text, decoded from its memory block alone."""
    graph = TAG()
    graph.add_node(text)
    return TaskSample(graph=graph, targets=[GenerationTarget(nog=0, target_text=text)], task_kind="autoencode")


# -- corpus serialization ---------------------------------------------------------


def sample_to_obj(sample: TaskSample) -> dict:
    return {
        "graph": tag_to_records(sample.graph),
        "targets": [
            {"nog": t.nog, "prompt": sample.graph.nodes[t.nog].text, "y": t.target_text}
            for t in sample.targets
        ],
        "kind": sample.task_kind,
    }


def sample_from_obj(obj: dict) -> TaskSample:
    graph = tag_from_records(obj["graph"])
    targets = [GenerationTarget(nog=t["nog"], target_text=t["y"]) for t in obj["targets"]]
    sample = TaskSample(graph=graph, targets=targets, task_kind=obj["kind"])
    sample.validate()
    return sample


def write_samples(path, samples: list[TaskSample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(sample_to_obj(s), ensure_ascii=False) + "\n")


def read_samples(path) -> list[TaskSample]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(sample_from_obj(json.loads(line)))
    return out
