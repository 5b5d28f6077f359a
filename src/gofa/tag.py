"""Text-attributed graph data model, prompt-node wiring and record format.

A TAG is a directed graph whose nodes and edges carry free text. Undirected
source data is stored as two directed arcs. Nodes are either ``content``
nodes (real data) or ``prompt`` nodes (virtual task nodes used as decoding
starting points).
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1


class GraphError(ValueError):
    """Structural violation in a TAG (bad index, duplicate arc, ...)."""


class GraphParseError(ValueError):
    """Malformed graph records; carries the offending record's number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class NodeRecord:
    id: int
    text: str = ""
    node_id_tag: str | None = None
    kind: str = "content"  # "content" | "prompt"

    def is_prompt(self) -> bool:
        return self.kind == "prompt"


@dataclass
class EdgeRecord:
    src: int
    dst: int
    text: str = ""


@dataclass
class GenerationTarget:
    """A node of generation paired with the text to generate from it."""

    nog: int
    target_text: str


@dataclass
class TaskSample:
    """One training/eval unit: a TAG plus generation targets on it."""

    graph: "TAG"
    targets: list[GenerationTarget]
    task_kind: str  # completion | spd | cn | qa | downstream | autoencode

    def validate(self) -> None:
        self.graph.validate()
        seen = set()
        for t in self.targets:
            self.graph.check_node(t.nog)
            if t.nog in seen:
                raise GraphError(f"duplicate generation target on node {t.nog}")
            seen.add(t.nog)


@dataclass
class TAG:
    nodes: list[NodeRecord] = field(default_factory=list)
    edges: list[EdgeRecord] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    # -- construction helpers -------------------------------------------------

    def add_node(self, text: str = "", kind: str = "content") -> int:
        idx = len(self.nodes)
        self.nodes.append(NodeRecord(id=idx, text=text, kind=kind))
        return idx

    def add_edge(self, src: int, dst: int, text: str = "") -> None:
        self.check_node(src)
        self.check_node(dst)
        src, dst = int(src), int(dst)
        for e in self.edges:
            if e.src == src and e.dst == dst and e.text == text:
                raise GraphError(f"duplicate arc {src}->{dst} with identical text")
        self.edges.append(EdgeRecord(src=src, dst=dst, text=text))

    def add_undirected_edge(self, a: int, b: int, text: str = "") -> None:
        """Store an undirected source edge as a pair of directed arcs."""
        self.add_edge(a, b, text)
        if a != b:
            self.add_edge(b, a, text)

    def copy(self) -> "TAG":
        return TAG(
            nodes=[NodeRecord(n.id, n.text, n.node_id_tag, n.kind) for n in self.nodes],
            edges=[EdgeRecord(e.src, e.dst, e.text) for e in self.edges],
        )

    # -- queries ---------------------------------------------------------------

    def check_node(self, idx: int) -> None:
        if not isinstance(idx, (int, np.integer)) or idx < 0 or idx >= len(self.nodes):
            raise GraphError(f"invalid node index {idx} (graph has {len(self.nodes)} nodes)")

    def n_nodes(self) -> int:
        return len(self.nodes)

    def content_nodes(self) -> list[int]:
        return [n.id for n in self.nodes if n.kind == "content"]

    def validate(self) -> None:
        for i, n in enumerate(self.nodes):
            if n.id != i:
                raise GraphError(f"node at position {i} carries id {n.id}")
            if n.kind not in ("content", "prompt"):
                raise GraphError(f"node {i}: unknown kind {n.kind!r}")
        seen_arcs = set()
        for e in self.edges:
            self.check_node(e.src)
            self.check_node(e.dst)
            key = (e.src, e.dst, e.text)
            if key in seen_arcs:
                raise GraphError(f"duplicate arc {e.src}->{e.dst} with identical text")
            seen_arcs.add(key)
        tags = [n.node_id_tag for n in self.nodes if n.node_id_tag is not None]
        if len(tags) != len(set(tags)):
            raise GraphError("node-ID tags are not unique within the graph")

    def sort_key(self, idx: int) -> str:
        """Ordering key for answer rendering: the node-ID tag when assigned."""
        tag = self.nodes[idx].node_id_tag
        return tag if tag is not None else f"#{idx:08d}"


def attach_prompt_node(
    graph: TAG, targets: list[int], prompt_text: str, edge_mode: str = "single"
) -> int:
    """Append a virtual prompt node wired to ``targets`` and return its index.

    Single mode adds one arc target->prompt per target so the prompt only
    reads the graph; double mode additionally adds prompt->target so the
    prompt text can steer message passing. Prompt arcs carry empty edge text.
    """
    if edge_mode not in ("single", "double"):
        raise GraphError(f"unknown edge_mode {edge_mode!r}")
    if not targets:
        raise GraphError("attach_prompt_node requires a non-empty target list")
    for t in targets:
        graph.check_node(t)
        if graph.nodes[t].is_prompt():
            raise GraphError(f"node {t} is a prompt node; prompt nodes must stay mutually non-adjacent")
    prompt = graph.add_node(text=prompt_text, kind="prompt")
    for t in targets:
        graph.add_edge(t, prompt)
        if edge_mode == "double":
            graph.add_edge(prompt, t)
    return prompt


def node_id_labels(count: int) -> list[str]:
    """Uppercase base-26 label sequence: A..Z, AA, AB, ..."""
    labels = []
    for i in range(count):
        label = ""
        n = i
        while True:
            label = string.ascii_uppercase[n % 26] + label
            n = n // 26 - 1
            if n < 0:
                break
        labels.append(label)
    return labels


def assign_node_id_tags(graph: TAG, rng_seed: int) -> TAG:
    """Return a copy where every content node's text ends with a unique tag.

    Labels are drawn from a seed-shuffled base-26 sequence so that a tag
    carries no information about node position.
    """
    content = graph.content_nodes()
    if not content:
        raise GraphError("assign_node_id_tags requires at least one content node")
    rng = np.random.default_rng(rng_seed)
    labels = node_id_labels(len(content))
    rng.shuffle(labels)
    out = graph.copy()
    for node_idx, label in zip(content, labels):
        tag = f"[NODEID.{label}]"
        node = out.nodes[node_idx]
        node.node_id_tag = tag
        node.text = f"{node.text} {tag}" if node.text else tag
    return out


# -- record format ---------------------------------------------------------
#
# A graph is a list of JSON-ready records: a header {"version": 1} first,
# then a tagged record {"n": {...}} per node and {"e": {...}} per edge.
# Corpus files embed this list in every sample line. Older files also carry
# "directed": true in the header, which the reader ignores.


def _node_to_obj(n: NodeRecord) -> dict:
    obj = {"id": n.id, "text": n.text, "kind": n.kind}
    if n.node_id_tag is not None:
        obj["node_id_tag"] = n.node_id_tag
    return obj


def _edge_to_obj(e: EdgeRecord) -> dict:
    return {"src": e.src, "dst": e.dst, "text": e.text}


def tag_to_records(graph: TAG) -> list[dict]:
    """Graph as a list of JSON objects: header first, then node/edge records."""
    recs: list[dict] = [{"version": FORMAT_VERSION}]
    recs.extend({"n": _node_to_obj(n)} for n in graph.nodes)
    recs.extend({"e": _edge_to_obj(e)} for e in graph.edges)
    return recs


def tag_from_records(records: list[dict]) -> TAG:
    """Rebuild a graph from ``tag_to_records`` output. Errors carry the
    1-based number of the offending record."""
    if not records:
        raise GraphParseError(1, "empty document, expected a header line")
    header = records[0]
    if not isinstance(header, dict) or "version" not in header:
        raise GraphParseError(1, "first record must be a header with a version field")
    if header["version"] != FORMAT_VERSION:
        raise GraphParseError(1, f"unsupported format version {header['version']}")
    graph = TAG()
    for line_no, rec in enumerate(records[1:], start=2):
        if not isinstance(rec, dict) or len(rec) != 1:
            raise GraphParseError(line_no, "expected a single-key record object")
        key, body = next(iter(rec.items()))
        try:
            if key == "n":
                node = NodeRecord(
                    id=int(body["id"]),
                    text=str(body["text"]),
                    node_id_tag=body.get("node_id_tag"),
                    kind=str(body.get("kind", "content")),
                )
                if node.id != len(graph.nodes):
                    raise GraphParseError(line_no, f"node id {node.id} out of order")
                graph.nodes.append(node)
            elif key == "e":
                graph.edges.append(
                    EdgeRecord(src=int(body["src"]), dst=int(body["dst"]), text=str(body["text"]))
                )
            else:
                raise GraphParseError(line_no, f"unknown record tag {key!r}")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, GraphParseError):
                raise
            raise GraphParseError(line_no, f"malformed record: {exc}") from exc
    try:
        graph.validate()
    except GraphError as exc:
        raise GraphParseError(len(records), str(exc)) from exc
    return graph
