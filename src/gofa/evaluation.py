"""Evaluation mechanics: perplexity, answer matching, numeric extraction,
structural-answer scoring against the oracle grammar, and GNN-layer
diagnostics.
"""

from __future__ import annotations

import json
import math
import re
import string
from dataclasses import dataclass, field

import numpy as np

from .autodiff import no_grad
from .model import GofaModel
from .structure import UNREACHABLE, PathSet, all_shortest_paths, common_neighbors
from .tag import TAG, TaskSample
from .taskgen import CN_EMPTY_ANSWER, SPD_UNREACHABLE_ANSWER

NUMBER_RE = re.compile(r"[-+]?(?:\d+(?:\.\d+)?|\.\d+)")

_SPD_RE = re.compile(r"^The shortest path distance is (\d+)\. Shortest paths: (.*)\.$", re.S)
_CN_ONE_RE = re.compile(r"^There is 1 common neighbor between two nodes, including (.*)\.$", re.S)
_CN_MANY_RE = re.compile(r"^There are (\d+) common neighbors between two nodes, including (.*)\.$", re.S)


# -- text matching ---------------------------------------------------------------


def normalize_label(s: str) -> str:
    """Lowercase, strip boundary punctuation, collapse internal whitespace."""
    s = s.lower().strip()
    s = s.strip(string.punctuation + string.whitespace)
    return " ".join(s.split())


def _has_words(text: str, words: str) -> bool:
    """True when ``words`` occurs in ``text`` as a run of whole words: not
    preceded or followed by a word character."""
    return re.search(rf"(?<!\w){re.escape(words)}(?!\w)", text) is not None


def match_answer(generated: str, label: str, candidates: list[str] | None = None) -> bool:
    """Whole-word match of the normalized label in the normalized output:
    the label is a run of whole words of it, so "red" does not match
    "tired".

    With a candidate list, the output is correct only when the true label
    matches and no other candidate also matches (ambiguity counts wrong).
    """
    gen = normalize_label(generated)
    lab = normalize_label(label)
    if not lab or not _has_words(gen, lab):
        return False
    if candidates:
        for c in candidates:
            cn = normalize_label(c)
            if cn and cn != lab and _has_words(gen, cn):
                return False
    return True


def extract_number(generated: str) -> float | None:
    """First decimal numeral in the string, if any."""
    m = NUMBER_RE.search(generated)
    return float(m.group(0)) if m else None


# -- structural answer grammar ---------------------------------------------------


def parse_spd_answer(text: str) -> tuple[int, list[tuple[str, ...]]] | None:
    """Parse an SPD answer to (distance, sorted path tag-tuples); the
    not-connected template parses to (UNREACHABLE, []). None if unparseable."""
    text = text.strip()
    if text == SPD_UNREACHABLE_ANSWER:
        return UNREACHABLE, []
    m = _SPD_RE.match(text)
    if not m:
        return None
    distance = int(m.group(1))
    paths = []
    for chunk in m.group(2).split(";"):
        nodes = tuple(part.strip() for part in chunk.split("->"))
        if any(not n for n in nodes):
            return None
        paths.append(nodes)
    return distance, sorted(paths)


def parse_cn_answer(text: str) -> tuple[int, list[str]] | None:
    """Parse a CN answer to (count, sorted tag list). None if unparseable."""
    text = text.strip()
    if text == CN_EMPTY_ANSWER:
        return 0, []
    m = _CN_ONE_RE.match(text)
    if m:
        tag = m.group(1).strip()
        return (1, [tag]) if tag else None
    m = _CN_MANY_RE.match(text)
    if not m:
        return None
    tags = [t.strip() for t in m.group(2).split(";")]
    if any(not t for t in tags):
        return None
    return int(m.group(1)), sorted(tags)


def score_structural(generated: str, oracle, graph: TAG) -> dict:
    """Compare a generated answer with the oracle output.

    ``oracle`` is a PathSet (SPD task) or a common-neighbor index list (CN
    task); ``graph`` supplies the node-ID tags. Unparseable generations fall
    back to bare numeric extraction for the distance/count and are flagged.
    """
    out = {
        "distance_error": None,
        "path_set_exact": None,
        "cn_count_error": None,
        "cn_set_exact": None,
        "parsed": True,
    }
    if isinstance(oracle, PathSet):
        truth_paths = sorted(tuple(graph.sort_key(v) for v in p) for p in oracle.paths)
        parsed = parse_spd_answer(generated)
        if parsed is None:
            out["parsed"] = False
            out["path_set_exact"] = False
            num = extract_number(generated)
            if num is not None and oracle.reachable():
                out["distance_error"] = abs(num - oracle.distance)
            return out
        distance, paths = parsed
        if oracle.reachable() and distance != UNREACHABLE:
            out["distance_error"] = abs(distance - oracle.distance)
        elif oracle.reachable() != (distance != UNREACHABLE):
            out["distance_error"] = None  # reachability disagreement scores as a miss
        else:
            out["distance_error"] = 0.0
        out["path_set_exact"] = (distance == oracle.distance or (distance == UNREACHABLE and not oracle.reachable())) and paths == truth_paths
    else:
        truth_tags = sorted(graph.sort_key(v) for v in oracle)
        parsed = parse_cn_answer(generated)
        if parsed is None:
            out["parsed"] = False
            out["cn_set_exact"] = False
            num = extract_number(generated)
            if num is not None:
                out["cn_count_error"] = abs(num - len(oracle))
            return out
        count, tags = parsed
        out["cn_count_error"] = abs(count - len(truth_tags))
        out["cn_set_exact"] = count == len(truth_tags) and tags == truth_tags
    return out


# -- model metrics ---------------------------------------------------------------

EVAL_BATCH = 8  # samples whose graphs an evaluation encodes at once


def eval_token_nll(model: GofaModel, samples: list[TaskSample], use_gnn: bool = True, batch_size: int = EVAL_BATCH) -> tuple[float, int]:
    """Total teacher-forcing NLL and token count over all targets."""
    total, tokens = 0.0, 0
    with no_grad():
        for i in range(0, len(samples), batch_size):
            mems, target_ids = model.encode_targets(samples[i : i + batch_size], use_gnn=use_gnn)
            nll, counts = model.decoder_nll_per_target(mems, target_ids)
            for part in nll.data.tolist():  # in target order, on Python floats
                total += part
            tokens += int(counts.sum())
    return total, tokens


def perplexity(model: GofaModel, samples: list[TaskSample], use_gnn: bool = True, batch_size: int = EVAL_BATCH) -> float:
    """exp(mean per-token NLL over all target tokens)."""
    total, tokens = eval_token_nll(model, samples, use_gnn=use_gnn, batch_size=batch_size)
    if tokens == 0:
        raise ValueError("perplexity undefined: no target tokens")
    return float(math.exp(total / tokens))


def generate_answers(
    model: GofaModel,
    samples: list[TaskSample],
    use_gnn: bool = True,
    max_new_tokens: int = 96,
) -> list[tuple[TaskSample, int, str]]:
    """Greedy generations for every target, as a list of (sample, target
    idx, text); the graphs are encoded ``EVAL_BATCH`` samples at a time."""
    out = []
    with no_grad():
        for i in range(0, len(samples), EVAL_BATCH):
            batch = samples[i : i + EVAL_BATCH]
            mems, _ = model.encode_targets(batch, use_gnn=use_gnn)
            refs = [(s, ti) for s in batch for ti in range(len(s.targets))]
            for row, (s, ti) in enumerate(refs):
                out.append((s, ti, model.generate(mems[row], max_new_tokens=max_new_tokens)))
    return out


def layer_delta_profile(
    model: GofaModel, samples: list[TaskSample], n: int = 100
) -> dict[int, float]:
    """Mean representation-change ratio per GNN layer over up to n samples."""
    if not model.cfg.gnn_layers:
        raise ValueError("model has no GNN layers to profile")
    capture: dict[int, list[float]] = {}
    with no_grad():
        for s in samples[:n]:
            model.encode_graphs([s.graph], use_gnn=True, capture_deltas=capture)
    return {t: float(np.mean(v)) for t, v in sorted(capture.items())}


# -- report assembly ---------------------------------------------------------------


@dataclass
class EvalReport:
    metrics: dict = field(default_factory=dict)
    transcripts: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"metrics": self.metrics, "notes": self.notes}, indent=2, sort_keys=True)

    def render_table(self) -> str:
        lines = [f"{'metric':<28} value", "-" * 40]
        for key in sorted(self.metrics):
            value = self.metrics[key]
            if isinstance(value, float):
                lines.append(f"{key:<28} {value:.6g}")
            else:
                lines.append(f"{key:<28} {value}")
        return "\n".join(lines)


def _rmse(errors: list[float | None], labels: list[float]) -> tuple[float, float]:
    """RMSE with misses (None) charged a penalty distance.

    The penalty is the standard deviation of the oracle labels, or 1.0 when
    they do not vary, so a miss always costs something. Returns (rmse, penalty)."""
    penalty = float(np.std(labels)) if len(set(labels)) > 1 else 1.0
    sq = [(e if e is not None else penalty) ** 2 for e in errors]
    return float(np.sqrt(np.mean(sq))) if sq else float("nan"), penalty


def evaluate_structural(
    model: GofaModel,
    samples: list[TaskSample],
    use_gnn: bool = True,
    max_new_tokens: int = 96,
) -> EvalReport:
    """Score SPD/CN samples: RMSE on distances/counts plus exactness rates.

    Oracle values are recomputed from each sample graph; the oracle ignores
    prompt nodes, so the wiring added by task construction cannot shift
    distances or neighbor sets."""
    spd_errors: list[float | None] = []
    spd_labels: list[float] = []
    spd_exact = []
    cn_errors: list[float | None] = []
    cn_labels: list[float] = []
    cn_exact = []
    transcripts = []
    for sample, ti, text in generate_answers(model, samples, use_gnn=use_gnn, max_new_tokens=max_new_tokens):
        target = sample.targets[ti]
        endpoints = _prompt_endpoints(sample.graph, target.nog)
        row = {"prompt": sample.graph.nodes[target.nog].text, "generated": text, "label": target.target_text}
        if sample.task_kind == "spd":
            oracle = all_shortest_paths(sample.graph, *endpoints)
            score = score_structural(text, oracle, sample.graph)
            spd_errors.append(score["distance_error"])
            if oracle.reachable():
                spd_labels.append(float(oracle.distance))
            spd_exact.append(bool(score["path_set_exact"]))
            row["score"] = score
        elif sample.task_kind == "cn":
            oracle = common_neighbors(sample.graph, *endpoints)
            score = score_structural(text, oracle, sample.graph)
            cn_errors.append(score["cn_count_error"])
            cn_labels.append(float(len(oracle)))
            cn_exact.append(bool(score["cn_set_exact"]))
            row["score"] = score
        transcripts.append(row)
    report = EvalReport(transcripts=transcripts)
    if spd_errors:
        rmse, used = _rmse(spd_errors, spd_labels)
        report.metrics["spd_rmse"] = rmse
        report.metrics["spd_path_exact_rate"] = float(np.mean(spd_exact))
        report.notes["spd_miss_penalty"] = used
        report.notes["spd_miss_rate"] = float(np.mean([e is None for e in spd_errors]))
    if cn_errors:
        rmse, used = _rmse(cn_errors, cn_labels)
        report.metrics["cn_rmse"] = rmse
        report.metrics["cn_set_exact_rate"] = float(np.mean(cn_exact))
        report.notes["cn_miss_penalty"] = used
        report.notes["cn_miss_rate"] = float(np.mean([e is None for e in cn_errors]))
    return report


def _prompt_endpoints(graph: TAG, prompt_idx: int) -> tuple[int, int]:
    """The two content nodes a structural prompt node reads from."""
    sources = sorted({e.src for e in graph.edges if e.dst == prompt_idx and not graph.nodes[e.src].is_prompt()})
    if len(sources) != 2:
        raise ValueError(f"structural prompt node {prompt_idx} has {len(sources)} content sources, expected 2")
    return sources[0], sources[1]


def evaluate_accuracy(
    model: GofaModel,
    samples: list[TaskSample],
    candidates: list[str] | None = None,
    use_gnn: bool = True,
    max_new_tokens: int = 32,
) -> EvalReport:
    """Whole-word match accuracy (``match_answer``) of greedy generations
    against target labels."""
    correct = []
    transcripts = []
    for sample, ti, text in generate_answers(model, samples, use_gnn=use_gnn, max_new_tokens=max_new_tokens):
        target = sample.targets[ti]
        ok = match_answer(text, target.target_text, candidates)
        correct.append(ok)
        transcripts.append(
            {
                "prompt": sample.graph.nodes[target.nog].text,
                "generated": text,
                "label": target.target_text,
                "correct": ok,
            }
        )
    report = EvalReport(transcripts=transcripts)
    report.metrics["accuracy"] = float(np.mean(correct)) if correct else float("nan")
    report.metrics["n"] = len(correct)
    return report


def write_transcripts(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in report.transcripts:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
