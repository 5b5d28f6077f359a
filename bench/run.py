"""gofa benchmark: seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload train-completion --seed 0 --seconds 30 --trace 0

``--workload all`` (the default) runs train-completion, train-spd and
eval-structural one after another in this process. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` first repeats the window untraced, then
wraps the gofa entry points, prints the per-layer metrics and writes the
spans to ``bench/.work/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the model's d=32 matrices gain nothing from
# BLAS threads, and one thread keeps runs steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"


def _import_gofa() -> None:
    """Put this checkout's ``src`` first on the path and make sure gofa
    comes from there, not from an installed copy."""
    if not (SRC / "gofa" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'gofa'} not found; run from a gofa checkout")
    sys.path.insert(0, str(SRC))
    import gofa

    if Path(gofa.__file__).resolve().parent != SRC / "gofa":
        sys.exit(f"error: gofa imported from {gofa.__file__}, not from {SRC}")


def blas_info() -> dict:
    """BLAS vendor from numpy's build record and the thread count the
    loaded library reports (OpenBLAS), else the pinned value."""
    import ctypes
    import glob

    import numpy as np

    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = f"{BLAS_THREADS} (pinned; not reported by the library)"
    return info


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git``; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(param_dtype: str) -> dict:
    import platform

    import numpy as np
    from gofa.compressor import ModelConfig
    from gofa.model import GofaModel
    from workloads import MODEL

    # The dtype a float32 request actually yields shows whether precision is honoured.
    probe = GofaModel(ModelConfig(**{**MODEL, "precision": "float32"}), seed=0)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "param_dtype": param_dtype,
        "float32_request_dtype": str(next(iter(probe.parameters().values())).dtype),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its record (metrics, checks, environment)."""
    from probe import Tracer
    import workloads as w

    settings = w.Settings()
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        if not trace:
            run = w.run_workload(workload, seed, seconds, settings, scratch / "run")
            metrics = w.end_to_end(run)
            record["raw_metrics"] = {name: v for name, (v, _unit) in w.end_to_end(run, normalized=False).items()}
        else:
            reference = w.run_workload(workload, seed, 0.0, replace(settings, setup_repeats=1), scratch / "ref")
            tracer = Tracer()
            run = w.run_workload(workload, seed, seconds, settings, scratch / "run", tracer)
            metrics = w.per_layer(tracer, run, reference)
            if (run.loss_digest, run.output_digest) != (reference.loss_digest, reference.output_digest):
                run.fail("traced digests differ from the untraced run's")
            stem = WORK / f"trace-{workload}-s{seed}"
            tracer.write(stem.with_suffix(".jsonl"))
            record["spans"] = w.self_times(tracer, run)
            record["reference_loss_digest"] = reference.loss_digest
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lat = run.op_ms[1:]
    pct, _ = w.tail(lat)
    record.update(
        {
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
            "attempted": run.attempted,
            "failed": len(run.failures),
            "failures": run.failures[:20],
            "ops": len(run.op_ms),
            "tail_percentile": pct,
            "tail_samples": len(lat),
            "window_ops": run.window_ops,
            "loss_digest": run.loss_digest,
            "output_digest": run.output_digest,
            "truncated_targets": run.truncated_targets,
            "env": environment(run.param_dtype),
        }
    )
    return record


def report(record: dict) -> None:
    """Human-readable lines; the end-to-end metrics print under the names
    they carry on this kind of workload."""
    import workloads as w

    kind = "eval" if record["workload"] == "eval-structural" else "train"
    op = "answers" if kind == "eval" else "steps"
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    raw = record.get("raw_metrics", {})
    if raw:
        print(f"{'# metric':<34} {'ref. speed':>14} {'unit':<6} {'raw clock':>12}")
    for name, m in record["metrics"].items():
        shown = w.DISPLAY[kind].get(name, name) if not record["trace"] else name
        note = f" {raw[name]:>12.6g}" if name in raw else ""
        if name == "op_ms.tail":
            note += f"  p{record['tail_percentile']:g} of {record['tail_samples']} {op}"
        if name == "ppl_tokens_per_s" and kind == "train":
            note += "  held-out batches scored between steps"
        print(f"{shown:<34} {m['value']:>14.6g} {m['unit']:<6}{note}")
    share = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"{'failed_share':<34} {share:>14.6g} share   {record['failed']} of {record['attempted']} operations")
    print(f"# loss_digest {record['loss_digest']}  output_digest {record['output_digest'] or '-'}"
          f"  window {record['window_ops']} {op}  truncated_targets {record['truncated_targets']}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="train-completion, train-spd, eval-structural or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="how long each closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_gofa()
    import workloads as w

    names = w.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in w.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        (WORK / f"result-{name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
        report(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
