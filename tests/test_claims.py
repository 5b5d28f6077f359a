import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from gofa import claims
from gofa.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def two_steps(arm: claims.Arm) -> claims.Arm:
    return replace(arm, train=replace(arm.train, max_steps=2))


def shrunk(claim: claims.Claim, **kw) -> claims.Claim:
    """The claim's procedure on a tiny corpus with two training steps per run."""
    fields = dict(
        corpus=replace(claim.corpus, n_graphs=6),
        split=(0.3, claim.split[1]),
        arms={name: two_steps(arm) for name, arm in claim.arms.items()},
        pretrain=claim.pretrain and two_steps(claim.pretrain),
        eval={**claim.eval, **{k: 2 for k in ("per_task", "n") if k in claim.eval}},
    )
    fields.update(kw)
    return replace(claim, **fields)


def test_thresholds_are_the_readme_criteria():
    rows = [line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith("| `c")]
    readme = {}
    for row in rows:
        name = re.match(r"\| `(\w+)`", row).group(1)
        readme[name] = {m: (op, float(b)) for m, op, b in re.findall(r"`(\w+) (>=|<) ([\d.]+)`", row)}
    assert readme == {name: dict(c.thresholds) for name, c in claims.CLAIMS.items()}


def test_reproduce_writes_every_claim(tmp_path, monkeypatch, capsys):
    for name, claim in list(claims.CLAIMS.items()):
        monkeypatch.setitem(claims.CLAIMS, name, shrunk(claim))
    # bounds no value can meet and none can miss, so both outcomes show
    monkeypatch.setitem(claims.CLAIMS, "c6", shrunk(claims.CLAIMS["c6"], thresholds={"gap": (">=", 1.5)}))
    monkeypatch.setitem(claims.CLAIMS, "c8", shrunk(claims.CLAIMS["c8"], thresholds={"margin": (">=", -1.0)}))
    out = tmp_path / "claims"
    assert main(["reproduce", "--out", str(out)]) == 0
    results = json.loads((out / "claims.json").read_text())
    assert list(results) == ["c6", "c6b", "c7", "c8"]
    assert (results["c6"]["pass"], results["c8"]["pass"]) == (False, True)
    for name, r in results.items():
        claim = claims.CLAIMS[name]
        assert set(r) == {"value", "threshold", "pass", "seconds", "recipe", "diagnostics"}
        assert set(r["value"]) == set(claim.thresholds)
        assert all(isinstance(v, float) and math.isfinite(v) for v in r["value"].values())
        assert r["pass"] == all(
            claims.COMPARISONS[op](r["value"][m], bound) for m, (op, bound) in r["threshold"].items()
        )
        assert r["seconds"] > 0
        assert r["recipe"] == json.loads(json.dumps(claim.recipe()))
        assert all(arm["train"]["max_steps"] == 2 for arm in r["recipe"]["arms"].values())
    diag = results["c6b"]["diagnostics"]
    assert diag["pretrain"]["texts"] > 0 and len(diag["gofa"]["curve"]) == 2
    assert set(diag["gofa"]["gates"]) == {"2", "3"} and all(g == 0.0 for g in diag["text"]["gates"].values())
    diag = results["c7"]["diagnostics"]
    assert {"spd_rmse", "cn_rmse"} <= set(diag["untrained"])
    assert {"spd_miss_rate", "cn_miss_rate"} <= set(diag["trained"]["notes"])
    assert 0 < len(diag["trained"]["transcripts"]) <= 6
    assert results["c8"]["diagnostics"]["double"]["n"] >= 1
    assert (out / "run_meta.json").exists()
    table = capsys.readouterr().out
    assert all(name in table for name in results) and "miss" in table and "pass" in table


def test_reproduce_runs_only_the_named_claims(tmp_path, monkeypatch):
    monkeypatch.setitem(claims.CLAIMS, "c8", shrunk(claims.CLAIMS["c8"]))
    assert main(["reproduce", "--out", str(tmp_path), "c8"]) == 0
    assert list(json.loads((tmp_path / "claims.json").read_text())) == ["c8"]


def test_unknown_claim_is_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reproduce", "--out", str(out), "c6", "c9"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: unknown claim(s) c9")


@pytest.mark.parametrize("option", [["--set", "train.max_steps=2"], ["--config", "cfg.json"]])
def test_recipes_take_no_overrides(tmp_path, option):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--out", str(tmp_path / "out")] + option)
    assert exc.value.code == 2
