"""Self-tests of the benchmark harness (not of valuegeom).

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import valuegeom  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _params(req):
    text, arg = req.params if req.kind in ("evaluate", "apply") else (req.params, None)
    return req.kind, text, getattr(arg, "actions", arg), req.grand, req.files


def test_generators_are_deterministic_for_a_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.get(name), workloads.get(name)
        first = list(a.schedule(7))
        assert first == list(b.schedule(7))
        assert first != list(a.schedule(8))
        assert sorted(first) == list(range(a.size))
        for i in first[:2 * a.strata:5]:
            assert _params(a.build(i)) == _params(b.build(i))


def _mix(req):
    """(kind, token class, n) of a game request."""
    n = int(re.match(r'\{"n":(\d+)', req.params[0]).group(1))
    token = req.params[1] if req.kind == "evaluate" else "-"
    return req.kind, "f" if token.startswith("f:") else token, n


def test_every_run_sends_the_same_mix():
    wl = workloads.get("game-dense")
    mixes = []
    for seed in (1, 2):
        cycle = [wl.build(i) for i in list(wl.schedule(seed))[:wl.strata]]
        mixes.append(sorted(_mix(r) for r in cycle))
        assert sum(r.kind == "apply" for r in cycle) * 6 == len(cycle)
    assert mixes[0] == mixes[1]


def _bindings():
    seen = {}
    for mod in tracer.valuegeom_modules(valuegeom):
        seen.update({(mod.__name__, k): v for k, v in vars(mod).items()})
        for cls in (v for v in vars(mod).values() if isinstance(v, type)):
            seen.update({(mod.__name__, cls.__name__, k): v for k, v in vars(cls).items()})
    return seen


def test_tracer_restores_every_wrapped_attribute():
    before = _bindings()
    t = tracer.Tracer(valuegeom)
    t.install()
    try:
        assert valuegeom.values.dividends is not before[("valuegeom.values", "dividends")]
        assert valuegeom.evaluate is valuegeom.values.evaluate
        root = t.begin_request()
        game = valuegeom.game_from_json('{"n": 3, "coalitions": [{"players": [0, 1, 2], "worth": "3/2"}]}')
        valuegeom.evaluate(valuegeom.named_profile("sh", 3), game)
        t.end_request(root)
    finally:
        t.restore()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    summary = t.summary()
    # the nested call from values.evaluate into games.dividends was seen through the values namespace
    assert summary["games.dividends"]["calls"] == 1
    assert summary["values.evaluate"]["calls"] == 1
    assert t.counters["values.evaluate.nonzero_dividends"] == 1


def test_self_time_on_a_nested_span_tree():
    names = [tracer.HOOK, tracer.REQUEST, "a.f", "b.g", "b.h", "c.k"]
    spans = [
        (1, 0, 100, -1),  # request
        (2, 10, 60, 0),   # a.f inside the request
        (3, 20, 30, 1),   # b.g inside a.f
        (4, 25, 40, 1),   # b.h overlaps b.g: their union covers 20..40
        (5, 70, 90, 0),   # c.k inside the request
        (2, 200, 250, -1),  # outside any request: ignored
    ]
    assert tracer.self_times(spans) == [30, 30, 10, 15, 20, 50]
    summary = tracer.summarize(spans, names)
    assert summary["a.f"] == {"calls": 1, "self_ns": 30}
    assert summary["b.g"]["self_ns"] + summary["b.h"]["self_ns"] == 25
    assert summary[tracer.REQUEST]["self_ns"] == 30
    metrics = tracer.layer_metrics(summary, tracer.Counter(), tracer.Counter(), ops=2)
    assert metrics["games.self_ms_per_op"] == 0


def test_metric_names_match_the_spec():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in [*end_to_end, *per_layer, *(w["name"] for w in SPEC["workloads"])]:
        assert pattern.fullmatch(name) and len(name) <= 64, name
    assert end_to_end == run.END_TO_END
    assert all(unit == run.layer_unit(name) for name, unit in per_layer.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]


def _run(workload: str, trace: int, seconds: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def test_runner_prints_every_metric_of_the_spec():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run("closed-form", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
        for m in SPEC[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    per_layer = result["metrics"]
    assert per_layer["games.dividends.calls_per_op"]["value"] == 0
    assert per_layer["values.evaluate.calls_per_op"]["value"] == 0


def test_traced_game_runs_attribute_time_to_the_game_layers():
    bits = {}
    for workload in ("game-dense", "game-wide"):
        m = {k: v["value"] for k, v in _run(workload, 1, seconds=2)["metrics"].items()}
        share = (m["games.self_ms_per_op"] + m["values.self_ms_per_op"]) / m["trace.wall_ms_per_op"]
        assert share > 0.5, (workload, share)
        assert m["games.dividends.calls_per_op"] >= 1
        bits[workload] = m["games.dividend_bits_max"]
    # wide operands make the dividends at least ten times as wide as dense small ones
    assert bits["game-wide"] >= 10 * bits["game-dense"] > 0, bits


def test_refuses_optimized_interpreter():
    proc = subprocess.run(
        [sys.executable, "-O", "benchmarks/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "python -O" in proc.stderr and proc.stdout == ""


def test_reportable_percentile():
    assert run.reportable_percentile(19) is None
    assert run.reportable_percentile(20) == 50
    assert run.reportable_percentile(100) == 90
    assert run.reportable_percentile(999) == 90
    assert run.reportable_percentile(1000) == 99
