"""Smoke tests for the benchmark: every workload at a tiny size, in both
modes, reports every metric named in BENCHMARK.json with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys

import pytest

import run

run.prepare_environment()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_spec_matches_harness():
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_tiny_run(workload):
    record, result = run.run(workload, 0, 0, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert record["unpatched_untraced_passes"]
    metrics = result["metrics"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0.0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run(workload):
    record, result = run.run(workload, 0, 0, trace=True, size="tiny")
    assert result["correct"] and result["failed"] == 0, record["failures"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["certify.certify_front.calls"] >= 1
    assert value["certify.count_below.calls"] == \
        28 * value["certify.certify_front.calls"]
    assert value["evolution.nonlin.calls"] == \
        4 * value["evolution.advance.calls"]
    assert (run.ROOT / record["trace_file"]).is_file()
    json.dumps(result, allow_nan=False)


def test_tracer_restores_every_binding():
    import tracer as tracing
    from frontlab import certify, fronts

    tracer = tracing.Tracer()
    original = certify.certify_front
    tracer.install()
    try:
        assert not tracer.pristine()
        assert certify.certify_front is not original
        assert fronts.FrontProfile.__dict__["phi_prime_at"].__wrapped__
    finally:
        tracer.restore()
    assert tracer.pristine()
    assert certify.certify_front is original


def test_spans_give_self_time_and_errors():
    import tracer as tracing

    tracer = tracing.Tracer()
    inner = tracer.wrap("layer.inner", lambda: 1)

    def fail():
        raise ValueError("counted")

    outer = tracer.wrap("layer.outer", lambda: inner() + inner())
    outer()
    with pytest.raises(ValueError):
        tracer.wrap("layer.fail", fail)()
    stats = tracer.per_run()[0]
    assert stats["layer.inner"]["calls"] == 2
    assert stats["layer.fail"]["errors"] == 1
    duration = {}
    for name_id, start, end, *_ in tracer.spans:
        duration.setdefault(tracer.names[name_id], []).append(end - start)
    assert stats["layer.outer"]["self_s"] == pytest.approx(
        duration["layer.outer"][0] - sum(duration["layer.inner"]))


def test_exits_without_result_when_sources_are_missing(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kdvb_decay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
