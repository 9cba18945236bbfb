"""Tests of the benchmark harness itself, on tiny meshes."""

import json
import time
from pathlib import Path

import pytest

import bench
import probe
import tracer
from workloads import WORKLOADS, build_workload

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = 2


def _counts(record):
    return [p["counts"] for p in record["passes"]]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(trace):
    result, record = bench.measure("certify-large", seed=1, seconds=0,
                                   trace=bool(trace), scale=TINY)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_same_seed_gives_identical_counts():
    _, first = bench.measure("newton-medium", seed=3, seconds=0, trace=True, scale=TINY)
    _, second = bench.measure("newton-medium", seed=3, seconds=0, trace=True, scale=TINY)
    assert _counts(first) == _counts(second)
    counted = [k for k, (unit, _) in bench.PER_LAYER.items() if unit == "count"]
    assert ({k: first["result"]["metrics"][k] for k in counted}
            == {k: second["result"]["metrics"][k] for k in counted})


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_another_seed_changes_the_inputs(name):
    meshes_a, ops_a = build_workload(name, 1)
    meshes_b, ops_b = build_workload(name, 2)
    assert meshes_a == meshes_b
    assert ops_a != ops_b
    assert ops_a == build_workload(name, 1)[1]


def test_absent_wrap_target_is_reported_not_zeroed(monkeypatch):
    targets = tuple(("femchp.solver", "no_such_function", span) if span == "solver.assemble_hessian"
                    else (mod, path, span) for mod, path, span in tracer.WRAP_TARGETS)
    monkeypatch.setattr(tracer, "WRAP_TARGETS", targets)
    result, record = bench.measure("newton-medium", seed=1, seconds=0, trace=True,
                                   scale=TINY)
    assert record["spans"]["absent"] == ["femchp.solver.no_such_function"]
    assert result["correct"]
    metrics = result["metrics"]
    assert "solver.assemble_hessian_s" not in metrics
    assert "solver.hessian_bytes_max" not in metrics
    assert metrics["solver.factor_attempts"]["value"] > 0


def test_a_raising_op_is_counted_as_failed(monkeypatch):
    real = bench.run_op

    def flaky(op, mesh, tr):
        if op.energy is None:
            raise RuntimeError("injected")
        return real(op, mesh, tr)

    monkeypatch.setattr(bench, "run_op", flaky)
    result, _ = bench.measure("certify-large", seed=1, seconds=0, trace=False, scale=TINY)
    assert not result["correct"]
    assert result["failed"] == 4 * bench.MIN_PASSES   # the four oracle ops of each pass


def test_normalised_durations_add_up():
    with probe.SpeedProbe() as speed:
        marks = []
        for _ in range(4):
            marks.append(time.perf_counter())
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                probe.kernel()
        marks.append(time.perf_counter())
    assert len(speed.start) >= 8
    parts = sum(speed.normalised_s(a, b) for a, b in zip(marks, marks[1:]))
    assert parts == pytest.approx(speed.normalised_s(marks[0], marks[-1]), rel=1e-9)
    assert speed.start == sorted(speed.start)
    assert speed.normalised_s(marks[1], marks[1]) == 0.0
