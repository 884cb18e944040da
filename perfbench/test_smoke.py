"""Smoke test of the benchmark: every workload once at tiny scale, all checks on."""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_workload_runs_clean(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv + ["--scale", "tiny", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert any(line.startswith("stamp: ") for line in lines)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{workload}-seed7-trace{trace}.json"]


def test_oracle_ties_go_to_the_lowest_class_index():
    # Generated scores never tie, so the tie rules are pinned here by hand.
    scores = np.array([[0.2, 0.5, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25]])
    assert oracles._borda(scores).tolist() == [[2, 3, 1, 0], [3, 2, 1, 0]]
    assert oracles._mpca(scores, np.array([1, 0])) == 1.0


def test_traced_op_restores_the_program(tmp_path):
    # Spans wrap the program's own functions only while a traced command runs.
    originals = [vars(owner)[attr] for owner, attr, _ in run.tracing.CALLS]
    inputs = run.workloads.setup("evaluate-wide", 7, run.workloads.SCALES["tiny"]["evaluate-wide"], tmp_path)
    tracer = run.tracing.Tracer()
    with run.sweep_threads("1"):
        op = run.run_op("evaluate-wide", inputs, tmp_path / "op", tracer)
    assert not op.errors
    assert [vars(owner)[attr] for owner, attr, _ in run.tracing.CALLS] == originals
    names = {span[2] for span in tracer.spans}
    assert {"cli.evaluate", "dataio.read_matrix_csv", "fusion.sweep", "fusion.fuse.borda", "core.table_build"} <= names
