"""Smoke test of the benchmark harness: every workload shape at toy size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*extra: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_declared_metric(trace):
    result = result_of(bench("--workload", "all", "--trace", str(trace), "--smoke"))
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        f"{workload}.{name}": unit for workload in WORKLOADS for name, unit in declared.items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_one_workload_reports_bare_metric_names():
    result = result_of(bench("--workload", WORKLOADS[0], "--trace", "0", "--smoke"))
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_stage_wall_clock(workload, tmp_path):
    params = workloads.workload_params(workload, smoke=True)
    inputs = workloads.generate(params, 5, tmp_path / "data")
    checker = run.Checker(params, inputs, tmp_path / "out")
    result = tracer.run_job(run.trace_job(params, inputs, checker, seed=5, seconds=0))
    spans = result["spans"]
    assert all(span[0] in tracer.LAYERS or span[0].startswith("cli.") for span in spans)
    own = tracer.self_times(spans)
    assert min(own) >= -1e-9, "a child span outlasts its parent"
    traced = [record for record in result["passes"] if record["kind"] == "traced"]
    assert traced
    for record in traced:
        # The stage clock runs outside the spans, so it checks them independently.
        self_total = sum(o for o, span in zip(own, spans) if span[4] == record["run_id"])
        stage_total = sum(record["seconds"].values())
        assert self_total == pytest.approx(stage_total, rel=0.01, abs=0.005)
        layers = result["summaries"][record["run_id"]]["layers"]
        assert sum(entry["self"] for entry in layers.values()) == pytest.approx(self_total)
    assert all(record["exit"] == {s: 0 for s in record["exit"]} for record in result["passes"])
    assert len({record["digests"]["codes"] for record in result["passes"]}) == 1


def test_informative_share_counts_rows_not_calls():
    from emhash import energy_models, mean_field

    rng = np.random.default_rng(0)
    shared = rng.standard_normal((4, 4))
    eig = energy_models.eigendecompose_shared(shared + shared.T)
    lin = mean_field.fit_linearization(2.0)
    rows = rng.standard_normal((5, 4))
    trace = tracer.Tracer()
    trace.install_timing()
    try:
        # The same five rows solved in one stacked call and one at a time.
        energy_models.batch_solve_shared(eig, rows, np.full(5, 4.0), lin)
        trace.run_id += 1
        for row in rows:
            energy_models.batch_solve_shared(eig, row[None, :], np.array([4.0]), lin)
    finally:
        trace.uninstall()
    assert trace.counters[0]["mean_field.informative_rows"] == 5
    assert trace.counters[1]["mean_field.informative_rows"] == 5


def test_uninstall_restores_every_wrapped_name():
    from emhash import cli, energy_models, mean_field

    names = [(cli, "em_ksh_train"), (energy_models, "solve_affine"), (mean_field, "solve_affine")]
    before = [getattr(module, name) for module, name in names]
    trace = tracer.Tracer()
    trace.install_timing()
    try:
        assert all(getattr(m, n) is not f for (m, n), f in zip(names, before))
    finally:
        trace.uninstall()
    assert all(getattr(m, n) is f for (m, n), f in zip(names, before))


def test_changed_output_counts_as_a_failed_stage(tmp_path):
    params = workloads.workload_params("anchor-sweep", smoke=True)
    inputs = workloads.generate(params, 5, tmp_path / "data")
    checker = run.Checker(params, inputs, tmp_path / "out")
    checker.record("train", 0, "", {"codes": "a", "model": "m"})
    checker.record("train", 0, "", {"codes": "b", "model": "m"})
    checker.record("encode", 0, "Traceback (most recent call last):", {"query_codes": "q"})
    checker.record("eval", 0, "", {"metrics": {"schema": "other", "queries": 20, "map": 0.5}})
    assert checker.attempted == 4
    assert len(checker.failures) == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
