"""End-to-end benchmark of the ``emhash`` train -> encode -> eval pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload anchor-sweep --seed 1 --seconds 32 --trace 0

``--workload all`` runs every workload of ``BENCHMARK.json`` in turn.

The workload's inputs are generated from ``--seed`` (``workloads.py``,
parameters in ``spec.json``); generation is never timed.  With
``--trace 0`` every iteration starts a fresh interpreter for each of
``emhash train``, ``encode`` and ``eval``, and the first three also for the
set-up probe; each process's wall clock and, from ``os.wait4``, peak RSS
are recorded.  Iterations go on while another one fits in ``--seconds``
(at least three).  ``setup_s`` and each peak RSS is the median of the run,
every other time metric its slowest iteration (see ``summarize_untraced``).
With ``--trace 1`` a child process runs
the same three stages in-process through ``emhash.cli.main`` with the
layer wrappers of ``tracer.py`` installed and the per-layer metrics are
medians over its traced passes.  Every stage's outputs are checked; a
stage that exits non-zero, prints a traceback or fails a check counts as
failed, and then the exit code is 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, every metric with its unit and sample count, the
output digests and, for a traced run, the self-time table of each stage.
``--smoke`` runs the workload at its toy size from ``spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import STAGES, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = HERE / "baseline.json"
# Output files each stage writes; they are removed before the stage runs, so
# a stage that stops writing one cannot pass on an earlier run's file.
STAGE_OUTPUTS = {"train": ("codes", "model"), "encode": ("query_codes",), "eval": ("metrics",)}
METRICS_SCHEMA = "emhash-metrics/1"
# BLAS threads of every stage process; single-threaded BLAS keeps timings
# steady and, times --threads, at or below the core count.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STAGE_TIMEOUT_S = 150.0
MIN_ITERATIONS = 3
# Set-up probes per run; later iterations skip the probe, leaving their time
# to more samples of the three stages.
SETUP_PROBES = 3


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


@dataclass(frozen=True)
class Finished:
    """One stage process that has ended."""

    seconds: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


def stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(PINNED_THREADS)
    return env


def run_process(argv: list[str], env: dict, log_dir: Path, label: str) -> Finished:
    """Run one process to completion; wall clock and peak RSS from outside it."""
    out_path, err_path = log_dir / f"{label}.out", log_dir / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        seconds=seconds,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


class Checker:
    """Output checks of every stage run, with the counts of stages attempted and failed.

    Data outputs must be byte-identical across all runs of one commit, so
    the first digest of each output becomes the reference for the rest.
    """

    def __init__(self, params: dict, inputs, out: Path) -> None:
        from workloads import codes_name

        self.params = params
        self.inputs = inputs
        self.out = out
        self.files = {
            "codes": out / "run" / codes_name(params),
            "model": out / "run" / "model.emh",
            "query_codes": out / "queries_codes",
            "metrics": out / "metrics.json",
        }
        self.reference: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def stage_files(self, stage: str) -> dict[str, Path]:
        return {key: self.files[key] for key in STAGE_OUTPUTS[stage]}

    def outputs_of(self, stage: str) -> dict[str, object]:
        """Digests (and, for eval, the metrics JSON) a stage has just written."""
        if stage == "eval":
            path = self.files["metrics"]
            return {"metrics": json.loads(path.read_text()) if path.is_file() else None}
        return {key: digest(path) for key, path in self.stage_files(stage).items()}

    def record(self, stage: str, code: int, stderr: str, outputs: dict, stdout: str = "") -> None:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if not problems:
            problems += self._check(stage, outputs, stdout)
        if problems:
            self.failures.append(f"{stage}: {'; '.join(problems)}")

    def _same(self, key: str, value) -> list[str]:
        if value is None:
            return [f"{key} missing"]
        first = self.reference.setdefault(key, value)
        return [] if value == first else [f"{key} differs from the first run"]

    def _check(self, stage: str, outputs: dict, stdout: str) -> list[str]:
        if stage == "setup":
            want = f"points={self.inputs.n} labels={self.inputs.n}"
            return [] if want in stdout else [f"probe printed {stdout.strip()!r}, want {want!r}"]
        if stage in ("train", "encode"):
            return [problem for key, value in outputs.items() for problem in self._same(key, value)]
        if stage != "eval":
            return []
        metrics = outputs.get("metrics")
        if not isinstance(metrics, dict):
            return ["metrics JSON missing"]
        problems = []
        if metrics.get("schema") != METRICS_SCHEMA:
            problems.append(f"schema {metrics.get('schema')!r}")
        if metrics.get("queries") != self.inputs.queries_n:
            problems.append(f"{metrics.get('queries')} queries, want {self.inputs.queries_n}")
        value = metrics.get("map")
        if not isinstance(value, float) or value < self.params["map_floor"]:
            problems.append(f"map {value!r} below the floor {self.params['map_floor']}")
        return problems + self._same("map", value)

    def verify_files(self) -> None:
        """Codes on disk are readable and have the expected shape.

        Every run's digest matches the first, so this covers all of them.
        """
        from emhash import dataio

        bits, fmt = self.params["bits"], self.params["codes_format"]
        for key, rows in (("codes", self.inputs.n), ("query_codes", self.inputs.queries_n)):
            try:
                shape = dataio.read_codes(self.files[key], fmt).shape
            except (OSError, ValueError) as exc:
                self.failures.append(f"read {key}: {exc}")
                continue
            if shape != (rows, bits):
                self.failures.append(f"{key} shape {shape}, want {(rows, bits)}")


def environment(args, workload: str) -> dict:
    import numpy
    import scipy
    from workloads import THREADS

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": PINNED_THREADS,
        "threads": THREADS,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def summarize_untraced(samples: dict[str, list[float]]) -> dict[str, float]:
    """One value per metric from a run's iterations.

    On a shared machine whose speed switches between a common contended state
    and shorter faster spells, the median of a few iterations lands in either
    state from run to run; the slowest iteration almost always comes from
    the common state, so it moves much less between runs, and less the more
    iterations a run has.  ``setup_s`` keeps the median of its probes, and
    peak RSS, which does not depend on speed, the median of the iterations.
    """
    return {
        name: _median(series) if name == "setup_s" or name.endswith("_rss_mb") else max(series)
        for name, series in samples.items()
    }


def measure_untraced(args, params: dict, inputs, work: Path, checker: Checker) -> dict:
    """Fresh-process iterations of set-up probe, train, encode and eval."""
    from workloads import stage_args

    env = stage_env()
    logs = work / "logs"
    logs.mkdir()
    stages = stage_args(params, inputs, checker.out, args.seed)
    probe = [sys.executable, str(HERE / "setup_probe.py"), *stages["train"]]

    warm = run_process(probe, env, logs, "warmup")  # untimed: fills caches and bytecode
    checker.record("setup", warm.code, warm.stderr, {}, warm.stdout)

    samples: dict[str, list[float]] = {}
    begin = time.perf_counter()
    longest = 0.0
    iteration = 0
    minimum = 1 if args.smoke else MIN_ITERATIONS
    while iteration < minimum or time.perf_counter() - begin + longest <= args.seconds:
        if iteration < SETUP_PROBES:
            done = run_process(probe, env, logs, f"setup{iteration}")
            checker.record("setup", done.code, done.stderr, {}, done.stdout)
            samples.setdefault("setup_s", []).append(done.seconds)
        start = time.perf_counter()  # the stages alone predict a later iteration
        for stage in STAGES:
            for path in checker.stage_files(stage).values():
                path.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "emhash.cli", *stages[stage]]
            done = run_process(argv, env, logs, f"{stage}{iteration}")
            checker.record(stage, done.code, done.stderr, checker.outputs_of(stage))
            samples.setdefault(f"{stage}_s", []).append(done.seconds)
            if stage in ("train", "eval"):
                samples.setdefault(f"{stage}_peak_rss_mb", []).append(done.peak_rss_mb)
        longest = max(longest, time.perf_counter() - start)
        iteration += 1
    checker.verify_files()
    values = summarize_untraced(samples)
    if "map" in checker.reference:
        values["map"] = checker.reference["map"]
    return {"values": values, "samples": samples}


def _per_layer_values(summary: dict, memory: dict) -> dict[str, float]:
    from tracer import LAYERS

    layers, counters = summary["layers"], summary["counters"]

    def seconds(stem: str) -> float:
        return layers.get(stem, {}).get("seconds", 0.0)

    def calls(stem: str) -> int:
        return layers.get(stem, {}).get("calls", 0)

    values: dict[str, float] = {}
    for stem in LAYERS:
        values[f"{stem}_s"] = seconds(stem)
        values[f"{stem}_calls"] = calls(stem)
    for stage in STAGES:
        values[f"cli.{stage}_s"] = seconds(f"cli.{stage}")
    values["cli.self_s"] = sum(layers.get(f"cli.{s}", {}).get("self", 0.0) for s in STAGES)
    values["evaluation.relevance_s"] = seconds("evaluation.map") - seconds("evaluation.rank")
    for name in ("dataio.similarity_pairs", "evaluation.relevance_pairs"):
        values[name] = counters.get(name, 0)
    informative = counters.get("mean_field.informative_rows", 0)
    rows = informative + counters.get("mean_field.uninformative_rows", 0)
    values["mean_field.rows_solved"] = rows
    values["mean_field.informative_share"] = informative / rows if rows else 0.0
    for name in ("energy_models.tail_peak_bytes", "evaluation.map_peak_bytes"):
        values[name] = memory.get(name, 0)
    return values


def stage_self_table(spans: list, run_id: int) -> dict[str, list[tuple[str, float]]]:
    """Self seconds per layer within each stage of one traced pass, largest first."""
    from tracer import self_times

    own = self_times(spans)
    roots: list[int] = []
    table: dict[str, dict[str, float]] = {}
    for index, (layer, _, _, parent, rid) in enumerate(spans):
        roots.append(index if parent < 0 else roots[parent])
        if rid != run_id:
            continue
        stage = spans[roots[index]][0]
        per_layer = table.setdefault(stage, {})
        per_layer[layer] = per_layer.get(layer, 0.0) + own[index]
    return {
        stage: sorted(per_layer.items(), key=lambda item: -item[1])
        for stage, per_layer in table.items()
    }


def trace_job(params: dict, inputs, checker: Checker, seed: int, seconds: float) -> dict:
    """The job ``tracer.run_job`` runs: stage argument lists, outputs and time budget."""
    from workloads import stage_args

    return {
        "stages": stage_args(params, inputs, checker.out, seed),
        "outputs": {
            stage: {key: str(path) for key, path in checker.stage_files(stage).items()}
            for stage in STAGES
        },
        "seconds": seconds,
    }


def measure_traced(args, params: dict, inputs, work: Path, checker: Checker) -> dict:
    """One child process runs warm-up, untraced/traced pairs and a memory pass."""
    job = trace_job(params, inputs, checker, args.seed, args.seconds)
    job["spans_out"] = str(work / "spans.json")
    job["result_out"] = str(work / "trace.json")
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    logs = work / "logs"
    logs.mkdir()
    argv = [sys.executable, str(HERE / "tracer.py"), str(job_path)]
    done = run_process(argv, stage_env(), logs, "tracer")
    checker.record("tracer", done.code, done.stderr, {})
    if done.code != 0 or not (work / "trace.json").is_file():
        sys.stderr.write(done.stderr[-4000:])
        return {"values": {}, "samples": {}, "tables": {}}
    result = json.loads((work / "trace.json").read_text())
    for record in result["passes"]:
        for stage, code in record["exit"].items():
            if stage == "eval":
                outputs = {"metrics": record.get("metrics")}
            else:
                outputs = {key: record["digests"].get(key) for key in STAGE_OUTPUTS[stage]}
            checker.record(stage, code, "", outputs)
    checker.verify_files()

    traced = [r for r in result["passes"] if r["kind"] == "traced"]
    untraced = [r for r in result["passes"] if r["kind"] == "untraced"]
    per_pass = [
        _per_layer_values(result["summaries"][str(r["run_id"])], result["memory"]) for r in traced
    ]
    values = {}
    for name, first in per_pass[0].items():
        series = [v[name] for v in per_pass]
        if isinstance(first, int):
            # Counts are a property of the inputs and must repeat exactly.
            if len(set(series)) > 1:
                checker.failures.append(f"count {name} differs between traced passes: {series}")
            values[name] = first
        else:
            values[name] = _median(series)
    values["trace_overhead"] = _median([sum(r["seconds"].values()) for r in traced]) - _median(
        [sum(r["seconds"].values()) for r in untraced]
    )
    spans = json.loads((work / "spans.json").read_text())
    tables = stage_self_table(spans, traced[0]["run_id"])
    samples = {
        "traced_pass_s": [sum(r["seconds"].values()) for r in traced],
        "untraced_pass_s": [sum(r["seconds"].values()) for r in untraced],
    }
    return {"values": values, "samples": samples, "tables": tables}


def report_against_baseline(name: str, seed: int, outputs: dict) -> None:
    """Compare this seed's map and digests with the baseline commit's, if recorded.

    A performance change should leave every output byte-identical; a change
    is reported, not failed, because a deliberate algorithm change moves them.
    """
    recorded = json.loads(BASELINE.read_text())
    expected = recorded.get("outputs", {}).get(name, {}).get(str(seed))
    if expected is None:
        print(f"baseline: no outputs recorded for seed {seed}")
        return
    changed = [key for key, value in expected.items() if outputs.get(key) != value]
    print(
        f"baseline {recorded['commit']}, seed {seed}: map {outputs.get('map')!r} "
        f"against {expected['map']!r}; "
        + (f"CHANGED {', '.join(changed)}" if changed else "all outputs identical")
    )


def run_workload(args, name: str, bench: dict) -> dict:
    """Generate, measure and check one workload; print its report; return the result."""
    from workloads import generate, workload_params

    params = workload_params(name, smoke=args.smoke)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(params, args.seed, work / "data")
        checker = Checker(params, inputs, work / "out")
        measure = measure_traced if args.trace else measure_untraced
        measured = measure(args, params, inputs, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"env {json.dumps(environment(args, name), sort_keys=True)}")
    for stage, rows in measured.get("tables", {}).items():
        print(f"self time, {stage} (largest first):")
        for layer, seconds in rows:
            print(f"  {layer:32s} {seconds:10.4f} s")
    values = measured["values"]
    metrics = {}
    for metric in declared:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
            print(f"{metric['name']} = {values[metric['name']]!r} {metric['unit']}")
    for series_name, series in measured["samples"].items():
        print(f"samples {series_name} n={len(series)}: {' '.join(f'{v:.4f}' for v in series)}")
    print(f"digests {json.dumps(checker.reference, sort_keys=True)}")
    if not args.smoke:
        report_against_baseline(name, args.seed, checker.reference)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        checker.failures.append(f"metrics not produced: {', '.join(missing)}")
    for failure in checker.failures:
        print(f"FAILED {failure}")
    failed = len(checker.failures)
    print(f"stages attempted={checker.attempted} failed={failed}")
    return {"correct": failed == 0, "attempted": checker.attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the workload at toy size")
    args = parser.parse_args(argv)

    if not (SRC / "emhash" / "cli.py").is_file():
        print(f"emhash sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"{spec_path} not found", file=sys.stderr)
        return 2
    bench = json.loads(spec_path.read_text())
    known = [workload["name"] for workload in bench["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if not set(names) <= set(known):
        print(f"unknown workload {args.workload!r}; known: {', '.join(known)}, all", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if len(names) == 1:
        result = run_workload(args, names[0], bench)
    else:
        results = {}
        for name in names:
            print(f"== {name}")
            results[name] = run_workload(args, name, bench)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
