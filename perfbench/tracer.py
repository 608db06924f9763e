"""Traced in-process run of the pipeline, with spans recorded at layer boundaries.

The wrappers live here, in the benchmark, not in the program: ``Tracer``
replaces each public function listed in ``LAYERS`` by a timing wrapper in
every loaded ``emhash`` module that refers to it (so the names ``cli`` and
``energy_models`` import directly are covered too), and restores the
originals on ``uninstall``.  Spans are kept in memory as
``(layer, start, end, parent, run_id)`` and written out when the run ends.

Run as a child process: ``python3 tracer.py JOB.json``.  The job names the
three ``emhash`` argument lists, each stage's output files to digest and a
time budget.  The child makes one untraced warm-up pass, then alternates
untraced and traced passes while the budget lasts (at least one pair), and
ends with a memory pass that holds ``tracemalloc`` only around the tail pass
and the mAP computation, so its cost never lands on a timed span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

# Metric stem -> the public functions whose calls form that layer's spans.
LAYERS = {
    "dataio.load": ("dataio.load_feature_matrix", "dataio.load_label_file"),
    "dataio.similarity": ("dataio.sample_similarity_columns", "dataio.full_similarity"),
    "dataio.codes_io": ("dataio.write_codes", "dataio.read_codes"),
    "energy_models.train": (
        "energy_models.em_ksh_train", "energy_models.em_lfh_train", "energy_models.em_splh_train",
    ),
    "energy_models.anchor_build": ("energy_models.ksh_anchor_system", "energy_models.lfh_system"),
    "energy_models.tail_pass": ("energy_models.ksh_tail_pass",),
    "energy_models.tail_build": ("energy_models.ksh_tail_systems",),
    "energy_models.eig": ("energy_models.eigendecompose_shared",),
    "energy_models.tail_solve": ("energy_models.batch_solve_shared",),
    "mean_field.linearization": ("mean_field.fit_linearization",),
    "mean_field.make_system": ("mean_field.make_system",),
    "mean_field.affine_solve": ("mean_field.solve_affine",),
    "mean_field.renormalize": ("mean_field.renormalize_and_squash",),
    "mean_field.homogeneous_solve": ("mean_field.solve_homogeneous",),
    "codec.round": ("codec.round_codes",),
    "codec.fit_projection": ("codec.fit_projection",),
    "codec.model_io": ("codec.save_projection", "codec.load_projection"),
    "codec.encode": ("codec.encode_batch", "codec.encode"),
    "evaluation.map": ("evaluation.mean_average_precision",),
    "evaluation.rank": ("evaluation.hamming_rank",),
}

# Spans opened by the run loop itself, one per ``cli.main`` call.
STAGES = ("train", "encode", "eval")

# Functions held under tracemalloc in the memory pass -> the metric they feed.
# em-lfh has no separate tail function; its sweeps allocate O(anchors*bits),
# so the peak over the whole call is the peak of its per-row tail.
MEMORY = {
    "energy_models.ksh_tail_pass": "energy_models.tail_peak_bytes",
    "energy_models.em_lfh_train": "energy_models.tail_peak_bytes",
    "evaluation.mean_average_precision": "evaluation.map_peak_bytes",
}


def _solved_rows(bound: inspect.BoundArguments, result) -> int:
    # Rows a solver returns: one for a single system's vector, one per row of
    # a stacked batch, so batching the same solves keeps the count.
    return 1 if np.ndim(result) == 1 else int(np.shape(result)[0])


def _uninformative_rows(bound: inspect.BoundArguments, result) -> int:
    # Rows a trainer returned at the uninformative 0.5 marginals: rows with no
    # observed similarity, which skip every solver.  Tail rows are solved once;
    # an anchor row takes that path in every sweep, because it depends only on
    # the row's similarities.
    m, sweeps = bound.arguments["sim"].m, bound.arguments["cfg"].sweeps
    flat = np.all(np.asarray(result) == 0.5, axis=1)
    return int(sweeps * flat[:m].sum() + flat[m:].sum())


def _relevance_pairs(bound: inspect.BoundArguments) -> int:
    args = bound.arguments
    queries, db = len(args["query_labels"]), len(args["db_labels"])
    return queries * db - (queries if args.get("exclude_self") else 0)


# Counters derived from a call's arguments or result: function -> (counter, rule).
COUNTERS = {
    "dataio.sample_similarity_columns": ("dataio.similarity_pairs", lambda b, r: int(r[0].s.size)),
    "dataio.full_similarity": ("dataio.similarity_pairs", lambda b, r: int(r.size)),
    "energy_models.batch_solve_shared": ("mean_field.informative_rows", _solved_rows),
    "mean_field.solve_affine": ("mean_field.informative_rows", _solved_rows),
    "mean_field.solve_homogeneous": ("mean_field.informative_rows", _solved_rows),
    "energy_models.em_ksh_train": ("mean_field.uninformative_rows", _uninformative_rows),
    "energy_models.em_lfh_train": ("mean_field.uninformative_rows", _uninformative_rows),
    "evaluation.mean_average_precision": (
        "evaluation.relevance_pairs", lambda b, r: _relevance_pairs(b),
    ),
}


def _resolve(qualified: str):
    module_name, attr = qualified.rsplit(".", 1)
    module = sys.modules[f"emhash.{module_name}"]
    return getattr(module, attr)


class Tracer:
    """Installs layer wrappers and collects spans and counters in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[int, dict[str, int]] = {}
        self.memory: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``layer``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent, self.run_id)

    def _timing_wrapper(self, layer: str, qualified: str, fn):
        counter = COUNTERS.get(qualified)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            if counter:
                name, rule = counter
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = self.counters.setdefault(self.run_id, {})
                counts[name] = counts.get(name, 0) + rule(bound, result)
            return result

        return traced

    def _memory_wrapper(self, metric: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.memory[metric] = max(self.memory.get(metric, 0), peak)

        return measured

    def _patch(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "emhash" and not name.startswith("emhash."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install_timing(self) -> None:
        for layer, functions in LAYERS.items():
            for qualified in functions:
                fn = _resolve(qualified)
                self._patch(fn, self._timing_wrapper(layer, qualified, fn))

    def install_memory(self) -> None:
        for qualified, metric in MEMORY.items():
            fn = _resolve(qualified)
            self._patch(fn, self._memory_wrapper(metric, fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list, counters: dict) -> dict[int, dict]:
    """Per pass: each layer's inclusive and self seconds and calls, plus counters.

    Inclusive time counts a span only when no enclosing span has the same
    layer, so a layer that calls itself is not counted twice.
    """
    own = self_times(spans)
    passes: dict[int, dict] = {}
    for index, (layer, start, end, parent, run_id) in enumerate(spans):
        summary = passes.setdefault(
            run_id, {"layers": {}, "counters": dict(counters.get(run_id, {}))}
        )
        entry = summary["layers"].setdefault(layer, {"seconds": 0.0, "self": 0.0, "calls": 0})
        entry["self"] += own[index]
        entry["calls"] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["seconds"] += end - start
    return passes


def digest(path: Path) -> str | None:
    """SHA-256 of a file's bytes, or None if the file is missing."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_job(job: dict) -> dict:
    """Run the passes a job asks for; return pass records and raw spans."""
    from emhash import cli

    tracer = Tracer()
    passes: list[dict] = []

    def one_pass(kind: str, stages=STAGES) -> dict:
        record = {"kind": kind, "run_id": tracer.run_id, "seconds": {}, "exit": {}, "digests": {}}
        for stage in stages:
            outputs = {key: Path(path) for key, path in job["outputs"][stage].items()}
            for path in outputs.values():
                path.unlink(missing_ok=True)
            start = time.perf_counter()
            if kind == "traced":
                code = tracer.span(f"cli.{stage}", cli.main, job["stages"][stage])
            else:
                code = cli.main(job["stages"][stage])
            record["seconds"][stage] = time.perf_counter() - start
            record["exit"][stage] = code
            for key, path in outputs.items():
                if key == "metrics":
                    metrics = json.loads(path.read_text()) if path.is_file() else {}
                    record["metrics"] = {k: metrics.get(k) for k in ("schema", "queries", "map")}
                else:
                    record["digests"][key] = digest(path)
        passes.append(record)
        tracer.run_id += 1
        return record

    begin = time.perf_counter()
    warm = one_pass("warmup")
    pass_s = sum(warm["seconds"].values())
    pairs = 0
    # Room for one more pair and the memory pass: a traced pass runs a little
    # slower than the warm-up, and the memory pass skips encode but runs the
    # tail and mAP under tracemalloc.
    while pairs < 1 or time.perf_counter() - begin + 3.5 * pass_s <= job["seconds"]:
        one_pass("untraced")
        tracer.install_timing()
        try:
            one_pass("traced")
        finally:
            tracer.uninstall()
        pairs += 1
    tracer.install_memory()
    try:
        one_pass("memory", stages=("train", "eval"))
    finally:
        tracer.uninstall()

    return {"passes": passes, "summaries": summarize(tracer.spans, tracer.counters),
            "memory": tracer.memory, "spans": tracer.spans}


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text())
    result = run_job(job)
    Path(job["spans_out"]).write_text(json.dumps(result["spans"]))
    del result["spans"]
    Path(job["result_out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
