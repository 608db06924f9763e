"""Command-line entry point.

Subcommands: ``train``, ``encode``, ``eval``, ``bench``, ``linearize``,
``synth``.  Every option can also come from a plain-text ``key=value``
config file via ``--config``; explicit flags win over file values, file
values win over defaults.  ``train`` and ``bench`` write a manifest in that
same format (plus informational ``format.*`` / ``timing.*`` keys, ignored on
load), so any run can be reproduced with ``--config <manifest>``.

All randomness is seeded, so repeating a run from its manifest reproduces
the data outputs byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codec, dataio, evaluation, mean_field
from .energy_models import (
    TrainConfig,
    check_dense_budget,
    em_ksh_train,
    em_lfh_train,
    em_splh_train,
    ksh_tail_pass,
)

__all__ = ["main", "RunConfig"]


class CliError(Exception):
    """User-facing failure: reported on stderr with a nonzero exit."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class _Opt:
    key: str
    kind: type
    default: object
    help: str
    choices: tuple = ()
    required: bool = False


_METHODS = ("em-ksh", "em-splh", "em-lfh")
_CODE_FORMATS = ("text", "packed")
_FEATURE_FORMATS = ("csv", "binary")
_THREADS_HELP = (
    "accepted so existing manifests keep loading; "
    "changes neither the work done nor the outputs"
)

_OPTS: dict[str, list[_Opt]] = {
    "train": [
        _Opt("features", str, None, "feature file to train on", required=True),
        _Opt("features_format", str, "csv", "feature file layout", _FEATURE_FORMATS),
        _Opt("labels", str, "", "separate label file (otherwise the CSV label column is used)"),
        _Opt("method", str, "em-ksh", "training energy", _METHODS),
        _Opt("bits", int, 32, "code length"),
        _Opt("anchors", int, 1000, "sampled similarity columns"),
        _Opt("sweeps", int, 3, "passes over the anchor rows"),
        _Opt("linear_range", float, 2.0, "sigmoid linearization half-interval"),
        _Opt("ridge", float, 1.0, "out-of-sample ridge strength"),
        _Opt("seed", int, 42, "initialization and sampling seed"),
        _Opt("threads", int, 1, _THREADS_HELP),
        _Opt("standardize", bool, True, "standardize features before use"),
        _Opt("codes_format", str, "text", "codes file layout", _CODE_FORMATS),
        _Opt("out_dir", str, None, "directory for codes, model and manifest", required=True),
    ],
    "encode": [
        _Opt("model", str, None, "projection model file", required=True),
        _Opt("queries", str, None, "feature file to encode", required=True),
        _Opt("queries_format", str, "csv", "query file layout", _FEATURE_FORMATS),
        _Opt("queries_labeled", bool, False, "ignore a trailing label column in the CSV"),
        _Opt("bits", int, 0, "expected code length (0 = take from the model)"),
        _Opt("codes_format", str, "text", "codes file layout", _CODE_FORMATS),
        _Opt("out", str, None, "output codes file", required=True),
    ],
    "eval": [
        _Opt("db_codes", str, None, "database codes file", required=True),
        _Opt("query_codes", str, None, "query codes file", required=True),
        _Opt("codes_format", str, "text", "codes file layout", _CODE_FORMATS),
        _Opt("db_labels", str, None, "database label file", required=True),
        _Opt("query_labels", str, None, "query label file", required=True),
        _Opt("exclude_self", bool, False, "drop database item i from the ranking of query i"),
        _Opt("out", str, "", "metrics JSON output path (optional)"),
    ],
    "bench": [
        _Opt("grid_n", str, "", "comma-separated point counts to time"),
        _Opt("grid_d", str, "", "comma-separated code lengths to profile"),
        _Opt("points", int, 3000, "point count for the code-length grid"),
        _Opt("anchors", int, 500, "anchor count"),
        _Opt("bits", int, 16, "code length for the point-count grid"),
        _Opt("sweeps", int, 3, "anchor sweeps"),
        _Opt("linear_range", float, 2.0, "sigmoid linearization half-interval"),
        _Opt("seed", int, 42, "synthetic data seed"),
        _Opt("threads", int, 1, _THREADS_HELP),
        _Opt("out", str, "", "timing table JSON output path (optional)"),
    ],
    "linearize": [
        _Opt("linear_range", float, 2.0, "half-interval to fit the sigmoid on"),
    ],
    "synth": [
        _Opt("clusters", int, 2, "number of Gaussian clusters"),
        _Opt("per_cluster", int, 100, "points per cluster"),
        _Opt("dim", int, 16, "feature dimension"),
        _Opt("separation", float, 6.0, "cluster center spread"),
        _Opt("spread", float, 1.0, "within-cluster noise"),
        _Opt("seed", int, 0, "generator seed"),
        _Opt("out", str, None, "labeled feature CSV to write", required=True),
    ],
}


@dataclass(frozen=True)
class RunConfig:
    """The validated, fully resolved options of one run."""

    subcommand: str
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]


def _convert(opt: _Opt, text: str):
    try:
        return _parse_bool(text) if opt.kind is bool else opt.kind(text)
    except ValueError as exc:
        raise CliError(f"config value for {opt.key!r}: {exc}") from None


def _read_config_file(path: str) -> dict[str, str]:
    config_path = Path(path)
    if not config_path.is_file():
        raise CliError(f"config file not found: {path}")
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(config_path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key == "subcommand" or "." in key:
            continue  # informational manifest keys
        mapping[key] = value.strip()
    return mapping


def _resolve(subcommand: str, flag_values: dict, config_path: str | None) -> RunConfig:
    opts = _OPTS[subcommand]
    by_key = {o.key: o for o in opts}
    values = {o.key: o.default for o in opts}
    if config_path:
        for key, text in _read_config_file(config_path).items():
            if key not in by_key:
                raise CliError(f"config key {key!r} is not an option of {subcommand!r}")
            values[key] = _convert(by_key[key], text)
    for key, value in flag_values.items():
        if key in by_key and value is not None:
            values[key] = value
    for opt in opts:
        if opt.required and values[opt.key] in (None, ""):
            raise CliError(f"missing required option --{opt.key.replace('_', '-')}")
        if opt.choices and values[opt.key] not in opt.choices:
            raise CliError(
                f"--{opt.key.replace('_', '-')} must be one of {', '.join(opt.choices)}"
            )
    return RunConfig(subcommand=subcommand, values=values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_manifest(path: Path, cfg: RunConfig, extras: dict) -> None:
    lines = [f"subcommand={cfg.subcommand}"]
    lines += [f"{key}={_format_value(cfg.values[key])}" for key in sorted(cfg.values)]
    lines += [f"{key}={extras[key]}" for key in sorted(extras)]
    path.write_text("\n".join(lines) + "\n")


def _write_sidecar_manifest(out_path: str | Path, cfg: RunConfig, extras: dict | None = None) -> Path:
    # Output files other than a train directory get `<name>.manifest` next to
    # them, so any artifact can be reproduced with --config.
    path = Path(str(out_path) + ".manifest")
    _write_manifest(path, cfg, extras or {})
    return path


def _load_training_dataset(cfg: RunConfig) -> dataio.Dataset:
    features_path = Path(cfg["features"])
    if not features_path.is_file():
        raise CliError(f"feature file not found: {features_path}")
    if cfg["labels"]:
        labels_path = Path(cfg["labels"])
        if not labels_path.is_file():
            raise CliError(f"label file not found: {labels_path}")
        loaded = dataio.load_feature_matrix(features_path, cfg["features_format"])
        labels = dataio.load_label_file(labels_path)
        if len(labels) != loaded.n:
            raise CliError(f"{len(labels)} labels for {loaded.n} points")
        return dataio.Dataset(features=loaded.features, labels=labels)
    if cfg["features_format"] == "binary":
        raise CliError("binary feature files carry no labels; pass --labels")
    return dataio.load_feature_matrix(features_path, "csv", labeled=True)


def run_train(cfg: RunConfig) -> int:
    total_start = time.perf_counter()
    dataset = _load_training_dataset(cfg)
    if dataset.labels is None or all(label is None for label in dataset.labels):
        raise CliError("training requires labeled points")
    if dataset.n < 1:
        raise CliError("training requires at least one point")

    if cfg["standardize"]:
        feats, offset, scale = dataio.standardize_features(dataset.features)
    else:
        feats = dataset.features
        offset = np.zeros(feats.shape[1])
        scale = np.ones(feats.shape[1])

    lin = mean_field.fit_linearization(cfg["linear_range"])
    method = cfg["method"]
    train_start = time.perf_counter()
    if method == "em-splh":
        # Refuse oversize inputs before the n-by-n block is allocated.
        check_dense_budget((dataset.n, dataset.n))
        sim = dataio.full_similarity(dataset.labels)
        tcfg = TrainConfig(
            bits=cfg["bits"], anchors=1, sweeps=cfg["sweeps"],
            linear_range=cfg["linear_range"], seed=cfg["seed"],
        )
        phi = em_splh_train(sim, tcfg, lin)
        print(
            "em-splh: all bit columns are identical; the output carries 1 effective bit",
            file=sys.stderr,
        )
    else:
        anchors = cfg["anchors"]
        if anchors > dataset.n:
            raise CliError(f"anchor count {anchors} exceeds point count {dataset.n}")
        view, order = dataio.sample_similarity_columns(dataset, anchors, cfg["seed"])
        tcfg = TrainConfig(
            bits=cfg["bits"], anchors=anchors, sweeps=cfg["sweeps"],
            linear_range=cfg["linear_range"], seed=cfg["seed"],
        )
        trainer = em_ksh_train if method == "em-ksh" else em_lfh_train
        permuted = trainer(view, tcfg, lin)
        phi = np.empty_like(permuted)
        phi[order] = permuted
    train_seconds = time.perf_counter() - train_start

    codes, thresholds = codec.round_codes(phi)
    model = codec.fit_projection(feats, phi, ridge=cfg["ridge"]).with_standardization(
        offset, scale
    )

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    codes_name = "codes.txt" if cfg["codes_format"] == "text" else "codes.bin"
    dataio.write_codes(out_dir / codes_name, codes, cfg["codes_format"])
    codec.save_projection(out_dir / "model.emh", model)
    (out_dir / "thresholds.txt").write_text(
        "\n".join(repr(float(t)) for t in thresholds) + "\n"
    )
    extras = {
        "format.codes": "EMHBIN01" if cfg["codes_format"] == "packed" else "text-v1",
        "format.matrix": dataio.MATRIX_MAGIC.decode(),
        "format.model": codec.MODEL_MAGIC.decode(),
        "timing.train_seconds": f"{train_seconds:.6f}",
        "timing.total_seconds": f"{time.perf_counter() - total_start:.6f}",
    }
    _write_manifest(out_dir / "manifest.txt", cfg, extras)

    print(f"points={dataset.n}")
    print(f"bits={cfg['bits']}")
    print(f"codes={out_dir / codes_name}")
    print(f"model={out_dir / 'model.emh'}")
    print(f"manifest={out_dir / 'manifest.txt'}")
    print(f"train_seconds={train_seconds:.3f}")
    return 0


def run_encode(cfg: RunConfig) -> int:
    model_path = Path(cfg["model"])
    if not model_path.is_file():
        raise CliError(f"model file not found: {model_path}")
    model = codec.load_projection(model_path)
    if cfg["bits"] and cfg["bits"] != model.bits:
        raise CliError(f"model carries {model.bits} bits but {cfg['bits']} were requested")
    queries_path = Path(cfg["queries"])
    if not queries_path.is_file():
        raise CliError(f"query feature file not found: {queries_path}")
    queries = dataio.load_feature_matrix(
        queries_path, cfg["queries_format"], labeled=cfg["queries_labeled"]
    )
    codes = codec.encode_batch(model, queries.features)
    dataio.write_codes(cfg["out"], codes, cfg["codes_format"])
    _write_sidecar_manifest(cfg["out"], cfg, {"format.model": codec.MODEL_MAGIC.decode()})
    print(f"encoded={codes.shape[0]}")
    print(f"out={cfg['out']}")
    return 0


def run_eval(cfg: RunConfig) -> int:
    db_codes = dataio.read_codes(cfg["db_codes"], cfg["codes_format"])
    query_codes = dataio.read_codes(cfg["query_codes"], cfg["codes_format"])
    db_labels = dataio.load_label_file(cfg["db_labels"])
    query_labels = dataio.load_label_file(cfg["query_labels"])
    if len(db_labels) != db_codes.shape[0]:
        raise CliError(f"{len(db_labels)} labels for {db_codes.shape[0]} database codes")
    if len(query_labels) != query_codes.shape[0]:
        raise CliError(f"{len(query_labels)} labels for {query_codes.shape[0]} query codes")
    result = evaluation.mean_average_precision(
        query_codes, query_labels, db_codes, db_labels, exclude_self=cfg["exclude_self"]
    )
    for line in evaluation.metrics_lines(result):
        print(line)
    if cfg["out"]:
        evaluation.write_metrics_json(cfg["out"], result)
        _write_sidecar_manifest(cfg["out"], cfg, {"format.metrics": evaluation.METRICS_SCHEMA})
        print(f"metrics={cfg['out']}")
    return 0


def _parse_grid(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"grid must be comma-separated integers, got {text!r}") from None
    if any(size < 2 for size in sizes):
        raise CliError("grid sizes must be >= 2")
    return sizes


def _bench_labels(n: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, n])
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1  # both classes always present
    return [int(v) for v in labels]


def run_bench(cfg: RunConfig) -> int:
    grid_n = _parse_grid(cfg["grid_n"])
    grid_d = _parse_grid(cfg["grid_d"])
    if not grid_n and not grid_d:
        raise CliError("provide --grid-n and/or --grid-d")
    lin = mean_field.fit_linearization(cfg["linear_range"])
    rows: list[dict] = []

    # Point-count cases vary n at --bits; code-length cases vary bits at --points.
    cases = [("n", n, cfg["bits"]) for n in grid_n] + [("d", cfg["points"], d) for d in grid_d]
    for grid, n, bits in cases:
        anchors = min(cfg["anchors"], n)
        dataset = dataio.Dataset(np.zeros((n, 1)), _bench_labels(n, cfg["seed"]))
        view, _ = dataio.sample_similarity_columns(dataset, anchors, cfg["seed"])
        tcfg = TrainConfig(
            bits=bits, anchors=anchors, sweeps=cfg["sweeps"],
            linear_range=cfg["linear_range"], seed=cfg["seed"],
        )
        start = time.perf_counter()
        em_ksh_train(view, tcfg, lin)
        elapsed = time.perf_counter() - start
        row = {"grid": grid, "size": n if grid == "n" else bits, "train_seconds": elapsed}
        if grid == "n":
            print(f"grid=n size={n} anchors={anchors} train_seconds={elapsed:.3f}")
        else:
            # Peak temporary memory of the one-shot tail stage alone.
            anchor_phi = np.random.default_rng([cfg["seed"], bits]).random((anchors, bits))
            tracemalloc.start()
            ksh_tail_pass(anchor_phi, view, lin)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            row["tail_peak_bytes"] = peak
            print(
                f"grid=d size={bits} points={n} train_seconds={elapsed:.3f} "
                f"tail_peak_bytes={peak}"
            )
        rows.append(row)

    for kind in ("n", "d"):
        series = [row for row in rows if row["grid"] == kind]
        for prev, cur in zip(series, series[1:]):
            ratio = cur["train_seconds"] / max(prev["train_seconds"], 1e-12)
            print(
                f"ratio grid={kind} sizes={prev['size']}->{cur['size']} "
                f"time_ratio={ratio:.3f}"
            )
            if kind == "d":
                mem_ratio = cur["tail_peak_bytes"] / max(prev["tail_peak_bytes"], 1)
                print(
                    f"ratio grid=d sizes={prev['size']}->{cur['size']} "
                    f"tail_memory_ratio={mem_ratio:.3f}"
                )
    if cfg["out"]:
        import json

        Path(cfg["out"]).write_text(json.dumps({"rows": rows}, indent=2) + "\n")
        _write_sidecar_manifest(cfg["out"], cfg)
        print(f"table={cfg['out']}")
    return 0


def run_linearize(cfg: RunConfig) -> int:
    half_range = cfg["linear_range"]
    lin = mean_field.fit_linearization(half_range)
    grid = np.linspace(-half_range, half_range, 20001)
    fit_error = np.max(
        np.abs(mean_field.sigmoid(grid) - (lin.slope * grid + lin.intercept))
    )
    print(f"half_range={half_range!r}")
    print(f"slope={lin.slope:.6f}")
    print(f"intercept={lin.intercept:.9f}")
    print(f"max_abs_error={fit_error:.6f}")
    print(f"condition_holds={'true' if mean_field.check_condition(lin) else 'false'}")
    return 0


def run_synth(cfg: RunConfig) -> int:
    dataset = dataio.synthesize_clusters(
        clusters=cfg["clusters"],
        per_cluster=cfg["per_cluster"],
        dim=cfg["dim"],
        separation=cfg["separation"],
        spread=cfg["spread"],
        seed=cfg["seed"],
    )
    dataio.write_feature_csv(cfg["out"], dataset.features, dataset.labels)
    _write_sidecar_manifest(cfg["out"], cfg)
    print(f"points={dataset.n}")
    print(f"dim={cfg['dim']}")
    print(f"clusters={cfg['clusters']}")
    print(f"out={cfg['out']}")
    return 0


_RUNNERS = {
    "train": run_train,
    "encode": run_encode,
    "eval": run_eval,
    "bench": run_bench,
    "linearize": run_linearize,
    "synth": run_synth,
}

_SUMMARIES = {
    "train": "learn codes, fit the out-of-sample map, write outputs and a manifest",
    "encode": "encode a feature file with a trained projection model",
    "eval": "Hamming-ranking mean average precision of codes against labels",
    "bench": "time training across point counts or code lengths",
    "linearize": "inspect the sigmoid linearization for a half-interval",
    "synth": "generate a labeled clustered-Gaussian feature CSV",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emhash",
        description="supervised hashing by closed-form mean-field energy minimization",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, opts in _OPTS.items():
        sub = subparsers.add_parser(name, help=_SUMMARIES[name])
        for opt in opts:
            flag = "--" + opt.key.replace("_", "-")
            if opt.kind is bool:
                group = sub.add_mutually_exclusive_group()
                group.add_argument(
                    flag, dest=opt.key, action="store_true", default=None, help=opt.help
                )
                group.add_argument(
                    "--no-" + opt.key.replace("_", "-"),
                    dest=opt.key,
                    action="store_false",
                    default=None,
                    help=f"disable {flag}",
                )
            else:
                sub.add_argument(
                    flag,
                    dest=opt.key,
                    type=opt.kind,
                    default=None,
                    choices=opt.choices or None,
                    help=opt.help,
                )
        sub.add_argument("--config", default=None, help="key=value file with option defaults")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    subcommand = args.subcommand
    try:
        cfg = _resolve(subcommand, vars(args), args.config)
        return _RUNNERS[subcommand](cfg)
    except (CliError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"emhash {subcommand}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
