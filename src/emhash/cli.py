"""Command-line entry point.

Subcommands: ``train``, ``encode``, ``eval``, ``linearize``, ``synth``.
Every option can also come from a plain-text ``key=value`` config file via
``--config``; explicit flags win over file values, file values win over
defaults.  argparse only collects flag values as text, so a flag's value and
a file's value are converted and checked by the same code.  Every failure, a
malformed command line included, is one ``emhash [<subcommand>]: ...`` line
on stderr and exit status 1.  ``train`` writes a manifest in the config
format (plus informational ``format.*`` / ``timing.*`` keys, ignored on
load) and the other output-producing subcommands a ``<output>.manifest``
sidecar, so any run can be reproduced with ``--config <manifest>``.

All randomness is seeded, so repeating a run from its manifest reproduces
the data outputs byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import time
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
)

__all__ = ["main"]


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

_OPTS: dict[str, list[_Opt]] = {
    "train": [
        _Opt("features", str, None, "feature file to train on", required=True),
        _Opt("features_format", str, "csv", "feature file layout", _FEATURE_FORMATS),
        _Opt("labels", str, "", "separate label file (otherwise the CSV label column is used)"),
        _Opt("method", str, "em-ksh", "training energy", _METHODS),
        _Opt("bits", int, TrainConfig.bits, "code length"),
        _Opt("anchors", int, 1000, "sampled similarity columns"),
        _Opt("sweeps", int, TrainConfig.sweeps, "passes over the anchor rows"),
        _Opt("linear_range", float, 2.0, "sigmoid linearization half-interval"),
        _Opt("ridge", float, 1.0, "out-of-sample ridge strength"),
        _Opt("seed", int, TrainConfig.seed, "initialization and sampling seed"),
        _Opt(
            "threads", int, 1,
            "accepted so existing manifests keep loading; "
            "changes neither the work done nor the outputs",
        ),
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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _convert(opt: _Opt, text: str, source: str):
    # ``source`` names where the text came from: a flag or a config key.
    try:
        value = _parse_bool(text) if opt.kind is bool else opt.kind(text)
    except ValueError as exc:
        raise CliError(f"{source}: {exc}") from None
    if opt.choices and value not in opt.choices:
        raise CliError(f"{source}: must be one of {', '.join(opt.choices)}, got {text!r}")
    return value


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


def _resolve(subcommand: str, flag_values: dict, config_path: str | None) -> dict:
    # The validated, fully resolved options of one run, with its "subcommand".
    opts = _OPTS[subcommand]
    by_key = {o.key: o for o in opts}
    values = {o.key: o.default for o in opts}
    if config_path:
        for key, text in _read_config_file(config_path).items():
            if key not in by_key:
                raise CliError(f"config key {key!r} is not an option of {subcommand!r}")
            values[key] = _convert(by_key[key], text, f"config value for {key!r}")
    for key, value in flag_values.items():
        if key in by_key and value is not None:
            # str() turns a boolean flag's True/False into text _parse_bool reads.
            values[key] = _convert(by_key[key], str(value), _flag(key))
    for opt in opts:
        if opt.required and values[opt.key] in (None, ""):
            raise CliError(f"missing required option {_flag(opt.key)}")
    return {"subcommand": subcommand, **values}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_manifest(path: Path, cfg: dict, extras: dict) -> None:
    lines = [f"subcommand={cfg['subcommand']}"]
    lines += [f"{key}={_format_value(cfg[key])}" for key in sorted(cfg) if key != "subcommand"]
    lines += [f"{key}={extras[key]}" for key in sorted(extras)]
    path.write_text("\n".join(lines) + "\n")


def _write_sidecar_manifest(out_path: str | Path, cfg: dict, extras: dict | None = None) -> Path:
    # Output files other than a train directory get `<name>.manifest` next to
    # them, so any artifact can be reproduced with --config.
    path = Path(str(out_path) + ".manifest")
    _write_manifest(path, cfg, extras or {})
    return path


def _load_training_dataset(cfg: dict) -> dataio.Dataset:
    features_path = Path(cfg["features"])
    if not features_path.is_file():
        raise CliError(f"feature file not found: {features_path}")
    if cfg["labels"]:
        labels_path = Path(cfg["labels"])
        if not labels_path.is_file():
            raise CliError(f"label file not found: {labels_path}")
        loaded = dataio.load_feature_matrix(features_path, cfg["features_format"])
        labels = dataio.load_label_file(labels_path)
        return dataio.Dataset(features=loaded.features, labels=labels)
    if cfg["features_format"] == "binary":
        raise CliError("binary feature files carry no labels; pass --labels")
    return dataio.load_feature_matrix(features_path, "csv", labeled=True)


def run_train(cfg: dict) -> int:
    total_start = time.perf_counter()
    # Every value that needs no data is checked before the features are read.
    tcfg = TrainConfig(bits=cfg["bits"], sweeps=cfg["sweeps"], seed=cfg["seed"])
    lin = mean_field.fit_linearization(cfg["linear_range"])
    codec.check_ridge(cfg["ridge"])
    dataset = _load_training_dataset(cfg)
    if dataset.n < 1:
        raise CliError("training requires at least one point")
    if all(label is None for label in dataset.labels):
        raise CliError("training requires labeled points")

    if cfg["standardize"]:
        feats, offset, scale = dataio.standardize_features(dataset.features)
        # Nothing reads the raw features again; let them go before training.
        dataset = dataio.Dataset(features=feats, labels=dataset.labels)
    else:
        feats = dataset.features
        offset = np.zeros(feats.shape[1])
        scale = np.ones(feats.shape[1])

    method = cfg["method"]
    train_start = time.perf_counter()
    if method == "em-splh":
        # The similarity of the distinct label sets, refused past the cap before it is built.
        groups, distinct = dataio.group_labels(dataset.labels)
        check_dense_budget(len(distinct))
        phi = em_splh_train((groups, dataio.full_similarity(distinct)), tcfg, lin)
        print(
            "em-splh: all bit columns are identical; the output carries 1 effective bit",
            file=sys.stderr,
        )
    else:
        view, order = dataio.sample_similarity_columns(dataset, cfg["anchors"], cfg["seed"])
        # A labeled anchor has a nonzero entry in its own label set's row, so s is
        # all zero exactly when every anchor is unlabeled.
        if not view.s.any():
            print(
                f"{method}: 0 of {view.m} anchors are labeled; every similarity to an "
                "anchor is unobserved, so every code is uninformative (all +1)",
                file=sys.stderr,
            )
        trainer = em_ksh_train if method == "em-ksh" else em_lfh_train
        phi = trainer(view, tcfg, lin)[np.argsort(order)]
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
        "format.codes": (
            dataio.CODES_MAGIC.decode() if cfg["codes_format"] == "packed" else "text-v1"
        ),
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


def run_encode(cfg: dict) -> int:
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


def run_eval(cfg: dict) -> int:
    db_codes = dataio.read_codes(cfg["db_codes"], cfg["codes_format"])
    query_codes = dataio.read_codes(cfg["query_codes"], cfg["codes_format"])
    db_labels = dataio.load_label_file(cfg["db_labels"])
    query_labels = dataio.load_label_file(cfg["query_labels"])
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


def run_linearize(cfg: dict) -> int:
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


def run_synth(cfg: dict) -> int:
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


_COMMANDS = {
    "train": (run_train, "learn codes, fit the out-of-sample map, write outputs and a manifest"),
    "encode": (run_encode, "encode a feature file with a trained projection model"),
    "eval": (run_eval, "Hamming-ranking mean average precision of codes against labels"),
    "linearize": (run_linearize, "inspect the sigmoid linearization for a half-interval"),
    "synth": (run_synth, "generate a labeled clustered-Gaussian feature CSV"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a malformed command line as a CliError."""

    def error(self, message: str):
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emhash",
        description="supervised hashing by closed-form mean-field energy minimization",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, summary) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=summary)
        for opt in _OPTS[name]:
            # argparse derives each dest, opt.key, from the flag; unset flags read None.
            if opt.kind is bool:
                action = argparse.BooleanOptionalAction
                sub.add_argument(_flag(opt.key), action=action, help=opt.help)
            else:
                metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
                sub.add_argument(_flag(opt.key), metavar=metavar, help=opt.help)
        sub.add_argument("--config", help="key=value file with option defaults")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    prog = f"emhash {argv[0]}" if argv and argv[0] in _COMMANDS else "emhash"
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve(args.subcommand, vars(args), args.config)
        return _COMMANDS[args.subcommand][0](cfg)
    except (CliError, ValueError, OSError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
