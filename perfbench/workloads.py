"""Seeded workload generation and the ``emhash`` stage command lines.

A workload is one entry of ``spec.json``: the training method and its
options, the synthetic data shape, and the file formats.  ``generate``
writes every input file with the ``dataio`` writers, so the program under
test only ever sees files; ``stage_args`` gives the ``train``, ``encode``
and ``eval`` argument lists that both the untraced (subprocess) and the
traced (in-process) runs use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"
# --threads of every train run; with single-threaded BLAS in the stage
# environment the worker threads stay at or below the core count.
THREADS = 1


def workload_params(name: str, smoke: bool = False) -> dict:
    """Parameters of one workload; ``smoke`` applies its toy-size overrides."""
    entry = json.loads(SPEC_PATH.read_text())["workloads"][name]
    params = {**entry["params"], "map_floor": entry["map_floor"]}
    if smoke:
        params.update(entry["smoke"])
    return params


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload plus the shapes its outputs must have."""

    train_features: Path
    train_labels: Path
    queries: Path
    query_labels: Path
    n: int
    queries_n: int


def _tag_labels(classes: np.ndarray, params: dict, rng: np.random.Generator) -> list:
    # Every point carries its cluster tag; some gain one other tag, some lose
    # their label entirely, which makes those similarity pairs unobserved.
    clusters = params["clusters"]
    labels = []
    for c in classes:
        c = int(c)
        draw = rng.random()
        if draw < params["unlabeled"]:
            labels.append(None)
        elif draw < params["unlabeled"] + params["extra_tag"]:
            other = (c + 1 + int(rng.integers(clusters - 1))) % clusters
            labels.append(frozenset((c, other)))
        else:
            labels.append(frozenset((c,)))
    return labels


def generate(params: dict, seed: int, root: Path) -> Inputs:
    """Write the workload's training and query files under ``root``."""
    from emhash import dataio

    root.mkdir(parents=True, exist_ok=True)
    n, q = params["n"], params["queries"]
    # The points and the query set are part of the workload: they come from a
    # fixed geometry seed, and --seed draws the row order, which of the points
    # train (the pool holds fewer than `clusters` spare points) and, through
    # stage_args, the training seed.  Redrawing the cluster centres or the
    # queries per seed would move map by several percent from the data alone.
    pool = dataio.synthesize_clusters(
        clusters=params["clusters"],
        per_cluster=math.ceil((n + q) / params["clusters"]),
        dim=params["dim"],
        separation=params["separation"],
        spread=params["spread"],
        seed=params["geometry_seed"],
    )
    fixed = np.random.default_rng(params["geometry_seed"]).permutation(pool.n)
    rest = np.random.default_rng([seed, 0]).choice(fixed[q:], size=n, replace=False)
    pick = np.concatenate([rest, fixed[:q]])
    features = pool.features[pick]
    classes = np.array(pool.labels)[pick]
    if params["labels"] == "tags":
        labels = _tag_labels(classes[:n], params, np.random.default_rng([seed, 1]))
        # Queries are always tagged so every one of them can have relevant items.
        query_labels = _tag_labels(
            classes[n:], {**params, "unlabeled": 0.0},
            np.random.default_rng(params["geometry_seed"]),
        )
    else:
        labels = [int(c) for c in classes[:n]]
        query_labels = [int(c) for c in classes[n:]]

    train_labels = root / "train_labels.txt"
    query_label_path = root / "query_labels.txt"
    dataio.write_label_file(train_labels, labels)
    dataio.write_label_file(query_label_path, query_labels)
    if params["features_format"] == "binary":
        train_features, queries = root / "train.bin", root / "queries.bin"
        dataio.write_feature_matrix(train_features, features[:n])
        dataio.write_feature_matrix(queries, features[n:])
    else:
        train_features, queries = root / "train.csv", root / "queries.csv"
        dataio.write_feature_csv(train_features, features[:n], labels)
        dataio.write_feature_csv(queries, features[n:], query_labels)
    return Inputs(train_features, train_labels, queries, query_label_path, n, q)


def codes_name(params: dict) -> str:
    return "codes.bin" if params["codes_format"] == "packed" else "codes.txt"


def stage_args(params: dict, inputs: Inputs, out: Path, seed: int) -> dict[str, list[str]]:
    """``emhash`` argument lists of the three stages, writing under ``out``."""
    binary = params["features_format"] == "binary"
    codes_format = params["codes_format"]
    train = [
        "train",
        "--features", str(inputs.train_features),
        "--features-format", params["features_format"],
        "--method", params["method"],
        "--bits", str(params["bits"]),
        "--sweeps", str(params["sweeps"]),
        "--seed", str(seed),
        "--threads", str(THREADS),
        "--codes-format", codes_format,
        "--out-dir", str(out / "run"),
    ]
    if params["method"] != "em-splh":
        train += ["--anchors", str(params["anchors"])]
    if binary:
        train += ["--labels", str(inputs.train_labels)]
    encode = [
        "encode",
        "--model", str(out / "run" / "model.emh"),
        "--queries", str(inputs.queries),
        "--queries-format", params["features_format"],
        "--codes-format", codes_format,
        "--out", str(out / "queries_codes"),
    ]
    if not binary:
        encode.append("--queries-labeled")
    evaluate = [
        "eval",
        "--db-codes", str(out / "run" / codes_name(params)),
        "--query-codes", str(out / "queries_codes"),
        "--codes-format", codes_format,
        "--db-labels", str(inputs.train_labels),
        "--query-labels", str(inputs.query_labels),
        "--out", str(out / "metrics.json"),
    ]
    return {"train": train, "encode": encode, "eval": evaluate}
