"""Hamming-ranking retrieval metrics.

Retrieval quality is measured by sorting the database ascending by Hamming
distance to each query and averaging precision over the ranks of the relevant
items; relevance comes from label similarity.  Ties in distance break by
ascending database index so every metric is reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import check_signs, index_labels, similarity_block

__all__ = [
    "RankingResult",
    "hamming_distances",
    "hamming_rank",
    "mean_average_precision",
    "metrics_lines",
    "write_metrics_json",
    "METRICS_SCHEMA",
]

METRICS_SCHEMA = "emhash-metrics/1"

RELEVANCE_BLOCK = 64  # queries per relevance block of mean_average_precision


def _as_codes(codes: np.ndarray, ndim: int = 2) -> np.ndarray:
    # Checked +-1 codes as float32 for the distance GEMM, without a copy when
    # they already are: inner products of sign vectors are integers of
    # magnitude <= bits, exact in float32 below 2**24 bits whatever order
    # BLAS sums them in.
    codes = np.asarray(codes)
    if codes.ndim != ndim:
        raise ValueError(f"codes must be {ndim}-d, got shape {codes.shape}")
    check_signs(codes, "codes must contain only +1 and -1")
    return codes.astype(np.float32, copy=False)


def hamming_distances(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """Hamming distances of a ``(q, bits)`` query block to every database code.

    Returns shape ``(q, N)``; a single query of shape ``(bits,)`` is the
    one-row case and gives shape ``(N,)``.  All distances come from one
    matrix product, ``(bits - queries @ database.T) / 2``, and are returned
    as the smallest unsigned integer type that holds ``bits`` (uint8 up to
    255 bits), so cast them to a signed type before subtracting.
    """
    queries = np.asarray(queries)
    block = _as_codes(queries, ndim=1 if queries.ndim == 1 else 2)
    database = _as_codes(database)
    bits = database.shape[1]
    if block.shape[-1] != bits:
        raise ValueError(f"query length {block.shape[-1]} does not match code length {bits}")
    dist = block @ database.T
    np.subtract(bits, dist, out=dist)
    dist *= 0.5
    return dist.astype(np.min_scalar_type(bits))


def hamming_rank(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """Database indices sorted ascending by Hamming distance, one row per query.

    Shapes follow :func:`hamming_distances`: a ``(q, bits)`` block gives
    ``(q, N)`` and a single ``(bits,)`` query gives ``(N,)``.  Equal
    distances break by ascending index, so every ranking is a deterministic
    permutation of the database; on small unsigned distances numpy's stable
    sort is a radix sort.
    """
    return np.argsort(hamming_distances(queries, database), axis=-1, kind="stable")


def _ap_from_hits(hits: np.ndarray) -> float:
    # Average precision of relevance flags in ranking order, at least one
    # set: the mean over the hits' ranks r of (hits in the top r) / r, where
    # the rank of a hit is its index plus one.
    cum = np.cumsum(hits)
    ranks = np.flatnonzero(hits) + 1
    return float(np.mean(cum[ranks - 1] / ranks))


@dataclass(frozen=True, eq=False)
class RankingResult:
    """Query count and per-query precisions plus their mean.

    Queries with no relevant database item are excluded from the mean and
    counted in ``skipped``; their entries in ``per_query_ap`` are NaN.
    """

    queries: int
    per_query_ap: np.ndarray
    mean_ap: float
    skipped: int


def mean_average_precision(
    query_codes: np.ndarray,
    query_labels: list,
    db_codes: np.ndarray,
    db_labels: list,
    exclude_self: bool = False,
) -> RankingResult:
    """Mean average precision of Hamming rankings under label relevance.

    A database item is relevant to a query iff their labels are similar
    (+1).  The database codes are converted to float32, and its labels
    encoded, once; then each block of ``RELEVANCE_BLOCK`` queries takes one
    :func:`hamming_rank` call and one relevance fill, and is released before
    the next, so memory stays O(RELEVANCE_BLOCK * database size) at any
    query count.  With ``exclude_self=True`` query i and database item i are
    taken to be the same point and that exact index is dropped from the
    ranking (queries drawn from the database should not retrieve
    themselves).
    """
    query_codes = _as_codes(query_codes)
    db_codes = _as_codes(db_codes)
    if query_codes.shape[1] != db_codes.shape[1]:
        raise ValueError("query and database code lengths differ")
    if len(query_labels) != query_codes.shape[0]:
        raise ValueError("one label per query required")
    if len(db_labels) != db_codes.shape[0]:
        raise ValueError("one label per database item required")
    if exclude_self and query_codes.shape[0] != db_codes.shape[0]:
        raise ValueError("self-exclusion requires query set == database set")

    db_index = index_labels(db_labels)
    aps = np.empty(query_codes.shape[0])
    for start in range(0, aps.size, RELEVANCE_BLOCK):
        aps[start : start + RELEVANCE_BLOCK] = _block_aps(
            query_codes, query_labels, db_codes, db_index, start, exclude_self
        )
    valid = ~np.isnan(aps)
    if not valid.any():
        raise ValueError("no query has any relevant database item")
    return RankingResult(
        queries=query_codes.shape[0],
        per_query_ap=aps,
        mean_ap=float(aps[valid].mean()),
        skipped=int((~valid).sum()),
    )


def _block_aps(query_codes, query_labels, db_codes, db_index, start, exclude_self):
    # APs of the queries in one relevance block (NaN where none is relevant).
    # Its rankings and relevance die on return, before the next block's exist.
    stop = min(start + RELEVANCE_BLOCK, query_codes.shape[0])
    relevant = similarity_block(index_labels(query_labels[start:stop]), db_index) == 1
    rankings = hamming_rank(query_codes[start:stop], db_codes)
    aps = np.full(stop - start, np.nan)
    for row in range(stop - start):
        ranking = rankings[row]
        if exclude_self:
            ranking = ranking[ranking != start + row]
        hits = relevant[row, ranking]
        if hits.any():
            aps[row] = _ap_from_hits(hits)
    return aps


def _median(values: np.ndarray) -> float:
    """Median of a nonempty 1-d array without NaNs: ``np.median``'s value.

    The middle sorted value, or the mean of the middle two, computed as
    ``np.median`` computes it; unlike ``np.median`` it makes no NaN check,
    which imports ``numpy.ma``.
    """
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def metrics_lines(result: RankingResult) -> list[str]:
    """Line-oriented key=value rendering of a ranking result."""
    valid = result.per_query_ap[~np.isnan(result.per_query_ap)]
    return [
        f"map={result.mean_ap:.6f}",
        f"queries={result.queries}",
        f"skipped_queries={result.skipped}",
        f"ap_min={valid.min():.6f}",
        f"ap_median={_median(valid):.6f}",
        f"ap_max={valid.max():.6f}",
    ]


def write_metrics_json(path: str | Path, result: RankingResult) -> None:
    """Write the documented machine-readable metrics file.

    Schema: ``{"schema": ..., "map": float, "queries": int,
    "skipped_queries": int, "per_query_ap": [float | null, ...]}``.
    """
    payload = {
        "schema": METRICS_SCHEMA,
        "map": result.mean_ap,
        "queries": result.queries,
        "skipped_queries": result.skipped,
        "per_query_ap": [None if np.isnan(v) else float(v) for v in result.per_query_ap],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
