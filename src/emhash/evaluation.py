"""Hamming-ranking retrieval metrics and reference oracles.

Retrieval quality is measured by sorting the database ascending by Hamming
distance to each query and averaging precision over the ranks of the relevant
items; relevance comes from label similarity.  Ties in distance break by
ascending database index so every metric is reproducible.

The module also houses two slow-but-simple references used to cross-check the
closed-form training path: a damped iteration of the exact consistency
equations, and exhaustive minimization of an energy over all code matrices of
a tiny instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import label_similarity
from .energy_models import TrainConfig
from .mean_field import sigmoid

__all__ = [
    "RankingResult",
    "OracleResult",
    "hamming_distances",
    "hamming_rank",
    "average_precision",
    "mean_average_precision",
    "ksh_row_consistency",
    "splh_row_consistency",
    "fixed_point_oracle",
    "brute_force_min_energy",
    "metrics_lines",
    "write_metrics_json",
    "METRICS_SCHEMA",
]

METRICS_SCHEMA = "emhash-metrics/1"

# Size guard for the damped-iteration oracle; it is a reference tool, not a
# production path, and its dense quadratic cost is only acceptable on small
# instances.
ORACLE_MAX_POINTS = 2000


def _as_codes(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-d, got shape {codes.shape}")
    if codes.size and not np.isin(codes, (-1, 1)).all():
        raise ValueError("codes must contain only +1 and -1")
    return codes.astype(np.int64)


def hamming_distances(query: np.ndarray, database: np.ndarray) -> np.ndarray:
    """Hamming distance of one query code against every database code."""
    database = _as_codes(database)
    query = np.asarray(query).astype(np.int64)
    if query.shape != (database.shape[1],):
        raise ValueError(
            f"query length {query.shape} does not match code length {database.shape[1]}"
        )
    bits = database.shape[1]
    return (bits - database @ query) // 2


def hamming_rank(query: np.ndarray, database: np.ndarray) -> np.ndarray:
    """Database indices sorted ascending by Hamming distance to the query.

    Equal distances break by ascending index, so the ranking is a
    deterministic permutation of the database.
    """
    dist = hamming_distances(query, database)
    return np.argsort(dist, kind="stable")


def average_precision(ranking: np.ndarray, relevant: np.ndarray) -> float:
    """Average precision of a ranking against boolean relevance flags.

    Mean over the relevant items' ranks r of (relevant found in the top r)
    divided by r.  At least one item must be relevant.
    """
    ranking = np.asarray(ranking)
    relevant = np.asarray(relevant, dtype=bool)
    hits = relevant[ranking]
    if not hits.any():
        raise ValueError("average precision needs at least one relevant item")
    return _ap_from_hits(hits)


def _ap_from_hits(hits: np.ndarray) -> float:
    # Relevance flags in ranking order, at least one set: the rank of a hit
    # is its index plus one.
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
    (+1).  With ``exclude_self=True`` query i and database item i are taken
    to be the same point and that exact index is dropped from the ranking
    (queries drawn from the database should not retrieve themselves).
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

    aps = np.full(query_codes.shape[0], np.nan)
    skipped = 0
    for qi in range(query_codes.shape[0]):
        ranking = hamming_rank(query_codes[qi], db_codes)
        if exclude_self:
            ranking = ranking[ranking != qi]
        rel = np.fromiter(
            (label_similarity(query_labels[qi], db_labels[j]) == 1 for j in ranking),
            dtype=bool,
            count=ranking.size,
        )
        if not rel.any():
            skipped += 1
            continue
        aps[qi] = _ap_from_hits(rel)
    valid = ~np.isnan(aps)
    if not valid.any():
        raise ValueError("no query has any relevant database item")
    return RankingResult(
        queries=query_codes.shape[0],
        per_query_ap=aps,
        mean_ap=float(aps[valid].mean()),
        skipped=skipped,
    )


def ksh_row_consistency(phi: np.ndarray, sim_full: np.ndarray, row: int) -> np.ndarray:
    """Exact squared-fit consistency argument of one marginal row."""
    phi = np.asarray(phi, dtype=float)
    s = np.asarray(sim_full, dtype=float)
    bits = phi.shape[1]
    x = 2.0 * phi - 1.0
    xi = x[row]
    g = x.T @ x
    coupling = -((g @ xi) - np.diag(g) * xi - xi * (xi @ xi) + xi**3)
    evidence = bits * (s[row] @ x - s[row, row] * xi)
    return coupling + evidence


def splh_row_consistency(phi: np.ndarray, sim_full: np.ndarray, row: int) -> np.ndarray:
    """Exact correlation consistency argument of one marginal row."""
    phi = np.asarray(phi, dtype=float)
    s = np.asarray(sim_full, dtype=float)
    x = 2.0 * phi - 1.0
    return s[row] @ x - s[row, row] * x[row]


@dataclass(frozen=True, eq=False)
class OracleResult:
    phi: np.ndarray
    converged: bool
    iterations: int


def fixed_point_oracle(
    row_consistency,
    sim_full: np.ndarray,
    cfg: TrainConfig,
    damping: float = 0.5,
    max_iters: int = 10_000,
    tol: float = 1e-8,
) -> OracleResult:
    """Damped coordinate iteration of the exact consistency equations.

    Starting from seeded uniform marginals, sweeps the rows in index order
    and applies

        phi_row <- (1 - damping) * phi_row + damping * sigmoid(arg(phi, row))

    in place, so later rows see earlier updates within the same sweep.
    Stops when the largest marginal change across a full sweep drops below
    ``tol`` or after ``max_iters`` sweeps.  Non-convergence is reported on
    the result, not raised: this is a reference oracle for comparing
    against the closed-form path, and callers resample instances they
    cannot certify.  ``row_consistency(phi, sim_full, row)`` must return
    the exact argument vector of one row; see :func:`ksh_row_consistency`
    and :func:`splh_row_consistency`.
    """
    s = np.asarray(sim_full, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"full similarity must be square, got shape {s.shape}")
    if s.shape[0] > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle supports at most {ORACLE_MAX_POINTS} points")
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    rng = np.random.default_rng(cfg.seed)
    phi = rng.random((s.shape[0], cfg.bits))
    for sweep in range(1, max_iters + 1):
        max_delta = 0.0
        for row in range(s.shape[0]):
            updated = (1.0 - damping) * phi[row] + damping * sigmoid(
                row_consistency(phi, s, row)
            )
            max_delta = max(max_delta, float(np.max(np.abs(updated - phi[row]))))
            phi[row] = updated
        if max_delta < tol:
            return OracleResult(phi=phi, converged=True, iterations=sweep)
    return OracleResult(phi=phi, converged=False, iterations=max_iters)


def brute_force_min_energy(energy, sim_full: np.ndarray, bits: int):
    """Exhaustively minimize an energy over all sign code matrices.

    Enumerates every matrix in {-1, +1}^(n x bits) and returns
    ``(minimizer, energy)``; the first minimizer in enumeration order wins.
    Guarded to 4096 candidates.
    """
    s = np.asarray(sim_full, dtype=float)
    n = s.shape[0]
    total = n * bits
    if 2**total > 4096:
        raise ValueError(f"instance too large to enumerate: 2**{total} candidates")
    best_codes = None
    best_energy = np.inf
    for key in range(2**total):
        flat = np.array([(key >> pos) & 1 for pos in range(total)], dtype=np.int8)
        codes = (flat * 2 - 1).reshape(n, bits)
        value = energy(codes, s)
        if value < best_energy:
            best_energy = value
            best_codes = codes
    return best_codes, float(best_energy)


def metrics_lines(result: RankingResult) -> list[str]:
    """Line-oriented key=value rendering of a ranking result."""
    valid = result.per_query_ap[~np.isnan(result.per_query_ap)]
    return [
        f"map={result.mean_ap:.6f}",
        f"queries={result.queries}",
        f"skipped_queries={result.skipped}",
        f"ap_min={valid.min():.6f}",
        f"ap_median={float(np.median(valid)):.6f}",
        f"ap_max={valid.max():.6f}",
    ]


def write_metrics_json(path: str | Path, result: RankingResult, extra: dict | None = None) -> None:
    """Write the documented machine-readable metrics file.

    Schema: ``{"schema": ..., "map": float, "queries": int,
    "skipped_queries": int, "per_query_ap": [float | null, ...]}`` plus any
    extra keys supplied by the caller.
    """
    payload = {
        "schema": METRICS_SCHEMA,
        "map": result.mean_ap,
        "queries": result.queries,
        "skipped_queries": result.skipped,
        "per_query_ap": [None if np.isnan(v) else float(v) for v in result.per_query_ap],
    }
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
