"""Slow, literal references that the tests check the program against.

None of this is a production path.  ``label_similarity`` is the scalar
definition that ``dataio.similarity_block`` reproduces in bulk, and
``text_codes_per_token`` the token-by-token text the code writer reproduces
in bulk; ``text_codes_joined`` is the writer's earlier form, which joined
per-token strings a block of rows at a time.  ``ksh_train_rebuilding_rows``
is em-ksh training with every anchor row's system built from scratch, which
the downdated sweep must reproduce.
``homogeneous_dense`` is the homogeneous solve over the whole spectrum by a
dense eigensolver, which the two-eigenpair Lanczos path must reproduce, and
``splh_system_dense`` the em-splh system over all n points, whose
eigenvectors the label-set system's must reproduce once expanded.
``lfh_system_pinned`` is the logistic row system with its pair pivots pinned
at one value, the form that the degeneracy and em-lfh tail checks compare.
``solve_row_literal`` is the row dispatch written out one numpy expression per
step, which ``mean_field.solve_row`` reproduces bit for bit with buffers and
no per-row checks, and ``ksh_sweep_row_systems`` the downdated em-ksh sweep
with a checked ``RowSystem`` per row, which ``_ksh_sweep`` reproduces bit for
bit.
``check_signs_isin`` is the entry check that ``dataio.check_signs`` makes
without a whole-array copy, and ``load_feature_csv_per_field`` the feature
CSV reader that the block parser of ``dataio.load_feature_matrix`` reproduces.
``average_precision`` is the rank-by-rank definition of one query's average
precision, which ``evaluation.mean_average_precision`` computes per query.
``group_rows`` groups the equal rows of a dense similarity block, so that
``view_of`` and ``splh_factors`` give the factored inputs the trainers take;
``ksh_energy``, ``splh_energy`` and ``lfh_energy`` are the energies over a
dense similarity that the trained codes are scored by.  ``solve_row_system``
is the checked entry to the row kernel that the per-row references solve
with, and ``ksh_jacobi_sweep`` and ``lfh_jacobi_sweep`` the parallel updates
of the em-ksh and em-lfh anchor rows, every row solved from the previous
sweep's state, that the paper sets against the sequential one.
``spectral_relaxation_codes`` are the signs of the top eigenvectors of a
similarity, the relaxed baseline that the closed-form codes are scored against.
The rest cross-checks the closed-form training path: a damped iteration of
the exact consistency equations, and exhaustive minimization of an energy
over all code matrices of a tiny instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emhash.dataio import Dataset, Label, _parse_label, group_labels
from emhash.energy_models import (
    SimilarityView,
    TrainConfig,
    _lfh_build,
    _mirror_upper,
    ksh_anchor_system,
    ksh_tail_pass,
    lfh_system,
)
from emhash.mean_field import (
    DEGENERATE_SPAN,
    ZERO_TOL,
    LinearizedSigmoid,
    RowSystem,
    build_scale,
    make_system,
    sigmoid,
    solve_row,
)

# Size guard for the damped-iteration oracle; it is a reference tool, not a
# production path, and its dense quadratic cost is only acceptable on small
# instances.
ORACLE_MAX_POINTS = 2000


def label_similarity(a: Label, b: Label) -> int:
    """Pairwise semantic similarity: +1 similar, -1 dissimilar, 0 unobserved.

    Class ids are similar iff equal; tag sets are similar iff they
    intersect; a class id against a tag set acts as a singleton set.  Any
    missing label makes the pair unobserved.
    """
    if a is None or b is None:
        return 0
    if isinstance(a, frozenset) or isinstance(b, frozenset):
        aset = a if isinstance(a, frozenset) else frozenset((a,))
        bset = b if isinstance(b, frozenset) else frozenset((b,))
        return 1 if aset & bset else -1
    return 1 if a == b else -1


def text_codes_per_token(codes: np.ndarray) -> str:
    """The text code layout, one ``str(int(v))`` per entry, rows joined by newlines."""
    lines = [" ".join(str(int(v)) for v in row) for row in codes]
    return "\n".join(lines) + ("\n" if lines else "")


def text_codes_joined(codes: np.ndarray) -> str:
    """The text code layout as one ``"1"`` or ``"-1"`` string per entry, joined
    by spaces and newlines 256 rows at a time."""
    blocks = []
    for start in range(0, codes.shape[0], 256):
        rows = np.where(codes[start : start + 256] > 0, "1", "-1").tolist()
        blocks.append("".join(" ".join(row) + "\n" for row in rows))
    return "".join(blocks)


def average_precision(ranking: np.ndarray, relevant: np.ndarray) -> float:
    """Average precision of a ranking against boolean relevance flags.

    Walks the ranking from the top; at the rank r of each relevant item it
    records (relevant items found in the top r) / r, and returns the mean of
    those precisions.  At least one item must be relevant.  numpy takes the
    mean, so it sums the same values in the same order as the program does.
    """
    precisions = []
    for rank, item in enumerate(ranking, start=1):
        if relevant[item]:
            precisions.append((len(precisions) + 1) / rank)
    if not precisions:
        raise ValueError("average precision needs at least one relevant item")
    return float(np.mean(precisions))


def check_signs_isin(values: np.ndarray, message: str, zero: bool = False) -> None:
    """Raise ``ValueError(message)`` unless ``np.isin`` finds every entry among
    -1 and +1 (and 0, with ``zero``)."""
    values = np.asarray(values)
    if values.size and not np.isin(values, (-1, 0, 1) if zero else (-1, 1)).all():
        raise ValueError(message)


def load_feature_csv_per_field(path: Path, labeled: bool = False) -> Dataset:
    """Feature CSV reader that converts one field at a time with ``float()``."""
    rows: list[list[float]] = []
    labels: list[Label] = []
    width = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if labeled:
            if len(fields) < 2:
                raise ValueError(f"{path}:{lineno}: labeled rows need at least 2 fields")
            labels.append(_parse_label(fields[-1], path, lineno))
            fields = fields[:-1]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(
                f"{path}:{lineno}: ragged row ({len(fields)} fields, expected {width})"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    features = np.array(rows, dtype=float) if rows else np.zeros((0, 0))
    try:
        return Dataset(features=features, labels=labels if labeled else None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def group_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of a 2-d array, compared by their bytes.

    Returns ``(groups, first)``: groups are numbered in order of first
    appearance, ``first[g]`` is the first row of group g, and ``block[i]``
    equals ``block[first[groups[i]]]``.
    """
    groups, _ = group_labels([row.tobytes() for row in block])
    return groups, np.unique(groups, return_index=True)[1]


def view_of(dense) -> SimilarityView:
    """The similarity view of a dense points-by-anchors block: one block row
    per group of equal rows (``group_rows``)."""
    dense = np.asarray(dense)
    groups, first = group_rows(dense)
    return SimilarityView(s=dense[first], groups=groups)


def splh_factors(dense) -> tuple[np.ndarray, np.ndarray]:
    """``(groups, sigma)`` of a dense square similarity, the form ``em_splh_train`` takes.

    Equal rows of a symmetric matrix have equal columns too, so sigma is the
    matrix read at the first point of each group of equal rows.
    """
    dense = np.asarray(dense)
    groups, first = group_rows(dense)
    return groups, dense[np.ix_(first, first)]


def _validate_codes_and_similarity(codes: np.ndarray, sim_full: np.ndarray):
    codes = np.asarray(codes, dtype=float)
    s = np.asarray(sim_full)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-d, got shape {codes.shape}")
    if not np.all(np.abs(codes) == 1.0):
        raise ValueError("codes must contain only +1 and -1")
    if s.shape != (codes.shape[0], codes.shape[0]):
        raise ValueError(
            f"similarity shape {s.shape} does not match {codes.shape[0]} codes"
        )
    return codes, s


def ksh_energy(codes: np.ndarray, sim_full: np.ndarray) -> float:
    """Squared-fit energy: quarter sum over observed pairs of
    ``(code inner product - bits * similarity)**2``."""
    codes, s = _validate_codes_and_similarity(codes, sim_full)
    bits = codes.shape[1]
    gram = codes @ codes.T
    penal = (gram - float(bits) * s) ** 2 * (s != 0)
    return float(0.25 * 0.5 * (penal.sum() - np.trace(penal)))


def splh_energy(codes: np.ndarray, sim_full: np.ndarray) -> float:
    """Correlation energy: minus half the sum over pairs of
    ``similarity * code inner product``."""
    codes, s = _validate_codes_and_similarity(codes, sim_full)
    gram = codes @ codes.T
    agree = s * gram
    return float(-0.25 * (agree.sum() - np.trace(agree)))


def lfh_energy(codes: np.ndarray, sim_full: np.ndarray) -> float:
    """Logistic energy: sum over observed pairs of
    ``log(1 + exp(-similarity * code inner product))``.

    The inner product is the raw one over all bits, in [-bits, bits], and
    is not divided by the code length: it is the pivot scale of
    ``lfh_system``, whose pair pivot is ``|expected-code inner product|``
    and whose quadratic weight ``4 * variational_weight(pivot)`` is that of
    the Jaakkola-Jordan bound on this loss, tight where the pivot equals
    the pair's inner product.
    """
    codes, s = _validate_codes_and_similarity(codes, sim_full)
    gram = codes @ codes.T
    loss = np.logaddexp(0.0, -s * gram) * (s != 0)
    return float(0.5 * (loss.sum() - np.trace(loss)))


def spectral_relaxation_codes(s: np.ndarray, bits: int) -> np.ndarray:
    """Codes of the spectral relaxation of an energy over the similarity ``s``.

    Dropping the sign constraint, the codes that best match ``bits * s``
    span the eigenvectors of ``s`` with the largest eigenvalues; these are
    the signs (zero taken as +1) of the top-``bits`` eigenvectors of a dense
    ``eigh``, one per bit column, the first column the top eigenvector.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or not 1 <= bits <= s.shape[0]:
        raise ValueError(f"need a square similarity of at least {bits} rows, got {s.shape}")
    vectors = np.linalg.eigh(s)[1][:, ::-1][:, :bits]
    return np.where(vectors >= 0.0, 1, -1).astype(np.int8)


def solve_row_system(sys: RowSystem, lin: LinearizedSigmoid) -> np.ndarray:
    """Solve one validated consistency system end to end with ``mean_field.solve_row``.

    ``RowSystem`` has checked the system, and ``lin`` holds the solvability
    condition by construction.  The kernel forms the scale again from
    ``sys.a`` and ``sys.b``, with ``build_scale``'s arithmetic, so it equals
    ``sys.scale`` for every system that ``make_system`` builds.
    """
    return solve_row(sys.a, sys.b, lin, np.empty_like(sys.a))


def ksh_jacobi_sweep(phi: np.ndarray, sim: SimilarityView, lin: LinearizedSigmoid) -> np.ndarray:
    """One parallel em-ksh sweep over the anchor rows ``phi``.

    Every anchor row is solved from ``phi``, the previous sweep's state, with
    ``solve_row_system(ksh_anchor_system(...))``; the new anchor marginals are
    returned and ``phi`` is left as it was.
    """
    return np.array([
        solve_row_system(ksh_anchor_system(phi, sim, i, lin.half_range), lin)
        for i in range(sim.m)
    ])


def lfh_jacobi_sweep(phi: np.ndarray, sim: SimilarityView, lin: LinearizedSigmoid) -> np.ndarray:
    """One parallel em-lfh sweep over the anchor rows ``phi``.

    Every anchor row is solved from ``phi``, the previous sweep's state, with
    ``solve_row_system(lfh_system(...))``; the new anchor marginals are
    returned and ``phi`` is left as it was.
    """
    return np.array([
        solve_row_system(lfh_system(phi, sim, i, lin.half_range), lin) for i in range(sim.m)
    ])


def ksh_train_rebuilding_rows(
    sim: SimilarityView, cfg: TrainConfig, lin: LinearizedSigmoid
) -> np.ndarray:
    """em-ksh training with each anchor row's system rebuilt from the others.

    The same schedule as ``em_ksh_train``: seeded uniform anchor marginals,
    ``cfg.sweeps`` sequential sweeps in index order, then the shared tail;
    but every anchor row calls ``ksh_anchor_system`` on the current marginals.
    """
    m = sim.m
    phi = np.empty((sim.n, cfg.bits))
    phi[:m] = np.random.default_rng(cfg.seed).random((m, cfg.bits))
    for _ in range(cfg.sweeps):
        for i in range(m):
            phi[i] = solve_row_system(ksh_anchor_system(phi[:m], sim, i, lin.half_range), lin)
    if sim.n > m:
        ksh_tail_pass(phi, sim, lin, gain=float(cfg.bits))
    return phi


def solve_row_literal(sys: RowSystem, lin: LinearizedSigmoid) -> np.ndarray:
    """One row's marginals by the dispatch of ``mean_field.solve_row``, literally.

    b ~ 0 gives 0.5, A ~ 0 gives ``sigmoid(b / scale)``, and otherwise
    ``(scale * I - 2*slope*A) v = 2*slope/scale * A @ b`` is solved and
    ``v + b / scale`` is stretched onto the fit interval and squashed, each
    step one expression on fresh arrays.  The residual guard is left out: it
    checks the solve and adds no arithmetic.
    """
    if np.max(np.abs(sys.b)) < ZERO_TOL:
        return np.full(sys.dim, 0.5)
    if np.max(np.abs(sys.a)) < ZERO_TOL:
        x = sys.b / sys.scale
    else:
        lhs = sys.scale * np.eye(sys.dim) - 2.0 * lin.slope * sys.a
        rhs = (2.0 * lin.slope / sys.scale) * (sys.a @ sys.b)
        vp = np.linalg.solve(lhs, rhs) + sys.b / sys.scale
        lo = np.min(vp)
        span = np.max(vp) - lo
        floor = DEGENERATE_SPAN * lin.half_range
        gain = lin.half_range if span > floor else 0.0
        x = gain * (2.0 * (vp - lo) / max(span, floor) - 1.0)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def ksh_sweep_row_systems(phi: np.ndarray, sim: SimilarityView, lin: LinearizedSigmoid) -> None:
    """One downdated em-ksh sweep over the anchor rows ``phi``, in place, that
    bundles each row into a checked ``RowSystem`` (``make_system``) and solves
    it with ``solve_row_literal``: the same Gram, rank-2 updates and row
    arithmetic as ``_ksh_sweep``, on fresh arrays."""
    m, bits = phi.shape
    x = 2.0 * phi - 1.0
    g = _mirror_upper(x.T @ x)
    for i in range(m):
        own = np.outer(x[i], x[i])
        a = own - g
        np.fill_diagonal(a, 0.0)
        s_row = sim.s[sim.groups[i]].astype(float)
        b = float(bits) * (s_row @ x - s_row[i] * x[i])
        phi[i] = solve_row_literal(make_system(a, b, lin.half_range), lin)
        x[i] = 2.0 * phi[i] - 1.0
        g += np.outer(x[i], x[i]) - own


def lfh_system_pinned(
    phi: np.ndarray, sim: SimilarityView, row: int, half_range: float, xi: float
) -> RowSystem:
    """The logistic system of point ``row`` with every pair's pivot pinned at ``xi``.

    An anchor row pairs with the other anchors, as in ``lfh_system``; a
    later row pairs with every anchor, as a tail row does.  Pivots pinned at
    the code length reduce an anchor row's system to the squared-fit one
    divided by the code length; pinned at 0 they give the em-lfh tail's.
    """
    x = 2.0 * np.asarray(phi, dtype=float)[: sim.m] - 1.0
    s_row = sim.s[sim.groups[row]].astype(float)
    if row < sim.m:
        x, s_row = np.delete(x, row, axis=0), np.delete(s_row, row)
    a, b = _lfh_build(x, s_row, np.full(x.shape[0], float(xi)), np.empty_like(x))
    return make_system(a, b, half_range)


def splh_system_dense(sim_full: np.ndarray, half_range: float = 2.0) -> RowSystem:
    """The correlation energy's system over every point: the n-by-n similarity
    itself, zero evidence and the row-sum scale of :func:`build_scale`."""
    s = np.asarray(sim_full, dtype=float)
    return RowSystem(a=s, b=np.zeros(len(s)), scale=build_scale(s, np.zeros(len(s)), half_range))


def homogeneous_dense(sys: RowSystem, lin: LinearizedSigmoid) -> tuple[np.ndarray, np.ndarray, int]:
    """The homogeneous solve over the whole spectrum of a dense ``eigh``.

    Among the live eigenvalues (magnitude above ``ZERO_TOL`` times the
    largest) the one least ``|scale / eigenvalue - 2*slope|`` wins, ties to
    the lowest eigenvalue, and its vector's first nonnegligible entry is made
    positive.  Returns ``(values, vectors, chosen)``: the ascending spectrum,
    its eigenvectors as columns and the winner's index, whose column is
    sign-fixed.
    """
    values, vectors = np.linalg.eigh(sys.a)
    live = np.abs(values) > ZERO_TOL * np.max(np.abs(values))
    cost = np.full(values.shape, np.inf)
    cost[live] = np.abs(sys.scale / values[live] - 2.0 * lin.slope)
    chosen = int(np.argmin(cost))
    v = vectors[:, chosen]
    lead = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
    if v[lead] < 0.0:
        vectors[:, chosen] = -v
    return values, vectors, chosen


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
