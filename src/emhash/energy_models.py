"""System builders and training loops for the three supervised hashing energies.

Three pairwise energies over sign codes are supported, each reduced to
per-row consistency systems solved in closed form by :mod:`emhash.mean_field`:

* ``ksh``  -- squared inner-product fit: similar pairs pushed to code
  agreement ``+bits``, dissimilar to ``-bits``.  Rows carry evidence in the
  linear term, the quadratic term couples bits.
* ``splh`` -- plain correlation objective with no bit coupling; all bits
  decouple into one identical system over points, solved once by the
  homogeneous eigenvector path.
* ``lfh``  -- logistic pairwise likelihood, lower-bounded by a quadratic via
  a local variational weight per pair; structurally the ksh system with
  pair-dependent curvature.

Training samples anchor columns of the similarity matrix: anchor rows are
refined over a few sequential sweeps (each row re-solved against the current
state of the others, in index order), then all remaining rows share one
system matrix, so they are solved together in its eigenbasis: two matrix
products and one squash per fixed-size block of rows.  Updating the anchor
rows simultaneously instead is tempting but unsound: the shared component of
the evidence vectors then flips coherently from sweep to sweep and, when
similar pairs are much rarer than dissimilar ones, the oscillation drowns the
per-class signal.
Sequential updates let each row react to the rows already moved, which keeps
class structure intact.  The supervised energies (ksh, lfh) share this
schedule and differ only in how a row's system is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mean_field import (
    ZERO_TOL,
    LinearizedSigmoid,
    RowSystem,
    build_scale,
    fit_linearization,
    make_system,
    renormalize_and_squash,
    sigmoid,
    solve_affine,  # noqa: F401 -- alias the benchmark's tracer smoke test wraps and restores
    solve_row_system,
)

__all__ = [
    "SimilarityView",
    "TrainConfig",
    "SharedEig",
    "ksh_anchor_system",
    "ksh_tail_systems",
    "ksh_tail_pass",
    "eigendecompose_shared",
    "batch_solve_shared",
    "em_ksh_train",
    "splh_system",
    "em_splh_train",
    "check_dense_budget",
    "variational_weight",
    "lfh_system",
    "em_lfh_train",
    "ksh_energy",
    "splh_energy",
]

# Dense eigensolve over the full similarity matrix; beyond this the
# one-shot path is out of its depth and the caller should sample anchors.
MAX_DENSE_POINTS = 5000

# Tail rows are cast and solved in fixed blocks of this many rows, independent
# of input and thread count, so peak temporary memory stays bounded.
_ROW_BLOCK = 256


@dataclass(frozen=True, eq=False)
class SimilarityView:
    """Sampled similarity block, points by anchors, entries in {-1, 0, +1}.

    Column j holds the similarities of every point against anchor j; the
    anchors occupy the first ``m`` rows, so ``s[j, j] == +1`` for labeled
    anchors.  A zero entry means the relation is unobserved.
    """

    s: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s)
        if s.ndim != 2:
            raise ValueError(f"similarity view must be 2-d, got shape {s.shape}")
        if s.shape[0] < s.shape[1]:
            raise ValueError("anchor count cannot exceed point count")
        if not np.isin(s, (-1, 0, 1)).all():
            raise ValueError("similarity entries must be -1, 0 or +1")
        object.__setattr__(self, "s", s.astype(np.int8))

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def m(self) -> int:
        return self.s.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run.

    bits: code length; anchors: sampled similarity columns; sweeps: passes
    over the anchor rows; linear_range: sigmoid fit half-interval; seed:
    initialization seed.
    """

    bits: int = 32
    anchors: int = 1000
    sweeps: int = 3
    linear_range: float = 2.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if self.anchors < 1:
            raise ValueError(f"anchors must be >= 1, got {self.anchors}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.linear_range <= 0.0:
            raise ValueError(f"linear_range must be positive, got {self.linear_range}")


@dataclass(frozen=True, eq=False)
class SharedEig:
    """Eigendecomposition of the matrix shared by all tail-row systems."""

    vectors: np.ndarray
    values: np.ndarray


def eigendecompose_shared(a: np.ndarray) -> SharedEig:
    """Symmetric eigendecomposition with orthogonality/reconstruction checks."""
    a = np.asarray(a, dtype=float)
    values, vectors = np.linalg.eigh(a)
    dim = a.shape[0]
    ortho = np.linalg.norm(vectors.T @ vectors - np.eye(dim))
    if ortho > 1e-10:
        raise np.linalg.LinAlgError(f"eigenvector basis not orthonormal ({ortho:.3e})")
    recon = np.linalg.norm((vectors * values) @ vectors.T - a)
    if recon > 1e-8 * max(np.linalg.norm(a), 1e-30):
        raise np.linalg.LinAlgError(f"eigendecomposition reconstruction off ({recon:.3e})")
    return SharedEig(vectors=vectors, values=values)


def _mirror_upper(g: np.ndarray) -> np.ndarray:
    # Exact symmetry by construction: the upper triangle is canonical.
    return np.triu(g) + np.triu(g, 1).T


def _cast_matmul(block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``block.astype(float) @ x`` with bounded, fixed-size cast buffers."""
    out = np.empty((block.shape[0], x.shape[1]))
    for start in range(0, block.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        out[rows] = block[rows].astype(float) @ x
    return out


def ksh_anchor_system(
    phi: np.ndarray, sim: SimilarityView, anchor: int, half_range: float
) -> RowSystem:
    """Consistency system of one anchor row under the squared-fit energy.

    The quadratic coupling sums ``-(2*phi_jk - 1)(2*phi_jk' - 1)`` over the
    other anchors for every off-diagonal bit pair (the diagonal is zero);
    the linear term sums ``bits * s_ij * (2*phi_jk - 1)``.  Unobserved
    pairs (s_ij == 0) drop out of the linear term only -- the coupling
    carries no similarity factor, which is how missing supervision is
    tolerated without special casing.
    """
    m = sim.m
    if not 0 <= anchor < m:
        raise IndexError(f"anchor index {anchor} out of range for {m} anchors")
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] < m:
        raise ValueError(f"need soft codes for all {m} anchors, got {phi.shape[0]} rows")
    bits = phi.shape[1]
    x = 2.0 * phi[:m] - 1.0
    others = np.delete(x, anchor, axis=0)
    s_row = np.delete(sim.s[anchor, :m].astype(float), anchor)
    a = -_mirror_upper(others.T @ others)
    np.fill_diagonal(a, 0.0)
    b = float(bits) * (others.T @ s_row)
    return make_system(a, b, half_range)


def ksh_tail_systems(
    phi_anchors: np.ndarray, sim: SimilarityView, half_range: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Systems for every non-anchor row: one shared matrix, per-row vectors.

    Non-anchor rows never appear inside the sums, so the quadratic coupling
    built from the anchor block is the same matrix for all of them; only the
    linear term and the scale vary per row.  Returns
    ``(shared_a, b_rows, scales)`` with one row of ``b_rows`` / one entry of
    ``scales`` per tail point.
    """
    m = sim.m
    phi_anchors = np.asarray(phi_anchors, dtype=float)
    if phi_anchors.shape[0] != m:
        raise ValueError(f"anchor block must have exactly {m} rows, got {phi_anchors.shape[0]}")
    bits = phi_anchors.shape[1]
    x = 2.0 * phi_anchors - 1.0
    a = -_mirror_upper(x.T @ x)
    np.fill_diagonal(a, 0.0)
    b = float(bits) * _cast_matmul(sim.s[m:, :], x)
    return a, b, build_scale(a, b, half_range)


def batch_solve_shared(
    eig: SharedEig, b_rows: np.ndarray, scales: np.ndarray, lin: LinearizedSigmoid
) -> np.ndarray:
    """Solve a stack of systems that share one matrix, as two matrix products.

    In the shared eigenbasis each solve is an elementwise product:

        v_i = 2*slope * P @ (values / (scale_i - 2*slope*values) * (P.T @ b_i / scale_i))

    which is the inversion-free analog of the affine closed form, valid for
    zero eigenvalues.  All rows go through ``P`` together, so the work is two
    GEMMs and the memory is linear in rows-times-bits.

    Raises ``numpy.linalg.LinAlgError``, naming the first offending row, if
    any denominator is nonpositive: with a correctly built scale that cannot
    happen, so it flags an upstream scale bug.
    """
    b_rows = np.asarray(b_rows, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if b_rows.ndim != 2 or scales.shape != b_rows.shape[:1]:
        raise ValueError("one scale per row required")
    bad = np.flatnonzero(scales <= 0.0)
    if bad.size:
        raise ValueError(f"row {bad[0]} has nonpositive scale")
    slope2 = 2.0 * lin.slope
    denom = scales[:, None] - slope2 * eig.values
    bad = np.flatnonzero(np.any(denom <= 0.0, axis=1))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"solvability condition violated for row {bad[0]}: the scale does not "
            "dominate the shared spectrum"
        )
    z = (b_rows / scales[:, None]) @ eig.vectors
    return slope2 * (((eig.values / denom) * z) @ eig.vectors.T)


def _resolve_linearization(cfg: TrainConfig, lin: LinearizedSigmoid | None) -> LinearizedSigmoid:
    if lin is None:
        return fit_linearization(cfg.linear_range)
    if abs(lin.half_range - cfg.linear_range) > 1e-12:
        raise ValueError(
            f"linearization half_range {lin.half_range} does not match "
            f"configured linear_range {cfg.linear_range}"
        )
    return lin


def ksh_tail_pass(
    phi_anchors: np.ndarray, sim: SimilarityView, lin: LinearizedSigmoid
) -> np.ndarray:
    """Solve every non-anchor row, one stacked solve and squash per row block.

    Dispatches like ``solve_row_system(..., homogeneous=False)``: rows without
    evidence stay at 0.5 and a zero shared matrix gives ``sigmoid(b / scale)``.
    """
    a, b, scales = ksh_tail_systems(phi_anchors, sim, lin.half_range)
    out = np.full(b.shape, 0.5)
    explicit = np.max(np.abs(a)) < ZERO_TOL
    eig = None if explicit else eigendecompose_shared(a)
    for start in range(0, b.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        live = np.max(np.abs(b[rows]), axis=1) >= ZERO_TOL
        b_live, s_live = b[rows][live], scales[rows][live]
        if explicit:
            out[rows][live] = sigmoid(b_live / s_live[:, None])
        else:
            v = batch_solve_shared(eig, b_live, s_live, lin)
            out[rows][live] = renormalize_and_squash(v, b_live, s_live, lin.half_range)
    return out


def _train(
    sim: SimilarityView,
    cfg: TrainConfig,
    lin: LinearizedSigmoid | None,
    anchor_system,
    tail_pass,
) -> np.ndarray:
    """The schedule shared by the supervised energies.

    Initializes all marginals uniformly at random from ``cfg.seed``, runs
    ``cfg.sweeps`` sequential sweeps over the anchor rows (each row's
    system, ``anchor_system(phi_anchors, sim, row, half_range)``, built from
    the current marginals and its solution applied immediately), then
    finishes the remaining rows with ``tail_pass(phi, sim, lin)``.  A row
    without evidence (b ~ 0) gets the uninformative 0.5 marginals: the
    quadratic coupling alone carries no supervision.
    """
    lin = _resolve_linearization(cfg, lin)
    if cfg.anchors != sim.m:
        raise ValueError(f"config declares {cfg.anchors} anchors but view has {sim.m}")
    rng = np.random.default_rng(cfg.seed)
    phi = rng.random((sim.n, cfg.bits))
    m = sim.m
    for _ in range(cfg.sweeps):
        for i in range(m):
            sys = anchor_system(phi[:m], sim, i, lin.half_range)
            phi[i] = solve_row_system(sys, lin, homogeneous=False)
    if sim.n > m:
        phi[m:] = tail_pass(phi, sim, lin)
    return phi


def em_ksh_train(
    sim: SimilarityView, cfg: TrainConfig, lin: LinearizedSigmoid | None = None
) -> np.ndarray:
    """Learn soft codes for the squared-fit energy.

    Sequential anchor sweeps over :func:`ksh_anchor_system`, then one
    shared-matrix pass over the remaining rows (:func:`ksh_tail_pass`).
    Deterministic given the seed.  An all-zero similarity view degenerates
    to uniform 0.5 marginals rather than failing.
    """
    return _train(
        sim, cfg, lin, ksh_anchor_system,
        lambda phi, sim, lin: ksh_tail_pass(phi[: sim.m], sim, lin),
    )


def splh_system(sim_full: np.ndarray, half_range: float = 2.0) -> RowSystem:
    """Consistency system shared by every bit column under the correlation energy.

    The full square similarity matrix itself is the system matrix and the
    linear term is exactly zero; no bit depends on another, so all bit
    columns pose this one problem.
    """
    s = np.asarray(sim_full, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"full similarity must be square, got shape {s.shape}")
    if not np.array_equal(s, s.T):
        raise ValueError("full similarity must be symmetric")
    if not np.isin(s, (-1.0, 0.0, 1.0)).all():
        raise ValueError("similarity entries must be -1, 0 or +1")
    return make_system(s, np.zeros(s.shape[0]), half_range)


def check_dense_budget(shape: tuple) -> None:
    """Refuse a dense similarity of ``shape`` past the one-shot solve's budget."""
    if len(shape) != 2 or shape[0] > MAX_DENSE_POINTS:
        raise ValueError(
            f"dense one-shot solve supports at most {MAX_DENSE_POINTS} points, "
            f"got shape {shape}"
        )


def em_splh_train(
    sim_full: np.ndarray,
    cfg: TrainConfig,
    lin: LinearizedSigmoid | None = None,
) -> np.ndarray:
    """Learn soft codes for the correlation energy in one exact solve.

    The homogeneous path yields the single shared bit column directly; no
    initialization is involved and every bit column is a copy of it.
    """
    lin = _resolve_linearization(cfg, lin)
    raw = np.asarray(sim_full)
    check_dense_budget(raw.shape)
    s = raw.astype(float)
    if s.size == 0 or np.max(np.abs(s)) == 0.0:
        raise ValueError("all-zero similarity admits no solution")
    sys = splh_system(s, cfg.linear_range)
    column = solve_row_system(sys, lin)
    return np.repeat(column[:, None], cfg.bits, axis=1)


def variational_weight(xi: np.ndarray | float) -> np.ndarray:
    """Curvature weight of the logistic pairwise bound at pivot ``xi``.

    Equals ``-(sigmoid(xi) - 1/2) / (2 * xi)``, continued to its limit
    ``-1/8`` at zero.  Always negative and increasing toward zero as the
    pivot grows.
    """
    xi = np.abs(np.asarray(xi, dtype=float))
    safe = np.where(xi > 1e-12, xi, 1.0)
    return np.where(xi > 1e-12, -(sigmoid(safe) - 0.5) / (2.0 * safe), -0.125)


def _lfh_build(
    x_others: np.ndarray,
    s_row: np.ndarray,
    x_self: np.ndarray,
    half_range: float,
    xi_override: float | None,
) -> RowSystem:
    if xi_override is None:
        xi = np.abs(x_others @ x_self)
    else:
        xi = np.full(x_others.shape[0], float(xi_override))
    w = 4.0 * variational_weight(xi)
    a = _mirror_upper((x_others * w[:, None]).T @ x_others)
    np.fill_diagonal(a, 0.0)
    b = x_others.T @ s_row
    return make_system(a, b, half_range)


def lfh_system(
    phi: np.ndarray,
    sim: SimilarityView,
    anchor: int,
    half_range: float,
    xi_override: float | None = None,
) -> RowSystem:
    """Consistency system of one anchor row under the logistic energy.

    Shaped like the squared-fit system but with two differences: each
    pair's quadratic contribution is weighted by ``4 * variational_weight``
    at the pivot ``|expected-code inner product|`` for that pair, and the
    linear term carries no code-length factor.  ``xi_override`` pins every
    pivot to a fixed value (used to exercise the squared-fit degeneracy,
    where pivots locked at the code length reduce this system to the
    squared-fit one divided by the code length).
    """
    m = sim.m
    if not 0 <= anchor < m:
        raise IndexError(f"anchor index {anchor} out of range for {m} anchors")
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] < m:
        raise ValueError(f"need soft codes for all {m} anchors, got {phi.shape[0]} rows")
    x = 2.0 * phi[:m] - 1.0
    others = np.delete(x, anchor, axis=0)
    s_row = np.delete(sim.s[anchor, :m].astype(float), anchor)
    return _lfh_build(others, s_row, x[anchor], half_range, xi_override)


def _lfh_tail_pass(phi: np.ndarray, sim: SimilarityView, lin: LinearizedSigmoid) -> np.ndarray:
    # Pair weights depend on both endpoints, so tail rows share no matrix:
    # each builds and solves its own small system against the anchor block.
    m = sim.m
    x = 2.0 * phi - 1.0
    tail_s = sim.s[m:, :].astype(float)
    return np.array([
        solve_row_system(
            _lfh_build(x[:m], tail_s[i], x[m + i], lin.half_range, None), lin, homogeneous=False
        )
        for i in range(sim.n - m)
    ])


def em_lfh_train(
    sim: SimilarityView, cfg: TrainConfig, lin: LinearizedSigmoid | None = None
) -> np.ndarray:
    """Learn soft codes for the logistic energy.

    Same schedule as :func:`em_ksh_train` over :func:`lfh_system`, but the
    tail rows are solved one system each.
    """
    return _train(sim, cfg, lin, lfh_system, _lfh_tail_pass)


def _validate_codes_and_similarity(codes: np.ndarray, sim_full: np.ndarray):
    codes = np.asarray(codes, dtype=float)
    s = np.asarray(sim_full, dtype=float)
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
    penal = (gram - bits * s) ** 2 * (s != 0.0)
    return float(0.25 * 0.5 * (penal.sum() - np.trace(penal)))


def splh_energy(codes: np.ndarray, sim_full: np.ndarray) -> float:
    """Correlation energy: minus half the sum over pairs of
    ``similarity * code inner product``."""
    codes, s = _validate_codes_and_similarity(codes, sim_full)
    gram = codes @ codes.T
    agree = s * gram
    return float(-0.25 * (agree.sum() - np.trace(agree)))
