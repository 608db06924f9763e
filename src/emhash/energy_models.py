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
schedule and that tail; they differ in how an anchor sweep builds each row's
system and in the tail's evidence gain (see :func:`em_lfh_train`).  A ksh
sweep never rebuilds a row's coupling from the other anchors: it forms the
Gram of the anchor codes once per sweep and, after each row, applies that
row's change as a rank-2 update, so a row costs O(bits^2) on top of its
evidence and its solve.  Neither sweep re-validates what it builds: each
builds every row's (a, b) in bits-by-bits buffers shared by all its rows and
makes one call per row to the unchecked row kernel
:func:`~emhash.mean_field.solve_row`, which forms the scale.  A row's cost is
then its arithmetic: the O(m * bits) evidence product, the O(bits^3) LU solve
and O(bits^2) element-wise work, with no casts, symmetry scans or condition
checks.  :func:`ksh_anchor_system` and :func:`lfh_system`, which build one
row as a checked :class:`~emhash.mean_field.RowSystem`, are the references
the sweeps are tested against; no training path builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import _ENTRIES_MESSAGE, SimilarityView, check_signs
from .mean_field import (
    ZERO_TOL,
    LinearizedSigmoid,
    RowSystem,
    build_scale,
    is_exactly_symmetric,
    make_system,
    renormalize_and_squash,
    sigmoid,
    solve_affine,  # noqa: F401 -- alias the benchmark's tracer smoke test wraps and restores
    solve_homogeneous,
    solve_row,
)

__all__ = [
    "TrainConfig",
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
]

# Distinct label sets (u) of the em-splh similarity: its solve holds a u-by-u
# float64 matrix, 200 MB at this cap, whatever the number of points.
MAX_DENSE_POINTS = 5000

# Code length: em-ksh and em-lfh hold bits-by-bits float64 arrays, 200 MB each
# at this cap, the budget of em-splh's matrix.
MAX_BITS = 5000

# The tail's systems, one per group of points, are built, cast and solved in
# fixed blocks of this many, independent of input and thread count, so peak
# temporary memory stays bounded.
_ROW_BLOCK = 256

@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run.

    bits: code length; sweeps: passes over the anchor rows; seed:
    initialization seed.  The anchor count is the similarity view's and the
    linearization half-interval the :class:`LinearizedSigmoid`'s.
    """

    bits: int = 32
    sweeps: int = 3
    seed: int = 42

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if self.bits > MAX_BITS:
            raise ValueError(f"bits must be <= {MAX_BITS}, got {self.bits}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")


def eigendecompose_shared(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition, ``(values, vectors)`` as ``eigh`` gives
    it, with orthogonality/reconstruction checks."""
    a = np.asarray(a, dtype=float)
    values, vectors = np.linalg.eigh(a)
    dim = a.shape[0]
    ortho = np.linalg.norm(vectors.T @ vectors - np.eye(dim))
    if ortho > 1e-10:
        raise np.linalg.LinAlgError(f"eigenvector basis not orthonormal ({ortho:.3e})")
    recon = np.linalg.norm((vectors * values) @ vectors.T - a)
    if recon > 1e-8 * max(np.linalg.norm(a), 1e-30):
        raise np.linalg.LinAlgError(f"eigendecomposition reconstruction off ({recon:.3e})")
    return values, vectors


def _mirror_upper(g: np.ndarray) -> np.ndarray:
    # Exact symmetry by construction: the upper triangle is canonical.  In
    # place; adding 0.0 gives the entries of triu(g) + triu(g, 1).T exactly,
    # signed zeros included.
    g += 0.0
    np.copyto(g, g.T, where=np.tri(len(g), k=-1, dtype=bool))
    return g


def _ksh_coupling(x: np.ndarray) -> np.ndarray:
    # Squared-fit coupling of the rows of x: -(x.T x) with a zero diagonal.
    a = -_mirror_upper(x.T @ x)
    np.fill_diagonal(a, 0.0)
    return a


def ksh_anchor_system(
    phi: np.ndarray, sim: SimilarityView, anchor: int, half_range: float
) -> RowSystem:
    """Consistency system of one anchor row under the squared-fit energy,
    built from scratch: the single-row reference of the downdated sweep.

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
    s_row = np.delete(sim.s[sim.groups[anchor]].astype(float), anchor)
    b = float(bits) * (others.T @ s_row)
    return make_system(_ksh_coupling(others), b, half_range)


def ksh_tail_systems(
    a: np.ndarray, x_anchors: np.ndarray, s_rows: np.ndarray, half_range: float, gain: float
) -> tuple[np.ndarray, np.ndarray]:
    """Linear terms and scales of a block of non-anchor rows.

    Non-anchor rows never appear inside the sums, so every one of them shares
    the quadratic coupling ``a`` built once from the anchor codes
    ``x_anchors = 2 * phi_anchors - 1``; only the linear term
    ``gain * (s_rows @ x_anchors)`` and the scale vary per row, one row / one
    entry of the returned ``(b_rows, scales)`` per row of ``s_rows``.
    """
    if s_rows.ndim != 2 or s_rows.shape[1] != x_anchors.shape[0]:
        raise ValueError(
            f"similarity rows {s_rows.shape} do not match {x_anchors.shape[0]} anchors"
        )
    b = float(gain) * (s_rows.astype(float) @ x_anchors)
    return b, build_scale(a, b, half_range)


def batch_solve_shared(
    eig: tuple[np.ndarray, np.ndarray], b_rows: np.ndarray, scales: np.ndarray,
    lin: LinearizedSigmoid,
) -> np.ndarray:
    """Solve a stack of systems that share one matrix, as two matrix products.

    ``eig`` is :func:`eigendecompose_shared`'s pair.  In the shared eigenbasis
    each solve is an elementwise product:

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
    values, vectors = eig
    slope2 = 2.0 * lin.slope
    denom = scales[:, None] - slope2 * values
    bad = np.flatnonzero(np.any(denom <= 0.0, axis=1))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"solvability condition violated for row {bad[0]}: the scale does not "
            "dominate the shared spectrum"
        )
    z = (b_rows / scales[:, None]) @ vectors
    return slope2 * (((values / denom) * z) @ vectors.T)


def ksh_tail_pass(
    phi: np.ndarray, sim: SimilarityView, lin: LinearizedSigmoid, *, gain: float
) -> np.ndarray:
    """Solve every non-anchor row in place: one system per group of the view.

    ``phi`` is the float64 array of soft codes of all ``sim.n`` points,
    anchors first: its anchor rows are read, its remaining rows are
    overwritten, and that tail ``phi[m:]`` is returned.
    Tail rows never enter each other's systems, so the tail rows of one
    group pose one system.  The shared coupling and its eigendecomposition
    are computed once; each block of ``_ROW_BLOCK`` rows of ``sim.s`` gets
    its linear terms and scales from :func:`ksh_tail_systems` at evidence
    ``gain``, and every tail row then takes its group's solution.
    Dispatches like :func:`~emhash.mean_field.solve_row`: rows without
    evidence stay at 0.5 and a zero shared matrix gives ``sigmoid(b / scale)``.
    """
    m = sim.m
    if phi.shape[0] != sim.n:
        raise ValueError(f"soft codes must have exactly {sim.n} rows, got {phi.shape[0]}")
    x = 2.0 * phi[:m] - 1.0
    a = _ksh_coupling(x)
    explicit = np.max(np.abs(a)) < ZERO_TOL
    eig = None if explicit else eigendecompose_shared(a)
    solved = np.full((sim.s.shape[0], phi.shape[1]), 0.5)
    for start in range(0, solved.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        b, scales = ksh_tail_systems(a, x, sim.s[rows], lin.half_range, gain)
        live = np.max(np.abs(b), axis=1) >= ZERO_TOL
        b, scales = b[live], scales[live]
        if explicit:
            solved[rows][live] = sigmoid(b / scales[:, None])
        else:
            v = batch_solve_shared(eig, b, scales, lin)
            solved[rows][live] = renormalize_and_squash(v, b, scales, lin.half_range)
    # Unbuffered (mode="clip": every id is in range), so no temporary of the tail's size.
    return np.take(solved, sim.groups[m:], axis=0, out=phi[m:], mode="clip")


def _train(
    sim: SimilarityView,
    cfg: TrainConfig,
    lin: LinearizedSigmoid,
    sweep,
    tail_gain: float,
) -> np.ndarray:
    """The schedule shared by the supervised energies.

    Initializes the anchor marginals uniformly at random from ``cfg.seed``,
    runs ``cfg.sweeps`` sequential sweeps over the anchor rows, each one
    ``sweep(phi_anchors, sim, lin)``, which re-solves every anchor row in
    index order against the current state of the others and writes it back
    in place, then finishes the remaining rows in place with
    :func:`ksh_tail_pass` at ``tail_gain``.  A row without evidence (b ~ 0)
    gets the uninformative 0.5 marginals: the quadratic coupling alone
    carries no supervision.
    """
    m = sim.m
    phi = np.empty((sim.n, cfg.bits))
    phi[:m] = np.random.default_rng(cfg.seed).random((m, cfg.bits))
    for _ in range(cfg.sweeps):
        sweep(phi[:m], sim, lin)
    if sim.n > m:
        ksh_tail_pass(phi, sim, lin, gain=tail_gain)
    return phi


def _ksh_sweep(phi: np.ndarray, sim: SimilarityView, lin: LinearizedSigmoid) -> None:
    """One sequential squared-fit sweep over the anchor rows ``phi``, in place.

    Keeps the Gram ``G = X.T X`` of the anchor codes ``X = 2 * phi - 1``,
    formed once per sweep (which bounds rounding drift).  Row i's system is
    then :func:`ksh_anchor_system` without the rebuild: the coupling is
    ``outer(x_i, x_i) - G`` with a zero diagonal, exactly symmetric because
    each term is, and the linear term is ``bits * (s_i @ X - s_ii * x_i)``.
    Once the row is solved, the rank-2 update ``G += outer(x_i', x_i') -
    outer(x_i, x_i)`` brings the Gram up to date for the next row.  Each
    row's (a, b) is built in bits-by-bits buffers shared by all rows and
    goes straight to :func:`~emhash.mean_field.solve_row`, which forms
    :func:`~emhash.mean_field.make_system`'s scale with the same arithmetic.
    """
    m, bits = phi.shape
    x = 2.0 * phi - 1.0
    g = _mirror_upper(x.T @ x)
    own, a, work = np.empty((3, bits, bits))
    diagonal = a.reshape(-1)[:: bits + 1]
    for i in range(m):
        np.multiply.outer(x[i], x[i], out=own)
        np.subtract(own, g, out=a)
        diagonal[:] = 0.0
        s_row = sim.s[sim.groups[i]].astype(float)
        b = float(bits) * (s_row @ x - s_row[i] * x[i])
        phi[i] = solve_row(a, b, lin, work)
        x[i] = 2.0 * phi[i] - 1.0
        np.multiply.outer(x[i], x[i], out=work)
        work -= own
        g += work


def _lfh_sweep(phi: np.ndarray, sim: SimilarityView, lin: LinearizedSigmoid) -> None:
    """One sequential logistic sweep over the anchor rows ``phi``, in place.

    Each row's pair weights depend on its own codes, so there is no Gram to
    share between rows: every row builds its :func:`lfh_system` afresh, with
    the same arithmetic but into buffers shared by all rows, and goes
    straight to :func:`~emhash.mean_field.solve_row`.  The other anchors'
    codes sit in one (m-1)-row buffer: row i's differs from row i-1's only
    in slot i-1, which takes row i-1's new codes.
    """
    m, bits = phi.shape
    x = 2.0 * phi - 1.0
    others = x[1:].copy()
    weighted = np.empty_like(others)
    s_others = np.empty(m - 1)
    work = np.empty((bits, bits))
    for i in range(m):
        if i:
            others[i - 1] = x[i - 1]
        s_row = sim.s[sim.groups[i]]
        s_others[:i], s_others[i:] = s_row[:i], s_row[i + 1 :]
        a, b = _lfh_build(others, s_others, np.abs(others @ x[i]), weighted)
        phi[i] = solve_row(a, b, lin, work)
        x[i] = 2.0 * phi[i] - 1.0


def em_ksh_train(sim: SimilarityView, cfg: TrainConfig, lin: LinearizedSigmoid) -> np.ndarray:
    """Learn soft codes for the squared-fit energy.

    Sequential anchor sweeps, each over one Gram of the anchor codes kept up
    to date by a rank-2 update per row (the rows' systems are those of
    :func:`ksh_anchor_system`), then one shared-matrix pass over the
    remaining rows (:func:`ksh_tail_pass`).
    Deterministic given the seed.  An all-zero similarity view degenerates
    to uniform 0.5 marginals rather than failing.
    """
    return _train(sim, cfg, lin, _ksh_sweep, float(cfg.bits))


def splh_system(
    sigma: np.ndarray, sizes: np.ndarray, half_range: float = 2.0
) -> tuple[np.ndarray, float]:
    """Consistency system shared by every bit column under the correlation
    energy, on the groups of points with equal similarities, as ``(a, scale)``.

    The square similarity is ``S = P sigma P.T``: ``P`` puts each point in
    one of the u groups, group g holding ``sizes[g]`` points.  The linear
    term is exactly zero (so none is returned) and no bit depends on
    another, so all bit columns pose one homogeneous problem on S.  Every eigenvector of S with a
    nonzero eigenvalue is ``v = (w / sqrt(sizes))[groups]``, of the same
    norm, with w an eigenvector of the u-by-u ``D^1/2 sigma D^1/2``,
    ``D = diag(sizes)``: the returned matrix.  Each row sum of ``|S|`` is
    the row's count of nonzeros, ``(|sigma| @ sizes)[g]`` in group g, so the
    scale is S's :func:`build_scale` value, counted in integers.
    """
    sigma = np.asarray(sigma)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"label-set similarity must be square, got shape {sigma.shape}")
    if not is_exactly_symmetric(sigma):
        raise ValueError("label-set similarity must be symmetric")
    check_signs(sigma, _ENTRIES_MESSAGE, zero=True)
    sizes = np.asarray(sizes)
    if sizes.shape != sigma.shape[:1] or sizes.dtype.kind not in "iu" or (sizes < 1).any():
        raise ValueError(f"need a positive integer group size for each of the {len(sigma)} groups")
    if half_range <= 0.0:
        raise ValueError(f"half_range must be positive, got {half_range}")
    nonzeros = int(((sigma != 0) @ sizes.astype(np.int64)).max())
    # An entry of sigma is 0 or +-1, so sigma * root_i is exact and entry (i, j)
    # rounds once, to +-(root_i * root_j): the matrix is exactly symmetric.
    root = np.sqrt(sizes)
    a = sigma.astype(float)
    a *= root[:, None]
    a *= root
    return a, nonzeros / half_range


def check_dense_budget(sets: int) -> None:
    """Refuse an em-splh similarity of more than ``MAX_DENSE_POINTS`` distinct label sets."""
    if sets > MAX_DENSE_POINTS:
        raise ValueError(
            f"em-splh supports at most {MAX_DENSE_POINTS} distinct label sets, got {sets}"
        )


def em_splh_train(
    sim: tuple[np.ndarray, np.ndarray], cfg: TrainConfig, lin: LinearizedSigmoid
) -> np.ndarray:
    """Learn soft codes for the correlation energy in one exact solve.

    ``sim`` is the square similarity of the points, factored as
    ``(groups, sigma)``: points i and j have similarity
    ``sigma[groups[i], groups[j]]``.  The system is homogeneous by
    construction, so the homogeneous eigenvector path (two extremal
    eigenpairs by Lanczos) on the u-by-u :func:`splh_system`, expanded to
    the points with the sign that makes its first nonnegligible entry
    positive, re-normalized and squashed, yields the single shared bit
    column directly; no initialization is involved and every bit column is
    a copy of it.  Beside the similarity it reads only ``cfg.bits`` and
    ``lin``.
    """
    groups, sigma = np.asarray(sim[0]), np.asarray(sim[1])
    check_dense_budget(len(sigma))
    if not sigma.any():
        raise ValueError("all-zero similarity admits no solution")
    sizes = np.bincount(groups, minlength=len(sigma))
    a, scale = splh_system(sigma, sizes, lin.half_range)
    y = solve_homogeneous(a, scale, lin) / np.sqrt(sizes)
    lead = groups[np.flatnonzero(np.abs(y[groups]) > 1e-12 * np.max(np.abs(y)))[0]]
    if y[lead] < 0.0:
        y = -y
    column = renormalize_and_squash(y, np.zeros_like(y), scale, lin.half_range)
    return np.repeat(column[:, None], cfg.bits, axis=1)[groups]


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
    x_others: np.ndarray, s_row: np.ndarray, xi: np.ndarray, weighted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # The logistic (a, b) of one row against ``x_others``, pair j pivoted at
    # xi[j]; ``weighted`` is a buffer of x_others' shape.
    w = 4.0 * variational_weight(xi)
    np.multiply(x_others, w[:, None], out=weighted)
    a = _mirror_upper(weighted.T @ x_others)
    np.fill_diagonal(a, 0.0)
    return a, x_others.T @ s_row


def lfh_system(
    phi: np.ndarray,
    sim: SimilarityView,
    anchor: int,
    half_range: float,
) -> RowSystem:
    """Consistency system of one anchor row under the logistic energy.

    Shaped like the squared-fit system but with two differences: each
    pair's quadratic contribution is weighted by ``4 * variational_weight``
    at the pivot ``|expected-code inner product|`` for that pair, and the
    linear term carries no code-length factor.
    """
    m = sim.m
    if not 0 <= anchor < m:
        raise IndexError(f"anchor index {anchor} out of range for {m} anchors")
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] < m:
        raise ValueError(f"need soft codes for all {m} anchors, got {phi.shape[0]} rows")
    x = 2.0 * phi[:m] - 1.0
    others = np.delete(x, anchor, axis=0)
    s_row = np.delete(sim.s[sim.groups[anchor]].astype(float), anchor)
    a, b = _lfh_build(others, s_row, np.abs(others @ x[anchor]), np.empty_like(others))
    return make_system(a, b, half_range)


def em_lfh_train(sim: SimilarityView, cfg: TrainConfig, lin: LinearizedSigmoid) -> np.ndarray:
    """Learn soft codes for the logistic energy.

    Same schedule as :func:`em_ksh_train` over :func:`lfh_system`.  Tail
    rows are pivoted at their uninformative marginals, ``xi = 0``, where every
    pair weight is ``variational_weight(0) = -1/8``: a row's system is then
    (ksh coupling / 2, ``s_row @ x_anchors``), and doubling it, which keeps
    its solution, gives the ksh tail at evidence gain 2.
    """
    return _train(sim, cfg, lin, _lfh_sweep, 2.0)
