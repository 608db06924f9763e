"""Closed-form solver for sigmoid consistency systems.

The marginals of one hashing code satisfy a coupled fixed-point condition

    phi = sigmoid(scale^-1 * (A @ (2*phi - 1) + b))

with A symmetric.  Instead of iterating it, the sigmoid is replaced by its
least-squares linear fit on [-half_range, half_range]; the scale is chosen so
every sigmoid argument stays inside that interval, and the fixed point becomes
a small dense linear system with a closed-form solution.  This module owns the
generic machinery: fitting the linearization, building the scale, the affine
(b != 0) and homogeneous (b == 0) solvers, and the final re-normalization back
through the true sigmoid.  The fit's two integrals use a fixed 24-node
Gauss-Legendre rule; its error on the analytic integrands is far below float64
rounding.  The homogeneous path needs only the two extremal eigenpairs of its
matrix, which a Lanczos solve finds without forming the whole spectrum: its
n-length products are ``einsum`` and its k-by-k tridiagonal goes to LAPACK
``eigh``, so the whole module needs numpy only.  Its eigenvector comes back
with the sign the solve gives: both signs solve a homogeneous system, and the
caller fixes one.

One row goes through one call, :func:`solve_row`: it forms the scale and the
``A ~ 0`` test from one ``|a|``, then takes the uninformative 0.5, the
explicit sigmoid, or the affine closed form and its squash.  It checks
nothing, so a sweep that builds its rows correct by construction pays for no
validation per row; no solver checks :func:`check_condition`, which no
:class:`LinearizedSigmoid` can fail.  The checked references
:class:`RowSystem`, :func:`make_system` and :func:`solve_affine` validate
their inputs, then run the kernel's own arithmetic; no step is written twice.

Everything here is pure: no function mutates its inputs (:func:`solve_row`
writes only the buffer it is handed for ``|a|``), and
:class:`LinearizedSigmoid` / :class:`RowSystem` are immutable, so independent
solves can run concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MIN_HALF_RANGE",
    "MAX_HALF_RANGE",
    "LinearizedSigmoid",
    "RowSystem",
    "sigmoid",
    "fit_linearization",
    "check_condition",
    "build_scale",
    "is_exactly_symmetric",
    "solve_affine",
    "extremal_eigenpairs",
    "solve_homogeneous",
    "renormalize_and_squash",
    "solve_row",
]

# Smallest half-range fitted.  Below about 1e-7 the fitted slope rounds to the
# tangent slope 0.25, which the LinearizedSigmoid invariants refuse; 1e-6
# leaves a margin.
MIN_HALF_RANGE = 1e-6

# Rounded upper bound on the half-range.  The fitted slope satisfies
# 2 * slope * half_range < 1 (the solver-matrix positive-definiteness
# condition) only below the true crossover at about 2.5996819, and the fit
# refuses the thin band from there up to this bound as well.
MAX_HALF_RANGE = 2.5997

# Infinity-norm below which a vector or matrix is treated as exactly zero
# when dispatching between solver paths.
ZERO_TOL = 1e-12

# A solved linear system whose residual exceeds this (relative to the
# right-hand side) signals a violated precondition or numerical breakdown.
RESIDUAL_TOL = 1e-8

# Spread of the pre-squash vector, relative to the half-range its scale
# confines it to, below which the vector is considered constant and the
# uninformative 0.5 marginal is returned instead of stretching noise.  The
# downdated em-ksh sweep matches a per-row rebuild to 1e-12 of each term's
# size, so this sits a thousandfold above that rounding.
DEGENERATE_SPAN = 1e-9

# Lanczos stops once the residual norm(A @ x - theta * x) of both extremal Ritz
# pairs is at most this times the infinity norm of A.  Breakdown (an invariant
# Krylov space) meets it at once, since each residual is at most the new beta.
LANCZOS_TOL = 1e-12

# Seed of the Lanczos start vector: the solve is a fixed function of its matrix.
LANCZOS_SEED = 0

# Rows per block of the Lanczos infinity-norm pass, so it holds no n-by-n
# temporary.
_NORM_ROWS = 64

# Gauss-Legendre nodes and weights on [-1, 1] for the linearization integrals.
# The integrands' nearest complex poles sit at +-i*pi, far enough from any
# valid interval that 24 nodes resolve them to float64 rounding.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    """Numerically stable logistic function 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


@dataclass(frozen=True)
class LinearizedSigmoid:
    """Least-squares linear fit ``sigmoid(x) ~ slope * x + intercept``.

    Valid on ``[-half_range, half_range]``.  Construction enforces the
    invariants every solver below relies on:

    * ``0 < half_range < MAX_HALF_RANGE``
    * ``intercept == 0.5`` to within quadrature tolerance (the sigmoid is
      symmetric about (0, 0.5), so the intercept residual vanishes)
    * ``0 < slope < 0.25`` (0.25 is the tangent slope at the origin)
    * ``2 * slope * half_range < 1`` (keeps every solver matrix positive
      definite, see :func:`check_condition`)
    """

    half_range: float
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not 0.0 < self.half_range < MAX_HALF_RANGE:
            raise ValueError(
                f"half_range must lie in (0, {MAX_HALF_RANGE}), got {self.half_range}"
            )
        if abs(self.intercept - 0.5) > 1e-9:
            raise ValueError(f"intercept must be 0.5 +/- 1e-9, got {self.intercept}")
        if not 0.0 < self.slope < 0.25:
            raise ValueError(f"slope must lie in (0, 0.25), got {self.slope}")
        if not check_condition(self):
            raise ValueError(
                "2 * slope must stay below 1 / half_range "
                f"(got slope={self.slope}, half_range={self.half_range})"
            )


def fit_linearization(half_range: float) -> LinearizedSigmoid:
    """Fit the least-squares line to the sigmoid on ``[-half_range, half_range]``.

    Minimizes the integrated squared error of ``slope * x + intercept``
    against the sigmoid.  The normal equations give ``intercept = 0.5``
    exactly and

        slope = 3 / (2 * half_range**3) * integral of x * sigmoid(x)

    over the interval.  ``x * sigmoid(x) = x/2 + (x/2) * tanh(x/2)`` and the
    odd part cancels, so the moment is twice the integral of
    ``(x/2) * tanh(x/2)`` on [0, half_range], which avoids cancellation.
    That integral and the intercept's mass are evaluated by the fixed
    24-node Gauss-Legendre rule; the moment is written in the rule's unit
    variable so no power of ``half_range`` can underflow.

    Raises ``ValueError`` for NaN, outside [MIN_HALF_RANGE, MAX_HALF_RANGE),
    and at or past the crossover near 2.5996819 just below the upper bound:
    there the fitted slope no longer guarantees an invertible solve.
    """
    if np.isnan(half_range):
        raise ValueError(
            f"half_range must be a number from {MIN_HALF_RANGE} up to the solvability "
            f"crossover near 2.5996819, got {half_range}"
        )
    if half_range < MIN_HALF_RANGE:
        raise ValueError(
            f"half_range must be at least {MIN_HALF_RANGE}, got {half_range}; "
            "below it the fitted slope rounds to the tangent slope 0.25"
        )
    if half_range >= MAX_HALF_RANGE:
        raise ValueError(
            f"half_range must stay below {MAX_HALF_RANGE}; beyond it the fitted "
            "slope violates the solvability condition"
        )
    # x = half_range * u / 2 with u = 1 + node maps the rule onto [0, half_range].
    u = 1.0 + _GL_NODES
    slope = 0.375 * float(_GL_WEIGHTS @ (u * np.tanh(0.25 * half_range * u))) / half_range
    intercept = 0.5 * float(_GL_WEIGHTS @ sigmoid(half_range * _GL_NODES))
    if 2.0 * slope >= 1.0 / half_range:
        raise ValueError(
            f"half_range must stay below the solvability crossover near 2.5996819, "
            f"got {half_range}; there 2 * slope * half_range reaches 1"
        )
    return LinearizedSigmoid(half_range=half_range, slope=slope, intercept=intercept)


def check_condition(lin: LinearizedSigmoid) -> bool:
    """True iff ``2 * slope < 1 / half_range``.

    Under this condition the matrix ``scale * I - 2 * slope * A`` of every
    properly scaled system is positive definite (the scale dominates the
    spectral radius of A by a row-sum bound), so solves cannot break down.
    """
    return 2.0 * lin.slope < 1.0 / lin.half_range


def build_scale(a: np.ndarray, b: np.ndarray, half_range: float) -> float | np.ndarray:
    """Row-sum scale that confines every sigmoid argument to the fit interval.

    Returns ``max_k(sum_j |a[k, j]| + |b[k]|) / half_range``; for any u with
    entries in [-1, 1], every entry of ``(a @ u + b) / scale`` then lies in
    ``[-half_range, half_range]``.  Zero inputs give scale 0.  A stack ``b``
    of shape ``(rows, dim)`` (systems sharing ``a``) gives one scale per row.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.ndim not in (1, 2) or b.shape[-1] != a.shape[0]:
        raise ValueError(f"vector length {b.shape} does not match matrix {a.shape}")
    if half_range <= 0.0:
        raise ValueError(f"half_range must be positive, got {half_range}")
    scales = _scales(np.abs(a), b, half_range)
    return float(scales) if b.ndim == 1 else scales


def _scales(abs_a: np.ndarray, b: np.ndarray, half_range: float) -> np.ndarray:
    return (abs_a.sum(axis=1) + np.abs(b)).max(axis=-1) / half_range


def is_exactly_symmetric(a: np.ndarray) -> bool:
    """True iff the square matrix ``a`` equals its transpose entry for entry."""
    return np.array_equal(a, a.T)


@dataclass(frozen=True, eq=False)
class RowSystem:
    """One consistency-equation instance: symmetric matrix, vector, scale.

    ``a`` must be exactly symmetric (built symmetric, never symmetrized
    after the fact) and ``scale`` is the :func:`build_scale` value for the
    half-range in use.  Both are held as float64.
    """

    a: np.ndarray
    b: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError(f"vector length {b.shape} does not match matrix {a.shape}")
        if not is_exactly_symmetric(a):
            raise ValueError("matrix must be exactly symmetric")
        if self.scale < 0.0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def make_system(a: np.ndarray, b: np.ndarray, half_range: float) -> RowSystem:
    """Bundle (a, b) with their :func:`build_scale` value."""
    return RowSystem(a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float),
                     scale=build_scale(a, b, half_range))


def solve_affine(sys: RowSystem, lin: LinearizedSigmoid) -> np.ndarray:
    """Closed-form solve of the linearized system for b != 0.

    The linearized fixed point reads ``(scale * inv(A) - 2*slope*I) v =
    2*slope/scale * b``.  Multiplying through by A gives the equivalent
    inversion-free form

        (scale * I - 2*slope*A) v = 2*slope/scale * A @ b

    whose left factor is positive definite whenever :func:`check_condition`
    holds, so it stays well posed even for singular A.  When A is zero
    (within tolerance) the consistency equation needs no transformation and
    v = 0 is returned.

    Raises ``numpy.linalg.LinAlgError`` if the solve residual exceeds
    ``RESIDUAL_TOL`` relative to the right-hand side, which signals a
    violated precondition rather than an expected outcome.
    """
    if sys.scale <= 0.0:
        raise ValueError("affine path requires a positive scale")
    if np.max(np.abs(sys.b)) < ZERO_TOL:
        raise ValueError("affine path requires b != 0; use the homogeneous path")
    if np.max(np.abs(sys.a)) < ZERO_TOL:
        return np.zeros(sys.dim)
    return _affine(sys.a, sys.b, sys.scale, lin.slope)


def _affine(a: np.ndarray, b: np.ndarray, scale: float, slope: float) -> np.ndarray:
    # The closed form of solve_affine past its checks.  The left factor is
    # ``scale * I - 2*slope*A`` entry for entry: 0.0 - 2*slope*a off the
    # diagonal, then scale added on it.
    lhs = np.multiply(a, 2.0 * slope)
    np.subtract(0.0, lhs, out=lhs)
    lhs.reshape(-1)[:: len(b) + 1] += scale
    rhs = (2.0 * slope / scale) * (a @ b)
    v = np.linalg.solve(lhs, rhs)
    residual = np.abs(lhs @ v - rhs).max()
    if residual > RESIDUAL_TOL * max(1.0, np.abs(rhs).max()):
        raise np.linalg.LinAlgError(
            f"affine solve residual {residual:.3e} exceeds tolerance; "
            "system preconditions are likely violated"
        )
    return v


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.einsum("i,i->", x, y))


def extremal_eigenpairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenpairs of a symmetric matrix, by Lanczos.

    Returns ``(values, vectors)`` with ``values = [lambda_min, lambda_max]``
    and unit eigenvectors as the columns of ``vectors``.  The Krylov basis
    starts from a Gaussian vector drawn from ``LANCZOS_SEED`` and is fully
    reorthogonalized (classical Gram-Schmidt, twice) at every step; it grows
    one row at a time, so memory is O(n * steps).  The solve stops once both
    extremal Ritz residuals are at most ``LANCZOS_TOL`` times the infinity
    norm of ``a``, on breakdown, or after n steps, where the Krylov space is
    the whole space and the Ritz pairs are exact.  At each step the Ritz
    pairs come from LAPACK's ``eigh`` of the k-by-k Lanczos tridiagonal.

    Within a repeated extremal eigenvalue the vector is the start vector's
    component in that eigenspace: deterministic, but not the one a dense
    eigensolver picks.  Every n-length product is an ``einsum``, never BLAS,
    so only the k-by-k ``eigh`` could see the BLAS thread count; the tests
    check that the result's bytes are the same at 1, 2 and 4 OpenBLAS
    threads.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"matrix must be square and nonempty, got shape {a.shape}")
    n = a.shape[0]
    norm = max(
        float(np.abs(a[k : k + _NORM_ROWS], dtype=float).sum(axis=1).max())
        for k in range(0, n, _NORM_ROWS)
    )
    start = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    basis = np.empty((min(n, 16), n))
    basis[0] = start / np.sqrt(_dot(start, start))
    alpha: list[float] = []
    beta: list[float] = []
    for k in range(1, n + 1):
        w = np.einsum("ij,j->i", a, basis[k - 1])
        projection = np.zeros(k)
        for _ in range(2):
            c = np.einsum("kn,n->k", basis[:k], w)
            w -= np.einsum("k,kn->n", c, basis[:k])
            projection += c
        alpha.append(float(projection[-1]))
        step = float(np.sqrt(_dot(w, w)))
        values, ritz = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        values, ritz = values[[0, -1]], ritz[:, [0, -1]]
        if k == n or step * np.max(np.abs(ritz[-1])) <= LANCZOS_TOL * norm:
            break
        beta.append(step)
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, n - k), n))])
        basis[k] = w / step
    vectors = np.einsum("kn,kj->nj", basis[:k], ritz)
    vectors /= np.sqrt(np.einsum("nj,nj->j", vectors, vectors))
    return values, vectors


def solve_homogeneous(a: np.ndarray, scale: float, lin: LinearizedSigmoid) -> np.ndarray:
    """Best nonzero direction of the linearized system for b == 0.

    ``a`` is the exactly symmetric matrix (not checked) and ``scale`` its
    :func:`build_scale` value.

    With b = 0 the linear system has no nonzero solution, so the unit
    minimizer of ``norm((scale * inv(A) - 2*slope*I) v)`` is returned
    instead.  In A's eigenbasis that norm factor is
    ``|scale / eigenvalue - 2*slope|`` per eigendirection, so the
    eigenvector whose eigenvalue minimizes it is the answer; zero
    eigenvalues cost infinitely much and are never picked, which keeps
    the form valid for singular A without ever inverting it.  For spectra
    dominated by their top positive eigenvalue (the similarity matrices
    this path serves) the minimizer is simply the top eigenvector.

    Only the two extremal eigenpairs can win, so only they are computed
    (:func:`extremal_eigenpairs`).  With the :func:`build_scale` scale and
    :func:`check_condition` holding, ``scale >= 2*slope*lambda_max``, so over
    positive eigenvalues the cost ``scale/lambda - 2*slope`` is least at
    lambda_max; over negative ones ``scale/|lambda| + 2*slope`` is least at
    lambda_min.  A tie goes to lambda_min.

    Both signs of the eigenvector solve the problem, so it is returned with
    whatever sign the eigensolver gives; a caller that needs a fixed sign
    fixes it (:func:`~emhash.energy_models.em_splh_train` does, on the points).
    """
    if scale <= 0.0:
        raise ValueError("homogeneous path requires a positive scale")
    if max(float(a.max()), -float(a.min())) < ZERO_TOL:
        raise ValueError("zero matrix admits no preferred direction")
    values, vectors = extremal_eigenpairs(a)
    live = np.abs(values) > ZERO_TOL * np.max(np.abs(values))
    cost = np.full(values.shape, np.inf)
    cost[live] = np.abs(scale / values[live] - 2.0 * lin.slope)
    return vectors[:, int(np.argmin(cost))]


def renormalize_and_squash(
    v: np.ndarray, b: np.ndarray, scale: float | np.ndarray, half_range: float
) -> np.ndarray:
    """Map solved rows ``v``, ``b`` of shape ``(..., dim)`` back to marginals.

    Each row, with its own ``scale``, forms ``v' = v + b / scale``, stretches
    it affinely so that ``min(v') -> -half_range`` and ``max(v') ->
    +half_range``, and returns ``sigmoid(v')``.  A row spanning at most
    ``DEGENERATE_SPAN * half_range`` (including length 1) carries no ordering
    information beyond rounding, so it gets the uninformative 0.5 marginal
    without a divide by its spread.  The threshold moves with the half-range:
    the scale confines each argument ``(A u + b) / scale`` of a row to
    ``[-half_range, half_range]``, so that is the size its rounding scales with.
    """
    v = np.asarray(v, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if v.shape != b.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {b.shape}")
    if scale.shape != v.shape[:-1]:
        raise ValueError(f"one scale per row required, got {scale.shape} for {v.shape}")
    if (scale <= 0.0).any():
        raise ValueError("renormalization requires a positive scale")
    return _squash(v + b / scale[..., None], half_range)


def _squash(vp: np.ndarray, half_range: float) -> np.ndarray:
    # renormalize_and_squash past its checks, on v' = v + b / scale.
    lo = vp.min(axis=-1, keepdims=True)
    span = vp.max(axis=-1, keepdims=True) - lo
    # Flat rows stretch by a finite dummy span and are then zeroed: sigmoid(0) = 0.5.
    floor = DEGENERATE_SPAN * half_range
    gain = half_range * (span > floor)
    return sigmoid(gain * (2.0 * (vp - lo) / np.maximum(span, floor) - 1.0))


def solve_row(
    a: np.ndarray, b: np.ndarray, lin: LinearizedSigmoid, work: np.ndarray
) -> np.ndarray:
    """The row kernel: solve one consistency system end to end, unchecked.

    ``a`` is the float64 exactly symmetric matrix and ``b`` the float64
    vector; nothing of this is checked here, because a sweep builds its rows
    correct by construction.  A row with evidence writes ``|a|`` into
    ``work``, a float64 buffer of a's shape that a sweep reuses across rows;
    from it come the :func:`build_scale` value and the largest ``|a[k, j]|``,
    the ``A ~ 0`` test.  Dispatch:

    * b == 0 (which covers the zero system, ``scale == 0``): no observed
      similarity constrains the row, so uniform 0.5 marginals.
    * ``A ~ 0`` with b != 0: the consistency equation is already explicit,
      ``sigmoid(b / scale)`` (the scale construction bounds the argument,
      so no re-normalization is needed and none is applied).
    * otherwise: the affine closed form of :func:`solve_affine`, whose
      ``RESIDUAL_TOL`` guard still raises ``numpy.linalg.LinAlgError``,
      then re-normalize and squash as :func:`renormalize_and_squash` does.

    Energies that are homogeneous by construction (b == 0 always) take
    :func:`solve_homogeneous` directly instead.
    """
    if np.abs(b).max() < ZERO_TOL:
        return np.full(len(b), 0.5)
    np.abs(a, out=work)
    scale = float(_scales(work, b, lin.half_range))
    if work.max() < ZERO_TOL:
        return sigmoid(b / scale)
    return _squash(_affine(a, b, scale, lin.slope) + b / scale, lin.half_range)
