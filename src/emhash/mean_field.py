"""Closed-form solver for sigmoid consistency systems.

The marginals of one hashing code satisfy a coupled fixed-point condition

    phi = sigmoid(scale^-1 * (A @ (2*phi - 1) + b))

with A symmetric.  Instead of iterating it, the sigmoid is replaced by its
least-squares linear fit on [-half_range, half_range]; the scale is chosen so
every sigmoid argument stays inside that interval, and the fixed point becomes
a small dense linear system with a closed-form solution.  This module owns the
generic machinery: fitting the linearization, building the scale, the affine
(b != 0) and homogeneous (b == 0) solvers, and the final re-normalization back
through the true sigmoid.

Everything here is pure: no function mutates its inputs, and
:class:`LinearizedSigmoid` / :class:`RowSystem` are immutable, so independent
solves can run concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve as dense_solve

__all__ = [
    "MAX_HALF_RANGE",
    "LinearizedSigmoid",
    "RowSystem",
    "sigmoid",
    "fit_linearization",
    "check_condition",
    "build_scale",
    "solve_affine",
    "solve_homogeneous",
    "renormalize_and_squash",
    "solve_row_system",
]

# Largest half-range for which the fitted slope automatically satisfies
# 2 * slope * half_range < 1 (the solver-matrix positive-definiteness
# condition); the true crossover sits at ~2.59968.
MAX_HALF_RANGE = 2.5997

# Infinity-norm below which a vector or matrix is treated as exactly zero
# when dispatching between solver paths.
ZERO_TOL = 1e-12

# A solved linear system whose residual exceeds this (relative to the
# right-hand side) signals a violated precondition or numerical breakdown.
RESIDUAL_TOL = 1e-8

# Spread below which the pre-squash vector is considered constant and the
# uninformative 0.5 marginal is returned instead of stretching noise.
DEGENERATE_SPAN = 1e-12


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    """Numerically stable logistic function 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
        if 2.0 * self.slope >= 1.0 / self.half_range:
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

    over the interval.  The moment integral is evaluated by adaptive
    quadrature; ``x * sigmoid(x) = x/2 + (x/2) * tanh(x/2)`` and the odd
    part cancels, so the even remainder is integrated on [0, half_range]
    to avoid cancellation.

    Raises ``ValueError`` outside (0, MAX_HALF_RANGE): beyond the upper
    bound the fitted slope no longer guarantees an invertible solve.
    """
    if half_range <= 0.0:
        raise ValueError(f"half_range must be positive, got {half_range}")
    if half_range >= MAX_HALF_RANGE:
        raise ValueError(
            f"half_range must stay below {MAX_HALF_RANGE}; beyond it the fitted "
            "slope violates the solvability condition"
        )
    moment, _ = quad(
        lambda x: x * np.tanh(0.5 * x), 0.0, half_range, epsabs=1e-12, epsrel=1e-12
    )
    slope = 1.5 * moment / half_range**3
    mass, _ = quad(
        lambda x: float(sigmoid(x)), -half_range, half_range, epsabs=1e-12, epsrel=1e-12
    )
    intercept = mass / (2.0 * half_range)
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
    scales = np.max(np.abs(a).sum(axis=1) + np.abs(b), axis=-1) / half_range
    return float(scales) if b.ndim == 1 else scales


@dataclass(frozen=True, eq=False)
class RowSystem:
    """One consistency-equation instance: symmetric matrix, vector, scale.

    ``a`` must be exactly symmetric (built symmetric, never symmetrized
    after the fact) and ``scale`` is the :func:`build_scale` value for the
    half-range in use.
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
        if not np.array_equal(a, a.T):
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
    if not check_condition(lin):
        raise ValueError("linearization violates the solvability condition")
    if np.max(np.abs(sys.b)) < ZERO_TOL:
        raise ValueError("affine path requires b != 0; use the homogeneous path")
    if np.max(np.abs(sys.a)) < ZERO_TOL:
        return np.zeros(sys.dim)
    lhs = sys.scale * np.eye(sys.dim) - 2.0 * lin.slope * sys.a
    rhs = (2.0 * lin.slope / sys.scale) * (sys.a @ sys.b)
    v = dense_solve(lhs, rhs, assume_a="pos")
    residual = np.max(np.abs(lhs @ v - rhs))
    if residual > RESIDUAL_TOL * max(1.0, np.max(np.abs(rhs))):
        raise np.linalg.LinAlgError(
            f"affine solve residual {residual:.3e} exceeds tolerance; "
            "system preconditions are likely violated"
        )
    return v


def solve_homogeneous(sys: RowSystem, lin: LinearizedSigmoid) -> np.ndarray:
    """Best nonzero direction of the linearized system for b == 0.

    With b = 0 the linear system has no nonzero solution, so the unit
    minimizer of ``norm((scale * inv(A) - 2*slope*I) v)`` is returned
    instead.  In A's eigenbasis that norm factor is
    ``|scale / eigenvalue - 2*slope|`` per eigendirection, so the
    eigenvector whose eigenvalue minimizes it is the answer; zero
    eigenvalues cost infinitely much and are never picked, which keeps
    the form valid for singular A without ever inverting it.  For spectra
    dominated by their top positive eigenvalue (the similarity matrices
    this path serves) the minimizer is simply the top eigenvector.

    The sign is fixed so the first entry of nonnegligible magnitude is
    positive (both signs solve the problem; hashing bits are
    sign-symmetric under Hamming ranking).
    """
    if sys.scale <= 0.0:
        raise ValueError("homogeneous path requires a positive scale")
    if np.max(np.abs(sys.b)) >= ZERO_TOL:
        raise ValueError("homogeneous path requires b == 0")
    if np.max(np.abs(sys.a)) < ZERO_TOL:
        raise ValueError("zero matrix admits no preferred direction")
    values, vectors = np.linalg.eigh(sys.a)
    live = np.abs(values) > ZERO_TOL * np.max(np.abs(values))
    cost = np.full(values.shape, np.inf)
    cost[live] = np.abs(sys.scale / values[live] - 2.0 * lin.slope)
    v = vectors[:, int(np.argmin(cost))]
    lead = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
    if v[lead] < 0.0:
        v = -v
    return v


def renormalize_and_squash(
    v: np.ndarray, b: np.ndarray, scale: float | np.ndarray, half_range: float
) -> np.ndarray:
    """Map solved rows ``v``, ``b`` of shape ``(..., dim)`` back to marginals.

    Each row, with its own ``scale``, forms ``v' = v + b / scale``, stretches
    it affinely so that ``min(v') -> -half_range`` and ``max(v') ->
    +half_range``, and returns ``sigmoid(v')``.  A row spanning less than
    ``DEGENERATE_SPAN`` (including length 1) carries no ordering information,
    so it gets the uninformative 0.5 marginal without a divide by its spread.
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
    vp = v + b / scale[..., None]
    lo = vp.min(axis=-1, keepdims=True)
    span = vp.max(axis=-1, keepdims=True) - lo
    # Flat rows stretch by a finite dummy span and are then zeroed: sigmoid(0) = 0.5.
    gain = half_range * (span >= DEGENERATE_SPAN)
    return sigmoid(gain * (2.0 * (vp - lo) / np.maximum(span, DEGENERATE_SPAN) - 1.0))


def solve_row_system(
    sys: RowSystem, lin: LinearizedSigmoid, *, homogeneous: bool = True
) -> np.ndarray:
    """Solve one consistency system end to end.

    Dispatch:

    * ``scale == 0`` (zero system): no evidence, uniform 0.5 marginals.
    * ``A ~ 0`` with b != 0: the consistency equation is already explicit,
      ``sigmoid(b / scale)`` (the scale construction bounds the argument,
      so no re-normalization is needed and none is applied).
    * b == 0: with ``homogeneous`` (energies that are homogeneous by
      construction), the homogeneous eigenvector path, then re-normalize
      and squash; without it (energies whose evidence lives in b), no
      observed similarity constrains the row and the uniform 0.5
      marginals are returned.
    * otherwise: affine closed-form path, then re-normalize and squash.
    """
    if sys.scale == 0.0:
        return np.full(sys.dim, 0.5)
    if np.max(np.abs(sys.b)) < ZERO_TOL:
        if not homogeneous:
            return np.full(sys.dim, 0.5)
        v = solve_homogeneous(sys, lin)
        return renormalize_and_squash(v, sys.b, sys.scale, lin.half_range)
    if np.max(np.abs(sys.a)) < ZERO_TOL:
        return sigmoid(sys.b / sys.scale)
    v = solve_affine(sys, lin)
    return renormalize_and_squash(v, sys.b, sys.scale, lin.half_range)
