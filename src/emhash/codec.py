"""Rounding soft codes to sign codes and encoding unseen points.

Rounding thresholds each bit column at its own mean.  Out-of-sample encoding
fits a ridge-regression map from features to soft codes once, then any new
feature vector is projected and thresholded against the training thresholds.
A fitted :class:`ProjectionModel` is immutable; concurrent encodes are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dataio

__all__ = [
    "ProjectionModel",
    "round_codes",
    "check_ridge",
    "fit_projection",
    "encode",
    "encode_batch",
    "save_projection",
    "load_projection",
    "MODEL_MAGIC",
]

MODEL_MAGIC = b"EMHMOD01"


def round_codes(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round soft codes at per-bit column means.

    Returns ``(codes, thresholds)`` where ``codes[i, k] = +1`` iff
    ``phi[i, k] >= mean(phi[:, k])`` and -1 otherwise (ties round up).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2:
        raise ValueError(f"soft codes must be 2-d, got shape {phi.shape}")
    thresholds = phi.mean(axis=0)
    codes = np.where(phi >= thresholds, np.int8(1), np.int8(-1))
    return codes, thresholds


@dataclass(frozen=True, eq=False)
class ProjectionModel:
    """Linear feature-to-soft-code map with the training thresholds.

    ``offset`` and ``scale`` reproduce the feature standardization the map
    was fitted on: a raw feature vector x is encoded as
    ``(x - offset) * scale @ weights`` thresholded per bit.  Identity
    values mean the map was fitted on raw features.
    """

    weights: np.ndarray     # feature dim x bits
    thresholds: np.ndarray  # bits
    offset: np.ndarray      # feature dim
    scale: np.ndarray       # feature dim

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        t = np.asarray(self.thresholds, dtype=float)
        off = np.asarray(self.offset, dtype=float)
        sc = np.asarray(self.scale, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-d, got shape {w.shape}")
        if 0 in w.shape:
            raise ValueError(
                f"a model needs at least one feature and one bit, got weights of shape {w.shape}"
            )
        if t.shape != (w.shape[1],):
            raise ValueError("one threshold per bit required")
        if off.shape != (w.shape[0],) or sc.shape != (w.shape[0],):
            raise ValueError("offset/scale must match the feature dimension")
        for name, arr in (("weights", w), ("thresholds", t), ("offset", off), ("scale", sc)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite value in {name}")
            object.__setattr__(self, name, arr)

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def bits(self) -> int:
        return self.weights.shape[1]

    def with_standardization(self, offset: np.ndarray, scale: np.ndarray) -> "ProjectionModel":
        return replace(self, offset=np.asarray(offset, float), scale=np.asarray(scale, float))


def check_ridge(ridge: float) -> None:
    """Refuse a ridge strength outside [0, inf), NaN included."""
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")


def fit_projection(features: np.ndarray, phi: np.ndarray, ridge: float = 1.0) -> ProjectionModel:
    """Ridge-regress soft codes on features.

    Solves the normal equations ``(X.T X + ridge * I) W = X.T phi`` through
    the Cholesky factor ``L`` of the left side (``np.linalg.cholesky``), as
    the two triangular systems ``L Y = X.T phi`` and ``L.T W = Y``; no
    explicit inverse is formed.  The factorization doubles as the
    positive-definiteness check: with ``ridge == 0`` and rank-deficient
    features it raises ``numpy.linalg.LinAlgError``.

    The stored thresholds are the per-bit training column means expressed
    in prediction scale, i.e. the column means of ``X @ W``.  The map has
    no intercept, so on centered features its predictions sit around zero
    rather than around the soft-code level; thresholding at the predicted
    means keeps mean-rounding semantics for unseen points.  When the fit
    is exact (identity features, no ridge) these coincide with the
    soft-code column means.

    The three products over the training rows are ``einsum`` calls, never
    BLAS, so the model's bytes do not depend on the BLAS thread count.
    """
    features = np.asarray(features, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if features.ndim != 2 or phi.ndim != 2:
        raise ValueError("features and soft codes must be 2-d")
    if features.shape[0] != phi.shape[0]:
        raise ValueError(
            f"row mismatch: {features.shape[0]} feature rows vs {phi.shape[0]} code rows"
        )
    check_ridge(ridge)
    p = features.shape[1]
    gram = np.einsum("ni,nj->ij", features, features) + ridge * np.eye(p)
    factor = np.linalg.cholesky(gram)
    rhs = np.einsum("ni,nk->ik", features, phi)
    weights = np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
    thresholds = np.einsum("ni,ik->nk", features, weights).mean(axis=0)
    return ProjectionModel(
        weights=weights,
        thresholds=thresholds,
        offset=np.zeros(p),
        scale=np.ones(p),
    )


def encode(model: ProjectionModel, x: np.ndarray) -> np.ndarray:
    """Encode one feature vector to a sign code.

    Projects ``(x - offset) * scale`` through the fitted map and sets bit k
    to +1 iff the projection reaches the training threshold of bit k.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.feature_dim,):
        raise ValueError(f"expected feature vector of length {model.feature_dim}, got {x.shape}")
    return encode_batch(model, x[None])[0]


def encode_batch(model: ProjectionModel, features: np.ndarray) -> np.ndarray:
    """Encode a feature matrix in one matrix product (empty input encodes to empty)."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {features.shape}")
    if features.shape[0] == 0:
        return np.zeros((0, model.bits), dtype=np.int8)
    if features.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match model {model.feature_dim}"
        )
    projected = ((features - model.offset) * model.scale) @ model.weights
    return np.where(projected >= model.thresholds, 1, -1).astype(np.int8)


def save_projection(path: str | Path, model: ProjectionModel) -> None:
    """Write a projection model as an ``EMHMOD01`` frame (layout in :mod:`emhash.dataio`).

    The byte stream is a pure function of the model, so identical models
    serialize identically.
    """
    arrays = (model.weights.ravel(), model.thresholds, model.offset, model.scale)
    dataio.write_frame(path, MODEL_MAGIC, *model.weights.shape, np.concatenate(arrays, dtype="<f8"))


def load_projection(path: str | Path) -> ProjectionModel:
    """Read a projection model written by :func:`save_projection`."""
    p, d, payload = dataio.read_frame(
        path, MODEL_MAGIC, "projection model", lambda p, d: 8 * (p * d + d + p + p)
    )
    body = np.frombuffer(payload, dtype="<f8").astype(float)
    weights, thresholds, offset, scale = np.split(body, [p * d, p * d + d, p * d + d + p])
    try:
        return ProjectionModel(
            weights=weights.reshape(p, d), thresholds=thresholds, offset=offset, scale=scale
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
