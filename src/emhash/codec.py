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
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "ProjectionModel",
    "round_codes",
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
    codes = np.where(phi >= thresholds, 1, -1).astype(np.int8)
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
        if t.shape != (w.shape[1],):
            raise ValueError("one threshold per bit required")
        if off.shape != (w.shape[0],) or sc.shape != (w.shape[0],):
            raise ValueError("offset/scale must match the feature dimension")
        for name, arr in (("weights", w), ("thresholds", t), ("offset", off), ("scale", sc)):
            object.__setattr__(self, name, arr)

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def bits(self) -> int:
        return self.weights.shape[1]

    def with_standardization(self, offset: np.ndarray, scale: np.ndarray) -> "ProjectionModel":
        return replace(self, offset=np.asarray(offset, float), scale=np.asarray(scale, float))


def fit_projection(features: np.ndarray, phi: np.ndarray, ridge: float = 1.0) -> ProjectionModel:
    """Ridge-regress soft codes on features.

    Solves the normal equations ``(X.T X + ridge * I) W = X.T phi`` through
    a symmetric positive-definite factorization (never an explicit
    inverse).  With ``ridge == 0`` and rank-deficient features the
    factorization fails and the error propagates.

    The stored thresholds are the per-bit training column means expressed
    in prediction scale, i.e. the column means of ``X @ W``.  The map has
    no intercept, so on centered features its predictions sit around zero
    rather than around the soft-code level; thresholding at the predicted
    means keeps mean-rounding semantics for unseen points.  When the fit
    is exact (identity features, no ridge) these coincide with the
    soft-code column means.
    """
    features = np.asarray(features, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if features.ndim != 2 or phi.ndim != 2:
        raise ValueError("features and soft codes must be 2-d")
    if features.shape[0] != phi.shape[0]:
        raise ValueError(
            f"row mismatch: {features.shape[0]} feature rows vs {phi.shape[0]} code rows"
        )
    if ridge < 0.0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    p = features.shape[1]
    gram = features.T @ features + ridge * np.eye(p)
    factor = cho_factor(gram)
    weights = cho_solve(factor, features.T @ phi)
    thresholds = (features @ weights).mean(axis=0)
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
    """Write a projection model to its flat binary layout.

    Layout, all little-endian: 8-byte magic, unsigned 64-bit feature dim
    and bits, then float64 weights (row-major), thresholds, offset, scale.
    The byte stream is a pure function of the model, so identical models
    serialize identically.
    """
    p, d = model.weights.shape
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(np.array([p, d], dtype="<u8").tobytes())
        fh.write(model.weights.astype("<f8").tobytes())
        fh.write(model.thresholds.astype("<f8").tobytes())
        fh.write(model.offset.astype("<f8").tobytes())
        fh.write(model.scale.astype("<f8").tobytes())


def load_projection(path: str | Path) -> ProjectionModel:
    """Read a projection model written by :func:`save_projection`."""
    raw = Path(path).read_bytes()
    if raw[:8] != MODEL_MAGIC:
        raise ValueError(f"{path}: bad magic, not a projection model file")
    header = np.frombuffer(raw, dtype="<u8", count=2, offset=8)
    p, d = int(header[0]), int(header[1])
    need = 8 + 16 + 8 * (p * d + d + p + p)
    if len(raw) != need:
        raise ValueError(f"{path}: truncated or oversized payload ({len(raw)} vs {need} bytes)")
    body = np.frombuffer(raw, dtype="<f8", offset=24)
    weights = body[: p * d].reshape(p, d)
    thresholds = body[p * d : p * d + d]
    offset = body[p * d + d : p * d + d + p]
    scale = body[p * d + d + p :]
    return ProjectionModel(
        weights=weights.copy(),
        thresholds=thresholds.copy(),
        offset=offset.copy(),
        scale=scale.copy(),
    )
