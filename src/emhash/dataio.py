"""Feature/label loading, similarity derivation, anchor sampling, code files.

Two feature sources are supported: a text CSV (one point per row, optional
trailing label field) and a flat binary matrix.  Similarity is always derived
on demand from labels -- the full pairwise matrix is never required, only the
sampled point-by-anchor block -- with the usual semantics: same class or at
least one shared tag means similar, disjoint means dissimilar, and a missing
label on either side means unobserved.

Binary layouts (all little-endian, magic first for corruption detection):

* feature matrix ``EMHMAT01``: magic, u64 rows, u64 columns, then
  rows*columns float32 values row-major.
* packed codes ``EMHBIN01``: magic, u64 rows, u64 bits, then ceil(bits/8)
  bytes per row; bit value 1 means +1, most-significant bit first, zero
  padding in the final byte.

Loaded datasets are immutable in spirit: nothing here mutates them, and
on-demand similarity evaluation is pure, so shared use across threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "MATRIX_MAGIC",
    "CODES_MAGIC",
    "load_feature_matrix",
    "write_feature_matrix",
    "write_feature_csv",
    "load_label_file",
    "write_label_file",
    "standardize_features",
    "label_similarity",
    "similarity_from_labels",
    "full_similarity",
    "sample_similarity_columns",
    "write_codes",
    "read_codes",
    "synthesize_clusters",
]

MATRIX_MAGIC = b"EMHMAT01"
CODES_MAGIC = b"EMHBIN01"

# Dense similarity blocks are materialized up to this many entries.
MAX_DENSE_ENTRIES = 10**8

Label = None | int | frozenset


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix plus optional per-point labels.

    Labels are one class id per point, a tag set per point, or None for an
    unlabeled point; a dataset may also carry no labels at all.
    """

    features: np.ndarray
    labels: list | None = None

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=float)
        if f.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("features contain non-finite values")
        if self.labels is not None and len(self.labels) != f.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {f.shape[0]} points"
            )
        object.__setattr__(self, "features", f)

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _parse_label(token: str) -> Label:
    token = token.strip()
    if not token:
        return None
    if ";" in token:
        tags = frozenset(int(part) for part in token.split(";") if part.strip())
        return tags if tags else None
    return int(token)


def _format_label(label: Label) -> str:
    if label is None:
        return ""
    if isinstance(label, frozenset):
        body = ";".join(str(t) for t in sorted(label))
        # A trailing separator keeps a single tag distinguishable from a class id.
        return body + (";" if len(label) == 1 else "")
    return str(label)


def load_feature_matrix(path: str | Path, fmt: str = "csv", labeled: bool = False) -> Dataset:
    """Load a feature matrix with optional labels.

    ``fmt`` is ``"csv"`` or ``"binary"``.  For CSV, ``labeled=True`` treats
    the final field of each row as a label: an integer class id, a
    semicolon-separated tag list, or empty for an unlabeled point.  The
    binary format never carries labels.
    """
    path = Path(path)
    if fmt == "binary":
        if labeled:
            raise ValueError("the binary matrix format does not carry labels")
        return _load_binary_matrix(path)
    if fmt != "csv":
        raise ValueError(f"unknown feature format {fmt!r}")
    rows: list[list[float]] = []
    labels: list[Label] = []
    width = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if labeled:
            if len(fields) < 2:
                raise ValueError(f"{path}:{lineno}: labeled rows need at least 2 fields")
            labels.append(_parse_label(fields[-1]))
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
    return Dataset(features=features, labels=labels if labeled else None)


def _load_binary_matrix(path: Path) -> Dataset:
    raw = path.read_bytes()
    if raw[:8] != MATRIX_MAGIC:
        raise ValueError(f"{path}: bad magic, not a feature matrix file")
    if len(raw) < 24:
        raise ValueError(f"{path}: truncated header")
    header = np.frombuffer(raw, dtype="<u8", count=2, offset=8)
    n, p = int(header[0]), int(header[1])
    need = 24 + 4 * n * p
    if len(raw) != need:
        raise ValueError(f"{path}: truncated or oversized payload ({len(raw)} vs {need} bytes)")
    values = np.frombuffer(raw, dtype="<f4", offset=24).astype(float).reshape(n, p)
    return Dataset(features=values)


def write_feature_matrix(path: str | Path, features: np.ndarray) -> None:
    """Write features in the binary matrix layout (values stored as float32)."""
    features = np.asarray(features, dtype=float)
    n, p = features.shape
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(np.array([n, p], dtype="<u8").tobytes())
        fh.write(features.astype("<f4").tobytes())


def write_feature_csv(path: str | Path, features: np.ndarray, labels: list | None = None) -> None:
    """Write a feature CSV, appending a label field per row when given."""
    features = np.asarray(features, dtype=float)
    lines = []
    for i, row in enumerate(features):
        fields = [repr(float(v)) for v in row]
        if labels is not None:
            fields.append(_format_label(labels[i]))
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_label_file(path: str | Path) -> list:
    """Load labels from a text file, one label field per line.

    Same token syntax as the CSV label column; a blank line marks an
    unlabeled point.
    """
    text = Path(path).read_text()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    return [_parse_label(line) for line in lines]


def write_label_file(path: str | Path, labels: list) -> None:
    Path(path).write_text("\n".join(_format_label(l) for l in labels) + ("\n" if labels else ""))


def standardize_features(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shift/scale every feature dimension to zero mean and unit variance.

    Returns ``(standardized, offset, scale)`` with
    ``standardized = (features - offset) * scale``.  Constant dimensions get
    scale 0 and map to all-zeros instead of dividing by zero.
    """
    features = np.asarray(features, dtype=float)
    offset = features.mean(axis=0)
    sd = features.std(axis=0)
    safe = np.where(sd > 1e-12, sd, 1.0)
    scale = np.where(sd > 1e-12, 1.0 / safe, 0.0)
    return (features - offset) * scale, offset, scale


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


def similarity_from_labels(dataset: Dataset, i: int, j: int) -> int:
    """Similarity of points i and j of a labeled dataset."""
    if dataset.labels is None:
        raise ValueError("dataset carries no labels")
    return label_similarity(dataset.labels[i], dataset.labels[j])


def _class_array(labels: list) -> np.ndarray | None:
    # Fast path: every point carries a plain class id.
    if all(isinstance(l, int) and not isinstance(l, bool) for l in labels):
        return np.array(labels, dtype=np.int64)
    return None


def _similarity_block(row_labels: list, col_labels: list) -> np.ndarray:
    classes_r = _class_array(row_labels)
    classes_c = _class_array(col_labels)
    if classes_r is not None and classes_c is not None:
        return np.where(classes_r[:, None] == classes_c[None, :], np.int8(1), np.int8(-1))
    out = np.empty((len(row_labels), len(col_labels)), dtype=np.int8)
    for i, a in enumerate(row_labels):
        for j, b in enumerate(col_labels):
            out[i, j] = label_similarity(a, b)
    return out


def full_similarity(labels: list) -> np.ndarray:
    """Square similarity matrix of a label list, entries in {-1, 0, +1}."""
    if len(labels) ** 2 > MAX_DENSE_ENTRIES:
        raise ValueError("full similarity matrix would exceed the dense budget")
    return _similarity_block(labels, labels)


def sample_similarity_columns(dataset: Dataset, m: int, seed: int):
    """Sample anchor columns of the similarity matrix.

    Chooses ``m`` anchor indices uniformly without replacement, reorders the
    points so the anchors come first (anchors in ascending original order,
    then the remaining points in ascending original order), and materializes
    the dense points-by-anchors block.  Returns ``(view, order)`` where
    ``order[k]`` is the original index of the point at position k; the caller
    applies the same order to features and undoes it on the way out.
    """
    from .energy_models import SimilarityView

    if dataset.labels is None:
        raise ValueError("anchor sampling requires labels")
    n = dataset.n
    if not 1 <= m <= n:
        raise ValueError(f"anchor count must lie in [1, {n}], got {m}")
    if n * m > MAX_DENSE_ENTRIES:
        raise ValueError("similarity view would exceed the dense budget")
    rng = np.random.default_rng(seed)
    anchors = np.sort(rng.choice(n, size=m, replace=False))
    rest = np.setdiff1d(np.arange(n), anchors, assume_unique=True)
    order = np.concatenate([anchors, rest])
    ordered_labels = [dataset.labels[k] for k in order]
    anchor_labels = [dataset.labels[k] for k in anchors]
    block = _similarity_block(ordered_labels, anchor_labels)
    return SimilarityView(s=block), order


def write_codes(path: str | Path, codes: np.ndarray, fmt: str = "text") -> None:
    """Write sign codes as text lines or in the packed binary layout."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-d, got shape {codes.shape}")
    if codes.size and not np.isin(codes, (-1, 1)).all():
        raise ValueError("codes must contain only +1 and -1")
    if fmt == "text":
        lines = [" ".join(str(int(v)) for v in row) for row in codes]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
        return
    if fmt != "packed":
        raise ValueError(f"unknown codes format {fmt!r}")
    n, d = codes.shape
    with open(path, "wb") as fh:
        fh.write(CODES_MAGIC)
        fh.write(np.array([n, d], dtype="<u8").tobytes())
        if n and d:
            bits = (codes > 0).astype(np.uint8)
            fh.write(np.packbits(bits, axis=1).tobytes())


def read_codes(path: str | Path, fmt: str = "text") -> np.ndarray:
    """Read sign codes written by :func:`write_codes`."""
    path = Path(path)
    if fmt == "text":
        rows = []
        width = None
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            tokens = line.split()
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise ValueError(f"{path}:{lineno}: ragged code row")
            row = []
            for tok in tokens:
                if tok not in ("-1", "1"):
                    raise ValueError(f"{path}:{lineno}: code token {tok!r} outside {{-1, 1}}")
                row.append(int(tok))
            rows.append(row)
        if not rows:
            return np.zeros((0, 0), dtype=np.int8)
        return np.array(rows, dtype=np.int8)
    if fmt != "packed":
        raise ValueError(f"unknown codes format {fmt!r}")
    raw = path.read_bytes()
    if raw[:8] != CODES_MAGIC:
        raise ValueError(f"{path}: bad magic, not a packed codes file")
    if len(raw) < 24:
        raise ValueError(f"{path}: truncated header")
    header = np.frombuffer(raw, dtype="<u8", count=2, offset=8)
    n, d = int(header[0]), int(header[1])
    row_bytes = (d + 7) // 8
    need = 24 + n * row_bytes
    if len(raw) != need:
        raise ValueError(f"{path}: truncated or oversized payload ({len(raw)} vs {need} bytes)")
    if n == 0 or d == 0:
        return np.zeros((n, d), dtype=np.int8)
    packed = np.frombuffer(raw, dtype=np.uint8, offset=24).reshape(n, row_bytes)
    bits = np.unpackbits(packed, axis=1)
    if row_bytes * 8 > d and bits[:, d:].any():
        raise ValueError(f"{path}: nonzero padding bits")
    return (bits[:, :d].astype(np.int8) * 2 - 1).astype(np.int8)


def synthesize_clusters(
    clusters: int,
    per_cluster: int,
    dim: int,
    separation: float = 6.0,
    spread: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Clustered Gaussian points with class labels, in shuffled order.

    Cluster centers are drawn from a zero-mean Gaussian with standard
    deviation ``separation`` and points scatter around them with standard
    deviation ``spread``, so the default settings give well-separated
    classes suitable for end-to-end retrieval checks without external data.
    """
    if clusters < 1 or per_cluster < 1 or dim < 1:
        raise ValueError("clusters, per_cluster and dim must all be >= 1")
    rng = np.random.default_rng(seed)
    centers = separation * rng.standard_normal((clusters, dim))
    labels = np.repeat(np.arange(clusters), per_cluster)
    points = centers[labels] + spread * rng.standard_normal((labels.size, dim))
    order = rng.permutation(labels.size)
    return Dataset(features=points[order], labels=[int(l) for l in labels[order]])
