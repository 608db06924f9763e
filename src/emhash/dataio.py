"""Feature/label loading, similarity derivation, anchor sampling, code files.

Two feature sources are supported: a text CSV (one point per row, optional
trailing label field) and a flat binary matrix.  Similarity is always derived
on demand from labels, with the usual semantics: same class or at least one
shared tag means similar, disjoint means dissimilar, and a missing label on
either side means unobserved.  So it is constant over the points that share
a label, and training never builds it point by point: :func:`group_labels`
numbers the u distinct labels once, a :class:`SimilarityView` is n group ids
plus a u-by-anchors block, and em-splh solves on the u-by-u matrix of the
distinct labels.

Every similarity array -- the anchor block, the em-splh label-set matrix and
the relevance blocks of evaluation -- comes from one builder,
:func:`similarity_block`.  It reads labels encoded once by
:func:`index_labels` into tag -> positions lists, where a class id ``c``
counts as the singleton tag set ``{c}`` and unlabeled positions are listed
apart.

Every binary file is one little-endian frame, written by :func:`write_frame`
and checked by :func:`read_frame`: an 8-byte magic (first, for corruption
detection), two u64 counts, then a payload whose size the counts fix.

* feature matrix ``EMHMAT01``: rows, columns; rows*columns float32 values
  row-major.
* packed codes ``EMHBIN01``: rows, bits; ceil(bits/8) bytes per row; bit
  value 1 means +1, most-significant bit first, zero padding in the final
  byte.
* projection model ``EMHMOD01`` (:mod:`emhash.codec`): feature dim p, bits
  d; float64 weights (p*d, row-major), d thresholds, p offsets, p scales.

Loaded datasets are immutable in spirit: nothing here mutates them, and
on-demand similarity evaluation is pure, so shared use across threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "SimilarityView",
    "MATRIX_MAGIC",
    "CODES_MAGIC",
    "write_frame",
    "read_frame",
    "load_feature_matrix",
    "write_feature_matrix",
    "write_feature_csv",
    "load_label_file",
    "write_label_file",
    "standardize_features",
    "index_labels",
    "group_labels",
    "similarity_block",
    "full_similarity",
    "sample_similarity_columns",
    "write_codes",
    "read_codes",
    "check_signs",
    "synthesize_clusters",
]

MATRIX_MAGIC = b"EMHMAT01"
CODES_MAGIC = b"EMHBIN01"

# Dense similarity blocks are materialized up to this many entries.
MAX_DENSE_ENTRIES = 10**8

# Text codes are formatted, CSV rows converted to float64 and the entries of a
# non-integer array checked this many rows at a time, so temporaries stay
# bounded by the block.
_ROW_BLOCK = 256
_CODE_TOKENS = frozenset(("-1", "1"))

_ENTRIES_MESSAGE = "similarity entries must be -1, 0 or +1"

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
        finite = np.isfinite(f)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            raise ValueError(f"features contain non-finite values (row {row})")
        if self.labels is not None and len(self.labels) != f.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {f.shape[0]} points"
            )
        object.__setattr__(self, "features", f)

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _parse_label(token: str, path: str | Path, lineno: int) -> Label:
    token = token.strip()
    try:
        if not token:
            return None
        if ";" in token:
            tags = frozenset(int(part) for part in token.split(";") if part.strip())
            return tags if tags else None
        return int(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad label {token!r}") from None


def _format_label(label: Label, position: int) -> str:
    if label is None:
        return ""
    if isinstance(label, frozenset):
        if not label:
            raise ValueError(
                f"label {position} is an empty tag set, which would read back as unlabeled"
            )
        body = ";".join(str(t) for t in sorted(label))
        # A trailing separator keeps a single tag distinguishable from a class id.
        return body + (";" if len(label) == 1 else "")
    return str(label)


def load_feature_matrix(path: str | Path, fmt: str = "csv", labeled: bool = False) -> Dataset:
    """Load a feature matrix with optional labels.

    ``fmt`` is ``"csv"`` or ``"binary"``.  For CSV, ``labeled=True`` treats
    the final field of each row as a label: an integer class id, a
    semicolon-separated tag list, or empty for an unlabeled point.  The
    binary format never carries labels.  A :class:`Dataset` refusal, such
    as a non-finite value, is raised with ``path`` in front.
    """
    path = Path(path)
    if fmt == "binary":
        if labeled:
            raise ValueError("the binary matrix format does not carry labels")
        n, p, payload = read_frame(path, MATRIX_MAGIC, "feature matrix", lambda n, p: 4 * n * p)
        values = np.frombuffer(payload, dtype="<f4").astype(float).reshape(n, p)
        return _file_dataset(path, values)
    if fmt != "csv":
        raise ValueError(f"unknown feature format {fmt!r}")
    blocks: list[np.ndarray] = []
    pending: list[tuple[int, list[str]]] = []
    labels: list[Label] = []
    width = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        try:
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
        except ValueError:
            # A bad number on an earlier line is the first error in the file.
            _parse_csv_rows(pending, path)
            raise
        pending.append((lineno, fields))
        if len(pending) == _ROW_BLOCK:
            blocks.append(_parse_csv_rows(pending, path))
            pending = []
    if pending:
        blocks.append(_parse_csv_rows(pending, path))
    features = np.concatenate(blocks) if blocks else np.zeros((0, 0))
    return _file_dataset(path, features, labels if labeled else None)


def _file_dataset(path: Path, features: np.ndarray, labels: list | None = None) -> Dataset:
    # A Dataset refusal, such as a non-finite value, names the file it came from.
    try:
        return Dataset(features=features, labels=labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_csv_rows(pending: list, path: Path) -> np.ndarray:
    # One conversion per block: numpy parses each field as float() does.  If
    # it refuses one, float() on each field in turn names the line.
    try:
        return np.array([fields for _, fields in pending], dtype=float)
    except ValueError:
        rows = []
        for lineno, fields in pending:
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return np.array(rows, dtype=float)


def write_frame(path: str | Path, magic: bytes, rows: int, cols: int, payload) -> None:
    """Write one frame: ``magic``, the two counts as u64, then ``payload``,
    any C-contiguous bytes-like object (a numpy array is written uncopied)."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(np.array([rows, cols], dtype="<u8").tobytes())
        fh.write(payload)


def read_frame(path: str | Path, magic: bytes, kind: str, payload_size) -> tuple:
    """Read a frame written by :func:`write_frame` as ``(rows, cols, payload)``.

    ``kind`` names the format in the bad-magic message, and
    ``payload_size(rows, cols)`` gives the payload's length in bytes.  Raises
    ``ValueError`` naming ``path`` for a wrong magic, a header shorter than
    24 bytes, or a payload of any other length.
    """
    raw = Path(path).read_bytes()
    if raw[:8] != magic:
        raise ValueError(f"{path}: bad magic, not a {kind} file")
    if len(raw) < 24:
        raise ValueError(f"{path}: truncated header")
    rows, cols = np.frombuffer(raw, dtype="<u8", count=2, offset=8).tolist()
    need = 24 + payload_size(rows, cols)
    if len(raw) != need:
        raise ValueError(f"{path}: truncated or oversized payload ({len(raw)} vs {need} bytes)")
    return rows, cols, memoryview(raw)[24:]


def write_feature_matrix(path: str | Path, features: np.ndarray) -> None:
    """Write features in the binary matrix layout (values stored as float32)."""
    features = np.asarray(features, dtype=float)
    n, p = features.shape
    write_frame(path, MATRIX_MAGIC, n, p, np.ascontiguousarray(features, dtype="<f4"))


def write_feature_csv(path: str | Path, features: np.ndarray, labels: list | None = None) -> None:
    """Write a feature CSV, appending a label field per row when given.

    Raises ``ValueError`` naming the position of an empty tag set, as
    :func:`write_label_file` does, and for a matrix without columns, which
    :func:`load_feature_matrix` could not read back.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] == 0:
        raise ValueError(f"feature CSV needs a 2-d matrix with columns, got shape {features.shape}")
    lines = []
    for i, row in enumerate(features):
        fields = [repr(float(v)) for v in row]
        if labels is not None:
            fields.append(_format_label(labels[i], i))
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
    return [_parse_label(line, path, lineno) for lineno, line in enumerate(lines, start=1)]


def write_label_file(path: str | Path, labels: list) -> None:
    """Write one label token per line, the format :func:`load_label_file` reads.

    Raises ``ValueError`` naming the position of an empty tag set: its empty
    token would read back as an unlabeled point.
    """
    lines = [_format_label(label, k) for k, label in enumerate(labels)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def standardize_features(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shift/scale every feature dimension to zero mean and unit variance.

    Returns ``(standardized, offset, scale)`` with
    ``standardized = (features - offset) * scale``.  Constant dimensions get
    scale 0 and map to all-zeros instead of dividing by zero.  Raises
    ``ValueError`` naming the first column whose mean or spread overflows
    float64.
    """
    features = np.asarray(features, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        offset = features.mean(axis=0)
        sd = features.std(axis=0)
    finite = np.isfinite(offset) & np.isfinite(sd)
    if not finite.all():
        raise ValueError(
            f"feature column {int(np.argmin(finite))} is too large to standardize: "
            "its mean or spread overflows float64"
        )
    safe = np.where(sd > 1e-12, sd, 1.0)
    scale = np.where(sd > 1e-12, 1.0 / safe, 0.0)
    return (features - offset) * scale, offset, scale


def index_labels(labels: list) -> tuple[int, dict, np.ndarray]:
    """Encode labels once as (size, tag -> ascending positions, unlabeled positions)."""
    tags: dict = {}
    unlabeled = []
    for k, label in enumerate(labels):
        if label is None:
            unlabeled.append(k)
            continue
        for tag in label if isinstance(label, frozenset) else (label,):
            tags.setdefault(tag, []).append(k)
    arrays = {tag: np.array(ks, dtype=np.intp) for tag, ks in tags.items()}
    return len(labels), arrays, np.array(unlabeled, dtype=np.intp)


def group_labels(labels: list) -> tuple[np.ndarray, list]:
    """Number the distinct labels in order of first appearance.

    Returns ``(groups, distinct)`` with ``labels[i] == distinct[groups[i]]``;
    ``groups`` is an intp array.
    """
    ids: dict = {}
    groups = np.fromiter(
        (ids.setdefault(label, len(ids)) for label in labels), dtype=np.intp, count=len(labels)
    )
    return groups, list(ids)


def similarity_block(rows: tuple, cols: tuple) -> np.ndarray:
    """Int8 block whose entry (i, j) is the similarity (+1, -1 or 0) of row i to column j."""
    n_rows, row_tags, row_unlabeled = rows
    n_cols, col_tags, col_unlabeled = cols
    out = np.full((n_rows, n_cols), -1, dtype=np.int8)
    for tag, positions in row_tags.items():
        if tag in col_tags:
            out[np.ix_(positions, col_tags[tag])] = 1
    out[row_unlabeled] = 0
    out[:, col_unlabeled] = 0
    return out


def full_similarity(labels: list) -> np.ndarray:
    """Square similarity matrix of a label list, entries in {-1, 0, +1}."""
    if len(labels) ** 2 > MAX_DENSE_ENTRIES:
        raise ValueError("full similarity matrix would exceed the dense budget")
    index = index_labels(labels)
    return similarity_block(index, index)


def sample_similarity_columns(dataset: Dataset, m: int, seed: int):
    """Sample anchor columns of the similarity matrix.

    Chooses ``m`` anchor indices uniformly without replacement, reorders the
    points so the anchors come first (anchors in ascending original order,
    then the remaining points in ascending original order), and builds one
    row per distinct label (:func:`group_labels`) against the anchors.
    Returns ``(view, order)`` where ``order[k]`` is the original index of the
    point at position k; the caller applies the same order to features and
    undoes it on the way out.
    """
    if dataset.labels is None:
        raise ValueError("anchor sampling requires labels")
    n = dataset.n
    if m < 1:
        raise ValueError(f"anchor count must be at least 1, got {m}")
    if m > n:
        raise ValueError(f"anchor count {m} exceeds point count {n}")
    groups, distinct = group_labels(dataset.labels)
    if len(distinct) * m > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"similarity view of {len(distinct)} distinct label sets by {m} anchors "
            f"({len(distinct) * m:,} entries) would exceed the dense budget of "
            f"{MAX_DENSE_ENTRIES:,} entries"
        )
    rng = np.random.default_rng(seed)
    anchors = np.sort(rng.choice(n, size=m, replace=False))
    rest = np.setdiff1d(np.arange(n), anchors, assume_unique=True)
    order = np.concatenate([anchors, rest])
    block = similarity_block(
        index_labels(distinct), index_labels([dataset.labels[k] for k in anchors])
    )
    return SimilarityView(s=block, groups=groups[order]), order


@dataclass(frozen=True, eq=False)
class SimilarityView:
    """Sampled similarity columns, points by anchors, entries in {-1, 0, +1}.

    Point i's similarities to the ``m`` anchors are the row ``s[groups[i]]``
    of the int8 block ``s``, one row per group of points (per distinct
    label, as :func:`sample_similarity_columns` builds it).  The anchors are
    the first ``m`` points, so ``s[groups[j], j] == +1`` for a labeled anchor
    j.  A zero entry means the relation is unobserved.
    """

    s: np.ndarray
    groups: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s)
        if s.ndim != 2:
            raise ValueError(f"similarity view must be 2-d, got shape {s.shape}")
        check_signs(s, _ENTRIES_MESSAGE, zero=True)
        s = s.astype(np.int8, copy=False)
        groups = np.asarray(self.groups, dtype=np.intp)
        if groups.ndim != 1 or (groups.size and not 0 <= groups.min() <= groups.max() < len(s)):
            raise ValueError(f"group ids must be a 1-d array indexing the {len(s)} block rows")
        if groups.size < s.shape[1]:
            raise ValueError("anchor count cannot exceed point count")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return self.groups.size

    @property
    def m(self) -> int:
        return self.s.shape[1]


def check_signs(values: np.ndarray, message: str, *, zero: bool = False) -> None:
    """Raise ``ValueError(message)`` unless every entry is -1 or +1 (or 0, with ``zero``).

    An entry passes when it compares equal to an allowed value, so ``True``
    counts as +1, ``False`` and ``-0.0`` as 0, and NaN never passes.  Integer
    and bool arrays are checked by their minimum and maximum and, without
    ``zero``, by their nonzero count, with no temporary of their size.  Any
    other dtype is compared with the allowed values a fixed block of rows at
    a time, so its masks stay bounded by the block.
    """
    values = np.asarray(values)
    if values.size == 0:
        return
    if values.dtype.kind in "biu":
        ok = values.min() >= -1 and values.max() <= 1
        ok = ok and (zero or np.count_nonzero(values) == values.size)
    else:
        ok = all(
            _signs_only(values[k : k + _ROW_BLOCK], zero)
            for k in range(0, len(values), _ROW_BLOCK)
        )
    if not ok:
        raise ValueError(message)


def _signs_only(block: np.ndarray, zero: bool) -> bool:
    allowed = (block == 1) | (block == -1)
    if zero:
        allowed |= block == 0
    return bool(allowed.all())


def write_codes(path: str | Path, codes: np.ndarray, fmt: str = "text") -> None:
    """Write sign codes as text lines or in the packed binary layout.

    The packed header stores the code length, so every shape reads back.
    The text format stores none: codes with zero rows read back as shape
    ``(0, 0)``.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-d, got shape {codes.shape}")
    check_signs(codes, "codes must contain only +1 and -1")
    if fmt == "text":
        # A row of d codes is 3d + 1 byte slots: per code a separator (a
        # space, or an empty 0 slot before the first), "-" or an empty slot,
        # and "1"; then the newline.  The empty slots are dropped.  The bytes
        # exist for one block of rows at a time, so memory stays flat.
        with open(path, "wb") as fh:
            for start in range(0, codes.shape[0], _ROW_BLOCK):
                block = codes[start : start + _ROW_BLOCK]
                width = 3 * block.shape[1]
                slots = np.zeros((block.shape[0], width + 1), dtype=np.uint8)
                slots[:, 3:width:3] = ord(" ")
                slots[:, 1:width:3] = (block < 0) * np.uint8(ord("-"))
                slots[:, 2:width:3] = ord("1")
                slots[:, width] = ord("\n")
                flat = slots.reshape(-1)
                fh.write(flat[flat != 0].tobytes())
        return
    if fmt != "packed":
        raise ValueError(f"unknown codes format {fmt!r}")
    n, d = codes.shape
    write_frame(path, CODES_MAGIC, n, d, np.packbits(codes > 0, axis=1))


def read_codes(path: str | Path, fmt: str = "text") -> np.ndarray:
    """Read sign codes written by :func:`write_codes`."""
    path = Path(path)
    if fmt == "text":
        text = path.read_text()
        rows, width = 0, None
        for lineno, line in enumerate(text.splitlines(), start=1):
            tokens = line.split()
            if not tokens:
                continue
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise ValueError(f"{path}:{lineno}: ragged code row")
            if not _CODE_TOKENS.issuperset(tokens):
                bad = next(tok for tok in tokens if tok not in _CODE_TOKENS)
                raise ValueError(f"{path}:{lineno}: code token {bad!r} outside {{-1, 1}}")
            rows += 1
        if not rows:
            return np.zeros((0, 0), dtype=np.int8)
        # Every token is now "1" or "-1": each ends in the byte "1", and is
        # negative iff the byte before that is "-".
        raw = np.frombuffer(text.encode(), dtype=np.uint8)
        negative = np.roll(raw == ord("-"), 1)[raw == ord("1")]
        return np.where(negative, np.int8(-1), np.int8(1)).reshape(rows, width)
    if fmt != "packed":
        raise ValueError(f"unknown codes format {fmt!r}")
    n, d, payload = read_frame(path, CODES_MAGIC, "packed codes", lambda n, d: n * ((d + 7) // 8))
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(n, (d + 7) // 8)
    bits = np.unpackbits(packed, axis=1)
    if bits[:, d:].any():
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
    for name, value in (("separation", separation), ("spread", spread)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    rng = np.random.default_rng(seed)
    centers = separation * rng.standard_normal((clusters, dim))
    labels = np.repeat(np.arange(clusters), per_cluster)
    points = centers[labels] + spread * rng.standard_normal((labels.size, dim))
    order = rng.permutation(labels.size)
    return Dataset(features=points[order], labels=[int(l) for l in labels[order]])
