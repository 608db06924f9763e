"""Tests for file formats, similarity derivation and anchor sampling."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from emhash import codec, dataio
from emhash.dataio import (
    Dataset,
    check_signs,
    full_similarity,
    index_labels,
    load_feature_matrix,
    load_label_file,
    read_codes,
    sample_similarity_columns,
    similarity_block,
    standardize_features,
    synthesize_clusters,
    write_codes,
    write_feature_csv,
    write_feature_matrix,
    write_label_file,
)
from emhash.evaluation import hamming_distances
from oracles import (
    check_signs_isin,
    group_rows,
    label_similarity,
    load_feature_csv_per_field,
    text_codes_joined,
    text_codes_per_token,
)


# Every label that has a file form: unlabeled, a class id, a non-empty tag set.
labels_strategy = st.lists(
    st.one_of(
        st.none(),
        st.integers(-(2**63), 2**63),
        st.frozensets(st.integers(-(2**63), 2**63), min_size=1, max_size=5),
    ),
    max_size=30,
)


class TestCsvLoading:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        dataset = load_feature_matrix(path, "csv")
        np.testing.assert_array_equal(dataset.features, [[1.0, 2.0], [3.0, 4.0]])
        assert dataset.labels is None

    def test_labeled_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,5\n3,4,1;7\n5,6,\n7,8,9;\n")
        dataset = load_feature_matrix(path, "csv", labeled=True)
        assert dataset.features.shape == (4, 2)
        assert dataset.labels == [5, frozenset({1, 7}), None, frozenset({9})]

    def test_bad_label_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,5\n3,4,x\n")
        with pytest.raises(ValueError, match=r"m\.csv:2: bad label 'x'$"):
            load_feature_matrix(path, "csv", labeled=True)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="ragged"):
            load_feature_matrix(path, "csv")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,inf\n")
        message = f"{path}: features contain non-finite values (row 0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_feature_matrix(path, "csv")

    def test_non_finite_row_counts_points_not_lines(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,2,0\n\n3,nan,1\n")
        message = f"{path}: features contain non-finite values (row 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_feature_matrix(path, "csv", labeled=True)

    def test_dataset_names_the_first_non_finite_row(self):
        features = np.zeros((5, 3))
        features[3, 2], features[4, 0] = -np.inf, np.nan
        with pytest.raises(ValueError, match=r"^features contain non-finite values \(row 3\)$"):
            Dataset(features)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(6, 3))
        labels = [0, 1, None, frozenset({2, 5}), frozenset({4}), 1]
        path = tmp_path / "m.csv"
        write_feature_csv(path, features, labels)
        dataset = load_feature_matrix(path, "csv", labeled=True)
        np.testing.assert_array_equal(dataset.features, features)
        assert dataset.labels == labels

    @settings(deadline=None)
    @given(labels=labels_strategy.filter(bool), width=st.integers(1, 3), data=st.data())
    def test_label_column_round_trips(self, tmp_path_factory, labels, width, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        features = data.draw(arrays(np.float64, (len(labels), width), elements=finite))
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_feature_csv(path, features, labels)
        dataset = load_feature_matrix(path, "csv", labeled=True)
        np.testing.assert_array_equal(dataset.features, features)
        assert dataset.labels == labels

    def test_empty_tag_set_refused_with_its_position(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match="label 1 is an empty tag set"):
            write_feature_csv(path, np.zeros((2, 1)), [0, frozenset()])

    @pytest.mark.parametrize("labels", [None, [None, None, None], [0, 1, 2]])
    def test_zero_columns_refused_with_the_shape(self, tmp_path, labels):
        """Rows without fields would read back as blank lines or lone labels."""
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=r"with columns, got shape \(3, 0\)") as err:
            write_feature_csv(path, np.zeros((3, 0)), labels)
        assert "\n" not in str(err.value)
        assert not path.exists()

    def test_one_dimensional_features_refused_with_the_shape(self, tmp_path):
        with pytest.raises(ValueError, match=r"got shape \(4,\)"):
            write_feature_csv(tmp_path / "m.csv", np.zeros(4))


def outcome(load, *args):
    """What a loader did: its features' bytes and labels, or its error message."""
    try:
        dataset = load(*args)
    except ValueError as exc:
        return str(exc)
    return dataset.features.shape, dataset.features.tobytes(), dataset.labels


VALID_FIELDS = st.sampled_from(["1", "-2.5", " 3e2 ", "0.1", "1_0", "-0", "+.5", "١٢"])
VALID_LABELS = st.sampled_from(["4", "1;7", "", "9;"])
BAD_TOKENS = st.sampled_from(["x", "", "1e", "nan", "inf", "0x10"])


@st.composite
def csv_files(draw):
    """A feature CSV, labeled or not, with up to two corrupted lines and blank lines."""
    labeled = draw(st.booleans())
    width = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        fields = draw(st.lists(VALID_FIELDS, min_size=width, max_size=width))
        rows.append(fields + [draw(VALID_LABELS)] if labeled else fields)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        # A row picked twice may have had its last field dropped already.
        kind = draw(st.sampled_from(["token", "drop", "extra"] if row else ["extra"]))
        if kind == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_TOKENS)
        elif kind == "drop":
            row.pop()
        else:
            row.append("1")
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    return labeled, "\n".join(lines) + "\n"


class TestCsvBlocks:
    """The block parser against the reader that converts one field at a time."""

    @settings(deadline=None)
    @given(csv=csv_files(), block=st.integers(1, 3))
    def test_matches_the_per_field_reader(self, tmp_path_factory, csv, block):
        labeled, text = csv
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_text(text)
        with mock.patch.object(dataio, "_ROW_BLOCK", block):
            got = outcome(load_feature_matrix, path, "csv", labeled)
        assert got == outcome(load_feature_csv_per_field, path, labeled)

    def test_errors_past_the_first_block_name_their_line(self, tmp_path):
        """Blank lines count; a bad number before a ragged row is reported first."""
        rows = [f"{k},{k + 0.5}" for k in range(600)]
        rows[300] = "1,oops"
        rows[301] = "1,2,3"
        path = tmp_path / "m.csv"
        path.write_text("\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"m\.csv:302: could not convert string to float: 'oops'$"):
            load_feature_matrix(path, "csv")
        rows[300] = "1,2"
        path.write_text("\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"m\.csv:303: ragged row \(3 fields, expected 2\)$"):
            load_feature_matrix(path, "csv")

    def test_several_blocks_match_float_per_field(self, tmp_path):
        features = np.random.default_rng(5).normal(size=(3 * dataio._ROW_BLOCK + 7, 4))
        path = tmp_path / "m.csv"
        write_feature_csv(path, features, [k % 3 for k in range(features.shape[0])])
        assert outcome(load_feature_matrix, path, "csv", True) == outcome(
            load_feature_csv_per_field, path, True
        )
        np.testing.assert_array_equal(load_feature_matrix(path, "csv", True).features, features)


# Entries that some check must refuse, per dtype: out of {-1, 0, 1}, fractions,
# NaN and the int8 minimum, whose absolute value wraps to itself.
BAD_ENTRIES = {
    np.int8: [-128, -2, 2, 127],
    np.int64: [-(2**63), -128, -2, 2, 2**40],
    np.float64: [0.5, -0.5, 2.0, -128.0, np.nan, np.inf],
}


@st.composite
def sign_arrays(draw):
    """Arrays of -1/0/+1 (False/True for bool), some with one bad entry."""
    dtype = draw(st.sampled_from([np.int8, np.int64, np.float64, np.bool_]))
    shape = draw(array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5))
    valid = st.booleans() if dtype is np.bool_ else st.sampled_from([-1, 0, 1])
    values = draw(arrays(dtype, shape, elements=valid))
    if values.size and dtype in BAD_ENTRIES and draw(st.booleans()):
        values.flat[draw(st.integers(0, values.size - 1))] = draw(st.sampled_from(BAD_ENTRIES[dtype]))
    return values


def verdict(check, values, zero):
    try:
        check(values, "entries off", zero=zero)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckSigns:
    @settings(deadline=None)
    @given(values=sign_arrays(), zero=st.booleans())
    def test_agrees_with_isin(self, values, zero):
        assert verdict(check_signs, values, zero) == verdict(check_signs_isin, values, zero)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("row", [0, dataio._ROW_BLOCK - 1, dataio._ROW_BLOCK, -1])
    def test_float_blocks_cover_every_row(self, dtype, row):
        values = np.ones((2 * dataio._ROW_BLOCK + 5, 3), dtype=dtype)
        check_signs(values, "entries off")
        values[row, 2] = np.nan
        with pytest.raises(ValueError, match="^entries off$"):
            check_signs(values, "entries off", zero=True)

    @pytest.mark.parametrize(
        "codes", [np.array([[1, 0]], dtype=np.int8), np.array([[1, -128]], dtype=np.int8),
                  np.array([[1.0, 0.5]]), np.array([[1.0, np.nan]])],
        ids=["zero", "int8-min", "half", "nan"],
    )
    def test_both_code_checks_refuse_with_one_message(self, tmp_path, codes):
        with pytest.raises(ValueError, match="^codes must contain only \\+1 and -1$"):
            write_codes(tmp_path / "codes.txt", codes)
        with pytest.raises(ValueError, match="^codes must contain only \\+1 and -1$"):
            hamming_distances(codes, np.ones((3, 2), dtype=np.int8))

    def test_bool_counts_as_zero_and_one(self):
        check_signs(np.array([True, False]), "entries off", zero=True)
        with pytest.raises(ValueError):
            check_signs(np.array([True, False]), "entries off")
        check_signs(np.array([True, True]), "entries off")


class TestBinaryMatrix:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(5, 4)).astype(np.float32).astype(float)
        path = tmp_path / "m.emh"
        write_feature_matrix(path, features)
        loaded = load_feature_matrix(path, "binary")
        np.testing.assert_array_equal(loaded.features, features)
        write_feature_matrix(tmp_path / "again.emh", loaded.features)
        assert (tmp_path / "again.emh").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emh"
        path.write_bytes(b"WRONGMAG" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_feature_matrix(path, "binary")

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.emh"
        write_feature_matrix(path, np.ones((3, 3)))
        raw = bytearray(path.read_bytes())
        # claim more rows than the payload holds
        raw[8:16] = np.array([50], dtype="<u8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated"):
            load_feature_matrix(path, "binary")


# One small valid file of each binary format: (kind, writer, reader).  Each
# payload is non-empty, so it can be cut short by one byte.
FRAMED_FORMATS = {
    "feature matrix": (
        lambda path: write_feature_matrix(path, np.arange(6.0).reshape(2, 3)),
        lambda path: load_feature_matrix(path, "binary"),
    ),
    "packed codes": (
        lambda path: write_codes(path, np.ones((3, 11), dtype=np.int8), "packed"),
        lambda path: read_codes(path, "packed"),
    ),
    "projection model": (
        lambda path: codec.save_projection(path, codec.ProjectionModel(
            weights=np.ones((2, 3)), thresholds=np.zeros(3), offset=np.zeros(2), scale=np.ones(2),
        )),
        codec.load_projection,
    ),
}


class TestBinaryMatrixRefusals:
    def test_non_finite_names_the_file_and_row(self, tmp_path):
        features = np.ones((3, 2))
        features[2, 0] = np.nan
        path = tmp_path / "nan.emh"
        write_feature_matrix(path, features)
        message = f"{path}: features contain non-finite values (row 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_feature_matrix(path, "binary")


class TestBinaryFrame:
    """The three binary formats share one frame and its checks."""

    @pytest.mark.parametrize("kind", FRAMED_FORMATS)
    def test_bad_magic_names_the_path_and_the_kind(self, tmp_path, kind):
        write, read = FRAMED_FORMATS[kind]
        path = tmp_path / "file.emh"
        write(path)
        path.write_bytes(b"WRONGMAG" + path.read_bytes()[8:])
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad magic, not a {kind} file")):
            read(path)

    @pytest.mark.parametrize("kind", FRAMED_FORMATS)
    @pytest.mark.parametrize("size", [8, 16, 23])
    def test_short_header(self, tmp_path, kind, size):
        write, read = FRAMED_FORMATS[kind]
        path = tmp_path / "file.emh"
        write(path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated header$"):
            read(path)

    @pytest.mark.parametrize("kind", FRAMED_FORMATS)
    @pytest.mark.parametrize("change", [-1, 1])
    def test_payload_one_byte_short_or_long(self, tmp_path, kind, change):
        write, read = FRAMED_FORMATS[kind]
        path = tmp_path / "file.emh"
        write(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1] if change < 0 else raw + b"\0")
        message = (
            f"{path}: truncated or oversized payload ({len(raw) + change} vs {len(raw)} bytes)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(path)

    def test_nonzero_padding_bits_refused(self, tmp_path):
        path = tmp_path / "codes.bin"
        write_codes(path, np.array([[1, -1, 1]], dtype=np.int8), "packed")
        raw = bytearray(path.read_bytes())
        raw[24] |= 0b00000001  # the last of the five padding bits
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: nonzero padding bits$"):
            read_codes(path, "packed")

    def test_feature_matrix_golden_bytes(self, tmp_path):
        path = tmp_path / "m.emh"
        write_feature_matrix(path, np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -0.25]]))
        assert path.read_bytes() == bytes.fromhex(
            "454d484d41543031"  # EMHMAT01
            "0200000000000000"  # 2 rows
            "0300000000000000"  # 3 columns
            "0000803f" "000000c0" "0000003f"  # 1.0, -2.0, 0.5 as float32
            "00004040" "00000000" "000080be"  # 3.0, 0.0, -0.25
        )
        np.testing.assert_array_equal(
            load_feature_matrix(path, "binary").features, [[1.0, -2.0, 0.5], [3.0, 0.0, -0.25]]
        )

    def test_projection_model_golden_bytes(self, tmp_path):
        path = tmp_path / "model.emh"
        model = codec.ProjectionModel(
            weights=np.array([[1.0, -2.0]]), thresholds=np.array([0.5, 0.0]),
            offset=np.array([3.0]), scale=np.array([0.25]),
        )
        codec.save_projection(path, model)
        assert path.read_bytes() == bytes.fromhex(
            "454d484d4f443031"  # EMHMOD01
            "0100000000000000"  # feature dim 1
            "0200000000000000"  # 2 bits
            "000000000000f03f" "00000000000000c0"  # weights 1.0, -2.0 as float64
            "000000000000e03f" "0000000000000000"  # thresholds 0.5, 0.0
            "0000000000000840"  # offset 3.0
            "000000000000d03f"  # scale 0.25
        )
        loaded = codec.load_projection(path)
        for name in ("weights", "thresholds", "offset", "scale"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        labels = [3, None, frozenset({1, 2}), frozenset({8}), 0]
        path = tmp_path / "labels.txt"
        write_label_file(path, labels)
        assert load_label_file(path) == labels

    @settings(deadline=None)
    @given(labels_strategy)
    def test_any_label_list_round_trips(self, tmp_path_factory, labels):
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        write_label_file(path, labels)
        assert load_label_file(path) == labels

    def test_empty_tag_set_refused_with_its_position(self, tmp_path):
        path = tmp_path / "labels.txt"
        with pytest.raises(ValueError, match="label 2 is an empty tag set"):
            write_label_file(path, [None, 3, frozenset(), frozenset({1})])

    def test_bad_token_names_file_and_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("3\n\nfoo\n")
        with pytest.raises(ValueError, match=r"labels\.txt:3: bad label 'foo'$"):
            load_label_file(path)

    def test_bad_tag_names_file_and_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1;foo\n")
        with pytest.raises(ValueError, match=r"labels\.txt:1: bad label '1;foo'$"):
            load_label_file(path)


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(2)
        features = rng.normal(loc=3.0, scale=5.0, size=(200, 4))
        standardized, offset, scale = standardize_features(features)
        assert np.max(np.abs(standardized.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(standardized.var(axis=0) - 1.0)) <= 1e-6
        np.testing.assert_allclose((features - offset) * scale, standardized)

    def test_constant_dimension_maps_to_zero(self):
        features = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
        standardized, _, scale = standardize_features(features)
        np.testing.assert_array_equal(standardized[:, 1], np.zeros(5))
        assert scale[1] == 0.0

    @pytest.mark.parametrize("column", [
        [1e308, 9e307] * 3,  # the mean overflows
        [1e200, 1.1e200] * 3,  # only the spread overflows
        [-1.7e308, 1.7e308, 1.7e308] * 2,
    ])
    def test_a_column_whose_mean_or_spread_overflows_is_refused(self, column):
        features = np.ones((6, 3))
        features[:, 2] = column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                "^feature column 2 is too large to standardize: "
                "its mean or spread overflows float64$"
            )):
                standardize_features(features)

    def test_large_finite_columns_still_standardize(self):
        features = np.column_stack([np.array([1e150, -1e150, 3e150]), np.arange(3.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            standardized, _, _ = standardize_features(features)
        assert np.all(np.isfinite(standardized))


class TestSimilarity:
    def test_class_semantics(self):
        assert label_similarity(3, 3) == 1
        assert label_similarity(3, 4) == -1

    def test_tag_semantics(self):
        assert label_similarity(frozenset("ab"), frozenset("bc")) == 1
        assert label_similarity(frozenset("ab"), frozenset("cd")) == -1

    def test_missing_labels_unobserved(self):
        assert label_similarity(None, 3) == 0
        assert label_similarity(frozenset({1}), None) == 0

    POOL = [0, 1, 2, None, frozenset({0}), frozenset({0, 1}), frozenset({2, 3})]

    def test_self_similarity(self):
        s = full_similarity(self.POOL)
        expected = [0 if label is None else 1 for label in self.POOL]
        np.testing.assert_array_equal(np.diag(s), expected)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        labels = [self.POOL[i] for i in rng.integers(0, len(self.POOL), size=12)]
        s = full_similarity(labels)
        np.testing.assert_array_equal(s, s.T)

    def test_full_matrix_matches_pairwise(self):
        labels = [0, 1, 0, None, 1]
        s = full_similarity(labels)
        for i in range(5):
            for j in range(5):
                assert s[i, j] == label_similarity(labels[i], labels[j])


# Class ids, tag sets (the empty one too) and missing labels, mixed freely.
LABELS = st.one_of(
    st.none(),
    st.integers(0, 5),
    st.frozensets(st.integers(0, 5), max_size=3),
)


class TestSimilarityBlock:
    @given(st.lists(LABELS, max_size=12), st.lists(LABELS, max_size=12))
    def test_rectangular_block_matches_scalar_definition(self, rows, cols):
        block = similarity_block(index_labels(rows), index_labels(cols))
        assert block.dtype == np.int8 and block.shape == (len(rows), len(cols))
        expected = [[label_similarity(a, b) for b in cols] for a in rows]
        np.testing.assert_array_equal(block, np.array(expected, dtype=np.int8).reshape(block.shape))

    @given(st.lists(LABELS, max_size=16))
    def test_square_matrix_matches_scalar_definition(self, labels):
        s = full_similarity(labels)
        expected = [[label_similarity(a, b) for b in labels] for a in labels]
        np.testing.assert_array_equal(s, np.array(expected, dtype=np.int8).reshape(s.shape))

    def test_empty_tag_set_is_labeled_but_similar_to_nothing(self):
        s = full_similarity([frozenset(), 0, None])
        np.testing.assert_array_equal(s, [[-1, -1, 0], [-1, 1, 0], [0, 0, 0]])


class TestAnchorSampling:
    def test_full_sampling_is_square(self):
        """With every point an anchor, the view is the square similarity, factored."""
        dataset = Dataset(np.zeros((6, 1)), [0, 1, 0, 1, 0, 1])
        view, order = sample_similarity_columns(dataset, 6, seed=3)
        assert (view.n, view.m) == (6, 6) and view.s.shape == (2, 6)
        assert sorted(order.tolist()) == list(range(6))
        reordered = [dataset.labels[k] for k in order]
        np.testing.assert_array_equal(view.s[view.groups], full_similarity(reordered))

    def test_seed_reproducibility(self):
        dataset = Dataset(np.zeros((30, 1)), [i % 3 for i in range(30)])
        view1, order1 = sample_similarity_columns(dataset, 10, seed=9)
        view2, order2 = sample_similarity_columns(dataset, 10, seed=9)
        assert view1.s.tobytes() == view2.s.tobytes()
        np.testing.assert_array_equal(view1.groups, view2.groups)
        np.testing.assert_array_equal(order1, order2)

    def test_anchor_diagonal_is_self_similar(self):
        dataset = Dataset(np.zeros((20, 1)), [i % 4 for i in range(20)])
        view, _ = sample_similarity_columns(dataset, 8, seed=5)
        anchor_rows = view.s[view.groups[:8]]
        np.testing.assert_array_equal(np.diag(anchor_rows), np.ones(8, dtype=np.int8))

    @settings(deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 5), min_size=1, max_size=40),
            st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=3), min_size=1,
                     max_size=40),
            st.lists(st.none(), min_size=1, max_size=40),
            st.lists(LABELS, min_size=1, max_size=40),
        ),
        st.data(),
    )
    def test_factored_view_matches_the_block_of_the_ordered_labels(self, labels, data):
        m = data.draw(st.integers(1, len(labels)))
        view, order = sample_similarity_columns(
            Dataset(np.zeros((len(labels), 1)), labels), m, data.draw(st.integers(0, 9))
        )
        ordered = [labels[k] for k in order]
        expected = similarity_block(index_labels(ordered), index_labels(ordered[:m]))
        assert view.s.dtype == np.int8 and view.groups.dtype == np.intp
        assert view.s.shape == (len(set(labels)), m)
        np.testing.assert_array_equal(view.s[view.groups], expected)

    def test_anchors_without_labels_observe_nothing(self):
        labels = [None] * 5 + [0, 1, 0, 1, 2]
        view, order = sample_similarity_columns(Dataset(np.zeros((10, 1)), labels), 5, seed=0)
        ordered = [labels[k] for k in order]
        expected = similarity_block(index_labels(ordered), index_labels(ordered[:5]))
        np.testing.assert_array_equal(view.s[view.groups], expected)

    def test_too_many_anchors(self):
        dataset = Dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="^anchor count 5 exceeds point count 4$"):
            sample_similarity_columns(dataset, 5, seed=0)

    @pytest.mark.parametrize("m", [0, -3])
    def test_fewer_than_one_anchor(self, m):
        dataset = Dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        with pytest.raises(ValueError, match=f"^anchor count must be at least 1, got {m}$"):
            sample_similarity_columns(dataset, m, seed=0)

    @settings(deadline=None)
    @given(
        st.one_of(
            st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=1, max_size=40),
            st.lists(st.one_of(st.none(), st.frozensets(st.integers(0, 5), min_size=1,
                                                        max_size=3)), min_size=1, max_size=40),
            st.lists(LABELS, min_size=1, max_size=40),
        ),
        st.data(),
    )
    def test_view_is_all_zero_exactly_when_every_anchor_is_unlabeled(self, labels, data):
        """A labeled anchor is similar or dissimilar to its own label set."""
        m = data.draw(st.integers(1, len(labels)))
        view, order = sample_similarity_columns(
            Dataset(np.zeros((len(labels), 1)), labels), m, data.draw(st.integers(0, 9))
        )
        assert (not view.s.any()) == all(labels[k] is None for k in order[:m])


class TestGrouping:
    def test_labels_numbered_by_first_appearance(self):
        labels = [3, None, frozenset({1, 2}), 3, None, frozenset({2, 1}), frozenset({3})]
        groups, distinct = dataio.group_labels(labels)
        assert groups.dtype == np.intp
        assert groups.tolist() == [0, 1, 2, 0, 1, 2, 3]
        assert distinct == [3, None, frozenset({1, 2}), frozenset({3})]

    def test_empty_label_list(self):
        groups, distinct = dataio.group_labels([])
        assert groups.shape == (0,) and distinct == []

    @given(arrays(np.int8, st.tuples(st.integers(0, 20), st.integers(1, 4)),
                  elements=st.sampled_from([-1, 0, 1])))
    def test_rows_grouped_by_value(self, block):
        groups, first = group_rows(block)
        np.testing.assert_array_equal(block[first][groups], block)
        assert len(first) == len({row.tobytes() for row in block})
        np.testing.assert_array_equal(first, np.sort(first))
        np.testing.assert_array_equal(groups[first], np.arange(len(first)))


class TestCodeFiles:
    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        codes = rng.choice([-1, 1], size=(7, 5)).astype(np.int8)
        path = tmp_path / "codes.txt"
        write_codes(path, codes, "text")
        np.testing.assert_array_equal(read_codes(path, "text"), codes)

    def test_packed_bit_layout(self, tmp_path):
        path = tmp_path / "codes.bin"
        write_codes(path, np.array([[1, -1, 1]], dtype=np.int8), "packed")
        raw = path.read_bytes()
        assert raw[:8] == b"EMHBIN01"
        n, d = np.frombuffer(raw, dtype="<u8", count=2, offset=8)
        assert (n, d) == (1, 3)
        assert raw[24] == 0b10100000

    def test_packed_round_trip_with_padding(self, tmp_path):
        rng = np.random.default_rng(5)
        for d in (3, 8, 11):
            codes = rng.choice([-1, 1], size=(6, d)).astype(np.int8)
            path = tmp_path / f"codes{d}.bin"
            write_codes(path, codes, "packed")
            np.testing.assert_array_equal(read_codes(path, "packed"), codes)

    @settings(deadline=None)
    @given(rows=st.integers(0, 12), bits=st.integers(1, 20), data=st.data())
    def test_packed_round_trips_at_any_length(self, tmp_path_factory, rows, bits, data):
        codes = data.draw(arrays(np.int8, (rows, bits), elements=st.sampled_from([-1, 1])))
        path = tmp_path_factory.mktemp("codes") / "codes.bin"
        write_codes(path, codes, "packed")
        back = read_codes(path, "packed")
        assert back.shape == (rows, bits)
        np.testing.assert_array_equal(back, codes)

    @settings(deadline=None)
    @given(rows=st.integers(1, 12), bits=st.integers(1, 20), data=st.data())
    def test_text_round_trips_and_matches_per_token_layout(
        self, tmp_path_factory, rows, bits, data
    ):
        codes = data.draw(arrays(np.int8, (rows, bits), elements=st.sampled_from([-1, 1])))
        path = tmp_path_factory.mktemp("codes") / "codes.txt"
        write_codes(path, codes, "text")
        assert path.read_bytes() == text_codes_per_token(codes).encode()
        back = read_codes(path, "text")
        assert back.dtype == np.int8
        np.testing.assert_array_equal(back, codes)

    @settings(deadline=None)
    @given(rows=st.integers(0, 600), bits=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    @example(rows=0, bits=1, seed=0)
    @example(rows=1, bits=1, seed=0)
    @example(rows=2 * 256 + 1, bits=1, seed=1)
    def test_text_bytes_match_the_joined_string_writer(self, tmp_path_factory, rows, bits, seed):
        codes = np.random.default_rng(seed).choice([-1, 1], size=(rows, bits)).astype(np.int8)
        path = tmp_path_factory.mktemp("codes") / "codes.txt"
        write_codes(path, codes, "text")
        assert path.read_bytes() == text_codes_joined(codes).encode()

    def test_text_errors_name_the_first_bad_line(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("1 -1\n\n1 0\n1\n")
        with pytest.raises(ValueError, match=r"codes.txt:3: code token '0' outside"):
            read_codes(path, "text")
        path.write_text("1 -1\n\n1\n1 0\n")
        with pytest.raises(ValueError, match=r"codes.txt:3: ragged code row"):
            read_codes(path, "text")

    def test_text_codes_of_zero_rows_lose_their_width(self, tmp_path):
        path = tmp_path / "codes.txt"
        write_codes(path, np.zeros((0, 7), dtype=np.int8), "text")
        assert read_codes(path, "text").shape == (0, 0)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("1 -1\n1 2\n")
        with pytest.raises(ValueError, match="outside"):
            read_codes(path, "text")

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("1 -1\n1\n")
        with pytest.raises(ValueError, match="ragged"):
            read_codes(path, "text")

    def test_packed_truncation_detected(self, tmp_path):
        path = tmp_path / "codes.bin"
        write_codes(path, np.ones((4, 9), dtype=np.int8), "packed")
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            read_codes(path, "packed")


class TestSynthesizeClusters:
    def test_shapes_and_labels(self):
        dataset = synthesize_clusters(3, 20, 5, seed=6)
        assert dataset.features.shape == (60, 5)
        counts = {label: dataset.labels.count(label) for label in set(dataset.labels)}
        assert counts == {0: 20, 1: 20, 2: 20}

    def test_deterministic(self):
        a = synthesize_clusters(2, 10, 4, seed=7)
        b = synthesize_clusters(2, 10, 4, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.labels == b.labels

    @pytest.mark.parametrize("key, value", [
        ("separation", -2.0), ("spread", -1.0), ("separation", np.inf), ("spread", np.nan),
        ("spread", -np.inf),
    ])
    def test_refuses_a_negative_or_non_finite_scale(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite and nonnegative, got "):
            synthesize_clusters(2, 10, 4, seed=7, **{key: value})

    def test_zero_scales_are_accepted(self):
        dataset = synthesize_clusters(2, 10, 4, separation=0.0, spread=0.0, seed=7)
        np.testing.assert_array_equal(dataset.features, np.zeros((20, 4)))

    def test_separation_dwarfs_spread(self):
        dataset = synthesize_clusters(2, 50, 8, seed=8)
        features = dataset.features
        labels = np.array(dataset.labels)
        centers = np.array([features[labels == c].mean(axis=0) for c in (0, 1)])
        gap = np.linalg.norm(centers[0] - centers[1])
        within = max(
            np.linalg.norm(features[labels == c] - centers[c], axis=1).max() for c in (0, 1)
        )
        assert gap > within
