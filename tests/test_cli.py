"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import emhash
from emhash import cli, dataio, energy_models, mean_field
from emhash.cli import _OPTS, CliError, _build_parser, _resolve, main
from emhash.dataio import (
    load_feature_matrix,
    read_codes,
    write_codes,
    write_feature_csv,
    write_label_file,
)
from emhash.energy_models import TrainConfig


def synth(tmp_path, name="data.csv", clusters=2, per_cluster=60, dim=8, seed=3):
    path = tmp_path / name
    assert main([
        "synth", "--clusters", str(clusters), "--per-cluster", str(per_cluster),
        "--dim", str(dim), "--seed", str(seed), "--out", str(path),
    ]) == 0
    return path


def train(tmp_path, data, out="run", extra=()):
    out_dir = tmp_path / out
    code = main([
        "train", "--features", str(data), "--bits", "8", "--anchors", "40",
        "--sweeps", "3", "--seed", "7", "--out-dir", str(out_dir), *extra,
    ])
    assert code == 0
    return out_dir


def labels_file(tmp_path, data):
    dataset = load_feature_matrix(data, "csv", labeled=True)
    path = tmp_path / "labels.txt"
    write_label_file(path, dataset.labels)
    return path


class TestTrain:
    def test_full_pipeline_outputs(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        printed = capsys.readouterr().out
        assert "codes=" in printed and "manifest=" in printed
        assert (out_dir / "codes.txt").is_file()
        assert (out_dir / "model.emh").is_file()
        assert (out_dir / "thresholds.txt").is_file()
        manifest = (out_dir / "manifest.txt").read_text()
        assert "subcommand=train" in manifest
        assert "seed=7" in manifest
        assert "timing.train_seconds=" in manifest
        codes = read_codes(out_dir / "codes.txt")
        assert codes.shape == (120, 8)

    def test_rerun_from_manifest_is_bitwise_identical(self, tmp_path):
        data = synth(tmp_path)
        first = train(tmp_path, data, out="run1")
        assert main([
            "train", "--config", str(first / "manifest.txt"),
            "--out-dir", str(tmp_path / "run2"), "--threads", "4",
        ]) == 0
        for name in ("codes.txt", "model.emh", "thresholds.txt"):
            assert (first / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()

    def test_defaults_are_the_library_defaults(self, tmp_path):
        data = synth(tmp_path)
        out_dir = tmp_path / "run"
        assert main([
            "train", "--features", str(data), "--anchors", "40", "--out-dir", str(out_dir),
        ]) == 0
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        defaults = TrainConfig()
        for key in ("bits", "sweeps", "seed"):
            assert f"{key}={getattr(defaults, key)}" in manifest
        assert read_codes(out_dir / "codes.txt").shape == (120, defaults.bits)

    def test_missing_feature_file_leaves_no_outputs(self, tmp_path, capsys):
        code = main([
            "train", "--features", str(tmp_path / "nope.csv"),
            "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "not found" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_empty_feature_file_is_refused_before_label_checks(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["train", "--features", str(empty), "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "at least one point" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_label_token_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("1,2,0\n3,4,x\n")
        code = main(["train", "--features", str(data), "--out-dir", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{data}:2: bad label 'x'" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_label_file_of_the_wrong_length(self, tmp_path, capsys):
        features = tmp_path / "m.emh"
        dataio.write_feature_matrix(features, np.ones((5, 2)))
        labels = tmp_path / "labels.txt"
        write_label_file(labels, [0, 1, 0])
        one_line_failure(
            capsys,
            ["train", "--features", str(features), "--features-format", "binary",
             "--labels", str(labels), "--anchors", "2", "--out-dir", str(tmp_path / "run")],
            "emhash train: 3 labels for 5 points\n",
        )
        assert not (tmp_path / "run").exists()

    def test_features_without_columns_are_refused(self, tmp_path, capsys):
        """No model of zero features is written: every query would encode to all +1."""
        features = tmp_path / "m.emh"
        dataio.write_feature_matrix(features, np.zeros((5, 0)))
        labels = tmp_path / "labels.txt"
        write_label_file(labels, [0, 1, 0, 1, 0])
        one_line_failure(
            capsys,
            ["train", "--features", str(features), "--features-format", "binary",
             "--labels", str(labels), "--bits", "4", "--anchors", "2",
             "--out-dir", str(tmp_path / "run")],
            "emhash train: a model needs at least one feature and one bit, "
            "got weights of shape (0, 4)\n",
        )
        assert not (tmp_path / "run").exists()

    def test_an_allocation_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        data = synth(tmp_path)
        capsys.readouterr()

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli, "em_ksh_train", too_large)
        one_line_failure(
            capsys,
            ["train", "--features", str(data), "--anchors", "20",
             "--out-dir", str(tmp_path / "run")],
            "emhash train: Unable to allocate 74.5 GiB for an array\n",
        )
        assert not (tmp_path / "run").exists()

    def test_splh_warns_about_identical_bits(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = tmp_path / "splh"
        assert main([
            "train", "--features", str(data), "--method", "em-splh",
            "--bits", "4", "--out-dir", str(out_dir),
        ]) == 0
        assert "1 effective bit" in capsys.readouterr().err
        codes = read_codes(out_dir / "codes.txt")
        for k in range(1, 4):
            np.testing.assert_array_equal(codes[:, k], codes[:, 0])

    def test_anchor_count_exceeding_points_fails(self, tmp_path, capsys):
        data = synth(tmp_path, per_cluster=5)
        capsys.readouterr()
        line = "emhash train: anchor count 1000 exceeds point count 10\n"
        assert one_line_failure(
            capsys,
            ["train", "--features", str(data), "--anchors", "1000",
             "--out-dir", str(tmp_path / "run")],
            line,
        ) == line
        assert not (tmp_path / "run").exists()

    def test_zero_anchors_is_one_exact_line(self, tmp_path, capsys):
        data = synth(tmp_path, per_cluster=5)
        capsys.readouterr()
        line = "emhash train: anchor count must be at least 1, got 0\n"
        assert one_line_failure(
            capsys,
            ["train", "--features", str(data), "--anchors", "0",
             "--out-dir", str(tmp_path / "run")],
            line,
        ) == line
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("layout", ["csv", "binary"])
    def test_a_non_finite_feature_names_its_file_and_row(self, tmp_path, capsys, layout):
        features = np.arange(12.0).reshape(4, 3)
        features[2, 1] = np.nan
        labels = tmp_path / "labels.txt"
        write_label_file(labels, [0, 1, 0, 1])
        if layout == "csv":
            data = tmp_path / "nan.csv"
            write_feature_csv(data, features)
        else:
            data = tmp_path / "nan.emh"
            dataio.write_feature_matrix(data, features)
        line = f"emhash train: {data}: features contain non-finite values (row 2)\n"
        assert one_line_failure(
            capsys,
            ["train", "--features", str(data), "--features-format", layout,
             "--labels", str(labels), "--anchors", "2", "--out-dir", str(tmp_path / "run")],
            line,
        ) == line
        assert not (tmp_path / "run").exists()

    def test_a_column_too_large_to_standardize_is_one_line(self, tmp_path, capsys):
        """Its mean overflows: no numpy warning, one line naming the column, no outputs."""
        features = np.ones((6, 3))
        features[:, 1] = [1e308, 9e307] * 3
        data = tmp_path / "huge.csv"
        write_feature_csv(data, features, [0, 1] * 3)
        line = (
            "emhash train: feature column 1 is too large to standardize: "
            "its mean or spread overflows float64\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert one_line_failure(
                capsys,
                ["train", "--features", str(data), "--anchors", "2",
                 "--out-dir", str(tmp_path / "run")],
                line,
            ) == line
        assert not (tmp_path / "run").exists()

    def test_packed_codes_format(self, tmp_path):
        data = synth(tmp_path)
        out_dir = tmp_path / "packed"
        assert main([
            "train", "--features", str(data), "--bits", "8", "--anchors", "40",
            "--codes-format", "packed", "--out-dir", str(out_dir),
        ]) == 0
        codes = read_codes(out_dir / "codes.bin", "packed")
        assert codes.shape == (120, 8)

    def test_separate_label_file(self, tmp_path):
        data = synth(tmp_path)
        dataset = load_feature_matrix(data, "csv", labeled=True)
        bare = tmp_path / "bare.csv"
        write_feature_csv(bare, dataset.features)
        labels = labels_file(tmp_path, data)
        out_dir = tmp_path / "run_labels"
        assert main([
            "train", "--features", str(bare), "--labels", str(labels),
            "--bits", "4", "--anchors", "30", "--out-dir", str(out_dir),
        ]) == 0


class TestEncode:
    def test_round_trip_through_training_set(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        out = tmp_path / "enc.txt"
        assert main([
            "encode", "--model", str(out_dir / "model.emh"),
            "--queries", str(data), "--queries-labeled", "--out", str(out),
        ]) == 0
        assert "encoded=120" in capsys.readouterr().out
        encoded = read_codes(out)
        trained = read_codes(out_dir / "codes.txt")
        # well-separated clusters: projection reproduces the training codes
        assert (encoded == trained).mean() > 0.99

    def test_bit_count_mismatch(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        code = main([
            "encode", "--model", str(out_dir / "model.emh"), "--queries", str(data),
            "--queries-labeled", "--bits", "16", "--out", str(tmp_path / "enc.txt"),
        ])
        assert code == 1
        assert "8 bits" in capsys.readouterr().err

    def test_empty_query_file(self, tmp_path):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "enc.txt"
        assert main([
            "encode", "--model", str(out_dir / "model.emh"),
            "--queries", str(empty), "--out", str(out),
        ]) == 0
        assert read_codes(out).shape[0] == 0

    def test_model_shorter_than_its_header(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        model = out_dir / "model.emh"
        model.write_bytes(model.read_bytes()[:20])
        code = main([
            "encode", "--model", str(model), "--queries", str(data),
            "--queries-labeled", "--out", str(tmp_path / "enc.txt"),
        ])
        assert code == 1
        assert f"{model}: truncated header" in capsys.readouterr().err
        assert not (tmp_path / "enc.txt").exists()

    def test_model_of_zero_bits(self, tmp_path, capsys):
        data = synth(tmp_path)
        model = tmp_path / "model.emh"
        # Feature dim 8, 0 bits: no weights or thresholds, then 8 offsets and 8 scales.
        header = np.array([8, 0], dtype="<u8").tobytes()
        model.write_bytes(b"EMHMOD01" + header + np.zeros(8, "<f8").tobytes()
                          + np.ones(8, "<f8").tobytes())
        capsys.readouterr()
        out = tmp_path / "enc.txt"
        one_line_failure(
            capsys,
            ["encode", "--model", str(model), "--queries", str(data), "--queries-labeled",
             "--out", str(out)],
            f"emhash encode: {model}: a model needs at least one feature and one bit, "
            "got weights of shape (8, 0)\n",
        )
        assert not out.exists()

    def test_a_non_finite_query_names_its_file_and_row(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        queries = tmp_path / "nan.csv"
        queries.write_text("1,2,3,4,5,6,7,8\n1,inf,3,4,5,6,7,8\n")
        capsys.readouterr()
        out = tmp_path / "enc.txt"
        line = f"emhash encode: {queries}: features contain non-finite values (row 1)\n"
        assert one_line_failure(
            capsys,
            ["encode", "--model", str(out_dir / "model.emh"), "--queries", str(queries),
             "--out", str(out)],
            line,
        ) == line
        assert not out.exists() and not Path(f"{out}.manifest").exists()

    def test_feature_dimension_mismatch(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        wrong = tmp_path / "wrong.csv"
        wrong.write_text("1,2,3\n")
        code = main([
            "encode", "--model", str(out_dir / "model.emh"),
            "--queries", str(wrong), "--out", str(tmp_path / "enc.txt"),
        ])
        assert code == 1
        assert "dimension" in capsys.readouterr().err


class TestEval:
    def test_metrics_printed_and_written(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        labels = labels_file(tmp_path, data)
        metrics = tmp_path / "metrics.json"
        assert main([
            "eval", "--db-codes", str(out_dir / "codes.txt"),
            "--query-codes", str(out_dir / "codes.txt"),
            "--db-labels", str(labels), "--query-labels", str(labels),
            "--exclude-self", "--out", str(metrics),
        ]) == 0
        printed = capsys.readouterr().out
        assert "map=1.000000" in printed
        payload = json.loads(metrics.read_text())
        assert payload["map"] == 1.0
        assert payload["queries"] == 120

    def test_label_count_mismatch(self, tmp_path, capsys):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        bad = tmp_path / "bad_labels.txt"
        bad.write_text("0\n1\n")
        code = main([
            "eval", "--db-codes", str(out_dir / "codes.txt"),
            "--query-codes", str(out_dir / "codes.txt"),
            "--db-labels", str(bad), "--query-labels", str(bad),
        ])
        assert code == 1
        assert "labels" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["database", "query"])
    def test_label_count_off_on_one_side_is_one_exact_line(self, tmp_path, capsys, side):
        data = synth(tmp_path)
        out_dir = train(tmp_path, data)
        labels = labels_file(tmp_path, data)
        bad = tmp_path / "bad_labels.txt"
        bad.write_text("0\n1\n")
        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        line = f"emhash eval: 2 labels for 120 {side} codes\n"
        assert one_line_failure(
            capsys,
            ["eval", "--db-codes", str(out_dir / "codes.txt"),
             "--query-codes", str(out_dir / "codes.txt"),
             "--db-labels", str(bad if side == "database" else labels),
             "--query-labels", str(bad if side == "query" else labels), "--out", str(metrics)],
            line,
        ) == line
        assert not metrics.exists()


def distinct_classes_csv(tmp_path, n):
    """A feature CSV of n points, each in its own class: n distinct label sets."""
    data = tmp_path / f"classes{n}.csv"
    write_feature_csv(data, np.arange(float(n))[:, None], list(range(n)))
    return data


class TestDenseBudget:
    """em-splh caps the distinct label sets (u), not the points."""

    def test_splh_refuses_before_building_the_dense_block(self, tmp_path, capsys, monkeypatch):
        from emhash import dataio

        def forbidden(labels):
            raise AssertionError("full_similarity called past the label-set cap")

        monkeypatch.setattr(dataio, "full_similarity", forbidden)
        code = main([
            "train", "--features", str(distinct_classes_csv(tmp_path, 5001)),
            "--method", "em-splh", "--bits", "4", "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "at most 5000 distinct label sets, got 5001" in err
        assert not (tmp_path / "run").exists()

    def test_view_refuses_past_the_entry_cap(self, tmp_path, capsys, monkeypatch):
        """u distinct label sets by m anchors past 10**8 entries: refused before any block."""
        from emhash import dataio

        def forbidden(rows, cols):
            raise AssertionError("similarity_block called past the entry cap")

        monkeypatch.setattr(dataio, "similarity_block", forbidden)
        code = main([
            "train", "--features", str(distinct_classes_csv(tmp_path, 10001)),
            "--anchors", "10001", "--bits", "4", "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "emhash train: similarity view of 10001 distinct label sets by 10001 anchors "
            "(100,020,001 entries) would exceed the dense budget of 100,000,000 entries\n"
        )
        assert not (tmp_path / "run").exists()

    def test_splh_trains_at_the_cap(self, tmp_path):
        out_dir = tmp_path / "run"
        assert main([
            "train", "--features", str(distinct_classes_csv(tmp_path, 5000)),
            "--method", "em-splh", "--bits", "4", "--out-dir", str(out_dir),
        ]) == 0
        assert read_codes(out_dir / "codes.txt").shape == (5000, 4)

    def test_splh_trains_fifty_thousand_class_labelled_points(self, tmp_path):
        """Past the old 5000-point budget: ten classes need a 10-by-10 solve."""
        data = tmp_path / "big.csv"
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 10, 50_000)
        write_feature_csv(data, labels[:, None] + rng.random((50_000, 1)), labels.tolist())
        out_dir = tmp_path / "run"
        assert main([
            "train", "--features", str(data), "--method", "em-splh", "--bits", "4",
            "--out-dir", str(out_dir),
        ]) == 0
        codes = read_codes(out_dir / "codes.txt")
        assert codes.shape == (50_000, 4) and 0 < np.count_nonzero(codes[:, 0] > 0) < 50_000


class TestEdgeProbes:
    """Inputs at the edges of what training accepts; each trains and exits 0."""

    def run(self, tmp_path, features, labels, *extra):
        data = tmp_path / "data.csv"
        write_feature_csv(data, features, labels)
        out_dir = tmp_path / "run"
        assert main(["train", "--features", str(data), "--out-dir", str(out_dir), *extra]) == 0
        return read_codes(out_dir / "codes.txt")

    @pytest.mark.parametrize("method", ["em-ksh", "em-lfh"])
    def test_all_unlabeled_anchors_give_uninformative_codes(self, tmp_path, capsys, method):
        from emhash.dataio import Dataset, sample_similarity_columns

        n, m, seed = 60, 12, 4
        # The anchors depend only on the point count, the anchor count and the seed.
        _, order = sample_similarity_columns(Dataset(np.zeros((n, 1)), [0] * n), m, seed)
        labels = [i % 3 for i in range(n)]
        for k in order[:m]:
            labels[k] = None
        features = np.random.default_rng(0).random((n, 3))
        codes = self.run(tmp_path, features, labels, "--method", method, "--bits", "4",
                         "--anchors", str(m), "--seed", str(seed))
        # Every relation to an anchor is unobserved: all marginals sit at 0.5.
        np.testing.assert_array_equal(codes, 1)
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"{method}: 0 of {m} anchors are labeled;")

    def test_a_labeled_anchor_gives_no_warning(self, tmp_path, capsys):
        features = np.random.default_rng(3).random((30, 3))
        self.run(tmp_path, features, [i % 3 for i in range(30)], "--anchors", "10")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", ["em-ksh", "em-lfh", "em-splh"])
    def test_single_class(self, tmp_path, method):
        features = np.random.default_rng(1).random((30, 3))
        codes = self.run(tmp_path, features, [4] * 30, "--method", method, "--bits", "4",
                         "--anchors", "10")
        assert codes.shape == (30, 4)

    @pytest.mark.parametrize("method", ["em-ksh", "em-lfh", "em-splh"])
    def test_single_bit(self, tmp_path, method):
        rng = np.random.default_rng(2)
        labels = [i % 3 for i in range(45)]
        features = np.array(labels, dtype=float)[:, None] + rng.random((45, 2))
        codes = self.run(tmp_path, features, labels, "--method", method, "--bits", "1",
                         "--anchors", "15")
        assert codes.shape == (45, 1) and len(np.unique(codes)) == 2


class TestResidualGuard:
    @pytest.mark.parametrize("method", ["em-ksh", "em-lfh"])
    def test_residual_breach_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch, method):
        """A row solve past RESIDUAL_TOL inside a sweep ends the run, leaving no outputs."""
        data = synth(tmp_path)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda lhs, rhs: solve(lhs, rhs) * (1.0 + 1e-3))
        code = main([
            "train", "--features", str(data), "--method", method, "--bits", "8",
            "--anchors", "40", "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("emhash train: affine solve residual ")
        assert not (tmp_path / "run").exists()


class TestLinearize:
    def test_reports_reference_fit(self, capsys):
        assert main(["linearize", "--linear-range", "2.0"]) == 0
        printed = capsys.readouterr().out
        assert "slope=0.210901" in printed
        assert "intercept=0.500000000" in printed
        assert "condition_holds=true" in printed

    def test_near_tangent(self, capsys):
        assert main(["linearize", "--linear-range", "0.01"]) == 0
        printed = capsys.readouterr().out
        slope = float(next(l for l in printed.splitlines() if l.startswith("slope=")).split("=")[1])
        assert slope == pytest.approx(0.25, abs=1e-4)

    def test_out_of_range_cites_bound(self, capsys):
        assert main(["linearize", "--linear-range", "3.0"]) == 1
        assert "2.5997" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "half_range, bound", [("1e-8", "1e-06"), ("2.59969", "crossover near 2.5996819")]
    )
    def test_edges_name_the_input(self, capsys, half_range, bound):
        """Below the smallest fit and in the band past the crossover under 2.5997."""
        assert main(["linearize", "--linear-range", half_range]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "half_range" in err and bound in err

    def test_nan_names_the_valid_interval(self, capsys):
        """NaN is below no bound: the message gives the interval, not the lower edge."""
        assert main(["linearize", "--linear-range", "nan"]) == 1
        assert capsys.readouterr().err == (
            "emhash linearize: half_range must be a number from 1e-06 up to the "
            "solvability crossover near 2.5996819, got nan\n"
        )


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        data = synth(tmp_path)
        config = tmp_path / "config.txt"
        config.write_text(
            f"features={data}\nbits=4\nanchors=30\nsweeps=2\nseed=5\n"
            f"out_dir={tmp_path / 'from_config'}\n# comment line\n"
        )
        assert main(["train", "--config", str(config), "--bits", "8"]) == 0
        codes = read_codes(tmp_path / "from_config" / "codes.txt")
        assert codes.shape[1] == 8  # flag wins over the config value

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("no_such_option=1\n")
        assert main(["train", "--config", str(config)]) == 1
        assert "no_such_option" in capsys.readouterr().err

    def test_missing_required_option(self, tmp_path, capsys):
        assert main(["train", "--out-dir", str(tmp_path / "x")]) == 1
        assert "--features" in capsys.readouterr().err


def one_line_failure(capsys, argv, prefix):
    """Run ``argv``: exit 1, nothing on stdout, one stderr line that starts with ``prefix``."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(prefix)
    return captured.err


class TestMalformedCommandLines:
    """Every malformed command line exits 1 with one line and writes nothing."""

    @pytest.mark.parametrize("argv, prefix", [
        ([], "emhash: the following arguments are required: subcommand"),
        (["nope"], "emhash: argument subcommand: invalid choice: 'nope'"),
        (["train", "--bogus"], "emhash train: unrecognized arguments: --bogus"),
        (["train", "--bits"], "emhash train: argument --bits: expected one argument"),
    ])
    def test_parse_errors(self, capsys, argv, prefix):
        one_line_failure(capsys, argv, prefix)

    @pytest.mark.parametrize("key, text, reason", [
        ("bits", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("ridge", "abc", "could not convert string to float: 'abc'"),
        ("standardize", "maybe", "expected a boolean, got 'maybe'"),
        ("method", "nope", "must be one of em-ksh, em-splh, em-lfh, got 'nope'"),
    ])
    def test_bad_values_by_flag_and_by_config(self, tmp_path, capsys, key, text, reason):
        required = ["train", "--features", str(tmp_path / "data.csv"),
                    "--out-dir", str(tmp_path / "run")]
        config = tmp_path / "config.txt"
        config.write_text(f"{key}={text}\n")
        one_line_failure(
            capsys, [*required, "--config", str(config)],
            f"emhash train: config value for {key!r}: {reason}\n",
        )
        # A boolean flag takes no value: argparse refuses the text itself.
        by_flag = f"--{key}={text}" if key == "standardize" else f"--{key}"
        err = one_line_failure(
            capsys, [*required, by_flag, *([] if key == "standardize" else [text])],
            "emhash train: ",
        )
        if key != "standardize":
            assert err == f"emhash train: --{key}: {reason}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_ridge_outside_zero_to_infinity(self, tmp_path, capsys, ridge, source):
        """Refused before the output directory is made: no all-NaN or all-zero model."""
        data = synth(tmp_path)
        capsys.readouterr()
        argv = ["train", "--features", str(data), "--anchors", "20",
                "--out-dir", str(tmp_path / "run")]
        if source == "flag":
            argv.append(f"--ridge={ridge}")
        else:
            config = tmp_path / "config.txt"
            config.write_text(f"ridge={ridge}\n")
            argv += ["--config", str(config)]
        one_line_failure(capsys, argv, "emhash train: ridge must be finite and nonnegative, got ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--bits", "0"], "bits must be >= 1, got 0"),
        (["--bits", "5001"], "bits must be <= 5000, got 5001"),
        (["--sweeps", "0"], "sweeps must be >= 1, got 0"),
        (["--linear-range", "nan"], "half_range must be a number from 1e-06 up to the "
                                    "solvability crossover near 2.5996819, got nan"),
        (["--ridge", "nan"], "ridge must be finite and nonnegative, got nan"),
    ])
    def test_train_refuses_values_that_need_no_data_before_reading_it(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        data = synth(tmp_path)
        capsys.readouterr()

        def unread(*args, **kwargs):
            raise AssertionError("the feature file was read")

        monkeypatch.setattr(dataio, "load_feature_matrix", unread)
        one_line_failure(
            capsys,
            ["train", "--features", str(data), "--out-dir", str(tmp_path / "run"), *argv],
            f"emhash train: {message}\n",
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, text", [
        ("spread", "-1"), ("separation", "-2"), ("spread", "nan"), ("separation", "inf"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_synth_refuses_a_negative_or_non_finite_scale(
        self, tmp_path, capsys, key, text, source
    ):
        out = tmp_path / "s.csv"
        argv = ["synth", "--out", str(out)]
        if source == "flag":
            argv.append(f"--{key}={text}")
        else:
            config = tmp_path / "config.txt"
            config.write_text(f"{key}={text}\n")
            argv += ["--config", str(config)]
        one_line_failure(
            capsys, argv, f"emhash synth: {key} must be finite and nonnegative, got {float(text)}\n"
        )
        assert list(tmp_path.iterdir()) == ([] if source == "flag" else [tmp_path / "config.txt"])

    def test_encode_refuses_a_model_with_a_nan_weight(self, tmp_path, capsys):
        data = synth(tmp_path)
        model = train(tmp_path, data) / "model.emh"
        raw = bytearray(model.read_bytes())
        raw[24:32] = np.array([np.nan], "<f8").tobytes()  # the first weight
        model.write_bytes(bytes(raw))
        capsys.readouterr()
        out = tmp_path / "enc.txt"
        one_line_failure(
            capsys,
            ["encode", "--model", str(model), "--queries", str(data), "--queries-labeled",
             "--out", str(out)],
            f"emhash encode: {model}: non-finite value in weights\n",
        )
        assert not out.exists()


def values_to_try(opt):
    """Texts for one option: valid ones and malformed ones of its kind."""
    if opt.choices:
        return [*opt.choices, "nope", ""]
    if opt.kind is int:
        return ["3", "-2", "abc", "1.5", ""]
    if opt.kind is float:
        return ["0.5", "-1e-3", "1e400", "abc", ""]
    return ["some/file.txt", ""]


OPTION_CASES = [
    (name, opt, text)
    for name, opts in _OPTS.items()
    for opt in opts
    for text in (["true", "false"] if opt.kind is bool else values_to_try(opt))
]


class TestFlagsAndConfigAgree:
    """A value given by flag or by config file resolves alike, or fails alike."""

    @staticmethod
    def resolve(argv):
        args = _build_parser().parse_args(argv)
        try:
            return _resolve(args.subcommand, vars(args), args.config)
        except CliError as exc:
            return str(exc)

    @pytest.mark.parametrize(
        "name, opt, text", OPTION_CASES,
        ids=[f"{name}-{opt.key}-{text or 'empty'}" for name, opt, text in OPTION_CASES],
    )
    def test_same_run_config_or_same_message(self, tmp_path, name, opt, text):
        flag = "--" + opt.key.replace("_", "-")
        base = [name]
        for other in _OPTS[name]:
            if other.required and other is not opt:
                base += ["--" + other.key.replace("_", "-"), "given"]
        config = tmp_path / "config.txt"
        config.write_text(f"{opt.key}={text}\n")
        by_config = self.resolve([*base, "--config", str(config)])
        if opt.kind is bool:
            forms = [[flag if text == "true" else "--no-" + flag[2:]]]
        else:
            # argparse reads a separate text that starts with "-" as an option,
            # unless it is a plain negative number; "--x=-1e-3" always works.
            forms = [[f"{flag}={text}"]] + ([] if text.startswith("-") else [[flag, text]])
        for form in forms:
            by_flag = self.resolve([*base, *form])
            assert type(by_flag) is type(by_config)
            if isinstance(by_flag, str):
                assert by_flag.removeprefix(f"{flag}: ") == by_config.removeprefix(
                    f"config value for {opt.key!r}: "
                )
            else:
                assert by_flag == by_config

    def test_the_last_of_a_repeated_option_wins(self):
        assert self.resolve(["linearize", "--linear-range", "1.0", "--linear-range", "0.5"])[
            "linear_range"
        ] == 0.5
        required = ["train", "--features", "f.csv", "--out-dir", "run"]
        assert self.resolve([*required, "--standardize", "--no-standardize"])["standardize"] is False
        assert self.resolve([*required, "--no-standardize", "--standardize"])["standardize"] is True


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        printed = capsys.readouterr().out
        assert all(name in printed for name in _OPTS)

    @pytest.mark.parametrize("name", list(_OPTS))
    def test_every_choice_set_is_listed(self, capsys, name):
        with pytest.raises(SystemExit) as done:
            main([name, "--help"])
        assert done.value.code == 0
        printed = capsys.readouterr().out
        for opt in _OPTS[name]:
            if opt.choices:
                assert "{" + ",".join(opt.choices) + "}" in printed


class TestMethods:
    @pytest.mark.parametrize("method", ["em-ksh", "em-lfh"])
    def test_sampled_methods_reach_perfect_retrieval(self, tmp_path, method, capsys):
        data = synth(tmp_path, name=f"{method}.csv")
        out_dir = tmp_path / method
        assert main([
            "train", "--features", str(data), "--method", method, "--bits", "8",
            "--anchors", "40", "--out-dir", str(out_dir),
        ]) == 0
        labels = labels_file(tmp_path, data)
        assert main([
            "eval", "--db-codes", str(out_dir / "codes.txt"),
            "--query-codes", str(out_dir / "codes.txt"),
            "--db-labels", str(labels), "--query-labels", str(labels),
            "--exclude-self",
        ]) == 0
        assert "map=1.000000" in capsys.readouterr().out


class TestNoCheckedReferenceInProduction:
    """Training solves every system on plain arrays: it builds no checked
    ``RowSystem`` and calls neither ``make_system`` nor ``solve_affine``, the
    references the tests check the row kernel against."""

    @pytest.mark.parametrize("method", ["em-ksh", "em-lfh", "em-splh"])
    def test_train_is_unchanged_with_the_references_refusing(
        self, tmp_path, monkeypatch, capsys, method
    ):
        data = synth(tmp_path, clusters=3)
        plain = train(tmp_path, data, out="plain", extra=["--method", method])

        def refuse(*args, **kwargs):
            raise AssertionError("training reached a checked reference")

        monkeypatch.setattr(mean_field.RowSystem, "__post_init__", refuse)
        for module in (mean_field, energy_models):
            for name in ("make_system", "solve_affine"):
                monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError, match="checked reference"):
            mean_field.RowSystem(a=np.eye(2), b=np.ones(2), scale=1.0)
        patched = train(tmp_path, data, out="patched", extra=["--method", method])
        for name in ("codes.txt", "model.emh"):
            assert (patched / name).read_bytes() == (plain / name).read_bytes()


class TestBlasThreads:
    """Train with a tail of 900 rows, four row blocks, one child per thread count."""

    def outputs_per_thread_count(self, tmp_path, method, sweeps=1, per_cluster=250, dim=16):
        data = synth(tmp_path, clusters=4, per_cluster=per_cluster, dim=dim)
        source = str(Path(emhash.__file__).resolve().parents[1])
        outputs = {}
        for threads in (1, 2, 4):
            out_dir = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "emhash.cli", "train", "--features", str(data),
                 "--method", method, "--bits", "32", "--anchors", "100", "--sweeps", str(sweeps),
                 "--seed", "7", "--codes-format", "packed", "--out-dir", str(out_dir)],
                env=env, check=True, capture_output=True,
            )
            outputs[threads] = [
                (out_dir / name).read_bytes() for name in ("codes.bin", "model.emh", "thresholds.txt")
            ]
        return outputs

    def test_outputs_identical_across_openblas_thread_counts(self, tmp_path):
        outputs = self.outputs_per_thread_count(tmp_path, "em-ksh")
        assert outputs[1] == outputs[2] == outputs[4]

    def test_gram_carried_across_sweeps_identical_across_openblas_thread_counts(self, tmp_path):
        """Two em-ksh sweeps: the second starts from a Gram re-formed from the first."""
        outputs = self.outputs_per_thread_count(tmp_path, "em-ksh", sweeps=2)
        assert outputs[1] == outputs[2] == outputs[4]

    def test_em_lfh_outputs_identical_across_openblas_thread_counts(self, tmp_path):
        outputs = self.outputs_per_thread_count(tmp_path, "em-lfh")
        assert outputs[1] == outputs[2] == outputs[4]

    def test_em_splh_outputs_identical_across_openblas_thread_counts(self, tmp_path):
        """The homogeneous solve over the 4-by-4 matrix of the four classes."""
        outputs = self.outputs_per_thread_count(tmp_path, "em-splh")
        assert outputs[1] == outputs[2] == outputs[4]

    def test_projection_fit_identical_across_openblas_thread_counts(self, tmp_path):
        """1500 points of 32 features, the em-splh benchmark's shape, where a BLAS
        product over the training rows splits its sums by thread count."""
        outputs = self.outputs_per_thread_count(tmp_path, "em-splh", per_cluster=375, dim=32)
        assert outputs[1] == outputs[2] == outputs[4]


class TestNumpyOnlyRuntime:
    """The stage processes import numpy and no scipy module."""

    def child(self, code, *args):
        source = str(Path(emhash.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            env=env, check=True, capture_output=True, text=True,
        )
        return json.loads(done.stdout.splitlines()[-1])

    def test_cli_import_loads_no_scipy(self):
        loaded = self.child(
            "import json, sys\n"
            "import emhash.cli\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))\n"
        )
        assert loaded == []

    def test_train_encode_eval_load_no_scipy(self, tmp_path):
        data = synth(tmp_path, clusters=3, per_cluster=40)
        labels = labels_file(tmp_path, data)
        out = tmp_path / "run"
        stages = [
            ["train", "--features", str(data), "--method", "em-ksh", "--bits", "8",
             "--anchors", "30", "--sweeps", "2", "--seed", "7", "--out-dir", str(out)],
            ["encode", "--model", str(out / "model.emh"), "--queries", str(data),
             "--queries-labeled", "--out", str(tmp_path / "queries.txt")],
            ["eval", "--db-codes", str(out / "codes.txt"),
             "--query-codes", str(tmp_path / "queries.txt"), "--db-labels", str(labels),
             "--query-labels", str(labels), "--exclude-self",
             "--out", str(tmp_path / "metrics.json")],
        ]
        loaded = self.child(
            "import json, sys\n"
            "from emhash.cli import main\n"
            "codes = [main(stage) for stage in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n",
            json.dumps(stages),
        )
        assert loaded == [[0, 0, 0], []]
        assert json.loads((tmp_path / "metrics.json").read_text())["queries"] == 120

    def test_eval_loads_no_numpy_ma(self, tmp_path):
        """The AP median is taken without ``np.median``, whose NaN check imports numpy.ma."""
        rng = np.random.default_rng(5)
        codes, labels = tmp_path / "codes.txt", tmp_path / "labels.txt"
        write_codes(codes, rng.choice(np.array([-1, 1], dtype=np.int8), size=(30, 8)))
        write_label_file(labels, [int(c) for c in rng.integers(0, 3, size=30)])
        stage = ["eval", "--db-codes", str(codes), "--query-codes", str(codes),
                 "--db-labels", str(labels), "--query-labels", str(labels), "--exclude-self"]
        loaded = self.child(
            "import json, sys\n"
            "from emhash.cli import main\n"
            "status = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([status, 'numpy.ma' in sys.modules]))\n",
            json.dumps(stage),
        )
        assert loaded == [0, False]
