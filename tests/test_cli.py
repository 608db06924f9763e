"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emhash
from emhash.cli import main
from emhash.dataio import load_feature_matrix, read_codes, write_feature_csv, write_label_file


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
        code = main([
            "train", "--features", str(data), "--anchors", "1000",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "exceeds" in capsys.readouterr().err

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


class TestDenseBudget:
    def test_splh_refuses_before_building_the_dense_block(self, tmp_path, capsys, monkeypatch):
        from emhash import dataio

        def forbidden(labels):
            raise AssertionError("full_similarity called past the dense budget")

        monkeypatch.setattr(dataio, "full_similarity", forbidden)
        data = tmp_path / "big.csv"
        write_feature_csv(data, np.arange(5001.0)[:, None], [i % 2 for i in range(5001)])
        code = main([
            "train", "--features", str(data), "--method", "em-splh", "--bits", "4",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "at most 5000 points" in err
        assert not (tmp_path / "run").exists()


class TestBench:
    def test_point_grid_reports_ratio(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        assert main([
            "bench", "--grid-n", "200,400", "--anchors", "50", "--bits", "4",
            "--sweeps", "2", "--out", str(table),
        ]) == 0
        printed = capsys.readouterr().out
        assert "grid=n size=200" in printed
        assert "time_ratio=" in printed
        rows = json.loads(table.read_text())["rows"]
        assert [row["size"] for row in rows] == [200, 400]

    def test_bit_grid_reports_memory(self, tmp_path, capsys):
        assert main([
            "bench", "--grid-d", "4,8", "--points", "300", "--anchors", "50",
            "--sweeps", "2",
        ]) == 0
        printed = capsys.readouterr().out
        assert "tail_peak_bytes=" in printed
        assert "tail_memory_ratio=" in printed

    def test_requires_a_grid(self, tmp_path, capsys):
        assert main(["bench"]) == 1
        assert "grid" in capsys.readouterr().err


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


class TestBlasThreads:
    def test_outputs_identical_across_openblas_thread_counts(self, tmp_path):
        """em-ksh train with a tail of several row blocks, one child per thread count."""
        data = synth(tmp_path, clusters=4, per_cluster=250, dim=16)
        source = str(Path(emhash.__file__).resolve().parents[1])
        outputs = {}
        for threads in (1, 2, 4):
            out_dir = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "emhash.cli", "train", "--features", str(data),
                 "--bits", "32", "--anchors", "100", "--sweeps", "1", "--seed", "7",
                 "--codes-format", "packed", "--out-dir", str(out_dir)],
                env=env, check=True, capture_output=True,
            )
            outputs[threads] = [
                (out_dir / name).read_bytes() for name in ("codes.bin", "model.emh", "thresholds.txt")
            ]
        assert outputs[1] == outputs[2] == outputs[4]
