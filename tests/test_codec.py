"""Tests for rounding, the ridge projection and model serialization."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from emhash.codec import (
    ProjectionModel,
    encode,
    encode_batch,
    fit_projection,
    load_projection,
    round_codes,
    save_projection,
)


class TestRoundCodes:
    def test_tie_rounds_up(self):
        codes, thresholds = round_codes(np.array([[0.9], [0.1], [0.5]]))
        assert thresholds[0] == pytest.approx(0.5)
        np.testing.assert_array_equal(codes[:, 0], [1, -1, 1])

    def test_constant_column_all_positive(self):
        codes, _ = round_codes(np.full((5, 2), 0.37))
        np.testing.assert_array_equal(codes, np.ones((5, 2), dtype=np.int8))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        phi = rng.random((40, 6))
        codes, thresholds = round_codes(phi)
        for k in range(6):
            mean = sum(phi[i, k] for i in range(40)) / 40.0
            for i in range(40):
                expected = 1 if phi[i, k] >= mean else -1
                assert codes[i, k] == expected

    def test_order_relative_to_mean_is_all_that_matters(self):
        rng = np.random.default_rng(2)
        phi = rng.random((30, 4))
        codes, thresholds = round_codes(phi)
        # affine increasing transforms commute with the column mean
        affine, _ = round_codes(2.5 * phi + 3.0)
        np.testing.assert_array_equal(affine, codes)
        # general increasing transforms preserve the comparison against the
        # transformed threshold
        recoded = np.where(np.exp(phi) >= np.exp(thresholds), 1, -1)
        np.testing.assert_array_equal(recoded, codes)


class TestFitProjection:
    def test_identity_features_reproduce_soft_codes(self):
        rng = np.random.default_rng(3)
        phi = rng.random((7, 3))
        model = fit_projection(np.eye(7), phi, ridge=0.0)
        np.testing.assert_allclose(model.weights, phi, atol=1e-10)
        _, thresholds = round_codes(phi)
        np.testing.assert_allclose(model.thresholds, thresholds, atol=1e-10)

    def test_extreme_ridge_shrinks_weights(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5))
        phi = rng.random((20, 3))
        model = fit_projection(x, phi, ridge=1e9)
        assert np.linalg.norm(model.weights) < 1e-6

    def test_normal_equations_residual_vs_explicit_inverse(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 6))
        phi = rng.random((25, 4))
        model = fit_projection(x, phi, ridge=1.0)
        gram = x.T @ x + np.eye(6)
        residual = np.linalg.norm(gram @ model.weights - x.T @ phi)
        assert residual <= 1e-8 * np.linalg.norm(x.T @ phi)
        oracle = np.linalg.inv(gram) @ (x.T @ phi)
        np.testing.assert_allclose(model.weights, oracle, atol=1e-8)

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 6),
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    )
    def test_matches_scipy_cholesky_solve(self, seed, p, bits, ridge):
        rng = np.random.default_rng(seed)
        # Twice as many rows as columns keeps Gaussian features well
        # conditioned, so ridge 0 is a fair case too.
        x = rng.normal(size=(2 * p + int(rng.integers(0, 20)), p))
        phi = rng.random((x.shape[0], bits))
        factor = scipy.linalg.cho_factor(x.T @ x + ridge * np.eye(p))
        weights = scipy.linalg.cho_solve(factor, x.T @ phi)
        thresholds = (x @ weights).mean(axis=0)
        model = fit_projection(x, phi, ridge=ridge)
        assert np.max(np.abs(model.weights - weights)) <= 1e-10 * np.max(np.abs(weights))
        assert np.max(np.abs(model.thresholds - thresholds)) <= 1e-10 * np.max(
            np.abs(thresholds)
        )

    def test_rank_deficient_without_ridge_fails(self):
        x = np.zeros((4, 3))
        x[:, 0] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(np.linalg.LinAlgError):
            fit_projection(x, np.random.default_rng(0).random((4, 2)), ridge=0.0)

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="row mismatch"):
            fit_projection(np.eye(3), np.zeros((4, 2)))

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
    def test_ridge_outside_zero_to_infinity_refused(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            fit_projection(np.eye(3), np.zeros((3, 2)), ridge=ridge)


class TestEncode:
    def test_training_points_reproduce_codes_in_exact_fit(self):
        rng = np.random.default_rng(6)
        phi = rng.random((9, 5))
        model = fit_projection(np.eye(9), phi, ridge=0.0)
        codes, _ = round_codes(phi)
        for i in range(9):
            np.testing.assert_array_equal(encode(model, np.eye(9)[i]), codes[i])
        np.testing.assert_array_equal(encode_batch(model, np.eye(9)), codes)

    def test_zero_vector_ruled_by_thresholds(self):
        model = ProjectionModel(
            weights=np.ones((3, 4)),
            thresholds=np.array([-0.5, 0.0, 0.5, 1.0]),
            offset=np.zeros(3),
            scale=np.ones(3),
        )
        np.testing.assert_array_equal(encode(model, np.zeros(3)), [1, 1, -1, -1])

    def test_linear_before_threshold(self):
        rng = np.random.default_rng(7)
        model = ProjectionModel(
            weights=rng.normal(size=(4, 3)),
            thresholds=np.zeros(3),
            offset=np.zeros(4),
            scale=np.ones(4),
        )
        x = rng.normal(size=4)
        np.testing.assert_array_equal(encode(model, 3.7 * x), encode(model, x))

    def test_held_out_points_inherit_cluster_codes(self):
        from emhash.dataio import sample_similarity_columns, standardize_features, synthesize_clusters
        from emhash.energy_models import TrainConfig, em_ksh_train
        from emhash.mean_field import fit_linearization

        dataset = synthesize_clusters(2, 40, 8, seed=11)
        lin = fit_linearization(2.0)
        train_idx = np.arange(0, 60)
        held_idx = np.arange(60, 80)
        train = dataset.features[train_idx]
        train_labels = [dataset.labels[i] for i in train_idx]
        from emhash.dataio import Dataset

        view, order = sample_similarity_columns(Dataset(train, train_labels), 30, seed=1)
        phi_perm = em_ksh_train(view, TrainConfig(bits=8, sweeps=3, seed=1), lin)
        phi = np.empty_like(phi_perm)
        phi[order] = phi_perm
        feats, offset, scale = standardize_features(train)
        model = fit_projection(feats, phi, ridge=1.0).with_standardization(offset, scale)
        codes, _ = round_codes(phi)
        cluster_code = {train_labels[i]: codes[i] for i in range(60)}
        hits = 0
        for i in held_idx:
            predicted = encode(model, dataset.features[i])
            if np.array_equal(predicted, cluster_code[dataset.labels[i]]):
                hits += 1
        assert hits == len(held_idx)

    def test_dimension_mismatch(self):
        model = ProjectionModel(
            weights=np.ones((3, 2)), thresholds=np.zeros(2),
            offset=np.zeros(3), scale=np.ones(3),
        )
        with pytest.raises(ValueError):
            encode(model, np.zeros(4))
        with pytest.raises(ValueError):
            encode_batch(model, np.zeros((2, 4)))

    def test_empty_batch(self):
        model = ProjectionModel(
            weights=np.ones((3, 2)), thresholds=np.zeros(2),
            offset=np.zeros(3), scale=np.ones(3),
        )
        out = encode_batch(model, np.zeros((0, 0)))
        assert out.shape == (0, 2)


class TestModelFile:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        model = ProjectionModel(
            weights=rng.normal(size=(5, 3)),
            thresholds=rng.normal(size=3),
            offset=rng.normal(size=5),
            scale=rng.uniform(0.5, 2.0, size=5),
        )
        path = tmp_path / "model.emh"
        save_projection(path, model)
        loaded = load_projection(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.thresholds, model.thresholds)
        np.testing.assert_array_equal(loaded.offset, model.offset)
        np.testing.assert_array_equal(loaded.scale, model.scale)
        save_projection(tmp_path / "again.emh", loaded)
        assert (tmp_path / "again.emh").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.emh"
        path.write_bytes(b"NOTMODEL" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_projection(path)

    @pytest.mark.parametrize("field", ["weights", "thresholds", "offset", "scale"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_refused(self, tmp_path, field, bad):
        """Built directly or read from a file, a model holds only finite numbers."""
        arrays = dict(weights=np.ones((2, 2)), thresholds=np.zeros(2),
                      offset=np.zeros(2), scale=np.ones(2))
        with pytest.raises(ValueError, match=f"non-finite value in {field}"):
            ProjectionModel(**{**arrays, field: np.where(np.arange(2) == 1, bad, arrays[field])})
        path = tmp_path / "model.emh"
        save_projection(path, ProjectionModel(**arrays))
        raw = bytearray(path.read_bytes())
        offsets = {"weights": 24, "thresholds": 56, "offset": 72, "scale": 88}
        raw[offsets[field] : offsets[field] + 8] = np.array([bad], "<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite value in {field}")):
            load_projection(path)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_features_or_bits_refused(self, shape):
        p, d = shape
        with pytest.raises(ValueError, match=re.escape(
            f"a model needs at least one feature and one bit, got weights of shape {shape}"
        )):
            ProjectionModel(
                weights=np.zeros(shape), thresholds=np.zeros(d),
                offset=np.zeros(p), scale=np.ones(p),
            )

    def test_truncation_detected(self, tmp_path):
        model = ProjectionModel(
            weights=np.ones((2, 2)), thresholds=np.zeros(2),
            offset=np.zeros(2), scale=np.ones(2),
        )
        path = tmp_path / "model.emh"
        save_projection(path, model)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_projection(path)
