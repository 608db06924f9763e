"""Tests for the hashing-energy system builders and training loops."""

import functools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emhash import energy_models, mean_field
from emhash.codec import round_codes
from emhash.dataio import (
    Dataset,
    full_similarity,
    group_labels,
    sample_similarity_columns,
)
from emhash.energy_models import (
    _ROW_BLOCK,
    _ksh_coupling,
    TrainConfig,
    batch_solve_shared,
    eigendecompose_shared,
    em_ksh_train,
    em_lfh_train,
    em_splh_train,
    ksh_anchor_system,
    ksh_tail_pass,
    ksh_tail_systems,
    lfh_system,
    splh_system,
    variational_weight,
)
from emhash.mean_field import (
    build_scale,
    extremal_eigenpairs,
    fit_linearization,
    make_system,
    renormalize_and_squash,
    solve_affine,
    solve_homogeneous,
    solve_row,
)
from oracles import (
    homogeneous_dense,
    ksh_energy,
    ksh_jacobi_sweep,
    ksh_sweep_row_systems,
    ksh_train_rebuilding_rows,
    lfh_energy,
    lfh_jacobi_sweep,
    lfh_system_pinned,
    solve_row_system,
    spectral_relaxation_codes,
    splh_energy,
    splh_factors,
    splh_system_dense,
    view_of,
)

LIN = fit_linearization(2.0)


def tail_pass(phi_anchors, view, lin, *, gain):
    """ksh_tail_pass on soft codes whose tail rows start out as NaN."""
    phi = np.full((view.n, phi_anchors.shape[1]), np.nan)
    phi[: view.m] = phi_anchors
    return ksh_tail_pass(phi, view, lin, gain=gain)


def random_full_similarity(rng, n):
    raw = rng.choice([-1, 1], size=(n, n))
    s = np.triu(raw) + np.triu(raw, 1).T
    np.fill_diagonal(s, 1)
    return s


def two_class_similarity(rng, n):
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1
    s = np.where(labels[:, None] == labels[None, :], 1, -1).astype(np.int8)
    return s, labels


def factored(sim_full):
    """``(groups, sigma, sizes)`` of a dense symmetric similarity."""
    groups, sigma = splh_factors(np.asarray(sim_full, dtype=np.int8))
    return groups, sigma, np.bincount(groups)


def expanded_direction(sim_full):
    """The unit direction em-splh solves for, on the label-set system, expanded to the points."""
    groups, sigma, sizes = factored(sim_full)
    return (solve_homogeneous(*splh_system(sigma, sizes, 2.0), LIN) / np.sqrt(sizes))[groups]


def ksh_system_oracle(phi_block, s, i, bits):
    """Direct summation of the anchor-system definition, term by term."""
    m = phi_block.shape[0]
    x = 2.0 * phi_block - 1.0
    d = phi_block.shape[1]
    a = np.zeros((d, d))
    b = np.zeros(d)
    for j in range(m):
        if j == i:
            continue
        for k in range(d):
            for kp in range(d):
                if k != kp:
                    a[k, kp] -= x[j, k] * x[j, kp]
            b[k] += bits * s[i, j] * x[j, k]
    return a, b


class TestSimilarityView:
    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="-1, 0 or"):
            view_of(np.array([[1, 2], [2, 1]]))

    def test_rejects_more_anchors_than_points(self):
        with pytest.raises(ValueError):
            view_of(np.ones((2, 3), dtype=np.int8))


class TestKshAnchorSystem:
    def test_hand_instance(self):
        """Two anchors, two bits, one similar pair: checked term by term."""
        phi = np.array([[1.0, 0.0], [1.0, 1.0]])  # 2*phi-1 = [[1,-1],[1,1]]
        view = view_of(np.array([[1, 1], [1, 1]], dtype=np.int8))
        sys = ksh_anchor_system(phi, view, 0, 2.0)
        np.testing.assert_array_equal(sys.a, [[0.0, -1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(sys.b, [2.0, 2.0])

    def test_single_bit_has_no_coupling(self):
        rng = np.random.default_rng(1)
        phi = rng.random((5, 1))
        view = view_of(random_full_similarity(rng, 5)[:, :5])
        sys = ksh_anchor_system(phi, view, 2, 2.0)
        np.testing.assert_array_equal(sys.a, [[0.0]])

    def test_unobserved_similarities_vanish_from_evidence(self):
        rng = np.random.default_rng(2)
        phi = rng.random((4, 3))
        view = view_of(np.zeros((4, 4), dtype=np.int8))
        sys = ksh_anchor_system(phi, view, 1, 2.0)
        np.testing.assert_array_equal(sys.b, np.zeros(3))
        assert np.max(np.abs(sys.a)) > 0.0  # coupling carries no similarity factor

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            phi = rng.random((m, d))
            s = rng.choice([-1, 0, 1], size=(m, m))
            np.fill_diagonal(s, 1)
            view = view_of(s)
            i = int(rng.integers(0, m))
            sys = ksh_anchor_system(phi, view, i, 2.0)
            a_ref, b_ref = ksh_system_oracle(phi, s, i, d)
            np.testing.assert_allclose(sys.a, a_ref, atol=1e-12)
            np.testing.assert_allclose(sys.b, b_ref, atol=1e-12)

    def test_index_out_of_range(self):
        phi = np.random.default_rng(0).random((3, 2))
        view = view_of(np.ones((3, 3), dtype=np.int8))
        with pytest.raises(IndexError):
            ksh_anchor_system(phi, view, 3, 2.0)


class TestKshTailSystems:
    def test_matrix_shared_by_every_tail_row(self):
        """Non-anchor rows never enter the sums, so one matrix serves all."""
        rng = np.random.default_rng(4)
        m, n, d = 6, 15, 4
        phi1 = rng.random((m, d))
        s = rng.choice([-1, 1], size=(n, m))
        x = 2.0 * phi1 - 1.0
        a = _ksh_coupling(x)
        b, scales = ksh_tail_systems(a, x, s[m:], 2.0, d)
        assert b.shape == (n - m, d) and scales.shape == (n - m,)
        # per-row direct builds reproduce the shared matrix and vectors
        for row in rng.choice(n - m, size=min(10, n - m), replace=False):
            a_ref = np.zeros((d, d))
            b_ref = np.zeros(d)
            for j in range(m):
                for k in range(d):
                    for kp in range(d):
                        if k != kp:
                            a_ref[k, kp] -= x[j, k] * x[j, kp]
                    b_ref[k] += d * s[m + row, j] * x[j, k]
            np.testing.assert_allclose(a, a_ref, atol=1e-12)
            np.testing.assert_allclose(b[row], b_ref, atol=1e-12)

    def test_orthogonal_sign_columns_zero_the_matrix(self):
        x = np.array([[1.0, 1.0], [1.0, -1.0]])  # orthogonal sign columns
        np.testing.assert_array_equal(_ksh_coupling(x), np.zeros((2, 2)))

    def test_rejects_rows_of_the_wrong_width(self):
        x = np.ones((3, 2))
        with pytest.raises(ValueError, match="3 anchors"):
            ksh_tail_systems(_ksh_coupling(x), x, np.ones((4, 2), dtype=np.int8), 2.0, 2)

    def test_gain_scales_the_evidence_only(self):
        rng = np.random.default_rng(38)
        x = 2.0 * rng.random((5, 3)) - 1.0
        s = rng.choice([-1, 0, 1], size=(7, 5))
        a = _ksh_coupling(x)
        b, scales = ksh_tail_systems(a, x, s, 2.0, 3.0)
        np.testing.assert_array_equal(b, 3.0 * (s @ x))
        np.testing.assert_array_equal(scales, build_scale(a, b, 2.0))


class TestBatchSolveShared:
    def test_diagonal_matrix_closed_form(self):
        rng = np.random.default_rng(5)
        d = 4
        a = np.diag([1.5, -0.5, 0.0, 2.0])
        eig = eigendecompose_shared(a)
        values, vectors = eig
        b = rng.normal(size=(3, d))
        scales = np.full(3, 4.0)
        out = batch_solve_shared(eig, b, scales, LIN)
        # for diagonal A the eigenbasis is the (sorted) standard basis, so the
        # solve is a per-coordinate division
        for i in range(3):
            perm = vectors.T @ b[i]
            coordwise = (
                2.0 * LIN.slope * values / (scales[i] - 2.0 * LIN.slope * values)
                * perm / scales[i]
            )
            np.testing.assert_allclose(out[i], vectors @ coordwise, atol=1e-12)
            direct = (
                2.0 * LIN.slope * np.diag(a) / (scales[i] - 2.0 * LIN.slope * np.diag(a))
                * b[i] / scales[i]
            )
            np.testing.assert_allclose(out[i], direct, atol=1e-12)

    def test_agrees_with_direct_solver(self):
        rng = np.random.default_rng(6)
        d = 8
        a = rng.normal(size=(d, d))
        a = np.triu(a) + np.triu(a, 1).T
        np.fill_diagonal(a, 0.0)
        eig = eigendecompose_shared(a)
        row_sums = np.abs(a).sum(axis=1)
        b = rng.normal(size=(20, d))
        scales = np.max(row_sums[None, :] + np.abs(b), axis=1) / 2.0
        out = batch_solve_shared(eig, b, scales, LIN)
        from emhash.mean_field import RowSystem

        for i in range(20):
            direct = solve_affine(RowSystem(a=a, b=b[i], scale=float(scales[i])), LIN)
            np.testing.assert_allclose(out[i], direct, atol=1e-8)

    def test_scalar_reduction(self):
        a = np.array([[1.3]])
        eig = eigendecompose_shared(a)
        b = np.array([[2.0]])
        scales = np.array([3.3])
        out = batch_solve_shared(eig, b, scales, LIN)
        expected = 2.0 * LIN.slope * 1.3 * 2.0 / (3.3 * (3.3 - 2.0 * LIN.slope * 1.3))
        assert out[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_flags_scale_that_fails_to_dominate(self):
        eig = eigendecompose_shared(np.diag([5.0, 1.0]))
        with pytest.raises(np.linalg.LinAlgError, match="dominate"):
            batch_solve_shared(eig, np.ones((1, 2)), np.array([0.5]), LIN)

    def test_errors_name_the_first_offending_row(self):
        eig = eigendecompose_shared(np.diag([5.0, 1.0]))
        with pytest.raises(np.linalg.LinAlgError, match="row 1:"):
            batch_solve_shared(eig, np.ones((3, 2)), np.array([20.0, 0.5, 0.5]), LIN)
        with pytest.raises(ValueError, match="row 2 has nonpositive"):
            batch_solve_shared(eig, np.ones((3, 2)), np.array([20.0, 20.0, 0.0]), LIN)


class TestEmKshTrain:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        s, _ = two_class_similarity(rng, 30)
        view = view_of(s[:, :12])
        cfg = TrainConfig(bits=4, sweeps=2, seed=9)
        first = em_ksh_train(view, cfg, LIN)
        second = em_ksh_train(view, cfg, LIN)
        np.testing.assert_array_equal(first, second)

    def test_all_zero_similarity_gives_uniform_marginals(self):
        view = view_of(np.zeros((10, 4), dtype=np.int8))
        cfg = TrainConfig(bits=3, sweeps=2, seed=0)
        phi = em_ksh_train(view, cfg, LIN)
        np.testing.assert_array_equal(phi, np.full((10, 3), 0.5))

    def test_separates_two_clusters(self):
        from emhash.codec import round_codes
        from emhash.evaluation import mean_average_precision

        rng = np.random.default_rng(9)
        labels = [i % 2 for i in range(60)]
        s = np.where(np.equal.outer(labels, labels), 1, -1).astype(np.int8)
        view = view_of(s[:, :30])
        cfg = TrainConfig(bits=8, sweeps=3, seed=2)
        phi = em_ksh_train(view, cfg, LIN)
        codes, _ = round_codes(phi)
        result = mean_average_precision(codes, labels, codes, labels, exclude_self=True)
        assert result.mean_ap == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("tail", [0, 10])
    def test_anchor_rows_reuse_one_gram_per_sweep(self, monkeypatch, tail):
        """No anchor row rebuilds its coupling from the other anchors."""
        calls = {"anchor_system": 0, "coupling": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(energy_models, "ksh_anchor_system",
                            counted("anchor_system", ksh_anchor_system))
        monkeypatch.setattr(energy_models, "_ksh_coupling", counted("coupling", _ksh_coupling))
        monkeypatch.setattr(energy_models, "solve_row", counted("solve", solve_row))
        rng = np.random.default_rng(44)
        m = 12
        labels = rng.integers(0, 3, size=m + tail)
        s = np.where(labels[:, None] == labels[None, :m], 1, -1).astype(np.int8)
        cfg = TrainConfig(bits=5, sweeps=3, seed=2)
        em_ksh_train(view_of(s), cfg, LIN)
        assert calls["anchor_system"] == 0
        assert calls["coupling"] <= 1  # the tail's shared coupling, if there is a tail
        assert calls["solve"] == cfg.sweeps * m


class TestSequentialBeatsParallel:
    """The paper's claim on the update schedule, at the benchmark's smoke shape.

    240 points in 12 classes, m = 60 anchors, 8 bits, 6 sweeps from one
    seeded start.  The sequential state is the trainer's own sweep; the
    parallel one solves every anchor row from the previous sweep's state
    (:func:`oracles.ksh_jacobi_sweep`, :func:`oracles.lfh_jacobi_sweep`).
    Each is scored by the energy of its rounded anchor codes against the
    anchors' similarity: ``ksh_energy`` for em-ksh, ``lfh_energy`` for
    em-lfh.  The sequential energy is not asserted to fall at every sweep:
    it rises slightly at some sweeps of these seeds, for both energies.
    """

    @staticmethod
    def energies(seed, sweep, jacobi_sweep, energy):
        rng = np.random.default_rng(seed)
        labels = [int(c) for c in rng.integers(0, 12, size=240)]
        view, _ = sample_similarity_columns(Dataset(np.zeros((240, 1)), labels), 60, seed)
        s = view.s[view.groups[:60]]
        sequential = np.random.default_rng(seed).random((60, 8))
        parallel = sequential.copy()
        energies = []
        for _ in range(6):
            sweep(sequential, view, LIN)
            parallel = jacobi_sweep(parallel, view, LIN)
            energies.append([energy(round_codes(phi)[0], s) for phi in (sequential, parallel)])
        return np.array(energies)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sequential_energy_stays_below_parallel(self, seed):
        energies = self.energies(seed, energy_models._ksh_sweep, ksh_jacobi_sweep, ksh_energy)
        assert np.all(energies[:, 0] < energies[:, 1])
        assert np.any(np.diff(energies[:, 1]) > 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_em_lfh_sequential_energy_stays_below_parallel(self, seed):
        energies = self.energies(seed, energy_models._lfh_sweep, lfh_jacobi_sweep, lfh_energy)
        assert np.all(energies[:, 0] < energies[:, 1])
        assert np.any(np.diff(energies[:, 1]) > 0)


class TestClosedFormBeatsRelaxation:
    """The closed-form em-ksh codes against the spectral relaxation of the same energy.

    240 points in 12 classes, m = 60 anchors, 3 sweeps of the trainer's own
    sequential sweep from its seeded start.  Each set of codes is scored by
    ``ksh_energy`` of its anchor codes against the anchors' similarity: the
    rounded em-ksh marginals, the signs of the similarity's top eigenvectors
    (:func:`oracles.spectral_relaxation_codes`) and seeded random codes.
    """

    @pytest.mark.parametrize("bits", [4, 8, 12])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_em_ksh_energy_is_below_relaxation_and_random_codes(self, seed, bits):
        rng = np.random.default_rng(seed)
        labels = [int(c) for c in rng.integers(0, 12, size=240)]
        view, _ = sample_similarity_columns(Dataset(np.zeros((240, 1)), labels), 60, seed)
        s = view.s[view.groups[:60]]
        phi = np.random.default_rng(seed).random((60, bits))
        for _ in range(3):
            energy_models._ksh_sweep(phi, view, LIN)
        closed_form = ksh_energy(round_codes(phi)[0], s)
        relaxation = ksh_energy(spectral_relaxation_codes(s, bits), s)
        signs = np.array([-1, 1], dtype=np.int8)
        random = ksh_energy(np.random.default_rng([seed, 1]).choice(signs, size=(60, bits)), s)
        assert closed_form < relaxation
        assert closed_form < random


def ksh_sweep_instance(seed, m, bits, half_range, silent_rows=0):
    """Anchor marginals and an m x m view whose first ``silent_rows`` rows observe nothing."""
    rng = np.random.default_rng(seed)
    s = rng.integers(-1, 2, size=(m, m)).astype(np.int8)
    s[:silent_rows] = 0
    return rng.random((m, bits)), s, half_range


@st.composite
def ksh_sweep_instances(draw):
    m, bits = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    phi = draw(arrays(np.float64, (m, bits), elements=st.floats(0.0, 1.0)))
    s = draw(arrays(np.int8, (m, m), elements=st.sampled_from([-1, 0, 1])))
    half_range = draw(st.one_of(st.sampled_from([0.05, 2.0, 2.5996]), st.floats(0.05, 2.5996)))
    return phi, s, half_range


def ksh_sweep_gaps(phi, s, half_range, sweeps=2):
    """Walk the downdated em-ksh sweeps from ``phi``, comparing each row's system
    with a fresh :func:`ksh_anchor_system` build on the current marginals.

    Returns one relative gap per row solved: the largest entry gap of the
    coupling, the evidence and the scale, each over the size of the terms it
    sums (see :class:`TestKshSweepMatchesRowBuild`).
    """
    view = view_of(s)
    lin = linearization(half_range)
    phi = phi.copy()
    bits = phi.shape[1]
    gaps = []
    gram_size = [0.0]

    def checking(a, b, lin, work):
        i = len(gaps) % view.m
        scale = build_scale(a, b, half_range)
        ref = ksh_anchor_system(phi, view, i, half_range)
        x = np.abs(2.0 * phi - 1.0)
        # The Gram's rounding stays relative to the largest Gram of this sweep.
        gram_size[0] = max(gram_size[0] if i else 0.0, np.max(np.sum(x * x, axis=0)))
        size_a = gram_size[0]
        size_b = bits * np.max(np.abs(s[i]) @ x)
        size_scale = (bits * size_a + size_b) / half_range
        row = []
        for got, want, size in ((a, ref.a, size_a), (b, ref.b, size_b),
                                (scale, ref.scale, size_scale)):
            gap = float(np.max(np.abs(np.subtract(got, want))))
            row.append(gap / size if size else (0.0 if gap == 0.0 else np.inf))
        gaps.append(max(row))
        return solve_row(a, b, lin, work)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy_models, "solve_row", checking)
        for _ in range(sweeps):
            energy_models._ksh_sweep(phi, view, lin)
    assert len(gaps) == sweeps * view.m
    return gaps


class TestKshSweepMatchesRowBuild:
    """The downdated em-ksh sweep against a from-scratch build of every row.

    Tolerances were fixed before measuring.  Each row system may differ from
    :func:`ksh_anchor_system` by 1e-12 of the size of the terms each entry
    sums: for the coupling, the largest ``max_k sum_j x_jk**2`` over all
    anchors that the sweep's Gram has held so far (its updates round relative
    to that, even after rows settle at 0.5); ``bits * max_k sum_j |s_ij|
    |x_jk|`` for the evidence; and ``(bits * coupling size + evidence size) /
    half_range`` for the scale.  Training must match the per-row rebuild to
    1e-12 on phi.
    """

    @settings(deadline=None)
    @given(ksh_sweep_instances())
    @example(ksh_sweep_instance(1, 6, 1, 2.0))  # 1x1 zero coupling: explicit sigmoid
    @example(ksh_sweep_instance(2, 1, 5, 2.0))  # one anchor: nothing to couple to
    @example(ksh_sweep_instance(3, 7, 4, 2.0, silent_rows=3))  # rows without evidence: 0.5
    @example(ksh_sweep_instance(4, 8, 6, 2.5996))
    @example(ksh_sweep_instance(5, 8, 6, 0.05))
    def test_every_row_system_matches_a_fresh_build(self, instance):
        assert max(ksh_sweep_gaps(*instance)) <= 1e-12

    def test_row_spanning_rounding_only_is_not_stretched(self):
        """m=8, bits=5, half_range 1.418, marginals mostly 0.  In the first sweep
        one row's evidence is the ~1e-11 residue of a cancelling sum, so its v'
        spans 3.9e-12; stretched onto the fit interval, that rounding put the two
        paths 1.0e-2 apart after sweep 1 and 2.9e-2 after sweep 2."""
        phi = np.zeros((8, 5))
        phi[0, 3], phi[0, 4], phi[5, 0] = 1.0, 0.5, 0.060944592497337635
        s = np.array([
            [1, 1, 0, 0, -1, 0, 1, 0], [1, -1, -1, 1, -1, 0, 1, 0],
            [-1, 1, 1, 0, 1, 1, -1, 0], [-1, 0, -1, -1, 0, 1, 1, 0],
            [-1, 1, -1, 1, 1, 1, -1, -1], [1, 0, 0, -1, 1, 0, 0, -1],
            [-1, 0, 0, 0, 1, 0, -1, 1], [0, 1, 0, -1, 0, 1, -1, 0],
        ], dtype=np.int8)
        view, lin = view_of(s), linearization(1.418)
        swept, rebuilt = phi.copy(), phi.copy()
        for _ in range(2):
            energy_models._ksh_sweep(swept, view, lin)
            for i in range(view.m):
                rebuilt[i] = solve_row_system(ksh_anchor_system(rebuilt, view, i, 1.418), lin)
            assert np.max(np.abs(swept - rebuilt)) <= 1e-12

    def test_anchor_sweep_shape_matches_per_row_rebuilds(self):
        rng = np.random.default_rng(43)
        n, m, bits = 3000, 800, 64
        labels = rng.integers(0, 12, size=n)
        s = np.where(labels[:, None] == labels[None, :m], 1, -1).astype(np.int8)
        view = view_of(s)
        cfg = TrainConfig(bits=bits, sweeps=2, seed=1)
        phi = em_ksh_train(view, cfg, LIN)
        expected = ksh_train_rebuilding_rows(view, cfg, LIN)
        assert np.max(np.abs(phi - expected)) <= 1e-12
        flips = round_codes(phi)[0] != round_codes(expected)[0]
        # A code may flip only where the reference sits at its bit's threshold.
        ties = np.abs(expected - expected.mean(axis=0)) <= 1e-12
        assert not np.any(flips & ~ties)


class TestSplh:
    def test_evidence_is_exactly_zero(self):
        """The label-set system has zero evidence, so it is a matrix and a scale, and
        its matrix is S on the groups weighted by the square roots of the group sizes."""
        # Tag sets {2} and {2, 3} meet the same points here, so share a group.
        s = full_similarity([0, 1, frozenset({2}), 1, None, frozenset({2, 3}), 0])
        groups, sigma, sizes = factored(s)
        a, scale = splh_system(sigma, sizes, 2.0)
        assert sizes.tolist() == [2, 2, 2, 1]
        np.testing.assert_array_equal(sigma[np.ix_(groups, groups)], s)
        np.testing.assert_allclose(a, sigma * np.sqrt(np.outer(sizes, sizes)), rtol=1e-15)
        assert scale == splh_system_dense(s, 2.0).scale

    def test_two_block_pattern_splits(self):
        """The homogeneous direction of a two-block similarity is block-constant."""
        labels = [0] * 5 + [1] * 7
        s = np.where(np.equal.outer(labels, labels), 1, -1)
        # dense eigensolver oracle: the top eigenvector is block-constant
        values, vectors = np.linalg.eigh(s.astype(float))
        top = vectors[:, -1]
        assert np.allclose(top[:5], top[0]) and np.allclose(top[5:], top[5])
        assert np.sign(top[0]) != np.sign(top[5])
        cfg = TrainConfig(bits=4, sweeps=1, seed=0)
        phi = em_splh_train(splh_factors(s), cfg, LIN)
        from emhash.codec import round_codes

        codes, _ = round_codes(phi)
        assert np.all(codes[:5] == codes[0]) and np.all(codes[5:] == codes[5])
        assert np.all(codes[0] == -codes[5])

    def test_homogeneous_path_composition(self):
        s = random_full_similarity(np.random.default_rng(37), 6)
        groups, sigma, sizes = factored(s)
        _, scale = splh_system(sigma, sizes, 2.0)
        v = expanded_direction(s)
        lead = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
        v = v if v[lead] > 0.0 else -v
        expected = renormalize_and_squash(v, np.zeros_like(v), scale, 2.0)
        phi = em_splh_train(splh_factors(s), TrainConfig(bits=3, sweeps=1, seed=0), LIN)
        for k in range(3):
            np.testing.assert_array_equal(phi[:, k], expected)

    @pytest.mark.parametrize("make", [
        lambda: random_full_similarity(np.random.default_rng(12), 8),
        lambda: random_full_similarity(np.random.default_rng(37), 6),
        lambda: full_similarity([2, 0, 1, 0, None, 2, 1, frozenset({0, 1}), 0]),
        lambda: full_similarity([0] * 5 + [1] * 7),
    ], ids=["random-8", "random-6", "mixed-labels", "two-classes"])
    def test_one_sign_rule_governs(self, monkeypatch, make):
        """em_splh_train fixes the sign: an eigensolver that returns every vector
        negated flips solve_homogeneous's answer but leaves the codes byte for byte."""
        s = make()
        _, sigma, sizes = factored(s)
        a, scale = splh_system(sigma, sizes, 2.0)
        cfg = TrainConfig(bits=3, sweeps=1, seed=0)
        direction = solve_homogeneous(a, scale, LIN)
        expected = em_splh_train(splh_factors(s), cfg, LIN)
        # Not constant, so codes from the unfixed, negated vector would differ.
        assert len(np.unique(expected[:, 0])) > 1
        calls = []

        def negated(matrix):
            calls.append(matrix.shape)
            values, vectors = extremal_eigenpairs(matrix)
            return values, -vectors

        monkeypatch.setattr(mean_field, "extremal_eigenpairs", negated)
        np.testing.assert_array_equal(solve_homogeneous(a, scale, LIN), -direction)
        assert em_splh_train(splh_factors(s), cfg, LIN).tobytes() == expected.tobytes()
        assert len(calls) == 2

    def test_all_bit_columns_identical(self):
        rng = np.random.default_rng(12)
        s = random_full_similarity(rng, 8)
        phi = em_splh_train(splh_factors(s), TrainConfig(bits=5, sweeps=1, seed=3), LIN)
        for k in range(1, 5):
            np.testing.assert_array_equal(phi[:, k], phi[:, 0])

    def test_independent_of_seed(self):
        rng = np.random.default_rng(13)
        s = random_full_similarity(rng, 7)
        a = em_splh_train(splh_factors(s), TrainConfig(bits=2, sweeps=1, seed=0), LIN)
        b = em_splh_train(splh_factors(s), TrainConfig(bits=2, sweeps=1, seed=999), LIN)
        np.testing.assert_array_equal(a, b)

    def test_single_bit_matches_enumeration_oracle(self):
        """Rounded pattern minimizes the correlation energy over all codes."""
        from emhash.codec import round_codes

        rng = np.random.default_rng(14)
        for n in (3, 4):
            for _ in range(5):
                s, _ = two_class_similarity(rng, n)
                phi = em_splh_train(splh_factors(s), TrainConfig(bits=1, sweeps=1, seed=0), LIN)
                codes, _ = round_codes(phi)
                best, best_energy = None, np.inf
                for key in range(2**n):
                    cand = np.array([1 if (key >> p) & 1 else -1 for p in range(n)]).reshape(n, 1)
                    energy = splh_energy(cand, s)
                    if energy < best_energy:
                        best, best_energy = cand, energy
                assert np.array_equal(codes, best) or np.array_equal(codes, -best)

    def test_rejects_zero_similarity(self):
        with pytest.raises(ValueError):
            em_splh_train(
                splh_factors(np.zeros((4, 4))), TrainConfig(bits=2, sweeps=1, seed=0), LIN
            )

    def test_dense_solve_size_guard(self):
        """The cap counts distinct rows (label sets), not points."""
        cfg = TrainConfig(bits=1, sweeps=1, seed=0)
        s = 2 * np.eye(5001, dtype=np.int8) - 1
        with pytest.raises(ValueError, match="at most 5000 distinct label sets, got 5001"):
            em_splh_train(splh_factors(s), cfg, LIN)
        phi = em_splh_train(splh_factors(np.ones((5001, 5001), dtype=np.int8)), cfg, LIN)
        np.testing.assert_array_equal(phi, 0.5)  # one group: a constant direction


# Tolerances of the Lanczos path against the dense oracle, fixed before
# measuring.  Both are relative to the infinity norm of S.  Eigenvalues: the
# stop rule bounds each Ritz residual by 1e-12, which bounds the eigenvalue
# error too; 1e-10 leaves a hundredfold margin for rounding.  Eigenvalues of
# the oracle within 1e-9 of the chosen one form its eigenspace, and the chosen
# vector may leave that eigenspace by at most 1e-8 plus the Davis-Kahan bound
# of a 1e-10 residual over the gap to the rest of the spectrum.
EIGENVALUE_TOL = 1e-10
CLUSTER_TOL = 1e-9


def recorded_eigh_shapes(monkeypatch) -> list:
    """Make ``np.linalg.eigh`` record the shape of every matrix it is given."""
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return shapes


CLASS_OR_NONE = st.one_of(st.none(), st.integers(0, 11))
TAGS_OR_NONE = st.one_of(st.none(), st.frozensets(st.integers(0, 5), min_size=1, max_size=3))


class TestSplhLanczos:
    """The two-eigenpair Lanczos path against the dense whole-spectrum rule."""

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(
        st.lists(CLASS_OR_NONE, min_size=2, max_size=60),
        st.lists(TAGS_OR_NONE, min_size=2, max_size=60),
        st.lists(st.one_of(CLASS_OR_NONE, TAGS_OR_NONE), min_size=2, max_size=60),
    ))
    @example([0, 0])  # one class: S is all ones, rank one
    @example([0, 1] * 6)  # balanced classes: lambda_max repeats
    @example(list(range(10)) * 6)  # ten balanced classes: lambda_min wins
    @example([None, 3])  # one labeled point
    @example([frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), None])
    def test_matches_dense_rule_on_label_lists(self, labels):
        assume(any(label is not None for label in labels))
        sim = full_similarity(labels)
        sys = splh_system_dense(sim, 2.0)
        norm = float(np.abs(sys.a).sum(axis=1).max())
        spectrum, vectors, chosen = homogeneous_dense(sys, LIN)
        values, _ = extremal_eigenpairs(sys.a)
        assert abs(values[0] - spectrum[0]) <= EIGENVALUE_TOL * norm
        assert abs(values[1] - spectrum[-1]) <= EIGENVALUE_TOL * norm

        # em-splh's label-set solve, expanded to the points, is the dense rule's vector.
        v = expanded_direction(sim)
        assert abs(float(v @ v) - 1.0) <= 1e-12
        assert abs(float(v @ sys.a @ v) - spectrum[chosen]) <= EIGENVALUE_TOL * norm
        cluster = np.abs(spectrum - spectrum[chosen]) <= CLUSTER_TOL * norm
        gap = np.min(np.abs(spectrum[~cluster] - spectrum[chosen]), initial=np.inf)
        bound = 1e-8 + EIGENVALUE_TOL * norm / gap
        if cluster.sum() == 1:
            u = vectors[:, chosen]
            assert min(np.linalg.norm(v - u), np.linalg.norm(v + u)) <= bound
        else:
            basis = vectors[:, cluster]
            assert np.linalg.norm(v - basis @ (basis.T @ v)) <= bound

    def test_splh_dense_shape_codes_match_dense_rule(self):
        """n = 1500 points in 10 classes, 32 bits."""
        labels = [int(c) for c in np.random.default_rng(1).integers(0, 10, 1500)]
        sim = full_similarity(labels)
        cfg = TrainConfig(bits=32, sweeps=1)
        codes, _ = round_codes(em_splh_train(splh_factors(sim), cfg, LIN))
        sys = splh_system_dense(sim, 2.0)
        _, vectors, chosen = homogeneous_dense(sys, LIN)
        column = renormalize_and_squash(vectors[:, chosen], sys.b, sys.scale, 2.0)
        expected, _ = round_codes(np.repeat(column[:, None], 32, axis=1))
        np.testing.assert_array_equal(codes, expected)
        assert 0 < np.count_nonzero(codes[:, 0] > 0) < 1500

    def test_em_splh_never_calls_dense_eigh(self, monkeypatch):
        """Lanczos on the 5-by-5 label-set system eigendecomposes only its k-by-k
        tridiagonals, k <= 5, never S itself."""
        shapes = recorded_eigh_shapes(monkeypatch)
        labels = [int(c) for c in np.random.default_rng(2).integers(0, 5, 200)]
        sim = full_similarity(labels)
        em_splh_train(splh_factors(sim), TrainConfig(bits=4, sweeps=1), LIN)
        assert shapes
        assert all(rows == cols <= 5 for rows, cols in shapes)
        shapes.clear()
        homogeneous_dense(splh_system_dense(sim, 2.0), LIN)  # the recorder sees a dense solve
        assert shapes == [(200, 200)]

    def test_long_run_is_thread_invariant_and_matches_dense(self, tmp_path, monkeypatch):
        """1500 points with 1-3 of 40 tags: a Lanczos run of at least 40 steps.

        The Ritz pairs come from LAPACK on the k-by-k tridiagonal; the bytes of
        the result must not depend on the OpenBLAS thread count.  At this size a
        BLAS matrix-vector product splits its sums by thread count, so the check
        covers the n-length products too.
        """
        rng = np.random.default_rng(1)
        labels = [
            frozenset(rng.choice(40, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(1500)
        ]
        system = splh_system_dense(full_similarity(labels), 2.0)
        matrix = tmp_path / "a.npy"
        np.save(matrix, system.a)
        source = str(Path(energy_models.__file__).resolve().parents[1])
        results = {}
        for threads in (1, 2, 4):
            out = tmp_path / f"pairs{threads}.bin"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-c",
                 "import sys, numpy as np\n"
                 "from emhash.mean_field import extremal_eigenpairs\n"
                 "values, vectors = extremal_eigenpairs(np.load(sys.argv[1]))\n"
                 "open(sys.argv[2], 'wb').write(values.tobytes() + vectors.tobytes())\n",
                 str(matrix), str(out)],
                env=env, check=True, capture_output=True,
            )
            results[threads] = out.read_bytes()
        assert results[1] == results[2] == results[4]

        steps = recorded_eigh_shapes(monkeypatch)
        values, vectors = extremal_eigenpairs(system.a)
        assert len(steps) >= 40
        assert results[1] == values.tobytes() + vectors.tobytes()
        norm = float(np.abs(system.a).sum(axis=1).max())
        spectrum, _, _ = homogeneous_dense(system, LIN)
        for j, expected in enumerate((spectrum[0], spectrum[-1])):
            assert abs(values[j] - expected) <= EIGENVALUE_TOL * norm
            assert abs(float(vectors[:, j] @ system.a @ vectors[:, j]) - expected) <= (
                EIGENVALUE_TOL * norm
            )

    def test_int8_input_matches_float_input(self):
        labels = [int(c) for c in np.random.default_rng(3).integers(0, 4, 50)]
        sim = full_similarity(labels)
        cfg = TrainConfig(bits=2, sweeps=1)
        np.testing.assert_array_equal(
            em_splh_train(splh_factors(sim), cfg, LIN),
            em_splh_train(splh_factors(sim.astype(float)), cfg, LIN),
        )
        _, sigma, sizes = factored(sim)
        int_a, int_scale = splh_system(sigma, sizes, 2.0)
        float_a, float_scale = splh_system(sigma.astype(float), sizes, 2.0)
        dense = splh_system_dense(sim.astype(float), 2.0)
        assert int_scale == float_scale == build_scale(dense.a, dense.b, 2.0)
        np.testing.assert_array_equal(int_a, float_a)

    def test_splh_system_checks_and_messages(self):
        ones = np.ones(2, dtype=np.intp)
        with pytest.raises(ValueError, match="must be square"):
            splh_system(np.ones((2, 3), dtype=np.int8), ones)
        with pytest.raises(ValueError, match="must be symmetric"):
            splh_system(np.array([[1, 1], [0, 1]], dtype=np.int8), ones)
        with pytest.raises(ValueError, match="entries must be -1, 0 or \\+1"):
            splh_system(np.array([[1, 2], [2, 1]], dtype=np.int8), ones)
        with pytest.raises(ValueError, match="entries must be -1, 0 or \\+1"):
            splh_system(np.array([[1.0, 0.5], [0.5, 1.0]]), ones)
        with pytest.raises(ValueError, match="half_range must be positive"):
            splh_system(np.eye(2, dtype=np.int8), ones, 0.0)
        for sizes in (np.array([1, 0]), np.array([1.0, 1.0]), np.ones(3, dtype=np.intp)):
            with pytest.raises(ValueError, match="positive integer group size"):
                splh_system(np.eye(2, dtype=np.int8), sizes)
        # The trainer checks the label-set matrix it is given.
        cfg, groups = TrainConfig(bits=1), np.arange(2)
        with pytest.raises(ValueError, match="must be square"):
            em_splh_train((groups, np.ones((2, 3), dtype=np.int8)), cfg, LIN)
        with pytest.raises(ValueError, match="must be symmetric"):
            em_splh_train((groups, np.array([[1, 1], [0, 1]], dtype=np.int8)), cfg, LIN)
        with pytest.raises(ValueError, match="entries must be -1, 0 or \\+1"):
            em_splh_train((groups, np.array([[1, 2], [2, 1]], dtype=np.int8)), cfg, LIN)


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInt8Blocks:
    """Training holds each similarity block once, as int8, and never point by point."""

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1, -128], [-128, 1]], dtype=np.int8),
            np.array([[1, 2], [2, 1]], dtype=np.int64),
            np.array([[1.0, 0.5], [0.5, 1.0]]),
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
        ],
        ids=["int8-min", "int64-two", "half", "nan"],
    )
    def test_both_similarity_checks_refuse_with_one_message(self, bad):
        # NaN is unequal to itself, so splh_system reports it as asymmetric.
        splh_message = "must be symmetric" if np.isnan(bad).any() else "^similarity entries must be"
        with pytest.raises(ValueError, match="^similarity entries must be -1, 0 or \\+1$"):
            view_of(bad)
        with pytest.raises(ValueError, match=splh_message):
            splh_system(bad, np.ones(2, dtype=np.intp))
        with pytest.raises(ValueError, match=splh_message):
            em_splh_train(splh_factors(bad), TrainConfig(bits=1), LIN)

    def test_bool_block_reads_as_zero_and_one(self):
        view = view_of(np.array([[True], [False], [True]]))
        assert view.s.dtype == np.int8 and view.s.shape == (2, 1)
        np.testing.assert_array_equal(view.s[view.groups], [[1], [0], [1]])

    def test_sampling_and_training_stay_under_a_quarter_of_n_by_m(self):
        """Anchor sampling and em-ksh training on 8000 class-labelled points
        against 200 anchors (2 bits, so the 128 KB of soft codes stay small)
        allocate under a quarter of the 1.6 MB a points-by-anchors int8 block
        would take: the view is 8000 group ids and a 16-by-200 block."""
        n, m = 8000, 200
        labels = [int(c) for c in np.random.default_rng(8).integers(0, 16, size=n)]
        dataset = Dataset(np.zeros((n, 1)), labels)
        cfg = TrainConfig(bits=2, sweeps=1, seed=1)

        def sample_and_train():
            view, _ = sample_similarity_columns(dataset, m, seed=1)
            return view, em_ksh_train(view, cfg, LIN)

        sample_and_train()  # first calls allocate their caches outside the measurement
        (view, phi), peak = traced_peak(sample_and_train)
        assert view.s.shape == (16, m) and view.s.dtype == np.int8
        assert phi.shape == (n, 2)
        assert peak < 0.25 * n * m

    def test_splh_system_holds_the_label_set_matrix(self):
        """The system em-splh solves is u-by-u whatever the point count."""
        for n in (40, 4000):
            labels = [int(c) for c in np.random.default_rng(9).integers(0, 4, n)]
            groups, distinct = group_labels(labels)
            a, _ = splh_system(full_similarity(distinct), np.bincount(groups))
            assert a.shape == (4, 4) and a.dtype == np.float64

    def test_em_splh_train_peak_at_1500_points(self):
        """Training on the factored similarity of 1500 points widens nothing
        n-by-n to float64."""
        labels = [int(c) for c in np.random.default_rng(10).integers(0, 10, 1500)]
        sim = splh_factors(full_similarity(labels))
        cfg = TrainConfig(bits=32, sweeps=1)
        phi, peak = traced_peak(em_splh_train, sim, cfg, LIN)
        assert len(set(map(tuple, round_codes(phi)[0]))) > 1
        assert peak <= 4 * 2**20


class TestSplhAtScale:
    """em-splh on 50,000 class-labelled points, ten times the old n-by-n budget."""

    # Class sizes 2750, 3250, ..., 7250: unequal, so the chosen eigenvector
    # is not constant, and each a multiple of 50, so a 1-in-50 subsample
    # keeps every class's share.
    SIZES = 2750 + 500 * np.arange(10)

    def labels(self):
        classes = np.repeat(np.arange(10), self.SIZES)
        return np.random.default_rng(3).permutation(classes)

    def test_trains_within_time_and_memory_and_matches_the_dense_subsample(self):
        classes = self.labels()
        labels = classes.tolist()
        cfg = TrainConfig(bits=4)

        def train():
            groups, distinct = group_labels(labels)
            return em_splh_train((groups, full_similarity(distinct)), cfg, LIN)

        train()
        start = time.perf_counter()
        phi, peak = traced_peak(train)
        elapsed = time.perf_counter() - start
        # Bounds: 1 s (6 ms measured on a 2-vCPU machine) and 4 MB (2.0 MB measured), where
        # the soft codes take 1.6 MB and an n-by-n int8 matrix would take 2.5 GB.
        assert elapsed < 1.0
        assert peak < 4 * 2**20
        codes, _ = round_codes(phi)
        assert 0 < np.count_nonzero(codes[:, 0] > 0) < len(labels)

        # The first 1/50 of each class, in point order: the same class shares,
        # so the same soft codes, and the same first point for the sign.
        keep = np.sort(np.concatenate([
            np.flatnonzero(classes == c)[: size // 50] for c, size in enumerate(self.SIZES)
        ]))
        assert keep[0] == 0 and len(keep) == 1000
        sys = splh_system_dense(full_similarity(classes[keep].tolist()), LIN.half_range)
        _, vectors, chosen = homogeneous_dense(sys, LIN)
        column = renormalize_and_squash(vectors[:, chosen], sys.b, sys.scale, LIN.half_range)
        np.testing.assert_allclose(phi[keep, 0], column, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(codes[keep], round_codes(np.repeat(column[:, None], 4, 1))[0])


class TestLfh:
    def test_weight_limit_at_zero(self):
        assert variational_weight(0.0) == pytest.approx(-0.125, abs=1e-12)
        assert variational_weight(1e-9) == pytest.approx(-0.125, abs=1e-6)

    def test_hand_instance_matches_direct_summation(self):
        """Two points, two bits: every term computed independently."""
        phi = np.array([[0.8, 0.3], [0.6, 0.9]])
        view = view_of(np.array([[1, -1], [-1, 1]], dtype=np.int8))
        sys = lfh_system(phi, view, 0, 2.0)
        x = 2.0 * phi - 1.0
        pivot = abs(float(x[0] @ x[1]))
        weight = -(1.0 / (1.0 + np.exp(-pivot)) - 0.5) / (2.0 * pivot)
        a_ref = np.zeros((2, 2))
        for k in range(2):
            for kp in range(2):
                if k != kp:
                    a_ref[k, kp] = 4.0 * weight * x[1, k] * x[1, kp]
        b_ref = np.array([-x[1, 0], -x[1, 1]])
        np.testing.assert_allclose(sys.a, a_ref, atol=1e-12)
        np.testing.assert_allclose(sys.b, b_ref, atol=1e-12)
        # frozen values from the independent reference run
        np.testing.assert_allclose(sys.a[0, 1], -0.0797344, atol=1e-7)
        np.testing.assert_allclose(sys.b, [-0.2, -0.8], atol=1e-12)

    def test_pinned_pivot_reduces_to_scaled_ksh(self):
        """Pivots locked at the code length reproduce the squared-fit system
        divided by the code length, and the solved rows coincide."""
        rng = np.random.default_rng(15)
        m, bits = 10, 32
        phi = rng.random((m, bits))
        s = random_full_similarity(rng, m)
        view = view_of(s)
        i = 4
        ksh = ksh_anchor_system(phi, view, i, 2.0)
        lfh = lfh_system_pinned(phi, view, i, 2.0, float(bits))
        mask = ksh.a != 0.0
        np.testing.assert_allclose(lfh.a[mask] * bits / ksh.a[mask], 1.0, atol=1e-10)
        np.testing.assert_allclose(lfh.b * bits, ksh.b, rtol=1e-12)
        assert ksh.scale / lfh.scale == pytest.approx(bits, rel=1e-10)
        from emhash.mean_field import renormalize_and_squash

        row_ksh = renormalize_and_squash(solve_affine(ksh, LIN), ksh.b, ksh.scale, 2.0)
        row_lfh = renormalize_and_squash(solve_affine(lfh, LIN), lfh.b, lfh.scale, 2.0)
        np.testing.assert_allclose(row_ksh, row_lfh, atol=1e-9)

    def test_training_separates_clusters_and_is_deterministic(self):
        from emhash.codec import round_codes
        from emhash.evaluation import mean_average_precision

        labels = [i % 3 for i in range(45)]
        s = np.where(np.equal.outer(labels, labels), 1, -1).astype(np.int8)
        view = view_of(s[:, :18])
        cfg = TrainConfig(bits=8, sweeps=3, seed=4)
        phi = em_lfh_train(view, cfg, LIN)
        np.testing.assert_array_equal(phi, em_lfh_train(view, cfg, LIN))
        codes, _ = round_codes(phi)
        result = mean_average_precision(codes, labels, codes, labels, exclude_self=True)
        assert result.mean_ap > 0.95

    def test_tail_rows_take_the_shared_tail(self):
        """Past the anchors, em-lfh is the shared tail at gain 2 on its anchor rows."""
        rng = np.random.default_rng(39)
        labels = rng.integers(0, 4, size=80)
        s = np.where(labels[:, None] == labels[None, :20], 1, -1).astype(np.int8)
        view = view_of(s)
        phi = em_lfh_train(view, TrainConfig(bits=6, sweeps=2, seed=1), LIN)
        np.testing.assert_array_equal(phi[20:], tail_pass(phi[:20], view, LIN, gain=2.0))

    @pytest.mark.parametrize("tail", [0, 10, 3 * _ROW_BLOCK])
    def test_solves_anchor_rows_only_one_system_each(self, monkeypatch, tail):
        """Only the anchor sweeps go through the row kernel."""
        calls = []

        def counting(a, b, lin, work):
            calls.append(len(b))
            return solve_row(a, b, lin, work)

        monkeypatch.setattr(energy_models, "solve_row", counting)
        rng = np.random.default_rng(40)
        m = 12
        labels = rng.integers(0, 3, size=m + tail)
        s = np.where(labels[:, None] == labels[None, :m], 1, -1).astype(np.int8)
        cfg = TrainConfig(bits=5, sweeps=3, seed=2)
        em_lfh_train(view_of(s), cfg, LIN)
        assert len(calls) == cfg.sweeps * m


class TestEnergies:
    def test_lfh_energy_matches_pair_sum(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            n, d = 5, 3
            codes = rng.choice([-1, 1], size=(n, d))
            s = rng.choice([-1, 0, 1], size=(n, n))
            s = np.triu(s) + np.triu(s, 1).T
            ref = sum(
                np.log1p(np.exp(-s[i, j] * float(codes[i] @ codes[j])))
                for i in range(n) for j in range(i + 1, n) if s[i, j] != 0
            )
            assert lfh_energy(codes, s) == pytest.approx(ref, abs=1e-12)

    def test_variational_weight_bounds_the_lfh_pair_loss(self):
        """The pivot scale of ``lfh_system``: with the curvature of
        ``variational_weight``, the pair loss ``log(1 + exp(-t))`` lies under
        its Jaakkola-Jordan bound at pivot xi, touching it at t = +-xi.  So
        pivots at the raw code inner products make the bound equal
        ``lfh_energy``."""
        t = np.linspace(-8.0, 8.0, 161)
        for xi in (0.0, 0.5, 1.0, 3.0, 8.0):
            bound = (np.logaddexp(0.0, -xi) - 0.5 * (t - xi)
                     - variational_weight(xi) * (t**2 - xi**2))
            assert np.all(np.logaddexp(0.0, -t) <= bound + 1e-12)
            for touch in (-xi, xi):
                k = np.argmin(np.abs(t - touch))
                assert bound[k] == pytest.approx(np.logaddexp(0.0, -t[k]), abs=1e-12)
        rng = np.random.default_rng(19)
        codes = rng.choice([-1, 1], size=(6, 8))
        s = rng.choice([-1, 0, 1], size=(6, 6))
        s = np.triu(s, 1) + np.triu(s, 1).T
        pair = s * (codes @ codes.T).astype(float)
        xi = np.abs(pair)
        bound = (np.logaddexp(0.0, -xi) - 0.5 * (pair - xi)
                 - variational_weight(xi) * (pair**2 - xi**2)) * (s != 0)
        assert lfh_energy(codes, s) == pytest.approx(0.5 * bound.sum(), abs=1e-12)

    def test_perfect_fit_is_zero(self):
        codes = np.tile([1, -1, 1], (4, 1))
        s = np.ones((4, 4))
        assert ksh_energy(codes, s) == 0.0

    def test_single_pair_arithmetic(self):
        codes = np.array([[1], [-1]])
        s = np.array([[1, 1], [1, 1]])
        assert ksh_energy(codes, s) == 1.0  # ((-1) - 1)^2 / 4

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n, d = 4, 2
            codes = rng.choice([-1, 1], size=(n, d))
            s = rng.choice([-1, 0, 1], size=(n, n))
            s = np.triu(s) + np.triu(s, 1).T
            np.fill_diagonal(s, 1)
            ksh_ref = 0.0
            splh_ref = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    inner = float(codes[i] @ codes[j])
                    if s[i, j] != 0:
                        ksh_ref += 0.25 * (inner - d * s[i, j]) ** 2
                    splh_ref += -0.5 * s[i, j] * inner
            assert ksh_energy(codes, s) == pytest.approx(ksh_ref, abs=1e-12)
            assert splh_energy(codes, s) == pytest.approx(splh_ref, abs=1e-12)

    def test_constant_rows_correlation_energy(self):
        n, d = 6, 3
        codes = np.tile([1, -1, 1], (n, 1))
        s = np.ones((n, n))
        assert splh_energy(codes, s) == -0.5 * d * n * (n - 1) / 2

    def test_single_bit_energies_differ_by_constant(self):
        """At one bit the two energies agree up to the pair count."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            codes = rng.choice([-1, 1], size=(n, 1))
            s = random_full_similarity(rng, n)
            offset = n * (n - 1) / 4.0
            assert ksh_energy(codes, s) == pytest.approx(
                splh_energy(codes, s) + offset, abs=1e-12
            )

    def test_rejects_non_sign_codes(self):
        with pytest.raises(ValueError):
            ksh_energy(np.array([[0.5, 1.0]]), np.eye(1))


class TestSingleBitReduction:
    def test_ksh_and_splh_sign_patterns_coincide(self):
        """At one bit both energies share their minimizing sign structure."""
        from emhash.codec import round_codes

        rng = np.random.default_rng(18)
        for seed in range(6):
            n = int(rng.integers(8, 33))
            s, _ = two_class_similarity(rng, n)
            view = view_of(s)
            cfg = TrainConfig(bits=1, sweeps=3, seed=seed)
            ksh_codes, _ = round_codes(em_ksh_train(view, cfg, LIN))
            splh_codes, _ = round_codes(em_splh_train(splh_factors(s), cfg, LIN))
            assert np.array_equal(ksh_codes, splh_codes) or np.array_equal(
                ksh_codes, -splh_codes
            )

    def test_single_bit_anchor_evidence_matches_correlation_argument(self):
        rng = np.random.default_rng(19)
        n = 7
        s, _ = two_class_similarity(rng, n)
        phi = rng.random((n, 1))
        view = view_of(s)
        x = (2.0 * phi - 1.0)[:, 0]
        for i in range(n):
            sys = ksh_anchor_system(phi, view, i, 2.0)
            expected = sum(s[i, j] * x[j] for j in range(n) if j != i)
            assert sys.b[0] == pytest.approx(1.0 * expected, abs=1e-12)


class TestTailPass:
    def test_uninformative_tail_rows(self):
        """Tail rows with no observed similarity settle at 0.5."""
        rng = np.random.default_rng(20)
        m, n, d = 4, 9, 3
        phi1 = rng.random((m, d))
        s = rng.choice([-1, 1], size=(n, m))
        s[m + 1, :] = 0
        view = view_of(s)
        out = tail_pass(phi1, view, LIN, gain=float(d))
        np.testing.assert_array_equal(out[1], np.full(d, 0.5))
        assert not np.all(out[0] == 0.5)

    def test_default_gain_is_the_code_length(self):
        """Past the anchors, em-ksh is the shared tail at gain = code length."""
        rng = np.random.default_rng(41)
        view = view_of(rng.choice([-1, 0, 1], size=(30, 5)))
        phi = em_ksh_train(view, TrainConfig(bits=7, sweeps=2, seed=1), LIN)
        np.testing.assert_array_equal(phi[5:], tail_pass(phi[:5], view, LIN, gain=7.0))

    def test_writes_the_tail_rows_in_place(self):
        """The tail is phi's own rows past the anchors; the anchor rows are left alone."""
        rng = np.random.default_rng(43)
        view = view_of(rng.choice([-1, 0, 1], size=(30, 5)).astype(np.int8))
        phi = np.full((30, 7), np.nan)
        phi[:5] = rng.random((5, 7))
        anchors = phi[:5].copy()
        out = ksh_tail_pass(phi, view, LIN, gain=7.0)
        assert np.shares_memory(out, phi) and out.shape == (25, 7)
        np.testing.assert_array_equal(phi[5:], out)
        np.testing.assert_array_equal(phi[:5], anchors)
        assert not np.isnan(out).any()
        with pytest.raises(ValueError, match="exactly 30 rows"):
            ksh_tail_pass(phi[:5], view, LIN, gain=7.0)


@functools.lru_cache(maxsize=None)
def linearization(half_range):
    return fit_linearization(half_range)


def tail_instance(seed, m, bits, n_tail, half_range, phi_value=None, silent_rows=0):
    """Anchor marginals and an (m + n_tail) x m view whose first ``silent_rows``
    tail rows observe nothing."""
    rng = np.random.default_rng(seed)
    phi = rng.random((m, bits)) if phi_value is None else np.full((m, bits), phi_value)
    s = rng.integers(-1, 2, size=(m + n_tail, m)).astype(np.int8)
    s[m : m + silent_rows] = 0
    return phi, s, half_range


@st.composite
def tail_instances(draw):
    m, bits, n_tail = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 10))
    # Marginals on a grid of sixteenths.  Arbitrary floats can make two entries
    # of v' differ by 1e-9, which the stretch onto the fit interval magnifies
    # into a 1e-8 gap between any two float64 solvers (phi = [1e-9, 0, 0]).
    grid = st.sampled_from(list(np.linspace(0.0, 1.0, 17)))
    phi = draw(arrays(np.float64, (m, bits), elements=grid))
    s = draw(arrays(np.int8, (m + n_tail, m), elements=st.sampled_from([-1, 0, 1])))
    half_range = draw(st.one_of(st.sampled_from([0.05, 2.0, 2.5996]), st.floats(0.05, 2.5996)))
    return phi, s, half_range


def assert_tail_matches_rows(phi, s, half_range, atol):
    """ksh_tail_pass against the per-row dispatcher, one tail row at a time."""
    view = view_of(s)
    lin = linearization(half_range)
    x = 2.0 * phi - 1.0
    a = _ksh_coupling(x)
    b, scales = ksh_tail_systems(a, x, s[view.m :], half_range, phi.shape[1])
    out = tail_pass(phi, view, lin, gain=phi.shape[1])
    assert out.shape == b.shape
    for i, row in enumerate(b):
        assert scales[i] == build_scale(a, row, half_range)
        if not s[view.m + i].any():
            np.testing.assert_array_equal(out[i], 0.5)
        expected = solve_row_system(make_system(a, row, half_range), lin)
        np.testing.assert_allclose(out[i], expected, rtol=0.0, atol=atol)


class TestTailMatchesRowSolve:
    """The stacked tail against ``solve_row_system`` on each row.

    Tolerances were fixed from float64 before measuring: the eigenbasis and
    the Cholesky solve differ by about eps / (1 - 2*slope*half_range), which
    is 1.2e-11 at half_range 2.5996 and 1.4e-15 at 2.0.
    """

    @settings(deadline=None)
    @given(tail_instances())
    @example(tail_instance(1, 4, 1, 6, 2.0))  # 1x1 zero coupling: explicit sigmoid
    @example(tail_instance(2, 5, 2, 8, 2.0))
    @example(tail_instance(3, 4, 5, 8, 2.0, phi_value=0.5))  # zero coupling, no evidence
    @example(tail_instance(4, 3, 4, _ROW_BLOCK + 10, 2.0, silent_rows=_ROW_BLOCK))  # empty stack
    @example(tail_instance(5, 6, 6, 10, 2.5996))
    @example(tail_instance(6, 6, 6, 10, 0.05))
    def test_small_instances(self, instance):
        assert_tail_matches_rows(*instance, atol=1e-10)

    def test_several_row_blocks_of_class_labels(self):
        rng = np.random.default_rng(31)
        n, m, bits = 3000, 200, 32
        labels = rng.integers(0, 16, size=n)
        s = np.where(labels[:, None] == labels[None, :m], 1, -1).astype(np.int8)
        s[m:][rng.random(n - m) < 0.05] = 0  # unlabeled tail points
        assert_tail_matches_rows(rng.random((m, bits)), s, 2.0, atol=1e-12)


def assert_lfh_tail_matches_rows(phi, s, half_range, atol):
    """The em-lfh tail against the per-row dispatcher on each row's lfh system
    pivoted at its uninformative marginals (its x is 0, so every xi is 0)."""
    view = view_of(s)
    lin = linearization(half_range)
    out = tail_pass(phi, view, lin, gain=2.0)
    assert out.shape == (view.n - view.m, phi.shape[1])
    for i in range(view.n - view.m):
        sys = lfh_system_pinned(phi, view, view.m + i, half_range, 0.0)
        expected = solve_row_system(sys, lin)
        np.testing.assert_allclose(out[i], expected, rtol=0.0, atol=atol)


class TestLfhTailMatchesRowSolve:
    """The em-lfh tail (shared eigenbasis, gain 2) against one lfh system per row.

    Tolerances were fixed before measuring, as in
    :class:`TestTailMatchesRowSolve`: the doubled system has the same
    solution, so only the eigenbasis-versus-Cholesky gap remains.
    """

    @settings(deadline=None)
    @given(tail_instances())
    @example(tail_instance(1, 4, 1, 6, 2.0))  # 1x1 zero coupling: explicit sigmoid
    @example(tail_instance(2, 5, 2, 8, 2.0))
    @example(tail_instance(3, 4, 5, 8, 2.0, phi_value=0.5))  # zero coupling, no evidence
    @example(tail_instance(4, 3, 4, _ROW_BLOCK + 10, 2.0, silent_rows=_ROW_BLOCK))  # empty stack
    @example(tail_instance(5, 6, 6, 10, 2.5996))
    @example(tail_instance(6, 6, 6, 10, 0.05))
    def test_small_instances(self, instance):
        assert_lfh_tail_matches_rows(*instance, atol=1e-10)

    def test_several_row_blocks_of_class_labels(self):
        rng = np.random.default_rng(42)
        n, m, bits = 3000, 200, 32
        labels = rng.integers(0, 16, size=n)
        s = np.where(labels[:, None] == labels[None, :m], 1, -1).astype(np.int8)
        s[m:][rng.random(n - m) < 0.05] = 0  # unlabeled tail points
        assert_lfh_tail_matches_rows(rng.random((m, bits)), s, 2.0, atol=1e-12)


class TestSweepsMatchCheckedRows:
    """Both anchor sweeps, which build every row in shared buffers and hand it
    unchecked to the row kernel, against a checked ``RowSystem`` per row.

    Bit for bit: the sweeps run the same arithmetic on the same values.  Each
    instance runs two sweeps, so the second sees the first's rows.
    """

    @settings(deadline=None)
    @given(ksh_sweep_instances())
    @example(ksh_sweep_instance(1, 6, 1, 2.0))
    @example(ksh_sweep_instance(2, 1, 5, 2.0))
    @example(ksh_sweep_instance(3, 7, 4, 2.0, silent_rows=3))
    @example(ksh_sweep_instance(4, 40, 64, 2.0))
    def test_ksh_sweep(self, instance):
        phi, s, half_range = instance
        view, lin = view_of(s), linearization(half_range)
        swept, checked = phi.copy(), phi.copy()
        for _ in range(2):
            energy_models._ksh_sweep(swept, view, lin)
            ksh_sweep_row_systems(checked, view, lin)
            assert swept.tobytes() == checked.tobytes()

    @settings(deadline=None)
    @given(ksh_sweep_instances())
    @example(ksh_sweep_instance(1, 6, 1, 2.0))
    @example(ksh_sweep_instance(2, 1, 5, 2.0))
    @example(ksh_sweep_instance(3, 7, 4, 2.0, silent_rows=3))
    @example(ksh_sweep_instance(4, 40, 16, 2.0))
    def test_lfh_sweep(self, instance):
        phi, s, half_range = instance
        view, lin = view_of(s), linearization(half_range)
        swept, checked = phi.copy(), phi.copy()
        for _ in range(2):
            energy_models._lfh_sweep(swept, view, lin)
            for i in range(view.m):
                checked[i] = solve_row_system(lfh_system(checked, view, i, half_range), lin)
            assert swept.tobytes() == checked.tobytes()

    @pytest.mark.parametrize("train", [em_ksh_train, em_lfh_train])
    def test_residual_breach_inside_a_sweep_raises(self, monkeypatch, train):
        """A solve whose residual exceeds RESIDUAL_TOL stops training."""
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda lhs, rhs: solve(lhs, rhs) * (1.0 + 1e-3))
        rng = np.random.default_rng(45)
        labels = rng.integers(0, 3, size=30)
        s = np.where(labels[:, None] == labels[None, :12], 1, -1).astype(np.int8)
        with pytest.raises(np.linalg.LinAlgError, match="^affine solve residual .* exceeds"):
            train(view_of(s), TrainConfig(bits=5, sweeps=1, seed=2), LIN)
