"""Tests for the hashing-energy system builders and training loops."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emhash.energy_models import (
    _ROW_BLOCK,
    SimilarityView,
    TrainConfig,
    batch_solve_shared,
    eigendecompose_shared,
    em_ksh_train,
    em_lfh_train,
    em_splh_train,
    ksh_anchor_system,
    ksh_energy,
    ksh_tail_pass,
    ksh_tail_systems,
    lfh_system,
    splh_energy,
    splh_system,
    variational_weight,
)
from emhash.mean_field import (
    build_scale,
    fit_linearization,
    make_system,
    solve_affine,
    solve_row_system,
)

LIN = fit_linearization(2.0)


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
            SimilarityView(s=np.array([[1, 2], [2, 1]]))

    def test_rejects_more_anchors_than_points(self):
        with pytest.raises(ValueError):
            SimilarityView(s=np.ones((2, 3), dtype=np.int8))


class TestKshAnchorSystem:
    def test_hand_instance(self):
        """Two anchors, two bits, one similar pair: checked term by term."""
        phi = np.array([[1.0, 0.0], [1.0, 1.0]])  # 2*phi-1 = [[1,-1],[1,1]]
        view = SimilarityView(s=np.array([[1, 1], [1, 1]], dtype=np.int8))
        sys = ksh_anchor_system(phi, view, 0, 2.0)
        np.testing.assert_array_equal(sys.a, [[0.0, -1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(sys.b, [2.0, 2.0])

    def test_single_bit_has_no_coupling(self):
        rng = np.random.default_rng(1)
        phi = rng.random((5, 1))
        view = SimilarityView(s=random_full_similarity(rng, 5)[:, :5])
        sys = ksh_anchor_system(phi, view, 2, 2.0)
        np.testing.assert_array_equal(sys.a, [[0.0]])

    def test_unobserved_similarities_vanish_from_evidence(self):
        rng = np.random.default_rng(2)
        phi = rng.random((4, 3))
        view = SimilarityView(s=np.zeros((4, 4), dtype=np.int8))
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
            view = SimilarityView(s=s)
            i = int(rng.integers(0, m))
            sys = ksh_anchor_system(phi, view, i, 2.0)
            a_ref, b_ref = ksh_system_oracle(phi, s, i, d)
            np.testing.assert_allclose(sys.a, a_ref, atol=1e-12)
            np.testing.assert_allclose(sys.b, b_ref, atol=1e-12)

    def test_index_out_of_range(self):
        phi = np.random.default_rng(0).random((3, 2))
        view = SimilarityView(s=np.ones((3, 3), dtype=np.int8))
        with pytest.raises(IndexError):
            ksh_anchor_system(phi, view, 3, 2.0)


class TestKshTailSystems:
    def test_matrix_shared_by_every_tail_row(self):
        """Non-anchor rows never enter the sums, so one matrix serves all."""
        rng = np.random.default_rng(4)
        m, n, d = 6, 15, 4
        phi1 = rng.random((m, d))
        s = rng.choice([-1, 1], size=(n, m))
        view = SimilarityView(s=s)
        a, b, scales = ksh_tail_systems(phi1, view, 2.0)
        assert b.shape == (n - m, d) and scales.shape == (n - m,)
        # per-row direct builds reproduce the shared matrix and vectors
        x = 2.0 * phi1 - 1.0
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
        phi1 = np.array([[1.0, 1.0], [1.0, 0.0]])  # x columns (1,1) and (1,-1)
        view = SimilarityView(s=np.ones((4, 2), dtype=np.int8))
        a, _, _ = ksh_tail_systems(phi1, view, 2.0)
        np.testing.assert_array_equal(a, np.zeros((2, 2)))


class TestBatchSolveShared:
    def test_diagonal_matrix_closed_form(self):
        rng = np.random.default_rng(5)
        d = 4
        a = np.diag([1.5, -0.5, 0.0, 2.0])
        eig = eigendecompose_shared(a)
        b = rng.normal(size=(3, d))
        scales = np.full(3, 4.0)
        out = batch_solve_shared(eig, b, scales, LIN)
        # for diagonal A the eigenbasis is the (sorted) standard basis, so the
        # solve is a per-coordinate division
        for i in range(3):
            perm = eig.vectors.T @ b[i]
            coordwise = (
                2.0 * LIN.slope * eig.values / (scales[i] - 2.0 * LIN.slope * eig.values)
                * perm / scales[i]
            )
            np.testing.assert_allclose(out[i], eig.vectors @ coordwise, atol=1e-12)
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
        view = SimilarityView(s=s[:, :12])
        cfg = TrainConfig(bits=4, anchors=12, sweeps=2, seed=9)
        first = em_ksh_train(view, cfg, LIN)
        second = em_ksh_train(view, cfg, LIN)
        np.testing.assert_array_equal(first, second)

    def test_all_zero_similarity_gives_uniform_marginals(self):
        view = SimilarityView(s=np.zeros((10, 4), dtype=np.int8))
        cfg = TrainConfig(bits=3, anchors=4, sweeps=2, seed=0)
        phi = em_ksh_train(view, cfg, LIN)
        np.testing.assert_array_equal(phi, np.full((10, 3), 0.5))

    def test_separates_two_clusters(self):
        from emhash.codec import round_codes
        from emhash.evaluation import mean_average_precision

        rng = np.random.default_rng(9)
        labels = [i % 2 for i in range(60)]
        s = np.where(np.equal.outer(labels, labels), 1, -1).astype(np.int8)
        view = SimilarityView(s=s[:, :30])
        cfg = TrainConfig(bits=8, anchors=30, sweeps=3, seed=2)
        phi = em_ksh_train(view, cfg, LIN)
        codes, _ = round_codes(phi)
        result = mean_average_precision(codes, labels, codes, labels, exclude_self=True)
        assert result.mean_ap == pytest.approx(1.0, abs=1e-9)

    def test_anchor_count_must_match_view(self):
        view = SimilarityView(s=np.ones((6, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="anchors"):
            em_ksh_train(view, TrainConfig(bits=2, anchors=4, sweeps=1, seed=0), LIN)


class TestSplh:
    def test_evidence_is_exactly_zero(self):
        s = random_full_similarity(np.random.default_rng(11), 5)
        sys = splh_system(s, 2.0)
        assert np.all(sys.b == 0.0)
        np.testing.assert_array_equal(sys.a, s.astype(float))

    def test_two_block_pattern_splits(self):
        """The homogeneous direction of a two-block similarity is block-constant."""
        labels = [0] * 5 + [1] * 7
        s = np.where(np.equal.outer(labels, labels), 1, -1)
        # dense eigensolver oracle: the top eigenvector is block-constant
        values, vectors = np.linalg.eigh(s.astype(float))
        top = vectors[:, -1]
        assert np.allclose(top[:5], top[0]) and np.allclose(top[5:], top[5])
        assert np.sign(top[0]) != np.sign(top[5])
        cfg = TrainConfig(bits=4, anchors=1, sweeps=1, seed=0)
        phi = em_splh_train(s, cfg, LIN)
        from emhash.codec import round_codes

        codes, _ = round_codes(phi)
        assert np.all(codes[:5] == codes[0]) and np.all(codes[5:] == codes[5])
        assert np.all(codes[0] == -codes[5])

    def test_all_bit_columns_identical(self):
        rng = np.random.default_rng(12)
        s = random_full_similarity(rng, 8)
        phi = em_splh_train(s, TrainConfig(bits=5, anchors=1, sweeps=1, seed=3), LIN)
        for k in range(1, 5):
            np.testing.assert_array_equal(phi[:, k], phi[:, 0])

    def test_independent_of_seed(self):
        rng = np.random.default_rng(13)
        s = random_full_similarity(rng, 7)
        a = em_splh_train(s, TrainConfig(bits=2, anchors=1, sweeps=1, seed=0), LIN)
        b = em_splh_train(s, TrainConfig(bits=2, anchors=1, sweeps=1, seed=999), LIN)
        np.testing.assert_array_equal(a, b)

    def test_single_bit_matches_enumeration_oracle(self):
        """Rounded pattern minimizes the correlation energy over all codes."""
        from emhash.codec import round_codes

        rng = np.random.default_rng(14)
        for n in (3, 4):
            for _ in range(5):
                s, _ = two_class_similarity(rng, n)
                phi = em_splh_train(s, TrainConfig(bits=1, anchors=1, sweeps=1, seed=0), LIN)
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
            em_splh_train(np.zeros((4, 4)), TrainConfig(bits=2, anchors=1, sweeps=1, seed=0), LIN)

    def test_dense_solve_size_guard(self):
        s = np.ones((5001, 5001), dtype=np.int8)
        with pytest.raises(ValueError, match="at most"):
            em_splh_train(s, TrainConfig(bits=1, anchors=1, sweeps=1, seed=0), LIN)


class TestLfh:
    def test_weight_limit_at_zero(self):
        assert variational_weight(0.0) == pytest.approx(-0.125, abs=1e-12)
        assert variational_weight(1e-9) == pytest.approx(-0.125, abs=1e-6)

    def test_hand_instance_matches_direct_summation(self):
        """Two points, two bits: every term computed independently."""
        phi = np.array([[0.8, 0.3], [0.6, 0.9]])
        view = SimilarityView(s=np.array([[1, -1], [-1, 1]], dtype=np.int8))
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
        view = SimilarityView(s=s)
        i = 4
        ksh = ksh_anchor_system(phi, view, i, 2.0)
        lfh = lfh_system(phi, view, i, 2.0, xi_override=float(bits))
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
        view = SimilarityView(s=s[:, :18])
        cfg = TrainConfig(bits=8, anchors=18, sweeps=3, seed=4)
        phi = em_lfh_train(view, cfg, LIN)
        np.testing.assert_array_equal(phi, em_lfh_train(view, cfg, LIN))
        codes, _ = round_codes(phi)
        result = mean_average_precision(codes, labels, codes, labels, exclude_self=True)
        assert result.mean_ap > 0.95


class TestEnergies:
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
            view = SimilarityView(s=s)
            cfg = TrainConfig(bits=1, anchors=n, sweeps=3, seed=seed)
            ksh_codes, _ = round_codes(em_ksh_train(view, cfg, LIN))
            splh_codes, _ = round_codes(em_splh_train(s, cfg, LIN))
            assert np.array_equal(ksh_codes, splh_codes) or np.array_equal(
                ksh_codes, -splh_codes
            )

    def test_single_bit_anchor_evidence_matches_correlation_argument(self):
        rng = np.random.default_rng(19)
        n = 7
        s, _ = two_class_similarity(rng, n)
        phi = rng.random((n, 1))
        view = SimilarityView(s=s)
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
        view = SimilarityView(s=s)
        out = ksh_tail_pass(phi1, view, LIN)
        np.testing.assert_array_equal(out[1], np.full(d, 0.5))
        assert not np.all(out[0] == 0.5)


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
    view = SimilarityView(s=s)
    lin = linearization(half_range)
    a, b, scales = ksh_tail_systems(phi, view, half_range)
    out = ksh_tail_pass(phi, view, lin)
    assert out.shape == b.shape
    for i, row in enumerate(b):
        assert scales[i] == build_scale(a, row, half_range)
        if not s[view.m + i].any():
            np.testing.assert_array_equal(out[i], 0.5)
        expected = solve_row_system(make_system(a, row, half_range), lin, homogeneous=False)
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
