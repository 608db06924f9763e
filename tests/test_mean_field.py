"""Tests for the sigmoid linearization and the closed-form row solvers."""

import numpy as np
import pytest

from emhash.mean_field import (
    MAX_HALF_RANGE,
    LinearizedSigmoid,
    RowSystem,
    build_scale,
    check_condition,
    fit_linearization,
    make_system,
    renormalize_and_squash,
    sigmoid,
    solve_affine,
    solve_homogeneous,
    solve_row_system,
)


def simpson_slope(half_range: float, panels: int = 20001) -> float:
    """Independent least-squares-slope reference via composite Simpson.

    Integrates the literal moment x * sigmoid(x) over the full symmetric
    interval, deliberately not sharing the library's tanh reduction or its
    adaptive quadrature.
    """
    xs = np.linspace(-half_range, half_range, panels)
    ys = xs / (1.0 + np.exp(-xs))
    h = xs[1] - xs[0]
    w = np.ones(panels)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return 1.5 * (h / 3.0) * float(w @ ys) / half_range**3


def raw_linearization(half_range: float, slope: float) -> LinearizedSigmoid:
    # Bypasses construction-time validation to probe the guard predicate
    # itself on values the constructor would reject.
    lin = object.__new__(LinearizedSigmoid)
    object.__setattr__(lin, "half_range", half_range)
    object.__setattr__(lin, "slope", slope)
    object.__setattr__(lin, "intercept", 0.5)
    return lin


class TestFitLinearization:
    def test_reference_slope_at_two(self):
        """Default half-range reproduces the 0.2109x + 0.5 fit."""
        lin = fit_linearization(2.0)
        assert lin.slope == pytest.approx(0.2109, abs=1e-3)
        assert lin.intercept == pytest.approx(0.5, abs=1e-9)

    def test_slope_matches_simpson_oracle(self):
        # Frozen oracle values: simpson_slope gave 0.2469297279 (0.5),
        # 0.2383279515 (1.0), 0.2109005525 (2.0).
        frozen = {0.5: 0.2469297279, 1.0: 0.2383279515, 2.0: 0.2109005525}
        for half_range, expected in frozen.items():
            assert simpson_slope(half_range) == pytest.approx(expected, abs=1e-8)
            assert fit_linearization(half_range).slope == pytest.approx(expected, abs=1e-7)

    def test_intercept_is_half_everywhere(self):
        """The sigmoid is symmetric about (0, 0.5), so the intercept pins there."""
        for half_range in (0.2, 0.7, 1.3, 2.0, 2.5):
            assert fit_linearization(half_range).intercept == pytest.approx(0.5, abs=1e-9)

    def test_near_tangent_limit(self):
        assert fit_linearization(0.01).slope == pytest.approx(0.25, abs=1e-4)

    def test_rejects_invalid_half_range(self):
        with pytest.raises(ValueError):
            fit_linearization(0.0)
        with pytest.raises(ValueError):
            fit_linearization(-1.0)
        with pytest.raises(ValueError, match="2.5997"):
            fit_linearization(2.5997)
        with pytest.raises(ValueError, match="2.5997"):
            fit_linearization(3.0)

    def test_slope_bounds_on_grid(self):
        for half_range in np.arange(0.1, 2.51, 0.2):
            lin = fit_linearization(float(half_range))
            assert 0.0 < lin.slope < 0.25
            assert 2.0 * lin.slope * lin.half_range < 1.0


class TestLinearizedSigmoidInvariants:
    def test_constructor_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LinearizedSigmoid(2.0, 0.2109, 0.4)
        with pytest.raises(ValueError):
            LinearizedSigmoid(2.0, 0.26, 0.5)
        with pytest.raises(ValueError):
            LinearizedSigmoid(2.0, -0.1, 0.5)
        with pytest.raises(ValueError):
            LinearizedSigmoid(MAX_HALF_RANGE, 0.19, 0.5)
        # boundary of the solvability condition is excluded
        with pytest.raises(ValueError):
            LinearizedSigmoid(2.0, 0.25, 0.5)


class TestCheckCondition:
    def test_reference_fit_satisfies(self):
        assert check_condition(LinearizedSigmoid(2.0, 0.2109, 0.5))  # 0.4218 < 0.5

    def test_boundary_fails_strictly(self):
        assert not check_condition(raw_linearization(2.0, 0.25))  # 0.5 < 0.5 fails

    def test_holds_automatically_on_fit_grid(self):
        """Fitted slopes keep the condition across the whole valid range."""
        for half_range in np.arange(0.1, 2.51, 0.1):
            assert check_condition(fit_linearization(float(half_range)))


class TestBuildScale:
    def test_direct_evaluations(self):
        assert build_scale(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0]), 2.0) == 1.0
        assert build_scale(np.zeros((3, 3)), np.zeros(3), 2.0) == 0.0
        assert build_scale(np.array([[2.0]]), np.array([3.0]), 2.0) == 2.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_scale(np.zeros((2, 2)), np.zeros(3), 2.0)
        with pytest.raises(ValueError):
            build_scale(np.zeros((2, 3)), np.zeros(2), 2.0)

    def test_bounds_every_argument(self):
        """For any u in [-1, 1]^d the scaled argument stays in the fit interval."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            a = rng.normal(size=(d, d))
            a = np.triu(a) + np.triu(a, 1).T
            b = rng.normal(size=d)
            half_range = float(rng.uniform(0.5, 2.5))
            scale = build_scale(a, b, half_range)
            if scale == 0.0:
                continue
            for _ in range(10):
                u = rng.uniform(-1.0, 1.0, size=d)
                arg = (a @ u + b) / scale
                assert np.all(np.abs(arg) <= half_range + 1e-12)


class TestRowSystem:
    def test_requires_exact_symmetry(self):
        a = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            RowSystem(a=a, b=np.zeros(2), scale=1.0)

    def test_scale_recompute_matches(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(1, 10))
            a = rng.normal(size=(d, d))
            a = np.triu(a) + np.triu(a, 1).T
            b = rng.normal(size=d)
            sys = make_system(a, b, 2.0)
            assert abs(sys.scale - build_scale(sys.a, sys.b, 2.0)) <= 1e-12


class TestSolveAffine:
    def test_scalar_closed_form(self):
        """d=1 instance solvable by hand: v = 0.4218 / (1 - 0.4218)."""
        sys = RowSystem(a=np.array([[1.0]]), b=np.array([1.0]), scale=1.0)
        lin = LinearizedSigmoid(2.0, 0.2109, 0.5)
        v = solve_affine(sys, lin)
        assert v[0] == pytest.approx(0.4218 / (1.0 - 0.4218), abs=1e-12)

    def test_identity_matrix_diagonalizes(self):
        rng = np.random.default_rng(5)
        lin = fit_linearization(2.0)
        for d in (2, 5, 9):
            b = rng.normal(size=d)
            sys = make_system(np.eye(d), b, 2.0)
            v = solve_affine(sys, lin)
            expected = 2.0 * lin.slope * b / (sys.scale * (sys.scale - 2.0 * lin.slope))
            np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_residual_against_explicit_inverse_oracle(self):
        """Substituting into the inverse-matrix form leaves residual <= 1e-8."""
        rng = np.random.default_rng(7)
        lin = fit_linearization(2.0)
        for _ in range(20):
            d = 16
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            vals = rng.uniform(0.5, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            a = q @ np.diag(vals) @ q.T
            a = np.triu(a) + np.triu(a, 1).T
            b = rng.normal(size=d)
            sys = make_system(a, b, 2.0)
            v = solve_affine(sys, lin)
            lhs = sys.scale * np.linalg.inv(a) - 2.0 * lin.slope * np.eye(d)
            residual = np.linalg.norm(lhs @ v - 2.0 * lin.slope / sys.scale * b)
            assert residual <= 1e-8

    def test_singular_matrix_stays_well_posed(self):
        rng = np.random.default_rng(9)
        lin = fit_linearization(2.0)
        d = 6
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        vals = np.array([2.0, 1.0, 0.5, 0.0, 0.0, -1.0])
        a = q @ np.diag(vals) @ q.T
        a = np.triu(a) + np.triu(a, 1).T
        b = rng.normal(size=d)
        sys = make_system(a, b, 2.0)
        v = solve_affine(sys, lin)
        lhs = sys.scale * np.eye(d) - 2.0 * lin.slope * a
        rhs = 2.0 * lin.slope / sys.scale * (a @ b)
        np.testing.assert_allclose(lhs @ v, rhs, atol=1e-10)

    def test_zero_matrix_short_circuits(self):
        lin = fit_linearization(2.0)
        sys = make_system(np.zeros((3, 3)), np.array([1.0, -2.0, 0.5]), 2.0)
        np.testing.assert_array_equal(solve_affine(sys, lin), np.zeros(3))

    def test_solver_matrix_positive_definite(self):
        """The scale dominates the spectrum for every valid system."""
        rng = np.random.default_rng(13)
        lin = fit_linearization(2.0)
        for d in (2, 8, 32):
            for _ in range(100):
                a = rng.normal(size=(d, d))
                a = np.triu(a) + np.triu(a, 1).T
                b = rng.normal(size=d)
                sys = make_system(a, b, 2.0)
                lhs = sys.scale * np.eye(d) - 2.0 * lin.slope * sys.a
                assert np.linalg.eigvalsh(lhs)[0] > 0.0


class TestSolveHomogeneous:
    def test_diagonal_instance_by_hand(self):
        """diag(2, 1): transformed magnitudes (0.0782, 0.5782), top wins."""
        sys = make_system(np.diag([2.0, 1.0]), np.zeros(2), 2.0)
        assert sys.scale == 1.0
        v = solve_homogeneous(sys, LinearizedSigmoid(2.0, 0.2109, 0.5))
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(17)
        lin = fit_linearization(2.0)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            a = rng.normal(size=(d, d))
            a = np.triu(a) + np.triu(a, 1).T
            v = solve_homogeneous(make_system(a, np.zeros(d), 2.0), lin)
            lead = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
            assert v[lead] > 0.0
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_matches_minimum_singular_direction_oracle(self):
        """Top eigenvector equals the least-moved direction of the inverse form."""
        rng = np.random.default_rng(19)
        lin = fit_linearization(2.0)
        for _ in range(20):
            d = int(rng.integers(2, 17))
            a = rng.normal(size=(d, d))
            a = np.triu(a) + np.triu(a, 1).T
            if abs(np.linalg.det(a)) < 1e-6:
                continue
            sys = make_system(a, np.zeros(d), 2.0)
            v = solve_homogeneous(sys, lin)
            m = sys.scale * np.linalg.inv(a) - 2.0 * lin.slope * np.eye(d)
            _, _, vt = np.linalg.svd(m)
            assert abs(float(v @ vt[-1])) >= 1.0 - 1e-8

    def test_rejects_zero_matrix_and_nonzero_b(self):
        lin = fit_linearization(2.0)
        with pytest.raises(ValueError, match="direction"):
            solve_homogeneous(RowSystem(a=np.zeros((2, 2)), b=np.zeros(2), scale=1.0), lin)
        with pytest.raises(ValueError):
            solve_homogeneous(make_system(np.eye(2), np.ones(2), 2.0), lin)


class TestRenormalizeAndSquash:
    def test_three_point_example(self):
        out = renormalize_and_squash(np.array([0.0, 1.0, 2.0]), np.zeros(3), 1.0, 2.0)
        expected = [1.0 / (1.0 + np.e**2), 0.5, 1.0 / (1.0 + np.e**-2)]
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(out, [0.1192, 0.5, 0.8808], atol=1e-4)

    def test_constant_vector_is_uninformative(self):
        out = renormalize_and_squash(np.full(4, 0.3), np.zeros(4), 1.0, 2.0)
        np.testing.assert_array_equal(out, np.full(4, 0.5))
        out = renormalize_and_squash(np.array([7.0]), np.zeros(1), 1.0, 2.0)
        np.testing.assert_array_equal(out, [0.5])

    def test_endpoint_vector_is_fixed_point(self):
        v = np.array([-2.0, 0.3, 2.0])
        out = renormalize_and_squash(v, np.zeros(3), 1.0, 2.0)
        np.testing.assert_allclose(out, sigmoid(v), atol=1e-15)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(2, 12))
            out = renormalize_and_squash(rng.normal(size=d), rng.normal(size=d), 1.7, 2.0)
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_stack_matches_rows_and_flat_rows_stay_uninformative(self):
        rng = np.random.default_rng(31)
        v, b = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        v[2], b[2] = 0.7, 0.0  # zero span: no divide, no warning
        scales = rng.uniform(0.5, 3.0, size=5)
        out = renormalize_and_squash(v, b, scales, 2.0)
        for i in range(5):
            np.testing.assert_array_equal(out[i], renormalize_and_squash(v[i], b[i], scales[i], 2.0))
        np.testing.assert_array_equal(out[2], np.full(6, 0.5))
        assert renormalize_and_squash(v[:0], b[:0], scales[:0], 2.0).shape == (0, 6)
        with pytest.raises(ValueError, match="one scale per row"):
            renormalize_and_squash(v, b, 1.0, 2.0)

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(29)
        v = rng.normal(size=6)
        base = renormalize_and_squash(v, np.zeros(6), 1.0, 2.0)
        for alpha in (0.1, 3.0, 250.0):
            scaled = renormalize_and_squash(alpha * v, np.zeros(6), 1.0, 2.0)
            np.testing.assert_allclose(scaled, base, atol=1e-12)
            assert np.argmax(scaled) == np.argmax(base)
            assert np.argmin(scaled) == np.argmin(base)


class TestSolveRowSystem:
    def test_zero_system_gives_uniform_row(self):
        lin = fit_linearization(2.0)
        out = solve_row_system(RowSystem(a=np.zeros((3, 3)), b=np.zeros(3), scale=0.0), lin)
        np.testing.assert_array_equal(out, np.full(3, 0.5))

    def test_affine_path_composition(self):
        rng = np.random.default_rng(31)
        lin = fit_linearization(2.0)
        a = rng.normal(size=(5, 5))
        a = np.triu(a) + np.triu(a, 1).T
        b = rng.normal(size=5)
        sys = make_system(a, b, 2.0)
        expected = renormalize_and_squash(solve_affine(sys, lin), b, sys.scale, 2.0)
        np.testing.assert_array_equal(solve_row_system(sys, lin), expected)

    def test_homogeneous_path_composition(self):
        rng = np.random.default_rng(37)
        lin = fit_linearization(2.0)
        a = rng.normal(size=(5, 5))
        a = np.triu(a) + np.triu(a, 1).T
        sys = make_system(a, np.zeros(5), 2.0)
        expected = renormalize_and_squash(solve_homogeneous(sys, lin), sys.b, sys.scale, 2.0)
        np.testing.assert_array_equal(solve_row_system(sys, lin), expected)

    def test_supervised_policy_gives_uniform_row_without_evidence(self):
        """b == 0 with a live coupling: no supervision, so no eigen path."""
        rng = np.random.default_rng(41)
        lin = fit_linearization(2.0)
        a = rng.normal(size=(4, 4))
        a = np.triu(a) + np.triu(a, 1).T
        sys = make_system(a, np.zeros(4), 2.0)
        out = solve_row_system(sys, lin, homogeneous=False)
        np.testing.assert_array_equal(out, np.full(4, 0.5))

    def test_explicit_equation_when_matrix_vanishes(self):
        """With no coupling the consistency equation needs no transformation."""
        lin = fit_linearization(2.0)
        b = np.array([1.0, -3.0, 2.0])
        sys = make_system(np.zeros((3, 3)), b, 2.0)
        np.testing.assert_allclose(solve_row_system(sys, lin), sigmoid(b / sys.scale), atol=1e-15)
        # length-1 rows keep the sign information instead of washing to 0.5
        one = make_system(np.zeros((1, 1)), np.array([4.0]), 2.0)
        assert solve_row_system(one, lin)[0] == pytest.approx(sigmoid(np.array([2.0]))[0])
