"""Polynomial and general nonlinear problem containers.

Ground truth throughout: the naive difference quotient
(P(lam) - P(theta)) / (lam - theta), explicit power sums, and
numpy.linalg reference norms.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensel.problems import (
    GeneralNep,
    IllConditionedError,
    PolyProblem,
    dd_weights,
    gen_example_2x2,
    gen_gyroscopic,
    gen_random_pep,
    norm1,
    norm2_estimate,
    to_dense,
)


def random_problem(n, m, seed):
    return gen_random_pep(n, m, seed=seed)


def eval_powersum(problem, lam):
    # independent of Horner: plain sum lam^i A_i
    return sum(lam**i * to_dense(A) for i, A in enumerate(problem.coeffs))


finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


class TestEvalAndDerivative:
    def test_eval_matches_power_sum(self):
        p = random_problem(6, 3, seed=1)
        for lam in (0.3 + 0.7j, -2.0, 5j):
            np.testing.assert_allclose(p.eval(lam), eval_powersum(p, lam),
                                       rtol=1e-13, atol=1e-13)

    def test_derivative_matches_difference_quotient(self):
        p = random_problem(5, 4, seed=2)
        lam = 0.8 - 0.4j
        h = 1e-7
        fd = (p.eval(lam + h) - p.eval(lam - h)) / (2 * h)
        np.testing.assert_allclose(p.derivative(lam), fd, rtol=1e-6, atol=1e-6)

    def test_matvec_matches_eval(self):
        p = random_problem(7, 2, seed=3)
        x = np.linspace(1, 2, 7) + 1j
        lam = 1.5 + 0.2j
        np.testing.assert_allclose(p.matvec(lam, x), p.eval(lam) @ x,
                                   rtol=1e-13, atol=1e-13)

    def test_matvec_keeps_sparse_sparse(self):
        p = gen_gyroscopic(30)
        x = np.ones(30, dtype=complex)
        # works without densifying; compare against the dense evaluation
        got = p.matvec(2.0 + 1j, x)
        want = to_dense(p.eval(2.0 + 1j)) @ x
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def horner_with_temporaries(coeffs, lam):
    P = coeffs[-1]
    for A in reversed(coeffs[:-1]):
        P = lam * P + A
    return P


class TestInPlaceHorner:
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("lam", [0.0, -2.5, 0.3 + 1.7j, 40.0 - 3.0j])
    def test_dense_matches_temporaries_and_keeps_coefficients(self, m, lam):
        p = random_problem(12, m, seed=m)
        before = [A.copy() for A in p.coeffs]
        want = horner_with_temporaries(p.coeffs, lam)
        got = p.eval(lam)
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        for A, B in zip(p.coeffs, before):
            assert np.array_equal(A, B)
        assert all(got is not A for A in p.coeffs)

    def test_real_argument_keeps_real_dtype(self):
        p = PolyProblem([np.eye(3), np.ones((3, 3)), np.diag([1.0, 2.0, 3.0])])
        assert p.eval(2.0).dtype == np.float64
        np.testing.assert_array_equal(
            p.eval(2.0), horner_with_temporaries(p.coeffs, 2.0))

    @pytest.mark.parametrize("lam", [0.5, 1.0 - 2.0j])
    def test_sparse_keeps_expression(self, lam):
        p = gen_gyroscopic(25, seed=1)
        before = [A.copy() for A in p.coeffs]
        got = p.eval(lam)
        assert sp.issparse(got)
        want = horner_with_temporaries(p.coeffs, lam)
        assert (got != want).nnz == 0
        for A, B in zip(p.coeffs, before):
            assert (A != B).nnz == 0


class TestDividedDifference:
    def test_quotient_oracle(self):
        # closed form against the raw quotient, separated points
        for seed in range(10):
            p = random_problem(4, 3, seed=seed)
            lam, theta = 1.2 + 0.5j, -0.7 + 2.0j
            quotient = (p.eval(lam) - p.eval(theta)) / (lam - theta)
            np.testing.assert_allclose(p.divided_difference(lam, theta),
                                       quotient, rtol=1e-12, atol=1e-12)

    def test_coincident_equals_derivative(self):
        p = random_problem(5, 4, seed=4)
        lam = 0.3 - 1.1j
        np.testing.assert_allclose(p.divided_difference(lam, lam),
                                   p.derivative(lam), rtol=1e-12)

    def test_qep_closed_form(self):
        # degree 2: P[lam, theta] = (lam + theta) A_2 + A_1
        p = random_problem(4, 2, seed=5)
        lam, theta = 2.0, -1.0 + 1.0j
        want = (lam + theta) * p.coeffs[2] + p.coeffs[1]
        np.testing.assert_allclose(p.divided_difference(lam, theta), want,
                                   rtol=1e-13, atol=1e-13)

    @given(lam=finite_complex, theta=finite_complex)
    @settings(max_examples=50, deadline=None)
    def test_weights_symmetric(self, lam, theta):
        w1 = dd_weights(4, lam, theta)
        w2 = dd_weights(4, theta, lam)
        np.testing.assert_allclose(w1, w2, rtol=1e-10, atol=1e-10)

    @given(lam=finite_complex)
    @settings(max_examples=50, deadline=None)
    def test_weights_collapse_to_derivative(self, lam):
        # w[k] at theta = lam must be k lam^(k-1)
        w = dd_weights(3, lam, lam)
        want = np.array([0.0, 1.0, 2.0 * lam, 3.0 * lam**2])
        np.testing.assert_allclose(w, want, rtol=1e-9, atol=1e-9)


class TestGeneralNep:
    def nep(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        return GeneralNep(lambda lam: A - lam * np.eye(2) + lam**2 * np.eye(2) * 0.1,
                          lambda lam: -np.eye(2) + 2 * lam * np.eye(2) * 0.1,
                          2)

    def test_divided_difference_quotient(self):
        f = self.nep()
        lam, mu = 1.0, 3.0
        want = (f.eval(lam) - f.eval(mu)) / (lam - mu)
        np.testing.assert_allclose(f.divided_difference(lam, mu), want,
                                   rtol=1e-13)

    def test_divided_difference_coincidence_switch(self):
        f = self.nep()
        lam = 2.0
        # within the relative coincidence window the derivative is returned
        near = lam * (1.0 + 1e-12)
        np.testing.assert_allclose(f.divided_difference(lam, near),
                                   f.derivative(lam), rtol=0, atol=0)

    def test_poly_to_general_roundtrip(self):
        p = random_problem(3, 2, seed=6)
        f = p.to_general_nep()
        lam = 0.5 + 0.5j
        np.testing.assert_allclose(f.eval(lam), p.eval(lam), rtol=1e-13)
        np.testing.assert_allclose(f.divided_difference(lam, 2.0),
                                   p.divided_difference(lam, 2.0), rtol=1e-12)


class TestConditionNumber:
    def test_known_value_linear_pencil(self):
        # P(lam) = A - lam I, eigenpair (2, e1) of diag(2, 5): kappa =
        # (||A||_2 + |lam| ||I||_2) / |y* (-I) x| = ||A||_2 + |lam|
        A = np.diag([2.0, 5.0])
        p = PolyProblem([A, -np.eye(2)])
        e1 = np.array([1.0, 0.0])
        got = p.condition_number(2.0, e1, e1)
        np.testing.assert_allclose(got, 5.0 + 2.0, rtol=1e-3)

    def test_orthogonal_pair_raises(self):
        p = PolyProblem([np.diag([2.0, 5.0]), -np.eye(2)])
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])  # y* P'(lam) x = 0 exactly
        with pytest.raises(IllConditionedError):
            p.condition_number(2.0, x, y)

    def test_scaling_invariance_in_vectors(self):
        p = random_problem(4, 2, seed=7)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        k1 = p.condition_number(1.0 + 1j, x, y)
        k2 = p.condition_number(1.0 + 1j, 3.0 * x, -2j * y)
        np.testing.assert_allclose(k1, k2, rtol=1e-12)


class TestNorms:
    def test_norm1_dense_vs_numpy(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        np.testing.assert_allclose(norm1(A), np.linalg.norm(A, 1), rtol=1e-13)

    def test_norm1_sparse_matches_dense(self):
        p = gen_gyroscopic(25)
        for A in p.coeffs:
            np.testing.assert_allclose(norm1(A), np.linalg.norm(to_dense(A), 1),
                                       rtol=1e-13)

    def test_norm2_estimate_close_to_exact(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 8))
        est = norm2_estimate(A, tol=1e-6)
        np.testing.assert_allclose(est, np.linalg.norm(A, 2), rtol=1e-3)

    def test_tolerance_scale_formula(self):
        p = random_problem(3, 2, seed=8)
        t = 2.5
        want = sum(abs(t) ** i * norm1(A) for i, A in enumerate(p.coeffs))
        np.testing.assert_allclose(p.tolerance_scale(t), want, rtol=1e-13)


class TestGenerators:
    def test_gyroscopic_structure(self):
        p = gen_gyroscopic(12, seed=3)
        C, B, A = p.coeffs
        Ad = to_dense(A)
        assert Ad[0, 0] == 0.0  # singular leading coefficient by construction
        assert np.all(np.diag(Ad)[1:] > 0)
        Bd = to_dense(B)
        np.testing.assert_allclose(Bd, -Bd.T, atol=0)
        assert np.all(np.diag(to_dense(C)) < 0)

    def test_random_pep_symmetric_flag(self):
        p = gen_random_pep(5, 3, seed=4, symmetric=True)
        for A in p.coeffs:
            np.testing.assert_allclose(A, A.T, atol=0)

    def test_example_2x2_eigenvalues(self):
        delta, eps = 1e-6, 1e-3
        p = gen_example_2x2(delta, eps)
        # pencil A - lam I with A upper triangular: eigenvalues 0 and delta
        assert abs(np.linalg.det(p.eval(0.0))) < 1e-30
        assert abs(np.linalg.det(p.eval(delta))) < 1e-30

    def test_constructor_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            PolyProblem([np.eye(2)])

    def test_constructor_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PolyProblem([np.eye(2), np.eye(3)])
