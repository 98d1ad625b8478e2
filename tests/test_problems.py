"""Polynomial and general nonlinear problem containers.

Ground truth throughout: the naive difference quotient
(P(lam) - P(theta)) / (lam - theta), explicit power sums, and
numpy.linalg reference norms.
"""
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensel import homogeneous as hom
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


def _with_explicit_zeros(n, seed):
    """A sparse quadratic whose coefficients store explicit zeros (a[0] = 0
    kept in A's pattern, a zero on B's diagonal) and, in C, unsorted
    column indices with a duplicate entry; B is dense."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, n)
    a[0] = 0.0
    i = np.arange(n)
    A = sp.csr_array((a, (i, i)), shape=(n, n))
    B = np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    # row 0 holds columns 2, 0 and 2 again (the duplicate sums to 3.0)
    data = np.concatenate([[1.0, -0.5, 2.0], -rng.uniform(0.5, 1.0, n - 1)])
    indices = np.concatenate([[2, 0, 2], np.arange(1, n)])
    indptr = np.concatenate([[0], np.arange(3, n + 3)])
    C = sp.csr_array((data, indices, indptr), shape=(n, n))
    assert A.nnz == n and not C.has_canonical_format
    return PolyProblem([C, B, A])


class TestSparseTable:
    """Sparse evaluation runs on a table of the coefficients' values laid
    on their union pattern, built once per problem, and equals the former
    scale-and-add of scipy sparse matrices."""

    THETAS = [80j, 0.3 - 2.0j, 0.0, -2.5, 1e3j]
    POINTS = [hom.from_scalar(80j), hom.ProjectivePoint(1.0, 0.0),
              hom.from_scalar(0.2 - 1.0j), hom.ProjectivePoint(0.6j, -0.8)]

    @staticmethod
    def assert_equal(got, want):
        assert sp.issparse(got)
        got, want = to_dense(got), to_dense(want)
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @staticmethod
    def scale_and_add(coeffs, w):
        acc = None
        for wi, A in zip(w, coeffs):
            if wi != 0.0:
                acc = wi * A if acc is None else acc + wi * A
        return acc

    @pytest.fixture(params=["gyroscopic", "explicit_zeros"])
    def problem(self, request):
        if request.param == "gyroscopic":
            return gen_gyroscopic(60, seed=2)
        return _with_explicit_zeros(30, seed=5)

    def test_eval_and_derivative_at_scalars(self, problem):
        C, B, A = problem.coeffs
        for lam in self.THETAS:
            self.assert_equal(problem.eval(lam), lam * (lam * A + B) + C)
            self.assert_equal(problem.derivative(lam), lam * (2 * A) + 1 * B)

    def test_hom_eval_and_hom_d_at_points(self, problem):
        for p in map(hom.canonical, self.POINTS):
            self.assert_equal(hom.hom_eval(problem, p), self.scale_and_add(
                problem.coeffs, hom.hom_weights(2, p)))
            self.assert_equal(hom.hom_D(problem, p), self.scale_and_add(
                problem.coeffs, hom.hom_D_weights(2, p)))
            self.assert_equal(problem.eval(p), hom.hom_eval(problem, p))

    def test_pattern_is_built_once_and_shared(self, problem, monkeypatch):
        problem.eval(1.0j)
        monkeypatch.setattr(np, "searchsorted", None)  # no second build
        P, D = problem.eval(2.0), problem.derivative(hom.from_scalar(1.0))
        assert np.shares_memory(P.indices, D.indices)
        assert P.dtype == np.float64  # a real evaluation stays real

    def test_coefficients_are_left_alone(self):
        p = _with_explicit_zeros(20, seed=1)
        before = [A.copy() for A in p.coeffs]
        p.eval(0.5 + 1j)
        for A, B in zip(p.coeffs, before):
            assert type(A) is type(B)
            if sp.issparse(A):
                assert np.array_equal(A.indices, B.indices)
                assert np.array_equal(A.data, B.data)


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

    @pytest.mark.parametrize("sparse", [False, True])
    def test_norm2_estimate_matches_reference_loop(self, sparse):
        # the reference forms M^H on every step; the estimate forms it once
        def reference(M, tol=1e-3, maxit=100):
            rng = np.random.default_rng(0)
            v = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(
                M.shape[1])
            v /= np.linalg.norm(v)
            sigma = 0.0
            for _ in range(maxit):
                w = M @ v
                nw = np.linalg.norm(w)
                if nw == 0.0:
                    return 0.0
                u = M.conj().T @ w
                nu = np.linalg.norm(u)
                if nu == 0.0:
                    return float(nw)
                v = u / nu
                sigma_new = float(np.sqrt(nu))
                if abs(sigma_new - sigma) <= tol * sigma_new:
                    return sigma_new
                sigma = sigma_new
            return sigma

        mats = (gen_gyroscopic(60, seed=4).coeffs if sparse
                else gen_random_pep(40, 2, seed=4).coeffs)
        assert all(sp.issparse(A) == sparse for A in mats)
        for A in mats:
            for tol in (1e-3, 1e-8):
                assert norm2_estimate(A, tol=tol) == reference(A, tol=tol)

    def test_tolerance_scale_formula(self):
        p = random_problem(3, 2, seed=8)
        t = 2.5
        want = sum(abs(t) ** i * norm1(A) for i, A in enumerate(p.coeffs))
        np.testing.assert_allclose(p.tolerance_scale(t), want, rtol=1e-13)


# dense of degree 1-3 and sparse; finite points, (1, 0) and |beta| = 1e-6
CONTRACT_PROBLEMS = [lambda: gen_random_pep(6, 1, seed=1),
                     lambda: gen_random_pep(6, 2, seed=2),
                     lambda: gen_random_pep(6, 3, seed=3),
                     lambda: gen_gyroscopic(30, seed=4)]
CONTRACT_POINTS = [hom.from_scalar(0.4 - 1.3j),
                   hom.ProjectivePoint(0.6j, -0.8),
                   hom.ProjectivePoint(1.0, 0.0),
                   hom.ProjectivePoint(1.0, 1e-6 * np.exp(0.3j))]


def _bits(M):
    M = to_dense(M)
    return M.dtype, M.shape, M.tobytes()


@pytest.mark.parametrize("make", CONTRACT_PROBLEMS,
                         ids=["dense1", "dense2", "dense3", "gyroscopic"])
class TestHomogeneousContract:
    """At a ProjectivePoint every PolyProblem method returns its hom_*
    value bit for bit, and weights reproduces eval and derivative at
    scalars and points."""

    @pytest.mark.parametrize("pt", CONTRACT_POINTS,
                             ids=["finite", "finite2", "inf", "beta1e-6"])
    def test_point_runs_hom(self, make, pt):
        p = make()
        rng = np.random.default_rng(0)
        x, y = (rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
                for _ in range(2))
        assert _bits(p.eval(pt)) == _bits(hom.hom_eval(p, pt))
        assert _bits(p.derivative(pt)) == _bits(hom.hom_D(p, pt))
        assert _bits(p.matvec(pt, x)) == _bits(hom.hom_eval(p, pt) @ x)
        w, dw = p.weights(pt)
        assert _bits(w) == _bits(hom.hom_weights(p.degree, pt))
        assert _bits(dw) == _bits(hom.hom_D_weights(p.degree, pt))
        assert p.tolerance_scale(pt) == hom.hom_tolerance_scale(p, pt)
        xu, yu = x / np.linalg.norm(x), y / np.linalg.norm(y)
        den = abs(np.vdot(yu, hom.hom_D(p, pt) @ xu))
        assert p.condition_number(pt, x, y) == hom._hom_condition(p, pt, den)

    def test_scalar_infinity_is_the_point(self, make):
        # math.inf has no finite scalar evaluation; every method takes it
        # as the point (1, 0), bit for bit
        p, inf = make(), hom.ProjectivePoint(1.0, 0.0)
        rng = np.random.default_rng(1)
        x, y = (rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
                for _ in range(2))
        assert _bits(p.eval(math.inf)) == _bits(p.eval(inf))
        assert _bits(p.derivative(math.inf)) == _bits(p.derivative(inf))
        assert _bits(p.matvec(math.inf, x)) == _bits(p.matvec(inf, x))
        for got, want in zip(p.weights(math.inf), p.weights(inf)):
            assert _bits(got) == _bits(want)
        assert p.tolerance_scale(math.inf) == p.tolerance_scale(inf)
        assert math.isfinite(p.tolerance_scale(math.inf))
        assert p._condition(math.inf, 0.25) == p._condition(inf, 0.25)
        assert (p.condition_number(math.inf, x, y)
                == p.condition_number(inf, x, y))

    @pytest.mark.parametrize("theta", [0.0, 0.4 - 1.3j, 7.0 + 2.0j]
                             + CONTRACT_POINTS)
    def test_weights_reproduce_eval_and_derivative(self, make, theta):
        p = make()
        w, dw = p.weights(theta)
        for weights, want in ((w, p.eval(theta)), (dw, p.derivative(theta))):
            got = sum(wi * to_dense(A) for wi, A in zip(weights, p.coeffs))
            want = to_dense(want)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_size_rejected(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            gen_random_pep(n, 2)
        with pytest.raises(ValueError, match="at least 1"):
            gen_gyroscopic(n)

    def test_constructor_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            PolyProblem([np.eye(2)])

    def test_constructor_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PolyProblem([np.eye(2), np.eye(3)])
