"""GMRES, LU preconditioning, null vectors, left eigenvectors.

scipy.linalg direct solves are the reference for every system solved
iteratively here.
"""
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from eigensel import homogeneous as hom
from eigensel import linsolve
from eigensel.jdsolver import JDOptions, jd_solve
from eigensel.oracle import oracle_all_eigenpairs
from eigensel.linsolve import (
    LuPreconditioner,
    NullVectorError,
    gmres,
    left_eigenvector,
    lu_preconditioner,
    null_vector,
    projected_correction_solve,
)
from eigensel.problems import PolyProblem, gen_gyroscopic, gen_random_pep
from eigensel.problems import norm1
from eigensel.selection import ERROR_BOUND_GUARD


def random_system(n, seed, cond_boost=0.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A += (np.sqrt(n) + cond_boost) * np.eye(n)  # keep it comfortably regular
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return A, b


class TestGmres:
    def test_solves_to_tolerance(self):
        A, b = random_system(30, 0)
        x, relres, its = gmres(A, b, tol=1e-10)
        true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert true <= 1e-9
        np.testing.assert_allclose(relres, true, rtol=1e-4, atol=1e-12)
        assert 0 < its <= 30

    def test_zero_rhs(self):
        A, _ = random_system(5, 1)
        x, relres, its = gmres(A, np.zeros(5, dtype=complex))
        assert np.all(x == 0) and relres == 0.0 and its == 0

    def test_preconditioner_accelerates(self):
        A, b = random_system(40, 3)
        M = LuPreconditioner(A)  # exact inverse: one step should do
        x, relres, its = gmres(A, b, tol=1e-10, M=M)
        assert its <= 2
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-9

    def test_iteration_cap_respected(self):
        A, b = random_system(50, 4)
        _, relres, its = gmres(A, b, tol=1e-14, maxiter=5)
        assert its == 5
        assert relres > 0

    def test_matvec_callable_interface(self):
        A, b = random_system(12, 5)
        x1, *_ = gmres(A, b, tol=1e-10)
        x2, *_ = gmres(lambda v: A @ v, b, tol=1e-10)
        np.testing.assert_allclose(x1, x2, rtol=1e-8, atol=1e-10)

    def test_residual_monotone(self):
        # run with increasing budgets; minimal-residual iterates cannot get
        # worse when the Krylov space grows
        A, b = random_system(25, 6)
        hist = [gmres(A, b, tol=0.0, maxiter=k)[1] for k in range(1, 12)]
        for r0, r1 in zip(hist, hist[1:]):
            assert r1 <= r0 * (1 + 1e-12)


class TestLuPreconditioner:
    def test_solve(self):
        A, b = random_system(10, 7)
        M = LuPreconditioner(A)
        np.testing.assert_allclose(A @ M.solve(b), b, rtol=1e-10, atol=1e-10)

    def test_sparse_input(self):
        p = gen_gyroscopic(60)
        M = lu_preconditioner(p, 1.5 + 0.5j)
        b = np.ones(60, dtype=complex)
        from eigensel.problems import to_dense
        target = to_dense(p.eval(1.5 + 0.5j))
        np.testing.assert_allclose(target @ M.solve(b), b, rtol=1e-9,
                                   atol=1e-9)

    def test_infinite_target_factors_leading_coefficient(self):
        # P(inf) as a scalar evaluation has no finite entry; at the point
        # (1, 0) the homogeneous evaluation is A_m
        p = gen_random_pep(6, 2, seed=3)
        M = lu_preconditioner(p, complex(np.inf, 0.0))
        b = np.ones(6, dtype=complex)
        np.testing.assert_allclose(p.coeffs[2] @ M.solve(b), b, rtol=1e-9,
                                   atol=1e-9)

    def test_singular_target_warns_and_regularizes(self):
        A = np.diag([0.0, 1.0, 2.0]).astype(complex)
        with pytest.warns(UserWarning, match="exactly singular"):
            M = LuPreconditioner(A)
        # solves stay finite on the regular part
        b = np.array([0.0, 1.0, 2.0], dtype=complex)
        x = M.solve(b)
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(x[1:], [1.0, 1.0], rtol=1e-9)


class TestDenseInverse:
    """The dense preconditioner's explicit inverse against LU solves."""

    @staticmethod
    def assert_matches_lu_solve(A, M):
        lu = sla.lu_factor(A)
        rng = np.random.default_rng(A.shape[0])
        B = rng.standard_normal((A.shape[0], 3)) + 1j * rng.standard_normal(
            (A.shape[0], 3))
        for b in (B[:, 0], B):
            want = sla.lu_solve(lu, b)
            got = M.solve(b)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("n, seed", [(10, 0), (60, 1)])
    def test_regular(self, n, seed):
        A, _ = random_system(n, seed)
        self.assert_matches_lu_solve(A, LuPreconditioner(A))

    def test_regularized_singular(self):
        A, _ = random_system(12, 2)
        A[:, 3] = 0.0  # exactly singular: a zero pivot in the LU
        with pytest.warns(UserWarning, match="exactly singular"):
            M = LuPreconditioner(A)
        # the inverse is that of the regularized matrix
        self.assert_matches_lu_solve(A + 1e-14 * norm1(A) * np.eye(12), M)


class TestRealInput:
    """Real input stays real and matches the complex-cast computation."""

    @staticmethod
    def real_system(n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n)
        return A, rng.standard_normal(n)

    @staticmethod
    def assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_gmres(self):
        A, b = self.real_system(30, 3)
        P = A + 0.5 * np.random.default_rng(4).standard_normal((30, 30))
        for M in (None, LuPreconditioner(P)):
            x, relres, its = gmres(A, b, tol=1e-10, maxiter=20, M=M)
            assert x.dtype == np.float64
            Mc = None if M is None else LuPreconditioner(P.astype(complex))
            xc, relres_c, its_c = gmres(A.astype(complex), b.astype(complex),
                                        tol=1e-10, maxiter=20, M=Mc)
            assert its == its_c
            assert abs(relres - relres_c) <= 1e-12
            self.assert_close(x, xc)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_lu_preconditioner(self, sparse):
        A, b = self.real_system(20, 5)
        B = np.column_stack([b, np.random.default_rng(6).standard_normal(20)])
        wrap = sp.csc_matrix if sparse else np.asarray
        M = LuPreconditioner(wrap(A))
        Mc = LuPreconditioner(wrap(A.astype(complex)))
        assert M.dtype == np.float64 and Mc.dtype == np.complex128
        for rhs in (b, B):
            got = M.solve(rhs)
            assert got.dtype == np.float64
            self.assert_close(got, Mc.solve(rhs.astype(complex)))
            # a complex right-hand side is solved as its two parts
            z = rhs + 1j * rhs[::-1]
            self.assert_close(M.solve(z), Mc.solve(z))


class TestNullVector:
    def test_exactly_singular_diagonal(self):
        # expected use case: no warning even though Z is exactly singular
        Z = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        y = null_vector(Z, tol=1e-10, seed=0)
        np.testing.assert_allclose(np.linalg.norm(y), 1.0, rtol=1e-12)
        assert np.linalg.norm(Z @ y) <= 1e-10
        assert abs(y[0]) > 0.999  # the null direction is e1

    def test_near_singular_random(self):
        rng = np.random.default_rng(9)
        U, _ = np.linalg.qr(rng.standard_normal((8, 8))
                            + 1j * rng.standard_normal((8, 8)))
        V, _ = np.linalg.qr(rng.standard_normal((8, 8))
                            + 1j * rng.standard_normal((8, 8)))
        s = np.array([1e-13, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        Z = U @ np.diag(s) @ V.conj().T
        y = null_vector(Z, tol=1e-9, seed=1)
        assert np.linalg.norm(Z @ y) <= 1e-9
        # y must match the singular vector of the tiny singular value
        assert abs(np.vdot(V[:, 0], y)) > 0.999

    def test_nonsingular_raises(self):
        Z = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(NullVectorError):
            null_vector(Z, tol=1e-8, seed=2)


def _lu_spy(monkeypatch):
    """Count linsolve._lu_factor calls: the factorizations a call makes."""
    calls = []
    real = linsolve._lu_factor

    def spy(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(linsolve, "_lu_factor", spy)
    return calls


def _left_residual_ok(problem, theta, y, rtol):
    """||F(theta)* y|| <= rtol * scale for unit y, F assembled here."""
    if isinstance(theta, hom.ProjectivePoint):
        pt = hom.scale_canonical(theta)
        F = hom.hom_eval(problem, pt)
        scale = hom.hom_tolerance_scale(problem, pt)
    else:
        F = problem.eval(theta)
        scale = problem.tolerance_scale(abs(theta))
    assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
    return np.linalg.norm(F.conj().T @ y) <= rtol * scale


class TestLeftEigenvector:
    """Null vectors of F(theta)*; given the right vector x, x or conj(x)
    without a factorization where F(theta) is Hermitian or complex
    symmetric and the pair well conditioned."""

    @pytest.mark.parametrize("theta", [math.inf,
                                       hom.ProjectivePoint(1.0, 0.0)],
                             ids=["inf", "point"])
    def test_scalar_infinity_is_the_point(self, theta):
        # math.inf is the point (1, 0), where F is A_1 and e_1 its null vector
        p = PolyProblem([np.eye(3), np.diag([0.0, 1.0, 2.0])])
        e1 = np.eye(3)[0]
        np.testing.assert_array_equal(left_eigenvector(p, theta, e1)[0], e1)

    def test_residual_meets_tolerance(self):
        p = gen_random_pep(12, 2, seed=0)
        oracle = [o for o in oracle_all_eigenpairs(p)
                  if o.ok and np.isfinite(o.value)]
        lam = min(oracle, key=lambda o: abs(o.value)).value
        y, _ = left_eigenvector(p, lam, rtol=1e-9, seed=0)
        scale = p.tolerance_scale(abs(lam))
        assert np.linalg.norm(p.eval(lam).conj().T @ y) <= 1e-9 * scale

    def test_matches_oracle_direction(self):
        p = gen_random_pep(10, 2, seed=1)
        o = min((o for o in oracle_all_eigenpairs(p)
                 if o.ok and np.isfinite(o.value)),
                key=lambda o: abs(o.value))
        y, _ = left_eigenvector(p, o.value, rtol=1e-9, seed=1)
        assert abs(np.vdot(o.y, y)) > 1.0 - 1e-6

    @pytest.fixture(scope="class")
    def gyro_pair(self):
        # a converged imaginary pair of the Hermitian Q(i omega)
        p = gen_gyroscopic(200, seed=0)
        res = jd_solve(p, JDOptions(target=20j, num_pairs=1, tol=1e-9,
                                    mode="homogeneous", seed=0))
        t = res.registry[0]
        assert abs(t.value.real) <= 1e-10 * abs(t.value)
        return p, t

    @pytest.mark.parametrize("projective", [False, True])
    def test_hermitian_returns_x_without_factoring(self, monkeypatch,
                                                   gyro_pair, projective):
        p, t = gyro_pair
        theta = t.point if projective else t.value
        x = 3.0 * t.right
        calls = _lu_spy(monkeypatch)
        y, _ = left_eigenvector(p, theta, x, rtol=1e-7, seed=0)
        assert calls == []
        np.testing.assert_array_equal(y, x / np.linalg.norm(x))
        assert _left_residual_ok(p, theta, y, 1e-7)

    def test_complex_symmetric_returns_conj_x_without_factoring(
            self, monkeypatch):
        p = gen_random_pep(40, 2, seed=2, symmetric=True)
        o = min((o for o in oracle_all_eigenpairs(p)
                 if o.ok and np.isfinite(o.value)),
                key=lambda o: abs(o.value))
        calls = _lu_spy(monkeypatch)
        y, _ = left_eigenvector(p, o.value, o.x, rtol=1e-8, seed=0)
        assert calls == []
        np.testing.assert_array_equal(y, np.conj(o.x) / np.linalg.norm(o.x))
        assert _left_residual_ok(p, o.value, y, 1e-8)

    def test_non_symmetric_factors_once_as_without_x(self, monkeypatch):
        p = gen_random_pep(40, 2, seed=2)
        o = min((o for o in oracle_all_eigenpairs(p)
                 if o.ok and np.isfinite(o.value)),
                key=lambda o: abs(o.value))
        calls = _lu_spy(monkeypatch)
        y, _ = left_eigenvector(p, o.value, o.x, rtol=1e-8, seed=4)
        assert len(calls) == 1
        np.testing.assert_array_equal(
            y, left_eigenvector(p, o.value, rtol=1e-8, seed=4)[0])
        assert _left_residual_ok(p, o.value, y, 1e-8)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_rows_are_those_of_y(self, symmetric):
        # conj(x) passes for a complex symmetric problem; the other takes
        # the null vector of the LU
        p = gen_random_pep(20, 2, seed=3, symmetric=symmetric)
        o = min((o for o in oracle_all_eigenpairs(p)
                 if o.ok and np.isfinite(o.value)),
                key=lambda o: abs(o.value))
        y, rows = left_eigenvector(p, o.value, o.x, rtol=1e-8, seed=0)
        structured = np.array_equal(y, np.conj(o.x) / np.linalg.norm(o.x))
        assert structured == symmetric
        assert rows.shape == (3, 20)
        np.testing.assert_allclose(
            rows, [y.conj() @ A for A in p.coeffs], rtol=0, atol=1e-14)

    def test_ill_conditioned_hermitian_pair_takes_the_lu(self, monkeypatch):
        # A - lam B with A, B real symmetric and B indefinite: two real
        # eigenvalues +-1.41e-3 about to collide, kappa ~ 1.4e3; x carries
        # an error of 1e-4, so its residual passes rtol but residual * kappa
        # exceeds the 1e-2 guard
        d = 1e-6
        A = np.array([[1.0, 1.0 - d], [1.0 - d, 1.0]])
        B = np.diag([1.0, -1.0])
        p = PolyProblem([A, -B])
        w, V = sla.eig(A, B)
        k = int(np.argmax(w.real))
        lam = float(w[k].real)
        rng = np.random.default_rng(0)
        x = V[:, k] / np.linalg.norm(V[:, k])
        x = x + 1e-4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        x /= np.linalg.norm(x)
        scale = p.tolerance_scale(abs(lam))
        res = np.linalg.norm(p.eval(lam).conj().T @ x) / scale
        kappa = p.condition_number(lam, x, x)
        assert res <= 1e-3 and res * kappa > ERROR_BOUND_GUARD
        calls = _lu_spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = left_eigenvector(p, lam, x, rtol=1e-3, seed=0)
        assert len(calls) == 1
        np.testing.assert_array_equal(
            y, left_eigenvector(p, lam, rtol=1e-3, seed=0)[0])
        assert _left_residual_ok(p, lam, y, 1e-3)


class TestProjectedCorrection:
    def test_returns_orthogonal_correction(self):
        p = gen_random_pep(15, 2, seed=2)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        v /= np.linalg.norm(v)
        theta = 0.2 + 0.1j
        r = p.matvec(theta, v)
        t = projected_correction_solve(p, theta, v, r, steps=12)
        assert abs(np.vdot(v, t)) <= 1e-8 * np.linalg.norm(t)

    def test_exact_eigenvector_input_nearly_fixed(self):
        # at a converged pair the projected residual is tiny, so the
        # correction must not blow up
        p = gen_random_pep(10, 2, seed=4)
        o = min((o for o in oracle_all_eigenpairs(p)
                 if o.ok and np.isfinite(o.value)),
                key=lambda o: abs(o.value))
        r = p.matvec(o.value, o.x)
        t = projected_correction_solve(p, o.value, o.x, r, steps=10)
        assert np.linalg.norm(t) <= 1e-6


def gmres_lstsq_reference(A, b, tol, maxiter, M=None):
    """Right-preconditioned GMRES that solves the least-squares problem
    after every Arnoldi step (the form gmres had before it tracked the
    residual by Givens rotations)."""
    matvec = A if callable(A) else (lambda x: A @ x)
    psolve = None if M is None else M.solve
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    maxiter = min(maxiter, n)
    bnorm = np.linalg.norm(b)
    beta = bnorm
    V = np.empty((n, maxiter + 1), dtype=complex, order="F")
    H = np.zeros((maxiter + 1, maxiter), dtype=complex)
    V[:, 0] = b / beta
    e1 = np.zeros(maxiter + 1, dtype=complex)
    e1[0] = beta
    for k in range(maxiter):
        z = psolve(V[:, k]) if psolve is not None else V[:, k]
        w = matvec(z)
        Vk = V[:, : k + 1]
        h1 = (w.conj() @ Vk).conj()
        w = w - Vk @ h1
        h2 = (w.conj() @ Vk).conj()
        w = w - Vk @ h2
        H[: k + 1, k] = h1 + h2
        hnext = np.linalg.norm(w)
        H[k + 1, k] = hnext
        k_used = k + 1
        y = np.linalg.lstsq(H[: k + 2, : k + 1], e1[: k + 2], rcond=None)[0]
        relres = np.linalg.norm(e1[: k + 2] - H[: k + 2, : k + 1] @ y) / bnorm
        if hnext <= 1e-14 * max(1.0, beta):
            break
        V[:, k + 1] = w / hnext
        if relres <= tol:
            break
    u = V[:, :k_used] @ y
    if psolve is not None:
        u = psolve(u)
    return u, relres, k_used


class TestGmresRotations:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("maxiter", [1, 4, 12, 40])
    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    def test_iterate_bitwise_equal_to_per_step_lstsq(self, seed, maxiter, tol):
        A, b = random_system(40, seed, cond_boost=-4.0)
        x, relres, its = gmres(A, b, tol=tol, maxiter=maxiter)
        x_ref, relres_ref, its_ref = gmres_lstsq_reference(A, b, tol, maxiter)
        assert its == its_ref
        assert np.array_equal(x, x_ref)
        assert relres == relres_ref

    @pytest.mark.parametrize("seed", range(4))
    def test_preconditioned_bitwise_equal(self, seed):
        A, b = random_system(30, seed)
        rng = np.random.default_rng(seed + 50)
        M = LuPreconditioner(A + 0.5 * (rng.standard_normal((30, 30))
                                        + 1j * rng.standard_normal((30, 30))))
        x, _, its = gmres(A, b, tol=1e-9, maxiter=15, M=M)
        x_ref, _, its_ref = gmres_lstsq_reference(A, b, 1e-9, 15, M=M)
        assert its == its_ref
        assert np.array_equal(x, x_ref)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 0.0])
    def test_returned_relres_is_true_residual(self, seed, tol):
        A, b = random_system(40, seed, cond_boost=-4.0)
        x, relres, _ = gmres(A, b, tol=tol, maxiter=40)
        true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert abs(relres - true) <= 1e-10

    def test_no_vdot_per_basis_vector(self, monkeypatch):
        calls = []
        real_vdot = np.vdot

        def vdot(*args):
            calls.append(1)
            return real_vdot(*args)

        monkeypatch.setattr(np, "vdot", vdot)
        A, b = random_system(30, 1)
        _, _, its = gmres(A, b, tol=1e-12, maxiter=20, M=LuPreconditioner(A))
        assert its > 0
        _, _, its = gmres(A, b, tol=1e-12, maxiter=20)
        assert its == 20
        assert calls == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("maxiter", [1, 12, 40])
    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    def test_zero_atol_bitwise_equal_to_per_step_lstsq(self, seed, maxiter,
                                                       tol):
        A, b = random_system(40, seed, cond_boost=-4.0)
        x, relres, its = gmres(A, b, tol=tol, maxiter=maxiter, atol=0.0)
        x_ref, relres_ref, its_ref = gmres_lstsq_reference(A, b, tol, maxiter)
        assert its == its_ref
        assert np.array_equal(x, x_ref)
        assert relres == relres_ref

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("precondition", [False, True])
    def test_atol_stops_at_the_first_step_below_it(self, seed, precondition):
        # the residual norms of the k-step iterates, k = 1, 2, ...: an atol
        # between those of steps 5 and 6 stops GMRES after step 6
        A, b = random_system(40, seed, cond_boost=-4.0)
        M = None
        if precondition:
            rng = np.random.default_rng(seed + 50)
            M = LuPreconditioner(A + 2.0 * rng.standard_normal((40, 40)))
        norms = [np.linalg.norm(b - A @ gmres(A, b, tol=0.0, maxiter=k,
                                              M=M)[0])
                 for k in range(1, 12)]
        assert norms[5] < norms[4]
        atol = math.sqrt(norms[4] * norms[5])
        x, relres, its = gmres(A, b, tol=0.0, maxiter=40, M=M, atol=atol)
        assert its == 6
        assert np.linalg.norm(b - A @ x) <= atol
        assert np.array_equal(x, gmres(A, b, tol=0.0, maxiter=6, M=M)[0])
        # the relative test still stops it first when it is looser
        assert norms[3] < norms[2]
        tol = math.sqrt(norms[2] * norms[3]) / np.linalg.norm(b)
        _, _, its = gmres(A, b, tol=tol, maxiter=40, M=M, atol=atol)
        assert its == 4

    def test_full_space_residual_reaches_rounding_level(self):
        A, b = random_system(12, 3)
        x, relres, its = gmres(A, b, tol=0.0, maxiter=12)
        assert its == 12
        assert relres <= 1e-12
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


class TestDerivativeProduct:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("theta", [0.0, 0.4 - 1.3j, 7.0 + 2.0j])
    def test_standard_matches_derivative_matrix(self, m, theta):
        p = gen_random_pep(20, m, seed=m)
        v = np.random.default_rng(m).standard_normal(20) + 0.5j
        _, w = p.weights(theta)
        got = linsolve._weighted_matvec(p.coeffs, w, v)
        want = p.derivative(theta) @ v
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("pt", [hom.from_scalar(0.3 - 2.0j),
                                    hom.ProjectivePoint(1.0, 0.0),
                                    hom.ProjectivePoint(0.8j, 0.1)])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_homogeneous_matches_hom_D(self, pt, sparse):
        p = gen_gyroscopic(30, seed=2) if sparse else gen_random_pep(20, 3, seed=5)
        v = np.random.default_rng(7).standard_normal(p.n) + 0.25j
        _, w = p.weights(pt)
        got = linsolve._weighted_matvec(p.coeffs, w, v)
        want = hom.hom_D(p, pt) @ v
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_correction_forms_no_derivative_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("derivative matrix formed")

        p = gen_random_pep(15, 2, seed=2)
        monkeypatch.setattr(type(p), "derivative", forbidden)
        monkeypatch.setattr(hom, "hom_D", forbidden)
        v = np.random.default_rng(3).standard_normal(15) + 0j
        v /= np.linalg.norm(v)
        for theta in (0.2 + 0.1j, hom.from_scalar(0.2 + 0.1j)):
            r = p.matvec(theta, v)
            t = projected_correction_solve(p, theta, v, r, steps=8)
            assert np.all(np.isfinite(t))


class TestGivens:
    @pytest.mark.parametrize("a, b", [(3.0 - 4.0j, 2.0), (0.0j, 5.0),
                                      (1.0 + 1.0j, 0.0), (0.0j, 0.0)])
    def test_rotation_is_unitary_and_zeroes_b(self, a, b):
        c, s = linsolve._givens(a, b)
        G = np.array([[c, s], [-np.conj(s), c]])
        np.testing.assert_allclose(G @ G.conj().T, np.eye(2), atol=1e-15)
        r = G @ np.array([a, b])
        assert abs(r[1]) <= 1e-15

    def test_singular_operator_keeps_residual(self):
        # A maps the second Krylov direction to zero: the least-squares
        # residual after that step equals the one before it
        A = np.diag([1.0, 0.0]).astype(complex)
        b = np.array([1.0, 1.0], dtype=complex)
        x, relres, its = gmres(A, b, tol=0.0, maxiter=2)
        want = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        np.testing.assert_allclose(relres, want, rtol=1e-12)


def factor_correction_reference(Tmat, v, r, steps, M):
    """The multiparameter solver's former per-factor correction, kept as the
    reference: (I - v v*) T (I - v v*) t = -r, t orthogonal to v."""

    def proj(s):
        return s - v * np.vdot(v, s)

    def op(s):
        return proj(Tmat @ proj(s))

    psolve = None
    if M is not None:
        q = M.solve(v)
        vq = np.vdot(v, q)
        oblique = abs(vq) > 1e-14 * np.linalg.norm(q)

        def psolve(z):
            w = M.solve(z)
            if oblique:
                w = w - q * (np.vdot(v, w) / vq)
            return w

    rhs = -proj(r)
    t, _, _ = gmres(op, rhs, tol=1e-6, maxiter=steps, M=psolve)
    return proj(t)


class TestCorrectionSolve:
    """_correction_solve with p = v is the symmetric projected correction
    of the multiparameter solver."""

    @staticmethod
    def system(n, seed, real):
        rng = np.random.default_rng(seed)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x if real else x + 1j * rng.standard_normal(shape)

        T = draw(n, n) + np.sqrt(n) * np.eye(n)
        v = draw(n)
        return T, v / np.linalg.norm(v), draw(n), T + 0.3 * draw(n, n)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("precondition", [False, True])
    def test_matches_the_factor_correction(self, real, precondition):
        T, v, r, P = self.system(25, 11, real)
        M = LuPreconditioner(P) if precondition else None
        got = linsolve._correction_solve(T, v, v, r, 8, M)
        want = factor_correction_reference(T, v, r, 8, M)
        assert got.dtype == (np.float64 if real else np.complex128)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert abs(np.vdot(v, got)) <= 1e-12 * np.linalg.norm(got)

    @pytest.mark.parametrize("precondition", [False, True])
    def test_atol_is_forwarded_to_gmres(self, monkeypatch, precondition):
        T, v, r, P = self.system(25, 11, False)
        M = LuPreconditioner(P) if precondition else None
        seen = []
        real_gmres = linsolve.gmres

        def spy(*args, **kwargs):
            out = real_gmres(*args, **kwargs)
            seen.append((kwargs["atol"], out[2]))
            return out

        monkeypatch.setattr(linsolve, "gmres", spy)

        def residual(t):
            # of the projected equation, for t orthogonal to v
            w = T @ t + r
            return np.linalg.norm(w - v * np.vdot(v, w))

        three, four = (linsolve._correction_solve(T, v, v, r, k, M, tol=0.0)
                       for k in (3, 4))
        assert residual(four) < residual(three)
        atol = math.sqrt(residual(three) * residual(four))
        early = linsolve._correction_solve(T, v, v, r, 8, M, tol=0.0,
                                           atol=atol)
        assert seen == [(0.0, 3), (0.0, 4), (atol, 4)]
        assert np.array_equal(early, four)

    def test_projected_correction_forwards_atol(self, monkeypatch):
        p = gen_random_pep(12, 2, seed=3)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v /= np.linalg.norm(v)
        seen = []
        monkeypatch.setattr(linsolve, "_correction_solve",
                            lambda *args: seen.append(args) or v)
        projected_correction_solve(p, 0.3, v, p.matvec(0.3, v), steps=5,
                                   atol=2.5e-3)
        assert seen[0][-1] == 2.5e-3

    def test_preconditioner_projection_test_is_relative(self):
        # M^-1 maps v to w, orthogonal to v but for 1e-16 of it: |v* q| is
        # far above 1e-300 but below 1e-14 ||q||, so M is applied
        # unprojected, as in the reference, instead of dividing by a
        # rounding-size number
        T, v, r, _ = self.system(20, 12, False)
        w = np.random.default_rng(13).standard_normal(20) + 0j
        w -= v * np.vdot(v, w)
        w = w / np.linalg.norm(w) + 1e-16 * v
        M = SimpleNamespace(solve=lambda z: z + (w - v) * np.vdot(v, z))
        q = M.solve(v)
        assert 1e-300 < abs(np.vdot(v, q)) <= 1e-14 * np.linalg.norm(q)
        got = linsolve._correction_solve(T, v, v, r, 8, M)
        want = factor_correction_reference(T, v, r, 8, M)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
