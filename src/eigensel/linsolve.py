"""Inner linear solvers: GMRES, correction equations, and null vectors.

Everything here is desk-scale friendly but keeps the large-scale shape: the
operators may be dense arrays, sparse matrices, or matvec callables, and the
preconditioner is an LU factorization of the problem evaluated at the target
(applied as the explicit inverse formed from it when the matrix is dense).

The three consumers are

* the Jacobi-Davidson correction equation
  (I - p v* / (v* p)) P(theta) t = -r with t orthogonal to v and
  p = P'(theta) v, solved by a few steps of right-preconditioned GMRES
  whose Arnoldi basis is orthogonalized by classical Gram-Schmidt run
  twice (CGS2), a few BLAS-2 calls per step.
  P(theta) is formed once per solve and applied in every GMRES step;
  P'(theta) is never formed, p is the weighted sum of the products A_i v;
* null vectors of (almost) singular matrices, used to obtain left
  eigenvectors from F(lam)* y = 0 once a right eigenpair has converged;
* plain preconditioned solves.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import homogeneous as hom
from .problems import dd_weights, norm1

__all__ = [
    "LuPreconditioner",
    "lu_preconditioner",
    "gmres",
    "projected_correction_solve",
    "null_vector",
    "left_eigenvector",
    "NullVectorError",
]


class NullVectorError(RuntimeError):
    """null_vector could not reach the requested ||Z y|| tolerance."""


def _as_matvec(A):
    """Return a matvec callable for an array, sparse matrix, or callable."""
    if callable(A) and not hasattr(A, "shape"):
        return A
    return lambda x: A @ x


def _as_psolve(M):
    """Return an apply-inverse callable for a preconditioner argument."""
    if M is None:
        return None
    if hasattr(M, "solve"):
        return M.solve
    return M


def _lu_factor(A):
    """(LU factors, regularized) of a sparse (splu) or dense (lu_factor) A.

    The factors are real for a real A and complex otherwise.  An exactly
    singular A is factored with a diagonal regularization of 1e-14 times
    its 1-norm instead, and regularized is then True.
    """
    if sp.issparse(A):
        A = A.tocsc()
        try:
            return spla.splu(A), False
        except RuntimeError:
            delta = 1e-14 * max(norm1(A), 1e-300)
            eye = sp.eye_array(A.shape[0], format="csc")
            return spla.splu(A + delta * eye), True
    A = np.asarray(A)
    A = A.astype(np.result_type(A, float), copy=False)
    with warnings.catch_warnings():
        # exact singularity is handled below, scipy need not shout
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(A, check_finite=False)
    d = np.abs(np.diag(lu))
    if d.size and d.min() == 0.0:
        delta = 1e-14 * max(norm1(A), 1e-300)
        return sla.lu_factor(A + delta * np.eye(A.shape[0]),
                             check_finite=False), True
    return (lu, piv), False


def _field_solve(solve, dtype, b):
    """solve(b) for factors of the given dtype; a complex b against real
    factors is solved as its real and imaginary parts."""
    b = np.asarray(b)
    if dtype.kind == "f" and np.iscomplexobj(b):
        return solve(b.real) + 1j * solve(b.imag)
    return solve(b.astype(np.result_type(b, dtype), copy=False))


class LuPreconditioner:
    """LU factorization of a matrix, used as an (exact) preconditioner.

    Sparse matrices are factored by scipy.sparse.linalg.splu and solved
    through the factors.  Dense ones are factored by scipy.linalg.lu_factor
    and the inverse is formed once from the factors (LAPACK getri) and kept
    in their place, so a solve is one matrix-vector product rather than two
    triangular solves, which LAPACK runs as unblocked level-2 calls.  A real
    matrix keeps real factors (getri picks dgetri or zgetri), and a complex
    right-hand side is then solved as its real and imaginary parts.  An
    exactly singular matrix gets a tiny diagonal regularization (1e-14 times
    the 1-norm) so that factorization and solves stay finite; for eigenvalue
    targets this happens only when the target is itself an eigenvalue, in
    which case shifting the target slightly is the better fix (mentioned in
    the raised warning).
    """

    def __init__(self, A):
        self._sparse = sp.issparse(A)
        self.shape = A.shape
        lu, regularized = _lu_factor(A)
        self.dtype = (np.result_type(A.dtype, float) if self._sparse
                      else lu[0].dtype)
        if regularized:
            warnings.warn(
                "matrix is exactly singular; factoring with a 1e-14 diagonal "
                "regularization (if this is an eigenvalue target, shift it "
                "slightly)",
                stacklevel=2,
            )
        if self._sparse:
            self._lu = lu
        else:
            getri, getri_lwork = sla.get_lapack_funcs(
                ("getri", "getri_lwork"), (lu[0],))
            lwork = int(getri_lwork(A.shape[0])[0].real)
            self._inv, info = getri(*lu, lwork=lwork, overwrite_lu=True)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"{getri.typecode}getri failed with info = {info}")

    def solve(self, b, adjoint=False):
        if self._sparse:
            trans = "H" if adjoint else "N"
            return _field_solve(lambda c: self._lu.solve(c, trans=trans),
                                self.dtype, b)
        inv = self._inv.conj().T if adjoint else self._inv
        return _field_solve(lambda c: inv @ c, self.dtype, b)

    def __call__(self, b):
        return self.solve(b)


def lu_preconditioner(problem, target):
    """LU of the problem evaluated at the target (scalar or projective)."""
    if isinstance(target, hom.ProjectivePoint):
        A = hom.hom_eval(problem, hom.scale_canonical(target))
    else:
        A = problem.eval(complex(target))
    return LuPreconditioner(A)


def gmres(A, b, x0=None, tol=1e-8, maxiter=None, M=None):
    """Right-preconditioned GMRES (single cycle, no restarts).

    Solves A x = b to a relative residual tol, or stops after maxiter Arnoldi
    steps.  M is applied as a right preconditioner: the Krylov space is built
    for A M^{-1} and the returned x is M^{-1} of the inner solution, so
    reported residuals are true residuals of the original system.

    The Arnoldi basis V is stored column-major and each new direction is
    orthogonalized against it by classical Gram-Schmidt run twice (CGS2):
    two projections V^H w and two updates w - V h, four BLAS-2 calls per
    step, which keep V as orthogonal as modified Gram-Schmidt with
    reorthogonalization does (Giraud, Langou & Rozloznik, Comput. Math.
    Appl. 50, 2005).

    The residual norm of each step's least-squares solution, which decides
    when to stop, is tracked by Givens rotations applied to the Hessenberg
    matrix H; the small least-squares problem min ||beta e_1 - H y|| is
    solved once, after the last step, and gives x and the returned relres.

    The iteration runs in the dtype of b, x0, and of A and M where they
    carry one: real for real input, complex otherwise.  A callable A or M
    must keep a real vector real when that dtype is real.

    Returns (x, relres, iterations); the residual sequence is monotone
    because each iterate minimizes over a growing Krylov space.
    """
    matvec = _as_matvec(A)
    psolve = _as_psolve(M)
    b = np.asarray(b)
    dtype = np.result_type(b, float, *(X.dtype for X in (x0, A, M)
                                       if hasattr(X, "dtype")))
    b = b.astype(dtype, copy=False)
    n = b.shape[0]
    if maxiter is None:
        maxiter = n
    maxiter = min(maxiter, n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0

    if x0 is None:
        x0 = np.zeros_like(b)
        r0 = b.copy()
    else:
        x0 = np.asarray(x0, dtype=dtype)
        r0 = b - matvec(x0)
    beta = np.linalg.norm(r0)
    if beta <= tol * bnorm:
        return x0, beta / bnorm, 0

    V = np.empty((n, maxiter + 1), dtype=dtype, order="F")
    H = np.zeros((maxiter + 1, maxiter), dtype=dtype)
    V[:, 0] = r0 / beta
    e1 = np.zeros(maxiter + 1, dtype=dtype)
    e1[0] = beta
    # rotation j is [[cs[j], sn[j]], [-conj(sn[j]), cs[j]]] on rows j, j+1;
    # g is the last entry of beta e_1 rotated, |g| the residual norm of the
    # least-squares solution after the current step
    cs, sn = [], []
    g = beta + 0.0j

    k_used = 0
    for k in range(maxiter):
        z = psolve(V[:, k]) if psolve is not None else V[:, k]
        w = matvec(z)
        # classical Gram-Schmidt, run twice (CGS2); V^H w as conj(w^H V)
        Vk = V[:, : k + 1]
        h1 = (w.conj() @ Vk).conj()
        w = w - Vk @ h1
        h2 = (w.conj() @ Vk).conj()
        w = w - Vk @ h2
        H[: k + 1, k] = h1 + h2
        hnext = np.linalg.norm(w)
        H[k + 1, k] = hnext
        k_used = k + 1
        h = H[: k + 1, k].tolist()
        for j in range(k):
            h[j], h[j + 1] = (cs[j] * h[j] + sn[j] * h[j + 1],
                              cs[j] * h[j + 1] - sn[j].conjugate() * h[j])
        c, s = _givens(h[k], float(hnext))
        cs.append(c)
        sn.append(s)
        g = -s.conjugate() * g
        relres = abs(g) / bnorm
        if hnext <= 1e-14 * max(1.0, beta):
            break  # happy breakdown: solution is exact in the Krylov space
        V[:, k + 1] = w / hnext
        if relres <= tol:
            break
    Hk, gk = H[: k_used + 1, :k_used], e1[: k_used + 1]
    y = np.linalg.lstsq(Hk, gk, rcond=None)[0]
    relres = np.linalg.norm(gk - Hk @ y) / bnorm
    u = V[:, :k_used] @ y
    if psolve is not None:
        u = psolve(u)
    return x0 + u, float(relres), k_used


def _givens(a, b):
    """(c, s) with [[c, s], [-conj(s), c]] (a, b) = (r, 0); c real, b >= 0.

    a = b = 0 gets the swap (c, s) = (0, 1): the residual norm carried to
    the next row is then unchanged, as it must be for a zero column.
    """
    if a == 0.0:
        return 0.0, 1.0 + 0.0j
    if b == 0.0:
        return 1.0, 0.0j
    t = math.hypot(abs(a), b)
    return abs(a) / t, (a / abs(a)) * (b / t)


def _weighted_matvec(coeffs, w, x):
    """(sum_i w[i] coeffs[i]) @ x from the products coeffs[i] @ x."""
    acc = np.zeros(x.shape, dtype=complex)
    for wi, A in zip(w, coeffs):
        if wi != 0.0:
            acc += wi * (A @ x)
    return acc


def _theta_eval(problem, theta):
    """(F(theta), weights w of F'(theta) = sum_i w[i] A_i, residual scale).

    theta is a scalar (F = P, F' = P') or a ProjectivePoint (the homogeneous
    evaluation and DP at its canonical representative).
    """
    m = problem.degree
    if isinstance(theta, hom.ProjectivePoint):
        p = hom.scale_canonical(theta)
        return (hom.hom_eval(problem, p), hom.hom_D_weights(m, p),
                hom.hom_tolerance_scale(problem, p))
    theta = complex(theta)
    return (problem.eval(theta), dd_weights(m, theta, theta),
            problem.tolerance_scale(abs(theta)))


def projected_correction_solve(problem, theta, v, r, steps=10, M=None, tol=1e-6):
    """Jacobi-Davidson correction equation at a Ritz pair (theta, v).

    Solves (I - p v*/(v* p)) F(theta) t = -r for t orthogonal to v, where
    p = F'(theta) v, with at most `steps` GMRES iterations.  F(theta) is
    formed once and applied in every GMRES step; p is sum_i w[i] (A_i v)
    with the derivative weights w (dd_weights at (theta, theta), or
    hom_D_weights), so F'(theta) is never formed.  The
    preconditioner M (an LU at the target) is wrapped with the standard
    projected form so preconditioned iterates stay in the complement of v.
    In homogeneous mode theta is a ProjectivePoint and the homogeneous
    evaluation/derivative take the roles of F(theta) and F'(theta).

    Degenerate v* F'(theta) v (below 1e-14 of ||p||) falls back to a plain
    preconditioned residual step, projected against v.
    """
    v = np.asarray(v, dtype=complex)
    r = np.asarray(r, dtype=complex)
    Fmat, dw, _ = _theta_eval(problem, theta)
    p = _weighted_matvec(problem.coeffs, dw, v)
    vp = np.vdot(v, p)
    psolve = _as_psolve(M)

    def _proj_v(z):
        return z - v * np.vdot(v, z)

    if abs(vp) <= 1e-14 * np.linalg.norm(p):
        t = psolve(-r) if psolve is not None else -r
        return _proj_v(t)

    def op(s):
        w = Fmat @ _proj_v(s)
        return w - p * (np.vdot(v, w) / vp)

    rhs = -(r - p * (np.vdot(v, r) / vp))

    Mproj = None
    if psolve is not None:
        q = psolve(p)
        vq = np.vdot(v, q)
        if abs(vq) > 1e-300:
            def Mproj(z):
                w = psolve(z)
                return w - q * (np.vdot(v, w) / vq)
        else:
            Mproj = psolve

    t, _, _ = gmres(op, rhs, tol=tol, maxiter=steps, M=Mproj)
    return _proj_v(t)


def _direct_solver(Z):
    """Factor Z once and return b -> Z^{-1} b (regularized if singular).

    Solves go through the LU factors: a null vector takes only a few solves
    per factorization, and inverse iteration near a singular matrix wants
    triangular solves, not an explicit inverse.  Exact singularity is the
    expected case here (null vectors of singular matrices are the whole
    purpose), so it is regularized without the warning LuPreconditioner
    emits.
    """
    lu, _ = _lu_factor(Z)
    if sp.issparse(Z):
        dtype = np.result_type(Z.dtype, float)
        return lambda b: _field_solve(lu.solve, dtype, b)
    return lambda b: _field_solve(
        lambda c: sla.lu_solve(lu, c, check_finite=False), lu[0].dtype, b)


def null_vector(Z, tol, y0=None, solve=None, M=None, seed=0, gmres_steps=200,
                retries=3):
    """Approximate null vector of an (almost) singular matrix Z.

    First pass: b = Z y0 / ||Z y0||, solve Z x = b approximately, and
    normalize the difference y = (x - y0)/||x - y0||; the inexactness of the
    inner solve surfaces the near-null direction.  When the inner solve is
    (close to) exact, x is parallel to y0 and the difference carries no null
    information, so on failure of the ||Z y|| <= tol check the retries solve
    against fresh seeded random right-hand sides instead (inverse iteration,
    whose solutions are dominated by the null direction).  The best candidate
    over all attempts is kept.

    Z may be an array, sparse matrix, or matvec callable (then an inner
    `solve` callable or preconditioner M for the internal GMRES must make the
    solves possible).  tol is an absolute bound on ||Z y|| for unit y; pick
    it relative to the scale of Z.  Raises NullVectorError if no attempt
    reaches tol.
    """
    matvec = _as_matvec(Z)
    if solve is None:
        if hasattr(Z, "shape"):
            solve = _direct_solver(Z)
        else:
            def solve(b):
                x, _, _ = gmres(matvec, b, tol=min(tol, 1e-8),
                                maxiter=gmres_steps, M=M)
                return x

    if hasattr(Z, "shape"):
        n = Z.shape[0]
    else:
        n = np.asarray(y0).shape[0]
    rng = np.random.default_rng(seed)

    def _random_unit():
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return w / np.linalg.norm(w)

    if y0 is None:
        y0 = _random_unit()
    else:
        y0 = np.asarray(y0, dtype=complex)
        y0 = y0 / np.linalg.norm(y0)

    best = None
    best_res = np.inf

    def _consider(y):
        nonlocal best, best_res
        ny = np.linalg.norm(y)
        if ny == 0.0 or not np.isfinite(ny):
            return False
        y = y / ny
        res = np.linalg.norm(matvec(y))
        if res < best_res:
            best, best_res = y, res
        return res <= tol

    # Step 1-3 with the given starting vector.
    b = matvec(y0)
    nb = np.linalg.norm(b)
    if nb <= tol:
        return y0  # y0 is already a null vector at the requested level
    if _consider(solve(b / nb) - y0):
        return best

    # Retries: fresh right-hand sides, null direction amplified by Z^{-1}.
    for _ in range(retries):
        if _consider(solve(_random_unit())):
            return best

    if best_res <= tol:
        return best
    raise NullVectorError(
        f"null vector stagnated: best ||Z y|| = {best_res:.3e} > tol = {tol:.3e}"
    )


def left_eigenvector(problem, theta, rtol=1e-8, M=None, seed=0):
    """Left eigenvector y with F(theta)* y ~ 0 for a converged eigenvalue.

    theta may be a scalar or a ProjectivePoint (for homogeneous solves,
    including the infinite eigenvalue).  The null vector tolerance is rtol
    times the residual scale sum_i |theta|^i ||A_i||_1 (its homogeneous
    analogue for projective theta).  At desk scale the inner solves use one
    LU factorization of F(theta)*; a preconditioner M is only consulted when
    F(theta) is not materializable.
    """
    F, _, scale = _theta_eval(problem, theta)
    Z = F.conj().T
    if sp.issparse(Z):
        Z = Z.tocsr()
    return null_vector(Z, tol=rtol * scale, M=M, seed=seed)
