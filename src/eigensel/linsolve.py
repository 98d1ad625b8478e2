"""Inner linear solvers: GMRES, correction equations, and null vectors.

Everything here is desk-scale friendly but keeps the large-scale shape: the
operators may be dense arrays, sparse matrices, or matvec callables, and the
preconditioner is an LU factorization of the problem evaluated at the target
(applied as the explicit inverse formed from it when the matrix is dense).

The consumers are

* the Jacobi-Davidson correction equation of both solvers, solved by
  _correction_solve with a few steps of right-preconditioned GMRES whose
  Arnoldi basis is orthogonalized by classical Gram-Schmidt run twice
  (CGS2), a few BLAS-2 calls per step: jd_solve's through
  projected_correction_solve, which never forms P'(theta), and
  mep_subspace_solve's once per factor;
* left eigenvectors of jd_solve's converged pairs (left_eigenvector):
  the right vector x or conj(x) where F(lam) is Hermitian or complex
  symmetric at lam and the pair well conditioned, with no factorization,
  otherwise a null vector of F(lam)* from one LU;
* null vectors of (almost) singular matrices (null_vector), which also
  give mep_subspace_solve's per-factor left vectors, and the direct solves
  of verify's local eigenvalue check (_direct_solver);
* plain preconditioned solves.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import homogeneous as hom
from .problems import IllConditionedError, dd_weights, norm1

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

    def solve(self, b):
        if self._sparse:
            return _field_solve(self._lu.solve, self.dtype, b)
        return _field_solve(lambda c: self._inv @ c, self.dtype, b)


def lu_preconditioner(problem, target):
    """LU of the problem evaluated at the target (scalar or projective).

    An infinite scalar target is the point (1, 0), where the homogeneous
    evaluation is A_m; P(inf) as a scalar evaluation has no finite entries.
    """
    if not isinstance(target, hom.ProjectivePoint) and cmath.isinf(target):
        target = hom.from_scalar(math.inf)
    if isinstance(target, hom.ProjectivePoint):
        A = hom.hom_eval(problem, hom.scale_canonical(target))
    else:
        A = problem.eval(complex(target))
    return LuPreconditioner(A)


def gmres(A, b, tol=1e-8, maxiter=None, M=None):
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

    The iteration runs in the dtype of b, and of A and M where they
    carry one: real for real input, complex otherwise.  A callable A or M
    must keep a real vector real when that dtype is real.

    Returns (x, relres, iterations); the residual sequence is monotone
    because each iterate minimizes over a growing Krylov space.
    """
    matvec = _as_matvec(A)
    psolve = _as_psolve(M)
    b = np.asarray(b)
    dtype = np.result_type(b, float, *(X.dtype for X in (A, M)
                                       if hasattr(X, "dtype")))
    b = b.astype(dtype, copy=False)
    n = b.shape[0]
    if maxiter is None:
        maxiter = n
    maxiter = min(maxiter, n)
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0.0, 0

    V = np.empty((n, maxiter + 1), dtype=dtype, order="F")
    H = np.zeros((maxiter + 1, maxiter), dtype=dtype)
    V[:, 0] = b / beta
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
        relres = abs(g) / beta
        if hnext <= 1e-14 * max(1.0, beta):
            break  # happy breakdown: solution is exact in the Krylov space
        V[:, k + 1] = w / hnext
        if relres <= tol:
            break
    Hk, gk = H[: k_used + 1, :k_used], e1[: k_used + 1]
    y = np.linalg.lstsq(Hk, gk, rcond=None)[0]
    relres = np.linalg.norm(gk - Hk @ y) / beta
    u = V[:, :k_used] @ y
    if psolve is not None:
        u = psolve(u)
    return u, float(relres), k_used


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


def _theta_weights(problem, theta):
    """(theta, weights of F(theta), weights of F'(theta), residual scale).

    F(theta) = sum_i w[i] A_i for the returned weights w, and likewise
    F'(theta).  theta is a scalar (F = P, F' = P') or a ProjectivePoint
    (the homogeneous evaluation and DP), which is returned as its
    canonical representative, the point all of them are taken at.
    """
    m = problem.degree
    if isinstance(theta, hom.ProjectivePoint):
        p = hom.scale_canonical(theta)
        return (p, hom.hom_weights(m, p), hom.hom_D_weights(m, p),
                hom.hom_tolerance_scale(problem, p))
    theta = complex(theta)
    return (theta, theta ** np.arange(m + 1), dd_weights(m, theta, theta),
            problem.tolerance_scale(abs(theta)))


def _theta_eval(problem, theta):
    """(F(theta), weights w of F'(theta) = sum_i w[i] A_i, residual scale),
    with F(theta) assembled (Horner for a scalar theta)."""
    theta, _, dw, scale = _theta_weights(problem, theta)
    if isinstance(theta, hom.ProjectivePoint):
        return hom.hom_eval(problem, theta), dw, scale
    return problem.eval(theta), dw, scale


def projected_correction_solve(problem, theta, v, r, steps=10, M=None, tol=1e-6):
    """Jacobi-Davidson correction equation at a Ritz pair (theta, v).

    Forms F(theta) and p = F'(theta) v and solves the projected equation by
    _correction_solve, in complex arithmetic.  p is sum_i w[i] (A_i v) with
    the derivative weights w (dd_weights at (theta, theta), or
    hom_D_weights), so F'(theta) is never formed.  In homogeneous mode
    theta is a ProjectivePoint and the homogeneous evaluation/derivative
    take the roles of F(theta) and F'(theta).
    """
    v = np.asarray(v, dtype=complex)
    r = np.asarray(r, dtype=complex)
    Fmat, dw, _ = _theta_eval(problem, theta)
    p = _weighted_matvec(problem.coeffs, dw, v)
    return _correction_solve(Fmat, p, v, r, steps, M, tol)


def _correction_solve(F, p, v, r, steps, M, tol=1e-6):
    """Solve (I - p v*/(v* p)) F (I - v v*) t = -(I - p v*/(v* p)) r, t
    orthogonal to the unit vector v, by at most `steps` GMRES iterations.

    jd_solve's correction takes p = F'(theta) v; mep_subspace_solve's
    per-factor correction takes F = T_i(lam) and p = v, the orthogonal
    projector on both sides.  F is applied in every GMRES step.  The
    preconditioner M (an LU at the target) is wrapped with the projected
    form M^-1 - q v* M^-1 / (v* q), q = M^-1 p, so preconditioned iterates
    stay in the complement of v, unless |v* q| <= 1e-14 ||q||.  A
    degenerate v* p (below 1e-14 of ||p||) falls back to a plain
    preconditioned residual step, projected against v.  The arithmetic
    follows the input: real F, p, v, r and M give a real t.
    """
    vp = np.vdot(v, p)
    psolve = _as_psolve(M)

    def _proj_v(z):
        return z - v * np.vdot(v, z)

    if abs(vp) <= 1e-14 * np.linalg.norm(p):
        t = psolve(-r) if psolve is not None else -r
        return _proj_v(t)

    def op(s):
        w = F @ _proj_v(s)
        return w - p * (np.vdot(v, w) / vp)

    rhs = -(r - p * (np.vdot(v, r) / vp))

    Mproj = psolve
    if psolve is not None:
        q = psolve(p)
        vq = np.vdot(v, q)
        if abs(vq) > 1e-14 * np.linalg.norm(q):
            def Mproj(z):
                w = psolve(z)
                return w - q * (np.vdot(v, w) / vq)

    t, _, _ = gmres(op, rhs, tol=tol, maxiter=steps, M=Mproj)
    return _proj_v(t)


def _direct_solver(Z):
    """(b -> Z^{-1} b, regularized) from one LU of Z.

    Solves go through the LU factors: a null vector takes only a few solves
    per factorization, and inverse iteration near a singular matrix wants
    triangular solves, not an explicit inverse.  Exact singularity is the
    expected case here (null vectors of singular matrices are the whole
    purpose), so it is regularized without the warning LuPreconditioner
    emits; regularized says whether it was.
    """
    lu, regularized = _lu_factor(Z)
    if sp.issparse(Z):
        dtype = np.result_type(Z.dtype, float)
        return lambda b: _field_solve(lu.solve, dtype, b), regularized
    return (lambda b: _field_solve(
        lambda c: sla.lu_solve(lu, c, check_finite=False), lu[0].dtype, b),
        regularized)


# Seeded random right-hand sides null_vector solves against.
_NULL_RETRIES = 3


def null_vector(Z, tol, seed=0):
    """Approximate null vector of an (almost) singular matrix Z.

    Solves Z y = b for up to _NULL_RETRIES seeded random right-hand sides
    b, one step of inverse iteration each: the solution is dominated
    by the near-null direction, so the first normalized y with
    ||Z y|| <= tol is returned.

    Z is a dense array or a sparse matrix; every solve goes through one LU
    factorization of it.  tol is an absolute bound on ||Z y|| for unit y;
    pick it relative to the scale of Z.  Raises NullVectorError if no
    attempt reaches tol.
    """
    solve, _ = _direct_solver(Z)
    n = Z.shape[0]
    rng = np.random.default_rng(seed)
    best_res = np.inf
    for _ in range(_NULL_RETRIES):
        y = solve(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ny = np.linalg.norm(y)
        if ny == 0.0 or not np.isfinite(ny):
            continue
        y = y / ny
        res = np.linalg.norm(Z @ y)
        if res <= tol:
            return y
        best_res = min(best_res, res)

    raise NullVectorError(
        f"null vector stagnated: best ||Z y|| = {best_res:.3e} > tol = {tol:.3e}"
    )


# Largest relative left residual times the condition number of theta at
# which x or conj(x) is taken as the left eigenvector without a
# factorization: eta / 10 for the recommended criterion threshold
# eta = 0.1 (selection.RECOMMENDED_ETA).
_STRUCTURED_LEFT_GUARD = 1e-2


def _structured_left(problem, theta, x, rtol):
    """The unit x or conj(x) if it is a left eigenvector at theta, else None.

    If F(theta) is Hermitian (the gyroscopic Q(i omega) = -omega^2 A +
    i omega B + C with real symmetric A, C and real skew B), the right
    eigenvector x is also the left one; if every A_i is complex symmetric,
    F(theta)^T = F(theta) and conj(x) is (Tisseur & Meerbergen, SIAM Rev.
    43, 2001).  Neither is assumed: each candidate y must pass two tests,
    both computed from the rows y* A_i and the weights of F(theta) and
    F'(theta), so F(theta) is never assembled and no A_i* is formed:

    * the null-vector test of null_vector, ||F(theta)* y|| <= rtol * scale;
    * the guard ||F(theta)* y|| / scale * kappa(theta) <=
      _STRUCTURED_LEFT_GUARD, kappa the condition number of
      PolyProblem._condition or hom._hom_condition with the denominator
      |y* F'(theta) x|.  A small residual is not enough near a defective
      eigenvalue: there x can be far from the left vector, and the
      registered rows y* A_i then block every later candidate.  On
      gen_gyroscopic(200) at target 80i the near-infinite pair 26101i has
      product 0.14, and registering x for it stalled the solve at 6 of 8
      pairs; the other pairs of that solve sit below 3e-4.

    A zero denominator or an infinite condition number fails the guard
    silently.
    """
    theta, w, dw, scale = _theta_weights(problem, theta)
    x = x / np.linalg.norm(x)
    for y in (x, x.conj()):
        R = np.array([y.conj() @ A for A in problem.coeffs])  # rows y* A_i
        # the norm of w @ R = (F(theta)* y)*
        res = np.linalg.norm(w @ R)
        if res > rtol * scale:
            continue
        den = abs(dw @ (R @ x))
        if den == 0.0:
            continue
        if isinstance(theta, hom.ProjectivePoint):
            kappa = hom._hom_condition(problem, theta, den)
        else:
            try:
                kappa = problem._condition(theta, den)
            except IllConditionedError:
                continue
        if res / scale * kappa <= _STRUCTURED_LEFT_GUARD:
            return y
    return None


def left_eigenvector(problem, theta, x=None, rtol=1e-8, seed=0):
    """Left eigenvector y with F(theta)* y ~ 0 for a converged eigenvalue.

    theta may be a scalar or a ProjectivePoint (for homogeneous solves,
    including the infinite eigenvalue).  The null vector tolerance is rtol
    times the residual scale sum_i |theta|^i ||A_i||_1 (its homogeneous
    analogue for projective theta).  Given the right eigenvector x, the
    unit x and then conj(x) are tried first and returned if they pass
    _structured_left's residual and conditioning tests.  Otherwise y is
    the null vector of F(theta)*, solved through one LU factorization.
    """
    if x is not None:
        y = _structured_left(problem, theta, np.asarray(x, dtype=complex),
                             rtol)
        if y is not None:
            return y
    F, _, scale = _theta_eval(problem, theta)
    Z = F.conj().T
    if sp.issparse(Z):
        Z = Z.tocsr()
    return null_vector(Z, tol=rtol * scale, seed=seed)
