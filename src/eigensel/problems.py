"""Polynomial and general nonlinear eigenvalue problems.

A polynomial eigenvalue problem (PEP) of degree m is defined by matrices
A_0, ..., A_m through

    P(lam) x = (A_0 + lam A_1 + ... + lam^m A_m) x = 0.

Eigenvalue selection methods built on top of this module need three
evaluations: P(lam), the derivative P'(lam), and the divided difference

    P[lam, theta] = (P(lam) - P(theta)) / (lam - theta),

which for polynomials has an explicit summation form that is symmetric in
its arguments and remains valid (it equals P'(lam)) when the arguments
coincide.  General nonlinear problems are supported through callables; there
the divided difference falls back to the quotient with a coincidence guard.

Coefficients may be dense numpy arrays or scipy sparse matrices; all
operations only rely on scalar multiplication, addition and matvec.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "PolyProblem",
    "GeneralNep",
    "IllConditionedError",
    "dd_weights",
    "gen_gyroscopic",
    "gen_random_pep",
    "gen_example_2x2",
]

# |lam - theta| below this (relative) switches quotients to derivatives.
COINCIDENCE_TOL = 1e-8


class IllConditionedError(ArithmeticError):
    """Condition number requested at a numerically defective eigenvalue."""


def _is_sparse(M):
    return sp.issparse(M)


def to_dense(M):
    """Return M as a dense ndarray (no copy if already dense)."""
    if _is_sparse(M):
        return np.asarray(M.todense())
    return np.asarray(M)


def norm1(M):
    """Matrix 1-norm (max absolute column sum) for dense or sparse M."""
    if _is_sparse(M):
        return float(abs(M).sum(axis=0).max()) if M.nnz else 0.0
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.abs(M).sum(axis=0).max())


def dd_weights(degree, lam, theta):
    """Coefficient weights of the polynomial divided difference.

    P[lam, theta] = sum_k w[k] A_k with w[k] = sum_{i=0}^{k-1} lam^i
    theta^(k-1-i) (and w[0] = 0).  Symmetric in (lam, theta); at lam = theta
    the weights are those of P'.  lam and theta may be arrays that
    broadcast against each other; the weights run along a new last axis.
    """
    lam, theta = np.broadcast_arrays(np.asarray(lam, dtype=complex),
                                     np.asarray(theta, dtype=complex))
    w = np.zeros(lam.shape + (degree + 1,), dtype=complex)
    tpow = np.ones_like(theta)
    w[..., 1] = 1.0
    for k in range(2, degree + 1):
        tpow = tpow * theta
        w[..., k] = lam * w[..., k - 1] + tpow
    return w


def norm2_estimate(M, tol=1e-3, maxit=100):
    """Power-iteration estimate of the matrix 2-norm.

    Iterates v <- M^H (M v) on the normal matrix until the Rayleigh estimate
    of the dominant singular value is converged to a relative tolerance.
    Deterministic: the starting vector is drawn from a fixed-seed generator.
    """
    n = M.shape[1]
    if n == 0:
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
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


class PolyProblem:
    """Matrix polynomial P(lam) = sum_i lam^i A_i.

    Parameters
    ----------
    coeffs : sequence of (n, n) arrays or sparse matrices
        [A_0, A_1, ..., A_m] in order of ascending power.  The degree m is
        len(coeffs) - 1 and must be at least 1.

    Attributes
    ----------
    n : int
        Problem size.
    degree : int
        Polynomial degree m.
    """

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) < 2:
            raise ValueError("need at least two coefficients (degree >= 1)")
        n = coeffs[0].shape[0]
        for A in coeffs:
            if A.shape != (n, n):
                raise ValueError("all coefficients must be square of one size")
        self.coeffs = coeffs
        self.n = n
        self.degree = len(coeffs) - 1
        self._norms1 = None
        self._norms2 = None

    @property
    def norms1(self):
        """1-norms of the coefficients, cached."""
        if self._norms1 is None:
            self._norms1 = np.array([norm1(A) for A in self.coeffs])
        return self._norms1

    @property
    def norms2(self):
        """2-norm estimates of the coefficients, cached."""
        if self._norms2 is None:
            self._norms2 = np.array([norm2_estimate(A) for A in self.coeffs])
        return self._norms2

    def eval(self, lam):
        """P(lam) by Horner's scheme.

        Dense coefficients are accumulated in place in one new array (no
        temporary per step, no write into a coefficient); sparse or mixed
        ones use the plain expression lam * P + A.
        """
        coeffs = self.coeffs
        if not all(isinstance(A, np.ndarray) for A in coeffs):
            P = coeffs[-1]
            for A in reversed(coeffs[:-1]):
                P = lam * P + A
            return P
        P = np.multiply(coeffs[-1], lam, dtype=np.result_type(lam, *coeffs))
        P += coeffs[-2]
        for A in reversed(coeffs[:-2]):
            P *= lam
            P += A
        return P

    def derivative(self, lam):
        """P'(lam) = sum_i i lam^(i-1) A_i by Horner's scheme."""
        m = self.degree
        P = m * self.coeffs[m]
        for i in range(m - 1, 0, -1):
            P = lam * P + i * self.coeffs[i]
        return P

    def divided_difference(self, lam, theta):
        """P[lam, theta] in the explicit polynomial form.

        Each A_k (k >= 1) is weighted by sum_{i=0}^{k-1} lam^i theta^(k-1-i),
        so the result is symmetric in (lam, theta) and equals P'(lam) at
        lam = theta without any case distinction.
        """
        w = dd_weights(self.degree, lam, theta)
        D = w[self.degree] * self.coeffs[self.degree]
        for k in range(self.degree - 1, 0, -1):
            D = D + w[k] * self.coeffs[k]
        return D

    def matvec(self, lam, x):
        """P(lam) @ x without forming P when coefficients are sparse."""
        acc = self.coeffs[0] @ x
        lp = 1.0
        for A in self.coeffs[1:]:
            lp = lp * lam
            acc = acc + lp * (A @ x)
        return acc

    def tolerance_scale(self, theta):
        """sum_i |theta|^i ||A_i||_1, the residual scaling of the solver."""
        t = abs(theta)
        return float(sum(self.norms1[i] * t**i for i in range(self.degree + 1)))

    def condition_number(self, lam, x, y):
        """Normwise eigenvalue condition number of a simple eigenvalue.

        kappa(lam) = (sum_i |lam|^i ||A_i||_2) / |y* P'(lam) x| with x and y
        normalized.  The 2-norms come from the power-iteration estimate.
        IllConditionedError when the denominator is at machine scale: the
        eigenvalue is then numerically defective and the number meaningless.
        """
        x = np.asarray(x) / np.linalg.norm(x)
        y = np.asarray(y) / np.linalg.norm(y)
        t = abs(lam)
        num = float(sum(self.norms2[i] * t**i for i in range(self.degree + 1)))
        den = abs(np.vdot(y, self.derivative(lam) @ x))
        if den <= 1e-300 * max(1.0, num):
            raise IllConditionedError(
                f"y* P'(lam) x = {den:.3e} at lam = {lam}: condition number "
                f"is infinite (defective or wrongly paired vectors)"
            )
        return num / den

    def to_general_nep(self):
        """View as a GeneralNep (callable interface)."""
        return GeneralNep(self.eval, self.derivative, self.n)

    def __repr__(self):
        return f"PolyProblem(n={self.n}, degree={self.degree})"


class GeneralNep:
    """General nonlinear eigenvalue problem F(lam) x = 0 given by callables.

    Parameters
    ----------
    fun : callable
        lam -> F(lam), an (n, n) matrix.
    dfun : callable
        lam -> F'(lam).
    n : int
        Problem size.
    """

    def __init__(self, fun, dfun, n):
        self.fun = fun
        self.dfun = dfun
        self.n = n

    def eval(self, lam):
        return self.fun(lam)

    def derivative(self, lam):
        return self.dfun(lam)

    def divided_difference(self, lam, theta):
        """(F(lam) - F(theta)) / (lam - theta), or F'(lam) at coincidence.

        The quotient cancels catastrophically for nearby arguments, so points
        within COINCIDENCE_TOL (relative) are treated as coincident.
        """
        if abs(lam - theta) <= COINCIDENCE_TOL * max(1.0, abs(lam), abs(theta)):
            return self.dfun(lam)
        return (self.fun(lam) - self.fun(theta)) / (lam - theta)

    def __repr__(self):
        return f"GeneralNep(n={self.n})"


def gen_gyroscopic(n, seed=0):
    """Gyroscopic-type quadratic problem with an exactly singular mass matrix.

    Q(lam) = lam^2 A + lam B + C with A diagonal (entries uniform on [0, 1],
    first entry zero so infinite eigenvalues exist), B tridiagonal with -1 on
    the subdiagonal and +1 on the superdiagonal (skew-symmetric), C diagonal
    with entries uniform on (-1, 0).  Coefficients are returned sparse.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=n)
    a[0] = 0.0
    c = rng.uniform(-1.0, 0.0, size=n)
    A = sp.diags_array(a, format="csr")
    B = sp.diags_array(
        [-np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1], format="csr"
    )
    C = sp.diags_array(c, format="csr")
    return PolyProblem([C, B, A])


def gen_random_pep(n, m, seed=0, symmetric=False):
    """Dense random PEP of degree m with complex Gaussian coefficients.

    With symmetric=True each coefficient is symmetrized as (A + A^T)/2
    (transpose, not conjugate transpose).
    """
    rng = np.random.default_rng(seed)
    coeffs = []
    for _ in range(m + 1):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A /= np.sqrt(2.0)
        if symmetric:
            A = (A + A.T) / 2.0
        coeffs.append(A)
    return PolyProblem(coeffs)


def gen_example_2x2(delta, eps):
    """The 2x2 pencil A - lam I with A = [[0, eps], [0, delta]].

    Its eigenvalues are 0 and delta.  For small delta the two eigenvectors
    e_1 and (eps, delta)/norm nearly coincide, while the left eigenvector of
    the eigenvalue 0 is (delta, -eps)/norm: angle-based filtering of e_1
    against new candidates fails here, divided-difference selection does not.
    """
    A = np.array([[0.0, eps], [0.0, delta]])
    return PolyProblem([A, -np.eye(2)])
