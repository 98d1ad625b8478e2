"""Multiparameter eigenvalue problems: operator determinants and selection.

A k-parameter problem couples k matrix families

    T_i(lam) x_i = 0,   T_i(lam) = A_i - lam_1 B_i - lam_2 C_i [- lam_3 D_i]

through a shared parameter vector lam.  The associated operator determinants
Delta_0, Delta_1, ... turn it into k joint generalized eigenvalue problems on
the tensor product space: Delta_j z = lam_j Delta_0 z with decomposable
eigenvectors z = x_1 (x) x_2 [(x) x_3].

Selection transfers verbatim: left/right eigenvector tensors of distinct
eigenvalues are orthogonal in the divided-difference sandwich, a determinant
of per-factor scalar products y_i* T_i[p, q]_j x_i whose rows telescope to
y_i* (T_i(p) - T_i(q)) x_i = 0.  With linear dependence every block
T_i[p, q]_j is the constant -P_ij; at coincident points the determinant is
the parameter Jacobian det [y_i* dT_i/dlam_j x_i], nonzero exactly at simple
eigenvalues, so the normalized sandwich plays the role of the selection
criterion.

dense_solve is the brute-force oracle on the full tensor space: a
two-sided QZ of the Delta pencil with left and right factor vectors and
residual self-checks.  mep_subspace_solve runs jdsolver's selection loop
with one search space per factor and the sandwich criterion steering it.
Every part it does not need of its own is the one-parameter one: the
per-factor correction is linsolve's projected correction with p = v
(Hochstenbach, Kosir & Plestenjak, SIMAX 26, 2005), and the blocked
test, the cached adjoint rows of registered triplets, the simplicity
floor and the option checks are shared with jd_solve.  Its projected
extraction is one-sided, a standard eigenproblem of
Delta_0^{-1} sum_j c_j Delta_j whose tuples are put in target order as
arrays.  Factor vectors are split off only for the candidates the
selection walk reads, as fibers of the projected eigenvector: at a simple
tuple it is an exact tensor product, so no rank-one SVD is needed.  A real
problem at a real target runs the loop in float64 and registers its real
tuples real.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from . import linsolve
from .jdsolver import (
    _BLOCKED_TOL,
    _LEFT_RTOL,
    OracleCapError,
    SearchSpace,
    _check_shared,
    _is_blocked,
    _oracle_cap,
    _Pick,
    _selection_loop,
)
from .problems import norm1, to_dense
from .selection import (
    SIMPLICITY_RTOL,
    DefectiveEigenvalueError,
    _adjoint_rows,
)

__all__ = [
    "LinearMep2",
    "LinearMep3",
    "MepOptions",
    "MepTriplet",
    "MepOraclePair",
    "delta_operators",
    "dense_solve",
    "dense_solve_2p",
    "dense_solve_3p",
    "dd_sandwich",
    "jacobian_scale",
    "mep_criterion",
    "criterion_threshold",
    "mep_register",
    "tensor_rayleigh",
    "mep_subspace_solve",
    "gen_random_mep",
    "gen_fourpoint_bvp",
    "cheb",
    "oscillation_index",
]


def _zero_imag(M):
    """True when the dense or sparse matrix M has no imaginary part."""
    if not np.iscomplexobj(M):
        return True
    return not (M.imag.count_nonzero() if hasattr(M, "tocsc")
                else np.any(M.imag))


def _field_values(values, real):
    """Parameter values as floats when the arithmetic is real and every
    value is, as complex numbers otherwise."""
    values = [complex(v) for v in values]
    if real and not any(v.imag for v in values):
        return [v.real for v in values]
    return values


class _LinearMepBase:
    """Shared plumbing: ops[i] = (A_i, P_i1, P_i2, ...) per factor.

    dtype is float64 when every matrix, dense or sparse, has a zero
    imaginary part; the matrices are then stored real, and t_eval at real
    parameter values returns a real matrix.  Otherwise dtype is complex128
    and the dense matrices are stored complex.
    """

    def __init__(self, ops):
        ops = [tuple(M if hasattr(M, "tocsc") else np.asarray(M) for M in row)
               for row in ops]
        real = all(_zero_imag(M) for row in ops for M in row)
        self.dtype = np.dtype(float if real else complex)
        self.ops = [
            tuple(M.real.astype(float, copy=False) if real
                  else M if hasattr(M, "tocsc")
                  else M.astype(complex, copy=False)
                  for M in row)
            for row in ops
        ]
        self.nfactors = len(self.ops)
        self.nparams = len(self.ops[0]) - 1
        for i, row in enumerate(self.ops):
            if len(row) != self.nparams + 1:
                raise ValueError("every factor needs the same number of matrices")
            n = row[0].shape[0]
            for M in row:
                if M.shape != (n, n):
                    raise ValueError(f"factor {i}: matrices must be square and "
                                     f"share one size, got {M.shape} vs {n}")
        self.dims = tuple(row[0].shape[0] for row in self.ops)

    @cached_property
    def _norms1(self):
        """1-norms of every matrix, per factor; computed on first use, so
        the projected problem of a solver iteration never pays for them."""
        return [[norm1(M) for M in row] for row in self.ops]

    def a_mat(self, i):
        return self.ops[i][0]

    def param_mats(self, i):
        return self.ops[i][1:]

    def t_eval(self, i, values):
        """T_i(values) = A_i - sum_j values[j] * P_ij, real for a real
        problem at real values."""
        values = _field_values(values, self.dtype.kind == "f")
        M = self.ops[i][0]
        out = M.astype(np.result_type(M.dtype, *values))
        for j, val in enumerate(values):
            out = out - val * self.ops[i][1 + j]
        return out

    def t_partial(self, i, j):
        """dT_i/dlam_j, constant for linear parameter dependence."""
        return -self.ops[i][1 + j]

    def tolerance_scale(self, i, values):
        """1-norm bound ||A_i||_1 + sum_j |lam_j| ||P_ij||_1."""
        s = self._norms1[i][0]
        for j, val in enumerate(values):
            s += abs(complex(val)) * self._norms1[i][1 + j]
        return float(s)


class LinearMep2(_LinearMepBase):
    """Two-parameter problem (A_i - lam B_i - mu C_i) x_i = 0, i = 1, 2."""

    def __init__(self, A1, B1, C1, A2, B2, C2):
        super().__init__([(A1, B1, C1), (A2, B2, C2)])


class LinearMep3(_LinearMepBase):
    """Three-parameter problem (A_i - lam B_i - mu C_i - nu D_i) x_i = 0."""

    def __init__(self, ops):
        super().__init__(ops)
        if self.nfactors != 3 or self.nparams != 3:
            raise ValueError("need three factors with matrices (A, B, C, D)")


def _kron2(A, B):
    """A (x) B as one broadcast product (np.kron's values, less overhead)."""
    (p, q), (r, s) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(p * r, q * s)


def _operator_determinant(columns_per_row):
    """sum_sigma sgn(sigma) M_{1,sigma(1)} (x) ... for the row-wise blocks.

    Laplace expansion along the first row, sum_j (-1)^j M_{1,j} (x) Minor_j
    with Minor_j the operator determinant of the remaining rows without
    column j: 9 Kronecker products of two factors for N = 3, where the sum
    over permutations takes 12.
    """
    rows = [[to_dense(M) for M in row] for row in columns_per_row]

    def det(r, cols):
        if r == len(rows) - 1:
            return rows[r][cols[0]]
        out = None
        for pos, j in enumerate(cols):
            term = _kron2(rows[r][j], det(r + 1, cols[:pos] + cols[pos + 1:]))
            if out is None:
                out = term
            elif pos % 2:
                out -= term
            else:
                out += term
        return out

    return det(0, list(range(len(rows))))


def delta_operators(mep):
    """Delta_0, Delta_1, ..., Delta_k on the tensor product space (dense).

    Delta_0 uses the parameter matrices as determinant columns; Delta_j
    replaces column j by the A column.  On decomposable eigenvectors,
    Delta_j z = lam_j Delta_0 z.
    """
    k = mep.nparams
    if mep.nfactors != k:
        raise ValueError("operator determinants need nfactors == nparams")
    base = [list(mep.param_mats(i)) for i in range(k)]
    deltas = [_operator_determinant(base)]
    for j in range(k):
        cols = [list(mep.param_mats(i)) for i in range(k)]
        for i in range(k):
            cols[i][j] = mep.a_mat(i)
        deltas.append(_operator_determinant(cols))
    return deltas


@dataclass
class MepOraclePair:
    """One tensor-space eigenvalue with factor vectors on both sides."""

    values: tuple
    z: np.ndarray
    w: np.ndarray
    xs: list
    ys: list
    decomposable: bool
    res_right: float
    res_left: float
    ok: bool


def _rank1_factors(z, dims):
    """Best decomposable approximation of z plus a separability measure.

    Returns (factors, ratio) where ratio is the largest second-to-first
    singular value ratio over the mode unfoldings (0 for exactly rank one).
    """
    z = np.asarray(z)
    N = len(dims)
    if N == 2:
        M = z.reshape(dims)
        U, s, Vh = np.linalg.svd(M)
        ratio = float(s[1] / s[0]) if s.size > 1 and s[0] > 0 else 0.0
        x1 = U[:, 0]
        x2 = Vh[0, :]
        return [x1 / np.linalg.norm(x1), x2 / np.linalg.norm(x2)], ratio
    T = z.reshape(dims)
    factors = []
    worst = 0.0
    for mode in range(N):
        unf = np.moveaxis(T, mode, 0).reshape(dims[mode], -1)
        U, s, _ = np.linalg.svd(unf, full_matrices=False)
        if s.size > 1 and s[0] > 0:
            worst = max(worst, float(s[1] / s[0]))
        f = U[:, 0]
        factors.append(f / np.linalg.norm(f))
    # fix relative phases so the factor tensor reproduces z up to a positive
    # scalar: compare against the tensor entry of largest magnitude
    flat = T.reshape(-1)
    idx = int(np.argmax(np.abs(flat)))
    sub = np.unravel_index(idx, dims)
    prod = np.prod([factors[i][sub[i]] for i in range(N)])
    if prod != 0:
        phase = flat[idx] / prod
        phase /= abs(phase)
        factors[0] = factors[0] * phase
    return factors, worst


def _ls_value(D0z, Dz):
    """Least-squares Rayleigh value of Delta_j z = val * Delta_0 z."""
    denom = np.vdot(D0z, D0z)
    if denom == 0:
        return complex(np.nan)
    return complex(np.vdot(D0z, Dz) / denom)


def _weighted_sum(deltas, real=False):
    """sum_j c_j Delta_j for the parameter operators Delta_1, Delta_2, ...

    Unit weights at fixed irrational angles: deterministic, and aliasing of
    distinct tuples under the combination is non-generic.  real=True takes
    the fixed irrational real weights sqrt(j + 0.618...) instead, which
    keep a sum of real Delta's real.
    """
    j = np.arange(1, len(deltas))
    if real:
        weights = np.sqrt(j + 0.6180339887498949)
    else:
        weights = np.exp(2j * np.pi * 0.6180339887498949 * j)
    return sum(c * D for c, D in zip(weights, deltas[1:]))


def _fiber_factors(z, dims):
    """Factor vectors of a decomposable z as its fibers through its largest
    entry.

    For z = x_1 (x) x_2 [(x) x_3] every mode-i fiber of the tensor is a
    multiple of x_i.  The one through the largest-magnitude entry has norm
    at least ||z|| / sqrt(prod dims), so normalizing it keeps the error at
    rounding level.  Unlike _rank1_factors there is no SVD, no
    decomposability measure and no phase fix; the factors are unit vectors
    of arbitrary relative phase.
    """
    T = z.reshape(dims)
    sub = np.unravel_index(int(np.argmax(np.abs(z))), dims)
    factors = []
    for i in range(len(dims)):
        f = T[sub[:i] + (slice(None),) + sub[i + 1:]]
        factors.append(f / np.linalg.norm(f))
    return factors


@dataclass
class _RitzCandidate:
    """Projected tuple whose factor vectors are read off z on first read.

    z is the projected Delta-pencil eigenvector, an exact tensor product at
    a simple tuple, so xs are its fibers (_fiber_factors), not best rank-one
    approximations.
    """

    values: tuple
    z: np.ndarray
    dims: tuple

    @cached_property
    def xs(self):
        return _fiber_factors(self.z, self.dims)


class _OnFirstRead(dict):
    """Values f(key), each computed when it is first read."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        self[key] = value = self.f(key)
        return value


def _projected_candidates(small, target):
    """Ritz tuples of a projected MEP from a one-sided standard eigensolve,
    finite ones only, nearest to target first.

    Solves Delta_0^{-1} sum_j c_j Delta_j z = theta z for right vectors only
    and reads every tuple at once as the least-squares Rayleigh values
    (Delta_0 Z)* (Delta_j Z) / ||Delta_0 Z||^2.  Complex Delta's take the
    weights of dense_solve.  Real ones take real weights and a real
    eigensolve: a real theta gives a real z and a real tuple, and the
    tuples of a complex-conjugate pair of thetas are both kept.  The
    finiteness test and the Euclidean distances to target run on all
    tuples at once, and a stable argsort orders them, so ties keep the
    eigensolver's order.  An exactly singular Delta_0 raises LinAlgError.
    """
    deltas = delta_operators(small)
    D0 = deltas[0]
    real = small.dtype.kind == "f"
    theta, Z = np.linalg.eig(np.linalg.solve(D0, _weighted_sum(deltas, real)))
    D0Z = D0 @ Z
    denom = np.einsum("ij,ij->j", D0Z.conj(), D0Z).real
    vals = np.array([np.einsum("ij,ij->j", D0Z.conj(), D @ Z)
                     for D in deltas[1:]]) / denom
    on_axis = (theta.imag == 0) & real
    vals[:, on_axis] = vals[:, on_axis].real
    finite = np.flatnonzero(np.isfinite(vals).all(axis=0))
    shift = vals[:, finite] - np.array(target, dtype=complex)[:, None]
    dist = np.sqrt((np.abs(shift) ** 2).sum(axis=0))
    rows = vals.T.tolist()
    out = []
    for k in finite[np.argsort(dist, kind="stable")]:
        z = Z[:, k].real if on_axis[k] else Z[:, k]
        out.append(_RitzCandidate(tuple(rows[k]), z, small.dims))
    return out


def dense_solve(mep, cap=None, residual_rtol=1e-8):
    """All eigenvalues of a linear MEP by the operator determinant route.

    Builds the Delta matrices on the full tensor space, solves the pencil
    (sum_j c_j Delta_j, Delta_0) with two-sided QZ for fixed generic complex
    weights c_j, reads every parameter as a least-squares Rayleigh value,
    and extracts factor vectors from best rank-one (tensor) approximations
    of the right and left eigenvectors.  The weighted combination keeps
    tuples separated even when they share single coordinates (a
    cartesian-product spectrum makes any one Delta_j pencil degenerate, and
    QZ would return arbitrary eigenspace mixtures).  Pairs are flagged
    ok=False when a factor residual exceeds residual_rtol times the factor
    scale or when an eigenvector is far from decomposable (second singular
    value above 1e-6 of the first).

    The tensor dimension must stay within the oracle cap (default 2000, see
    EIGENSEL_ORACLE_CAP); OracleCapError otherwise.
    """
    dim = int(np.prod(mep.dims))
    limit = _oracle_cap(cap)
    if dim > limit:
        raise OracleCapError(
            f"tensor dimension {dim} exceeds the oracle cap {limit}"
        )
    deltas = delta_operators(mep)
    D0 = deltas[0]
    vals, VL, VR = sla.eig(_weighted_sum(deltas), D0, left=True, right=True,
                           check_finite=False)
    pairs = []
    for idx in range(vals.shape[0]):
        if not np.isfinite(vals[idx]):
            continue
        z = VR[:, idx]
        w = VL[:, idx]
        D0z = D0 @ z
        values = tuple(_ls_value(D0z, deltas[j] @ z)
                       for j in range(1, len(deltas)))
        if any(not (math.isfinite(v.real) and math.isfinite(v.imag))
               for v in values):
            continue
        xs, xr = _rank1_factors(z, mep.dims)
        ys, yr = _rank1_factors(w, mep.dims)
        rr = 0.0
        rl = 0.0
        for i in range(mep.nfactors):
            Ti = to_dense(mep.t_eval(i, values))
            scale = mep.tolerance_scale(i, values)
            rr = max(rr, float(np.linalg.norm(Ti @ xs[i])) / scale)
            rl = max(rl, float(np.linalg.norm(Ti.conj().T @ ys[i])) / scale)
        deco = max(xr, yr) <= 1e-6
        pairs.append(
            MepOraclePair(values, z, w, xs, ys, deco, rr, rl,
                          ok=(deco and rr <= residual_rtol
                              and rl <= residual_rtol))
        )
    return pairs


def _oracle_registry(mep, pairs):
    triplets = []
    for p in pairs:
        if not p.ok:
            continue
        denom = dd_sandwich(mep, p.values, p.values, p.ys, p.xs)
        triplets.append(
            MepTriplet(p.values, list(p.xs), list(p.ys), denom,
                       residual=max(p.res_right, p.res_left))
        )
    return triplets


def dense_solve_2p(mep, cap=None, residual_rtol=1e-8):
    """Two-parameter oracle as a ready-to-use registry of MepTriplet.

    Runs dense_solve and keeps the pairs that pass its decomposability and
    residual self-checks, attaching each one's coincident-sandwich
    denominator.  Triplets with a numerically singular denominator are kept
    (the criterion reports them as un-anchorable rather than hiding them).
    """
    if mep.nparams != 2:
        raise ValueError(f"expected a 2-parameter problem, got {mep.nparams}")
    return _oracle_registry(mep, dense_solve(mep, cap=cap,
                                             residual_rtol=residual_rtol))


def dense_solve_3p(mep, cap=None, residual_rtol=1e-8):
    """Three-parameter analogue of dense_solve_2p."""
    if mep.nparams != 3:
        raise ValueError(f"expected a 3-parameter problem, got {mep.nparams}")
    return _oracle_registry(mep, dense_solve(mep, cap=cap,
                                             residual_rtol=residual_rtol))


def dd_sandwich(mep, p_values, q_values, ys, xs):
    """det [ y_i* T_i[p, q]_j x_i ], the divided-difference sandwich.

    Left vectors y_i belong to the first point, right vectors x_i to the
    second.  For linear parameter dependence every divided difference
    T_i[p, q]_j is the constant -P_ij, so the points only say whose vectors
    are used.  Zero for eigenvector tensors of two distinct eigenvalues; at
    p == q the value is the simplicity Jacobian determinant.
    """
    S = [[np.vdot(y, mep.t_partial(i, j) @ x) for j in range(mep.nparams)]
         for i, (y, x) in enumerate(zip(ys, xs))]
    return complex(np.linalg.det(np.array(S, dtype=complex)))


def jacobian_scale(mep):
    """prod_i max_j ||P_ij||_1, the natural size of the sandwich values."""
    out = 1.0
    for i in range(mep.nfactors):
        out *= max(mep._norms1[i][1:])
    return float(out)


@dataclass
class MepTriplet:
    """Registered eigenvalue: parameter tuple with factor vectors and data."""

    values: tuple
    xs: list
    ys: list
    denom: complex
    residual: float = math.nan
    found_iteration: int = -1


def mep_criterion(mep, registry, vs, variant="new"):
    """Normalized overlap of a candidate with the registered triplets.

    For linear parameter dependence the divided-difference columns are the
    constant matrices -P_ij, so each registered triplet contributes the
    determinant of [y_i* P_ij v_i] over its cached left rows (the sign drops
    in the modulus) and the candidate's parameter values play no role.

    variant "new" returns max_i |num_i| / |denom_i|, each triplet normalized
    by its own coincident sandwich; the candidate passes when the value is
    below eta.  variant "strict" is the legacy rule max_i |num_i| <
    (1/2) min_i |denom_i|, returned here as max_i |num_i| / ((1/2) min_i
    |denom_i|) so that passing always means value < threshold with
    threshold 1.  Empty registry gives 0.0 under both variants.
    mep_subspace_solve uses "new" with the cutoff eta.
    """
    if not registry:
        return 0.0
    vs = [v / np.linalg.norm(v) for v in vs]
    nums = []
    params = [mep.param_mats(i) for i in range(mep.nfactors)]
    for t in registry:
        rows = _adjoint_rows(t, zip(t.ys, params))
        S = np.array([rows[i] @ vs[i] for i in range(mep.nfactors)])
        nums.append(abs(np.linalg.det(S)))
    if variant == "strict":
        floor = 0.5 * min(abs(t.denom) for t in registry)
        return float(max(nums) / floor)
    if variant != "new":
        raise ValueError(f"unknown criterion variant {variant!r}")
    return float(max(n / abs(t.denom) for n, t in zip(nums, registry)))


def criterion_threshold(eta_sel, variant="new"):
    """Pass threshold for mep_criterion: eta_sel for "new", 1 for "strict"
    (the legacy factor 1/2-of-minimum is folded into the value there)."""
    return float(eta_sel) if variant == "new" else 1.0


def _unit(x):
    """x scaled to unit norm; a vector already of unit norm to rounding is
    kept as it is, since dividing it again only re-rounds it (and a
    residual computed from it would no longer be the stored vector's)."""
    nx = np.linalg.norm(x)
    return x if abs(nx - 1.0) <= 1e-14 else x / nx


def mep_register(mep, registry, values, xs, ys, residual=math.nan,
                 iteration=-1):
    """Validate simplicity at (values, xs, ys) and append a MepTriplet.

    The denominator is the coincident sandwich (the parameter Jacobian
    determinant); below selection.SIMPLICITY_RTOL times jacobian_scale the
    value cannot anchor the criterion and DefectiveEigenvalueError is
    raised, as selection.register does for one parameter.
    """
    xs = [_unit(np.array(x, dtype=complex)) for x in xs]
    ys = [_unit(np.array(y, dtype=complex)) for y in ys]
    denom = dd_sandwich(mep, values, values, ys, xs)
    if abs(denom) < SIMPLICITY_RTOL * jacobian_scale(mep):
        raise DefectiveEigenvalueError(
            f"parameter Jacobian {abs(denom):.3e} at {tuple(values)} is "
            f"numerically singular; the eigenvalue is not simple"
        )
    triplet = MepTriplet(tuple(complex(v) for v in values), xs, ys, denom,
                         residual=residual, found_iteration=iteration)
    registry.append(triplet)
    return triplet


def tensor_rayleigh(mep, xs, ys):
    """Two-sided parameter estimate from factor vectors.

    Solves the square system y_i* A_i x_i = sum_j lam_j (y_i* P_ij x_i) and
    returns the parameter tuple; the estimate is exact for eigenvector
    factors and second-order accurate near them.
    """
    k = mep.nparams
    M = np.empty((mep.nfactors, k), dtype=complex)
    rhs = np.empty(mep.nfactors, dtype=complex)
    for i in range(mep.nfactors):
        rhs[i] = np.vdot(ys[i], mep.a_mat(i) @ xs[i])
        for j in range(k):
            M[i, j] = np.vdot(ys[i], mep.param_mats(i)[j] @ xs[i])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return tuple(complex(s) for s in sol)


@dataclass
class MepOptions:
    """mep_subspace_solve parameters (see JDOptions for the shared fields,
    with one target value per parameter and mindim, maxdim bounding every
    factor space)."""

    target: tuple = (0.0, 0.0)
    num_pairs: int = 1
    tol: float = 1e-9
    mindim: int = 4
    maxdim: int = 8
    max_outer: int = 100
    inner_steps: int = 10
    eta: float = 0.1
    seed: int = 0

    def validate(self, mep):
        if len(self.target) != mep.nparams:
            raise ValueError(
                f"target needs {mep.nparams} components, got {len(self.target)}"
            )
        _check_shared(self, min(mep.dims), "min(dims)")
        if not all(cmath.isfinite(complex(t)) for t in self.target):
            raise ValueError("target components must be finite")


def mep_subspace_solve(mep, options=None):
    """Jacobi-Davidson on a linear MEP with divided-difference selection.

    One orthonormal search space per factor; each outer iteration projects
    the problem onto the factor bases, extracts the tensor Ritz tuples with a
    one-sided standard eigensolve of the projected Delta pencil (dense_solve
    stays the two-sided oracle), walks them in target order until the
    sandwich criterion accepts one, and expands every factor space with a
    projected correction: (I - v v*) T_i(lam) (I - v v*) t = -r_i, t
    orthogonal to the unit factor vector v, which is jd_solve's correction
    solve (linsolve._correction_solve) with p = v.  The loop is jdsolver's selection loop; criteria
    are computed on their first read, and when none passes the nearest
    candidate is taken.  A pair converges when all factor residuals meet
    the relative tolerance and the criterion passes; its left factor vectors
    are computed as adjoint null vectors, the parameter values are refined
    by the two-sided tensor Rayleigh system (kept only if every factor
    residual still meets tol at the refined values), and the triplet is
    registered with the residual of the values it stores.  For a real
    problem and a real pick those are the real parts of the refined values:
    the left vectors are complex, and their rounding would otherwise leave
    imaginary parts on a real tuple.
    Values whose registration fails land on the blocked list.

    Factor i starts from LU(T_i(target))^-1 rho_i for a seeded random
    rho_i: one inverse-iteration step at the target, through the
    preconditioner that the corrections use.  A raw random start puts the
    first Ritz tuple far from the target, and the corrections take many
    outer iterations to bring it back.

    The arithmetic follows the input.  When every factor matrix has a zero
    imaginary part and the target is real, the search spaces, projected
    Delta's and their eigensolve are float64, with real weights c_j.  Real
    tuples then keep real factor vectors and real corrections.  A chosen
    complex tuple (one of a complex-conjugate pair) is corrected in complex
    arithmetic, and each factor space grows by Re t, and by Im t where that
    adds a direction; a restart keeps the Re and Im parts of a kept complex
    candidate's factor vectors, mindim directions at most.  Any other input
    runs in complex arithmetic throughout.  Left vectors, criterion values,
    tensor_rayleigh and the registered triplets are complex in both cases.

    Returns the SolveResult of jdsolver's selection loop; registry
    entries are MepTriplet in detection order.
    """
    opts = options if options is not None else MepOptions()
    opts.validate(mep)
    N = mep.nfactors
    rng = np.random.default_rng(opts.seed)
    target = tuple(complex(t) for t in opts.target)
    real = mep.dtype.kind == "f" and not any(t.imag for t in target)

    # LU of T_i(target) gives the start and preconditions corrections
    precs = [linsolve.LuPreconditioner(mep.t_eval(i, target)) for i in range(N)]
    spaces = [SearchSpace([mep.a_mat(i)] + list(mep.param_mats(i)), rng,
                          dtype=float if real else complex)
              for i in range(N)]

    def _randn(n):
        if real:
            return rng.standard_normal(n)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    ts = [precs[i].solve(_randn(mep.dims[i])) for i in range(N)]

    registry = []
    blocked = []

    def _extract():
        """Ritz tuples of the projected small MEP in target order."""
        small = _LinearMepBase([tuple(sp.H) for sp in spaces])
        try:
            return _projected_candidates(small, target)
        except np.linalg.LinAlgError:
            return []

    def _criteria(cands):
        return _OnFirstRead(lambda j: mep_criterion(
            mep, registry, [sp.V @ x for sp, x in zip(spaces, cands[j].xs)]))

    def _residuals(values, vs):
        """Factor residuals at (values, unit vs) and the worst relative one."""
        rs = [to_dense_matvec(mep, i, values, vs[i]) for i in range(N)]
        rels = (float(np.linalg.norm(r)) / mep.tolerance_scale(i, values)
                for i, r in enumerate(rs))
        return rs, max(rels)

    def _pair(cand, crit, first):
        vs = [sp.V @ x for sp, x in zip(spaces, cand.xs)]
        vs = [v / np.linalg.norm(v) for v in vs]
        rs, relres = _residuals(cand.values, vs)
        return _Pick(cand.values, relres, relres <= opts.tol, crit, vs, rs)

    def _register(p, outer):
        # Left residuals cannot undercut the accuracy of the converged
        # tuple, so track the achieved right residual.
        rtol = max(_LEFT_RTOL, 10.0 * p.res)
        ys = [linsolve.null_vector(
                  mep.t_eval(i, p.value).conj().T,
                  rtol * mep.tolerance_scale(i, p.value),
                  seed=opts.seed + 77 * (len(registry) + 1) + i)
              for i in range(N)]
        # the refined tuple is registered only when it still meets tol in
        # every factor; it can be (slightly) worse than the Ritz tuple.
        # Residuals are recomputed from the complex vectors and values the
        # registry stores.
        xs = [v.astype(complex, copy=False) for v in p.vecs]
        values = tensor_rayleigh(mep, xs, ys)
        if mep.dtype.kind == "f" and not any(v.imag for v in p.value):
            # complex left vectors leave rounding-level imaginary parts on
            # the refinement of a real tuple of a real problem
            values = tuple(complex(v.real) for v in values)
        res = _residuals(values, xs)[1]
        if not res <= opts.tol:
            values, res = p.value, _residuals(p.value, xs)[1]
        mep_register(mep, registry, values, xs, ys, residual=res,
                     iteration=outer)
        return values, res

    return _selection_loop(
        opts, spaces, ts, registry, blocked, _randn,
        extract=_extract,
        is_blocked=lambda c: bool(blocked) and _is_blocked(
            c.values, blocked, _BLOCKED_TOL),
        criteria=_criteria,
        no_pass=lambda crits: 0,
        pair=_pair,
        register=_register,
        # jd_solve's correction with p = v, per factor; a complex tuple of
        # a real problem is corrected in complex arithmetic, and its real
        # space grows by Re t and Im t (SearchSpace)
        correct=lambda p: (linsolve._correction_solve(
            mep.t_eval(i, p.value), p.vecs[i], p.vecs[i], p.rs[i],
            opts.inner_steps, precs[i]) for i in range(N)),
        basis=lambda c: c.xs,
    )


def to_dense_matvec(mep, i, values, v):
    """T_i(values) @ v without forcing sparse factors dense; real for a real
    problem at real values and a real v."""
    out = mep.a_mat(i) @ v
    for val, P in zip(_field_values(values, not np.iscomplexobj(out)),
                      mep.param_mats(i)):
        out = out - val * (P @ v)
    return out


def gen_random_mep(dims, nparams=None, seed=0):
    """Random dense complex linear MEP for the given factor dimensions."""
    if min(dims) < 1:
        raise ValueError(f"factor dimensions must be at least 1, got {dims}")
    if nparams is None:
        nparams = len(dims)
    rng = np.random.default_rng(seed)

    def mat(n):
        return (rng.standard_normal((n, n))
                + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)

    ops = [tuple(mat(n) for _ in range(nparams + 1)) for n in dims]
    if len(dims) == 2 and nparams == 2:
        return LinearMep2(*ops[0], *ops[1])
    if len(dims) == 3 and nparams == 3:
        return LinearMep3(ops)
    return _LinearMepBase(ops)


def cheb(N):
    """Chebyshev differentiation matrix and nodes on [-1, 1], degree N.

    Nodes x_j = cos(j pi / N) in decreasing order, standard collocation
    construction with the c_j = 2, 1, ..., 1, 2 endpoint weights.
    """
    if N == 0:
        return np.zeros((1, 1)), np.array([1.0])
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[0] = 2.0
    c[N] = 2.0
    c = c * (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D = D - np.diag(D.sum(axis=1))
    return D, x


def gen_fourpoint_bvp(N):
    """Three-parameter problem from w'' + (lam + 2 mu cos t + 2 nu cos 2t) w = 0.

    The equation is collocated on each of the unit intervals [0,1], [1,2],
    [2,3] with Chebyshev nodes of degree N and Dirichlet ends, giving factor
    matrices A_i = -W'' (interior block), B_i = I, C_i = 2 diag(cos t),
    D_i = 2 diag(cos 2t).  Eigenvalues (lam, mu, nu) make all three
    boundary value problems solvable at once.
    """
    if N < 2:
        raise ValueError(f"grid degree N must be at least 2, got {N}")
    D, x = cheb(N)
    ops = []
    for i in (1, 2, 3):
        a, b = float(i - 1), float(i)
        scale = 2.0 / (b - a)
        D2 = (scale * D) @ (scale * D)
        t = a + (b - a) * (x + 1.0) / 2.0
        # trim boundary rows/cols (Dirichlet), flip to left-to-right order
        D2i = D2[1:-1, 1:-1][::-1, ::-1]
        ti = t[1:-1][::-1]
        n = N - 1
        A = -D2i
        B = np.eye(n)
        C = 2.0 * np.diag(np.cos(ti))
        Dm = 2.0 * np.diag(np.cos(2.0 * ti))
        ops.append((A, B, C, Dm))
    return LinearMep3(ops)


def oscillation_index(x, floor=1e-8):
    """Number of interior sign changes of a (phase-aligned) eigenvector.

    The vector is rotated so its largest entry is real positive; entries
    with |real part| below floor * max|x| are skipped, the rest counted for
    alternations.  For factor vectors of the boundary value problem this is
    the Klein oscillation count that indexes the eigenvalue.
    """
    x = np.asarray(x)
    idx = int(np.argmax(np.abs(x)))
    if x[idx] == 0:
        return 0
    x = x * (abs(x[idx]) / x[idx])
    r = x.real
    cut = floor * np.max(np.abs(r)) if np.max(np.abs(r)) > 0 else 0.0
    signs = [1 if v > 0 else -1 for v in r if abs(v) > cut]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return flips
