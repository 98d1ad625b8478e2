"""Multiparameter eigenvalue problems: operator determinants and selection.

A k-parameter problem couples k matrix families

    T_i(lam) x_i = 0,   T_i(lam) = A_i - lam_1 B_i - lam_2 C_i [- lam_3 D_i]

through a shared parameter vector lam.  The associated operator determinants
Delta_0, Delta_1, ... turn it into k joint generalized eigenvalue problems on
the tensor product space: Delta_j z = lam_j Delta_0 z with decomposable
eigenvectors z = x_1 (x) x_2 [(x) x_3].

Selection transfers verbatim: left/right eigenvector tensors of distinct
eigenvalues are orthogonal in the divided-difference sandwich, a determinant
of per-factor scalar products whose rows annihilate the coordinate
difference vector because they telescope to y_i* (T_i(p) - T_i(q)) x_i = 0.
For coincident points the same determinant is the parameter Jacobian
det [y_i* dT_i/dlam_j x_i], nonzero exactly at simple eigenvalues, so the
normalized sandwich plays the role of the selection criterion.

dense_solve is the brute-force oracle on the full tensor space: a
two-sided QZ of the Delta pencil with left and right factor vectors and
residual self-checks.  mep_subspace_solve runs jdsolver's selection loop
with one search space per factor and the sandwich criterion steering it;
its projected extraction is one-sided, a standard eigenproblem of
Delta_0^{-1} sum_j c_j Delta_j with factor vectors split off only for the
candidates the selection walk reads.  A real problem at a real target runs
the loop in float64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from . import linsolve
from .jdsolver import (
    _BLOCKED_TOL,
    _LEFT_RTOL,
    OracleCapError,
    SearchSpace,
    _oracle_cap,
    _Pick,
    _selection_loop,
)
from .problems import norm1, to_dense
from .selection import DefectiveEigenvalueError

__all__ = [
    "LinearMep2",
    "LinearMep3",
    "MepOptions",
    "MepTriplet",
    "MepRecord",
    "MepResult",
    "MepOraclePair",
    "OperatorDeterminant",
    "delta_operators",
    "dense_solve",
    "dense_solve_2p",
    "dense_solve_3p",
    "dd_operator",
    "dd_sandwich",
    "jacobian_scale",
    "mep_criterion",
    "mep_passes",
    "criterion_threshold",
    "mep_register",
    "tensor_rayleigh",
    "mep_subspace_solve",
    "gen_random_mep",
    "gen_fourpoint_bvp",
    "fourpoint_grid",
    "cheb",
    "oscillation_index",
]

# relative coordinate distance below which a divided difference switches to
# the partial derivative
COINCIDENCE_TOL = 1e-8


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
        self._norms1 = [[norm1(M) for M in row] for row in self.ops]

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

    def t_partial(self, i, j, values=None):
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


@dataclass
class _RitzCandidate:
    """Projected tuple whose factor vectors are split off z on first read."""

    values: tuple
    z: np.ndarray
    dims: tuple

    @cached_property
    def xs(self):
        return _rank1_factors(self.z, self.dims)[0]


class _OnFirstRead(dict):
    """Values f(key), each computed when it is first read."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        self[key] = value = self.f(key)
        return value


def _projected_candidates(small):
    """Ritz tuples of a projected MEP from a one-sided standard eigensolve.

    Solves Delta_0^{-1} sum_j c_j Delta_j z = theta z for right vectors only
    and reads every tuple at once as the least-squares Rayleigh values
    (Delta_0 Z)* (Delta_j Z) / ||Delta_0 Z||^2.  Complex Delta's take the
    weights of dense_solve.  Real ones take real weights and a real
    eigensolve: a real theta gives a real z and a real tuple, and the
    tuples of a complex-conjugate pair of thetas are both kept.  Non-finite
    tuples are dropped.  An exactly singular Delta_0 raises LinAlgError.
    """
    deltas = delta_operators(small)
    D0 = deltas[0]
    real = small.dtype.kind == "f"
    theta, Z = np.linalg.eig(np.linalg.solve(D0, _weighted_sum(deltas, real)))
    D0Z = D0 @ Z
    denom = np.einsum("ij,ij->j", D0Z.conj(), D0Z).real
    vals = np.array([np.einsum("ij,ij->j", D0Z.conj(), D @ Z)
                     for D in deltas[1:]]) / denom
    out = []
    for k in np.flatnonzero(np.isfinite(vals).all(axis=0)):
        z, v = Z[:, k], vals[:, k]
        if real and theta[k].imag == 0:
            z, v = z.real, v.real
        out.append(_RitzCandidate(tuple(complex(x) for x in v), z,
                                  small.dims))
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


def _as_callback(t):
    """Normalize a factor spec to an (eval, partial) pair of callables."""
    if isinstance(t, tuple):
        return t
    return t.eval, t.partial


def _mep_callbacks(mep):
    cbs = []
    for i in range(mep.nfactors):
        def ev(values, i=i):
            return mep.t_eval(i, values)

        def pa(j, values, i=i):
            return mep.t_partial(i, j, values)

        cbs.append((ev, pa))
    return cbs


def _dd_blocks(callbacks, p, q, tol):
    """N x N divided-difference blocks between points p and q.

    Block (i, j) differences T_i along coordinate j with coordinates before
    j already moved to the second point q and coordinates after j still at
    the first point p:

        [T_i(q_1..q_j, p_{j+1}..) - T_i(q_1..q_{j-1}, p_j..)] / (q_j - p_j),

    the quotient degenerating to the partial derivative when the j-th
    coordinates coincide.  Column weights (q_j - p_j) then telescope every
    row to T_i(q) - T_i(p), which left vectors at p and right vectors at q
    annihilate.
    """
    N = len(callbacks)
    p = [complex(v) for v in p]
    q = [complex(v) for v in q]
    blocks = []
    for ev, pa in callbacks:
        row = []
        for j in range(N):
            dj = q[j] - p[j]
            if abs(dj) <= tol * max(1.0, abs(q[j])):
                point = list(q[:j]) + list(p[j:])
                row.append(pa(j, point))
            else:
                hi = list(q[: j + 1]) + list(p[j + 1:])
                lo = list(q[:j]) + list(p[j:])
                row.append((ev(hi) - ev(lo)) / dj)
        blocks.append(row)
    return blocks


class OperatorDeterminant:
    """Operator determinant of an N x N array of matrix blocks.

    Never forms the tensor-space matrix unless dense() is called: sandwiches
    with decomposable vectors reduce to an N x N scalar determinant, and
    matvec applies each Kronecker term mode by mode.
    """

    def __init__(self, blocks):
        self.blocks = [list(row) for row in blocks]
        self.nfactors = len(self.blocks)
        self.dims = tuple(row[0].shape[0] for row in self.blocks)

    def sandwich(self, ys, xs):
        """(y_1 (x) ...)* D (x_1 (x) ...) as det [y_i* blocks[i][j] x_i]."""
        N = self.nfactors
        S = np.empty((N, N), dtype=complex)
        for i in range(N):
            for j in range(N):
                S[i, j] = np.vdot(ys[i], self.blocks[i][j] @ xs[i])
        return complex(np.linalg.det(S))

    def matvec(self, z):
        """Apply to a tensor-space vector, one Kronecker term at a time."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for perm in itertools.permutations(range(self.nfactors)):
            inv = sum(
                1
                for a in range(self.nfactors)
                for b in range(a + 1, self.nfactors)
                if perm[a] > perm[b]
            )
            sign = -1 if inv % 2 else 1
            T = z.reshape(self.dims)
            for mode in range(self.nfactors):
                M = to_dense(self.blocks[mode][perm[mode]])
                T = np.moveaxis(np.tensordot(M, T, axes=([1], [mode])), 0, mode)
            out = out + sign * T.reshape(-1)
        return out

    def dense(self):
        """Full tensor-space matrix (small problems only)."""
        return _operator_determinant(self.blocks)


def dd_operator(callbacks, p, q, tol=COINCIDENCE_TOL):
    """Divided-difference operator of an N-parameter problem (N x N blocks).

    callbacks holds one (eval, partial) callable pair per factor (or an
    object with those attributes): eval(values) returns T_i at the
    parameter point, partial(j, values) its derivative along coordinate j.
    p carries the left vectors, q the right vectors of a sandwich.  For
    linear dependence the blocks are the constants -P_ij at any two points;
    with two parameters the operator equals B_1 (x) C_2 - C_1 (x) B_2.
    """
    cbs = [_as_callback(t) for t in callbacks]
    return OperatorDeterminant(_dd_blocks(cbs, p, q, tol))


def dd_sandwich(mep, p_values, q_values, ys, xs, tol=COINCIDENCE_TOL):
    """det [ y_i* T_i[p, q]_j x_i ], the divided-difference sandwich.

    Left vectors y_i belong to the first point, right vectors x_i to the
    second.  Zero for eigenvector tensors of two distinct eigenvalues; at
    p == q the blocks are the partials -P_ij and the value is the
    simplicity Jacobian determinant.
    """
    blocks = _dd_blocks(_mep_callbacks(mep), p_values, q_values, tol)
    return OperatorDeterminant(blocks).sandwich(ys, xs)


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

    def to_dict(self):
        return {
            "values": [[v.real, v.imag] for v in map(complex, self.values)],
            "xs": [_vec_pair(x) for x in self.xs],
            "ys": [_vec_pair(y) for y in self.ys],
            "denom": [self.denom.real, self.denom.imag],
            "residual": self.residual,
            "found_iteration": self.found_iteration,
        }


def _vec_pair(v):
    v = np.asarray(v)
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def _cached_rows(mep, triplet):
    rows = getattr(triplet, "_rows", None)
    if rows is None:
        rows = []
        for i in range(mep.nfactors):
            yi = triplet.ys[i]
            rows.append(
                np.array([np.conj(P.conj().T @ yi) for P in mep.param_mats(i)])
            )
        triplet._rows = rows
    return rows


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
    """
    if not registry:
        return 0.0
    vs = [v / np.linalg.norm(v) for v in vs]
    nums = []
    for t in registry:
        rows = _cached_rows(mep, t)
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


def mep_passes(mep, registry, vs, eta_sel=0.1, variant="new"):
    """True when the factor vectors vs clear the selection criterion."""
    value = mep_criterion(mep, registry, vs, variant=variant)
    return value < criterion_threshold(eta_sel, variant)


def _unit(x):
    """x scaled to unit norm; a vector already of unit norm to rounding is
    kept as it is, since dividing it again only re-rounds it (and a
    residual computed from it would no longer be the stored vector's)."""
    nx = np.linalg.norm(x)
    return x if abs(nx - 1.0) <= 1e-14 else x / nx


def mep_register(mep, registry, values, xs, ys, residual=math.nan,
                 iteration=-1, simplicity_rtol=1e-12):
    """Validate simplicity at (values, xs, ys) and append a MepTriplet.

    The denominator is the coincident sandwich (the parameter Jacobian
    determinant); below simplicity_rtol times the natural scale the value
    cannot anchor the criterion and DefectiveEigenvalueError is raised.
    """
    xs = [_unit(np.array(x, dtype=complex)) for x in xs]
    ys = [_unit(np.array(y, dtype=complex)) for y in ys]
    denom = dd_sandwich(mep, values, values, ys, xs)
    if abs(denom) < simplicity_rtol * jacobian_scale(mep):
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
    factor space).  criterion names the mep_criterion variant, "new" or
    "strict"."""

    target: tuple = (0.0, 0.0)
    num_pairs: int = 1
    tol: float = 1e-9
    mindim: int = 4
    maxdim: int = 8
    max_outer: int = 100
    inner_steps: int = 10
    eta: float = 0.1
    criterion: str = "new"
    seed: int = 0

    def validate(self, mep):
        if len(self.target) != mep.nparams:
            raise ValueError(
                f"target needs {mep.nparams} components, got {len(self.target)}"
            )
        nmin = min(mep.dims)
        if not 1 <= self.mindim < self.maxdim <= nmin:
            raise ValueError(
                f"need 1 <= mindim < maxdim <= min(dims) = {nmin}, got "
                f"({self.mindim}, {self.maxdim})"
            )
        if self.num_pairs < 1 or self.max_outer < 1:
            raise ValueError("num_pairs and max_outer must be positive")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie strictly between 0 and 1")
        if self.criterion not in ("new", "strict"):
            raise ValueError("criterion must be 'new' or 'strict'")


@dataclass
class MepRecord:
    """One solver event: parameter tuple, worst residual, criterion, tag."""

    iteration: int
    values: tuple
    residual: float
    criterion: float
    event: str


@dataclass
class MepResult:
    registry: list
    records: list
    outer_iterations: int
    truncated: bool
    blocked: list = field(default_factory=list)


def _values_dist(a, b):
    return math.sqrt(sum(abs(complex(x) - complex(y)) ** 2
                         for x, y in zip(a, b)))


def _mep_blocked(values, blocked, tol):
    return any(_values_dist(values, b)
               <= tol * (1.0 + _values_dist(b, [0] * len(b)))
               for b in blocked)


def _factor_correction(Tmat, v, r, steps, M):
    """Symmetric projected correction (I-vv*) T (I-vv*) t = -r, t orth v."""

    def proj(s):
        return s - v * np.vdot(v, s)

    def op(s):
        return proj(Tmat @ proj(s))

    psolve = None
    if M is not None:
        q = M.solve(v)
        vq = np.vdot(v, q)

        def psolve(z):
            w = M.solve(z)
            if abs(vq) > 1e-14 * np.linalg.norm(q):
                w = w - q * (np.vdot(v, w) / vq)
            return w

    rhs = -proj(r)
    t, _, _ = linsolve.gmres(op, rhs, tol=1e-6, maxiter=steps, M=psolve)
    return proj(t)


def mep_subspace_solve(mep, options=None, v0s=None):
    """Jacobi-Davidson on a linear MEP with divided-difference selection.

    One orthonormal search space per factor; each outer iteration projects
    the problem onto the factor bases, extracts the tensor Ritz tuples with a
    one-sided standard eigensolve of the projected Delta pencil (dense_solve
    stays the two-sided oracle), walks them in target order until the
    sandwich criterion accepts one, and expands every factor space with a
    projected correction.  The loop is jdsolver's selection loop; criteria
    are computed on their first read, and when none passes the nearest
    candidate is taken.  A pair converges when all factor residuals meet
    the relative tolerance and the criterion passes; its left factor vectors
    are computed as adjoint null vectors, the parameter values are refined
    by the two-sided tensor Rayleigh system (kept only if every factor
    residual still meets tol at the refined values), and the triplet is
    registered with the residual of the values it stores.
    Values whose registration fails land on the blocked list.

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

    Returns MepResult; registry entries are MepTriplet in detection order.
    """
    opts = options if options is not None else MepOptions()
    opts.validate(mep)
    N = mep.nfactors
    rng = np.random.default_rng(opts.seed)
    target = tuple(complex(t) for t in opts.target)
    real = mep.dtype.kind == "f" and not any(t.imag for t in target)

    # LU of T_i(target) preconditions both correction and null-vector solves
    precs = [linsolve.LuPreconditioner(mep.t_eval(i, target)) for i in range(N)]
    spaces = [SearchSpace([mep.a_mat(i)] + list(mep.param_mats(i)), rng,
                          dtype=float if real else complex)
              for i in range(N)]

    def _randn(n):
        if real:
            return rng.standard_normal(n)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    ts = [_randn(mep.dims[i]) if v0s is None else np.asarray(v0s[i])
          for i in range(N)]

    registry = []
    records = []
    blocked = []

    def _extract():
        """Ritz tuples of the projected small MEP in target order."""
        small = _LinearMepBase([tuple(sp.H) for sp in spaces])
        try:
            cands = _projected_candidates(small)
        except np.linalg.LinAlgError:
            return []
        return sorted(cands, key=lambda c: _values_dist(c.values, target))

    def _criteria(cands):
        return _OnFirstRead(lambda j: mep_criterion(
            mep, registry, [sp.V @ x for sp, x in zip(spaces, cands[j].xs)],
            variant=opts.criterion))

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
        res = _residuals(values, xs)[1]
        if not res <= opts.tol:
            values, res = p.value, _residuals(p.value, xs)[1]
        mep_register(mep, registry, values, xs, ys, residual=res,
                     iteration=outer)
        return values, res

    def _record(outer, values, res, crit, event):
        values = () if values is None else values
        records.append(MepRecord(outer, values, res, crit, event))

    outer, truncated = _selection_loop(
        opts, spaces, ts, registry, blocked,
        criterion_threshold(opts.eta, opts.criterion), _randn,
        extract=_extract,
        is_blocked=lambda c: _mep_blocked(c.values, blocked, _BLOCKED_TOL),
        criteria=_criteria,
        no_pass=lambda crits: 0,
        pair=_pair,
        register=_register,
        # a complex tuple of a real problem is corrected in complex
        # arithmetic; its real space grows by Re t and Im t (SearchSpace)
        correct=lambda p: (_factor_correction(
            mep.t_eval(i, p.value), p.vecs[i], p.rs[i], opts.inner_steps,
            precs[i]) for i in range(N)),
        record=_record,
        basis=lambda c: c.xs,
    )
    return MepResult(registry, records, outer, truncated, blocked)


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


def fourpoint_grid(N):
    """Interior collocation nodes for the three unit intervals [i-1, i]."""
    _, x = cheb(N)
    grids = []
    for i in (1, 2, 3):
        a, b = float(i - 1), float(i)
        t = a + (b - a) * (x + 1.0) / 2.0
        grids.append(t[1:-1][::-1])
    return grids


def gen_fourpoint_bvp(N):
    """Three-parameter problem from w'' + (lam + 2 mu cos t + 2 nu cos 2t) w = 0.

    The equation is collocated on each of the unit intervals [0,1], [1,2],
    [2,3] with Chebyshev nodes of degree N and Dirichlet ends, giving factor
    matrices A_i = -W'' (interior block), B_i = I, C_i = 2 diag(cos t),
    D_i = 2 diag(cos 2t).  Eigenvalues (lam, mu, nu) make all three
    boundary value problems solvable at once.
    """
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
