"""Dense brute-force oracles, the reference of the tests and demos.

oracle_all_eigenpairs runs two-sided QZ of the PEP companion pencil;
dense_solve runs one standard eigensolve of the MEP Delta pencil on the full
tensor space.  Both self-check their residuals.  No solver or CLI path calls
them.  Both refuse a pencil of more than cap rows (default 2000) with
OracleCapError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import homogeneous as hom
from .jdsolver import _linearize
from .mep import MepTriplet, _weighted_sum, dd_sandwich, delta_operators
from .problems import to_dense

__all__ = [
    "OracleCapError",
    "OraclePair",
    "MepOraclePair",
    "oracle_all_eigenpairs",
    "dense_solve",
    "dense_registry",
]

DEFAULT_ORACLE_CAP = 2000


class OracleCapError(ValueError):
    """Raised when a dense oracle would exceed the size cap."""


def _check_cap(rows, cap, what):
    if rows > cap:
        raise OracleCapError(f"{what} {rows} exceeds the oracle cap {cap}")


@dataclass
class OraclePair:
    """One eigenvalue from the dense oracle with vectors and residuals."""

    value: complex  # math.inf for the infinite eigenvalue
    point: hom.ProjectivePoint
    x: np.ndarray
    y: np.ndarray
    res_right: float
    res_left: float
    ok: bool


def _best_block(z, k):
    """Strongest k-block of a companion eigenvector [c, theta c, ...]."""
    blocks = z.reshape(-1, k)
    norms = np.linalg.norm(blocks, axis=1)
    c = blocks[int(np.argmax(norms))]
    return c / np.linalg.norm(c)


def oracle_all_eigenpairs(problem, cap=DEFAULT_ORACLE_CAP, residual_rtol=1e-8):
    """All eigenpairs of a PEP by dense linearization (brute force).

    Solves the mn-dimensional companion pencil with the QZ algorithm,
    extracting right eigenvectors from the strongest block and left
    eigenvectors of the polynomial from the last block of the pencil's left
    eigenvectors (for the infinite eigenvalue these are null vectors of A_m
    on both sides).  Pairs whose scaled residual exceeds residual_rtol are
    flagged ok=False rather than dropped.

    Raises OracleCapError when the linearization dimension m*n exceeds cap.
    """
    n = problem.n
    m = problem.degree
    _check_cap(m * n, cap, "linearization dimension")
    X, Y = _linearize([to_dense(A).astype(complex) for A in problem.coeffs])
    ab, VL, VR = sla.eig(X, Y, left=True, right=True, homogeneous_eigvals=True,
                         check_finite=False)
    alphas, betas = ab
    pairs = []
    for j in range(alphas.shape[0]):
        a, b = alphas[j], betas[j]
        nrm = math.hypot(abs(a), abs(b))
        if nrm < 1e-280 or not np.isfinite(nrm):
            continue  # degenerate: alpha = beta = 0 or not finite
        pt = hom.scale_canonical(hom.ProjectivePoint(a / nrm, b / nrm))
        x = _best_block(VR[:, j], n)
        y = VL[(m - 1) * n:, j]
        ny = np.linalg.norm(y)
        if ny == 0.0:
            continue
        y = y / ny
        value = pt.to_scalar()  # PolyProblem takes math.inf as (1, 0)
        scale = problem.tolerance_scale(value) or 1.0
        rr = float(np.linalg.norm(problem.matvec(value, x))) / scale
        rl = float(np.linalg.norm(problem.eval(value).conj().T @ y)) / scale
        pairs.append(
            OraclePair(value, pt, x, y, rr, rl,
                       ok=(rr <= residual_rtol and rl <= residual_rtol))
        )
    return pairs


@dataclass
class MepOraclePair:
    """One MEP eigenvalue tuple with factor vectors on both sides and the
    self-checks of dense_solve."""

    values: tuple
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


def dense_solve(mep, cap=DEFAULT_ORACLE_CAP, residual_rtol=1e-8):
    """All eigenvalues of a linear MEP by the operator determinant route.

    Builds the Delta matrices on the full tensor space and solves
    Delta_0^{-1} sum_j c_j Delta_j Z = Z Theta by one standard eigensolve for
    fixed generic complex weights c_j; the left vectors of the pencil are
    W = Delta_0^{-H} (Z^{-1})^H, paired column by column.  Every parameter is
    read at once as the two-sided Rayleigh value w* Delta_j z / w* Delta_0 z
    (the solver's extraction reads one-sided least-squares values instead),
    and factor vectors come from best rank-one (tensor) approximations of
    the columns of Z and W.  The weighted combination keeps tuples separated
    even when they share single coordinates (a cartesian-product spectrum
    makes any one Delta_j pencil degenerate).
    Pairs come in the eigensolver's order and are flagged ok=False when a
    factor residual exceeds residual_rtol times the factor scale or when an
    eigenvector is far from decomposable (second singular value above 1e-6
    of the first).

    An MEP whose Delta_0 is singular (one with infinite eigenvalues) is not
    supported: an exactly singular Delta_0 raises LinAlgError, and a
    numerically singular one gives ok=False pairs, which dense_registry
    drops.  Raises OracleCapError when the tensor dimension exceeds cap.
    """
    _check_cap(int(np.prod(mep.dims)), cap, "tensor dimension")
    deltas = delta_operators(mep)
    D0 = deltas[0]
    _, Z = np.linalg.eig(np.linalg.solve(D0, _weighted_sum(deltas)))
    W = np.linalg.solve(D0.conj().T, np.linalg.inv(Z).conj().T)
    Wh = W.conj()
    vals = np.array([np.einsum("ij,ij->j", Wh, D @ Z) for D in deltas[1:]])
    vals /= np.einsum("ij,ij->j", Wh, D0 @ Z)
    pairs = []
    for idx in np.flatnonzero(np.isfinite(vals).all(axis=0)):
        values = tuple(complex(v) for v in vals[:, idx])
        xs, xr = _rank1_factors(Z[:, idx], mep.dims)
        ys, yr = _rank1_factors(W[:, idx], mep.dims)
        rr = 0.0
        rl = 0.0
        for i in range(mep.nfactors):
            Ti = to_dense(mep.t_eval(i, values))
            scale = mep.tolerance_scale(i, values)
            rr = max(rr, float(np.linalg.norm(Ti @ xs[i])) / scale)
            rl = max(rl, float(np.linalg.norm(Ti.conj().T @ ys[i])) / scale)
        deco = max(xr, yr) <= 1e-6
        pairs.append(
            MepOraclePair(values, xs, ys, deco, rr, rl,
                          ok=(deco and rr <= residual_rtol
                              and rl <= residual_rtol))
        )
    return pairs


def dense_registry(mep, nparams, cap=DEFAULT_ORACLE_CAP, residual_rtol=1e-8):
    """The oracle of an nparams-parameter MEP as a registry of MepTriplet.

    Runs dense_solve and keeps the pairs that pass its decomposability and
    residual self-checks, attaching each one's coincident-sandwich
    denominator.  Triplets with a numerically singular denominator are kept
    (the criterion reports them as un-anchorable rather than hiding them).
    Raises ValueError when the problem does not have nparams parameters.
    """
    if mep.nparams != nparams:
        raise ValueError(f"expected a {nparams}-parameter problem, "
                         f"got {mep.nparams}")
    return [MepTriplet(p.values, list(p.xs), list(p.ys),
                       dd_sandwich(mep, p.values, p.values, p.ys, p.xs),
                       residual=max(p.res_right, p.res_left))
            for p in dense_solve(mep, cap=cap, residual_rtol=residual_rtol)
            if p.ok]
