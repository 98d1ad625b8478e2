"""Divided-difference selection of already-computed eigenpairs.

For distinct simple eigenvalues (lam_i, x_i, y_i) and (lam_j, x_j, y_j) of a
nonlinear eigenvalue problem F the generalized orthogonality

    y_i* F[lam_i, lam_j] x_j = 0,    F[lam, mu] = (F(lam) - F(mu)) / (lam - mu)

holds, while y* F'(lam) x != 0 characterizes simplicity.  A candidate
Ritz pair (theta, v) produced by a subspace method can therefore be tested
against every converged triplet in a registry:

    max_i |y_i* F[lam_i, theta] v| / |y_i* F'(lam_i) x_i| < eta

with 0 < eta < 1 accepts candidates heading for a new eigenvalue (the ratio
tends to 0) and rejects repeats (the ratio tends to 1 as (theta, v)
approaches a registered pair).  This replaces deflation or angle-based
locking: no transformation of the problem, no growing projectors, and it
works where eigenvectors of distinct eigenvalues (nearly) coincide.

The registry is a plain list of EigenTriplet; criterion_value / passes /
register are the operations on it, and candidate_criteria scores all Ritz
pairs of a subspace method at once.  Both scalar and homogeneous
(projective) eigenvalue representations are supported: a ProjectivePoint
value selects the homogeneous form, in which the divided difference and
derivative are replaced by their projective counterparts.

For a polynomial the criterion needs only the rows y_i* A_k of each
registered triplet, stacked as R.  Candidates (theta_j, V c_j) over a basis
V are scored from G = R V: with the divided-difference weights w_ijk of
F[lam_i, theta_j] = sum_k w_ijk A_k, the value for pair (i, j) is
|sum_k w_ijk (G c_j)_ik| / (|denom_i| ||V c_j||), one contraction for all
registry entries and candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import homogeneous as hom
from .problems import dd_weights, norm1

__all__ = [
    "EigenTriplet",
    "CandidatePair",
    "DefectiveEigenvalueError",
    "criterion_value",
    "candidate_criteria",
    "passes",
    "register",
]

# |y* F'(lam) x| below this multiple of ||F'(lam)||_1 (unit x, y), or a
# multiparameter Jacobian below this multiple of mep.jacobian_scale, is
# treated as a defective or multiple eigenvalue: the triplet cannot anchor
# the criterion because its denominator carries no information.
SIMPLICITY_RTOL = 1e-12

RECOMMENDED_ETA = 0.1


class DefectiveEigenvalueError(ValueError):
    """Raised when a triplet fails the simplicity threshold at registration."""


@dataclass
class EigenTriplet:
    """A converged eigenvalue with right/left eigenvectors and metadata.

    value is the scalar eigenvalue (math.inf marks the infinite eigenvalue);
    point is its projective representation, always set in homogeneous mode.
    denom caches y* F'(lam) x (or y* DP(point) x), the criterion denominator.
    """

    value: complex
    right: np.ndarray
    left: np.ndarray
    denom: complex
    cond: float = math.nan
    residual: float = math.nan
    found_iteration: int = -1
    point: Optional[hom.ProjectivePoint] = None


@dataclass
class CandidatePair:
    """A Ritz pair to be judged: value (scalar or ProjectivePoint) and vector."""

    theta: object
    v: np.ndarray


def _adjoint_rows(triplet, factors):
    """Rows y* M = conj(M^H y) for each (y, mats) of factors, one array of
    rows per factor, cached on the triplet at the first call.

    They are the only quantities of the problem the criterion needs for a
    polynomial (y the left vector, mats the coefficients A_k) or a linear
    multiparameter problem (per factor y_i and the matrices P_ij): a few
    inner products per tested candidate after this one-time O(n^2) or
    O(nnz) setup per registered triplet.
    """
    rows = getattr(triplet, "_rows", None)
    if rows is None:
        rows = triplet._rows = [np.array([np.conj(M.conj().T @ y)
                                          for M in mats])
                                for y, mats in factors]
    return rows


def _poly_criteria(problem, registry, G, C, thetas):
    """Criterion of the candidates (thetas[j], V C[:, j]) from G = R V.

    R stacks the adjoint rows of the registry, so G holds y_i* A_k V in row
    i (m+1) + k.  V is orthonormal (||V c|| = ||c||).  ProjectivePoint
    thetas are scored in homogeneous form.  Returns the maximum over the
    registry per candidate.
    """
    m = problem.degree
    GC = (G @ C).reshape(len(registry), m + 1, C.shape[1])
    # w[i, j, k]: weight of A_k in F[lam_i, theta_j]
    if isinstance(thetas[0], hom.ProjectivePoint):
        w = hom.hom_dd_weights(m, [t.point for t in registry], thetas)
    else:
        lam = np.array([complex(t.value) for t in registry])
        theta = np.array([complex(th) for th in thetas])
        w = dd_weights(m, lam[:, None], theta[None, :])
    vals = np.abs(np.einsum("ijk,ikj->ij", w, GC))
    vals /= (np.abs([t.denom for t in registry])[:, None]
             * np.linalg.norm(C, axis=0))
    return vals.max(axis=0)


def _stacked_rows(problem, registry):
    return np.vstack([_adjoint_rows(t, [(t.left, problem.coeffs)])[0]
                      for t in registry])


def criterion_value(problem, registry, cand):
    """max_i |y_i* F[lam_i, theta] v| / |denom_i| over the registry.

    An empty registry gives 0.0 (every candidate is new).  v is normalized
    defensively.  A ProjectivePoint theta takes the projective divided
    difference, with the registered point first and the candidate aligned
    to it.  For polynomials this is candidate_criteria's contraction for
    the basis V = [v]: it runs over the cached rows y* A_k, no
    divided-difference matrix is assembled.
    """
    if not registry:
        return 0.0
    v = np.asarray(cand.v)
    v = v / np.linalg.norm(v)
    if not hasattr(problem, "coeffs"):
        # general nonlinear problem: apply the divided-difference matrix
        return max(
            abs(np.vdot(t.left, problem.divided_difference(
                t.value, complex(cand.theta)) @ v)) / abs(t.denom)
            for t in registry
        )
    G = _stacked_rows(problem, registry) @ v[:, None]
    return float(_poly_criteria(problem, registry, G, np.ones((1, 1)),
                                [cand.theta])[0])


def candidate_criteria(problem, registry, V, cands):
    """criterion_value of every candidate (theta, V c) of a polynomial.

    V has orthonormal columns and cands are CandidatePair(theta, c) with c
    the coefficients of the candidate vector in V.  All candidates are
    scored in one contraction with G = R V (R the stacked cached rows of
    the registry), so no candidate vector V c is formed.  Returns an array
    with one value per candidate, zeros for an empty registry.
    """
    if not registry:
        return np.zeros(len(cands))
    G = _stacked_rows(problem, registry) @ V
    C = np.column_stack([c.v for c in cands])
    return _poly_criteria(problem, registry, G, C, [c.theta for c in cands])


def passes(problem, registry, cand, eta=RECOMMENDED_ETA):
    """True when the candidate is accepted as heading for a new eigenvalue."""
    return criterion_value(problem, registry, cand) < eta


def register(problem, registry, theta, x, y, residual=math.nan,
             iteration=-1):
    """Normalize, validate simplicity, and append a triplet to the registry.

    theta is a scalar, or a ProjectivePoint for the homogeneous form, whose
    triplet keeps the canonical point.  Raises DefectiveEigenvalueError
    when the criterion denominator |y* F'(lam) x| falls below
    SIMPLICITY_RTOL * ||F'(lam)||_1 for unit x, y: such a value cannot be
    used as a selection anchor.  Returns the new triplet.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)

    if isinstance(theta, hom.ProjectivePoint):
        point = hom.scale_canonical(theta)
        dF = hom.hom_D(problem, point)
        value = point.to_scalar()
    else:
        point = None
        value = complex(theta)
        dF = problem.derivative(value)
    denom = complex(np.vdot(y, dF @ x))
    scale = norm1(dF)
    if abs(denom) < SIMPLICITY_RTOL * scale:
        raise DefectiveEigenvalueError(
            f"|y* F'(lam) x| = {abs(denom):.3e} is below {SIMPLICITY_RTOL:g} * "
            f"||F'||_1 = {SIMPLICITY_RTOL * scale:.3e}: eigenvalue looks "
            "multiple or defective and cannot anchor the selection criterion"
        )
    # condition numbers only for survivors; the defective branch above
    # would otherwise warn or raise twice for the same root cause.  They
    # reuse denom, so F'(lam) (or DP) is formed once per registration.
    cond = math.nan
    if point is not None:
        cond = hom._hom_condition(problem, point, abs(denom))
    elif hasattr(problem, "_condition"):
        cond = problem._condition(value, abs(denom))
    triplet = EigenTriplet(
        value=value,
        right=x,
        left=y,
        denom=denom,
        cond=cond,
        residual=residual,
        found_iteration=iteration,
        point=point,
    )
    registry.append(triplet)
    return triplet
