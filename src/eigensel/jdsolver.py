"""Jacobi-Davidson subspace solver for PEPs with selection of new pairs.

The loop expands one orthonormal search space V.  Each iteration extracts
Ritz pairs of the projected polynomial sum_i theta^i (V* A_i V) c = 0 via a
companion linearization, walks them in order of distance to the target, and
picks the first pair that the divided-difference selection criterion accepts
as new (if none is accepted the overall best pair is used but convergence is
suspended for it, so an already-found eigenpair is never registered twice).
A pair converges when its residual passes the scaled tolerance AND the
criterion accepts it; its left eigenvector is then solved for, the triplet
is registered, and the process continues toward the next pair without any
deflation or locking of the problem.

All Ritz pairs of an iteration are scored in one contraction
(selection.candidate_criteria) with the registry's cached rows y* A_i times
V; no candidate vector is formed to be judged.  The correction equation
forms P(theta) once and never P'(theta), so the derivative matrix is only
built when a triplet is registered.

Restarts keep the best criterion-passing pairs.  Infinite eigenvalues are
first-class citizens in homogeneous mode: eigenvalue approximations are
projective points, residuals use the homogeneous evaluation, and the
correction equation uses the homogeneous derivative operator.

A converged value whose registration fails (defective or multiple eigenvalue,
or an unobtainable left vector) is remembered on a blocked list and excluded
from later extraction, otherwise the solver would re-select it forever.

oracle_all_eigenpairs provides the dense brute-force reference (all 2n / mn
eigenvalues with left and right eigenvectors) used by the tests;
oracle_eigenvalues gives the same spectrum from eigenvalue-only QZ and is what
``eigensel verify`` matches returned pairs against.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import homogeneous as hom
from . import linsolve
from .problems import to_dense
from .selection import (
    CandidatePair,
    DefectiveEigenvalueError,
    SelectionConfig,
    candidate_criteria,
    criterion_value,
    register,
)

__all__ = [
    "JDOptions",
    "JDResult",
    "ConvergenceRecord",
    "SearchSpace",
    "OracleCapError",
    "OraclePair",
    "rgs",
    "extract_candidates",
    "gal1_refine",
    "jd_solve",
    "oracle_all_eigenpairs",
    "oracle_eigenvalues",
]

ORACLE_CAP_ENV = "EIGENSEL_ORACLE_CAP"
DEFAULT_ORACLE_CAP = 2000

# |beta| below this on a normalized projected eigenvalue counts as infinite.
_BETA_CUT = 1e-12

# Columns a SearchSpace holds before its first growth; doubling from here
# fits jd_solve's default maxdim of 20 in one growth.
_INITIAL_CAPACITY = 10


@dataclass
class JDOptions:
    """Parameters of jd_solve.

    target : complex shift tau; candidates are ordered by distance to it
        (chordal distance in homogeneous mode).
    num_pairs : number of eigenpairs to compute.
    tol : relative residual tolerance; convergence requires
        ||r|| <= tol * sum_i |theta|^i ||A_i||_1 (homogeneous analogue in
        homogeneous mode) and the selection criterion to pass.
    mindim, maxdim : search space bounds, 1 <= mindim < maxdim <= n.
    max_outer : outer iteration budget; exceeding it truncates the solve.
    inner_steps : GMRES steps for the correction equation.
    eta : selection threshold in (0, 1).
    mode : "standard" (scalar eigenvalues) or "homogeneous" (projective,
        infinite eigenvalues representable).
    extraction : "ritz" or "gal1_refined" (one-dimensional Galerkin value
        refinement of the selected pair).
    seed : seed for every random draw of the run.
    blocked_tol : exclusion radius around values whose registration failed.
    left_rtol : relative tolerance for the left eigenvector solve.
    """

    target: complex = 0.0
    num_pairs: int = 1
    tol: float = 1e-9
    mindim: int = 10
    maxdim: int = 20
    max_outer: int = 200
    inner_steps: int = 10
    eta: float = 0.1
    mode: str = "standard"
    extraction: str = "ritz"
    seed: int = 0
    blocked_tol: float = 1e-6
    left_rtol: float = 1e-8

    def validate(self, n):
        if not 1 <= self.mindim < self.maxdim <= n:
            raise ValueError(
                f"need 1 <= mindim < maxdim <= n, got ({self.mindim}, "
                f"{self.maxdim}) with n = {n}"
            )
        if self.num_pairs < 1:
            raise ValueError("num_pairs must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be positive")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie strictly between 0 and 1")
        if self.mode not in ("standard", "homogeneous"):
            raise ValueError("mode must be 'standard' or 'homogeneous'")
        if self.extraction not in ("ritz", "gal1_refined"):
            raise ValueError("extraction must be 'ritz' or 'gal1_refined'")


@dataclass
class ConvergenceRecord:
    """One solver event: Ritz value, residual, criterion value, event tag."""

    iteration: int
    theta: complex  # math.inf (as complex(inf, 0)) marks the infinite value
    residual: float
    criterion: float
    event: str


@dataclass
class JDResult:
    registry: list
    records: list
    outer_iterations: int
    truncated: bool
    blocked: list = field(default_factory=list)


class SearchSpace:
    """Orthonormal basis V with cached products W_i = M_i V, H_i = V* W_i.

    mats is the list of operator matrices acting on this space (the PEP
    coefficients, or one factor's matrices of a multiparameter problem).

    V, every W_i and every H_i live in preallocated column-major buffers
    whose capacity doubles when an append finds them full (capped at n).
    The properties V, W and H are views of the first k columns (rows and
    columns for H_i); a view is valid until the next append or restart,
    which write into the same buffers.  An append writes one column of V
    and of each W_i and one row and column of each H_i.
    """

    def __init__(self, mats, rng):
        self.mats = mats
        self.rng = rng
        self.k = 0
        n = mats[0].shape[0]
        cap = min(n, _INITIAL_CAPACITY)
        self._V = np.empty((n, cap), dtype=complex, order="F")
        self._W = [np.empty((n, cap), dtype=complex, order="F") for _ in mats]
        self._H = [np.empty((cap, cap), dtype=complex, order="F") for _ in mats]

    @property
    def V(self):
        return self._V[:, : self.k]

    @property
    def W(self):
        return [W[:, : self.k] for W in self._W]

    @property
    def H(self):
        return [H[: self.k, : self.k] for H in self._H]

    def _grow(self):
        """Double the buffers' capacity (capped at n), keeping the k columns."""
        n, cap = self._V.shape
        cap = min(n, 2 * cap)
        cols, block = np.s_[:, : self.k], np.s_[: self.k, : self.k]

        def moved(old, shape, used):
            new = np.empty(shape, dtype=complex, order="F")
            new[used] = old[used]
            return new

        self._V = moved(self._V, (n, cap), cols)
        self._W = [moved(W, (n, cap), cols) for W in self._W]
        self._H = [moved(H, (cap, cap), block) for H in self._H]

    def append(self, t):
        """Orthonormalize t against V (rgs) and extend V, W_i, H_i.

        No-op once V spans the whole space: the projected problem is then
        exact and no new direction exists.
        """
        n = self._V.shape[0]
        k = self.k
        if k >= n:
            return None
        v = rgs(self.V, t, self.rng)
        if k == self._V.shape[1]:
            self._grow()
        V = self._V
        V[:, k] = v
        for A, W, H in zip(self.mats, self._W, self._H):
            w = A @ v
            W[:, k] = w
            if k:
                H[:k, k] = (w.conj() @ V[:, :k]).conj()
                H[k, :k] = v.conj() @ W[:, :k]
            H[k, k] = np.vdot(v, w)
        self.k = k + 1
        return v

    def restart(self, cs):
        """Shrink to the span of V @ c for the kept primitive vectors cs."""
        C = np.column_stack(cs)
        # orthonormalize the combination in coefficient space; V stays
        # orthonormal so V @ U is orthonormal too
        U, s, _ = np.linalg.svd(C, full_matrices=False)
        keep = s > 1e-12 * s[0]
        V = self.V @ U[:, keep]
        j = V.shape[1]
        self._V[:, :j] = V
        self.k = j
        for A, W, H in zip(self.mats, self._W, self._H):
            W[:, :j] = A @ V
            H[:j, :j] = V.conj().T @ W[:, :j]


def rgs(V, t, rng):
    """Repeated Gram-Schmidt: return a unit vector orthogonal to V's columns.

    Two orthogonalization passes; if the vector collapses below 1e-12 of its
    original norm it is replaced by a seeded random vector (and the process
    repeats), so expansion never stalls on a zero or dependent direction.
    """
    n = V.shape[0] if hasattr(V, "shape") else len(t)
    t = np.asarray(t, dtype=complex)
    for _ in range(100):
        nt0 = np.linalg.norm(t)
        if nt0 > 0.0 and np.isfinite(nt0):
            u = t / nt0
            for _ in range(2):
                if V.shape[1]:
                    u = u - V @ (u.conj() @ V).conj()
            nu = np.linalg.norm(u)
            if nu > 1e-12:
                return u / nu
        t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    raise RuntimeError("could not produce a new orthonormal direction")


def _linearize(coeffs):
    """First companion linearization (X, Y) of sum_i theta^i H_i."""
    m = len(coeffs) - 1
    k = coeffs[0].shape[0]
    X = np.zeros((m * k, m * k), dtype=complex)
    Y = np.zeros((m * k, m * k), dtype=complex)
    eye = np.eye(k)
    for j in range(m - 1):
        X[j * k:(j + 1) * k, (j + 1) * k:(j + 2) * k] = eye
        Y[j * k:(j + 1) * k, j * k:(j + 1) * k] = eye
    for j in range(m):
        X[(m - 1) * k:, j * k:(j + 1) * k] = -coeffs[j]
    Y[(m - 1) * k:, (m - 1) * k:] = coeffs[m]
    return X, Y


def _best_block(z, k):
    """Strongest k-block of a companion eigenvector [c, theta c, ...]."""
    blocks = z.reshape(-1, k)
    norms = np.linalg.norm(blocks, axis=1)
    c = blocks[int(np.argmax(norms))]
    return c / np.linalg.norm(c)


def extract_candidates(space, target, mode="standard"):
    """Ritz pairs of the projected polynomial, ordered by target distance.

    Returns CandidatePair(theta, c) with theta scalar in standard mode
    (infinite projected values dropped) and ProjectivePoint in homogeneous
    mode (infinite values kept).  Pairs where the projected pencil is
    singular (alpha = beta = 0) are dropped in both modes; the list may be
    empty.  Ties in distance keep the QZ order.

    The strongest block of every companion eigenvector is picked and
    normalized in a few array operations.  Values and distances are scalar
    arithmetic on the survivors: it rounds the two members of a symmetric
    pair (theta and -conj(theta) of a gyroscopic problem) alike, so their
    exact tie is broken by QZ order rather than by the last bit.
    """
    X, Y = _linearize(space.H)
    (alphas, betas), Z = sla.eig(X, Y, homogeneous_eigvals=True,
                                 check_finite=False)
    # strongest k-block of every companion eigenvector [c, theta c, ...]
    blocks = Z.T.reshape(Z.shape[1], -1, space.k)
    strongest = np.linalg.norm(blocks, axis=2).argmax(axis=1)
    C = blocks[np.arange(blocks.shape[0]), strongest]
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    homo = mode == "homogeneous"
    if homo:
        tpt = (target if isinstance(target, hom.ProjectivePoint)
               else hom.from_scalar(complex(target)))
    else:
        target = complex(target)
    idx, dist, values = [], [], []
    for j in range(alphas.shape[0]):
        a, b = alphas[j], betas[j]
        nrm = math.hypot(abs(a), abs(b))
        if nrm < 1e-280 or not np.isfinite(nrm):
            continue
        a, b = a / nrm, b / nrm
        if homo:
            theta = hom.scale_canonical(hom.ProjectivePoint(a, b))
            d = hom.chordal_distance(theta, tpt)
        elif abs(b) < _BETA_CUT:
            continue
        else:
            theta = a / b
            d = abs(theta - target)
        idx.append(j)
        dist.append(d)
        values.append(theta)
    order = np.lexsort((idx, dist))
    return [CandidatePair(values[i], C[idx[i]]) for i in order]


def gal1_refine(problem, v, target, theta0=None):
    """One-dimensional Galerkin eigenvalue for the vector v.

    Returns the root of the scalar polynomial sum_i theta^i (v* A_i v) whose
    residual ||P(theta) v|| is smallest, ties broken by distance to the
    target.  A (numerically) zero polynomial keeps theta0.
    """
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    p = np.array([np.vdot(v, A @ v) for A in problem.coeffs])
    scale = np.max(np.abs(p))
    if scale == 0.0 or not np.isfinite(scale):
        return theta0
    # np.roots wants highest degree first and no leading (near-)zeros
    coeffs = p[::-1]
    nz = np.nonzero(np.abs(coeffs) > 1e-14 * scale)[0]
    if nz.size == 0 or nz[0] == len(coeffs) - 1:
        return theta0
    roots = np.roots(coeffs[nz[0]:])
    if roots.size == 0:
        return theta0
    res = np.array([np.linalg.norm(problem.matvec(t, v)) for t in roots])
    best = res.min()
    close = res <= best * (1.0 + 1e-12) + 0.0
    pick = np.where(close)[0]
    if pick.size > 1:
        pick = pick[np.argmin(np.abs(roots[pick] - complex(target)))]
    else:
        pick = pick[0]
    return complex(roots[pick])


def _theta_scalar(theta):
    """Recordable complex value of a scalar or projective theta."""
    if isinstance(theta, hom.ProjectivePoint):
        s = theta.to_scalar()
        return complex(math.inf, 0.0) if s == math.inf else complex(s)
    return complex(theta)


def _residual(problem, space, theta, c):
    """Residual vector and scaled norm for a primitive Ritz pair."""
    m = problem.degree
    if isinstance(theta, hom.ProjectivePoint):
        w = hom.hom_weights(m, theta)
        scale = hom.hom_tolerance_scale(problem, theta)
    else:
        w = np.array([complex(theta) ** i for i in range(m + 1)])
        scale = problem.tolerance_scale(abs(theta))
    r = sum(w[i] * (W @ c) for i, W in enumerate(space.W))
    return r, float(np.linalg.norm(r)), scale


def _snap_infinite(problem, space, theta, c, rho, tol):
    """(theta, rho) with a converged projective theta moved to infinity
    when its |beta| is within the accuracy rho the pair has reached.

    A point that converged with |beta| <= max(INF_TOL, rho) cannot be told
    from the infinite one at that accuracy, yet taken literally it is a huge
    finite value whose registration checks (simplicity, the criterion
    against later candidates) misjudge it.  It becomes (1, 0) only if the
    residual there still meets tol; rho is then that residual.  Scalar
    theta and points with larger |beta| are returned unchanged.
    """
    if (not isinstance(theta, hom.ProjectivePoint)
            or abs(theta.beta) > max(hom.INF_TOL, rho)):
        return theta, rho
    inf = hom.ProjectivePoint(1.0, 0.0)
    _, resnorm, scale = _residual(problem, space, inf, c)
    if resnorm <= tol * scale:
        return inf, resnorm / scale
    return theta, rho


def _unit(v):
    """v scaled to unit norm (a zero vector stays zero)."""
    nv = np.linalg.norm(v)
    return v / nv if nv > 0 else v


def _is_blocked(theta, blocked, tol):
    for b in blocked:
        if isinstance(theta, hom.ProjectivePoint) or isinstance(b, hom.ProjectivePoint):
            pt = theta if isinstance(theta, hom.ProjectivePoint) else hom.from_scalar(theta)
            bp = b if isinstance(b, hom.ProjectivePoint) else hom.from_scalar(b)
            if hom.chordal_distance(pt, bp) <= tol:
                return True
        else:
            if abs(complex(theta) - complex(b)) <= tol * max(1.0, abs(complex(b))):
                return True
    return False


def jd_solve(problem, options=None, v0=None, M=None):
    """Compute several eigenpairs of a PEP by Jacobi-Davidson with selection.

    Parameters
    ----------
    problem : PolyProblem
    options : JDOptions
    v0 : optional starting vector (seeded random otherwise).
    M : optional preconditioner with .solve (default: LU of P(target)).

    Returns
    -------
    JDResult with the registry of EigenTriplet (in order of detection), the
    per-iteration ConvergenceRecord list, the outer iteration count, the
    truncation flag (budget exhausted before num_pairs converged), and the
    blocked values.
    """
    opts = options if options is not None else JDOptions()
    n = problem.n
    opts.validate(n)
    rng = np.random.default_rng(opts.seed)
    config = SelectionConfig(eta=opts.eta, mode=opts.mode)
    homo = opts.mode == "homogeneous"
    if M is None:
        M = linsolve.lu_preconditioner(problem, opts.target)

    registry = []
    records = []
    blocked = []

    def _rand():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def _fresh_start():
        """Random expansion, after restarting a full space on a random one."""
        if space.k >= opts.maxdim:
            space.restart([rng.standard_normal(space.k)
                           + 1j * rng.standard_normal(space.k)])
        return _rand()

    def _unblocked(cs):
        return [c for c in cs
                if not _is_blocked(c.theta, blocked, opts.blocked_tol)]

    def _select():
        """Criterion values of all candidates, scored in one contraction
        against the registry, and the first passing index (candidates are
        in target order), or None when none passes."""
        crits = candidate_criteria(problem, registry, space.V, cands, config)
        passing = np.flatnonzero(crits < opts.eta)
        return crits, int(passing[0]) if passing.size else None

    t = _rand() if v0 is None else np.asarray(v0, dtype=complex)
    space = SearchSpace(problem.coeffs, rng)
    target = hom.from_scalar(complex(opts.target)) if homo else complex(opts.target)

    outer = 0
    while outer < opts.max_outer:
        outer += 1
        space.append(t)

        cands = _unblocked(extract_candidates(space, target, opts.mode))
        if not cands:
            records.append(
                ConvergenceRecord(outer, complex(np.nan), math.nan, math.nan,
                                  "no_candidates")
            )
            t = _fresh_start()
            continue

        crits, chosen_idx = _select()
        sel_ok = chosen_idx is not None
        if not sel_ok:
            chosen_idx = 0  # best pair regardless; it cannot be registered
            # (a residual-converged one is blocked below)

        theta, c = cands[chosen_idx].theta, cands[chosen_idx].v
        vc = space.V @ c
        if opts.extraction == "gal1_refined":
            theta = _gal1_for_mode(problem, vc, target, theta, homo)
        v = _unit(vc)
        r, resnorm, scale = _residual(problem, space, theta, c)
        if opts.extraction == "gal1_refined":
            crit = criterion_value(problem, registry, CandidatePair(theta, v),
                                   config)
        else:
            crit = float(crits[chosen_idx])

        if resnorm <= opts.tol * scale:
            theta, rho = _snap_infinite(problem, space, theta, c,
                                        resnorm / scale, opts.tol)
            if sel_ok:
                # eigenpair found: left eigenvector, then registration.  The
                # left residual cannot undercut the accuracy of theta
                # itself, so the tolerance tracks the achieved right
                # residual.
                try:
                    y = linsolve.left_eigenvector(
                        problem,
                        theta,
                        rtol=max(opts.left_rtol, 10.0 * rho),
                        M=M,
                        seed=opts.seed + 1000 + len(registry) + len(blocked),
                    )
                    register(problem, registry, theta, v, y, config,
                             residual=rho, iteration=outer)
                    records.append(
                        ConvergenceRecord(outer, _theta_scalar(theta), rho,
                                          crit, "converged")
                    )
                except (DefectiveEigenvalueError,
                        linsolve.NullVectorError) as exc:
                    blocked.append(theta)
                    records.append(
                        ConvergenceRecord(outer, _theta_scalar(theta), rho,
                                          crit,
                                          f"rejected: {type(exc).__name__}")
                    )
                if len(registry) >= opts.num_pairs:
                    return JDResult(registry, records, outer, False, blocked)
            else:
                # converged in residual yet rejected by the criterion: a
                # re-found (or defective) eigenvalue; keep extraction from
                # offering it again, otherwise the run livelocks on it
                blocked.append(theta)
                records.append(
                    ConvergenceRecord(outer, _theta_scalar(theta), rho, crit,
                                      "rejected: converged duplicate")
                )
            # select the next-best pair that passes against the updated
            # registry (a just-registered value now fails by construction)
            cands = _unblocked(cand for i, cand in enumerate(cands)
                               if i != chosen_idx)
            if not cands:
                t = _fresh_start()
                continue
            crits, chosen_idx = _select()
            if chosen_idx is None:
                chosen_idx = 0
            theta, c = cands[chosen_idx].theta, cands[chosen_idx].v
            v = _unit(space.V @ c)
            r, resnorm, scale = _residual(problem, space, theta, c)
        else:
            records.append(
                ConvergenceRecord(outer, _theta_scalar(theta), resnorm / scale,
                                  crit, "expanded" if sel_ok else "no-pass")
            )

        if space.k >= opts.maxdim:
            # keep criterion-passing pairs nearest the target, then fill up
            passing = [i for i in range(len(cands)) if crits[i] < opts.eta]
            failing = [i for i in range(len(cands)) if i not in set(passing)]
            keep = (passing + failing)[: opts.mindim]
            if chosen_idx in keep:
                keep.remove(chosen_idx)
            keep = ([chosen_idx] + keep)[: opts.mindim]
            space.restart([cands[i].v for i in keep])
            records.append(
                ConvergenceRecord(outer, _theta_scalar(theta), resnorm / scale,
                                  crit, "restarted")
            )

        t = linsolve.projected_correction_solve(
            problem, theta, v, r, steps=opts.inner_steps, M=M
        )
        if not np.all(np.isfinite(t)) or np.linalg.norm(t) == 0.0:
            t = _rand()

    return JDResult(registry, records, outer, True, blocked)


def _gal1_for_mode(problem, v, target, theta, homo):
    """gal1 refinement; homogeneous mode refines only clearly finite values."""
    if not homo:
        refined = gal1_refine(problem, v, complex(target), theta0=theta)
        return theta if refined is None else refined
    if isinstance(theta, hom.ProjectivePoint) and abs(theta.beta) < 1e-8:
        return theta
    tgt = target.to_scalar() if isinstance(target, hom.ProjectivePoint) else target
    if tgt == math.inf:
        tgt = 0.0
    refined = gal1_refine(problem, v, complex(tgt), theta0=None)
    if refined is None:
        return theta
    return hom.scale_canonical(hom.from_scalar(refined))


class OracleCapError(ValueError):
    """Raised when a dense oracle would exceed the size cap."""


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


def _oracle_cap(cap):
    if cap is not None:
        return int(cap)
    env = os.environ.get(ORACLE_CAP_ENV)
    return int(env) if env else DEFAULT_ORACLE_CAP


def _oracle_pencil(problem, cap):
    """Dense companion pencil (X, Y) of a PEP; OracleCapError past the cap."""
    n = problem.n
    m = problem.degree
    limit = _oracle_cap(cap)
    if m * n > limit:
        raise OracleCapError(
            f"linearization dimension {m * n} exceeds the oracle cap {limit}; "
            f"raise {ORACLE_CAP_ENV} to override"
        )
    return _linearize([to_dense(A).astype(complex) for A in problem.coeffs])


def _oracle_point(a, b):
    """Canonical point of a QZ eigenvalue (a, b); None if it is degenerate."""
    nrm = math.hypot(abs(a), abs(b))
    if nrm < 1e-280 or not np.isfinite(nrm):
        return None
    return hom.scale_canonical(hom.ProjectivePoint(a / nrm, b / nrm))


def oracle_all_eigenpairs(problem, cap=None, residual_rtol=1e-8):
    """All eigenpairs of a PEP by dense linearization (brute force).

    Solves the mn-dimensional companion pencil with the QZ algorithm,
    extracting right eigenvectors from the strongest block and left
    eigenvectors of the polynomial from the last block of the pencil's left
    eigenvectors (for the infinite eigenvalue these are null vectors of A_m
    on both sides).  Pairs whose scaled residual exceeds residual_rtol are
    flagged ok=False rather than dropped.

    The linearization dimension m*n must not exceed the cap (default 2000,
    overridable by the EIGENSEL_ORACLE_CAP environment variable or the cap
    argument); OracleCapError otherwise.
    """
    n = problem.n
    m = problem.degree
    X, Y = _oracle_pencil(problem, cap)
    ab, VL, VR = sla.eig(X, Y, left=True, right=True, homogeneous_eigvals=True,
                         check_finite=False)
    alphas, betas = ab
    pairs = []
    for j in range(alphas.shape[0]):
        pt = _oracle_point(alphas[j], betas[j])
        if pt is None:
            continue
        x = _best_block(VR[:, j], n)
        y = VL[(m - 1) * n:, j]
        ny = np.linalg.norm(y)
        if ny == 0.0:
            continue
        y = y / ny
        if pt.is_infinite:
            value = math.inf
            scale = float(problem.norms1[m]) or 1.0
            Am = problem.coeffs[m]
            rr = float(np.linalg.norm(Am @ x)) / scale
            rl = float(np.linalg.norm(Am.conj().T @ y)) / scale
        else:
            value = pt.to_scalar()
            scale = problem.tolerance_scale(abs(value)) or 1.0
            rr = float(np.linalg.norm(problem.matvec(value, x))) / scale
            rl = float(np.linalg.norm(problem.eval(value).conj().T @ y)) / scale
        pairs.append(
            OraclePair(value, pt, x, y, rr, rl,
                       ok=(rr <= residual_rtol and rl <= residual_rtol))
        )
    return pairs


def oracle_eigenvalues(problem, cap=None):
    """All eigenvalues of a PEP by dense linearization, without vectors.

    Eigenvalue-only QZ on the same companion pencil as oracle_all_eigenpairs
    (no Q, Z accumulation and no eigenvector back-substitution).  Returns the
    canonical ProjectivePoints in QZ order.  Degenerate values (alpha = beta
    = 0 or not finite) are dropped as there; unlike there, a value is not
    dropped for a vanishing left vector block, which has none.  Same cap.
    """
    X, Y = _oracle_pencil(problem, cap)
    alphas, betas = sla.eigvals(X, Y, homogeneous_eigvals=True,
                                check_finite=False)
    points = (_oracle_point(a, b) for a, b in zip(alphas, betas))
    return [pt for pt in points if pt is not None]
