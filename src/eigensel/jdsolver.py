"""Jacobi-Davidson subspace solver for PEPs with selection of new pairs.

The loop expands one orthonormal search space V.  Each iteration extracts
pairs of a projected polynomial sum_i theta^i (Q* A_i V) c = 0 via a
companion linearization, walks them in order of distance to the target, and
picks the first pair that the divided-difference selection criterion accepts
as new.  If none is accepted, the pair with the smallest criterion value is
used, but convergence is suspended for it, so an already-found eigenpair is
never registered twice.

Standard mode extracts harmonic pairs: the test space is Q = orth(P(tau) V)
(Hochstenbach & Sleijpen, NLAA 15, 2008), formed from the cached A_i V at
every iteration.  Ritz pairs (Q = V) favour exterior eigenvalues; near an
interior target they keep offering the pairs already registered, and every
iteration spent on one is lost.  Homogeneous mode keeps Ritz extraction,
where the harmonic test space cost outer iterations on the gyroscopic
problems it serves.

A pair converges when its residual passes the scaled tolerance AND the
criterion accepts it; its left eigenvector is then solved for, the triplet
is registered, and the process continues toward the next pair without any
deflation or locking of the problem.  A converged value whose
registration fails (defective or multiple eigenvalue, or an unobtainable
left vector) or that the criterion rejects is remembered on a blocked list
and excluded from later extraction, otherwise the solver would re-select it
forever.  A restart keeps the pick, the first mindim passing pairs and then
the rest in target order.

That iteration is _selection_loop, which mep_subspace_solve runs too, with
its own extraction, criterion, residuals, registration and correction.
jd_solve scores all pairs of an iteration in one contraction
(selection.candidate_criteria) with the registry's cached rows y* A_i
times V; no candidate vector is formed to be judged.  The correction
equation forms P(theta) once and never P'(theta), so the derivative matrix
is only built when a triplet is registered.

Infinite eigenvalues are first-class citizens in homogeneous mode:
eigenvalue approximations are projective points, residuals use the
homogeneous evaluation, and the correction equation uses the homogeneous
derivative operator.

oracle_all_eigenpairs provides the dense brute-force reference (all 2n / mn
eigenvalues with left and right eigenvectors) used by the tests.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
from collections import namedtuple
from dataclasses import dataclass

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
    criterion_value,  # unused here; perfbench traces the name in this module
    register,
)

__all__ = [
    "JDOptions",
    "SolveResult",
    "Record",
    "SearchSpace",
    "OracleCapError",
    "OraclePair",
    "rgs",
    "extract_candidates",
    "jd_solve",
    "oracle_all_eigenpairs",
]

ORACLE_CAP_ENV = "EIGENSEL_ORACLE_CAP"
DEFAULT_ORACLE_CAP = 2000

# |beta| below this on a normalized projected eigenvalue counts as infinite.
_BETA_CUT = 1e-12

# Exclusion radius around values whose registration failed (relative, or
# chordal for projective points), and the floor of the relative tolerance of
# a left eigenvector solve; both solver loops use them.
_BLOCKED_TOL = 1e-6
_LEFT_RTOL = 1e-8

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
    mode : "standard" (scalar eigenvalues, harmonic extraction) or
        "homogeneous" (projective, infinite eigenvalues representable, Ritz
        extraction); see extract_candidates.
    seed : seed for every random draw of the run.

    The radius around blocked values and the floor of the left eigenvector
    tolerance are the module constants _BLOCKED_TOL and _LEFT_RTOL.
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
    seed: int = 0

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
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be positive")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie strictly between 0 and 1")
        if self.mode not in ("standard", "homogeneous"):
            raise ValueError("mode must be 'standard' or 'homogeneous'")
        target = complex(self.target)
        if cmath.isnan(target) or (cmath.isinf(target)
                                   and self.mode == "standard"):
            raise ValueError("target must be finite (homogeneous mode also "
                             "takes an infinite one)")


@dataclass
class Record:
    """One solver event: the pick's value, relative residual, criterion
    value and event tag.

    value is a scalar for jd_solve (math.inf marks the infinite value) and
    a parameter tuple for mep_subspace_solve; None when an iteration had no
    candidates.
    """

    iteration: int
    value: object
    residual: float
    criterion: float
    event: str


@dataclass
class SolveResult:
    """What jd_solve and mep_subspace_solve return.

    registry : registered triplets in order of detection.
    records : one Record per event.
    outer_iterations : outer iterations run.
    truncated : the budget ran out before num_pairs were registered.
    blocked : values excluded from later extraction: converged picks whose
        registration failed and converged duplicates the criterion rejected.
    """

    registry: list
    records: list
    outer_iterations: int
    truncated: bool
    blocked: list


class SearchSpace:
    """Orthonormal basis V with cached products W_i = M_i V, H_i = V* W_i.

    mats is the list of operator matrices acting on this space (the PEP
    coefficients, or one factor's matrices of a multiparameter problem),
    all n x n.

    V, every W_i and every H_i live in preallocated column-major buffers
    whose capacity doubles when an append finds them full (capped at n).
    The properties V, W and H are views of the first k columns (rows and
    columns for H_i); a view is valid until the next append or restart,
    which write into the same buffers.  An append writes one column of V
    and of each W_i and one row and column of each H_i.

    The buffers hold dtype (complex by default).  A float64 space is for
    real matrices: a complex vector given to append or restart contributes
    its real and imaginary parts, the span of the vector and its conjugate.
    """

    def __init__(self, mats, rng, dtype=complex):
        self.mats = mats
        self.rng = rng
        self.k = 0
        self.dtype = np.dtype(dtype)
        self.n = n = mats[0].shape[0]
        cap = min(n, _INITIAL_CAPACITY)
        self._V = np.empty((n, cap), dtype=dtype, order="F")
        self._W = [np.empty((n, cap), dtype=dtype, order="F") for _ in mats]
        self._H = [np.empty((cap, cap), dtype=dtype, order="F") for _ in mats]

    def _splits(self, t):
        """True when t must enter this real space as its Re and Im parts."""
        return self.dtype.kind == "f" and np.iscomplexobj(t)

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
            new = np.empty(shape, dtype=self.dtype, order="F")
            new[used] = old[used]
            return new

        self._V = moved(self._V, (n, cap), cols)
        self._W = [moved(W, (n, cap), cols) for W in self._W]
        self._H = [moved(H, (cap, cap), block) for H in self._H]

    def append(self, t, fill=True):
        """Orthonormalize t against V (rgs) and extend V, W_i, H_i.

        No-op once V spans the whole space: the projected problem is then
        exact and no new direction exists.  With fill=False a t dependent
        on V is dropped (None is returned) instead of being replaced by a
        random direction.  A real space takes a complex t as Re t, then
        Im t only where that adds a direction.
        """
        if self._splits(t):
            v = self.append(t.real, fill)
            self.append(t.imag, fill=False)
            return v
        k = self.k
        if k >= self.n:
            return None
        v = rgs(self.V, t, self.rng, fill)
        if v is None:
            return None
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

    def restart(self, cs, limit=None):
        """Shrink to the span of V @ c for the kept primitive vectors cs.

        cs is read in priority order and at most limit directions are kept:
        the first limit vectors of a complex space, or in a real space the
        first limit of their real and imaginary parts that add a direction.
        """
        if self.dtype.kind == "f":
            C = np.empty((self.k, 0))
            parts = (part for c in cs
                     for part in ((c.real, c.imag) if self._splits(c) else (c,)))
            for part in parts:
                u = rgs(C, part, self.rng, fill=False)
                if u is not None:
                    C = np.column_stack([C, u])
                    if C.shape[1] == limit:
                        break
        else:
            C = np.column_stack(list(itertools.islice(cs, limit)))
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


def rgs(V, t, rng, fill=True):
    """Repeated Gram-Schmidt: return a unit vector orthogonal to V's columns.

    Two orthogonalization passes, in the dtype of V and t together; if the
    vector collapses below 1e-12 of its original norm it is replaced by a
    seeded random vector of that dtype (and the process repeats), so
    expansion never stalls on a zero or dependent direction.  With
    fill=False a collapsed vector gives None instead.
    """
    n = V.shape[0] if hasattr(V, "shape") else len(t)
    t = np.asarray(t)
    dtype = np.result_type(V, t)
    t = t.astype(dtype, copy=False)
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
        if not fill:
            return None
        t = rng.standard_normal(n)
        if dtype.kind == "c":
            t = t + 1j * rng.standard_normal(n)
    raise RuntimeError("could not produce a new orthonormal direction")


def _companion(lower):
    """Block companion matrix of H_0, ..., H_{m-1}: identities on the block
    superdiagonal and -H_0, ..., -H_{m-1} in the last block row."""
    m = len(lower)
    k = lower[0].shape[0]
    X = np.zeros((m * k, m * k), dtype=complex)
    eye = np.eye(k)
    for j in range(m - 1):
        X[j * k:(j + 1) * k, (j + 1) * k:(j + 2) * k] = eye
    for j in range(m):
        X[(m - 1) * k:, j * k:(j + 1) * k] = -lower[j]
    return X


def _linearize(coeffs):
    """First companion linearization (X, Y) of sum_i theta^i H_i: Y is the
    identity with H_m in its last diagonal block."""
    X = _companion(coeffs[:-1])
    Y = np.eye(X.shape[0], dtype=complex)
    k = coeffs[-1].shape[0]
    Y[-k:, -k:] = coeffs[-1]
    return X, Y


def _best_block(z, k):
    """Strongest k-block of a companion eigenvector [c, theta c, ...]."""
    blocks = z.reshape(-1, k)
    norms = np.linalg.norm(blocks, axis=1)
    c = blocks[int(np.argmax(norms))]
    return c / np.linalg.norm(c)


def _harmonic_coeffs(space, target):
    """Q* W_i for Q = orth(P(target) V): the projected coefficients of
    harmonic Petrov-Galerkin extraction.

    P(target) V = sum_i target^i W_i comes from the cached W_i = A_i V, so
    no matvec of length n is needed.
    """
    W = space.W
    Q = np.linalg.qr(sum(target ** i * Wi for i, Wi in enumerate(W)))[0]
    return [Q.conj().T @ Wi for Wi in W]


def extract_candidates(space, target, mode="standard"):
    """Pairs (theta, c) of the projected polynomial, ordered by target
    distance.

    Standard mode uses harmonic Petrov-Galerkin extraction (Hochstenbach &
    Sleijpen, NLAA 15, 2008): with the test space Q = orth(P(tau) V) the
    pairs solve Q* P(theta) V c = 0.  Ritz (Galerkin) extraction, V* P(theta)
    V c = 0, favours exterior values; near an interior target it keeps
    offering pairs the registry already holds, which the selection
    criterion then rejects iteration after iteration, while harmonic values
    approximate the eigenvalues nearest tau.  Homogeneous mode keeps Ritz
    extraction: there the harmonic test space took more outer iterations
    on the sparse gyroscopic problems it serves.

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
    homo = mode == "homogeneous"
    if homo:
        coeffs = space.H
    else:
        target = complex(target)
        coeffs = _harmonic_coeffs(space, target)
    X, Y = _linearize(coeffs)
    (alphas, betas), Z = sla.eig(X, Y, homogeneous_eigvals=True,
                                 check_finite=False)
    # strongest k-block of every companion eigenvector [c, theta c, ...]
    blocks = Z.T.reshape(Z.shape[1], -1, space.k)
    strongest = np.linalg.norm(blocks, axis=2).argmax(axis=1)
    C = blocks[np.arange(blocks.shape[0]), strongest]
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    if homo:
        tpt = (target if isinstance(target, hom.ProjectivePoint)
               else hom.from_scalar(complex(target)))
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
    """True when theta lies within tol of a blocked value: chordally in
    homogeneous mode, where every value is a projective point, and relative
    to the blocked value in standard mode."""
    if isinstance(theta, hom.ProjectivePoint):
        return any(hom.chordal_distance(theta, b) <= tol for b in blocked)
    return any(abs(theta - b) <= tol * max(1.0, abs(b)) for b in blocked)


# A pick of the selection loop: value and relative residual as recorded and
# blocked, the residual test, the criterion, and per search space the unit
# vector and residual vector that its correction starts from.
_Pick = namedtuple("_Pick", "value res converged crit vecs rs")


def _selection_loop(opts, spaces, ts, registry, blocked, randn, *,
                    extract, is_blocked, criteria, no_pass, pair, register,
                    correct, basis):
    """The outer iteration that jd_solve and mep_subspace_solve share.

    The hooks: extract() gives the candidates in target order and
    is_blocked(cand) drops a blocked one; criteria(cands) scores them,
    read by index, passing below opts.eta; no_pass(crits) is the pick when
    none passes; pair(cand, crit, first) makes the pick a _Pick;
    register(pick, outer) registers it and returns the value and residual
    to record; correct(pick) yields one correction per space; basis(cand)
    gives one coefficient vector per space; randn(n) draws a random
    vector.  Returns the SolveResult, with one Record per event; a
    projective value is recorded as its scalar.
    """
    records = []

    def record(value, res, crit, event):
        if isinstance(value, hom.ProjectivePoint):
            value = value.to_scalar()  # math.inf for the infinite point
        records.append(Record(outer, value, res, crit, event))

    def fresh_start():
        """Random expansions, after restarting full spaces on a random one."""
        if max(sp.k for sp in spaces) >= opts.maxdim:
            for sp in spaces:
                sp.restart([randn(sp.k)])
        return [randn(sp.n) for sp in spaces]

    def passing():
        """Indices of passing candidates in target order, read lazily."""
        return (j for j in range(len(cands)) if crits[j] < opts.eta)

    def select():
        """(index of the pick, whether it passes)."""
        j = next(passing(), None)
        return (no_pass(crits), False) if j is None else (j, True)

    outer = 0
    while outer < opts.max_outer:
        outer += 1
        for sp, t in zip(spaces, ts):
            sp.append(t)

        cands = [c for c in extract() if not is_blocked(c)]
        if not cands:
            record(None, math.nan, math.nan, "no_candidates")
            ts = fresh_start()
            continue
        crits = criteria(cands)
        chosen, sel_ok = select()
        p = pair(cands[chosen], crits[chosen], True)

        if p.converged:
            if sel_ok:
                try:
                    record(*register(p, outer), p.crit, "converged")
                except (DefectiveEigenvalueError,
                        linsolve.NullVectorError) as exc:
                    blocked.append(p.value)
                    record(p.value, p.res, p.crit,
                           f"rejected: {type(exc).__name__}")
                if len(registry) >= opts.num_pairs:
                    return SolveResult(registry, records, outer, False,
                                       blocked)
            else:
                # converged in residual yet rejected by the criterion: a
                # re-found (or defective) eigenvalue; block it so extraction
                # stops offering it, otherwise the run livelocks on it
                blocked.append(p.value)
                record(p.value, p.res, p.crit, "rejected: converged duplicate")
            # pick again among the other candidates against the updated
            # registry (a just-registered value now fails by construction)
            cands = [c for j, c in enumerate(cands)
                     if j != chosen and not is_blocked(c)]
            if not cands:
                ts = fresh_start()
                continue
            crits = criteria(cands)
            chosen = select()[0]
            p = pair(cands[chosen], crits[chosen], False)
        else:
            record(p.value, p.res, p.crit,
                   "expanded" if sel_ok else "no-pass")

        # restarts drop dependent kept directions, so several spaces need
        # not keep equal dimensions; the largest one decides
        if max(sp.k for sp in spaces) >= opts.maxdim:
            first = list(itertools.islice(passing(), opts.mindim))
            rest = [j for j in range(len(cands)) if j not in first]
            keep = [chosen] + [j for j in first + rest if j != chosen]
            for i, sp in enumerate(spaces):
                sp.restart((basis(cands[j])[i] for j in keep),
                           limit=opts.mindim)
            record(p.value, p.res, p.crit, "restarted")

        ts = [t if np.all(np.isfinite(t)) and np.linalg.norm(t) > 0.0
              else randn(sp.n) for sp, t in zip(spaces, correct(p))]

    return SolveResult(registry, records, outer, True, blocked)


def jd_solve(problem, options=None):
    """Compute several eigenpairs of a PEP by Jacobi-Davidson with selection.

    The search space starts from a seeded random vector, and the LU of
    P(target) preconditions every correction.

    Parameters
    ----------
    problem : PolyProblem
    options : JDOptions

    Returns
    -------
    SolveResult whose registry holds EigenTriplet in order of detection.
    """
    opts = options if options is not None else JDOptions()
    n = problem.n
    opts.validate(n)
    rng = np.random.default_rng(opts.seed)
    config = SelectionConfig(eta=opts.eta, mode=opts.mode)
    homo = opts.mode == "homogeneous"
    M = linsolve.lu_preconditioner(problem, opts.target)

    registry = []
    blocked = []

    def _rand(k):
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)

    def _pair(cand, crit, first):
        """The pick at theta, which the first pick of an iteration snaps to
        infinity once converged."""
        theta, c = cand.theta, cand.v
        r, resnorm, scale = _residual(problem, space, theta, c)
        converged = resnorm <= opts.tol * scale
        rho = resnorm / scale
        if first and converged:
            theta, rho = _snap_infinite(problem, space, theta, c, rho,
                                        opts.tol)
        return _Pick(theta, rho, converged, float(crit), [_unit(space.V @ c)],
                     [r])

    def _register(p, outer):
        """Left eigenvector, then registration.  The left residual cannot
        undercut the accuracy of theta itself, so the tolerance tracks the
        achieved right residual."""
        y = linsolve.left_eigenvector(
            problem, p.value, rtol=max(_LEFT_RTOL, 10.0 * p.res),
            seed=opts.seed + 1000 + len(registry) + len(blocked),
        )
        register(problem, registry, p.value, p.vecs[0], y, config,
                 residual=p.res, iteration=outer)
        return p.value, p.res

    t = _rand(n)
    space = SearchSpace(problem.coeffs, rng)
    target = hom.from_scalar(complex(opts.target)) if homo else complex(opts.target)

    return _selection_loop(
        opts, [space], [t], registry, blocked, _rand,
        extract=lambda: extract_candidates(space, target, opts.mode),
        is_blocked=lambda c: _is_blocked(c.theta, blocked, _BLOCKED_TOL),
        criteria=lambda cands: candidate_criteria(problem, registry, space.V,
                                                  cands, config),
        # the pair least like a registered one; it cannot be registered
        no_pass=lambda crits: int(np.argmin(crits)),
        pair=_pair,
        register=_register,
        correct=lambda p: [linsolve.projected_correction_solve(
            problem, p.value, p.vecs[0], p.rs[0], steps=opts.inner_steps,
            M=M)],
        basis=lambda c: [c.v],
    )


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
    limit = _oracle_cap(cap)
    if m * n > limit:
        raise OracleCapError(
            f"linearization dimension {m * n} exceeds the oracle cap {limit}; "
            f"raise {ORACLE_CAP_ENV} to override"
        )
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
