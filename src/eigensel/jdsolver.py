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
criterion accepts it; its left eigenvector is then obtained
(linsolve.left_eigenvector), the triplet is registered, and the process
continues toward the next pair without any deflation or locking of the
problem.  A converged value whose registration fails (defective or
multiple eigenvalue, an error bound cond * residual above
selection.ERROR_BOUND_GUARD, or an unobtainable left vector) or that the
criterion rejects is remembered on a blocked list and excluded from later
extraction, otherwise the solver would re-select it forever.  A restart
keeps the pick, the first mindim passing pairs and then the rest in target
order.

That iteration is _selection_loop, which mep_subspace_solve runs too, with
its own extraction, criterion, residuals, registration and correction.
jd_solve scores all pairs of an iteration in one contraction
(selection.candidate_criteria) of G = R V, the registry's rows y* A_i
projected on V, which the SearchSpace keeps up to date as V and the
registry change; no candidate vector is formed to be judged.  The correction
equation forms P(theta) once and never P'(theta), so the derivative matrix
is only built when a triplet is registered.

Infinite eigenvalues are first-class citizens in homogeneous mode:
eigenvalue approximations are projective points, residuals use the
homogeneous evaluation, and the correction equation uses the homogeneous
derivative operator.  A defective one, such as the infinite eigenvalue of
gen_gyroscopic, converges with a huge condition number and fails the
error bound guard, so it is blocked rather than registered.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import homogeneous as hom
from . import linsolve
from .selection import (
    CandidatePair,
    DefectiveEigenvalueError,
    candidate_criteria,
    criterion_value,  # unused here; perfbench traces the name in this module
    register,
)

__all__ = [
    "JDOptions",
    "SolveResult",
    "Record",
    "SearchSpace",
    "rgs",
    "extract_candidates",
    "jd_solve",
]

# |beta| below this on a normalized projected eigenvalue counts as infinite.
_BETA_CUT = 1e-12

# Exclusion radius around values whose registration failed (relative, or
# chordal for projective points), and the floor of the relative tolerance of
# a left eigenvector solve; both solver loops use them.
_BLOCKED_TOL = 1e-6
_LEFT_RTOL = 1e-8

# jd_solve's GMRES stops at a residual norm of this fraction of the outer
# tolerance times the pick's residual scale: one decade below what the
# convergence test asks of the expanded vector (linsolve._correction_solve).
_INNER_TOL_RATIO = 0.1

# Columns a SearchSpace holds before its first growth unless it is given a
# capacity; jd_solve gives maxdim + 1, mep_subspace_solve takes this.
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
    inner_steps : at most this many GMRES steps per correction equation.
        jd_solve stops earlier once the correction's residual norm is
        _INNER_TOL_RATIO * tol times the pick's residual scale;
        mep_subspace_solve stops only at a relative residual of 1e-6.
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
        _check_shared(self, n, "n")
        if self.mode not in ("standard", "homogeneous"):
            raise ValueError("mode must be 'standard' or 'homogeneous'")
        target = complex(self.target)
        if cmath.isnan(target) or (cmath.isinf(target)
                                   and self.mode == "standard"):
            raise ValueError("target must be finite (homogeneous mode also "
                             "takes an infinite one)")


def _check_shared(opts, n, size):
    """Check the fields JDOptions and MepOptions share; n bounds maxdim and
    is named size in the message."""
    if not 1 <= opts.mindim < opts.maxdim <= n:
        raise ValueError(f"need 1 <= mindim < maxdim <= {size} = {n}, got "
                         f"({opts.mindim}, {opts.maxdim})")
    for name in ("num_pairs", "max_outer", "inner_steps"):
        if getattr(opts, name) < 1:
            raise ValueError(f"{name} must be positive")
    if not 0.0 < opts.tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if not 0.0 < opts.eta < 1.0:
        raise ValueError("eta must lie strictly between 0 and 1")


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
    """Orthonormal basis V with cached products W_i = M_i V, H_i = V* W_i
    and G = R V.

    mats is the list of operator matrices acting on this space (the PEP
    coefficients, or one factor's matrices of a multiparameter problem),
    all n x n.  R stacks the rows of length n given to add_rows: jd_solve
    adds the rows y* A_i of each registered triplet, so G holds the
    projections y* A_i V that the selection criterion contracts
    (selection.candidate_criteria), in registry order.  A space without
    rows keeps G empty (0 x k).

    V, every W_i, every H_i and G live in preallocated column-major buffers
    whose column capacity starts at capacity (capped at n) and doubles when
    an append finds them full; R and G double their row capacity when
    add_rows finds it full.  The properties V, W, H and G are views of the
    first k columns (rows and columns for H_i, the first rows of R for G);
    a view is valid until the next append, restart or add_rows, which write
    into the same buffers.  An append writes one column of V, of each W_i
    and of G (R v) and one row and column of each H_i; a restart
    recomputes every W_i, H_i and G from the new V.

    V, W_i and H_i hold dtype (complex by default); R and G are complex.  A
    float64 space is for real matrices: a complex vector given to append or
    restart contributes its real and imaginary parts, the span of the
    vector and its conjugate.
    """

    def __init__(self, mats, rng, dtype=complex, capacity=_INITIAL_CAPACITY):
        self.mats = mats
        self.rng = rng
        self.k = 0
        self.r = 0  # rows of R
        self.dtype = np.dtype(dtype)
        self.n = n = mats[0].shape[0]
        cap = min(n, capacity)
        self._V = np.empty((n, cap), dtype=dtype, order="F")
        self._W = [np.empty((n, cap), dtype=dtype, order="F") for _ in mats]
        self._H = [np.empty((cap, cap), dtype=dtype, order="F") for _ in mats]
        self._R = np.empty((0, n), dtype=complex)
        self._G = np.empty((0, cap), dtype=complex, order="F")

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

    @property
    def G(self):
        return self._G[: self.r, : self.k]

    def _grow(self):
        """Double the column capacity (capped at n), keeping the k columns."""
        n, cap = self._V.shape
        cap = min(n, 2 * cap)
        cols, block = np.s_[:, : self.k], np.s_[: self.k, : self.k]
        self._V = _moved(self._V, (n, cap), cols)
        self._W = [_moved(W, (n, cap), cols) for W in self._W]
        self._H = [_moved(H, (cap, cap), block) for H in self._H]
        self._G = _moved(self._G, (self._G.shape[0], cap),
                         np.s_[: self.r, : self.k])

    def append(self, t, fill=True):
        """Orthonormalize t against V (rgs) and extend V, W_i, H_i and G.

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
        if self.r:
            self._G[: self.r, k] = self._R[: self.r] @ v
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
        if self.r:
            self._G[: self.r, :j] = self._R[: self.r] @ V

    def add_rows(self, rows):
        """Append rows (an array of shape (p, n)) to R, and rows @ V to G."""
        r, p = self.r, rows.shape[0]
        if r + p > self._R.shape[0]:
            cap = max(2 * self._R.shape[0], r + p)
            self._R = _moved(self._R, (cap, self.n), np.s_[:r], order="C")
            self._G = _moved(self._G, (cap, self._G.shape[1]),
                             np.s_[:r, : self.k])
        self._R[r: r + p] = rows
        self._G[r: r + p, : self.k] = rows @ self.V
        self.r = r + p


def _moved(old, shape, used, order="F"):
    """A new buffer of old's dtype holding old's part used."""
    new = np.empty(shape, dtype=old.dtype, order=order)
    new[used] = old[used]
    return new


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


# LAPACK ggev, BLAS nrm2 and ggev's workspace size per (pencil size, dtype)
_QZ_CACHE = {}


def _qz(X, Y):
    """(alphas, betas, Z) of the pencil (X, Y), which may be overwritten.

    Bit for bit what sla.eig(X, Y, homogeneous_eigvals=True) returns: one
    call of LAPACK ggev for the right eigenvectors, each scaled to unit
    norm by the BLAS nrm2 scipy.linalg.norm uses.  The workspace size is
    queried once per pencil size and dtype and kept in _QZ_CACHE, and the
    norms skip scipy's finiteness check.
    """
    key = (X.shape[0], X.dtype)
    if key not in _QZ_CACHE:
        ggev, = sla.get_lapack_funcs(("ggev",), (X, Y))
        nrm2 = sla.get_blas_funcs("nrm2", dtype=X.dtype, ilp64="preferred")
        lwork = ggev(X, Y, lwork=-1)[-2][0].real.astype(np.int_)
        _QZ_CACHE[key] = ggev, nrm2, lwork
    ggev, nrm2, lwork = _QZ_CACHE[key]
    alphas, betas, _, Z, _, info = ggev(X, Y, compute_vl=0, lwork=lwork,
                                        overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"generalized eig algorithm (ggev) failed with info = {info}")
    for j in range(Z.shape[1]):
        Z[:, j] /= nrm2(Z[:, j])
    return alphas, betas, Z


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
    alphas, betas, Z = _qz(*_linearize(coeffs))
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
    """Residual vector, its norm and scale for a primitive Ritz pair."""
    w, _ = problem.weights(theta)
    r = sum(w[i] * (W @ c) for i, W in enumerate(space.W))
    return r, float(np.linalg.norm(r)), problem.tolerance_scale(theta)


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


def _is_blocked(value, blocked, tol):
    """True when value lies within tol of a blocked value: chordally for a
    projective point, and relative to the blocked value for a scalar, or
    in the Euclidean norm for a parameter tuple."""
    if isinstance(value, hom.ProjectivePoint):
        return any(hom.chordal_distance(value, b) <= tol for b in blocked)
    if isinstance(value, tuple):
        return any(np.linalg.norm(np.subtract(value, b))
                   <= tol * max(1.0, np.linalg.norm(b)) for b in blocked)
    return any(abs(value - b) <= tol * max(1.0, abs(b)) for b in blocked)


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
    none passes; pair(cand, crit) makes the pick a _Pick;
    register(pick, outer) registers it and returns the value and residual
    to record; correct(pick) yields one correction per space; basis(cand)
    gives one coefficient vector per space; randn(n) draws a random
    vector.  Returns the SolveResult, with one Record per event; a
    projective value is recorded as its scalar.

    A converged pick is registered (or blocked) and the loop picks again
    among the other candidates, in the same iteration, until a pick has not
    converged; only that one is corrected.  A pick is thus registered in the
    iteration it converged in, and no correction goes to a vector that
    already meets the tolerance.
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
        p = pair(cands[chosen], crits[chosen])
        if not p.converged:
            record(p.value, p.res, p.crit,
                   "expanded" if sel_ok else "no-pass")

        while p.converged:
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
            # registry (a just-registered value now fails by construction),
            # until the pick has not converged
            cands = [c for j, c in enumerate(cands)
                     if j != chosen and not is_blocked(c)]
            if not cands:
                break
            crits = criteria(cands)
            chosen, sel_ok = select()
            p = pair(cands[chosen], crits[chosen])
        if p.converged:  # every candidate converged
            ts = fresh_start()
            continue

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

    The LU M of P(target) preconditions every correction.  The search
    space starts from a seeded random vector rho in standard mode and from
    M.solve(rho), one step of inverse iteration at the target, in
    homogeneous mode.  From rho itself the first pair of the gyro_sparse
    benchmark converged only at outer iteration 6-13 (12 op seeds), from
    M.solve(rho) at 2-9.  Standard mode keeps rho: from M.solve(rho) one
    run of acceptance criterion 05 (a random dense quadratic, the six
    values nearest the target) registered a value outside those six.

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
    homo = opts.mode == "homogeneous"
    M = linsolve.lu_preconditioner(problem, opts.target)

    registry = []
    blocked = []

    def _rand(k):
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)

    def _pair(cand, crit):
        """The pick at theta, snapped to infinity once converged."""
        theta, c = cand.theta, cand.v
        r, resnorm, scale = _residual(problem, space, theta, c)
        converged = resnorm <= opts.tol * scale
        rho = resnorm / scale
        if converged:
            theta, rho = _snap_infinite(problem, space, theta, c, rho,
                                        opts.tol)
        return _Pick(theta, rho, converged, float(crit), [_unit(space.V @ c)],
                     [r])

    def _register(p, outer):
        """Left eigenvector, then registration.  The left residual cannot
        undercut the accuracy of theta itself, so the tolerance tracks the
        achieved right residual.  The right vector goes along: where
        P(theta) is Hermitian or complex symmetric, it or its conjugate is
        the left vector and no LU of P(theta)* is made, unless the pair is
        too ill conditioned for that (left_eigenvector)."""
        y, rows = linsolve.left_eigenvector(
            problem, p.value, p.vecs[0], rtol=max(_LEFT_RTOL, 10.0 * p.res),
            seed=opts.seed + 1000 + len(registry) + len(blocked),
        )
        register(problem, registry, p.value, p.vecs[0], y, residual=p.res,
                 iteration=outer)
        # the criterion's rows y* A_i of the triplet, projected on V
        space.add_rows(rows)
        return p.value, p.res

    t = _rand(n)
    if homo:
        t = M.solve(t)
    # restarts hold the space at maxdim columns, so it never grows
    space = SearchSpace(problem.coeffs, rng, capacity=opts.maxdim + 1)
    target = hom.from_scalar(complex(opts.target)) if homo else complex(opts.target)

    return _selection_loop(
        opts, [space], [t], registry, blocked, _rand,
        extract=lambda: extract_candidates(space, target, opts.mode),
        is_blocked=lambda c: _is_blocked(c.theta, blocked, _BLOCKED_TOL),
        criteria=lambda cands: candidate_criteria(problem, registry, space.G,
                                                  cands),
        # the pair least like a registered one; it cannot be registered
        no_pass=lambda crits: int(np.argmin(crits)),
        pair=_pair,
        register=_register,
        # the pick's own residual test sets the inner solve's absolute stop
        correct=lambda p: [linsolve.projected_correction_solve(
            problem, p.value, p.vecs[0], p.rs[0], steps=opts.inner_steps,
            M=M, atol=_INNER_TOL_RATIO * opts.tol
            * problem.tolerance_scale(p.value))],
        basis=lambda c: [c.v],
    )
