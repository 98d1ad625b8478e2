"""Homogeneous (projective) coordinates for polynomial eigenvalue problems.

An eigenvalue lam of P(lam) = sum_i lam^i A_i is represented by a point
(alpha, beta) on the complex unit sphere with lam = alpha/beta, so that
infinite eigenvalues become the regular point (1, 0).  The problem itself
becomes the homogeneous form

    P(alpha, beta) = sum_i alpha^i beta^(m-i) A_i,

and the role of the derivative is taken over by

    DP(alpha, beta) = conj(beta) D_alpha P - conj(alpha) D_beta P,

with the divided difference

    P[(a1,b1), (a2,b2)] = (P(a1,b1) - P(a2,b2)) / (a1 b2 - a2 b1)

for distinct points and DP(a1,b1) for coincident ones.  The value of the
quotient depends on the chosen representatives, so this module fixes them:
the first point is scaled so that its largest coordinate is real
nonnegative, and the second point is scaled accordingly (the same coordinate
made real nonnegative), which makes projective convergence componentwise and
the quotient converge to DP along real approach paths.

PolyProblem runs the hom_* functions at a point as given.  canonical picks
the representative once per theta: scale_canonical of a point, (1, 0) for a
scalar infinity; repeating scale_canonical can change the last bits.

The chordal distance |a1 b2 - a2 b1| of normalized points is the sine of
the angle between the corresponding lines; it is the natural metric here and
treats infinity like any other point.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

__all__ = [
    "ProjectivePoint",
    "from_scalar",
    "scale_canonical",
    "canonical",
    "align",
    "chordal_distance",
    "hom_eval",
    "hom_D",
    "hom_weights",
    "hom_D_weights",
    "hom_dd_weights",
    "hom_divided_difference",
    "hom_tolerance_scale",
    "MediatorDegenerateError",
    "mediator_decompose",
    "mediator_matrices",
]

# |beta| below this on a normalized point means the infinite eigenvalue.
INF_TOL = 1e-14

# Chordal distance below this switches the divided difference to DP.
SWITCH_TOL = 1e-8


class ProjectivePoint:
    """A point (alpha, beta) on the complex unit sphere, lam = alpha/beta.

    The constructor normalizes to |alpha|^2 + |beta|^2 = 1.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha = complex(alpha)
        beta = complex(beta)
        nrm = math.hypot(abs(alpha), abs(beta))
        if nrm == 0.0:
            raise ValueError("(0, 0) is not a projective point")
        self.alpha = alpha / nrm
        self.beta = beta / nrm

    @property
    def is_infinite(self):
        return abs(self.beta) < INF_TOL

    def to_scalar(self):
        """alpha/beta as a complex number, or math.inf for the point (1, 0)."""
        if self.is_infinite:
            return math.inf
        return self.alpha / self.beta

    def scaled(self, s):
        """Representative multiplied by the unit scalar s (same point)."""
        return ProjectivePoint(self.alpha * s, self.beta * s)

    def __repr__(self):
        return f"ProjectivePoint({self.alpha:.6g}, {self.beta:.6g})"


def from_scalar(lam):
    """Projective point of a scalar eigenvalue; accepts inf for (1, 0)."""
    lam = complex(lam)
    if np.isinf(lam.real) or np.isinf(lam.imag):
        return ProjectivePoint(1.0, 0.0)
    s = 1.0 / math.sqrt(1.0 + abs(lam) ** 2)
    return ProjectivePoint(lam * s, s)


def _unit_phase_to_nonneg(z):
    # unit scalar s with z * s real nonnegative
    a = abs(z)
    if a == 0.0:
        return 1.0 + 0.0j
    return a / z


def scale_canonical(p):
    """Scale so that the coordinate with maximal absolute value is in [0, 1].

    Ties between |alpha| and |beta| go to beta.  The result represents the
    same projective point.
    """
    if abs(p.alpha) > abs(p.beta):
        s = _unit_phase_to_nonneg(p.alpha)
    else:
        s = _unit_phase_to_nonneg(p.beta)
    return p.scaled(s)


def canonical(theta):
    """Representative of theta for evaluation: scale_canonical of a point,
    (1, 0) for a scalar infinity, complex(theta) for other scalars."""
    if isinstance(theta, ProjectivePoint):
        return scale_canonical(theta)
    theta = complex(theta)
    return ProjectivePoint(1.0, 0.0) if cmath.isinf(theta) else theta


def _align_phase(ref_alpha, ref_beta, alpha, beta):
    """Unit scalar s with which (alpha s, beta s) is aligned to ref.

    The rule of align on coordinate arrays, which broadcast against each
    other.
    """
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    z = np.where(np.abs(ref_alpha) > np.abs(ref_beta),
                 np.where(np.abs(alpha) > 0.0, alpha, beta),
                 np.where(np.abs(beta) > 0.0, beta, alpha))
    a = np.abs(z)
    return np.where(a == 0.0, 1.0, a / np.where(a == 0.0, 1.0, z))


def align(p, ref):
    """Scale p so the coordinate that dominates ref is real nonnegative in p.

    This is the companion convention to scale_canonical: with ref already
    canonical, align makes projective closeness of p to ref componentwise
    closeness of the representatives.  If the ref-dominant coordinate of p
    vanishes the other coordinate is used instead.
    """
    s = _align_phase(ref.alpha, ref.beta, p.alpha, p.beta)
    return p.scaled(complex(s))


def chordal_distance(p, q):
    """|a1 b2 - a2 b1| for normalized points (the sine of the angle)."""
    return abs(p.alpha * q.beta - q.alpha * p.beta)


def hom_weights(degree, p):
    """Coefficient weights of P(alpha, beta): w[i] = alpha^i beta^(m-i)."""
    a, b = p.alpha, p.beta
    return np.array([a**i * b ** (degree - i) for i in range(degree + 1)])


def hom_D_weights(degree, p):
    """Coefficient weights of DP = conj(beta) D_alpha P - conj(alpha) D_beta P."""
    m = degree
    a, b = p.alpha, p.beta
    w = np.zeros(m + 1, dtype=complex)
    for i in range(m + 1):
        if i >= 1:
            w[i] += np.conj(b) * i * a ** (i - 1) * b ** (m - i)
        if m - i >= 1:
            w[i] -= np.conj(a) * (m - i) * a**i * b ** (m - i - 1)
    return w


def hom_dd_weights(degree, ps, qs, weights=None):
    """Weights of the projective divided differences at all pairs (p, q).

    ps are canonical points (registered eigenvalues), qs arbitrary points.
    Returns w of shape (len(ps), len(qs), degree + 1) such that
    sum_i w[s, t, i] A_i is hom_divided_difference at (ps[s], qs[t]): q is
    aligned to p, and points at most SWITCH_TOL apart in chordal distance
    get the weights of DP at p.  weights, if given, is the pair of arrays
    (hom_weights, hom_D_weights) at ps, one row per point, from a caller
    that keeps them; otherwise they are formed here.
    """
    pa = np.array([p.alpha for p in ps])[:, None]
    pb = np.array([p.beta for p in ps])[:, None]
    qa = np.array([q.alpha for q in qs])
    qb = np.array([q.beta for q in qs])
    s = _align_phase(pa, pb, qa, qb)
    qa, qb = qa * s, qb * s
    det = pa * qb - qa * pb
    coincident = np.abs(det) <= SWITCH_TOL
    i = np.arange(degree + 1)
    wq = qa[..., None] ** i * qb[..., None] ** (degree - i)
    if weights is None:
        weights = (np.array([hom_weights(degree, p) for p in ps]),
                   np.array([hom_D_weights(degree, p) for p in ps]))
    wp, wd = (x[:, None, :] for x in weights)
    w = (wp - wq) / np.where(coincident, 1.0, det)[..., None]
    return np.where(coincident[..., None], wd, w)


def _weighted_sum(coeffs, w):
    """sum_i w[i] coeffs[i], skipping zero weights.  PolyProblem.weighted_sum
    runs it over the dense coefficients or the rows of the sparse table."""
    acc = None
    for wi, A in zip(w, coeffs):
        if wi == 0.0:
            continue
        acc = wi * A if acc is None else acc + wi * A
    if acc is None:
        acc = 0.0 * coeffs[0]
    return acc


def hom_eval(problem, p):
    """P(alpha, beta) = sum_i alpha^i beta^(m-i) A_i, by
    PolyProblem.weighted_sum."""
    return problem.weighted_sum(hom_weights(problem.degree, p))


def hom_D(problem, p):
    """DP(alpha, beta) = conj(beta) D_alpha P - conj(alpha) D_beta P.

    At (alpha, beta) = from_scalar(lam) with an eigenvector x this matches
    P'(lam) x up to the factor (1 + |lam|^2)^((m-2)/2); at (1, 0) for a
    quadratic it is -B.
    """
    return problem.weighted_sum(hom_D_weights(problem.degree, p))


def hom_divided_difference(problem, p, q):
    """Divided difference of the homogeneous problem at two points.

    The first point is canonicalized and the second aligned to it before the
    quotient is formed; points closer than SWITCH_TOL in chordal distance are
    treated as coincident and get DP at the first point.  The matrix is
    assembled from the weights of hom_dd_weights, the rule the selection
    criterion uses.
    """
    w = hom_dd_weights(problem.degree, [scale_canonical(p)], [q])
    return problem.weighted_sum(w[0, 0])


def hom_tolerance_scale(problem, p):
    """sum_i |alpha|^i |beta|^(m-i) ||A_i||_1, the homogeneous residual scale.

    Dividing by |beta|^m recovers the scalar solver scale at finite points;
    at (1, 0) it degenerates to ||A_m||_1.
    """
    m = problem.degree
    a, b = abs(p.alpha), abs(p.beta)
    return float(
        sum(problem.norms1[i] * a**i * b ** (m - i) for i in range(m + 1))
    )


def _hom_condition(problem, p, den):
    """Homogeneous Tisseur condition number sum_i |alpha|^i |beta|^(m-i)
    ||A_i||_2 / den, den = |y* DP(alpha, beta) x| for unit x and y; it stays
    finite at (1, 0)."""
    m = problem.degree
    a, b = abs(p.alpha), abs(p.beta)
    num = float(sum(problem.norms2[i] * a**i * b ** (m - i) for i in range(m + 1)))
    if den == 0.0:
        warnings.warn("y* DP x = 0: eigenvalue condition number is infinite")
        return np.inf
    return num / den


class MediatorDegenerateError(ValueError):
    """The mediator denominator alpha1*beta2 + alpha2*beta1 vanishes."""


def mediator_decompose(p, q):
    """Coefficients splitting a quadratic two-point difference.

    For Q(alpha, beta) = alpha^2 A + alpha beta B + beta^2 C and points
    p = (a1, b1), q = (a2, b2) with s = a1 b2 + a2 b1 != 0, the difference

        D = Q(a1, b1) - Q(a2, b2)
          = (a1^2 - a2^2) A + (a1 b1 - a2 b2) B + (b1^2 - b2^2) C

    equals c1 D1 + c2 D2 with the single-point operators of
    mediator_matrices and

        c1 = (a1^2 - a2^2) / s,    c2 = (b1^2 - b2^2) / s.

    Returns (c1, c2); MediatorDegenerateError when s vanishes.
    """
    a1, b1 = p.alpha, p.beta
    a2, b2 = q.alpha, q.beta
    s = a1 * b2 + a2 * b1
    if abs(s) < 1e-300:
        raise MediatorDegenerateError(
            "mediator denominator alpha1*beta2 + alpha2*beta1 vanishes"
        )
    return (a1**2 - a2**2) / s, (b1**2 - b2**2) / s


def mediator_matrices(problem, p, q):
    """The two operators D1 = s A + b1 b2 B and D2 = a1 a2 B + s C.

    Companions to mediator_decompose for a quadratic with coefficients
    [C, B, A] (ascending powers); s = a1 b2 + a2 b1.
    """
    if problem.degree != 2:
        raise ValueError("mediator operators are defined for quadratics")
    A, B, C = problem.coeffs[2], problem.coeffs[1], problem.coeffs[0]
    a1, b1 = p.alpha, p.beta
    a2, b2 = q.alpha, q.beta
    s = a1 * b2 + a2 * b1
    D1 = s * A + (b1 * b2) * B
    D2 = (a1 * a2) * B + s * C
    return D1, D2
