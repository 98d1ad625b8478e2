"""Projective points, homogeneous evaluation, and the mediator split.

The scalar formulation is the reference wherever the point is finite:
hom_eval at from_scalar(lam) must equal beta^m P(lam), and the divided
difference must approach DP along shrinking real rotations.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensel import homogeneous as hom
from eigensel.homogeneous import (
    MediatorDegenerateError,
    ProjectivePoint,
    chordal_distance,
    from_scalar,
    hom_D,
    hom_divided_difference,
    hom_eval,
    hom_tolerance_scale,
    mediator_decompose,
    mediator_matrices,
    scale_canonical,
)
from eigensel.oracle import oracle_all_eigenpairs
from eigensel.problems import gen_random_pep


finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


def approach(p, t):
    """Point at chordal distance |sin t| from p along an admissible path.

    The tangent is Hermitian-orthogonal to p and phase-fixed so its
    p-dominant coordinate is real: the alignment inside the divided
    difference then perturbs the path only at second order and the
    two-point operator converges to DP linearly in t.
    """
    d = np.array([-np.conj(p.beta), np.conj(p.alpha)])
    dom = d[0] if abs(p.alpha) > abs(p.beta) else d[1]
    if abs(dom) > 0:
        d = d * (abs(dom) / dom)
    q = math.cos(t) * np.array([p.alpha, p.beta]) + math.sin(t) * d
    return ProjectivePoint(q[0], q[1])


class TestProjectivePoint:
    def test_normalized_on_construction(self):
        p = ProjectivePoint(3.0, 4.0j)
        assert abs(abs(p.alpha) ** 2 + abs(p.beta) ** 2 - 1.0) < 1e-15

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint(0.0, 0.0)

    @given(lam=finite_complex)
    @settings(max_examples=100, deadline=None)
    def test_scalar_roundtrip(self, lam):
        back = from_scalar(lam).to_scalar()
        assert abs(back - lam) <= 1e-9 * max(1.0, abs(lam))

    def test_infinity(self):
        p = from_scalar(math.inf)
        assert p.is_infinite
        assert p.to_scalar() == math.inf
        assert chordal_distance(p, ProjectivePoint(1.0, 0.0)) == 0.0

    def test_scaled_same_point(self):
        p = from_scalar(2.0 - 1.0j)
        q = p.scaled(np.exp(0.7j))
        assert chordal_distance(p, q) < 1e-15

    def test_scale_canonical_dominant_real_nonneg(self):
        p = ProjectivePoint(0.3j, -0.8 + 0.1j)
        c = scale_canonical(p)
        assert abs(c.beta.imag) < 1e-15 and c.beta.real >= 0
        assert chordal_distance(p, c) < 1e-15

    def test_align_matches_reference_convention(self):
        ref = scale_canonical(from_scalar(0.5))  # beta dominant
        p = from_scalar(0.5 + 1e-8).scaled(np.exp(2.1j))
        a = hom.align(p, ref)
        assert abs(a.beta.imag) < 1e-12 and a.beta.real >= 0

    @given(l1=finite_complex, l2=finite_complex)
    @settings(max_examples=100, deadline=None)
    def test_chordal_symmetric_and_bounded(self, l1, l2):
        p, q = from_scalar(l1), from_scalar(l2)
        d1, d2 = chordal_distance(p, q), chordal_distance(q, p)
        assert abs(d1 - d2) < 1e-15
        assert -1e-15 <= d1 <= 1.0 + 1e-12


class TestHomogeneousEvaluation:
    def test_eval_matches_scalar(self):
        p = gen_random_pep(4, 3, seed=0)
        lam = 1.3 - 0.4j
        pt = from_scalar(lam)
        want = pt.beta ** p.degree * p.eval(lam)
        np.testing.assert_allclose(hom_eval(p, pt), want, rtol=1e-12)

    def test_eval_at_infinity_is_leading_coefficient(self):
        p = gen_random_pep(4, 2, seed=1)
        np.testing.assert_allclose(hom_eval(p, ProjectivePoint(1.0, 0.0)),
                                   p.coeffs[2], atol=0)

    def test_D_at_infinity_quadratic_is_minus_B(self):
        p = gen_random_pep(5, 2, seed=2)
        np.testing.assert_allclose(hom_D(p, ProjectivePoint(1.0, 0.0)),
                                   -p.coeffs[1], atol=0)

    def test_derivative_identity_on_eigenpair(self):
        # P'(lam) x = (1 + |lam|^2)^((m-2)/2) DP x for eigenvectors x
        p = gen_random_pep(5, 3, seed=3)
        t = next(o for o in oracle_all_eigenpairs(p)
                 if o.ok and 0.2 < abs(o.value) < 5)
        lam, x = t.value, t.x
        lhs = p.derivative(lam) @ x
        rhs = (1 + abs(lam) ** 2) ** ((p.degree - 2) / 2) * (
            hom_D(p, from_scalar(lam)) @ x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_tolerance_scale_reduces_to_scalar(self):
        p = gen_random_pep(4, 2, seed=4)
        lam = 2.0 + 1.0j
        pt = from_scalar(lam)
        got = hom_tolerance_scale(p, pt) / abs(pt.beta) ** p.degree
        np.testing.assert_allclose(got, p.tolerance_scale(abs(lam)), rtol=1e-12)

    def test_tolerance_scale_at_infinity(self):
        p = gen_random_pep(4, 2, seed=5)
        got = hom_tolerance_scale(p, ProjectivePoint(1.0, 0.0))
        np.testing.assert_allclose(got, p.norms1[2], rtol=1e-13)

    def test_condition_number_scalar_relation(self):
        # on an eigenpair the homogeneous number is the scalar one divided
        # by (1 + |lam|^2); equal at lam = 0
        p = gen_random_pep(5, 2, seed=0)
        t = next(o for o in oracle_all_eigenpairs(p)
                 if o.ok and 0.5 < abs(o.value) < 5)
        ch = p.condition_number(from_scalar(t.value), t.x, t.y)
        cs = p.condition_number(t.value, t.x, t.y)
        np.testing.assert_allclose(ch * (1 + abs(t.value) ** 2), cs, rtol=1e-10)


class TestWeightedSum:
    def test_all_zero_weights(self):
        p = gen_random_pep(4, 2, seed=0)
        got = hom._weighted_sum(p.coeffs, np.zeros(3, dtype=complex))
        assert np.array_equal(got, np.zeros((4, 4)))


class TestHomogeneousDividedDifference:
    def test_two_point_quotient(self):
        p = gen_random_pep(4, 2, seed=6)
        a = scale_canonical(from_scalar(1.0 + 1.0j))
        b = hom.align(from_scalar(-2.0), a)
        det = a.alpha * b.beta - b.alpha * a.beta
        want = (hom_eval(p, a) - hom_eval(p, b)) / det
        np.testing.assert_allclose(hom_divided_difference(p, a, b), want,
                                   rtol=1e-12)

    def test_coincident_switch(self):
        p = gen_random_pep(4, 2, seed=7)
        a = from_scalar(0.5)
        got = hom_divided_difference(p, a, a.scaled(np.exp(0.3j)))
        np.testing.assert_allclose(got, hom_D(p, scale_canonical(a)), rtol=1e-12)

    @pytest.mark.parametrize("base", [0.7 - 0.2j, 3.0 + 1.0j, math.inf])
    def test_continuity_along_admissible_path(self, base):
        p = gen_random_pep(4, 2, seed=8)
        a = scale_canonical(from_scalar(base))
        errs = []
        for t in [1e-3, 5e-4, 2.5e-4, 1.25e-4]:
            q = approach(a, t)
            e = np.linalg.norm(hom_divided_difference(p, a, q) - hom_D(p, a))
            errs.append(e)
        for e0, e1 in zip(errs, errs[1:]):
            assert 1.5 <= e0 / e1 <= 2.5  # halving the distance halves the gap


class TestMediator:
    def test_difference_split(self):
        p = gen_random_pep(4, 2, seed=9)
        a, b = from_scalar(1.0 + 0.5j), from_scalar(-0.3 + 2.0j)
        c1, c2 = mediator_decompose(a, b)
        D1, D2 = mediator_matrices(p, a, b)
        D = hom_eval(p, a) - hom_eval(p, b)
        np.testing.assert_allclose(c1 * D1 + c2 * D2, D, rtol=1e-12, atol=1e-14)

    def test_degenerate_denominator(self):
        a = ProjectivePoint(1.0, 1.0)
        b = ProjectivePoint(1.0, -1.0)  # a1 b2 + a2 b1 = 0
        with pytest.raises(MediatorDegenerateError):
            mediator_decompose(a, b)

    def test_quadratic_only(self):
        p = gen_random_pep(3, 3, seed=10)
        with pytest.raises(ValueError):
            mediator_matrices(p, from_scalar(1.0), from_scalar(2.0))
