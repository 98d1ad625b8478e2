"""Divided-difference selection: criterion values, registration, dichotomy.

Reference values come from assembling the divided-difference matrices
explicitly; the criterion implementation only ever touches cached rows,
so agreement here is a real cross-check.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensel import homogeneous as hom
from eigensel import mmio
from eigensel.jdsolver import JDOptions
from eigensel.oracle import oracle_all_eigenpairs
from eigensel.mep import MepOptions, gen_random_mep
from eigensel.problems import PolyProblem, gen_example_2x2, gen_random_pep
from eigensel.selection import (
    ERROR_BOUND_GUARD,
    RECOMMENDED_ETA,
    CandidatePair,
    DefectiveEigenvalueError,
    EigenTriplet,
    candidate_criteria,
    criterion_value,
    passes,
    register,
)


def oracle_registry(problem, count):
    """Register the count largest-|denominator| oracle triplets."""
    pairs = [o for o in oracle_all_eigenpairs(problem) if o.ok
             and np.isfinite(o.value)]
    scored = []
    for o in pairs:
        d = abs(np.vdot(o.y, problem.derivative(o.value) @ o.x))
        scored.append((d, o))
    scored.sort(key=lambda s: -s[0])
    registry = []
    for _, o in scored[:count]:
        register(problem, registry, o.value, o.x, o.y)
    return registry, [o for _, o in scored[count:]]


class TestCriterionValue:
    def test_empty_registry_is_zero(self):
        p = gen_random_pep(4, 2, seed=0)
        cand = CandidatePair(0.5, np.ones(4))
        assert criterion_value(p, [], cand) == 0.0
        assert passes(p, [], cand)

    def test_registered_pair_scores_one(self):
        p = gen_random_pep(6, 2, seed=1)
        registry, _ = oracle_registry(p, 3)
        for t in registry:
            cand = CandidatePair(t.value, t.right)
            np.testing.assert_allclose(criterion_value(p, registry, cand),
                                       1.0, rtol=1e-9)

    def test_other_eigenpairs_score_near_zero(self):
        p = gen_random_pep(6, 2, seed=2)
        registry, rest = oracle_registry(p, 3)
        for o in rest[:4]:
            cand = CandidatePair(o.value, o.x)
            assert criterion_value(p, registry, cand) < 1e-6

    def test_passes_compares_with_eta(self):
        p = gen_random_pep(6, 2, seed=2)
        registry, rest = oracle_registry(p, 3)
        cand = CandidatePair(rest[0].value, rest[0].x + 1e-3)
        value = criterion_value(p, registry, cand)
        assert 0.0 < value < RECOMMENDED_ETA
        assert passes(p, registry, cand)
        assert passes(p, registry, cand, eta=2.0 * value)
        assert not passes(p, registry, cand, eta=value)

    def test_matches_explicit_divided_difference(self):
        # cached-row evaluation against assembled matrices
        p = gen_random_pep(5, 3, seed=3)
        registry, _ = oracle_registry(p, 2)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v /= np.linalg.norm(v)
        theta = 0.4 - 1.2j
        want = max(
            abs(np.vdot(t.left, p.divided_difference(t.value, theta) @ v))
            / abs(t.denom)
            for t in registry
        )
        got = criterion_value(p, registry, CandidatePair(theta, v))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @given(scale=st.floats(min_value=0.1, max_value=100.0),
           phase=st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_candidate_scaling(self, scale, phase):
        p = gen_random_pep(4, 2, seed=4)
        registry, _ = oracle_registry(p, 2)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c1 = criterion_value(p, registry, CandidatePair(0.3, v))
        c2 = criterion_value(
            p, registry, CandidatePair(0.3, scale * np.exp(1j * phase) * v))
        np.testing.assert_allclose(c1, c2, rtol=1e-10)

    def test_general_nep_path(self):
        p = gen_random_pep(4, 2, seed=5)
        registry, rest = oracle_registry(p, 2)
        f = p.to_general_nep()
        # same registry judged through the callable interface
        for o in rest[:2]:
            cand = CandidatePair(o.value, o.x)
            cp = criterion_value(p, registry, cand)
            cf = criterion_value(f, registry, cand)
            np.testing.assert_allclose(cf, cp, rtol=1e-6, atol=1e-10)


def textbook_criterion(problem, registry, theta, v, homogeneous):
    """max_i |y_i* F[lam_i, theta] v| / |y_i* F'(lam_i) x_i| for unit v, with
    F[., .] assembled as a difference quotient of evaluated matrices."""
    v = v / np.linalg.norm(v)
    vals = []
    for t in registry:
        if homogeneous:
            p = t.point
            q = hom.align(theta if isinstance(theta, hom.ProjectivePoint)
                          else hom.from_scalar(theta), p)
            det = p.alpha * q.beta - q.alpha * p.beta
            if abs(det) <= hom.SWITCH_TOL:
                F = hom.hom_D(problem, p)
            else:
                F = (hom.hom_eval(problem, p) - hom.hom_eval(problem, q)) / det
            den = np.vdot(t.left, hom.hom_D(problem, p) @ t.right)
        else:
            F = (problem.eval(t.value) - problem.eval(theta)) / (t.value - theta)
            den = np.vdot(t.left, problem.derivative(t.value) @ t.right)
        vals.append(abs(np.vdot(t.left, F @ v)) / abs(den))
    return max(vals)


def projection(problem, registry, V):
    """G = R V: the rows y* A_k of every registered triplet, stacked in
    registry order, times V (what jdsolver.SearchSpace keeps)."""
    R = [t.left.conj() @ A for t in registry for A in problem.coeffs]
    return np.array(R).reshape(-1, V.shape[0]) @ V


class TestCandidateCriteria:
    """candidate_criteria (one contraction for all candidates) against the
    textbook formula applied to one candidate vector at a time."""

    @staticmethod
    def basis(n, k, seed):
        rng = np.random.default_rng(seed)
        V, _ = np.linalg.qr(rng.standard_normal((n, k))
                            + 1j * rng.standard_normal((n, k)))
        C = rng.standard_normal((k, 7)) + 1j * rng.standard_normal((k, 7))
        return V, C

    @pytest.mark.parametrize("m", [2, 3])
    def test_standard_matches_textbook(self, m):
        p = gen_random_pep(9, m, seed=10 + m)
        registry, rest = oracle_registry(p, 3)
        V, C = self.basis(9, 5, m)
        # last candidate: a registered eigenvector in the space
        V[:, 0] = registry[0].right
        V, _ = np.linalg.qr(V)
        C[:, -1] = V.conj().T @ registry[0].right
        thetas = [0.4 - 1.2j, -2.0, 3j, rest[0].value, 0.1, 1.0 + 1.0j,
                  registry[0].value + 1e-3]
        cands = [CandidatePair(th, C[:, j]) for j, th in enumerate(thetas)]
        got = candidate_criteria(p, registry, projection(p, registry, V),
                                 cands)
        want = [textbook_criterion(p, registry, th, V @ C[:, j], False)
                for j, th in enumerate(thetas)]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got[-1] > 0.9  # a repeat of a registered pair fails

    def test_homogeneous_matches_textbook_inside_switch_tol(self):
        p = gen_random_pep(9, 2, seed=21)
        registry = []
        pairs = [o for o in oracle_all_eigenpairs(p) if o.ok][:3]
        for o in pairs:
            register(p, registry, o.point, o.x, o.y)
        V, C = self.basis(9, 6, 5)
        a = registry[1].point
        near = hom.ProjectivePoint(a.alpha + 1e-10, a.beta - 1e-10j)
        assert hom.chordal_distance(near, a) <= hom.SWITCH_TOL
        points = [near, hom.ProjectivePoint(1.0, 0.0),
                  hom.from_scalar(0.2 - 0.7j), a.scaled(np.exp(0.4j)),
                  hom.from_scalar(-3.0), hom.ProjectivePoint(0.6j, -0.8),
                  registry[0].point]
        cands = [CandidatePair(q, C[:, j]) for j, q in enumerate(points)]
        got = candidate_criteria(p, registry, projection(p, registry, V),
                                 cands)
        want = [textbook_criterion(p, registry, q, V @ C[:, j], True)
                for j, q in enumerate(points)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("mode", ["standard", "homogeneous"])
    def test_criterion_value_is_the_one_candidate_case(self, mode):
        p = gen_random_pep(7, 2, seed=30)
        homogeneous = mode == "homogeneous"
        registry = []
        for o in [o for o in oracle_all_eigenpairs(p) if o.ok][:2]:
            register(p, registry, o.point if homogeneous else o.value,
                     o.x, o.y)
        V, C = self.basis(7, 4, 6)
        theta = hom.from_scalar(0.3 + 0.2j) if homogeneous else 0.3 + 0.2j
        one = criterion_value(p, registry, CandidatePair(theta, V @ C[:, 0]))
        many = candidate_criteria(p, registry, projection(p, registry, V),
                                  [CandidatePair(theta, C[:, 0])])
        np.testing.assert_allclose(one, many[0], rtol=1e-12)

    def test_empty_registry_scores_zero(self):
        p = gen_random_pep(5, 2, seed=0)
        V, C = self.basis(5, 3, 0)
        cands = [CandidatePair(0.5, C[:, 0]), CandidatePair(1.0, C[:, 1])]
        assert np.array_equal(
            candidate_criteria(p, [], projection(p, [], V), cands), [0.0, 0.0])


class TestExampleDiscrimination:
    # 2x2 pencil where the two eigenvectors nearly coincide: angle-based
    # filtering rejects the second eigenvalue, the criterion accepts it
    def test_duplicate_scores_one_new_scores_zero(self):
        delta, eps = 1e-6, 1e-3
        p = gen_example_2x2(delta, eps)
        y = np.array([delta, -eps], dtype=complex)
        registry = []
        register(p, registry, 0.0, np.array([1.0, 0.0]), y)
        same = CandidatePair(0.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(criterion_value(p, registry, same), 1.0,
                                   atol=1e-10)
        other = CandidatePair(delta, np.array([eps, delta]))
        np.testing.assert_allclose(criterion_value(p, registry, other), 0.0,
                                   atol=1e-10)
        assert not passes(p, registry, same)
        assert passes(p, registry, other)


class TestNearEigenpairSlope:
    def test_linear_in_perturbation(self):
        # candidate (lam2 + eps*phi, x2 + eps*w): criterion value C*eps
        p = gen_random_pep(6, 2, seed=6)
        registry, rest = oracle_registry(p, 1)
        o = rest[0]
        rng = np.random.default_rng(2)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w /= np.linalg.norm(w)
        phi = np.exp(0.4j)
        epss = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        vals = []
        for eps in epss:
            cand = CandidatePair(o.value + eps * phi, o.x + eps * w)
            vals.append(criterion_value(p, registry, cand))
        slope = np.polyfit(np.log(epss), np.log(vals), 1)[0]
        assert abs(slope - 1.0) < 0.1


class TestRegister:
    def test_normalizes_vectors(self):
        p = gen_random_pep(4, 2, seed=7)
        o = next(x for x in oracle_all_eigenpairs(p) if x.ok)
        registry = []
        t = register(p, registry, o.value, 5.0 * o.x, -3.0 * o.y)
        np.testing.assert_allclose(np.linalg.norm(t.right), 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(t.left), 1.0, rtol=1e-12)

    def test_defective_rejected(self):
        # linear pencil, orthogonal left/right vectors: y* P'(0) x = 0
        p = PolyProblem([np.diag([1.0, 2.0]), -np.eye(2)])
        with pytest.raises(DefectiveEigenvalueError):
            register(p, [], 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_defective_infinite_eigenvalue_homogeneous(self):
        # leading coefficient singular with B also vanishing on the null
        # direction: y* DQ(1,0) x = 0, the infinite eigenvalue is defective
        A = np.diag([0.0, 1.0])
        B = np.zeros((2, 2))
        B[0, 1], B[1, 0] = 1.0, -1.0
        C = np.diag([-1.0, -2.0])
        p = PolyProblem([C, B, A])
        e1 = np.array([1.0, 0.0])
        with pytest.raises(DefectiveEigenvalueError):
            register(p, [], hom.ProjectivePoint(1.0, 0.0), e1, e1)

    def test_simple_infinite_eigenvalue_registers(self):
        # same null direction but B[0,0] != 0 keeps the denominator alive
        A = np.diag([0.0, 1.0])
        B = np.eye(2)
        C = np.diag([-1.0, -2.0])
        p = PolyProblem([C, B, A])
        e1 = np.array([1.0, 0.0])
        registry = []
        t = register(p, registry, hom.ProjectivePoint(1.0, 0.0), e1, e1)
        assert t.value == math.inf
        assert t.point.is_infinite
        # finite candidates are judged without special-casing
        val = criterion_value(p, registry,
                              CandidatePair(hom.from_scalar(0.5), e1))
        assert np.isfinite(val)

    def test_scalar_infinity_is_the_point(self):
        # math.inf registers as the point (1, 0), where DP = -A_0, not as
        # a scalar with P'(inf) = A_1 (singular here)
        p = PolyProblem([np.eye(3), np.diag([0.0, 1.0, 2.0])])
        e1 = np.eye(3)[0]
        a = register(p, [], math.inf, e1, e1)
        b = register(p, [], hom.ProjectivePoint(1.0, 0.0), e1, e1)
        assert a.value == b.value == math.inf
        assert a.denom == b.denom == -1.0
        assert (a.point.alpha, a.point.beta) == (b.point.alpha, b.point.beta)
        assert (a.point.alpha, a.point.beta) == (1.0, 0.0)
        assert a.cond == b.cond

    @pytest.mark.parametrize("mode", ["standard", "homogeneous"])
    def test_error_bound_guard(self, mode):
        # cond * residual, the first-order error bound of the value, must
        # not exceed ERROR_BOUND_GUARD; a NaN residual skips the guard
        p = gen_random_pep(5, 2, seed=9)
        o = next(x for x in oracle_all_eigenpairs(p)
                 if x.ok and np.isfinite(x.value))
        theta = o.point if mode == "homogeneous" else o.value
        kappa = register(p, [], theta, o.x, o.y).cond
        registry = []
        with pytest.raises(DefectiveEigenvalueError, match="error bound"):
            register(p, registry, theta, o.x, o.y,
                     residual=2.0 * ERROR_BOUND_GUARD / kappa)
        assert registry == []
        t = register(p, registry, theta, o.x, o.y,
                     residual=0.5 * ERROR_BOUND_GUARD / kappa)
        assert registry == [t] and t.cond == kappa
        assert register(p, [], theta, o.x, o.y, residual=math.nan).cond == kappa

    @pytest.mark.parametrize("mode", ["standard", "homogeneous"])
    def test_one_derivative_and_the_condition_number(self, mode, monkeypatch):
        # cond comes from the denominator register already formed: one
        # P'(lam) or DP per registration, the public functions' value
        p = gen_random_pep(5, 2, seed=9)
        o = next(x for x in oracle_all_eigenpairs(p)
                 if x.ok and np.isfinite(x.value))
        calls = []
        derivative = PolyProblem.derivative
        monkeypatch.setattr(PolyProblem, "derivative", lambda self, lam: (
            calls.append(lam), derivative(self, lam))[1])
        theta = o.point if mode == "homogeneous" else o.value
        t = register(p, [], theta, 2.0 * o.x, 1j * o.y)
        assert len(calls) == 1
        monkeypatch.undo()
        at = t.point if mode == "homogeneous" else t.value
        ref = p.condition_number(at, t.right, t.left)
        np.testing.assert_allclose(t.cond, ref, rtol=1e-12)

    def test_homogeneous_self_score_one(self):
        p = gen_random_pep(5, 2, seed=8)
        o = next(x for x in oracle_all_eigenpairs(p)
                 if x.ok and np.isfinite(x.value))
        registry = []
        register(p, registry, o.point, o.x, o.y)
        cand = CandidatePair(o.point, o.x)
        np.testing.assert_allclose(
            criterion_value(p, registry, cand), 1.0, rtol=1e-9)


class TestConfigAndSerialization:
    def test_eta_range_enforced(self):
        # the solver options carry eta and the value form; both option
        # classes refuse an eta outside (0, 1) through one shared check
        m = gen_random_mep((5, 7), seed=24)
        for eta in (0.0, 1.0):
            with pytest.raises(ValueError, match="eta must lie strictly"):
                JDOptions(eta=eta).validate(30)
            with pytest.raises(ValueError, match="eta must lie strictly"):
                MepOptions(target=(0, 0), mindim=3, maxdim=5,
                           eta=eta).validate(m)
        with pytest.raises(ValueError):
            JDOptions(mode="projective").validate(30)

    def test_triplet_roundtrip_infinite(self):
        t = EigenTriplet(
            value=math.inf,
            right=np.array([1.0, 0.0]),
            left=np.array([1.0, 0.0]),
            denom=-1.0 + 0.0j,
            point=hom.ProjectivePoint(1.0, 0.0),
        )
        d = mmio.to_json(t)
        assert d["value"] == {"inf": True}
        assert d["cond"] is None and d["residual"] is None
