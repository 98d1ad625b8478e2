"""Jacobi-Davidson with divided-difference selection, plus the dense oracle.

The oracle (companion linearization + QZ) is the reference for every
solver run; oracle self-checks are residual based, so solver and oracle
never share a code path for verification.
"""
import math
import os

import numpy as np
import pytest

from eigensel import homogeneous as hom
from eigensel import jdsolver
from eigensel.jdsolver import (
    JDOptions,
    OracleCapError,
    extract_candidates,
    gal1_refine,
    jd_solve,
    oracle_all_eigenpairs,
    oracle_eigenvalues,
)
from eigensel.problems import (
    PolyProblem,
    gen_gyroscopic,
    gen_random_pep,
    to_dense,
)


def diag_qep():
    # eigenvalues {1, 2} share e1, {3, 4} share e2
    return PolyProblem([np.diag([2.0, 12.0]), np.diag([-3.0, -7.0]),
                        np.eye(2)])


def nearest_oracle_error(problem, values):
    oracle = [o.value for o in oracle_all_eigenpairs(problem)
              if o.ok and np.isfinite(o.value)]
    return [min(abs(v - w) for w in oracle) for v in values]


class TestOracle:
    def test_eigenvalue_count(self):
        p = gen_random_pep(6, 2, seed=0)
        pairs = oracle_all_eigenpairs(p)
        assert len(pairs) == 12  # m*n values for a regular problem

    def test_self_check_residuals(self):
        p = gen_random_pep(8, 3, seed=1)
        pairs = oracle_all_eigenpairs(p)
        assert all(o.ok for o in pairs)
        assert max(max(o.res_right, o.res_left) for o in pairs) <= 1e-8

    def test_known_diagonal_values(self):
        got = sorted(o.value.real for o in oracle_all_eigenpairs(diag_qep()))
        np.testing.assert_allclose(got, [1, 2, 3, 4], atol=1e-10)

    def test_infinite_eigenvalues_reported(self):
        p = gen_gyroscopic(10)
        infs = [o for o in oracle_all_eigenpairs(p) if o.point.is_infinite]
        assert len(infs) >= 1
        for o in infs:
            assert o.value == math.inf
            # null vectors of the leading coefficient on both sides
            assert np.linalg.norm(to_dense(p.coeffs[2]) @ o.x) <= 1e-8

    def test_cap_enforced_and_overridable(self, monkeypatch):
        p = gen_random_pep(6, 2, seed=2)
        with pytest.raises(OracleCapError):
            oracle_all_eigenpairs(p, cap=5)
        monkeypatch.setenv("EIGENSEL_ORACLE_CAP", "5")
        with pytest.raises(OracleCapError):
            oracle_all_eigenpairs(p)
        monkeypatch.setenv("EIGENSEL_ORACLE_CAP", "50")
        assert len(oracle_all_eigenpairs(p)) == 12


class TestOracleEigenvalues:
    """Eigenvalue-only QZ gives the two-sided oracle's points, in order."""

    @staticmethod
    def assert_same_points(p):
        full = [o.point for o in oracle_all_eigenpairs(p)]
        points = oracle_eigenvalues(p)
        assert len(points) == len(full)
        for q, o in zip(points, full):
            assert q.is_infinite == o.is_infinite
            assert hom.chordal_distance(q, o) <= 1e-12
        return points

    def test_random_quadratic(self):
        points = self.assert_same_points(gen_random_pep(40, 2, seed=3))
        assert len(points) == 80

    def test_cubic(self):
        points = self.assert_same_points(gen_random_pep(12, 3, seed=4))
        assert len(points) == 36

    def test_singular_leading_coefficient(self):
        rng = np.random.default_rng(5)
        A0, A1 = (rng.standard_normal((8, 8)) for _ in range(2))
        A2 = np.diag([1.0] * 5 + [0.0] * 3)
        points = self.assert_same_points(PolyProblem([A0, A1, A2]))
        assert sum(q.is_infinite for q in points) == 3

    def test_cap_enforced(self):
        with pytest.raises(OracleCapError):
            oracle_eigenvalues(gen_random_pep(6, 2, seed=2), cap=5)


class TestOptions:
    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            JDOptions(mindim=5, maxdim=5).validate(10)
        with pytest.raises(ValueError):
            JDOptions(mindim=2, maxdim=20).validate(10)
        JDOptions(mindim=2, maxdim=7).validate(10)

    def test_value_checks(self):
        with pytest.raises(ValueError):
            JDOptions(num_pairs=0).validate(30)
        with pytest.raises(ValueError):
            JDOptions(tol=0.0).validate(30)
        with pytest.raises(ValueError):
            JDOptions(eta=1.5).validate(30)
        with pytest.raises(ValueError):
            JDOptions(mode="projective").validate(30)
        with pytest.raises(ValueError):
            JDOptions(extraction="harmonic").validate(30)


class TestDiagonalQep:
    def test_all_four_including_shared_eigenvector_pair(self):
        res = jd_solve(diag_qep(), JDOptions(
            target=0.0, num_pairs=4, tol=1e-10, mindim=1, maxdim=2,
            max_outer=60, seed=0))
        assert not res.truncated
        got = sorted(t.value.real for t in res.registry)
        np.testing.assert_allclose(got, [1, 2, 3, 4], atol=1e-8)
        vals = [t.value for t in res.registry]
        for i, a in enumerate(vals):
            for b in vals[i + 1:]:
                assert abs(a - b) > 0.5  # no duplicates

    def test_eigenvectors_are_axes(self):
        res = jd_solve(diag_qep(), JDOptions(
            target=0.0, num_pairs=4, tol=1e-10, mindim=1, maxdim=2,
            max_outer=60, seed=0))
        by_value = {round(t.value.real): t for t in res.registry}
        for lam, axis in [(1, 0), (2, 0), (3, 1), (4, 1)]:
            assert abs(by_value[lam].right[axis]) > 1 - 1e-8


class TestRandomQep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nearest_six_no_duplicates(self, seed):
        p = gen_random_pep(12, 2, seed=seed)
        opts = JDOptions(target=0.0, num_pairs=6, tol=1e-9, mindim=6,
                         maxdim=12, max_outer=150, seed=seed)
        res = jd_solve(p, opts)
        assert len(res.registry) == 6
        oracle = sorted((o.value for o in oracle_all_eigenpairs(p)
                         if o.ok and np.isfinite(o.value)), key=abs)[:6]
        got = sorted((t.value for t in res.registry), key=abs)
        matched = set()
        for v in got:
            errs = [abs(v - w) / max(1.0, abs(w)) for w in oracle]
            j = int(np.argmin(errs))
            assert errs[j] <= 1e-6
            assert j not in matched
            matched.add(j)

    def test_residuals_and_left_vectors_stored(self):
        p = gen_random_pep(12, 2, seed=3)
        res = jd_solve(p, JDOptions(target=0.0, num_pairs=3, tol=1e-9,
                                    mindim=6, maxdim=12, seed=3))
        for t in res.registry:
            assert t.residual <= 1e-9
            scale = p.tolerance_scale(abs(t.value))
            assert np.linalg.norm(p.eval(t.value).conj().T @ t.left) \
                <= 1e-7 * scale
            assert np.isfinite(t.cond) and t.cond > 0

    def test_deterministic_given_seed(self):
        p = gen_random_pep(10, 2, seed=4)
        opts = JDOptions(target=0.0, num_pairs=3, tol=1e-9, mindim=5,
                         maxdim=10, seed=11)
        v1 = [t.value for t in jd_solve(p, opts).registry]
        v2 = [t.value for t in jd_solve(p, opts).registry]
        assert v1 == v2

    def test_gal1_refined_extraction_agrees(self):
        p = gen_random_pep(12, 2, seed=5)
        base = JDOptions(target=0.0, num_pairs=4, tol=1e-9, mindim=6,
                         maxdim=12, seed=5)
        ritz = {round(t.value.real, 6) + 1j * round(t.value.imag, 6)
                for t in jd_solve(p, base).registry}
        refined = JDOptions(target=0.0, num_pairs=4, tol=1e-9, mindim=6,
                            maxdim=12, seed=5, extraction="gal1_refined")
        got = {round(t.value.real, 6) + 1j * round(t.value.imag, 6)
               for t in jd_solve(p, refined).registry}
        assert got == ritz

    def test_truncation_reported(self):
        p = gen_random_pep(12, 2, seed=6)
        res = jd_solve(p, JDOptions(target=0.0, num_pairs=6, tol=1e-12,
                                    mindim=6, maxdim=12, max_outer=3, seed=6))
        assert res.truncated
        assert res.outer_iterations == 3
        assert len(res.registry) < 6

    def test_convergence_records_form_a_history(self):
        p = gen_random_pep(12, 2, seed=7)
        res = jd_solve(p, JDOptions(target=0.0, num_pairs=3, tol=1e-9,
                                    mindim=6, maxdim=12, seed=7))
        assert len(res.records) >= res.outer_iterations
        known = {"expanded", "converged", "restarted", "no pass"}
        for r in res.records:
            tag = r.event.split(":")[0]
            assert tag in known or tag == "rejected"
            assert r.iteration >= 1
        assert sum(r.event == "converged" for r in res.records) == 3


class TestHomogeneousMode:
    def test_simple_infinite_eigenvalue_found(self):
        # singular leading coefficient but nondefective at infinity
        n = 8
        rng = np.random.default_rng(8)
        A = np.diag(np.r_[0.0, rng.uniform(1.0, 2.0, n - 1)])
        B = np.eye(n)
        C = np.diag(-rng.uniform(1.0, 2.0, n))
        p = PolyProblem([C, B, A])
        opts = JDOptions(target=1e8, num_pairs=1, tol=1e-9, mindim=4,
                         maxdim=8, mode="homogeneous", seed=0)
        res = jd_solve(p, opts)
        assert len(res.registry) == 1
        t = res.registry[0]
        assert t.value == math.inf
        assert t.point.is_infinite
        assert abs(t.right[0]) > 1 - 1e-8  # null direction of A

    def test_defective_infinite_eigenvalue_blocked(self):
        # gyroscopic: the infinite eigenvalue is a defective double, so
        # registration must fail and the value must land on the blocked list
        p = gen_gyroscopic(16, seed=1)
        opts = JDOptions(target=1e9, num_pairs=2, tol=1e-8, mindim=4,
                         maxdim=8, max_outer=40, mode="homogeneous", seed=0)
        res = jd_solve(p, opts)
        assert any(
            (b.is_infinite if isinstance(b, hom.ProjectivePoint)
             else (isinstance(b, float) and math.isinf(b)))
            for b in res.blocked)
        assert all(t.value != math.inf for t in res.registry)
        assert any(r.event.startswith("rejected") for r in res.records)

    def test_finite_values_verified_chordally(self):
        p = gen_gyroscopic(40, seed=0)
        opts = JDOptions(target=5j, num_pairs=4, tol=1e-8, mindim=8,
                         maxdim=16, max_outer=200, mode="homogeneous", seed=0)
        res = jd_solve(p, opts)
        assert len(res.registry) == 4
        opoints = [o.point for o in oracle_all_eigenpairs(p)]
        for t in res.registry:
            d = min(hom.chordal_distance(t.point, q) for q in opoints)
            assert d <= 1e-7


class TestExtractionHelpers:
    def test_gal1_refine_exact_eigenvector(self):
        p = gen_random_pep(8, 2, seed=9)
        o = min((o for o in oracle_all_eigenpairs(p)
                 if o.ok and np.isfinite(o.value)),
                key=lambda o: abs(o.value))
        got = gal1_refine(p, o.x, target=0.0)
        assert abs(got - o.value) <= 1e-9 * max(1.0, abs(o.value))

    def test_candidates_sorted_by_target_distance(self):
        from eigensel.jdsolver import SearchSpace

        p = gen_random_pep(10, 2, seed=10)
        rng = np.random.default_rng(0)
        space = SearchSpace([np.asarray(A) for A in p.coeffs], rng)
        for _ in range(4):
            space.append(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        cands = extract_candidates(space, target=0.3)
        dists = [abs(c.theta - 0.3) for c in cands]
        assert dists == sorted(dists)
        assert len(cands) == 8  # m*k projected eigenvalues, all finite here


class TestIterationCost:
    """What one outer iteration may touch: the derivative matrix only when
    a triplet is registered, and one criterion contraction for all
    candidates rather than criterion_value per candidate."""

    @pytest.mark.parametrize("mode", ["standard", "homogeneous"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_derivative_formed_only_inside_register(self, monkeypatch, mode,
                                                   sparse):
        if sparse:
            p = gen_gyroscopic(60, seed=0)
            opts = JDOptions(target=5j, num_pairs=3, tol=1e-8, mindim=6,
                             maxdim=12, max_outer=150, mode=mode, seed=0)
        else:
            p = gen_random_pep(30, 2, seed=1)
            opts = JDOptions(target=0.0, num_pairs=3, tol=1e-9, mindim=6,
                             maxdim=12, max_outer=150, mode=mode, seed=1)
        calls = {"inside": 0, "outside": 0, "register": 0, "criterion": 0}
        state = {"in_register": False}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls["inside" if state["in_register"] else "outside"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def register(*args, **kwargs):
            calls["register"] += 1
            state["in_register"] = True
            try:
                return real_register(*args, **kwargs)
            finally:
                state["in_register"] = False

        def criterion_value(*args, **kwargs):
            calls["criterion"] += 1
            return real_criterion(*args, **kwargs)

        real_register = jdsolver.register
        real_criterion = jdsolver.criterion_value
        monkeypatch.setattr(PolyProblem, "derivative",
                            counted(PolyProblem.derivative))
        monkeypatch.setattr(hom, "hom_D", counted(hom.hom_D))
        monkeypatch.setattr(jdsolver, "register", register)
        monkeypatch.setattr(jdsolver, "criterion_value", criterion_value)
        res = jd_solve(p, opts)
        assert len(res.registry) == 3
        assert calls["outside"] == 0
        assert 0 < calls["inside"] <= 2 * calls["register"]
        assert calls["criterion"] == 0
