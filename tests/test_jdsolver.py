"""Jacobi-Davidson with divided-difference selection, plus the dense oracle.

The oracle (companion linearization + QZ) is the reference for every
solver run; oracle self-checks are residual based, so solver and oracle
never share a code path for verification.
"""
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from eigensel import homogeneous as hom
from eigensel import jdsolver
from eigensel import linsolve
from eigensel.jdsolver import (
    JDOptions,
    OracleCapError,
    Record,
    SolveResult,
    extract_candidates,
    jd_solve,
    oracle_all_eigenpairs,
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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_tol_must_be_finite(self, tol):
        # a NaN tol never converges and spends the budget; an infinite one
        # registers any pick
        with pytest.raises(ValueError, match="tol must be finite"):
            JDOptions(tol=tol).validate(30)

    @pytest.mark.parametrize("mode", ["standard", "homogeneous"])
    @pytest.mark.parametrize("target", [complex(math.nan, 0.0),
                                        complex(0.0, math.nan), math.nan])
    def test_nan_target_rejected(self, target, mode):
        with pytest.raises(ValueError, match="target must be finite"):
            JDOptions(target=target, mode=mode).validate(30)

    @pytest.mark.parametrize("target", [math.inf, complex(0.0, -math.inf)])
    def test_infinite_target_only_in_homogeneous_mode(self, target):
        with pytest.raises(ValueError, match="target must be finite"):
            JDOptions(target=target).validate(30)
        JDOptions(target=target, mode="homogeneous").validate(30)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_inner_steps_positive(self, steps):
        # 0 would expand by the raw residual (a random search), and a
        # negative count would fail inside gmres
        with pytest.raises(ValueError, match="inner_steps must be positive"):
            JDOptions(inner_steps=steps).validate(30)


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
        assert isinstance(res, SolveResult)
        assert all(isinstance(r, Record) for r in res.records)
        assert len(res.records) >= res.outer_iterations
        known = {"expanded", "no-pass", "no_candidates", "converged",
                 "restarted"}
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

    def test_infinite_target(self):
        # at the target inf the preconditioner is the LU of A_2, the
        # singular mass of a gyroscopic problem, not a scalar P(inf) with
        # no finite entry; the defective infinite value itself is blocked
        p = gen_gyroscopic(30)
        opts = JDOptions(target=math.inf, num_pairs=3, mode="homogeneous",
                         seed=0)
        with pytest.warns(UserWarning, match="exactly singular"):
            res = jd_solve(p, opts)
        assert len(res.registry) == 3
        for t in res.registry:
            r = hom.hom_eval(p, t.point) @ t.right
            assert (np.linalg.norm(r) <= opts.tol * np.linalg.norm(t.right)
                    * hom.hom_tolerance_scale(p, t.point))


class TestExtractionHelpers:
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

    def test_dense_solve_uses_lu_solves_only_for_left_vectors(self,
                                                              monkeypatch):
        # the dense preconditioner applies an explicit inverse; triangular
        # solves are left to the null-vector solves of left_eigenvector
        state = {"in_left": False, "inside": 0, "outside": 0}

        def lu_solve(*args, **kwargs):
            state["inside" if state["in_left"] else "outside"] += 1
            return real_lu_solve(*args, **kwargs)

        def left_eigenvector(*args, **kwargs):
            state["in_left"] = True
            try:
                return real_left(*args, **kwargs)
            finally:
                state["in_left"] = False

        real_lu_solve, real_left = sla.lu_solve, linsolve.left_eigenvector
        monkeypatch.setattr(sla, "lu_solve", lu_solve)
        monkeypatch.setattr(linsolve, "left_eigenvector", left_eigenvector)
        p = gen_random_pep(30, 2, seed=1)
        res = jd_solve(p, JDOptions(target=0.0, num_pairs=3, tol=1e-9,
                                    mindim=6, maxdim=12, max_outer=150,
                                    seed=1))
        assert len(res.registry) == 3
        assert state["outside"] == 0 and state["inside"] > 0

    def test_append_copies_no_search_space(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("search space copied")

        def append(self, t):
            with monkeypatch.context() as m:
                m.setattr(np, "column_stack", forbidden)
                m.setattr(np, "pad", forbidden)
                return real_append(self, t)

        real_append = jdsolver.SearchSpace.append
        monkeypatch.setattr(jdsolver.SearchSpace, "append", append)
        for mode in ("standard", "homogeneous"):
            res = jd_solve(gen_random_pep(30, 2, seed=1),
                           JDOptions(target=0.0, num_pairs=2, tol=1e-9,
                                     mindim=4, maxdim=8, max_outer=150,
                                     mode=mode, seed=1))
            assert len(res.registry) == 2


def _best_block_loop(z, k):
    blocks = z.reshape(-1, k)
    c = blocks[int(np.argmax(np.linalg.norm(blocks, axis=1)))]
    return c / np.linalg.norm(c)


def extract_candidates_loop(space, target, mode="standard"):
    """extract_candidates as a loop over the companion eigenvectors, one
    CandidatePair per surviving column (the form it had before it was
    vectorized).  It linearizes the same projected coefficients: the Ritz
    ones in homogeneous mode, the harmonic ones in standard mode."""
    coeffs = (space.H if mode == "homogeneous"
              else jdsolver._harmonic_coeffs(space, complex(target)))
    X, Y = jdsolver._linearize(coeffs)
    ab, Z = sla.eig(X, Y, homogeneous_eigvals=True, check_finite=False)
    alphas, betas = ab
    tpt = (target if isinstance(target, hom.ProjectivePoint)
           else hom.from_scalar(complex(target)))
    cands = []
    for j in range(alphas.shape[0]):
        a, b = alphas[j], betas[j]
        nrm = math.hypot(abs(a), abs(b))
        if nrm < 1e-280 or not np.isfinite(nrm):
            continue
        a, b = a / nrm, b / nrm
        c = _best_block_loop(Z[:, j], space.k)
        if mode == "homogeneous":
            pt = hom.scale_canonical(hom.ProjectivePoint(a, b))
            cands.append((hom.chordal_distance(pt, tpt), j, pt, c))
        elif abs(b) >= jdsolver._BETA_CUT:
            theta = a / b
            cands.append((abs(theta - complex(target)), j, theta, c))
    cands.sort(key=lambda rec: (rec[0], rec[1]))
    return [(rec[2], rec[3]) for rec in cands]


def projected_space(k, seed, degenerate=False):
    """Stand-in search space with random projected quadratic coefficients.

    It is the space V = I of the k x k problem with coefficients H_i, so
    W_i = H_i as well.  degenerate: all three share a zero last row and
    column (a singular pencil: one alpha = beta = 0 value) and the leading
    one a zero first row and column too (an exactly infinite value); the
    harmonic coefficients keep both, as Householder QR leaves a zero last
    row and column of P(tau) in place."""
    rng = np.random.default_rng(seed)
    H = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
         for _ in range(3)]
    if degenerate:
        for Hi in H:
            Hi[:, -1] = Hi[-1, :] = 0.0
        H[2][:, 0] = H[2][0, :] = 0.0
    return SimpleNamespace(H=H, W=H, k=k)


class TestVectorizedExtraction:
    """extract_candidates agrees with the per-column loop it replaced."""

    @staticmethod
    def assert_same(got, want, mode):
        assert len(got) == len(want)
        for cand, (theta, c) in zip(got, want):
            if mode == "homogeneous":
                assert hom.chordal_distance(cand.theta, theta) <= 1e-14
                assert cand.theta.is_infinite == theta.is_infinite
            else:
                assert abs(cand.theta - theta) <= 1e-14 * abs(theta)
            assert abs(np.vdot(cand.v, c)) >= 1.0 - 1e-14

    @pytest.mark.parametrize("mode, target", [
        ("standard", 0.0), ("standard", 0.4 - 1.1j), ("homogeneous", 0.0),
        ("homogeneous", 0.4 - 1.1j),
        ("homogeneous", hom.ProjectivePoint(1.0, 0.0))])
    @pytest.mark.parametrize("seed, degenerate",
                             [(0, False), (1, False), (2, True), (3, True)])
    def test_matches_loop(self, mode, target, seed, degenerate):
        space = projected_space(6, seed, degenerate)
        want = extract_candidates_loop(space, target, mode)
        # a degenerate space drops the singular value, and in standard
        # mode the infinite one as well
        assert len(want) == 12 - degenerate * (1 + (mode == "standard"))
        self.assert_same(extract_candidates(space, target, mode), want, mode)

    @pytest.mark.parametrize("mode", ["standard", "homogeneous"])
    def test_matches_loop_on_gyroscopic_space(self, mode):
        # theta and -conj(theta) tie exactly in distance to an imaginary
        # target; both forms break the tie by QZ order
        p = gen_gyroscopic(16, seed=1)
        rng = np.random.default_rng(0)
        space = jdsolver.SearchSpace(p.coeffs, rng)
        for _ in range(7):
            space.append(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        want = extract_candidates_loop(space, 80j, mode)
        got = extract_candidates(space, 80j, mode)
        self.assert_same(got, want, mode)


class TestHarmonicExtraction:
    """Standard mode projects onto the test space Q = orth(P(tau) V),
    homogeneous mode onto V."""

    TARGET = 0.3 - 0.2j

    @classmethod
    def space(cls, k=8):
        """A search space of gen_random_pep(40, 2), its A_i V and P(tau) V."""
        p = gen_random_pep(40, 2, seed=0)
        rng = np.random.default_rng(0)
        space = jdsolver.SearchSpace(p.coeffs, rng)
        for _ in range(k):
            space.append(rng.standard_normal(40) + 1j * rng.standard_normal(40))
        AV = [A @ space.V for A in p.coeffs]
        PV = sum(cls.TARGET ** i * X for i, X in enumerate(AV))
        return space, AV, PV

    def test_coefficients_project_onto_orth_of_p_tau_v(self):
        space, AV, PV = self.space()
        G = jdsolver._harmonic_coeffs(space, self.TARGET)
        # G_i = Q* A_i V with range(Q) containing P(tau) V gives
        # P(tau) V = Q R, R = sum_i tau^i G_i; recover Q from it
        R = sum(self.TARGET ** i * Gi for i, Gi in enumerate(G))
        Q = np.linalg.solve(R.T, PV.T).T
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(space.k), atol=1e-13)
        for Gi, X in zip(G, AV):
            assert np.linalg.norm(Gi - Q.conj().T @ X) \
                <= 1e-13 * np.linalg.norm(X)

    def test_standard_candidates_solve_the_petrov_galerkin_condition(self):
        space, AV, PV = self.space()
        Q = np.linalg.qr(PV)[0]
        G = [Q.conj().T @ X for X in AV]
        norms = [np.linalg.norm(Gi, 2) for Gi in G]
        cands = extract_candidates(space, self.TARGET, "standard")
        assert len(cands) == 2 * space.k
        for cand in cands:
            th = cand.theta
            r = sum(th ** i * (Gi @ cand.v) for i, Gi in enumerate(G))
            bound = sum(abs(th) ** i * g for i, g in enumerate(norms))
            assert np.linalg.norm(r) <= 1e-12 * bound

    def test_homogeneous_candidates_stay_ritz_pairs(self):
        space, _, _ = self.space()
        H = space.H
        norms = [np.linalg.norm(Hi, 2) for Hi in H]
        for cand in extract_candidates(space, self.TARGET, "homogeneous"):
            w = hom.hom_weights(2, cand.theta)
            r = sum(wi * (Hi @ cand.v) for wi, Hi in zip(w, H))
            bound = sum(abs(wi) * g for wi, g in zip(w, norms))
            assert np.linalg.norm(r) <= 1e-12 * bound


class TestNoPassFallback:
    """With no candidate passing, the first pick and the reselect after a
    rejection both take the candidate of smallest criterion."""

    def test_argmin_candidate_taken(self, monkeypatch):
        p = gen_random_pep(12, 2, seed=3)
        # an eigenvalue that is not the nearest to the target: the fake
        # criterion is smallest near it, so the argmin is rarely index 0
        anchor = sorted((o.value for o in oracle_all_eigenpairs(p)
                         if np.isfinite(o.value)), key=abs)[2]
        scored, solved = [], []

        def candidate_criteria(problem, registry, V, cands, config):
            thetas = np.array([c.theta for c in cands])
            crits = 1.0 + np.abs(thetas - anchor)  # never below eta
            scored.append((thetas, crits))
            return crits

        def correction(problem, theta, *args, **kwargs):
            solved.append((theta, scored[-1]))
            return real_correction(problem, theta, *args, **kwargs)

        real_correction = linsolve.projected_correction_solve
        monkeypatch.setattr(jdsolver, "candidate_criteria", candidate_criteria)
        monkeypatch.setattr(linsolve, "projected_correction_solve", correction)
        res = jd_solve(p, JDOptions(target=0.0, num_pairs=1, tol=1e-8,
                                    mindim=4, maxdim=8, max_outer=40, seed=3))
        assert not res.registry and res.truncated
        events = [r.event for r in res.records]
        assert "expanded" not in events and "converged" not in events
        # a converged pick is rejected and the pick is made again
        assert "rejected: converged duplicate" in events
        assert len(scored) > res.outer_iterations
        # every pick, first or reselected, is the argmin candidate
        assert solved
        for theta, (thetas, crits) in solved:
            assert theta == thetas[np.argmin(crits)]
        assert any(np.argmin(crits) != 0 for _, (_, crits) in solved)
        # a no-pass record carries the minimum criterion of its pick
        picks = {(complex(th[np.argmin(cr)]), float(cr.min()))
                 for th, cr in scored}
        nopass = [r for r in res.records if r.event == "no-pass"]
        assert nopass
        for r in nopass:
            assert (r.value, r.criterion) in picks


class TestRestartRecords:
    """A restarted record names the pick the space restarts on, also when
    that pick was made again after a converged pair in the same iteration:
    its value and criterion are those of one pair scored in its
    iteration."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_value_and_criterion_of_one_scored_pair(self, monkeypatch, seed):
        scored = []  # per iteration, the (theta, criterion) pairs scored

        def extract(space, target, mode="standard"):
            scored.append(set())
            return real_extract(space, target, mode)

        def candidate_criteria(problem, registry, V, cands, config=None):
            crits = real_criteria(problem, registry, V, cands, config)
            scored[-1].update(zip((complex(c.theta) for c in cands),
                                  map(float, crits)))
            return crits

        real_extract = jdsolver.extract_candidates
        real_criteria = jdsolver.candidate_criteria
        monkeypatch.setattr(jdsolver, "extract_candidates", extract)
        monkeypatch.setattr(jdsolver, "candidate_criteria", candidate_criteria)
        res = jd_solve(gen_random_pep(40, 2, seed=0),
                       JDOptions(target=0.3, num_pairs=8, tol=1e-9, mindim=6,
                                 maxdim=12, seed=seed))
        assert len(res.registry) == 8
        converged = {r.iteration for r in res.records
                     if r.event == "converged"}
        restarted = [r for r in res.records if r.event == "restarted"]
        assert any(r.iteration in converged for r in restarted)
        for r in restarted:
            assert (r.value, r.criterion) in scored[r.iteration - 1]


_PINNED_PEP_SOLVE = """
import sys
import numpy as np
from eigensel.jdsolver import JDOptions, jd_solve
from eigensel.problems import gen_random_pep
seed, num_pairs, max_outer = map(int, sys.argv[1:4])
opts = JDOptions(target=0.0, num_pairs=num_pairs, tol=float(sys.argv[4]),
                 mindim=10, maxdim=20, max_outer=max_outer, seed=seed)
res = jd_solve(gen_random_pep(100, 2, seed=seed), opts)
values = np.array([t.value for t in res.registry], dtype=complex)
rights = np.array([t.right for t in res.registry], dtype=complex)
np.savez(sys.argv[5], values=values, rights=rights.reshape(-1, 100),
         truncated=res.truncated)
"""


def _pinned_random_pep_solve(tmp_path, seed, num_pairs, max_outer, tol):
    """jd_solve on gen_random_pep(100, 2, seed) with target 0, run in a
    fresh interpreter with one BLAS thread.

    How many outer iterations twenty pairs take follows the last bit of
    the BLAS sums: on seeds 0-9 it spans 395-808 with one thread and
    335-1318 with two, and which seeds overrun a budget of 800 changes with
    the thread count.  A budget test on that count is reproducible only
    with the summation order fixed, as perfbench fixes it.
    """
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = tmp_path / "solve.npz"
    proc = subprocess.run(
        [sys.executable, "-c", _PINNED_PEP_SOLVE, str(seed), str(num_pairs),
         str(max_outer), repr(tol), str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(out) as z:
        return (list(z["values"]), list(z["rights"]), bool(z["truncated"]))


class TestInteriorTargetOracle:
    """Random quadratics with an interior target: harmonic extraction and
    the argmin fallback reach the requested count within the budget."""

    @pytest.mark.parametrize("seed", range(5))
    def test_ten_pairs_untruncated(self, seed):
        p = gen_random_pep(100, 2, seed=seed)
        res = jd_solve(p, JDOptions(target=0.0, num_pairs=10, tol=1e-9,
                                    mindim=10, maxdim=20, max_outer=200,
                                    seed=seed))
        assert not res.truncated
        assert len(res.registry) == 10

    @pytest.mark.parametrize("seed", [
        0, 1, 2, 3,
        pytest.param(4, marks=pytest.mark.xfail(
            strict=True, reason="stops at 19 of 20 pairs within 800 "
                                "outer iterations")),
    ])
    def test_twenty_pairs_verified_against_oracle(self, seed, tmp_path):
        p = gen_random_pep(100, 2, seed=seed)
        tol = 1e-9
        values, rights, truncated = _pinned_random_pep_solve(
            tmp_path, seed, num_pairs=20, max_outer=800, tol=tol)
        oracle = [o.value for o in oracle_all_eigenpairs(p)
                  if o.ok and np.isfinite(o.value)]
        for value, x in zip(values, rights):
            assert (np.linalg.norm(p.matvec(value, x))
                    <= tol * p.tolerance_scale(abs(value))
                    * np.linalg.norm(x))
        # each value is an eigenvalue, and no eigenvalue is returned twice
        nearest = [int(np.argmin([abs(v - w) for w in oracle]))
                   for v in values]
        for v, j in zip(values, nearest):
            assert abs(v - oracle[j]) <= 1e-6 * max(1.0, abs(oracle[j]))
        assert len(set(nearest)) == len(nearest)
        assert not truncated
        assert len(values) == 20


class TestSearchSpaceBuffers:
    def test_grow_restart_and_append_keep_invariants(self):
        p = gen_random_pep(40, 2, seed=6)
        rng = np.random.default_rng(1)
        space = jdsolver.SearchSpace(p.coeffs, rng)

        def check():
            V = space.V
            assert V.shape == (40, space.k)
            np.testing.assert_allclose(V.conj().T @ V, np.eye(space.k),
                                       atol=1e-13)
            for A, W, H in zip(p.coeffs, space.W, space.H):
                assert np.linalg.norm(W - A @ V) <= 1e-13 * np.linalg.norm(W)
                assert (np.linalg.norm(H - V.conj().T @ W)
                        <= 1e-13 * np.linalg.norm(H))

        def rand():
            return rng.standard_normal(40) + 1j * rng.standard_normal(40)

        for _ in range(3 * jdsolver._INITIAL_CAPACITY):
            space.append(rand())
        assert space.k == 3 * jdsolver._INITIAL_CAPACITY
        check()
        space.restart([rng.standard_normal(space.k) for _ in range(5)])
        assert space.k == 5
        check()
        for _ in range(8):
            space.append(rand())
        assert space.k == 13
        check()

    def test_capacity_capped_at_n(self):
        p = gen_random_pep(13, 2, seed=7)
        rng = np.random.default_rng(2)
        space = jdsolver.SearchSpace(p.coeffs, rng)
        for _ in range(20):
            space.append(rng.standard_normal(13) + 0j)
        assert space.k == 13
        assert space._V.shape == (13, 13)
        np.testing.assert_allclose(space.V.conj().T @ space.V, np.eye(13),
                                   atol=1e-13)

    def test_real_space_splits_complex_vectors(self):
        # a float64 space takes a complex vector as its Re and Im parts; a
        # part that adds no direction is dropped, not replaced at random
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((12, 12)) for _ in range(3)]
        space = jdsolver.SearchSpace(mats, rng, dtype=float)

        def spans(V, vs):
            return all(np.linalg.norm(v - V @ (V.T @ v))
                       <= 1e-12 * np.linalg.norm(v) for v in vs)

        x, y, z = (rng.standard_normal(12) for _ in range(3))
        space.append(x + 1j * y)
        space.append(np.exp(0.7j) * z)  # Re and Im parts are parallel
        assert space.k == 3
        assert spans(space.V, (x, y, z))
        for _ in range(3):
            space.append(rng.standard_normal(12))
        V = space.V.copy()
        assert {a.dtype for a in [space.V] + space.W + space.H} == {
            np.dtype(np.float64)}
        # a conjugate adds nothing, and limit caps the kept directions
        a, b, c, d = (rng.standard_normal(6) for _ in range(4))
        space.restart([a + 1j * b, a - 1j * b, c, d], limit=3)
        assert space.k == 3
        assert spans(space.V, (V @ a, V @ b, V @ c))
        assert not spans(space.V, (V @ d,))
        for A, W, H in zip(mats, space.W, space.H):
            assert np.linalg.norm(W - A @ space.V) <= 1e-13 * np.linalg.norm(W)
            assert np.linalg.norm(H - space.V.T @ W) <= 1e-13 * np.linalg.norm(H)


class TestSnapInfinite:
    """A converged projective value within its accuracy of infinity is
    taken as infinity when the residual there still meets tol."""

    @staticmethod
    def space_and_c():
        # e1 is a null vector of the leading coefficient: infinity is an
        # eigenvalue with eigenvector e1
        rng = np.random.default_rng(3)
        A0, A1 = (rng.standard_normal((6, 6)) for _ in range(2))
        p = PolyProblem([A0, A1, np.diag([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])])
        space = jdsolver.SearchSpace(p.coeffs, rng)
        space.append(np.eye(6)[0])
        space.append(rng.standard_normal(6))
        return p, space, np.array([1.0, 0.0], dtype=complex)

    def test_near_infinite_point_snaps(self):
        p, space, c = self.space_and_c()
        theta = hom.ProjectivePoint(1.0, 1e-13)
        snapped, rho = jdsolver._snap_infinite(p, space, theta, c, 1e-10,
                                               1e-8)
        assert snapped.beta == 0.0 and snapped.is_infinite
        assert rho <= 1e-15

    def test_finite_point_is_kept(self):
        p, space, c = self.space_and_c()
        theta = hom.ProjectivePoint(1.0, 1e-6)
        kept, rho = jdsolver._snap_infinite(p, space, theta, c, 1e-10, 1e-8)
        assert kept is theta and rho == 1e-10

    def test_no_snap_when_infinity_misses_tol(self):
        p, space, _ = self.space_and_c()
        theta = hom.ProjectivePoint(1.0, 1e-13)
        c = np.array([0.0, 1.0], dtype=complex)  # not a null vector of A2
        kept, rho = jdsolver._snap_infinite(p, space, theta, c, 1e-10, 1e-8)
        assert kept is theta and rho == 1e-10
