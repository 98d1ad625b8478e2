"""Multiparameter problems: Delta operators, divided differences, solver.

Hand-built Kronecker formulas are the reference for the operator
determinants, the Delta_0 sandwich for the divided-difference sandwich, and
the dense Delta-pencil solve for every subspace run.
"""
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from eigensel import mep as mepmod
from eigensel import mmio
from eigensel.jdsolver import Record, SolveResult
from eigensel.mep import (
    DefectiveEigenvalueError,
    LinearMep2,
    LinearMep3,
    MepOptions,
    cheb,
    criterion_threshold,
    dd_sandwich,
    delta_operators,
    gen_fourpoint_bvp,
    gen_random_mep,
    mep_criterion,
    mep_register,
    mep_subspace_solve,
    oscillation_index,
    tensor_rayleigh,
    to_dense_matvec,
)
from eigensel.oracle import _rank1_factors, dense_registry, dense_solve
from eigensel.selection import SIMPLICITY_RTOL


def dist(a, b):
    """Euclidean distance of two parameter tuples."""
    return math.sqrt(sum(abs(complex(x) - complex(y)) ** 2
                         for x, y in zip(a, b)))


class TestDeltaOperators:
    def test_two_parameter_kron_formula(self):
        m = gen_random_mep((3, 4), seed=0)
        (A1, B1, C1), (A2, B2, C2) = m.ops
        D = delta_operators(m)
        np.testing.assert_allclose(D[0], np.kron(B1, C2) - np.kron(C1, B2),
                                   atol=0)
        np.testing.assert_allclose(D[1], np.kron(A1, C2) - np.kron(C1, A2),
                                   atol=0)
        np.testing.assert_allclose(D[2], np.kron(B1, A2) - np.kron(A1, B2),
                                   atol=0)

    def test_eigen_identity_on_decomposable_vectors(self):
        # Delta_j z = lam_j Delta_0 z for z = x1 (x) x2
        m = gen_random_mep((3, 3), seed=1)
        D = delta_operators(m)
        for p in dense_solve(m):
            assert p.ok
            z = np.kron(p.xs[0], p.xs[1])
            base = np.linalg.norm(D[0] @ z)
            for j in (0, 1):
                r = np.linalg.norm(D[j + 1] @ z - p.values[j] * (D[0] @ z))
                assert r <= 1e-10 * max(1.0, base)

    def test_three_parameter_count_and_size(self):
        m = gen_random_mep((2, 3, 2), seed=2)
        D = delta_operators(m)
        assert len(D) == 4
        assert all(M.shape == (12, 12) for M in D)


def operator_determinant_kron(columns_per_row):
    """Sum over permutations of sign times np.kron chains (the form
    _operator_determinant had before the Laplace expansion)."""
    N = len(columns_per_row)
    out = 0
    for perm in itertools.permutations(range(N)):
        sign = (-1) ** sum(perm[a] > perm[b]
                           for a in range(N) for b in range(a + 1, N))
        term = columns_per_row[0][perm[0]]
        for i in range(1, N):
            term = np.kron(term, columns_per_row[i][perm[i]])
        out = out + sign * term
    return out


class TestOperatorDeterminantExpansion:
    @pytest.mark.parametrize("dims", [(4, 5), (3, 4, 3)])
    def test_matches_kron_build(self, dims):
        rng = np.random.default_rng(len(dims))
        N = len(dims)
        cols = [[rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                 for _ in range(N)] for d in dims]
        got = mepmod._operator_determinant(cols)
        want = operator_determinant_kron(cols)
        assert got.shape == want.shape == (math.prod(dims),) * 2
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_delta_operators_of_three_parameter_problem(self):
        m = gen_random_mep((3, 4, 3), seed=4)
        cols = [list(m.param_mats(i)) for i in range(3)]
        base = operator_determinant_kron(cols)
        got = delta_operators(m)
        assert np.linalg.norm(got[0] - base) <= 1e-13 * np.linalg.norm(base)
        for j in range(3):
            cj = [list(row) for row in cols]
            for i in range(3):
                cj[i][j] = m.a_mat(i)
            want = operator_determinant_kron(cj)
            assert (np.linalg.norm(got[j + 1] - want)
                    <= 1e-13 * np.linalg.norm(want))


class TestDenseSolve:
    def test_two_param_count_and_residuals(self):
        m = gen_random_mep((3, 3), seed=3)
        pairs = dense_solve(m)
        assert len(pairs) == 9
        assert all(p.ok for p in pairs)
        assert max(max(p.res_right, p.res_left) for p in pairs) <= 1e-8

    def test_three_param_registry(self):
        m = gen_random_mep((2, 2, 2), seed=4)
        reg = dense_registry(m, 3)
        assert len(reg) == 8
        for t in reg:
            assert len(t.values) == 3
            assert abs(t.denom) > 0

    def test_parameter_count_guards(self):
        m2 = gen_random_mep((3, 3), seed=5)
        m3 = gen_random_mep((2, 2, 2), seed=6)
        with pytest.raises(ValueError):
            dense_registry(m3, 2)
        with pytest.raises(ValueError):
            dense_registry(m2, 3)

    def test_values_satisfy_factor_problems(self):
        m = gen_random_mep((3, 4), seed=7)
        for t in dense_registry(m, 2)[:4]:
            for i in range(2):
                r = to_dense_matvec(m, i, t.values, t.xs[i])
                assert np.linalg.norm(r) <= 1e-8 * m.tolerance_scale(i, t.values)


class TestSandwichAndCriterion:
    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 2)])
    def test_sandwich_is_the_delta0_sandwich(self, dims):
        # constant blocks -P_ij: (y_1 (x) ...)* (-1)^k Delta_0 (x_1 (x) ...)
        # at any two points
        m = gen_random_mep(dims, seed=len(dims))
        rng = np.random.default_rng(8)
        ys, xs = ([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                   for n in dims] for _ in range(2))
        y, x = ys[0], xs[0]
        for i in range(1, len(dims)):
            y, x = np.kron(y, ys[i]), np.kron(x, xs[i])
        want = (-1) ** len(dims) * np.vdot(y, delta_operators(m)[0] @ x)
        p = (0.3 + 1.0j, -0.2, 0.5)[:len(dims)]
        q = (1.1, 0.7 - 0.5j, -1.0)[:len(dims)]
        for a, b in ((p, q), (p, p)):
            np.testing.assert_allclose(dd_sandwich(m, a, b, ys, xs), want,
                                       rtol=1e-12)

    def test_cross_annihilation_and_self_jacobian(self):
        m = gen_random_mep((3, 3), seed=18)
        reg = dense_registry(m, 2)
        scale = max(abs(t.denom) for t in reg)
        for i, ti in enumerate(reg):
            for j, tj in enumerate(reg):
                val = dd_sandwich(m, ti.values, tj.values, ti.ys, tj.xs)
                if i == j:
                    assert abs(val) > 1e-8 * scale
                    np.testing.assert_allclose(val, ti.denom, rtol=1e-10)
                else:
                    assert abs(val) <= 1e-8 * scale

    def test_criterion_self_is_one_cross_is_small(self):
        m = gen_random_mep((3, 3), seed=19)
        reg = dense_registry(m, 2)
        for i, t in enumerate(reg):
            np.testing.assert_allclose(mep_criterion(m, [t], t.xs), 1.0,
                                       atol=1e-10)
            others = [u for j, u in enumerate(reg) if j != i]
            assert mep_criterion(m, others, t.xs) <= 1e-8
        assert mep_criterion(m, [], reg[0].xs) == 0.0

    def test_strict_variant_and_thresholds(self):
        m = gen_random_mep((3, 3), seed=20)
        reg = dense_registry(m, 2)
        t = reg[0]
        # strict folds the half-minimum into the value: self scores 2
        v = mep_criterion(m, [t], t.xs, variant="strict")
        np.testing.assert_allclose(v, 2.0, atol=1e-9)
        assert criterion_threshold(0.1, "new") == 0.1
        assert criterion_threshold(0.1, "strict") == 1.0
        with pytest.raises(ValueError):
            mep_criterion(m, [t], t.xs, variant="legacy")

    def test_register_normalizes_and_validates(self):
        m = gen_random_mep((3, 3), seed=21)
        pairs = dense_solve(m)
        p = pairs[0]
        registry = []
        t = mep_register(m, registry, p.values, [3.0 * x for x in p.xs],
                         [-2j * y for y in p.ys], residual=1e-11, iteration=4)
        for v in t.xs + t.ys:
            np.testing.assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-12)
        assert t.found_iteration == 4

    def test_register_stores_unit_vectors_as_given(self):
        # dividing a unit vector by its norm again would re-round it, and
        # the residual the solver records would no longer be its own
        m = gen_random_mep((3, 3), seed=21)
        p = dense_solve(m)[0]
        xs = [x / np.linalg.norm(x) for x in p.xs]
        t = mep_register(m, [], p.values, xs, p.ys)
        assert all(np.array_equal(a, b) for a, b in zip(t.xs, xs))

    def test_register_rejects_singular_jacobian(self):
        # identical factors with identical vectors: the sandwich rows
        # coincide and the determinant vanishes
        rng = np.random.default_rng(22)
        ops = tuple((rng.standard_normal((3, 3)) +
                     1j * rng.standard_normal((3, 3))) for _ in range(3))
        m = LinearMep2(*ops, *ops)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        with pytest.raises(DefectiveEigenvalueError):
            mep_register(m, [], (0.5, 0.5), [x, x], [x, x])

    @pytest.mark.parametrize("factor, refused", [(0.99, True),
                                                 (1.01, False)])
    def test_register_floor_is_the_simplicity_rtol(self, factor, refused):
        # 1x1 factors: the sandwich is det [[-1, -1], [-1, -(1 + d)]] = d
        # and jacobian_scale is 1 + d, so d sets the ratio to the floor
        d = factor * SIMPLICITY_RTOL
        one = np.ones((1, 1))
        m = LinearMep2(one, one, one, one, one, (1.0 + d) * one)
        x = np.ones(1)
        assert abs(dd_sandwich(m, (0, 0), (0, 0), [x, x], [x, x])) == \
            pytest.approx(d, rel=1e-3)
        if refused:
            with pytest.raises(DefectiveEigenvalueError):
                mep_register(m, [], (0.0, 0.0), [x, x], [x, x])
        else:
            mep_register(m, [], (0.0, 0.0), [x, x], [x, x])

    def test_criterion_rows_are_cached_adjoint_rows(self):
        # the registry caches y_i* P_ij per factor through the helper that
        # caches y* A_k for one-parameter triplets
        m = gen_random_mep((3, 4), seed=21)
        t = dense_registry(m, 2)[0]
        mep_criterion(m, [t], t.xs)
        for i, rows in enumerate(t._rows):
            want = np.array([t.ys[i].conj() @ P for P in m.param_mats(i)])
            np.testing.assert_allclose(rows, want, rtol=1e-14, atol=1e-14)

    def test_tensor_rayleigh_exact_on_eigenvectors(self):
        m = gen_random_mep((3, 4), seed=23)
        for t in dense_registry(m, 2)[:4]:
            got = tensor_rayleigh(m, t.xs, t.ys)
            for g, w in zip(got, t.values):
                assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


class TestSubspaceSolver:
    def test_options_validation(self):
        m = gen_random_mep((5, 7), seed=24)
        with pytest.raises(ValueError):
            MepOptions(target=(0.0,)).validate(m)
        with pytest.raises(ValueError):
            MepOptions(target=(0, 0), mindim=4, maxdim=6).validate(m)
        MepOptions(target=(0, 0), mindim=3, maxdim=5).validate(m)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_tol_must_be_finite(self, tol):
        m = gen_random_mep((5, 7), seed=24)
        with pytest.raises(ValueError, match="tol must be finite"):
            MepOptions(target=(0, 0), mindim=3, maxdim=5,
                       tol=tol).validate(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     complex(0.0, math.nan),
                                     complex(-math.inf, 0.0)])
    def test_target_must_be_finite(self, bad):
        m = gen_random_mep((5, 7), seed=24)
        for target in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="target components"):
                MepOptions(target=target, mindim=3, maxdim=5).validate(m)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_inner_steps_positive(self, steps):
        m = gen_random_mep((5, 7), seed=24)
        with pytest.raises(ValueError, match="inner_steps must be positive"):
            MepOptions(target=(0, 0), mindim=3, maxdim=5,
                       inner_steps=steps).validate(m)

    def test_decoupled_problem_distinct_tuples(self):
        # T_1 depends only on lam, T_2 only on mu: eigenvalues form a
        # cartesian product, so duplicates in a single coordinate are
        # legitimate and only the full tuple must be new
        rng = np.random.default_rng(25)
        A1 = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.05 * rng.standard_normal((4, 4))
        A2 = np.diag([5.0, 6.0, 7.0, 8.0]) + 0.05 * rng.standard_normal((4, 4))
        m = LinearMep2(A1, np.eye(4), np.zeros((4, 4)),
                       A2, np.zeros((4, 4)), np.eye(4))
        opts = MepOptions(target=(0.0, 0.0), num_pairs=4, tol=1e-9, mindim=2,
                          maxdim=4, max_outer=80, seed=0)
        res = mep_subspace_solve(m, opts)
        assert len(res.registry) == 4
        oracle = [t.values for t in dense_registry(m, 2)]
        seen = set()
        for t in res.registry:
            errs = [sum(abs(a - b) for a, b in zip(t.values, w))
                    for w in oracle]
            j = int(np.argmin(errs))
            assert errs[j] <= 1e-7
            assert j not in seen
            seen.add(j)

    def test_random_coupled_problem_verified(self):
        m = gen_random_mep((8, 7), seed=26)
        opts = MepOptions(target=(0.0, 0.0), num_pairs=4, tol=1e-9, mindim=4,
                          maxdim=7, max_outer=120, seed=1)
        res = mep_subspace_solve(m, opts)
        assert len(res.registry) == 4
        oracle = [t.values for t in dense_registry(m, 2)]
        for t in res.registry:
            err = min(sum(abs(a - b) for a, b in zip(t.values, w))
                      for w in oracle)
            assert err <= 1e-6
            assert t.residual <= 1e-9

    def test_deterministic_given_seed(self):
        m = gen_random_mep((6, 6), seed=27)
        opts = MepOptions(target=(0.0, 0.0), num_pairs=2, tol=1e-9, mindim=3,
                          maxdim=6, max_outer=80, seed=5)
        v1 = [t.values for t in mep_subspace_solve(m, opts).registry]
        v2 = [t.values for t in mep_subspace_solve(m, opts).registry]
        assert v1 == v2

    def test_truncation_flag(self):
        m = gen_random_mep((6, 6), seed=28)
        opts = MepOptions(target=(0.0, 0.0), num_pairs=6, tol=1e-12, mindim=3,
                          maxdim=6, max_outer=2, seed=0)
        res = mep_subspace_solve(m, opts)
        assert res.truncated
        assert res.outer_iterations == 2

    def test_records_and_to_dict(self):
        m = gen_random_mep((6, 6), seed=29)
        opts = MepOptions(target=(0.0, 0.0), num_pairs=2, tol=1e-9, mindim=3,
                          maxdim=6, max_outer=80, seed=2)
        res = mep_subspace_solve(m, opts)
        assert sum(r.event == "converged" for r in res.records) == 2
        d = mmio.to_json(res.registry[0])
        assert set(d) == {"values", "xs", "ys", "denom", "residual",
                          "found_iteration"}
        assert len(d["values"]) == 2 and len(d["values"][0]) == 2
        # a NaN residual is written as null
        blank = mmio.to_json(mepmod.MepTriplet((1.0, 2.0), [], [], 1.0))
        assert blank["residual"] is None

    def test_convergence_records_form_a_history(self):
        m = gen_random_mep((8, 7), seed=2)
        res = mep_subspace_solve(m, MepOptions(
            target=(0.0, 0.0), num_pairs=3, tol=1e-9, mindim=3, maxdim=6,
            max_outer=120))
        assert isinstance(res, SolveResult)
        assert all(isinstance(r, Record) for r in res.records)
        assert len(res.records) >= res.outer_iterations
        known = {"expanded", "no-pass", "no_candidates", "converged",
                 "restarted"}
        for r in res.records:
            tag = r.event.split(":")[0]
            assert tag in known or tag == "rejected"
            assert r.iteration >= 1
        assert sum(r.event == "converged" for r in res.records) == len(
            res.registry)

    def test_restart_records_carry_the_pick_criterion(self, monkeypatch):
        # a restart after a converged pair names the pick made again: its
        # tuple and criterion are those of one pair scored in its iteration
        spaces, cands = [], []
        scored = []  # per iteration, the (values, criterion) pairs scored

        class SpySpace(mepmod.SearchSpace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spaces.append(self)

        def projected_candidates(small, target):
            scored.append(set())
            cands[:] = real_candidates(small, target)
            return list(cands)

        def criterion(mep, registry, vs, variant="new"):
            value = mep_criterion(mep, registry, vs, variant)
            (c,) = [c for c in cands
                    if all(np.allclose(sp.V @ x, v, rtol=1e-12, atol=0)
                           for sp, x, v in zip(spaces, c.xs, vs))]
            scored[-1].add((c.values, value))
            return value

        real_candidates = mepmod._projected_candidates
        monkeypatch.setattr(mepmod, "SearchSpace", SpySpace)
        monkeypatch.setattr(mepmod, "_projected_candidates",
                            projected_candidates)
        monkeypatch.setattr(mepmod, "mep_criterion", criterion)
        res = mep_subspace_solve(gen_random_mep((8, 7), seed=26), MepOptions(
            target=(0.0, 0.0), num_pairs=4, tol=1e-9, mindim=4, maxdim=7,
            max_outer=120, seed=1))
        assert len(res.registry) == 4
        converged = {r.iteration for r in res.records
                     if r.event == "converged"}
        restarted = [r for r in res.records if r.event == "restarted"]
        assert any(r.iteration in converged for r in restarted)
        for r in restarted:
            assert (r.value, r.criterion) in scored[r.iteration - 1]


class TestInverseIterationStart:
    """Each factor space starts from LU(T_i(target))^-1 times a seeded
    random vector: one inverse-iteration step at the target."""

    @pytest.mark.parametrize("seed", range(4))
    def test_first_pair_found_early(self, seed):
        # a raw random start puts the first Ritz tuple far from the target;
        # from it the first pair converged at iteration 15-20 on these seeds
        res = mep_subspace_solve(gen_fourpoint_bvp(20), MepOptions(
            target=(0, 0, 0), num_pairs=3, tol=1e-10, mindim=3, maxdim=4,
            seed=seed))
        assert len(res.registry) == 3
        first = next(r.iteration for r in res.records
                     if r.event == "converged")
        assert first <= 10

    @staticmethod
    def _spied_solve(monkeypatch):
        # solves per preconditioner, and those made before the first
        # extraction, and the first vector appended to each space
        precs, starts, before = [], [], []

        class SpyLu(mepmod.linsolve.LuPreconditioner):
            def __init__(self, A):
                super().__init__(A)
                self.solves = 0
                precs.append(self)

            def solve(self, b):
                self.solves += 1
                return super().solve(b)

        class SpySpace(mepmod.SearchSpace):
            def append(self, t, fill=True):
                if self.k == 0:
                    starts.append(t)
                return super().append(t, fill)

        def projected_candidates(small, target):
            if not before:
                before.extend(p.solves for p in precs)
            return real_candidates(small, target)

        real_candidates = mepmod._projected_candidates
        monkeypatch.setattr(mepmod.linsolve, "LuPreconditioner", SpyLu)
        monkeypatch.setattr(mepmod, "SearchSpace", SpySpace)
        monkeypatch.setattr(mepmod, "_projected_candidates",
                            projected_candidates)
        m = gen_random_mep((6, 7), seed=30)
        mep_subspace_solve(m, MepOptions(
            target=(0.0, 0.0), num_pairs=1, tol=1e-9, mindim=3, maxdim=5,
            max_outer=3, seed=3))
        return m, precs, starts, before

    def test_default_start_solves_each_factor_once(self, monkeypatch):
        m, precs, starts, before = self._spied_solve(monkeypatch)
        assert len(precs) == m.nfactors
        assert before == [1] * m.nfactors
        # the start is the solve of the first random draw
        rng = np.random.default_rng(3)
        for i, t in enumerate(starts):
            rho = rng.standard_normal(m.dims[i]) + 1j * rng.standard_normal(
                m.dims[i])
            np.testing.assert_allclose(
                mepmod.to_dense_matvec(m, i, (0.0, 0.0), t), rho,
                rtol=1e-10, atol=1e-10 * np.linalg.norm(rho))


class TestNoPassFallback:
    """With no candidate passing, the first pick and the pick made again
    after a rejection both take the nearest candidate, index 0."""

    def test_nearest_candidate_taken(self, monkeypatch):
        target = (0.0, 0.0)
        state = {"cands": [], "blocked": [], "crits": []}
        picks = []  # (picked tuple, unblocked tuples, their criteria)

        def projected_candidates(small, target):
            state["cands"] = sorted(real_candidates(small, target),
                                    key=lambda c: dist(c.values, target))
            return list(state["cands"])

        def is_blocked(values, blocked, tol):
            state["blocked"] = blocked
            return real_blocked(values, blocked, tol)

        def criterion(mep, registry, vs, variant="new"):
            # never below eta, and rarely smallest at index 0
            v = vs[0] / np.linalg.norm(vs[0])
            state["crits"].append(1.0 + abs(v[0]))
            return state["crits"][-1]

        def matvec(mep, i, values, v):
            if i == 0:  # a pick's residual: one call per factor
                unblocked = [c.values for c in state["cands"]
                             if not real_blocked(c.values, state["blocked"],
                                                 1e-6)]
                picks.append((values, unblocked, state["crits"]))
                state["crits"] = []
            return real_matvec(mep, i, values, v)

        real_candidates = mepmod._projected_candidates
        real_blocked = mepmod._is_blocked
        real_matvec = mepmod.to_dense_matvec
        monkeypatch.setattr(mepmod, "_projected_candidates",
                            projected_candidates)
        monkeypatch.setattr(mepmod, "_is_blocked", is_blocked)
        monkeypatch.setattr(mepmod, "mep_criterion", criterion)
        monkeypatch.setattr(mepmod, "to_dense_matvec", matvec)
        res = mep_subspace_solve(gen_random_mep((6, 6), seed=27), MepOptions(
            target=target, num_pairs=1, tol=1e-9, mindim=3, maxdim=6,
            max_outer=40, seed=5))
        assert not res.registry and res.truncated
        events = [r.event for r in res.records]
        assert "expanded" not in events and "converged" not in events
        # a converged pick is rejected and the pick is made again
        assert "rejected: converged duplicate" in events
        assert len(picks) > res.outer_iterations
        # every pick, first or made again, is the nearest unblocked
        # candidate, whose criteria were all read in target order
        for values, unblocked, crits in picks:
            assert len(crits) == len(unblocked)
            assert values == unblocked[0]
        assert any(np.argmin(crits) != 0 for _, _, crits in picks)


class TestProjectedExtraction:
    """The solver's one-sided extraction against the two-sided oracle."""

    @staticmethod
    def _matched(m):
        # pair every candidate with the oracle tuple nearest to it
        cands = mepmod._projected_candidates(m, (0.0,) * m.nparams)
        oracle = dense_solve(m)
        assert len(cands) == len(oracle)
        pairs = []
        for c in cands:
            dists = [dist(c.values, p.values) for p in oracle]
            pairs.append((c, oracle[int(np.argmin(dists))], min(dists)))
        assert len({id(p) for _, p, _ in pairs}) == len(oracle)
        return pairs

    @pytest.mark.parametrize("dims", [(4, 5), (3, 4, 3)])
    def test_tuples_equal_oracle_set(self, dims):
        m = gen_random_mep(dims, seed=40)
        for c, p, err in self._matched(m):
            assert err <= 1e-10 * max(1.0, dist(p.values, [0] * m.nparams))

    @pytest.mark.parametrize("dims", [(4, 5), (3, 4, 3)])
    def test_lazy_factors_parallel_to_oracle(self, dims):
        m = gen_random_mep(dims, seed=41)
        for c, p, _ in self._matched(m):
            for x, xo in zip(c.xs, p.xs):
                assert abs(np.vdot(x, xo)) >= 1.0 - 1e-10

    def test_factors_computed_only_when_read(self, monkeypatch):
        calls = []
        fibers = mepmod._fiber_factors

        def counting(z, dims):
            calls.append(dims)
            return fibers(z, dims)

        monkeypatch.setattr(mepmod, "_fiber_factors", counting)
        cands = mepmod._projected_candidates(gen_random_mep((3, 4), seed=42),
                                             (0.0, 0.0))
        assert calls == []
        first = cands[0].xs
        assert cands[0].xs is first
        assert calls == [(3, 4)]

    @pytest.mark.parametrize("dims", [(4, 5), (3, 4, 3), (2, 3, 4)])
    @pytest.mark.parametrize("real", [False, True])
    def test_fibers_parallel_to_rank1_factors(self, dims, real):
        rng = np.random.default_rng(44)
        for _ in range(10):
            xs = [rng.standard_normal(n) if real else
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)
                  for n in dims]
            z = xs[0]
            for x in xs[1:]:
                z = np.kron(z, x)
            z = z * (rng.standard_normal() if real else
                     rng.standard_normal() + 1j * rng.standard_normal())
            fibers = mepmod._fiber_factors(z, dims)
            for f, g, n in zip(fibers, _rank1_factors(z, dims)[0],
                               dims):
                assert f.shape == (n,) and np.isrealobj(f) == real
                assert abs(np.linalg.norm(f) - 1.0) <= 1e-14
                assert abs(np.vdot(f, g)) >= 1.0 - 1e-12

    @pytest.mark.parametrize("dims", [(4, 5), (3, 4, 3)])
    @pytest.mark.parametrize("real", [False, True])
    def test_order_is_sorting_by_distance(self, dims, real):
        m = gen_random_mep(dims, seed=45)
        if real:
            m = mepmod._LinearMepBase([tuple(M.real for M in row)
                                       for row in m.ops])
            assert m.dtype == np.float64
        k = m.nparams
        for target in [(0.0,) * k, (0.4,) * k,
                       tuple(complex(0.3 * j, -0.2) for j in range(k))]:
            cands = mepmod._projected_candidates(m, target)
            assert len(cands) == len(dense_solve(m))
            expected = sorted(cands, key=lambda c: dist(c.values, target))
            assert [id(c) for c in cands] == [id(c) for c in expected]

    def test_norms_computed_on_first_use(self):
        m = gen_random_mep((3, 4), seed=46)
        assert "_norms1" not in vars(m)
        scale = mepmod.jacobian_scale(m)
        assert "_norms1" in vars(m)
        assert scale == math.prod(
            max(np.abs(P).sum(axis=0).max() for P in m.param_mats(i))
            for i in range(2))

    def test_singular_delta0_gives_no_candidates(self):
        # B_i = C_i in both factors makes Delta_0 = B1 (x) B2 - B1 (x) B2
        # vanish exactly, on the full space and on every projection
        rng = np.random.default_rng(43)
        A1, B1, A2, B2 = (rng.standard_normal((4, 4)) for _ in range(4))
        m = LinearMep2(A1, B1, B1, A2, B2, B2)
        with pytest.raises(np.linalg.LinAlgError):
            mepmod._projected_candidates(m, (0.0, 0.0))
        opts = MepOptions(target=(0.0, 0.0), num_pairs=1, mindim=2, maxdim=3,
                          max_outer=5, seed=0)
        res = mep_subspace_solve(m, opts)
        assert res.truncated and res.outer_iterations == 5
        assert res.registry == []
        assert [r.event for r in res.records] == ["no_candidates"] * 5
        assert all(r.value is None for r in res.records)

    def test_sparse_factors_match_dense_run(self, monkeypatch):
        m = gen_fourpoint_bvp(12)
        ms = LinearMep3([tuple(sp.csr_matrix(M) for M in row)
                         for row in m.ops])
        assert all(sp.issparse(M) for row in ms.ops for M in row)
        opts = MepOptions(target=(0.0, 0.0, 0.0), num_pairs=3, tol=1e-10,
                          mindim=3, maxdim=5, max_outer=80, seed=0)
        dense = mep_subspace_solve(m, opts).registry
        # correction and left-vector solves must not densify T_i(lam)
        to_dense = mepmod.to_dense

        def dense_only(M):
            assert not sp.issparse(M), "sparse factor densified"
            return to_dense(M)

        monkeypatch.setattr(mepmod, "to_dense", dense_only)
        sparse = mep_subspace_solve(ms, opts).registry
        assert len(sparse) == len(dense) == 3
        for t in sparse:
            assert min(dist(t.values, u.values) for u in dense) <= 1e-8


class TestRealArithmetic:
    """Real problems at real targets run on float64 spaces and Delta's."""

    @staticmethod
    def _spied_solve(monkeypatch, m, opts):
        eig_dtypes, spaces, starts = [], [], []
        eig = np.linalg.eig

        def spy_eig(a):
            eig_dtypes.append(np.asarray(a).dtype)
            return eig(a)

        class SpySpace(mepmod.SearchSpace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spaces.append(self)

            def append(self, t, fill=True):
                if self.k == 0:
                    starts.append(np.asarray(t).dtype)
                return super().append(t, fill)

        monkeypatch.setattr(np.linalg, "eig", spy_eig)
        monkeypatch.setattr(mepmod, "SearchSpace", SpySpace)
        res = mep_subspace_solve(m, opts)
        buffers = {a.dtype for s in spaces for a in [s.V] + s.W + s.H}
        return res, set(eig_dtypes), buffers, set(starts)

    def test_dtype_follows_the_input(self, monkeypatch):
        bvp = gen_fourpoint_bvp(12)
        assert bvp.dtype == np.float64
        res, eigs, buffers, starts = self._spied_solve(
            monkeypatch, bvp,
            MepOptions(target=(0.0, 0.0, 0.0), num_pairs=3, tol=1e-10,
                       mindim=3, maxdim=5, max_outer=80, seed=0))
        assert len(res.registry) == 3
        assert eigs == buffers == starts == {np.dtype(np.float64)}

        rand = gen_random_mep((5, 6), seed=0)
        assert rand.dtype == np.complex128
        res, eigs, buffers, starts = self._spied_solve(
            monkeypatch, rand,
            MepOptions(target=(0.0, 0.0), num_pairs=2, tol=1e-9, mindim=3,
                       maxdim=5, max_outer=80, seed=0))
        assert eigs == buffers == starts == {np.dtype(np.complex128)}

    def test_real_tuples_registered_real(self):
        # the refinement solves with complex left vectors, whose rounding
        # puts imaginary parts of up to 7e-13 on these real tuples unless
        # only the real parts are registered
        m = gen_fourpoint_bvp(100)
        opts = MepOptions(target=(0, 0, 0), num_pairs=9, tol=1e-10,
                          mindim=3, maxdim=4, seed=1)
        res = mep_subspace_solve(m, opts)
        assert len(res.registry) == 9
        for t in res.registry:
            assert all(v.imag == 0.0 for v in t.values)
            rel = worst_factor_residual(m, t)
            assert rel <= opts.tol
            np.testing.assert_allclose(t.residual, rel, rtol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_complex_tuples_of_a_real_problem(self, seed):
        # the nearest three tuples are one real tuple and a conjugate pair;
        # the pair is found through complex corrections of real spaces
        ops = gen_random_mep((6, 6), seed=seed).ops
        m = LinearMep2(*[M.real for row in ops for M in row])
        assert m.dtype == np.float64
        oracle = sorted(dense_solve(m), key=lambda p: dist(p.values, (0, 0)))
        nearest = [p.values for p in oracle[:3]]
        assert [max(abs(v.imag) for v in t) > 1e-3 for t in nearest] == [
            False, True, True]
        opts = MepOptions(target=(0.0, 0.0), num_pairs=3, tol=1e-9,
                          mindim=5, maxdim=6, max_outer=100, seed=0)
        res = mep_subspace_solve(m, opts)
        assert len(res.registry) == 3
        matched = {min(range(3), key=lambda k: dist(t.values, nearest[k]))
                   for t in res.registry}
        assert matched == {0, 1, 2}
        for t in res.registry:
            assert min(dist(t.values, w) for w in nearest) <= 1e-8


def worst_factor_residual(mep, t):
    """max_i ||T_i(values) x_i|| / (scale_i ||x_i||) of a registered triplet."""
    return max(
        float(np.linalg.norm(to_dense_matvec(mep, i, t.values, x)))
        / (mep.tolerance_scale(i, t.values) * float(np.linalg.norm(x)))
        for i, x in enumerate(t.xs)
    )


class TestRefinedRegistration:
    """The Rayleigh-refined tuple is registered only if it meets tol."""

    def test_worse_refinement_falls_back_to_ritz_tuple(self, monkeypatch):
        m = gen_fourpoint_bvp(12)
        opts = MepOptions(target=(0.0, 0.0, 0.0), num_pairs=2, tol=1e-10,
                          mindim=4, maxdim=8, max_outer=60, seed=0)
        proposed = []

        def worse(mep, xs, ys):
            values = tuple(v * (1 + 1e-6) for v in tensor_rayleigh(mep, xs, ys))
            proposed.append(values)
            return values

        monkeypatch.setattr(mepmod, "tensor_rayleigh", worse)
        res = mep_subspace_solve(m, opts)
        assert len(res.registry) == 2 and len(proposed) == 2
        for t, bad in zip(res.registry, proposed):
            assert t.values != bad
            rel = worst_factor_residual(m, t)
            assert rel <= opts.tol
            np.testing.assert_allclose(t.residual, rel, rtol=1e-6)

    def test_benchmark_seed_registers_only_tuples_within_tol(self):
        # the full bvp3p benchmark setting; at this seed the refinement of
        # the fourth triplet raised its factor-2 residual to 1.004e-10
        m = gen_fourpoint_bvp(100)
        opts = MepOptions(target=(0.0, 0.0, 0.0), num_pairs=9, tol=1e-10,
                          mindim=3, maxdim=4, max_outer=200, seed=411078485)
        res = mep_subspace_solve(m, opts)
        assert len(res.registry) == 9
        for t in res.registry:
            rel = worst_factor_residual(m, t)
            assert rel <= opts.tol
            np.testing.assert_allclose(t.residual, rel, rtol=1e-6)


class TestBoundaryValueProblem:
    def test_cheb_differentiates_polynomials(self):
        D, x = cheb(8)
        np.testing.assert_allclose(D @ x**2, 2 * x, atol=1e-10)
        np.testing.assert_allclose(D @ x**3, 3 * x**2, atol=1e-9)

    def test_factor_shapes(self):
        m = gen_fourpoint_bvp(10)
        assert m.nparams == 3
        assert m.dims == (9, 9, 9)

    def test_first_eigenvalue_is_pi_squared(self):
        # lam = pi^2, mu = nu = 0 solves all three intervals with sin(pi t)
        m = gen_fourpoint_bvp(12)
        opts = MepOptions(target=(0.0, 0.0, 0.0), num_pairs=2, tol=1e-10,
                          mindim=4, maxdim=8, max_outer=60, seed=0)
        res = mep_subspace_solve(m, opts)
        assert len(res.registry) == 2
        first = min(res.registry, key=lambda t: abs(t.values[0] - math.pi**2))
        lam, mu, nu = first.values
        assert abs(lam - math.pi**2) <= 1e-8 * math.pi**2
        assert abs(mu) <= 1e-8 and abs(nu) <= 1e-8
        assert tuple(oscillation_index(x) for x in first.xs) == (0, 0, 0)

    def test_oscillation_index_counts_sign_changes(self):
        t = np.linspace(0.05, 0.95, 25)
        for k in (1, 2, 3, 4):
            v = np.sin(k * math.pi * t)
            assert oscillation_index(v) == k - 1
            # phase rotation must not change the count
            assert oscillation_index(np.exp(1.3j) * v) == k - 1

    @pytest.mark.xfail(strict=True, reason="stalls near (4 pi^2, 0, 0) "
                       "at residual 1e-8 against tol 1e-10")
    @pytest.mark.parametrize("seed", [4164804915, 1750224696])
    def test_benchmark_seed_finds_all_nine(self, seed):
        # the full bvp3p benchmark setting at op_seed(16201, 44) and
        # op_seed(2, 224): 7 of 9 are registered, then the pick hovers near
        # (4 pi^2, 0, 0) until max_outer
        opts = MepOptions(target=(0.0, 0.0, 0.0), num_pairs=9, tol=1e-10,
                          mindim=3, maxdim=4, max_outer=60, seed=seed)
        res = mep_subspace_solve(gen_fourpoint_bvp(100), opts)
        assert len(res.registry) == 9
        assert not res.truncated


class TestConstructors:
    def test_linear_mep2_shape_check(self):
        with pytest.raises(ValueError):
            LinearMep2(np.eye(3), np.eye(3), np.eye(2),
                       np.eye(3), np.eye(3), np.eye(3))

    def test_linear_mep3_needs_three_factors(self):
        ops2 = [tuple(np.eye(2) for _ in range(4)) for _ in range(2)]
        with pytest.raises(ValueError):
            LinearMep3(ops2)

    def test_gen_random_mep_shapes(self):
        m = gen_random_mep((4, 5), seed=30)
        assert m.nparams == 2 and m.dims == (4, 5)
        m3 = gen_random_mep((2, 3, 4), seed=31)
        assert m3.nparams == 3 and m3.dims == (2, 3, 4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_generators_reject_empty_factors(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            gen_random_mep((n, 3))
        # N = 1 leaves no interior node
        for N in (n, n + 1):
            with pytest.raises(ValueError, match="at least 2"):
                gen_fourpoint_bvp(N)
