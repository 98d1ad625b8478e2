"""Multiparameter problems: Delta operators, divided differences, solver.

Hand-built Kronecker formulas are the reference for the operator
determinants, the raw difference quotient for the divided-difference
blocks, and the dense Delta-pencil solve for every subspace run.
"""
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from eigensel import mep as mepmod
from eigensel.mep import _values_dist as dist
from eigensel.mep import (
    DefectiveEigenvalueError,
    LinearMep2,
    LinearMep3,
    MepOptions,
    cheb,
    criterion_threshold,
    dd_operator,
    dd_sandwich,
    delta_operators,
    dense_solve,
    dense_solve_2p,
    dense_solve_3p,
    fourpoint_grid,
    gen_fourpoint_bvp,
    gen_random_mep,
    mep_criterion,
    mep_passes,
    mep_register,
    mep_subspace_solve,
    oscillation_index,
    tensor_rayleigh,
    to_dense_matvec,
)


def linear_callbacks(mep, i):
    """(eval, partial) closures for factor i of a linear problem."""
    A = mep.a_mat(i)
    Ps = list(mep.param_mats(i))

    def ev(values):
        out = A.astype(complex).copy()
        for val, P in zip(values, Ps):
            out = out - complex(val) * P
        return out

    def pa(j, values=None):
        return -Ps[j]

    return ev, pa


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
        reg = dense_solve_3p(m)
        assert len(reg) == 8
        for t in reg:
            assert len(t.values) == 3
            assert abs(t.denom) > 0

    def test_parameter_count_guards(self):
        m2 = gen_random_mep((3, 3), seed=5)
        m3 = gen_random_mep((2, 2, 2), seed=6)
        with pytest.raises(ValueError):
            dense_solve_2p(m3)
        with pytest.raises(ValueError):
            dense_solve_3p(m2)

    def test_values_satisfy_factor_problems(self):
        m = gen_random_mep((3, 4), seed=7)
        for t in dense_solve_2p(m)[:4]:
            for i in range(2):
                r = to_dense_matvec(m, i, t.values, t.xs[i])
                assert np.linalg.norm(r) <= 1e-8 * m.tolerance_scale(i, t.values)


class TestDividedDifferenceOperator:
    def test_linear_two_param_equals_delta0(self):
        # constant blocks -P_ij: the operator determinant is exactly Delta_0
        m = gen_random_mep((3, 4), seed=8)
        op = dd_operator([linear_callbacks(m, 0), linear_callbacks(m, 1)],
                         (0.3 + 1.0j, -0.2), (1.1, 0.7 - 0.5j))
        np.testing.assert_allclose(op.dense(), delta_operators(m)[0],
                                   rtol=1e-12, atol=1e-12)

    def test_linear_three_param_equals_minus_delta0(self):
        # one more factor flips the sign: (-1)^3 det[[P_ij]]
        m = gen_random_mep((2, 3, 2), seed=9)
        cbs = [linear_callbacks(m, i) for i in range(3)]
        op = dd_operator(cbs, (0.1, 0.2, 0.3), (1.0, -1.0, 0.5))
        np.testing.assert_allclose(op.dense(), -delta_operators(m)[0],
                                   rtol=1e-12, atol=1e-12)

    def test_quadratic_dependence_closed_form(self):
        # T(lam, mu) = A - lam B - mu C - lam^2 E: the lambda column of the
        # divided difference must be -B - (lam1 + lam2) E
        rng = np.random.default_rng(10)
        A, B, C, E = (rng.standard_normal((3, 3)) for _ in range(4))

        def ev(v):
            return A - v[0] * B - v[1] * C - v[0] ** 2 * E

        def pa(j, v):
            return -B - 2 * v[0] * E if j == 0 else -C

        other = gen_random_mep((3, 3), seed=11)
        p, q = (0.4, -0.7), (1.3, 0.9)
        op = dd_operator([(ev, pa), linear_callbacks(other, 0)], p, q)
        want = -B - (p[0] + q[0]) * E
        np.testing.assert_allclose(op.blocks[0][0], want, rtol=1e-12,
                                   atol=1e-12)
        # and against the raw difference quotient
        quot = (ev((q[0], p[1])) - ev((p[0], p[1]))) / (q[0] - p[0])
        np.testing.assert_allclose(op.blocks[0][0], quot, rtol=1e-10,
                                   atol=1e-10)

    def test_telescoping_reproduces_endpoint_difference(self):
        # sum_j (q_j - p_j) * block(i, j) = T_i(q) - T_i(p)
        rng = np.random.default_rng(12)
        A, B, C, E = (rng.standard_normal((3, 3)) for _ in range(4))

        def ev(v):
            return A - v[0] * B - v[1] * C - v[0] * v[1] * E

        def pa(j, v):
            return -B - v[1] * E if j == 0 else -C - v[0] * E

        other = gen_random_mep((3, 3), seed=13)
        p, q = (0.2 + 0.3j, -1.0), (0.8, 0.5 - 0.2j)
        op = dd_operator([(ev, pa), linear_callbacks(other, 0)], p, q)
        got = sum((q[j] - p[j]) * op.blocks[0][j] for j in range(2))
        np.testing.assert_allclose(got, ev(q) - ev(p), rtol=1e-12, atol=1e-12)

    def test_coincident_coordinate_takes_partial(self):
        rng = np.random.default_rng(14)
        A, B, C, E = (rng.standard_normal((3, 3)) for _ in range(4))

        def ev(v):
            return A - v[0] * B - v[1] * C - v[0] ** 2 * E

        def pa(j, v):
            return -B - 2 * v[0] * E if j == 0 else -C

        other = gen_random_mep((3, 3), seed=15)
        lam = 0.6
        op = dd_operator([(ev, pa), linear_callbacks(other, 0)],
                         (lam, -0.7), (lam, 0.9))
        np.testing.assert_allclose(op.blocks[0][0], pa(0, (lam, 0.0)),
                                   atol=1e-12)

    def test_factored_matvec_matches_dense(self):
        m = gen_random_mep((3, 4), seed=16)
        op = dd_operator([linear_callbacks(m, 0), linear_callbacks(m, 1)],
                         (0.1, 0.2), (0.9, -0.5))
        rng = np.random.default_rng(17)
        z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        np.testing.assert_allclose(op.matvec(z), op.dense() @ z, rtol=1e-12,
                                   atol=1e-12)


class TestSandwichAndCriterion:
    def test_cross_annihilation_and_self_jacobian(self):
        m = gen_random_mep((3, 3), seed=18)
        reg = dense_solve_2p(m)
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
        reg = dense_solve_2p(m)
        for i, t in enumerate(reg):
            np.testing.assert_allclose(mep_criterion(m, [t], t.xs), 1.0,
                                       atol=1e-10)
            others = [u for j, u in enumerate(reg) if j != i]
            assert mep_criterion(m, others, t.xs) <= 1e-8
        assert mep_criterion(m, [], reg[0].xs) == 0.0

    def test_strict_variant_and_thresholds(self):
        m = gen_random_mep((3, 3), seed=20)
        reg = dense_solve_2p(m)
        t = reg[0]
        # strict folds the half-minimum into the value: self scores 2
        v = mep_criterion(m, [t], t.xs, variant="strict")
        np.testing.assert_allclose(v, 2.0, atol=1e-9)
        assert criterion_threshold(0.1, "new") == 0.1
        assert criterion_threshold(0.1, "strict") == 1.0
        assert not mep_passes(m, [t], t.xs, eta_sel=0.1)
        assert not mep_passes(m, [t], t.xs, variant="strict")
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

    def test_tensor_rayleigh_exact_on_eigenvectors(self):
        m = gen_random_mep((3, 4), seed=23)
        for t in dense_solve_2p(m)[:4]:
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
        with pytest.raises(ValueError):
            MepOptions(target=(0, 0), mindim=3, maxdim=5,
                       criterion="old").validate(m)
        MepOptions(target=(0, 0), mindim=3, maxdim=5).validate(m)

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
        oracle = [t.values for t in dense_solve_2p(m)]
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
        oracle = [t.values for t in dense_solve_2p(m)]
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
        d = res.registry[0].to_dict()
        assert set(d) == {"values", "xs", "ys", "denom", "residual",
                          "found_iteration"}
        assert len(d["values"]) == 2 and len(d["values"][0]) == 2

    def test_convergence_records_form_a_history(self):
        m = gen_random_mep((8, 7), seed=2)
        res = mep_subspace_solve(m, MepOptions(
            target=(0.0, 0.0), num_pairs=3, tol=1e-9, mindim=3, maxdim=6,
            max_outer=120))
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

        def projected_candidates(small):
            scored.append(set())
            cands[:] = real_candidates(small)
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
            assert (r.values, r.criterion) in scored[r.iteration - 1]


class TestNoPassFallback:
    """With no candidate passing, the first pick and the pick made again
    after a rejection both take the nearest candidate, index 0."""

    def test_nearest_candidate_taken(self, monkeypatch):
        target = (0.0, 0.0)
        state = {"cands": [], "blocked": [], "crits": []}
        picks = []  # (picked tuple, unblocked tuples, their criteria)

        def projected_candidates(small):
            state["cands"] = sorted(real_candidates(small),
                                    key=lambda c: dist(c.values, target))
            return list(state["cands"])

        def mep_blocked(values, blocked, tol):
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
        real_blocked = mepmod._mep_blocked
        real_matvec = mepmod.to_dense_matvec
        monkeypatch.setattr(mepmod, "_projected_candidates",
                            projected_candidates)
        monkeypatch.setattr(mepmod, "_mep_blocked", mep_blocked)
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
        cands = mepmod._projected_candidates(m)
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
        rank1 = mepmod._rank1_factors

        def counting(z, dims):
            calls.append(dims)
            return rank1(z, dims)

        monkeypatch.setattr(mepmod, "_rank1_factors", counting)
        cands = mepmod._projected_candidates(gen_random_mep((3, 4), seed=42))
        assert calls == []
        first = cands[0].xs
        assert cands[0].xs is first
        assert calls == [(3, 4)]

    def test_singular_delta0_gives_no_candidates(self):
        # B_i = C_i in both factors makes Delta_0 = B1 (x) B2 - B1 (x) B2
        # vanish exactly, on the full space and on every projection
        rng = np.random.default_rng(43)
        A1, B1, A2, B2 = (rng.standard_normal((4, 4)) for _ in range(4))
        m = LinearMep2(A1, B1, B1, A2, B2, B2)
        with pytest.raises(np.linalg.LinAlgError):
            mepmod._projected_candidates(m)
        opts = MepOptions(target=(0.0, 0.0), num_pairs=1, mindim=2, maxdim=3,
                          max_outer=5, seed=0)
        res = mep_subspace_solve(m, opts)
        assert res.truncated and res.outer_iterations == 5
        assert res.registry == []
        assert [r.event for r in res.records] == ["no_candidates"] * 5

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
        eig_dtypes, spaces = [], []
        eig = np.linalg.eig

        def spy_eig(a):
            eig_dtypes.append(np.asarray(a).dtype)
            return eig(a)

        class SpySpace(mepmod.SearchSpace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spaces.append(self)

        monkeypatch.setattr(np.linalg, "eig", spy_eig)
        monkeypatch.setattr(mepmod, "SearchSpace", SpySpace)
        res = mep_subspace_solve(m, opts)
        buffers = {a.dtype for s in spaces for a in [s.V] + s.W + s.H}
        return res, set(eig_dtypes), buffers

    def test_dtype_follows_the_input(self, monkeypatch):
        bvp = gen_fourpoint_bvp(12)
        assert bvp.dtype == np.float64
        res, eigs, buffers = self._spied_solve(
            monkeypatch, bvp,
            MepOptions(target=(0.0, 0.0, 0.0), num_pairs=3, tol=1e-10,
                       mindim=3, maxdim=5, max_outer=80, seed=0))
        assert len(res.registry) == 3
        assert eigs == buffers == {np.dtype(np.float64)}

        rand = gen_random_mep((5, 6), seed=0)
        assert rand.dtype == np.complex128
        res, eigs, buffers = self._spied_solve(
            monkeypatch, rand,
            MepOptions(target=(0.0, 0.0), num_pairs=2, tol=1e-9, mindim=3,
                       maxdim=5, max_outer=80, seed=0))
        assert eigs == buffers == {np.dtype(np.complex128)}

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

    def test_fourpoint_grid_interior_and_ordered(self):
        grids = fourpoint_grid(10)
        for i, g in enumerate(grids):
            assert np.all(np.diff(g) > 0)
            assert g[0] > i and g[-1] < i + 1

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
