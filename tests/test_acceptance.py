"""Acceptance suite: one numbered end-to-end guarantee per test.

Every test asserts its stated tolerance and wall-clock budget and prints a
one-line summary with the measured numbers (visible under pytest -rA or on
failure).  Criterion 13 reuses the runs of criterion 5, so file order keeps
05 before 13.
"""
import itertools
import math
import time

import numpy as np

from eigensel import homogeneous as hom
from eigensel import mep as mepmod
from eigensel.jdsolver import JDOptions, jd_solve
from eigensel.oracle import dense_registry, oracle_all_eigenpairs
from eigensel.problems import (
    PolyProblem,
    gen_example_2x2,
    gen_gyroscopic,
    gen_random_pep,
    to_dense,
)
from eigensel.selection import CandidatePair, criterion_value, register


def norm2(M):
    return float(np.linalg.norm(to_dense(M), 2))


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
    return hom.ProjectivePoint(q[0], q[1])


def test_criterion_01_divided_difference_ratio():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = 2 + i % 7
        m = 1 + i % 4
        prob = gen_random_pep(n, m, seed=i)
        rng = np.random.default_rng(10_000 + i)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        theta = complex(rng.standard_normal(), rng.standard_normal())
        if abs(lam - theta) < 1e-2:
            theta += 1.0
        dd = to_dense(prob.divided_difference(lam, theta))
        diff = to_dense(prob.eval(lam)) - to_dense(prob.eval(theta))
        err = norm2(dd * (lam - theta) - diff)
        worst = max(worst, err / norm2(diff))
        assert err <= 1e-12 * norm2(diff)
    dt = time.perf_counter() - t0
    print(f"criterion 01: ratio defect {worst:.2e} <= 1e-12 over 100 "
          f"problems, {dt:.2f}s < 5s")
    assert dt < 5.0


def test_criterion_02_orthogonality_dichotomy():
    t0 = time.perf_counter()
    worst_cross = 0.0
    worst_self = math.inf
    checked = 0
    for seed in range(20):
        prob = gen_random_pep(8, 2, seed=seed)
        oracle = [o for o in oracle_all_eigenpairs(prob)
                  if o.ok and not math.isinf(abs(o.value))]
        for oi in oracle:
            dF = to_dense(prob.derivative(oi.value))
            s = abs(np.vdot(oi.y, dF @ oi.x))
            worst_self = min(worst_self, s / norm2(dF))
            assert s > 1e-8 * norm2(dF)
            for oj in oracle:
                if oi is oj or abs(oi.value - oj.value) <= 1e-3:
                    continue
                dd = to_dense(prob.divided_difference(oi.value, oj.value))
                c = abs(np.vdot(oi.y, dd @ oj.x))
                worst_cross = max(worst_cross, c / norm2(dd))
                checked += 1
                assert c <= 1e-8 * norm2(dd)
    dt = time.perf_counter() - t0
    assert checked > 1000
    print(f"criterion 02: cross max {worst_cross:.2e} <= 1e-8 "
          f"({checked} pairs), self min {worst_self:.2e} > 1e-8, "
          f"{dt:.2f}s < 10s")
    assert dt < 10.0


def test_criterion_03_near_eigenpair_slope():
    t0 = time.perf_counter()
    slopes = []
    for seed in range(5):
        prob = gen_random_pep(6, 2, seed=seed)
        pairs = [o for o in oracle_all_eigenpairs(prob) if o.ok]
        scored = sorted(
            pairs,
            key=lambda o: -abs(np.vdot(o.y, prob.derivative(o.value) @ o.x)),
        )
        anchor, other = scored[0], scored[1]
        registry = []
        register(prob, registry, anchor.value, anchor.x, anchor.y)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w /= np.linalg.norm(w)
        phi = np.exp(0.4j)
        epss = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        vals = [
            criterion_value(prob, registry,
                            CandidatePair(other.value + eps * phi,
                                          other.x + eps * w))
            for eps in epss
        ]
        slope = float(np.polyfit(np.log(epss), np.log(vals), 1)[0])
        slopes.append(slope)
        assert abs(slope - 1.0) <= 0.1
    dt = time.perf_counter() - t0
    print(f"criterion 03: slopes {[f'{s:.3f}' for s in slopes]} within "
          f"1 +- 0.1, {dt:.2f}s < 5s")
    assert dt < 5.0


def test_criterion_04_diagonal_qep_exact_set():
    t0 = time.perf_counter()
    prob = PolyProblem([np.diag([2.0, 12.0]), np.diag([-3.0, -7.0]),
                        np.eye(2)])
    opts = JDOptions(target=0.0, num_pairs=4, tol=1e-10, mindim=1, maxdim=2,
                     max_outer=60, seed=0)
    res = jd_solve(prob, opts)
    got = sorted(t.value.real for t in res.registry)
    errs = [abs(t.value - round(t.value.real)) for t in res.registry]
    dt = time.perf_counter() - t0
    assert len(res.registry) == 4
    np.testing.assert_allclose(got, [1.0, 2.0, 3.0, 4.0], atol=1e-8)
    for a, b in itertools.combinations([t.value for t in res.registry], 2):
        assert abs(a - b) > 1e-6
    print(f"criterion 04: {{1,2,3,4}} recovered, max error "
          f"{max(errs):.2e} <= 1e-8, no duplicates (shared-eigenvector "
          f"pair included), {dt:.2f}s < 1s")
    assert dt < 1.0


_C5_CACHE = {}


def _random_qep_runs():
    """Criterion-5 solves, shared with criterion 13."""
    if _C5_CACHE:
        return _C5_CACHE
    t0 = time.perf_counter()
    runs = []
    for seed in range(5):
        prob = gen_random_pep(20, 2, seed=seed)
        opts = JDOptions(target=0.0, num_pairs=6, tol=1e-9, mindim=10,
                         maxdim=20, max_outer=200, seed=seed)
        res = jd_solve(prob, opts)
        oracle = [o for o in oracle_all_eigenpairs(prob)
                  if not math.isinf(abs(o.value))]
        runs.append((prob, res, oracle))
    _C5_CACHE["runs"] = runs
    _C5_CACHE["elapsed"] = time.perf_counter() - t0
    return _C5_CACHE


def test_criterion_05_random_qep_nearest_six():
    cache = _random_qep_runs()
    worst = 0.0
    for prob, res, oracle in cache["runs"]:
        assert len(res.registry) == 6
        nearest = set(np.argsort([abs(o.value) for o in oracle])[:6])
        matched = set()
        for t in res.registry:
            dists = [abs(t.value - o.value) for o in oracle]
            j = int(np.argmin(dists))
            worst = max(worst, dists[j])
            assert dists[j] <= 1e-6
            assert j in nearest
            assert j not in matched
            matched.add(j)
        assert matched == nearest
    dt = cache["elapsed"]
    print(f"criterion 05: 5 seeds, returned sets = nearest-6 oracle values, "
          f"max |theta - lam| {worst:.2e} <= 1e-6, zero duplicates, "
          f"{dt:.1f}s < 30s")
    assert dt < 30.0


def test_criterion_06_gyroscopic_homogeneous():
    t0 = time.perf_counter()
    prob = gen_gyroscopic(200, seed=0)
    opts = JDOptions(target=80j, num_pairs=8, tol=1e-4, mindim=10, maxdim=20,
                     max_outer=800, mode="homogeneous", seed=0)
    res = jd_solve(prob, opts)
    oracle = oracle_all_eigenpairs(prob)
    assert len(oracle) == 400
    assert len(res.registry) >= 6
    matched = set()
    worst = 0.0
    for t in res.registry:
        assert t.residual <= 1e-4
        dists = [hom.chordal_distance(t.point, o.point) for o in oracle]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        assert dists[j] <= 1e-4
        assert j not in matched
        matched.add(j)
    dt = time.perf_counter() - t0
    print(f"criterion 06: {len(res.registry)} distinct eigenvalues near 80i, "
          f"residuals <= 1e-4, max chordal gap {worst:.2e} <= 1e-4 vs "
          f"400-dim oracle, {dt:.1f}s < 120s")
    assert dt < 120.0


def test_criterion_07_homogeneous_continuity():
    t0 = time.perf_counter()
    bases = [hom.from_scalar(0.7 - 0.2j), hom.from_scalar(3.0 + 1.0j),
             hom.ProjectivePoint(1.0, 0.0)]
    ratios = []
    for seed in range(3):
        prob = gen_random_pep(6, 2, seed=seed)
        for base in bases:
            a = hom.scale_canonical(base)
            ts = [1e-2 / 2**k for k in range(11)]  # 1e-2 down past 1e-5
            errs = [
                norm2(hom.hom_divided_difference(prob, a, approach(a, t))
                      - hom.hom_D(prob, a))
                for t in ts
            ]
            for e0, e1 in zip(errs, errs[1:]):
                ratios.append(e0 / e1)
                assert 1.5 <= e0 / e1 <= 2.5
    dt = time.perf_counter() - t0
    print(f"criterion 07: halving ratios in [{min(ratios):.2f}, "
          f"{max(ratios):.2f}] (2 +- 25%), bases include (1,0), "
          f"{dt:.2f}s < 5s")
    assert dt < 5.0


def test_criterion_08_derivative_scaling_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        m = 2 + i % 3
        n = 3 + i % 5
        prob = gen_random_pep(n, m, seed=3000 + i)
        rng = np.random.default_rng(4000 + i)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        # make (lam, x) an exact eigenpair by a rank-one shift of the
        # constant coefficient; the identity under test holds on eigenpairs
        r = prob.matvec(lam, x)
        coeffs = [prob.coeffs[0] - np.outer(r, x.conj())] + \
            list(prob.coeffs[1:])
        prob = PolyProblem(coeffs)
        p = hom.from_scalar(lam)
        dx = prob.derivative(lam) @ x
        hx = (1.0 + abs(lam) ** 2) ** ((m - 2) / 2.0) * (hom.hom_D(prob, p) @ x)
        err = np.linalg.norm(dx - hx) / np.linalg.norm(dx)
        worst = max(worst, err)
        assert err <= 1e-12
    dt = time.perf_counter() - t0
    print(f"criterion 08: scaling identity defect {worst:.2e} <= 1e-12 over "
          f"100 implanted eigenpairs, m in {{2,3,4}}, {dt:.2f}s < 5s")
    assert dt < 5.0


def test_criterion_09_mediator_split():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(5000)
    for i in range(100):
        prob = gen_random_pep(3 + i % 6, 2, seed=6000 + i)
        p = hom.ProjectivePoint(complex(*rng.standard_normal(2)),
                                complex(*rng.standard_normal(2)))
        q = hom.ProjectivePoint(complex(*rng.standard_normal(2)),
                                complex(*rng.standard_normal(2)))
        D = to_dense(hom.hom_eval(prob, p)) - to_dense(hom.hom_eval(prob, q))
        c1, c2 = hom.mediator_decompose(p, q)
        D1, D2 = hom.mediator_matrices(prob, p, q)
        err = norm2(D - c1 * D1 - c2 * D2) / norm2(D)
        worst = max(worst, err)
        assert err <= 1e-12
    dt = time.perf_counter() - t0
    print(f"criterion 09: mediator split defect {worst:.2e} <= 1e-12 over "
          f"100 combinations, {dt:.2f}s < 5s")
    assert dt < 5.0


def test_criterion_10_mep_orthogonality_criterion():
    t0 = time.perf_counter()
    worst_cross = 0.0
    worst_self = 0.0
    for seed in range(5):
        m = mepmod.gen_random_mep((3, 3), seed=seed)
        reg = dense_registry(m, 2)
        assert len(reg) == 9
        for i, ti in enumerate(reg):
            for j, tj in enumerate(reg):
                val = mepmod.mep_criterion(m, [ti], tj.xs)
                if i == j:
                    worst_self = max(worst_self, abs(val - 1.0))
                    assert abs(val - 1.0) <= 1e-10
                else:
                    worst_cross = max(worst_cross, val)
                    assert val <= 1e-8
    dt = time.perf_counter() - t0
    print(f"criterion 10: 5 problems x 9 triplets, cross max "
          f"{worst_cross:.2e} <= 1e-8, self defect {worst_self:.2e} <= "
          f"1e-10, {dt:.2f}s < 10s")
    assert dt < 10.0


def test_criterion_11_three_param_dichotomy():
    t0 = time.perf_counter()
    worst_cross = 0.0
    worst_self = math.inf
    for k, dims in enumerate(itertools.product((2, 3), repeat=3)):
        m = mepmod.gen_random_mep(dims, seed=100 + k)
        reg = dense_registry(m, 3)
        assert len(reg) == dims[0] * dims[1] * dims[2]
        scale = mepmod.jacobian_scale(m)
        for i, ti in enumerate(reg):
            for j, tj in enumerate(reg):
                val = abs(mepmod.dd_sandwich(m, ti.values, tj.values,
                                             ti.ys, tj.xs))
                if i == j:
                    worst_self = min(worst_self, val / scale)
                    assert val >= 1e-8 * scale
                else:
                    worst_cross = max(worst_cross, val / scale)
                    assert val <= 1e-8 * scale
    dt = time.perf_counter() - t0
    print(f"criterion 11: 8 dim combos in {{2,3}}^3, cross max "
          f"{worst_cross:.2e} <= 1e-8 of scale, self min {worst_self:.2e} "
          f">= 1e-8 of scale, {dt:.1f}s < 30s")
    assert dt < 30.0


def test_criterion_12_fourpoint_bvp_table():
    t0 = time.perf_counter()
    m = mepmod.gen_fourpoint_bvp(100)
    opts = mepmod.MepOptions(target=(0.0, 0.0, 0.0), num_pairs=9, tol=1e-10,
                             mindim=4, maxdim=8, max_outer=300, seed=0)
    res = mepmod.mep_subspace_solve(m, opts)
    assert len(res.registry) == 9

    def closest(lam_ref):
        return min(res.registry, key=lambda t: abs(t.values[0] - lam_ref))

    pi2 = math.pi ** 2
    first = closest(pi2)
    err1 = abs(first.values[0] - pi2)
    assert err1 <= 1e-6 * pi2
    assert abs(first.values[1]) <= 1e-6 and abs(first.values[2]) <= 1e-6
    osc1 = tuple(mepmod.oscillation_index(x) for x in first.xs)
    assert osc1 == (0, 0, 0)

    second = closest(4.0 * pi2)
    err2 = abs(second.values[0] - 4.0 * pi2)
    assert err2 <= 1e-6 * 4.0 * pi2
    assert abs(second.values[1]) <= 1e-6 and abs(second.values[2]) <= 1e-6
    osc2 = tuple(mepmod.oscillation_index(x) for x in second.xs)
    assert osc2 == (1, 1, 1)
    dt = time.perf_counter() - t0
    print(f"criterion 12: N=100 collocation, 9 triplets; "
          f"lam={first.values[0].real:.8f} (pi^2 defect {err1:.2e}), osc "
          f"{osc1}; lam={second.values[0].real:.8f} (4pi^2 defect "
          f"{err2:.2e}), osc {osc2}; {dt:.0f}s < 300s")
    assert dt < 300.0


def test_criterion_13_left_vectors():
    cache = _random_qep_runs()
    worst = 0.0
    count = 0
    for prob, res, _ in cache["runs"]:
        for t in res.registry:
            rel = np.linalg.norm(prob.eval(t.value).conj().T @ t.left) \
                / prob.tolerance_scale(t.value)
            worst = max(worst, rel)
            count += 1
            assert rel <= 1e-8
    print(f"criterion 13: {count} left vectors, max adjoint residual "
          f"{worst:.2e} <= 1e-8 of the coefficient scale (runs shared with "
          f"criterion 05)")


def test_criterion_14_example_discrimination():
    t0 = time.perf_counter()
    delta, eps = 1e-6, 1e-3
    prob = gen_example_2x2(delta, eps)
    y = np.array([delta, -eps], dtype=complex)
    registry = []
    register(prob, registry, 0.0, np.array([1.0, 0.0]), y)
    same = criterion_value(prob, registry,
                           CandidatePair(0.0, np.array([1.0, 0.0])))
    new = criterion_value(prob, registry,
                          CandidatePair(delta, np.array([eps, delta])))
    dt = time.perf_counter() - t0
    assert abs(same - 1.0) <= 1e-10
    assert abs(new) <= 1e-10
    print(f"criterion 14: registered eigenvector scores {same:.12f} (= 1), "
          f"nearby new eigenvector scores {new:.2e} (= 0), {dt:.3f}s < 1s")
    assert dt < 1.0
