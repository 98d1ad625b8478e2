"""Subspace iteration against the dense linearization on a random quadratic.

Solves a dense random n=20 quadratic problem for the six eigenvalues nearest
the origin, then cross-checks every converged value and left/right pair
against the brute-force companion linearization.
"""
import numpy as np

from eigensel.jdsolver import JDOptions, jd_solve
from eigensel.oracle import oracle_all_eigenpairs
from eigensel.problems import gen_random_pep

prob = gen_random_pep(n=20, m=2, seed=7)

opts = JDOptions(target=0.0, num_pairs=6, tol=1e-9, mindim=10, maxdim=20,
                 max_outer=200, seed=7)
res = jd_solve(prob, opts)
print(f"converged {len(res.registry)} pairs "
      f"in {res.outer_iterations} outer iterations")

oracle = sorted(oracle_all_eigenpairs(prob), key=lambda o: abs(o.value))

print(f"{'jd value':>32s} {'oracle value':>32s} {'gap':>10s} {'residual':>10s}")
for t in sorted(res.registry, key=lambda t: abs(t.value)):
    best = min(oracle, key=lambda o: abs(o.value - t.value))
    gap = abs(best.value - t.value)
    print(f"{t.value:32.12g} {best.value:32.12g} {gap:10.2e} {t.residual:10.2e}")

# left vectors come out of the same run; check them against P(lam)^H
worst = 0.0
for t in res.registry:
    r = np.linalg.norm(prob.eval(t.value).conj().T @ t.left)
    worst = max(worst, r / prob.tolerance_scale(t.value))
print(f"worst relative left residual: {worst:.2e}")
