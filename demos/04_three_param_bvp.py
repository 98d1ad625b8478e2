"""Three-parameter boundary value problem on a split interval.

u'' + (lam + 2 mu cos t + 2 nu cos 2t) u = 0 on [0, 3] with u(0) = u(3) = 0,
continuity of u and u' at the interior points 1 and 2.  Discretizing each of
the three subintervals with Chebyshev collocation gives a three-parameter
eigenvalue problem; one factor per subinterval, the three spectral
parameters shared.

The decoupled solutions are sin(k pi t) with (lam, mu, nu) = ((k pi)^2, 0, 0)
and k-1 interior sign changes on every subinterval, which the oscillation
index recovers from the computed eigenvectors.
"""
import math

from eigensel.mep import (
    MepOptions,
    gen_fourpoint_bvp,
    mep_subspace_solve,
    oscillation_index,
)

N = 32                               # Chebyshev points per subinterval
mep = gen_fourpoint_bvp(N)
print(f"factor dimensions: {mep.dims}")

# maxdim drives the cost: each outer iteration extracts the projected
# tensor problem with a one-sided standard eigensolve of size maxdim^3
opts = MepOptions(target=(0.0, 0.0, 0.0), num_pairs=4, tol=1e-10,
                  mindim=3, maxdim=6, max_outer=200, seed=0)
res = mep_subspace_solve(mep, opts)
print(f"registered {len(res.registry)} triplets "
      f"in {res.outer_iterations} outer iterations\n")

print(f"{'lam':>16s} {'mu':>11s} {'nu':>11s}  oscillation  mode")
for t in sorted(res.registry, key=lambda t: t.values[0].real):
    lam, mu, nu = (v.real for v in t.values)
    osc = tuple(oscillation_index(x) for x in t.xs)
    if abs(mu) < 1e-6 and abs(nu) < 1e-6:
        # decoupled: u = sin(k pi t), lam = (k pi)^2
        k = max(1, round(math.sqrt(max(lam, 0.0)) / math.pi))
        mode = f"sin({k} pi t), |lam - (k pi)^2| = " \
               f"{abs(lam - (k * math.pi) ** 2):.1e}"
    else:
        mode = "coupled (cos terms active)"
    print(f"{lam:16.8f} {mu:11.2e} {nu:11.2e}  {str(osc):>11s}  {mode}")
