"""Batch front end: generate problems, run solvers, verify, report.

Subcommands:

    generate   write a problem (Matrix Market + JSON manifest) to a directory
    solve      run the matching solver, write registry JSON, convergence CSV,
               and a human-readable table
    verify     recompute residuals and match each result to an eigenvalue:
               for PEPs the one nearest it, by inverse iteration through
               one LU at the result; for MEPs the nearest of the dense
               oracle mep.dense_solve
    report     pretty-print a results file (plus CSV event summary)

Exit codes: 0 success, 2 usage error (argparse), 3 solver truncated before
the requested number of pairs, 4 verification failure, 5 I/O or format
error.  EIGENSEL_ORACLE_CAP bounds the dense-oracle dimension of a MEP
verify, which prints SKIPPED past it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

import numpy as np

from . import homogeneous as hom
from . import jdsolver, linsolve, mmio, problems
from . import mep as mepmod

__all__ = ["main", "build_parser", "cmd_generate", "cmd_solve",
           "cmd_verify", "cmd_report"]

EXIT_OK = 0
EXIT_TRUNCATED = 3
EXIT_VERIFY = 4
EXIT_IO = 5


def build_parser():
    p = argparse.ArgumentParser(
        prog="eigensel",
        description="Eigenvalue computation with selection against "
                    "re-convergence (batch front end).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a problem to a directory")
    g.add_argument("kind", choices=["gyroscopic", "random_pep", "example2x2",
                                    "fourpoint"])
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--n", type=int, default=100,
                   help="matrix size (gyroscopic, random_pep)")
    g.add_argument("--degree", type=int, default=2,
                   help="polynomial degree (random_pep)")
    g.add_argument("--symmetric", action="store_true",
                   help="symmetrize coefficients (random_pep)")
    g.add_argument("--delta", type=float, default=1e-6,
                   help="small eigenvalue (example2x2)")
    g.add_argument("--eps", type=float, default=1e-3,
                   help="off-diagonal entry (example2x2)")
    g.add_argument("--grid", type=int, default=100,
                   help="Chebyshev points per interval (fourpoint)")
    g.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("solve", help="run the solver on a manifest")
    s.add_argument("--problem", required=True,
                   help="problem directory or manifest.json path")
    s.add_argument("--target", nargs=2, type=float, default=[0.0, 0.0],
                   metavar=("RE", "IM"),
                   help="target eigenvalue (first parameter for MEPs)")
    s.add_argument("--target-mu", nargs=2, type=float, default=[0.0, 0.0],
                   metavar=("RE", "IM"), help="second-parameter target (MEP)")
    s.add_argument("--target-nu", nargs=2, type=float, default=[0.0, 0.0],
                   metavar=("RE", "IM"), help="third-parameter target (MEP)")
    s.add_argument("--num-pairs", type=int, default=1)
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--mindim", type=int, default=10)
    s.add_argument("--maxdim", type=int, default=20)
    s.add_argument("--max-outer", type=int, default=200)
    s.add_argument("--inner-steps", type=int, default=10)
    s.add_argument("--eta", type=float, default=0.1)
    s.add_argument("--mode", choices=["standard", "homogeneous"],
                   default="standard")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output directory")

    v = sub.add_parser("verify", help="check residuals and match each result "
                                      "to its nearest eigenvalue")
    v.add_argument("--problem", required=True,
                   help="problem directory or manifest.json path")
    v.add_argument("--results", required=True, help="results JSON from solve")
    v.add_argument("--rtol", type=float, default=1e-6,
                   help="allowed mismatch vs the nearest eigenvalue")

    r = sub.add_parser("report", help="pretty-print a results file")
    r.add_argument("--results", required=True)
    r.add_argument("--csv", default=None, help="convergence CSV to summarize")
    return p


def cmd_generate(args):
    if args.kind == "gyroscopic":
        prob = problems.gen_gyroscopic(args.n, seed=args.seed)
        path = mmio.save_pep(args.out, prob, "gyroscopic",
                             {"n": args.n, "seed": args.seed})
    elif args.kind == "random_pep":
        prob = problems.gen_random_pep(args.n, args.degree, seed=args.seed,
                                       symmetric=args.symmetric)
        path = mmio.save_pep(args.out, prob, "random_pep",
                             {"n": args.n, "degree": args.degree,
                              "seed": args.seed,
                              "symmetric": bool(args.symmetric)})
    elif args.kind == "example2x2":
        prob = problems.gen_example_2x2(args.delta, args.eps)
        path = mmio.save_pep(args.out, prob, "example2x2",
                             {"delta": args.delta, "eps": args.eps})
    else:
        m = mepmod.gen_fourpoint_bvp(args.grid)
        path = mmio.save_mep(args.out, m, "fourpoint", {"N": args.grid})
    print(f"wrote {path}")
    return EXIT_OK


def _options(cls, args, **kwargs):
    """JDOptions or MepOptions from the solve arguments they share."""
    return cls(num_pairs=args.num_pairs, tol=args.tol, mindim=args.mindim,
               maxdim=args.maxdim, max_outer=args.max_outer,
               inner_steps=args.inner_steps, eta=args.eta, seed=args.seed,
               **kwargs)


def _blocked_value(value):
    """A blocked value as the registry records values: complex scalars."""
    if isinstance(value, tuple):
        return tuple(map(complex, value))
    return complex(value.to_scalar() if isinstance(value, hom.ProjectivePoint)
                   else value)


def _finish_solve(args, manifest, opts, res, settings, problem, pairs,
                  nparams):
    """Write results.json, convergence.csv and table.txt for a solver run,
    print the table and return the exit code."""
    payload = {
        "problem": {"manifest": os.path.abspath(args.problem),
                    "kind": manifest.get("kind"), **problem},
        "config": mmio.to_json(opts),
        "pairs": pairs,
        "blocked": mmio.to_json([_blocked_value(b) for b in res.blocked]),
        "outer_iterations": res.outer_iterations,
        "truncated": bool(res.truncated),
    }
    mmio.write_json(os.path.join(args.out, "results.json"), payload)
    mmio.write_convergence_csv(os.path.join(args.out, "convergence.csv"),
                               res.records, nparams=nparams)
    table = mmio.format_table(pairs, nparams=nparams)
    body = (f"kind={manifest.get('kind')} {settings} "
            f"pairs={len(res.registry)}/{opts.num_pairs}\n{table}\n")
    with open(os.path.join(args.out, "table.txt"), "w") as f:
        f.write(body)
    print(body, end="")
    short = len(res.registry) < opts.num_pairs
    return EXIT_TRUNCATED if (res.truncated or short) else EXIT_OK


def _solve_pep(prob, args, manifest):
    opts = _options(jdsolver.JDOptions, args, target=complex(*args.target),
                    mode=args.mode)
    res = jdsolver.jd_solve(prob, opts)
    return _finish_solve(
        args, manifest, opts, res,
        settings=f"eta={opts.eta} mode={opts.mode} target={opts.target}",
        problem={"problem_type": "pep"},
        pairs=mmio.to_json(res.registry),
        nparams=1,
    )


def _solve_mep(m, args, manifest):
    targets = [complex(*args.target), complex(*args.target_mu),
               complex(*args.target_nu)][: m.nparams]
    opts = _options(mepmod.MepOptions, args, target=tuple(targets))
    res = mepmod.mep_subspace_solve(m, opts)
    pairs = mmio.to_json(res.registry)
    for d, t in zip(pairs, res.registry):
        d["oscillation"] = [mepmod.oscillation_index(x) for x in t.xs]
    return _finish_solve(
        args, manifest, opts, res,
        settings=f"eta={opts.eta} target={opts.target}",
        problem={"problem_type": "mep", "nparams": m.nparams},
        pairs=pairs,
        nparams=m.nparams,
    )


def cmd_solve(args):
    ptype, prob = mmio.load_problem(args.problem)
    manifest = mmio.load_manifest(args.problem)
    os.makedirs(args.out, exist_ok=True)
    if ptype == "pep":
        return _solve_pep(prob, args, manifest)
    if args.mode != "standard":
        print("note: --mode applies to one-parameter problems only; "
              "ignored here")
    return _solve_mep(prob, args, manifest)


def _result_point(d):
    if "point" in d:
        return hom.scale_canonical(mmio.from_json(d["point"]))
    return hom.from_scalar(mmio.from_json(d["value"]))


def _relres(r, scale, x):
    """Residual norm relative to the problem scale and to the vector norm."""
    nx = float(np.linalg.norm(x))
    return float(np.linalg.norm(r)) / (scale * nx) if nx else math.inf


def _verdict(rows, results, rtol):
    """Report lines and verdict from one (label, j, mismatch, residual) row
    per returned pair, j being the index of the eigenvalue it matched."""
    run_tol = float(results.get("config", {}).get("tol", rtol))
    lines = [f"pair {k}: {label} -> oracle {j} "
             f"mismatch {mismatch:.3e} residual {rel:.3e}"
             for k, (label, j, mismatch, rel) in enumerate(rows)]
    matched = Counter(row[1] for row in rows)
    duplicates = sorted(j for j, count in matched.items() if count > 1)
    if duplicates:
        lines.append(f"DUPLICATES: oracle indices {duplicates} matched by "
                     f"multiple returned pairs")
    else:
        lines.append("duplicates: none")
    # np.max, unlike max, keeps a NaN, so a NaN figure fails the run
    max_mismatch = np.max([0.0] + [row[2] for row in rows])
    max_residual = np.max([0.0] + [row[3] for row in rows])
    allowed = max(run_tol, rtol)
    lines.append(f"max mismatch {max_mismatch:.3e} (allowed {rtol:.1e}); "
                 f"max residual {max_residual:.3e} "
                 f"(allowed {allowed:.1e})")
    ok = not duplicates and max_mismatch <= rtol and max_residual <= allowed
    return ok, lines


# Solves of verify's local check per returned pair, and the chordal distance
# within which two eigenvalue estimates agree to rounding: two successive
# estimates have settled, or two returned pairs found the same eigenvalue.
# Two Ritz values within its square root are split rounding of a defective
# eigenvalue, which a perturbation of size eps moves by about sqrt(eps).
_LOCAL_SOLVES = 10
_ROUNDING = 1e-12


def _local_eigenvalue(problem, point):
    """The eigenvalue of a PEP nearest a projective point, or None.

    Inverse iteration with the shift-and-invert operator of the companion
    pencil (X, Y) (jdsolver._linearize) at sigma = (a, b):
    T = (b X - a Y)^{-1} (d X - c Y) with (c, d) = (-conj(b), conj(a)).
    An eigenvalue (alpha, beta) of the pencil is the eigenvalue
    mu = (d alpha - c beta) / (b alpha - a beta) of T, of modulus the
    cotangent of its chordal distance to sigma, so the nearest one dominates
    (Tisseur & Meerbergen, SIAM Review 43, 2001).  Since a d - b c = 1,
    T = (d I + (b X - a Y)^{-1} Y) / b, and b X - a Y is solved by block
    elimination through one LU of P(a, b).  With |a| > |b| the iteration
    runs on the reversed polynomial at (b, a), whose evaluation there is the
    same matrix, so that b is never small.

    Starts from a seeded random vector and returns the canonical point once
    two successive estimates lie within _ROUNDING chordal distance.  Next
    to a defective eigenvalue the estimates converge only as 1/k, and the
    last two iterates span its Jordan chain; so if none settle within
    _LOCAL_SOLVES solves, one Rayleigh-Ritz step of T on the span of the
    last two iterates (two more solves) gives two Ritz values.  Within
    sqrt(_ROUNDING) chordal of each other they are that eigenvalue, and the
    one of largest |mu| is returned; otherwise None.  An exactly singular
    P(a, b) makes sigma an eigenvalue, which is returned as it is:
    iterating on the regularized factor would split a defective eigenvalue,
    such as the infinite one of gen_gyroscopic, into two of equal distance.
    """
    s = hom.scale_canonical(point)
    coeffs, (a, b) = problem.coeffs, (s.alpha, s.beta)
    Z = hom.hom_eval(problem, s)
    solve, singular = linsolve._direct_solver(Z)
    if singular:
        return s
    swap = abs(a) > abs(b)
    if swap:
        coeffs, (a, b) = coeffs[::-1], (b, a)
    m, n = len(coeffs) - 1, Z.shape[0]
    powers = (a / b) ** np.arange(m)

    def apply(z):
        # (b X - a Y) y = Y z: y_{j+1} = (a y_j + z_j) / b above the last
        # block row, so y_j = (a/b)^j y_0 + u_j; that row fixes P(a, b) y_0
        u = np.zeros_like(z)
        for j in range(m - 1):
            u[j + 1] = (a * u[j] + z[j]) / b
        rhs = coeffs[m] @ (z[-1] + a * u[-1])
        for j in range(1, m):
            rhs += b * (coeffs[j] @ u[j])
        y0 = -b ** (m - 1) * solve(rhs)
        return (np.conj(a) * z + powers[:, None] * y0 + u) / b

    def estimate(mu):
        alpha, beta = mu * a + np.conj(b), mu * b - np.conj(a)
        return hom.ProjectivePoint(*((beta, alpha) if swap else (alpha, beta)))

    rng = np.random.default_rng(0)
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    z /= np.linalg.norm(z)
    last = None
    for _ in range(_LOCAL_SOLVES):
        y = apply(z)
        est = estimate(np.vdot(z, y))
        if last is not None and hom.chordal_distance(last, est) <= _ROUNDING:
            return hom.scale_canonical(est)
        last = est
        z_prev, z = z, y / np.linalg.norm(y)
    Q = np.linalg.qr(np.column_stack([z_prev.ravel(), z.ravel()]))[0]
    TQ = np.column_stack([apply(q.reshape(m, n)).ravel() for q in Q.T])
    mus = np.linalg.eigvals(Q.conj().T @ TQ)
    ritz = [estimate(mu) for mu in mus]
    if hom.chordal_distance(*ritz) > math.sqrt(_ROUNDING):
        return None
    return hom.scale_canonical(ritz[int(np.argmax(np.abs(mus)))])


def _verify_pep(prob, results, rtol):
    """Rows of the PEP verdict, each pair matched to its local eigenvalue.

    _local_eigenvalue gives the eigenvalue nearest each returned pair, from
    one LU of P at the pair, so no spectrum is formed and no size is capped.
    The distinct local eigenvalues are numbered in order of first match;
    two pairs whose local eigenvalues agree to rounding are duplicates.  A
    pair for which _local_eigenvalue finds none gets an infinite mismatch.
    """
    homogeneous = results.get("config", {}).get("mode") == "homogeneous"
    found = []
    rows = []
    for d in results["pairs"]:
        point = _result_point(d)
        value = mmio.from_json(d["value"])
        infinite = isinstance(value, float) and math.isinf(value)
        local = _local_eigenvalue(prob, point)
        j = len(found)
        if local is not None:
            j = next((i for i, q in enumerate(found) if q is not None
                      and hom.chordal_distance(q, local) <= _ROUNDING), j)
        if j == len(found):
            found.append(local)
        if local is None:
            mismatch = math.inf
        elif homogeneous or infinite:
            mismatch = hom.chordal_distance(point, local)
        elif local.is_infinite:
            mismatch = math.inf
        else:
            w = local.to_scalar()
            mismatch = abs(value - w) / max(1.0, abs(w))

        x = mmio.from_json(d["right"])
        if infinite:
            r = hom.hom_eval(prob, point) @ x
            scale = hom.hom_tolerance_scale(prob, point)
        else:
            r = prob.matvec(value, x)
            scale = prob.tolerance_scale(value)
        shown = "inf" if infinite else f"{value:.6g}"
        rows.append((f"value {shown}", j, float(mismatch),
                     _relres(r, scale, x)))
    return _verdict(rows, results, rtol)


def _verify_mep(m, results, rtol):
    oracle = mepmod.dense_solve(m)
    rows = []
    for d in results["pairs"]:
        values = tuple(mmio.from_json(v) for v in d["values"])
        dists = [
            sum(abs(values[i] - o.values[i]) for i in range(m.nparams))
            / max(1.0, sum(abs(v) for v in o.values))
            for o in oracle
        ]
        j = int(np.argmin(dists))
        rel = 0.0
        for i in range(m.nfactors):
            x = mmio.from_json(d["xs"][i])
            r = mepmod.to_dense_matvec(m, i, values, x)
            rel = max(rel, _relres(r, m.tolerance_scale(i, values), x))
        rows.append((f"values {values}", j, float(dists[j]), rel))
    return _verdict(rows, results, rtol)


def cmd_verify(args):
    if not 0.0 <= args.rtol < math.inf:
        raise ValueError(f"--rtol must be finite and nonnegative, "
                         f"got {args.rtol}")
    ptype, prob = mmio.load_problem(args.problem)
    results = mmio.read_json(args.results)
    try:
        if ptype == "pep":
            ok, lines = _verify_pep(prob, results, args.rtol)
        else:
            ok, lines = _verify_mep(prob, results, args.rtol)
    except jdsolver.OracleCapError as exc:
        print(f"SKIPPED: {exc} (set EIGENSEL_ORACLE_CAP to raise the cap)")
        return EXIT_OK
    for ln in lines:
        print(ln)
    print("verdict: PASS" if ok else "verdict: FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_report(args):
    results = mmio.read_json(args.results)
    ptype = results.get("problem", {}).get("problem_type", "pep")
    nparams = results.get("problem", {}).get("nparams", 1) \
        if ptype == "mep" else 1
    print("configuration:")
    for key in sorted(results.get("config", {})):
        print(f"  {key} = {results['config'][key]}")
    print(f"outer_iterations = {results.get('outer_iterations')}  "
          f"truncated = {results.get('truncated')}")
    print(mmio.format_table(results["pairs"], nparams=nparams))
    blocked = results.get("blocked", [])
    if blocked:
        print(f"blocked values: {blocked}")
    if args.csv:
        import csv as _csv
        counts = {}
        rows = 0
        with open(args.csv, newline="") as f:
            for row in _csv.DictReader(f):
                rows += 1
                counts[row["event"]] = counts.get(row["event"], 0) + 1
        print(f"convergence log: {rows} records")
        for ev in sorted(counts):
            print(f"  {ev}: {counts[ev]}")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
