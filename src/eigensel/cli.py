"""Batch front end: generate problems, run solvers, verify, report.

Subcommands:

    generate   write a problem (Matrix Market + JSON manifest) to a directory
    solve      run the matching solver, write registry JSON, convergence CSV,
               and a human-readable table
    verify     recompute residuals and match results against the dense oracle
               (for PEPs the eigenvalue-only jdsolver.oracle_eigenvalues:
               the monic companion matrix's eigenvalues when the leading
               coefficient is well conditioned, QZ otherwise; for MEPs
               mep.dense_solve)
    report     pretty-print a results file (plus CSV event summary)

Exit codes: 0 success, 2 usage error (argparse), 3 solver truncated before
the requested number of pairs, 4 verification failure, 5 I/O or format
error.  EIGENSEL_ORACLE_CAP bounds the dense-oracle dimension for verify.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

import numpy as np

from . import homogeneous as hom
from . import jdsolver, mmio, problems
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
    s.add_argument("--extraction", choices=["ritz", "gal1"], default="ritz",
                   help="value of the selected pair: the projected one "
                        "('ritz'), or gal1, its one-dimensional Galerkin "
                        "refinement; pairs are harmonic in standard mode, "
                        "Ritz pairs in homogeneous mode")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output directory")

    v = sub.add_parser("verify", help="check results against the oracle")
    v.add_argument("--problem", required=True,
                   help="problem directory or manifest.json path")
    v.add_argument("--results", required=True, help="results JSON from solve")
    v.add_argument("--rtol", type=float, default=1e-6,
                   help="allowed eigenvalue mismatch vs the oracle")

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


def _value_payload(v):
    if isinstance(v, hom.ProjectivePoint):
        v = v.to_scalar()
    if isinstance(v, float) and math.isinf(v):
        return {"inf": True}
    v = complex(v)
    return [v.real, v.imag]


def _finish_solve(args, manifest, opts, res, settings, problem, config,
                  pairs, blocked, nparams):
    """Write results.json, convergence.csv and table.txt for a solver run,
    print the table and return the exit code."""
    payload = {
        "problem": {"manifest": os.path.abspath(args.problem),
                    "kind": manifest.get("kind"), **problem},
        "config": config,
        "pairs": pairs,
        "blocked": blocked,
        "outer_iterations": res.outer_iterations,
        "truncated": bool(res.truncated),
    }
    mmio.write_json(os.path.join(args.out, "results.json"), payload)
    mmio.write_convergence_csv(os.path.join(args.out, "convergence.csv"),
                               res.records, nparams=nparams)
    table = mmio.format_table(res.registry, nparams=nparams)
    body = (f"kind={manifest.get('kind')} {settings} "
            f"pairs={len(res.registry)}/{opts.num_pairs}\n{table}\n")
    with open(os.path.join(args.out, "table.txt"), "w") as f:
        f.write(body)
    print(body, end="")
    short = len(res.registry) < opts.num_pairs
    return EXIT_TRUNCATED if (res.truncated or short) else EXIT_OK


def _solve_pep(prob, args, manifest):
    opts = jdsolver.JDOptions(
        target=complex(args.target[0], args.target[1]),
        num_pairs=args.num_pairs,
        tol=args.tol,
        mindim=args.mindim,
        maxdim=args.maxdim,
        max_outer=args.max_outer,
        inner_steps=args.inner_steps,
        eta=args.eta,
        mode=args.mode,
        extraction="gal1_refined" if args.extraction == "gal1" else "ritz",
        seed=args.seed,
    )
    res = jdsolver.jd_solve(prob, opts)
    config = {
        "target": [opts.target.real, opts.target.imag]
        if not isinstance(opts.target, hom.ProjectivePoint)
        else _value_payload(opts.target),
        "num_pairs": opts.num_pairs, "tol": opts.tol,
        "mindim": opts.mindim, "maxdim": opts.maxdim,
        "max_outer": opts.max_outer, "inner_steps": opts.inner_steps,
        "eta": opts.eta, "mode": opts.mode, "extraction": opts.extraction,
        "seed": opts.seed,
    }
    return _finish_solve(
        args, manifest, opts, res,
        settings=f"eta={opts.eta} mode={opts.mode} target={opts.target}",
        problem={"problem_type": "pep"},
        config=config,
        pairs=[t.to_dict() for t in res.registry],
        blocked=[_value_payload(b) for b in res.blocked],
        nparams=1,
    )


def _solve_mep(m, args, manifest):
    targets = [complex(*args.target), complex(*args.target_mu),
               complex(*args.target_nu)][: m.nparams]
    opts = mepmod.MepOptions(
        target=tuple(targets),
        num_pairs=args.num_pairs,
        tol=args.tol,
        mindim=args.mindim,
        maxdim=args.maxdim,
        max_outer=args.max_outer,
        inner_steps=args.inner_steps,
        eta=args.eta,
        seed=args.seed,
    )
    res = mepmod.mep_subspace_solve(m, opts)
    config = {
        "target": [[t.real, t.imag] for t in targets],
        "num_pairs": opts.num_pairs, "tol": opts.tol,
        "mindim": opts.mindim, "maxdim": opts.maxdim,
        "max_outer": opts.max_outer, "inner_steps": opts.inner_steps,
        "eta": opts.eta, "criterion": opts.criterion, "seed": opts.seed,
    }
    pairs = []
    for t in res.registry:
        d = t.to_dict()
        d["oscillation"] = [mepmod.oscillation_index(x) for x in t.xs]
        pairs.append(d)
    return _finish_solve(
        args, manifest, opts, res,
        settings=f"eta={opts.eta} target={opts.target}",
        problem={"problem_type": "mep", "nparams": m.nparams},
        config=config,
        pairs=pairs,
        blocked=[[_value_payload(v) for v in vals] for vals in res.blocked],
        nparams=m.nparams,
    )


def cmd_solve(args):
    ptype, prob = mmio.load_problem(args.problem)
    manifest = mmio.load_manifest(args.problem)
    os.makedirs(args.out, exist_ok=True)
    if ptype == "pep":
        return _solve_pep(prob, args, manifest)
    if args.mode != "standard" or args.extraction != "ritz":
        print("note: --mode/--extraction apply to one-parameter problems "
              "only; ignored here")
    return _solve_mep(prob, args, manifest)


def _result_value(d):
    v = d["value"]
    if isinstance(v, dict) and v.get("inf"):
        return math.inf
    return complex(v[0], v[1])


def _result_point(d):
    if "point" in d:
        a = complex(*d["point"]["alpha"])
        b = complex(*d["point"]["beta"])
        return hom.scale_canonical(hom.ProjectivePoint(a, b))
    return hom.from_scalar(_result_value(d))


def _relres(r, scale, x):
    """Residual norm relative to the problem scale and to the vector norm."""
    nx = float(np.linalg.norm(x))
    return float(np.linalg.norm(r)) / (scale * nx) if nx else math.inf


def _verdict(rows, results, rtol):
    """Report lines and verdict from one (label, j, mismatch, residual) row
    per returned pair, j being the index of the nearest oracle value."""
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


def _verify_pep(prob, results, rtol):
    oracle = jdsolver.oracle_eigenvalues(prob)
    oracle_values = [pt.to_scalar() for pt in oracle]
    homogeneous = results.get("config", {}).get("mode") == "homogeneous"
    rows = []
    for d in results["pairs"]:
        point = _result_point(d)
        value = _result_value(d)
        infinite = isinstance(value, float) and math.isinf(value)
        if homogeneous or infinite:
            dists = [hom.chordal_distance(point, pt) for pt in oracle]
        else:
            dists = [
                abs(value - w) / max(1.0, abs(w))
                if not (isinstance(w, float) and math.isinf(w))
                else math.inf
                for w in oracle_values
            ]
        j = int(np.argmin(dists))

        x = np.asarray(d["right"]["re"]) + 1j * np.asarray(d["right"]["im"])
        if infinite:
            r = hom.hom_eval(prob, point) @ x
            scale = hom.hom_tolerance_scale(prob, point)
        else:
            r = prob.matvec(value, x)
            scale = prob.tolerance_scale(value)
        shown = "inf" if infinite else f"{value:.6g}"
        rows.append((f"value {shown}", j, float(dists[j]),
                     _relres(r, scale, x)))
    return _verdict(rows, results, rtol)


def _verify_mep(m, results, rtol):
    oracle = mepmod.dense_solve(m)
    rows = []
    for d in results["pairs"]:
        values = tuple(complex(*v) for v in d["values"])
        dists = [
            sum(abs(values[i] - o.values[i]) for i in range(m.nparams))
            / max(1.0, sum(abs(v) for v in o.values))
            for o in oracle
        ]
        j = int(np.argmin(dists))
        rel = 0.0
        for i in range(m.nfactors):
            x = np.asarray(d["xs"][i]["re"]) + 1j * np.asarray(d["xs"][i]["im"])
            r = mepmod.to_dense_matvec(m, i, values, x)
            rel = max(rel, _relres(r, m.tolerance_scale(i, values), x))
        rows.append((f"values {values}", j, float(dists[j]), rel))
    return _verdict(rows, results, rtol)


def cmd_verify(args):
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
