"""The four benchmark workloads and their outside correctness checks.

Each workload turns (params, op_seed) into inputs with `build`, runs one
closed-loop operation on them with `run` (the timed part), and judges the
result with `check`, which recomputes everything it asserts from the
returned vectors instead of trusting the solver's own flags.  `FULL` holds
the sizes the benchmark measures, `SMOKE` reduced sizes for its tests.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import eigensel as es
from eigensel import cli
from eigensel import homogeneous as hom
from eigensel import mep as mepmod

# Two returned pairs are the same eigenpair found twice when their values
# agree to DUP_RTOL (relative, or chordal in homogeneous mode) and their
# vectors are parallel to DUP_COS.  The value alone does not do: in
# gen_gyroscopic(30000) two distinct eigenvalues near 81i lie 8e-7 apart in
# chordal distance.
DUP_RTOL = 1e-6
DUP_COS = 0.99
PI2 = math.pi ** 2


@dataclass
class Outcome:
    """What one operation returned, as judged from outside the program.

    errors lists failed outside checks; an operation with errors counts as
    failed.  truncated marks a solve that stopped at its iteration budget
    or returned fewer pairs than requested (the no-pass stall): its pairs
    are still correct, so it is recorded but is not an error.
    """

    requested: int
    verified: int
    outer: int
    truncated: bool
    events: Counter
    errors: list = field(default_factory=list)
    exit_codes: dict = field(default_factory=dict)

    @property
    def stopped_short(self):
        """Failure in the wide sense: truncated, short, wrong, or a non-zero
        CLI exit code."""
        return (self.truncated or bool(self.errors)
                or any(code != 0 for code in self.exit_codes.values()))


def op_seed(seed, i):
    """Seed of operation i of a run with the given seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def event_counts(tags):
    """Solver event tags grouped as the per-layer metrics name them."""
    return Counter("rejected" if t.startswith("rejected") else t for t in tags)


def _cos(xs, ys):
    """|cos| of the angle between two vectors or two tensor products."""
    return math.prod(abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))
                     for x, y in zip(xs, ys))


def _duplicates(dist, items):
    """Index pairs (a, b) of (value, vectors) items that repeat a pair."""
    return [(a, b) for a in range(len(items)) for b in range(a)
            if dist(items[a][0], items[b][0]) <= DUP_RTOL
            and _cos(items[a][1], items[b][1]) >= DUP_COS]


def _rel(a, b):
    """Distance of two values (scalars or parameter tuples), relative to b."""
    diff = np.linalg.norm(np.subtract(a, b, dtype=complex).reshape(-1))
    return float(diff) / max(1.0, float(np.linalg.norm(np.reshape(b, -1))))


def check_pep_pairs(problem, pairs, tol, homogeneous):
    """(errors, bad pair indices) for PEP pairs given as (value, point, x).

    The scaled residual ||P(lam) x|| / (sum_i |lam|^i ||A_i||_1 ||x||) (its
    homogeneous form at the projective point) must meet the run tolerance,
    and no value may be returned twice.
    """
    errors, bad = [], set()
    for k, (value, point, x) in enumerate(pairs):
        if homogeneous:
            r = hom.hom_eval(problem, point) @ x
            scale = hom.hom_tolerance_scale(problem, point)
        else:
            r = problem.matvec(value, x)
            scale = problem.tolerance_scale(value)
        rel = float(np.linalg.norm(r)) / (scale * float(np.linalg.norm(x)))
        if not rel <= tol:
            errors.append(f"pair {k}: residual {rel:.3e} > tol {tol:.1e}")
            bad.add(k)
    if homogeneous:
        dups = _duplicates(hom.chordal_distance, [(p, [x]) for _, p, x in pairs])
    else:
        dups = _duplicates(_rel, [(v, [x]) for v, _, x in pairs])
    for a, b in dups:
        errors.append(f"pairs {a} and {b}: duplicate value")
        bad.update((a, b))
    return errors, bad


# -- bvp3p ------------------------------------------------------------------


def build_bvp3p(p, seed):
    mep = es.gen_fourpoint_bvp(p["N"])
    opts = es.MepOptions(target=(0.0, 0.0, 0.0), num_pairs=p["pairs"],
                         tol=p["tol"], mindim=p["mindim"], maxdim=p["maxdim"],
                         max_outer=p["max_outer"], seed=seed)
    return mep, opts


def run_bvp3p(inputs):
    mep, opts = inputs
    return es.mep_subspace_solve(mep, opts)


def check_bvp3p(inputs, res):
    mep, opts = inputs
    errors = []
    bad = set()
    for k, t in enumerate(res.registry):
        for i, x in enumerate(t.xs):
            r = mepmod.to_dense_matvec(mep, i, t.values, x)
            rel = float(np.linalg.norm(r)) / (
                mep.tolerance_scale(i, t.values) * float(np.linalg.norm(x)))
            if not rel <= opts.tol:
                errors.append(f"triplet {k} factor {i}: residual {rel:.3e}")
                bad.add(k)
    for a, b in _duplicates(_rel, [(t.values, t.xs) for t in res.registry]):
        errors.append(f"triplets {a} and {b}: duplicate value")
        bad.update((a, b))
    # the two uncoupled solutions: w = sin(pi t) and sin(2 pi t) on every
    # interval, eigenvalues (k^2 pi^2, 0, 0) with k-1 interior sign changes
    for lam, osc in ((PI2, 0), (4 * PI2, 1)):
        hits = [t for t in res.registry
                if abs(t.values[0] - lam) <= 1e-6 * lam
                and max(abs(t.values[1]), abs(t.values[2])) <= 1e-6 * lam]
        if not hits:
            errors.append(f"({lam:.6f}, 0, 0) missing")
        elif [es.oscillation_index(x) for x in hits[0].xs] != [osc] * 3:
            errors.append(f"({lam:.6f}, 0, 0) has oscillation indices "
                          f"{[es.oscillation_index(x) for x in hits[0].xs]}")
    return Outcome(
        requested=opts.num_pairs,
        verified=len(res.registry) - len(bad),
        outer=res.outer_iterations,
        truncated=res.truncated or len(res.registry) < opts.num_pairs,
        events=event_counts(r.event for r in res.records),
        errors=errors,
    )


# -- gyro_sparse and qep_dense ----------------------------------------------


def build_gyro_sparse(p, seed):
    prob = es.gen_gyroscopic(p["n"], seed=seed)
    opts = es.JDOptions(target=80j, num_pairs=p["pairs"], tol=p["tol"],
                        mindim=p["mindim"], maxdim=p["maxdim"],
                        max_outer=p["max_outer"], mode="homogeneous", seed=seed)
    return prob, opts


def build_qep_dense(p, seed):
    prob = es.gen_random_pep(p["n"], 2, seed=seed)
    opts = es.JDOptions(target=0.0, num_pairs=p["pairs"], tol=p["tol"],
                        mindim=p["mindim"], maxdim=p["maxdim"],
                        max_outer=p["max_outer"], seed=seed)
    return prob, opts


def run_jd(inputs):
    prob, opts = inputs
    return es.jd_solve(prob, opts)


def check_jd(inputs, res):
    prob, opts = inputs
    pairs = [(t.value, t.point, t.right) for t in res.registry]
    errors, bad = check_pep_pairs(prob, pairs, opts.tol,
                                  opts.mode == "homogeneous")
    return Outcome(
        requested=opts.num_pairs,
        verified=len(pairs) - len(bad),
        outer=res.outer_iterations,
        truncated=res.truncated or len(pairs) < opts.num_pairs,
        events=event_counts(r.event for r in res.records),
        errors=errors,
    )


# -- cli_chain ---------------------------------------------------------------


def build_cli_chain(p, seed):
    workdir = os.path.join(p["workdir"], f"chain-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    results = os.path.join(workdir, "results.json")
    steps = [
        ["generate", "random_pep", "--n", str(p["n"]), "--seed", str(seed),
         "--out", workdir],
        ["solve", "--problem", workdir, "--num-pairs", str(p["pairs"]),
         "--tol", repr(p["tol"]), "--max-outer", str(p["max_outer"]),
         "--seed", str(seed), "--out", workdir],
        ["verify", "--problem", workdir, "--results", results],
        ["report", "--results", results,
         "--csv", os.path.join(workdir, "convergence.csv")],
    ]
    return {"params": p, "seed": seed, "workdir": workdir, "steps": steps}


def run_cli_chain(inputs):
    """Run the four subcommands in order; returns {command: (code, stdout)}."""
    out = {}
    for argv in inputs["steps"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out[argv[0]] = (code, buf.getvalue())
    return out


def check_cli_chain(inputs, out):
    p, workdir = inputs["params"], inputs["workdir"]
    codes = {cmd: code for cmd, (code, _) in out.items()}
    # solve exits 3 when it is truncated; any other non-zero code is wrong
    allowed = {"generate": (0,), "solve": (0, 3), "verify": (0,), "report": (0,)}
    errors = [f"{cmd} exited {code}" for cmd, code in codes.items()
              if code not in allowed[cmd]]
    if "verdict: PASS" not in out["verify"][1]:
        errors.append("verify did not print 'verdict: PASS'")
    try:
        with open(os.path.join(workdir, "results.json")) as f:
            results = json.load(f)
        with open(os.path.join(workdir, "convergence.csv"), newline="") as f:
            tags = [row["event"] for row in csv.DictReader(f)]
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(p["pairs"], 0, 0, True, Counter(),
                       errors + [f"unreadable output: {exc}"], codes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # the problem is regenerated in memory, so the files' round trip is
    # checked too
    prob = es.gen_random_pep(p["n"], 2, seed=inputs["seed"])
    pairs = []
    for d in results["pairs"]:
        value = complex(*d["value"])
        x = np.asarray(d["right"]["re"]) + 1j * np.asarray(d["right"]["im"])
        pairs.append((value, None, x))
    pair_errors, bad = check_pep_pairs(prob, pairs, p["tol"], False)
    npairs = len(pairs)
    short = results["truncated"] or npairs < p["pairs"]
    if short != (codes["solve"] == 3):
        errors.append(f"solve exit code {codes['solve']} does not match "
                      f"truncated={results['truncated']} with {npairs} pairs")
    # a failed chain-level check (exit code, verdict) taints every pair
    verified = npairs - len(bad) if not errors else 0
    errors += pair_errors
    return Outcome(
        requested=p["pairs"],
        verified=verified,
        outer=int(results["outer_iterations"]),
        truncated=short,
        events=event_counts(tags),
        errors=errors,
        exit_codes=codes,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object
    run: object
    check: object
    solver: str  # module whose solver loop emits the events: jdsolver or mep


WORKLOADS = {
    w.name: w for w in (
        Workload("bvp3p",
                 "three-parameter BVP solve; the projected tensor eigenproblem "
                 "(mep.dense_solve) dominates",
                 build_bvp3p, run_bvp3p, check_bvp3p, "mep"),
        Workload("gyro_sparse",
                 "sparse homogeneous solve with infinite eigenvalues; GMRES, "
                 "sparse LU and search-space upkeep dominate",
                 build_gyro_sparse, run_jd, check_jd, "jdsolver"),
        Workload("qep_dense",
                 "dense quadratic solve forming P(theta), P'(theta) each "
                 "iteration; requests enough pairs to show the no-pass stall",
                 build_qep_dense, run_jd, check_jd, "jdsolver"),
        Workload("cli_chain",
                 "generate, solve, verify, report through the CLI; Matrix "
                 "Market I/O and the dense QZ oracle dominate",
                 build_cli_chain, run_cli_chain, check_cli_chain,
                 "jdsolver"),
    )
}

FULL = {
    "bvp3p": {"N": 100, "pairs": 9, "tol": 1e-10, "mindim": 3, "maxdim": 4,
              "max_outer": 200},
    "gyro_sparse": {"n": 8000, "pairs": 8, "tol": 1e-4, "mindim": 10,
                    "maxdim": 20, "max_outer": 800},
    "qep_dense": {"n": 300, "pairs": 10, "tol": 1e-9, "mindim": 10,
                  "maxdim": 20, "max_outer": 150},
    "cli_chain": {"n": 160, "pairs": 6, "tol": 1e-9, "max_outer": 50},
}

SMOKE = {
    "bvp3p": {"N": 20, "pairs": 9, "tol": 1e-10, "mindim": 3, "maxdim": 4,
              "max_outer": 200},
    "gyro_sparse": {"n": 2000, "pairs": 8, "tol": 1e-4, "mindim": 10,
                    "maxdim": 20, "max_outer": 800},
    "qep_dense": {"n": 40, "pairs": 10, "tol": 1e-9, "mindim": 10,
                  "maxdim": 20, "max_outer": 60},
    "cli_chain": {"n": 30, "pairs": 6, "tol": 1e-9, "max_outer": 60},
}
