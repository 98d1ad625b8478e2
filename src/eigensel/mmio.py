"""File formats for the batch front end.

Matrices travel as Matrix Market files, problem descriptions as a JSON
manifest next to them, solver output as a results JSON plus a convergence
CSV.  Manifests are written with sorted keys and no timestamps so a
generator rerun with the same seed produces byte-identical files.

Manifest layout (format "eigensel-manifest-v1"):

    problem_type  "pep"  -> structure.coeffs lists matrix names by
                            ascending power
                  "mep"  -> structure.factors lists per-factor rows
                            [constant, param_1, param_2, ...]
    matrices      name -> relative path entries for every stored matrix
    kind, params  generator provenance, enough to regenerate

Complex scalars in JSON are always [re, im] pairs; an infinite value (an
eigenvalue, which carries its projective point alongside, or a target) is
{"inf": true}.  No NaN or Infinity token is written.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.io
import scipy.sparse as sp

from .mep import LinearMep2, LinearMep3
from .problems import PolyProblem

__all__ = [
    "MANIFEST_FORMAT",
    "save_matrix",
    "load_matrix",
    "save_pep",
    "save_mep",
    "load_manifest",
    "load_problem",
    "write_json",
    "read_json",
    "write_convergence_csv",
    "format_table",
]

MANIFEST_FORMAT = "eigensel-manifest-v1"


def save_matrix(path, M, comment=""):
    """Write one matrix as Matrix Market (sparse stays coordinate format)."""
    if sp.issparse(M):
        M = M.tocoo()
    else:
        M = np.asarray(M)
    scipy.io.mmwrite(path, M, comment=comment)


def load_matrix(path):
    """Read a Matrix Market file; sparse files come back as CSR."""
    M = scipy.io.mmread(path)
    if sp.issparse(M):
        return M.tocsr()
    return np.asarray(M)


def _write_manifest(outdir, manifest):
    path = os.path.join(outdir, "manifest.json")
    body = json.dumps(manifest, sort_keys=True, indent=2)
    with open(path, "w") as f:
        f.write(body)
        f.write("\n")
    return path


def save_pep(outdir, problem, kind, params):
    """Write a polynomial problem's coefficients plus manifest; returns the
    manifest path.  Matrix A{i} multiplies the i-th power."""
    os.makedirs(outdir, exist_ok=True)
    names = []
    for i, A in enumerate(problem.coeffs):
        name = f"A{i}"
        save_matrix(os.path.join(outdir, name + ".mtx"), A)
        names.append(name)
    manifest = {
        "format": MANIFEST_FORMAT,
        "problem_type": "pep",
        "kind": kind,
        "params": params,
        "matrices": [{"name": n, "path": n + ".mtx"} for n in names],
        "structure": {"coeffs": names},
    }
    return _write_manifest(outdir, manifest)


def save_mep(outdir, mep, kind, params):
    """Write a linear multiparameter problem; factor i, matrix slot j gets
    the name T{i+1}_{A|B|C|D} (constant first, then one per parameter)."""
    os.makedirs(outdir, exist_ok=True)
    letters = "ABCD"
    factors = []
    for i, row in enumerate(mep.ops):
        row_names = []
        for j, M in enumerate(row):
            name = f"T{i + 1}_{letters[j]}"
            save_matrix(os.path.join(outdir, name + ".mtx"), M)
            row_names.append(name)
        factors.append(row_names)
    flat = [n for row in factors for n in row]
    manifest = {
        "format": MANIFEST_FORMAT,
        "problem_type": "mep",
        "kind": kind,
        "params": params,
        "matrices": [{"name": n, "path": n + ".mtx"} for n in flat],
        "structure": {"factors": factors},
    }
    return _write_manifest(outdir, manifest)


def _manifest_path(path):
    # a problem directory stands for the manifest.json inside it
    if os.path.isdir(path):
        return os.path.join(path, "manifest.json")
    return path


def load_manifest(path):
    path = _manifest_path(path)
    with open(path) as f:
        manifest = json.load(f)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: not an eigensel manifest (format field "
            f"{manifest.get('format')!r})"
        )
    return manifest


def load_problem(manifest_path):
    """Instantiate the problem a manifest describes.

    Accepts the manifest file or the directory holding it.  Returns
    ("pep", PolyProblem) or ("mep", LinearMep2 | LinearMep3); every
    referenced matrix file must exist next to the manifest.
    """
    manifest_path = _manifest_path(manifest_path)
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = {e["name"]: os.path.join(base, e["path"])
             for e in manifest["matrices"]}

    def mat(name):
        return load_matrix(paths[name])

    ptype = manifest["problem_type"]
    if ptype == "pep":
        coeffs = [mat(n) for n in manifest["structure"]["coeffs"]]
        return "pep", PolyProblem(coeffs)
    if ptype == "mep":
        rows = [tuple(mat(n) for n in row)
                for row in manifest["structure"]["factors"]]
        if len(rows) == 2:
            return "mep", LinearMep2(*rows[0], *rows[1])
        return "mep", LinearMep3(rows)
    raise ValueError(f"unknown problem_type {ptype!r}")


def write_json(path, payload):
    """Write payload as strict JSON: a NaN or infinite float raises
    ValueError instead of becoming a bare NaN or Infinity token."""
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=2, allow_nan=False)
        f.write("\n")


def read_json(path):
    with open(path) as f:
        return json.load(f)


def _value_parts(value):
    """(re, im) of one recorded value: (nan, nan) for None, (inf, 0) for
    math.inf."""
    if value is None:
        return math.nan, math.nan
    if isinstance(value, float) and math.isinf(value):
        return math.inf, 0.0
    value = complex(value)
    return value.real, value.imag


def write_convergence_csv(path, records, nparams=1):
    """Convergence history of jdsolver Records as CSV.

    One-parameter header: iteration, re_theta, im_theta, residual,
    criterion, event.  Multiparameter runs widen the value columns to
    re_lambda, im_lambda, re_mu, im_mu (and re_nu, im_nu for three).  A
    scalar value is read as a 1-tuple; a record without a value writes nan
    in every value column.
    """
    if nparams == 1:
        value_cols = ["re_theta", "im_theta"]
    else:
        names = ["lambda", "mu", "nu"][:nparams]
        value_cols = [f"{p}_{n}" for n in names for p in ("re", "im")]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iteration"] + value_cols + ["residual", "criterion",
                                                 "event"])
        for r in records:
            vals = r.value if isinstance(r.value, tuple) else (r.value,)
            parts = [x for v in vals for x in _value_parts(v)]
            parts += [math.nan] * (2 * nparams - len(parts))
            w.writerow([r.iteration] + [repr(float(x)) for x in parts]
                       + [repr(float(r.residual)), repr(float(r.criterion)),
                          r.event])


def _fmt_value(value):
    """A JSON-encoded value: [re, im], or {"inf": true}."""
    if isinstance(value, dict):
        return "inf"
    v = complex(*value)
    return f"{v.real:+.10e} {v.imag:+.10e}j"


def _nan_if_none(x):
    return math.nan if x is None else float(x)


def format_table(pairs, nparams=1):
    """Human-readable registry table: value(s), residual, condition number,
    iteration of detection.  pairs are the pair dicts of results.json."""
    lines = []
    if nparams == 1:
        head = f"{'eigenvalue':>38} {'residual':>10} {'cond':>10} {'iter':>5}"
    else:
        head = (f"{'parameters':>{38 * nparams}} {'residual':>10} "
                f"{'cond':>10} {'iter':>5}")
    lines.append(head)
    lines.append("-" * len(head))
    for d in pairs:
        vals = [d["value"]] if nparams == 1 else d["values"]
        shown = " ".join(f"{_fmt_value(v):>38}" for v in vals)
        residual = _nan_if_none(d.get("residual"))
        cond = _nan_if_none(d.get("cond"))
        it = d.get("found_iteration", -1)
        lines.append(f"{shown} {residual:>10.2e} {cond:>10.2e} {it:>5d}")
    return "\n".join(lines)
