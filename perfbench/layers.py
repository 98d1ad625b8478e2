"""Per-layer metrics of a traced run: names, units, hooks and arithmetic.

Every value is a mean per traced operation, so runs that fit a different
number of operations in their time stay comparable.  A layer a workload
never enters reports 0.
"""

from __future__ import annotations

import math
import os

# bound here, before any tracing: the tracer replaces names inside eigensel's
# modules, so this reference stays the unwrapped original and the hook adds
# no span of its own
from eigensel.mep import criterion_threshold
from eigensel.selection import RECOMMENDED_ETA

from tracer import layer_stats, module_of

MODULES = ("problems", "homogeneous", "selection", "jdsolver", "linsolve",
           "mep", "mmio", "cli")

# public callables whose count, total time and self time are reported
TIMED = (
    "mep.dense_solve", "mep.mep_criterion", "mep.mep_register",
    "mep.tensor_rayleigh",
    "problems.PolyProblem.eval", "problems.PolyProblem.derivative",
    "linsolve.projected_correction_solve", "linsolve.gmres",
    "linsolve.LuPreconditioner.solve",
    "jdsolver.SearchSpace.append", "jdsolver.SearchSpace.restart",
    "homogeneous.hom_eval", "homogeneous.hom_D",
    "linsolve.left_eigenvector", "linsolve.null_vector", "selection.register",
    "selection.criterion_value", "jdsolver.extract_candidates",
    "jdsolver.oracle_all_eigenpairs",
)
# callables reported by total time only
TIMED_TOTAL = (
    "mmio.save_pep", "mmio.load_problem", "mmio.write_json",
    "mmio.write_convergence_csv", "mmio.read_json",
    "cli.cmd_generate", "cli.cmd_solve", "cli.cmd_verify", "cli.cmd_report",
)
EVENTS = ("expanded", "no-pass", "converged", "restarted", "rejected")
# constructors that do work: the LU factorization
CONSTRUCTORS = ("linsolve.LuPreconditioner",)


def _metric_units():
    units = {}
    for name in TIMED:
        units.update({f"{name}.calls": "count", f"{name}.s": "s",
                      f"{name}.self_s": "s"})
    units.update({
        "mep.dense_solve.dim_mean": "rows",
        "mep.mep_criterion.pass_ratio": "ratio",
        "mep.mep_register.failed": "count",
        "linsolve.gmres.steps": "count",
        "linsolve.LuPreconditioner.factorizations": "count",
        "linsolve.LuPreconditioner.factor_s": "s",
        "linsolve.null_vector.failed": "count",
        "selection.register.failed": "count",
        "selection.criterion_value.pass_ratio": "ratio",
        "jdsolver.extract_candidates.k_mean": "count",
    })
    for solver in ("jdsolver", "mep"):
        units.update({f"{solver}.events.{e}": "count" for e in EVENTS})
    units.update({f"{name}.s": "s" for name in TIMED_TOTAL})
    units["mmio.bytes_written"] = "B"
    for mod in MODULES:
        units.update({f"{mod}.calls": "count", f"{mod}.s": "s",
                      f"{mod}.self_s": "s"})
    units.update({
        "bench.failed_ratio": "ratio",
        "trace.ops": "count",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    })
    return units


UNITS = _metric_units()


# -- hooks: counts a span cannot carry ---------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _file_size(path):
    return {"mmio.bytes_written": os.path.getsize(path)} \
        if path and os.path.exists(path) else {}


def _failed(name):
    return lambda args, kwargs, result, exc: {name: 1} if exc is not None else {}


def _criterion_pass(args, kwargs, result, exc):
    config = _arg(args, kwargs, 3, "config")
    eta = config.eta if config is not None else RECOMMENDED_ETA
    return {"selection.criterion_value.passed": int(result is not None
                                                    and result < eta)}


def _mep_criterion_pass(args, kwargs, result, exc):
    # the workloads run mep_subspace_solve with the default eta
    variant = _arg(args, kwargs, 3, "variant", "new")
    cutoff = criterion_threshold(RECOMMENDED_ETA, variant)
    return {"mep.mep_criterion.passed": int(result is not None
                                            and result < cutoff)}


HOOKS = {
    "linsolve.gmres": lambda args, kwargs, result, exc:
        {"linsolve.gmres.steps": result[2]} if result else {},
    "mep.dense_solve": lambda args, kwargs, result, exc:
        {"mep.dense_solve.dim": math.prod(args[0].dims)},
    "jdsolver.extract_candidates": lambda args, kwargs, result, exc:
        {"jdsolver.extract_candidates.k": args[0].k},
    "selection.criterion_value": _criterion_pass,
    "mep.mep_criterion": _mep_criterion_pass,
    "mep.mep_register": _failed("mep.mep_register.failed"),
    "selection.register": _failed("selection.register.failed"),
    "linsolve.null_vector": _failed("linsolve.null_vector.failed"),
    "mmio.save_matrix": lambda args, kwargs, result, exc: _file_size(args[0]),
    "mmio.save_pep": lambda args, kwargs, result, exc: _file_size(result),
    "mmio.write_json": lambda args, kwargs, result, exc: _file_size(args[0]),
    "mmio.write_convergence_csv":
        lambda args, kwargs, result, exc: _file_size(args[0]),
}


# -- arithmetic ----------------------------------------------------------------


def per_layer_metrics(spans, counters, outcomes, solver, overhead_s):
    """Per-layer metrics (means per traced operation) from one traced run.

    spans and counters come from the Tracer, outcomes are the traced
    operations' Outcome objects, solver names the module whose events the
    workload emits, overhead_s is the traced minus the untraced solve_s.
    """
    n = max(len(outcomes), 1)
    stats = layer_stats(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m = {}
    for name in TIMED:
        st = stats.get(name, zero)
        m[f"{name}.calls"] = st["calls"] / n
        m[f"{name}.s"] = st["s"] / n
        m[f"{name}.self_s"] = st["self_s"] / n
    for name in TIMED_TOTAL:
        m[f"{name}.s"] = stats.get(name, zero)["s"] / n

    def ratio(num, den):
        return counters[num] / den if den else 0.0

    m["mep.dense_solve.dim_mean"] = ratio(
        "mep.dense_solve.dim", stats.get("mep.dense_solve", zero)["calls"])
    m["mep.mep_criterion.pass_ratio"] = ratio(
        "mep.mep_criterion.passed", stats.get("mep.mep_criterion", zero)["calls"])
    m["selection.criterion_value.pass_ratio"] = ratio(
        "selection.criterion_value.passed",
        stats.get("selection.criterion_value", zero)["calls"])
    m["jdsolver.extract_candidates.k_mean"] = ratio(
        "jdsolver.extract_candidates.k",
        stats.get("jdsolver.extract_candidates", zero)["calls"])
    for name in ("mep.mep_register.failed", "selection.register.failed",
                 "linsolve.null_vector.failed", "linsolve.gmres.steps",
                 "mmio.bytes_written"):
        m[name] = counters[name] / n
    lu = stats.get("linsolve.LuPreconditioner", zero)
    m["linsolve.LuPreconditioner.factorizations"] = lu["calls"] / n
    m["linsolve.LuPreconditioner.factor_s"] = lu["s"] / n

    for kind in ("jdsolver", "mep"):
        for e in EVENTS:
            m[f"{kind}.events.{e}"] = (
                sum(o.events[e] for o in outcomes) / n if kind == solver else 0.0)

    modules = layer_stats(spans, key=module_of)
    for mod in MODULES:
        st = modules.get(mod, zero)
        m[f"{mod}.calls"] = st["calls"] / n
        m[f"{mod}.s"] = st["s"] / n
        m[f"{mod}.self_s"] = st["self_s"] / n

    m["bench.failed_ratio"] = sum(o.stopped_short for o in outcomes) / n
    m["trace.ops"] = len(outcomes)
    m["trace.spans"] = len(spans) / n
    m["trace.overhead_s"] = overhead_s
    return m
