"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import eigensel  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, covered, layer_stats, module_of, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a.f", 0.0, 10.0, -1),
        span("b.g", 1.0, 4.0, 0),
        span("c.h", 2.0, 3.0, 1),  # grandchild: charged to b.g, not a.f
        span("b.g", 6.0, 7.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    stats = layer_stats(spans)
    assert stats["a.f"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert stats["b.g"] == {"calls": 2, "s": 4.0, "self_s": 3.0}


def test_nested_calls_of_one_layer_are_timed_once():
    spans = [
        span("m.f", 0.0, 10.0, -1),
        span("m.f", 2.0, 6.0, 0),
        span("m.g", 3.0, 4.0, 1),
        span("n.h", 7.0, 9.0, 0),
    ]
    assert layer_stats(spans)["m.f"] == {"calls": 2, "s": 10.0, "self_s": 7.0}
    mods = layer_stats(spans, key=module_of)
    assert mods["m"] == {"calls": 3, "s": 10.0, "self_s": 8.0}
    assert mods["n"] == {"calls": 1, "s": 2.0, "self_s": 2.0}


def test_metric_names_and_units_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert per_layer == layers.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    for name in list(e2e) + list(per_layer):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _originals(tracer):
    return [(owner, attr, original) for owner, attr, original, _ in tracer.targets()]


def test_tracer_wraps_every_site_and_restores_it():
    tracer = Tracer(eigensel, constructors=layers.CONSTRUCTORS, hooks=layers.HOOKS)
    sites = _originals(tracer)
    names = {s[3] for s in tracer.targets()}
    assert {"selection.criterion_value", "linsolve.gmres", "cli.cmd_verify",
            "jdsolver.SearchSpace.append", "linsolve.LuPreconditioner",
            "problems.PolyProblem.eval"} <= names
    # a re-exported function is replaced where jdsolver looks it up
    assert any(owner is eigensel.jdsolver and attr == "criterion_value"
               for owner, attr, _ in sites)
    wl = workloads.WORKLOADS["qep_dense"]
    inputs = wl.build(workloads.SMOKE["qep_dense"], 3)
    with tracer.installed(0):
        assert all(getattr(o, a) is not f for o, a, f in sites)
        res = wl.run(inputs)
    assert all(vars(o)[a] is f for o, a, f in sites)
    outcome = wl.check(inputs, res)
    assert not outcome.errors
    metrics = layers.per_layer_metrics(tracer.spans, tracer.counters,
                                       [outcome], wl.solver, 0.0)
    assert set(metrics) == set(layers.UNITS)
    assert metrics["linsolve.gmres.steps"] > 0
    assert metrics["jdsolver.events.converged"] == outcome.events["converged"]
    assert metrics["linsolve.projected_correction_solve.calls"] == outcome.outer


def test_hooks_add_no_spans_of_their_own():
    # the mep_criterion hook computes the pass threshold itself; that call
    # must not be traced as if the solver had made it
    wl = workloads.WORKLOADS["bvp3p"]
    counts = []
    for hooks in (None, layers.HOOKS):
        tracer = Tracer(eigensel, hooks=hooks)
        with tracer.installed(0):
            wl.run(wl.build(workloads.SMOKE["bvp3p"], 3))
        counts.append(Counter(s[0] for s in tracer.spans))
    assert tracer.counters["mep.mep_criterion.passed"] > 0
    assert counts[0] == counts[1]


def test_cli_chain_checks_against_its_own_tolerance(tmp_path):
    params = dict(workloads.SMOKE["cli_chain"], workdir=str(tmp_path))
    solve = workloads.build_cli_chain(params, 1)["steps"][1]
    assert solve[solve.index("--tol") + 1] == repr(params["tol"])


def test_tracer_restores_after_an_exception():
    tracer = Tracer(eigensel)
    sites = _originals(tracer)
    with pytest.raises(ValueError):
        with tracer.installed(0):
            eigensel.jd_solve(eigensel.gen_random_pep(5, 2),
                              eigensel.JDOptions(mindim=4, maxdim=3))
    assert all(vars(o)[a] is f for o, a, f in sites)
    assert tracer.spans and tracer.spans[-1][2] >= tracer.spans[-1][1]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_size_operation_passes_its_checks(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name]
    params = dict(workloads.SMOKE[name], workdir=str(tmp_path))
    inputs = wl.build(params, workloads.op_seed(seed, 0))
    outcome = wl.check(inputs, wl.run(inputs))
    assert outcome.errors == []
    assert outcome.verified >= 1 and outcome.outer >= 1


def test_checks_reject_a_wrong_pair():
    wl = workloads.WORKLOADS["qep_dense"]
    inputs = wl.build(workloads.SMOKE["qep_dense"], 5)
    res = wl.run(inputs)
    res.registry.append(res.registry[0])  # duplicate
    res.registry[1].value += 1e-3  # residual far above tol
    outcome = wl.check(inputs, res)
    assert any("duplicate" in e for e in outcome.errors)
    assert any("residual" in e for e in outcome.errors)
    assert outcome.verified == len(res.registry) - 3


def _bench(tmp, *args):
    return subprocess.run([sys.executable, os.path.join(tmp, "perfbench", "run.py"),
                           *args], cwd=tmp, capture_output=True, text=True,
                          timeout=170)


def _checkout(tmp_path, with_src=True):
    tmp = str(tmp_path)
    shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(tmp_path, trace):
    tmp = _checkout(tmp_path)
    out = _bench(tmp, "--workload", "gyro_sparse", "--seed", "7",
                 "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = layers.UNITS if trace == "1" else dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == "1":
        assert os.path.exists(os.path.join(
            tmp, "perfbench", "out", "spans-gyro_sparse-seed7.jsonl.gz"))


def test_command_fails_without_the_program(tmp_path):
    tmp = _checkout(tmp_path, with_src=False)
    out = _bench(tmp, "--workload", "qep_dense", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "metrics" not in out.stdout
