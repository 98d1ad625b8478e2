"""results.json encoding: mmio.to_json against the encoders it replaced,
and mmio.from_json as its inverse."""
import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from eigensel import homogeneous as hom
from eigensel import mmio
from eigensel.jdsolver import JDOptions, jd_solve
from eigensel.mep import (
    MepOptions,
    MepTriplet,
    gen_random_mep,
    mep_subspace_solve,
)
from eigensel.problems import PolyProblem, gen_gyroscopic, gen_random_pep

# -- reference encoders: the per-class code mmio.to_json replaced ----------


def value_reference(v):
    """[re, im] of a scalar, {"inf": true} when it is infinite; a
    ProjectivePoint is read as its scalar."""
    if isinstance(v, hom.ProjectivePoint):
        v = v.to_scalar()
    v = complex(v)
    if cmath.isinf(v):
        return {"inf": True}
    return [v.real, v.imag]


def vec_reference(v):
    v = np.asarray(v)
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def eigen_triplet_reference(t):
    """JSON-ready dict of an EigenTriplet: scalars through value_reference,
    vectors as split re/im arrays, a NaN cond or residual as None."""
    d = {
        "value": value_reference(t.value),
        "right": vec_reference(t.right),
        "left": vec_reference(t.left),
        "denom": value_reference(t.denom),
        "cond": None if math.isnan(t.cond) else float(t.cond),
        "residual": None if math.isnan(t.residual) else float(t.residual),
        "found_iteration": int(t.found_iteration),
    }
    if t.point is not None:
        d["point"] = {
            "alpha": [t.point.alpha.real, t.point.alpha.imag],
            "beta": [t.point.beta.real, t.point.beta.imag],
        }
    return d


def mep_triplet_reference(t):
    """JSON-ready dict of a MepTriplet, encoded as an EigenTriplet is."""
    return {
        "values": [value_reference(v) for v in t.values],
        "xs": [vec_reference(x) for x in t.xs],
        "ys": [vec_reference(y) for y in t.ys],
        "denom": value_reference(t.denom),
        "residual": None if math.isnan(t.residual) else t.residual,
        "found_iteration": t.found_iteration,
    }


def config_reference(opts):
    """The config entry of results.json: the option fields, with the target
    (or each target of a tuple) through value_reference."""
    target = opts.target
    if isinstance(target, tuple):
        target = [value_reference(x) for x in target]
    else:
        target = value_reference(target)
    return {**dataclasses.asdict(opts), "target": target}


def written(payload):
    """The bytes results.json gets for payload."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


# -- encoder against the references ----------------------------------------


def singular_lead_qep():
    """A quadratic whose leading coefficient has rank 5 of 8: three simple
    infinite eigenvalues, which register."""
    rng = np.random.default_rng(5)
    A0, A1 = (rng.standard_normal((8, 8)) for _ in range(2))
    return PolyProblem([A0, A1, np.diag([1.0] * 5 + [0.0] * 3)])


@pytest.mark.filterwarnings("ignore:matrix is exactly singular")
@pytest.mark.parametrize("problem, opts, infinite", [
    (gen_random_pep(12, 2, seed=2), {}, False),
    # the infinite eigenvalue of gen_gyroscopic is defective and blocked,
    # so only finite points are registered at the target infinity
    (gen_gyroscopic(30), {"target": math.inf, "mode": "homogeneous",
                          "mindim": 6, "maxdim": 12, "tol": 1e-8}, False),
    (singular_lead_qep(), {"target": math.inf, "mode": "homogeneous"}, True),
], ids=["standard", "homogeneous", "homogeneous_inf"])
def test_jd_registry_matches_reference(problem, opts, infinite):
    opts = JDOptions(**{"num_pairs": 3, "mindim": 3, "maxdim": 8,
                        "tol": 1e-10, **opts})
    registry = jd_solve(problem, opts).registry
    assert len(registry) == 3
    if opts.mode == "homogeneous":
        assert all(t.point is not None for t in registry)
        assert any(t.point.is_infinite for t in registry) == infinite
    else:
        assert all(t.point is None for t in registry)
    assert written(mmio.to_json(registry)) == written(
        [eigen_triplet_reference(t) for t in registry])


def test_mep_registry_matches_reference():
    m = gen_random_mep((6, 6), seed=29)
    res = mep_subspace_solve(m, MepOptions(
        target=(0.0, 0.0), num_pairs=2, tol=1e-9, mindim=3, maxdim=6,
        max_outer=80, seed=2))
    assert len(res.registry) == 2
    assert written(mmio.to_json(res.registry)) == written(
        [mep_triplet_reference(t) for t in res.registry])


def test_nan_residual_is_null():
    # registered values are complex (mep_register), so they keep [re, im]
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    t = MepTriplet((1.0 + 0j, -2.5 + 0.5j), [x], [x.conj()], 0.25 - 1j)
    d = mmio.to_json(t)
    assert d["residual"] is None
    assert written(d) == written(mep_triplet_reference(t))


@pytest.mark.parametrize("opts", [
    JDOptions(target=math.inf, mode="homogeneous"),
    MepOptions(target=(0.5 + 1j, -2.0 + 0j), num_pairs=3, seed=4),
], ids=["jd_infinite_target", "mep"])
def test_config_matches_reference(opts):
    assert written(mmio.to_json(opts)) == written(config_reference(opts))


def test_one_call_per_encoded_object(monkeypatch):
    # a tracer wraps the public to_json; the recursion must not re-enter it
    calls = []
    to_json = mmio.to_json
    monkeypatch.setattr(mmio, "to_json",
                        lambda x: calls.append(x) or to_json(x))
    mmio.to_json([1j, [math.inf, (2.0 + 0j, np.ones(2))]])
    assert len(calls) == 1


# -- decoder ---------------------------------------------------------------


def roundtrip(v):
    return mmio.from_json(json.loads(written(mmio.to_json(v))))


def test_decode_inverts_encode_bitwise():
    z = complex(math.pi, -math.e)
    assert roundtrip(z) == z
    assert roundtrip(math.inf) == math.inf
    assert roundtrip(complex(math.inf, 0.0)) == math.inf
    rng = np.random.default_rng(1)
    x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    assert roundtrip(x).tobytes() == x.tobytes()
    points = rng.standard_normal((20, 4)).view(complex)
    for alpha, beta in [(1.0, 0.0), *points]:
        p = hom.scale_canonical(hom.ProjectivePoint(alpha, beta))
        q = roundtrip(p)
        assert (q.alpha, q.beta) == (p.alpha, p.beta)
