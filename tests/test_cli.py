"""Batch front end: file formats, subcommands, exit codes."""
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigensel import cli, jdsolver, mmio
from eigensel.homogeneous import ProjectivePoint, chordal_distance, from_scalar
from eigensel.jdsolver import JDOptions, jd_solve
from eigensel.mep import LinearMep3, MepOptions
from eigensel.problems import (
    PolyProblem,
    gen_example_2x2,
    gen_gyroscopic,
    gen_random_pep,
)


def diag_qep():
    """Eigenvalues 1, 2, 3, 4 on the coordinate axes."""
    return PolyProblem([np.diag([2.0, 12.0]), np.diag([-3.0, -7.0]),
                        np.eye(2)])


def solve_fixture(tmp_path):
    """Generate, solve, and return (manifest, outdir) for the diagonal QEP."""
    probdir = tmp_path / "prob"
    manifest = mmio.save_pep(str(probdir), diag_qep(), "diag_qep", {})
    outdir = tmp_path / "run"
    rc = cli.main([
        "solve", "--problem", manifest, "--out", str(outdir),
        "--target", "0", "0", "--num-pairs", "4", "--tol", "1e-10",
        "--mindim", "1", "--maxdim", "2", "--max-outer", "60", "--seed", "0",
    ])
    assert rc == 0
    return manifest, outdir


class TestGenerate:
    def test_example2x2_layout(self, tmp_path, capsys):
        d = tmp_path / "p"
        assert cli.main(["generate", "example2x2", "--out", str(d)]) == 0
        assert "wrote" in capsys.readouterr().out
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["format"] == "eigensel-manifest-v1"
        assert manifest["problem_type"] == "pep"
        assert manifest["kind"] == "example2x2"
        assert manifest["structure"]["coeffs"] == ["A0", "A1"]
        for entry in manifest["matrices"]:
            assert (d / entry["path"]).exists()
        ptype, prob = mmio.load_problem(str(d / "manifest.json"))
        assert ptype == "pep"
        assert prob.n == 2 and prob.degree == 1

    def test_regeneration_is_byte_identical(self, tmp_path):
        args = ["generate", "gyroscopic", "--n", "12", "--seed", "3"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(d1)]) == 0
        assert cli.main(args + ["--out", str(d2)]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_fourpoint_mep_layout(self, tmp_path):
        d = tmp_path / "bvp"
        assert cli.main(["generate", "fourpoint", "--grid", "8",
                         "--out", str(d)]) == 0
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["problem_type"] == "mep"
        assert len(manifest["matrices"]) == 12
        assert manifest["structure"]["factors"][0][0] == "T1_A"
        ptype, m = mmio.load_problem(str(d / "manifest.json"))
        assert ptype == "mep"
        assert isinstance(m, LinearMep3)
        assert m.dims == (7, 7, 7)

    def test_pep_roundtrip_exact(self, tmp_path):
        prob = diag_qep()
        manifest = mmio.save_pep(str(tmp_path / "q"), prob, "diag_qep", {})
        _, back = mmio.load_problem(manifest)
        for A, B in zip(prob.coeffs, back.coeffs):
            np.testing.assert_allclose(np.asarray(B), A, atol=0)

    def test_sparse_matrices_stay_sparse(self, tmp_path):
        d = tmp_path / "g"
        assert cli.main(["generate", "gyroscopic", "--n", "20",
                         "--out", str(d)]) == 0
        _, prob = mmio.load_problem(str(d / "manifest.json"))
        assert all(hasattr(A, "tocsc") for A in prob.coeffs)

    @pytest.mark.parametrize("args", [["random_pep", "--n", "0"],
                                      ["gyroscopic", "--n", "0"],
                                      ["fourpoint", "--grid", "1"]])
    def test_empty_problem_exits_5(self, tmp_path, capsys, args):
        d = tmp_path / "p"
        rc = cli.main(["generate", *args, "--out", str(d)])
        assert rc == cli.EXIT_IO
        assert "error:" in capsys.readouterr().err
        assert not (d / "manifest.json").exists()


class TestSolveAndVerify:
    def test_solve_writes_outputs(self, tmp_path, capsys):
        _, outdir = solve_fixture(tmp_path)
        results = json.loads((outdir / "results.json").read_text())
        assert results["problem"]["problem_type"] == "pep"
        assert len(results["pairs"]) == 4
        vals = sorted(complex(*p["value"]).real for p in results["pairs"])
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0, 4.0], atol=1e-8)
        assert not results["truncated"]

        csv_lines = (outdir / "convergence.csv").read_text().splitlines()
        assert csv_lines[0] == \
            "iteration,re_theta,im_theta,residual,criterion,event"
        assert any("converged" in ln for ln in csv_lines[1:])

        table = (outdir / "table.txt").read_text()
        assert table.startswith("kind=diag_qep")
        assert len(table.strip().splitlines()) == 3 + 4  # header rows + pairs
        assert "kind=diag_qep" in capsys.readouterr().out

    def test_verify_passes_on_good_results(self, tmp_path, capsys):
        manifest, outdir = solve_fixture(tmp_path)
        rc = cli.main(["verify", "--problem", manifest,
                       "--results", str(outdir / "results.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: PASS" in out
        assert "duplicates: none" in out

    def test_verify_flags_duplicates(self, tmp_path, capsys):
        manifest, outdir = solve_fixture(tmp_path)
        path = outdir / "results.json"
        results = json.loads(path.read_text())
        results["pairs"][1] = results["pairs"][0]
        path.write_text(json.dumps(results))
        rc = cli.main(["verify", "--problem", manifest,
                       "--results", str(path)])
        out = capsys.readouterr().out
        assert rc == 4
        assert "DUPLICATES" in out
        assert "verdict: FAIL" in out

    def test_truncated_run_exits_3(self, tmp_path):
        probdir = tmp_path / "prob"
        manifest = mmio.save_pep(str(probdir), diag_qep(), "diag_qep", {})
        rc = cli.main([
            "solve", "--problem", manifest, "--out", str(tmp_path / "r"),
            "--target", "0", "0", "--num-pairs", "4", "--mindim", "1",
            "--maxdim", "2", "--max-outer", "1",
        ])
        assert rc == 3

    def test_homogeneous_mode_flag(self, tmp_path):
        d = tmp_path / "g"
        assert cli.main(["generate", "gyroscopic", "--n", "16",
                         "--out", str(d)]) == 0
        manifest = str(d / "manifest.json")
        outdir = tmp_path / "run"
        rc = cli.main([
            "solve", "--problem", manifest, "--out", str(outdir),
            "--target", "0", "5", "--mode", "homogeneous",
            "--num-pairs", "2", "--tol", "1e-8", "--mindim", "6",
            "--maxdim", "12", "--max-outer", "200",
        ])
        assert rc == 0
        results = json.loads((outdir / "results.json").read_text())
        assert results["config"]["mode"] == "homogeneous"
        assert len(results["pairs"]) == 2
        assert all("point" in p for p in results["pairs"])
        rc = cli.main(["verify", "--problem", manifest,
                       "--results", str(outdir / "results.json")])
        assert rc == 0

    def test_homogeneous_infinite_target(self, tmp_path):
        d = tmp_path / "g"
        assert cli.main(["generate", "gyroscopic", "--n", "30",
                         "--out", str(d)]) == 0
        with pytest.warns(UserWarning, match="exactly singular"):
            rc = cli.main([
                "solve", "--problem", str(d), "--out", str(tmp_path / "run"),
                "--target", "inf", "0", "--mode", "homogeneous",
                "--num-pairs", "3",
            ])
        assert rc in (cli.EXIT_OK, cli.EXIT_TRUNCATED)

    def test_infinite_target_is_strict_json(self, tmp_path, capsys):
        # Python's json would read a bare Infinity token; strict parsers
        # reject it, so the infinite target must be written as {"inf": true}
        d = tmp_path / "g"
        assert cli.main(["generate", "gyroscopic", "--n", "30", "--seed", "0",
                         "--out", str(d)]) == 0
        outdir = tmp_path / "run"
        with pytest.warns(UserWarning, match="exactly singular"):
            cli.main(["solve", "--problem", str(d), "--out", str(outdir),
                      "--target", "inf", "0", "--mode", "homogeneous",
                      "--num-pairs", "3", "--seed", "0"])

        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        results = json.loads((outdir / "results.json").read_text(),
                             parse_constant=reject)
        assert results["config"]["target"] == {"inf": True}
        assert cli.main(["report", "--results",
                         str(outdir / "results.json")]) == 0
        with pytest.raises(ValueError):
            mmio.write_json(str(tmp_path / "nan.json"), {"x": math.nan})

    def test_config_records_every_option(self, tmp_path):
        _, outdir = solve_fixture(tmp_path)
        config = json.loads((outdir / "results.json").read_text())["config"]
        assert set(config) == {f.name for f in
                               dataclasses.fields(jdsolver.JDOptions)}


class TestVerifyPep:
    @staticmethod
    def verify(manifest, path, capsys):
        capsys.readouterr()
        rc = cli.main(["verify", "--problem", manifest, "--results", str(path)])
        return rc, capsys.readouterr().out

    @staticmethod
    def edit_first_pair(outdir, edit):
        path = outdir / "results.json"
        results = json.loads(path.read_text())
        edit(results["pairs"][0])
        path.write_text(json.dumps(results))
        return path

    def test_two_sided_oracle_not_needed(self, tmp_path, capsys, monkeypatch):
        manifest, outdir = solve_fixture(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("verify must not compute eigenvectors")

        monkeypatch.setattr(jdsolver, "oracle_all_eigenpairs", refuse)
        rc, out = self.verify(manifest, outdir / "results.json", capsys)
        assert rc == 0
        assert "verdict: PASS" in out

    def test_moved_value_fails(self, tmp_path, capsys):
        manifest, outdir = solve_fixture(tmp_path)

        def move(pair):
            pair["value"] = [v * (1 + 1e-4) for v in pair["value"]]

        rc, out = self.verify(manifest, self.edit_first_pair(outdir, move),
                              capsys)
        assert rc == 4
        assert "max mismatch 1.000e-04 (allowed 1.0e-06)" in out
        assert "verdict: FAIL" in out

    def test_residual_ignores_vector_scale(self, tmp_path, capsys):
        manifest, outdir = solve_fixture(tmp_path)

        def tilt(pair):
            # a residual of about 3e-8, well above rounding and under 1e-6
            pair["right"]["re"][1] += 1e-7

        path = self.edit_first_pair(outdir, tilt)
        _, before = self.verify(manifest, path, capsys)
        def scale(pair):
            pair["right"] = {key: [1e3 * v for v in pair["right"][key]]
                             for key in ("re", "im")}

        path = self.edit_first_pair(outdir, scale)
        rc, after = self.verify(manifest, path, capsys)
        assert rc == 0
        assert "verdict: PASS" in after
        assert after.splitlines()[0] == before.splitlines()[0]

    @pytest.mark.parametrize("scale", [1e-9, 0.0, float("nan")])
    def test_small_wrong_vector_fails(self, tmp_path, capsys, scale):
        manifest, outdir = solve_fixture(tmp_path)

        def wrong(pair):
            # eigenvalues 1, 2 live on e1 and 3, 4 on e2: take the other axis
            axis = [0.0, scale] if abs(complex(*pair["value"])) < 2.5 \
                else [scale, 0.0]
            pair["right"] = {"re": axis, "im": [0.0, 0.0]}

        path = self.edit_first_pair(outdir, wrong)
        rc, out = self.verify(manifest, path, capsys)
        assert rc == 4
        assert "verdict: FAIL" in out

    def test_cap_skip(self, tmp_path, capsys, monkeypatch):
        d = tmp_path / "pep"
        assert cli.main(["generate", "random_pep", "--n", "6",
                         "--out", str(d)]) == 0
        manifest = str(d / "manifest.json")
        outdir = tmp_path / "run"
        cli.main(["solve", "--problem", manifest, "--out", str(outdir),
                  "--num-pairs", "1", "--mindim", "2", "--maxdim", "6"])
        # the local check forms no spectrum, so the dense cap does not apply
        monkeypatch.setenv("EIGENSEL_ORACLE_CAP", "10")
        rc, out = self.verify(manifest, outdir / "results.json", capsys)
        assert rc == 0
        assert "SKIPPED" not in out
        assert "verdict: PASS" in out

    def test_value_between_two_eigenvalues_fails(self, tmp_path, capsys):
        manifest, outdir = solve_fixture(tmp_path)
        # chordally equidistant from the eigenvalues 1 and 2:
        # |s - 1| / sqrt(2) = |s - 2| / sqrt(5)
        s = (2 * math.sqrt(2) + math.sqrt(5)) / (math.sqrt(2) + math.sqrt(5))

        def move(pair):
            pair["value"] = [s, 0.0]

        rc, out = self.verify(manifest, self.edit_first_pair(outdir, move),
                              capsys)
        assert rc == 4
        assert "pair 0: value 1.38743+0j -> oracle 0 mismatch inf" in out
        assert "verdict: FAIL" in out

    @pytest.mark.parametrize("rtol", ["nan", "inf", "-1"])
    def test_meaningless_rtol_exits_5(self, tmp_path, capsys, rtol):
        manifest, outdir = solve_fixture(tmp_path)
        capsys.readouterr()
        rc = cli.main(["verify", "--problem", manifest, "--results",
                       str(outdir / "results.json"), f"--rtol={rtol}"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_IO
        assert "error: --rtol must be finite and nonnegative" in captured.err
        assert "verdict" not in captured.out


def _singular_lead_qep():
    """A quadratic whose leading coefficient has rank 5 of 8: three
    infinite eigenvalues."""
    rng = np.random.default_rng(5)
    A0, A1 = (rng.standard_normal((8, 8)) for _ in range(2))
    return PolyProblem([A0, A1, np.diag([1.0] * 5 + [0.0] * 3)])


class TestLocalEigenvalue:
    """verify's local check finds the dense oracle's eigenvalue nearest
    each returned pair."""

    @pytest.mark.parametrize("problem, opts", [
        (gen_random_pep(12, 1, seed=1), {}),
        (gen_random_pep(12, 2, seed=2), {}),
        (gen_random_pep(12, 3, seed=3), {}),
        (gen_random_pep(12, 2, seed=0, symmetric=True), {}),
        (_singular_lead_qep(), {"target": math.inf, "mode": "homogeneous"}),
        (gen_gyroscopic(30), {"target": 5j, "mode": "homogeneous",
                              "mindim": 6, "maxdim": 12, "tol": 1e-8}),
        (gen_gyroscopic(30), {"target": math.inf, "mode": "homogeneous",
                              "mindim": 6, "maxdim": 12, "tol": 1e-8}),
    ], ids=["degree1", "degree2", "degree3", "symmetric", "singular_lead",
            "gyroscopic", "gyroscopic_inf"])
    @pytest.mark.filterwarnings("ignore:matrix is exactly singular")
    def test_matches_oracle(self, problem, opts):
        opts = JDOptions(**{"num_pairs": 3, "mindim": 3, "maxdim": 8,
                            "tol": 1e-10, **opts})
        registry = jd_solve(problem, opts).registry
        assert len(registry) == 3
        if opts.target == math.inf:
            assert any(t.point.is_infinite for t in registry)
        oracle = [o.point for o in jdsolver.oracle_all_eigenpairs(problem)]
        for t in registry:
            point = cli._result_point(mmio.to_json(t))
            local = cli._local_eigenvalue(problem, point)
            nearest = min(oracle, key=lambda q: chordal_distance(point, q))
            if opts.mode == "homogeneous":
                assert chordal_distance(local, nearest) <= 1e-10
            else:
                lam = nearest.to_scalar()
                assert abs(local.to_scalar() - lam) <= 1e-10 * max(1, abs(lam))

    def test_shift_away_from_the_eigenvalue(self):
        # a shift 2% of the gap away: estimates must settle on the exact
        # eigenvalue, not just stay at the shift
        problem = gen_random_pep(8, 2, seed=4)
        lams = [o.value for o in jdsolver.oracle_all_eigenpairs(problem)]
        for k, lam in enumerate(lams):
            gap = min(abs(lam - mu) for i, mu in enumerate(lams) if i != k)
            shift = lam + 0.02 * gap * complex(math.cos(k), math.sin(k))
            local = cli._local_eigenvalue(problem, from_scalar(shift))
            assert abs(local.to_scalar() - lam) <= 1e-10 * max(1, abs(lam))

    def test_infinite_shift_with_a_regular_leading_coefficient(self):
        # A_2 is nonsingular, so infinity is no eigenvalue; the nearest one
        # is the single eigenvalue of modulus about 1e10
        rng = np.random.default_rng(7)
        A0, A1 = (rng.standard_normal((8, 8)) for _ in range(2))
        problem = PolyProblem([A0, A1, np.diag([1.0] * 7 + [1e-10])])
        oracle = [o.point for o in jdsolver.oracle_all_eigenpairs(problem)]
        ref = from_scalar(math.inf)
        nearest = min(oracle, key=lambda q: chordal_distance(ref, q))
        assert 0.0 < chordal_distance(ref, nearest) < 1e-9
        local = cli._local_eigenvalue(problem, ref)
        assert chordal_distance(local, nearest) <= 1e-15

    @pytest.mark.parametrize("phase", [1.0, 1j, complex(math.cos(0.3),
                                                  math.sin(0.3))])
    @pytest.mark.parametrize("beta", [1e-6, 3.8e-5, 1e-3])
    def test_next_to_a_defective_eigenvalue(self, phase, beta):
        # infinity is a defective eigenvalue of the gyroscopic problem:
        # inverse iteration nears it as 1/k and never settles, and the
        # Rayleigh-Ritz step on the last two iterates finds it
        ref = ProjectivePoint(1.0, 0.0)
        local = cli._local_eigenvalue(gen_gyroscopic(30),
                                      ProjectivePoint(1.0, beta * phase))
        assert local is not None
        assert chordal_distance(local, ref) <= 1e-10

    def test_close_eigenvalues_and_an_exact_shift(self):
        # eigenvalues 0 and 1e-6; P(0) is exactly singular
        problem = gen_example_2x2(1e-6, 1e-3)
        for lam in (0.0, 1e-6, 1e-12, 1e-6 + 1e-15):
            local = cli._local_eigenvalue(problem, from_scalar(lam))
            nearest = 0.0 if lam < 5e-7 else 1e-6
            assert abs(local.to_scalar() - nearest) <= 1e-16


class TestMepFlow:
    def test_generate_solve_verify_report(self, tmp_path, capsys):
        d = tmp_path / "bvp"
        assert cli.main(["generate", "fourpoint", "--grid", "8",
                         "--out", str(d)]) == 0
        manifest = str(d / "manifest.json")
        outdir = tmp_path / "run"
        rc = cli.main([
            "solve", "--problem", manifest, "--out", str(outdir),
            "--target", "0", "0", "--target-mu", "0", "0",
            "--target-nu", "0", "0", "--num-pairs", "2", "--tol", "1e-9",
            "--mindim", "4", "--maxdim", "7", "--max-outer", "120",
        ])
        assert rc == 0
        results = json.loads((outdir / "results.json").read_text())
        assert results["problem"]["problem_type"] == "mep"
        assert results["problem"]["nparams"] == 3
        for p in results["pairs"]:
            assert len(p["values"]) == 3
            assert len(p["oscillation"]) == 3

        csv_lines = (outdir / "convergence.csv").read_text().splitlines()
        assert csv_lines[0] == ("iteration,re_lambda,im_lambda,re_mu,im_mu,"
                                "re_nu,im_nu,residual,criterion,event")

        capsys.readouterr()
        rc = cli.main(["verify", "--problem", manifest,
                       "--results", str(outdir / "results.json")])
        assert rc == 0
        assert "verdict: PASS" in capsys.readouterr().out

        rc = cli.main(["report", "--results", str(outdir / "results.json"),
                       "--csv", str(outdir / "convergence.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "configuration:" in out
        assert "convergence log:" in out

    def test_verify_cap_skip(self, tmp_path, capsys, monkeypatch):
        d = tmp_path / "bvp"
        assert cli.main(["generate", "fourpoint", "--grid", "8",
                         "--out", str(d)]) == 0
        manifest = str(d / "manifest.json")
        outdir = tmp_path / "run"
        rc = cli.main([
            "solve", "--problem", manifest, "--out", str(outdir),
            "--num-pairs", "1", "--mindim", "4", "--maxdim", "7",
            "--max-outer", "120",
        ])
        assert rc == 0
        config = json.loads((outdir / "results.json").read_text())["config"]
        assert set(config) == {f.name for f in dataclasses.fields(MepOptions)}
        monkeypatch.setenv("EIGENSEL_ORACLE_CAP", "10")
        capsys.readouterr()
        rc = cli.main(["verify", "--problem", manifest,
                       "--results", str(outdir / "results.json")])
        assert rc == 0
        assert "SKIPPED" in capsys.readouterr().out


def _solve_table(capsys, argv):
    """The table a solve prints, without its settings line."""
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_OK
    return capsys.readouterr().out.split("\n", 1)[1]


@pytest.mark.parametrize("kind", ["standard", "homogeneous", "mep"])
def test_report_prints_the_table_solve_printed(tmp_path, capsys, kind):
    d, outdir = tmp_path / "p", tmp_path / "run"
    if kind == "standard":
        problem = mmio.save_pep(str(d), diag_qep(), "diag_qep", {})
        opts = ["--num-pairs", "4", "--tol", "1e-10", "--mindim", "1",
                "--maxdim", "2", "--max-outer", "60"]
    elif kind == "homogeneous":
        assert cli.main(["generate", "gyroscopic", "--n", "16",
                         "--out", str(d)]) == 0
        problem = str(d)
        opts = ["--target", "0", "5", "--mode", "homogeneous", "--num-pairs",
                "2", "--tol", "1e-8", "--mindim", "6", "--maxdim", "12"]
    else:
        assert cli.main(["generate", "fourpoint", "--grid", "8",
                         "--out", str(d)]) == 0
        problem = str(d)
        opts = ["--num-pairs", "2", "--mindim", "4", "--maxdim", "7",
                "--max-outer", "120"]
    table = _solve_table(capsys, ["solve", "--problem", problem,
                                  "--out", str(outdir)] + opts)
    assert len(table.splitlines()) >= 3
    assert cli.main(["report", "--results",
                     str(outdir / "results.json")]) == cli.EXIT_OK
    assert "\n" + table in capsys.readouterr().out


class TestReportAndErrors:
    def test_report_solo(self, tmp_path, capsys):
        _, outdir = solve_fixture(tmp_path)
        capsys.readouterr()
        rc = cli.main(["report", "--results", str(outdir / "results.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "configuration:" in out
        assert "outer_iterations" in out

    def test_missing_manifest_exits_5(self, tmp_path, capsys):
        rc = cli.main(["solve", "--problem", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "r")])
        assert rc == 5
        assert "error:" in capsys.readouterr().err

    def test_invalid_inner_steps_exits_5(self, tmp_path, capsys):
        manifest = mmio.save_pep(str(tmp_path / "prob"), diag_qep(),
                                 "diag_qep", {})
        rc = cli.main(["solve", "--problem", manifest,
                       "--out", str(tmp_path / "r"), "--target", "0", "0",
                       "--num-pairs", "4", "--mindim", "1", "--maxdim", "2",
                       "--inner-steps", "0"])
        assert rc == cli.EXIT_IO
        assert "error: inner_steps must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--tol", "nan"],
                                     ["--target", "inf", "0"]])
    def test_nonfinite_input_exits_5(self, tmp_path, capsys, bad):
        manifest = mmio.save_pep(str(tmp_path / "prob"), diag_qep(),
                                 "diag_qep", {})
        rc = cli.main(["solve", "--problem", manifest,
                       "--out", str(tmp_path / "r"), "--mindim", "1",
                       "--maxdim", "2", *bad])
        assert rc == cli.EXIT_IO
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r" / "results.json").exists()

    def test_foreign_json_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"format": "other-v0"}')
        rc = cli.main(["solve", "--problem", str(bad),
                       "--out", str(tmp_path / "r")])
        assert rc == 5
        assert "not an eigensel manifest" in capsys.readouterr().err

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "unknown_kind", "--out", "x"])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        # the package is importable from src without an installation
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "eigensel.cli", "generate", "example2x2",
             "--out", str(tmp_path / "p")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "wrote" in proc.stdout


def _readme_commands():
    """argv of every `eigensel` command in the README's command-line sh
    block, with line continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in text.split("```sh\n")[1:]]
    block = next(b for b in blocks if "eigensel generate" in b)
    lines = [ln.split("#", 1)[0].rstrip() for ln in block.splitlines()]
    argvs = shlex.split(" ".join(lines).replace("\\ ", " "))
    commands, argv = [], None
    for word in argvs:
        if word == "eigensel":
            argv = []
            commands.append(argv)
        else:
            argv.append(word)
    return commands


def test_readme_command_chain_passes_its_own_verify(tmp_path, monkeypatch,
                                                     capsys):
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == ["generate", "solve", "verify",
                                              "report"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_OK, argv
        if argv[0] == "verify":
            assert "verdict: PASS" in capsys.readouterr().out
