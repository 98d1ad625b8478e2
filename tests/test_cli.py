"""Batch front end: file formats, subcommands, exit codes."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigensel import cli, jdsolver, mmio
from eigensel.mep import LinearMep3
from eigensel.problems import PolyProblem


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

    def test_monic_and_qz_oracles_agree(self, tmp_path, capsys, monkeypatch):
        d = tmp_path / "pep"
        assert cli.main(["generate", "random_pep", "--n", "20", "--seed", "3",
                         "--out", str(d)]) == 0
        manifest = str(d / "manifest.json")
        outdir = tmp_path / "run"
        assert cli.main(["solve", "--problem", manifest, "--out", str(outdir),
                         "--num-pairs", "3", "--mindim", "4",
                         "--maxdim", "10"]) == 0
        path = outdir / "results.json"
        rc, monic = self.verify(manifest, path, capsys)
        monkeypatch.setattr(jdsolver, "MONIC_MIN_RCOND", math.inf)
        qz_rc, qz = self.verify(manifest, path, capsys)
        assert rc == qz_rc == 0
        assert "verdict: PASS" in monic
        monic, qz = monic.splitlines(), qz.splitlines()
        assert len(monic) == len(qz) == 6  # 3 pairs, duplicates, max, verdict
        # only the oracle index j of "pair k: ... -> oracle j" may differ
        for ln, qz_ln in zip(monic, qz):
            words = re.sub(r"oracle \d+", "", ln).split()
            qz_words = re.sub(r"oracle \d+", "", qz_ln).split()
            assert len(words) == len(qz_words)
            for word, qz_word in zip(words, qz_words):
                try:
                    assert abs(float(word) - float(qz_word)) <= 1e-12
                except ValueError:
                    assert word == qz_word

    def test_cap_skip(self, tmp_path, capsys, monkeypatch):
        d = tmp_path / "pep"
        assert cli.main(["generate", "random_pep", "--n", "6",
                         "--out", str(d)]) == 0
        manifest = str(d / "manifest.json")
        outdir = tmp_path / "run"
        cli.main(["solve", "--problem", manifest, "--out", str(outdir),
                  "--num-pairs", "1", "--mindim", "2", "--maxdim", "6"])
        monkeypatch.setenv("EIGENSEL_ORACLE_CAP", "10")
        rc, out = self.verify(manifest, outdir / "results.json", capsys)
        assert rc == 0
        assert "SKIPPED" in out
        assert "verdict" not in out


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
        monkeypatch.setenv("EIGENSEL_ORACLE_CAP", "10")
        capsys.readouterr()
        rc = cli.main(["verify", "--problem", manifest,
                       "--results", str(outdir / "results.json")])
        assert rc == 0
        assert "SKIPPED" in capsys.readouterr().out


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
