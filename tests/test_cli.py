"""Driver behavior: config resolution, determinism, exit codes, outputs."""
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from platecap import cli
from platecap.cli import (ConfigError, build_parser, main, parse_material,
                          resolve_config)
from platecap.fem import SolverError
from platecap.fundamental import ConstructionError
from platecap.inequalities import hardy_constant
from platecap.layer import ExtractionError
from platecap.reduction import ReductionError


def run_cli(argv):
    return main(list(argv))


def resolve(argv):
    args = build_parser().parse_args(list(argv))
    return resolve_config(args)


class TestConfigResolution:
    def test_defaults_fill_in(self):
        cfg = resolve(["run", "hardy"])
        assert cfg.kind == "hardy"
        assert cfg.params["samples"] == 10000
        assert cfg.params["variant"] == "all"
        assert cfg.seed == 0 and cfg.jobs == 1
        assert cfg.output == "hardy.csv"

    def test_flags_override_defaults(self):
        cfg = resolve(["run", "hardy", "--samples", "50", "--seed", "7",
                       "-o", "out.csv"])
        assert cfg.params["samples"] == 50
        assert cfg.seed == 7
        assert cfg.output == "out.csv"

    def test_config_file_then_flags(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"kind": "hardy", "samples": 11,
                                 "grid": 64, "seed": 3}))
        cfg = resolve(["run", "hardy", "--config", str(f)])
        assert cfg.params["samples"] == 11 and cfg.seed == 3
        # flags win over the file
        cfg = resolve(["run", "hardy", "--config", str(f),
                       "--samples", "99"])
        assert cfg.params["samples"] == 99
        assert cfg.params["grid"] == 64

    def test_config_kind_mismatch(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"kind": "capacity", "T": 8}))
        with pytest.raises(ConfigError, match="kind"):
            resolve(["run", "hardy", "--config", str(f)])

    def test_unknown_config_key(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"tickles": 3}))
        with pytest.raises(ConfigError, match="tickles"):
            resolve(["run", "hardy", "--config", str(f)])

    def test_removed_closure_option(self, tmp_path, capsys):
        # the capacity closure is fixed: the flag and the key are both
        # configuration errors (exit code 2)
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "capacity", "--closure", "plain"])
        assert exc.value.code == 2
        assert "--closure" in capsys.readouterr().err
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"kind": "capacity", "closure": "plain"}))
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve(["run", "capacity", "--config", str(f)])

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            resolve(["run", "hardy", "--config", str(tmp_path / "no.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            resolve(["run", "hardy", "--config", str(bad)])
        arr = tmp_path / "arr.json"
        arr.write_text("[1,2]")
        with pytest.raises(ConfigError, match="object"):
            resolve(["run", "hardy", "--config", str(arr)])

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError, match="jobs"):
            resolve(["run", "hardy", "--jobs", "0"])

    def test_variant_aliases(self):
        for label, name in (("2.15", "inverse-square"), ("2.16", "edge-log"),
                            ("2.21", "pole-log"), ("2.22", "shifted-quartic")):
            cfg = resolve(["run", "hardy", "--variant", label])
            assert cfg.params["variant"] == name

    def test_clamp_aliases(self):
        cfg = resolve(["run", "korn-sweep", "--mode", "supports"])
        assert cfg.params["mode"] == "supports-only"
        cfg = resolve(["run", "korn-sweep", "--mode", "lateral"])
        assert cfg.params["mode"] == "lateral+support"

    def test_korn_centers_win_over_J(self):
        cfg = resolve(["run", "korn-sweep", "--centers", "0.2,0.3;0.8,0.7",
                       "--J", "3"])
        assert cfg.params["J"] == 2
        assert cfg.params["centers"] == "0.2,0.3;0.8,0.7"

    def test_validator_rejections(self):
        cases = [
            (["run", "hardy", "--variant", "bogus"], "variant"),
            (["run", "hardy", "--grid", "4"], "grid"),
            (["run", "korn-sweep", "--h", "0.1,zap"], "float list"),
            (["run", "korn-sweep", "--J", "5"], "layout"),
            (["run", "kirchhoff", "--spacing", "0.9"], "spacing"),
            (["run", "kirchhoff", "--study", "solve", "--point", "1.5,0.5"],
             "point"),
            (["run", "kirchhoff", "--study", "solve", "--load", "gaussian"],
             "load"),
            (["run", "fundsol-verify", "--radii", "0,1"], "radii"),
            (["run", "fundsol-verify", "--n-angular", "8"], "n_angular"),
            (["run", "ansatz-residual", "--degree", "11"], "degree"),
            (["run", "capacity", "--growth-cap", "1.0"], "growth_cap"),
            (["run", "capacity", "--annulus", "0.8,0.55"], "annulus"),
            (["run", "capacity", "--theta", "square"], "theta"),
        ]
        for argv, frag in cases:
            with pytest.raises(ConfigError, match=frag):
                resolve(argv)

    def test_parse_material_forms(self, tmp_path):
        A = parse_material("iso:2,1")
        assert A.shape == (6, 6)
        inline = json.dumps({"lambda": 2, "mu": 1})
        assert np.allclose(parse_material(inline), A)
        f = tmp_path / "mat.json"
        f.write_text(inline)
        assert np.allclose(parse_material(f"file:{f}"), A)
        for bad in ("iso:1", "iso:-1,2", "steel", "file:/nope.json"):
            with pytest.raises(ConfigError):
                parse_material(bad)

    def test_parser_reused_without_carrying_values(self):
        assert build_parser() is build_parser()
        first = resolve(["run", "korn-sweep", "--h", "0.2", "--jobs", "2"])
        second = resolve(["run", "korn-sweep"])
        assert first.params["h"] == "0.2" and first.jobs == 2
        assert second.params["h"] == "0.2,0.1,0.05,0.025"
        assert second.jobs == 1

    def test_plan_is_sorted_json(self):
        cfg = resolve(["run", "fundsol-verify"])
        plan = cfg.plan()
        rec = json.loads(plan)
        assert rec["kind"] == "fundsol-verify"
        assert list(rec) == sorted(rec)


class TestMainEntry:
    def test_dry_run_prints_plan_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        rc = run_cli(["run", "hardy", "--samples", "5", "-o", str(out),
                      "--dry-run"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["params"]["samples"] == 5
        assert not out.exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc = run_cli(["run", "hardy", "--variant", "bogus",
                      "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("platecap:")
        assert "bogus" in err

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_capacity_mesh_error_exit_2(self, tmp_path, capsys, dry):
        out = tmp_path / "c.json"
        for flags, frag in [(["--T", "4"], "quarter of the box"),
                            (["--T", "7"], "eight patch radii"),
                            (["--annulus", "0.5,0.97"], "annulus fractions"),
                            (["--annulus", "0.2,0.5"], "overlaps the near")]:
            rc = run_cli(["run", "capacity"] + flags + ["-o", str(out)]
                         + dry)
            assert rc == 2, flags
            assert frag in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_korn_layout_error_exit_2(self, tmp_path, capsys, dry):
        out = tmp_path / "k.csv"
        rc = run_cli(["run", "korn-sweep", "--h", "0.9", "-o", str(out)]
                     + dry)
        assert rc == 2
        assert "leaves the rectangle" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_kirchhoff_geometry_error_exit_2(self, tmp_path, capsys, dry):
        out = tmp_path / "s.csv"
        short = tmp_path / "load.csv"
        short.write_text("1,1,1\n")
        for flags, frag in [(["--point", "0.01,0.5"], "strictly interior"),
                            (["--load", f"file:{short}"], "rows of g1,g2,g3")]:
            rc = run_cli(["run", "kirchhoff", "--study", "solve"] + flags
                         + ["-o", str(out)] + dry)
            assert rc == 2, flags
            assert frag in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_kirchhoff_convergence_rejects_solve_flags(self, tmp_path, capsys,
                                                       dry):
        # the convergence study solves manufactured problems: a support
        # point or a load it would ignore is a configuration error
        out = tmp_path / "c.csv"
        for flags in (["--point", "0.3,0.3"], ["--load", "constant"]):
            rc = run_cli(["run", "kirchhoff", "--levels", "1"] + flags
                         + ["-o", str(out)] + dry)
            assert rc == 2, flags
            assert "apply to --study solve only" in capsys.readouterr().err
            assert not out.exists()
        # the defaults, spelled out, are what the study runs with
        rc = run_cli(["run", "kirchhoff", "--point", "0.5,0.5", "--load",
                      "sine-bump", "--dry-run"])
        assert rc == 0

    def test_bad_log_level_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("PLATECAP_LOG", "chatty")
        rc = run_cli(["run", "hardy", "--dry-run"])
        assert rc == 2
        assert "PLATECAP_LOG" in capsys.readouterr().err

    @pytest.mark.parametrize("target, error, argv", [
        ("extract_capacity", ExtractionError("column 2 did not converge"),
         ["capacity", "--nz", "2", "--inner-step", "0.5",
          "--growth-cap", "3"]),
        ("korn_constant", SolverError("eigen residual 1e-3 above tol"),
         ["korn-sweep", "--h", "0.2"]),
        ("build_dimension_reduction", ReductionError("face defect"),
         ["ansatz-residual", "--degree", "1"]),
        ("construct_fundamental",
         ConstructionError("identity 'biorthogonality' defect 4.028e-05"),
         ["fundsol-verify", "--n-angular", "16"]),
        # a capacity run builds its Phi inside the extraction; a target
        # without a module is patched in platecap.cli
        ("layer.construct_fundamental",
         ConstructionError("identity 'bending charge' defect 2.1e-04"),
         ["capacity", "--nz", "2", "--inner-step", "0.5",
          "--growth-cap", "3"]),
    ])
    def test_compute_error_exit_1(self, tmp_path, capsys, monkeypatch,
                                  target, error, argv):
        def fail(*args, **kwargs):
            raise error

        module, _, name = target.rpartition(".")
        monkeypatch.setattr(f"platecap.{module or 'cli'}.{name}", fail)
        out = tmp_path / "out"
        rc = run_cli(["run"] + argv + ["-o", str(out)])
        assert rc == 1
        # a korn point names its h
        where = "h=0.2: " if target == "korn_constant" else ""
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"platecap: FAIL {argv[0]}: "
                       f"{type(error).__name__}: {where}{error}"]
        assert not out.exists()

    def test_korn_failure_names_its_h_under_jobs(self, tmp_path, capsys,
                                                 monkeypatch):
        real = cli.korn_constant

        def fail_at_small_h(layout, *args, **kwargs):
            if layout.h == 0.1:
                raise SolverError("eigen residual 1e-3 above tol")
            return real(layout, *args, **kwargs)

        monkeypatch.setattr(cli, "korn_constant", fail_at_small_h)
        out = tmp_path / "k.csv"
        rc = run_cli(["run", "korn-sweep", "--h", "0.2,0.1", "--jobs", "2",
                      "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["platecap: FAIL korn-sweep: SolverError: h=0.1: "
                       "eigen residual 1e-3 above tol"]
        assert not out.exists()

    def test_assertion_failure_exit_1(self, tmp_path, capsys):
        # an unreachable tolerance flips the fundsol gate
        out = tmp_path / "f.json"
        rc = run_cli(["run", "fundsol-verify", "--n-angular", "64",
                      "--tol", "1e-20", "-o", str(out)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err
        # the record is still written, with pass false
        rec = json.loads(out.read_text())
        assert rec["pass"] is False


class TestHardyRuns:
    def test_single_variant_rows_and_bound(self, tmp_path):
        out = tmp_path / "h.csv"
        rc = run_cli(["run", "hardy", "--variant", "2.15", "--samples", "40",
                      "--grid", "256", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "variant,sample,ratio"
        assert len(lines) == 41
        bound = hardy_constant("inverse-square")
        for line in lines[1:]:
            name, _, ratio = line.split(",")
            assert name == "inverse-square"
            assert float(ratio) <= bound + 1e-3

    def test_all_variants(self, tmp_path):
        out = tmp_path / "h.csv"
        rc = run_cli(["run", "hardy", "--samples", "10", "--grid", "128",
                      "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 41
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"inverse-square", "edge-log", "pole-log",
                         "shifted-quartic"}

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = run_cli(["run", "hardy", "--variant", "pole-log",
                          "--samples", "20", "--grid", "128", "--seed", "3",
                          "-o", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        other = tmp_path / "c.csv"
        run_cli(["run", "hardy", "--variant", "pole-log", "--samples", "20",
                 "--grid", "128", "--seed", "4", "-o", str(other)])
        assert other.read_bytes() != outs[0]


class TestKornRuns:
    def test_sweep_output_and_jobs_determinism(self, tmp_path):
        base = ["run", "korn-sweep", "--h", "0.2,0.1", "--mode", "supports",
                "--variant", "free-edge", "--resolution", "2", "--nz", "2"]
        outs = []
        for name, jobs in (("k1.csv", "1"), ("k2.csv", "2")):
            out = tmp_path / name
            rc = run_cli(base + ["--jobs", jobs, "-o", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().strip().split("\n")
        assert lines[0] == ("h,J,clamp_mode,norm_variant,K_estimate,"
                            "mesh_cells,eig_residual")
        assert len(lines) == 4
        assert lines[-1].startswith("# fit K ~ a + b*(1+|ln h|): slope=")
        assert "r_squared=" in lines[-1]
        for line in lines[1:3]:
            h, J, mode, variant = line.split(",")[:4]
            assert J == "2" and mode == "supports-only"
            assert variant == "free-edge"

    def test_single_thickness_flat_fit(self, tmp_path):
        out = tmp_path / "k.csv"
        rc = run_cli(["run", "korn-sweep", "--h", "0.2", "--J", "1",
                      "--resolution", "2", "--nz", "2", "-o", str(out)])
        assert rc == 0
        assert "slope=0" in out.read_text()


class TestKirchhoffRuns:
    def test_convergence_orders(self, tmp_path):
        out = tmp_path / "kc.csv"
        rc = run_cli(["run", "kirchhoff", "--spacing", "0.25",
                      "--levels", "2", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "spacing,err_membrane,err_bending"
        assert len(lines) == 5
        assert lines[-1].startswith("# order membrane=")
        errs = np.array([[float(x) for x in line.split(",")[1:]]
                         for line in lines[1:4]])
        assert (errs[1:] < errs[:-1]).all()

    def test_point_solve(self, tmp_path):
        out = tmp_path / "ks.csv"
        rc = run_cli(["run", "kirchhoff", "--study", "solve",
                      "--spacing", "0.125", "--load", "constant",
                      "--point", "0.25,0.5", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "y1,y2,w1,w2,w3"
        # 9x9 grid of nodes
        assert len(lines) == 82
        # the support point pins w3 while the load bends elsewhere
        vals = {tuple(line.split(",")[:2]): float(line.split(",")[4])
                for line in lines[1:]}
        assert abs(vals[("0.25", "0.5")]) < 1e-12
        assert max(abs(v) for v in vals.values()) > 1e-6


class TestFundsolRuns:
    def test_pass_record(self, tmp_path):
        out = tmp_path / "f.json"
        rc = run_cli(["run", "fundsol-verify", "--n-angular", "128",
                      "-o", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["pass"] is True
        assert rec["max_defect"] < 1e-10
        assert [e["radius"] for e in rec["radii"]] == [0.5, 1.0, 2.0]
        assert set(rec["radii"][0]["defects"]) == {
            "traction resultant", "energy orthogonality", "bending charge",
            "bending moment", "gradient charge", "biorthogonality"}

    def test_orthotropic_inline_material(self, tmp_path):
        out = tmp_path / "f.json"
        mat = {"A": [4.0, 1.1, 0.0, 0.0, 0.0, 0.9,
                     5.2, 0.0, 0.0, 0.0, 1.0,
                     1.5, 0.0, 0.0, 0.0,
                     1.2, 0.0, 0.0,
                     1.3, 0.0,
                     3.8]}
        rc = run_cli(["run", "fundsol-verify", "--material", json.dumps(mat),
                      "--n-angular", "256", "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["pass"] is True


class TestAnsatzRuns:
    def test_small_battery(self, tmp_path):
        out = tmp_path / "a.json"
        rc = run_cli(["run", "ansatz-residual", "--degree", "2",
                      "--anisotropic-samples", "1", "-o", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["pass"] is True
        # 6 monomials of degree <= 2, 3 components, 2 materials
        assert rec["fields_checked"] == 36
        assert [m["material"] for m in rec["materials"]] == ["isotropic",
                                                             "random-0"]
        for m in rec["materials"]:
            assert m["coefficients_match"] is True
            assert m["bad_monomials"] == []


class TestCapacityRuns:
    def test_record_and_determinism(self, tmp_path):
        argv = ["run", "capacity", "--nz", "3", "--inner-step", "0.5",
                "--growth-cap", "1.5"]
        blobs = []
        for name in ("c1.json", "c2.json"):
            out = tmp_path / name
            rc = run_cli(argv + ["-o", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        rec = json.loads(blobs[0])
        assert 0 < rec["symmetry_defect"] < 0.25
        assert rec["closure"] == "enriched"
        C = np.array(rec["C_sharp"]).reshape(4, 4)
        assert (np.diag(C) < 0).all()
        assert C[0, 0] == pytest.approx(C[1, 1], abs=1e-11)
        assert rec["iterations"] == [2, 2, 2, 2]

    def test_unverified_columns_exit_1(self, tmp_path, capsys,
                                       monkeypatch):
        # no verification sweep meets a negative tolerance: the record is
        # still written, and the failure line names every column
        monkeypatch.setattr("platecap.layer._SWEEP_TOL", -1.0)
        out = tmp_path / "c.json"
        rc = run_cli(["run", "capacity", "--nz", "2", "--inner-step", "0.5",
                      "--growth-cap", "3", "-o", str(out)])
        assert rc == 1
        rec = json.loads(out.read_text())
        assert rec["iterations"] == [2, 2, 2, 2]
        assert rec["warning"] is True
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if ln.startswith("platecap: FAIL")] == [
            "platecap: FAIL capacity: verification sweep missed the fixed "
            "point on columns [0, 1, 2, 3]"]

    def test_jobs_do_not_change_output(self, tmp_path):
        argv = ["run", "capacity", "--nz", "2", "--inner-step", "0.5",
                "--growth-cap", "3"]
        blobs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"c{jobs}.json"
            assert run_cli(argv + ["--jobs", jobs, "-o", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_decay_output_and_theta_radius(self, tmp_path):
        out = tmp_path / "c.json"
        trace = tmp_path / "d.csv"
        rc = run_cli(["run", "capacity", "--nz", "3", "--inner-step", "0.4",
                      "--growth-cap", "1.5", "--theta", "disk:0.8",
                      "-o", str(out), "--decay-output", str(trace)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["theta_spec"] == "disk:r=0.8"
        assert rec["closure"] == "enriched"
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "rho,row1,row2,row3"
        assert len(lines) > 5


# reads every loaded OpenBLAS pool's thread count, independently of the CLI
COUNT_POOLS = """
import ctypes, os
def pool_counts():
    counts = {}
    for line in open("/proc/self/maps"):
        f = line.split()
        if len(f) != 6 or "openblas" not in os.path.basename(f[5]):
            continue
        lib = ctypes.CDLL(f[5], mode=os.RTLD_NOLOAD)
        for name in ("scipy_openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                counts[f[5]] = getattr(lib, name)()
                break
    return counts
"""


@pytest.fixture
def pools_at_two():
    """Every OpenBLAS pool on two threads for the test, then as before."""
    pools = cli._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS library loaded")
    old = [get() for _, get in pools]
    for setter, _ in pools:
        setter(2)
    yield pools
    for (setter, _), n in zip(pools, old):
        setter(n)


def thread_counts(pools):
    return [get() for _, get in pools]


class TestBlasThreads:
    HARDY = ["run", "hardy", "--variant", "2.15", "--samples", "5",
             "--grid", "64"]

    def _record_runner(self, monkeypatch, pools, error=None):
        seen = []

        def runner(cfg):
            seen.append(thread_counts(pools))
            if error is not None:
                raise error
            return {cfg.output: "x\n"}, []

        monkeypatch.setitem(cli.RUNNERS, "hardy", runner)
        return seen

    def test_one_thread_inside_run(self, tmp_path, monkeypatch,
                                   pools_at_two):
        seen = self._record_runner(monkeypatch, pools_at_two)
        assert run_cli(self.HARDY + ["-o", str(tmp_path / "h.csv")]) == 0
        assert seen == [[1] * len(pools_at_two)]
        assert thread_counts(pools_at_two) == [2] * len(pools_at_two)

    @pytest.mark.parametrize("flags, error, rc", [
        ([], None, 0),
        (["--grid", "4"], None, 2),
        ([], SolverError("factorization failed"), 1),
    ])
    def test_counts_restored_on_exit(self, tmp_path, monkeypatch, capsys,
                                     pools_at_two, flags, error, rc):
        self._record_runner(monkeypatch, pools_at_two, error)
        out = tmp_path / "h.csv"
        assert run_cli(self.HARDY + flags + ["-o", str(out)]) == rc
        assert thread_counts(pools_at_two) == [2] * len(pools_at_two)
        assert out.exists() == (rc == 0)

    def test_counts_restored_when_run_raises(self, tmp_path, monkeypatch,
                                             pools_at_two):
        self._record_runner(monkeypatch, pools_at_two,
                            RuntimeError("unexpected"))
        with pytest.raises(RuntimeError, match="unexpected"):
            run_cli(self.HARDY + ["-o", str(tmp_path / "h.csv")])
        assert thread_counts(pools_at_two) == [2] * len(pools_at_two)

    def test_import_changes_no_pool(self):
        script = COUNT_POOLS + (
            "import json, numpy, scipy.sparse.linalg\n"
            "before = pool_counts()\n"
            "from platecap import cli\n"
            "print(json.dumps([before, pool_counts(),"
            " cli._openblas_pools.cache_info().currsize == 0]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        before, after, undiscovered = json.loads(done.stdout)
        if not before:
            pytest.skip("no OpenBLAS library loaded")
        assert after == before
        assert undiscovered

    def test_no_pool_found_same_output(self, tmp_path, monkeypatch):
        argv = ["run", "korn-sweep", "--h", "0.2", "--mode", "supports",
                "--variant", "free-edge", "--resolution", "2", "--nz", "2"]
        out = tmp_path / "k.csv"
        assert run_cli(argv + ["-o", str(out)]) == 0
        monkeypatch.setattr(cli, "_openblas_pools", lambda: ())
        bare = tmp_path / "bare.csv"
        assert run_cli(argv + ["-o", str(bare)]) == 0
        assert bare.read_bytes() == out.read_bytes()

    def test_info_line_once_per_process(self, tmp_path, caplog):
        cli._openblas_pools.cache_clear()
        caplog.set_level(logging.INFO, logger="platecap")
        for name in ("a.csv", "b.csv"):
            assert run_cli(self.HARDY + ["-o", str(tmp_path / name)]) == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("blas: ")]
        assert len(lines) == 1
        pools = cli._openblas_pools()
        if pools:
            assert lines[0].startswith(
                f"blas: {len(pools)} OpenBLAS pools at 1 thread (were ")
        else:
            assert lines[0].startswith("blas: no OpenBLAS pool found")
