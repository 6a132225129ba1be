"""Tests for the command-line front end: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ipaudit.cli import main
from ipaudit.components import Component, write_library
from ipaudit.spectra import LossSpectrum, canonical_grid, load_loss_csv


def write_raw_spectrum(path, values, grid=None):
    grid = canonical_grid() if grid is None else grid
    rows = "\n".join(f"{w},{v}" for w, v in zip(grid, values))
    path.write_text(f"# unit: linear-power\nwavelength_nm,value\n{rows}\n")


def make_flat_library(root, db=50.0, comp_id="flat", floor=150.0):
    grid = canonical_grid()
    loss = LossSpectrum(grid, np.full(grid.size, db), np.zeros(grid.size, bool), floor_db=floor)
    comp = Component(id=comp_id, kind="custom", losses={"forward": loss}, provenance="synthetic")
    write_library({comp.id: comp}, root)
    return comp


def chain_config(path, components, input_power_dbm=40.0, thresholds=None):
    doc = {
        "input_power_dbm": input_power_dbm,
        "slots": [
            {"alternatives": [{"component": c, "direction": d}]} for c, d in components
        ],
    }
    if thresholds is not None:
        doc["thresholds"] = thresholds
    path.write_text(json.dumps(doc, indent=2))


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestUsdCommand:
    def test_writes_curves_with_identity_row(self, tmp_path):
        assert main(["usd", "--n", "2", "--alpha", "1", "--x-max", "2", "--outdir", str(tmp_path)]) == 0
        ratio = (tmp_path / "usd_ratio.csv").read_text().splitlines()
        assert ratio[0] == "x,f"
        row = next(line for line in ratio if line.startswith("1.0,"))
        assert float(row.split(",")[1]) == 1.0
        prob = (tmp_path / "usd_probability.csv").read_text().splitlines()
        assert prob[0] == "x,p_usd"
        assert len(prob) == len(ratio) == 202  # header + 201 grid points

    def test_invalid_parameters_exit_one(self, tmp_path, capsys):
        assert main(["usd", "--alpha", "0", "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ipaudit:")
        assert len(err.strip().splitlines()) == 1
        assert not list(tmp_path.iterdir())  # no partial outputs


class TestScwCommand:
    def test_baseline_row(self, tmp_path):
        assert main([
            "scw", "--alpha0-sq", "1", "--m", "0.434", "--dm", "1",
            "--outdir", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "holevo_vs_dm.csv").read_text().splitlines()
        assert lines[0] == "dm,chi_attacked,chi_baseline"
        last = lines[-1].split(",")
        assert last[0] == "1.0"
        assert float(last[1]) == pytest.approx(0.5829, abs=0.005)
        assert float(last[1]) == float(last[2])

    def test_window_violation_exits_one(self, tmp_path, capsys):
        assert main(["scw", "--m", "0.7", "--dm", "2", "--outdir", str(tmp_path)]) == 1
        assert "monotone" in capsys.readouterr().err


class TestLossesCommand:
    def test_flat_twenty_db(self, tmp_path):
        ref = tmp_path / "ref.csv"
        mes = tmp_path / "mes.csv"
        grid = canonical_grid()
        write_raw_spectrum(ref, np.ones(grid.size))
        write_raw_spectrum(mes, np.full(grid.size, 0.01))
        out = tmp_path / "loss.csv"
        assert main(["losses", "--ref", str(ref), "--mes", str(mes), "--out", str(out)]) == 0
        loss = load_loss_csv(out)
        assert np.allclose(loss.loss_db, 20.0, atol=1e-12)

    def test_multiple_runs_aggregate(self, tmp_path):
        grid = canonical_grid()
        ref = tmp_path / "ref.csv"
        write_raw_spectrum(ref, np.ones(grid.size))
        m1 = tmp_path / "m1.csv"
        m2 = tmp_path / "m2.csv"
        write_raw_spectrum(m1, np.full(grid.size, 0.009))
        write_raw_spectrum(m2, np.full(grid.size, 0.011))
        out = tmp_path / "loss.csv"
        assert main([
            "losses", "--ref", str(ref), "--mes", str(m1), str(m2), "--out", str(out),
        ]) == 0
        loss = load_loss_csv(out)
        assert loss.n_runs == 2
        assert loss.stddev_db is not None
        assert np.allclose(loss.loss_db, 20.0, atol=1e-9)

    def test_resample_grid_option(self, tmp_path):
        fine = 400.0 + 1.5 * np.arange(267)  # a 1.5 nm instrument grid
        ref = tmp_path / "ref.csv"
        mes = tmp_path / "mes.csv"
        write_raw_spectrum(ref, np.ones(fine.size), grid=fine)
        write_raw_spectrum(mes, np.full(fine.size, 0.1), grid=fine)
        out = tmp_path / "loss.csv"
        assert main([
            "losses", "--ref", str(ref), "--mes", str(mes),
            "--grid", "400:799:1", "--out", str(out),
        ]) == 0
        loss = load_loss_csv(out)
        assert loss.wavelengths_nm[0] == 400.0 and loss.wavelengths_nm[-1] == 799.0
        assert np.allclose(loss.loss_db, 10.0, atol=1e-9)

    def test_missing_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "loss.csv"
        rc = main(["losses", "--ref", str(tmp_path / "nope.csv"), "--mes",
                   str(tmp_path / "nope.csv"), "--out", str(out)])
        assert rc == 1
        assert not out.exists()


class TestChainCommand:
    def test_protected_hundred_db_fixture(self, tmp_path, capsys):
        lib_dir = tmp_path / "lib"
        make_flat_library(lib_dir, db=100.0)
        cfg = tmp_path / "audit.chain.json"
        chain_config(cfg, [("flat", "forward")])
        outdir = tmp_path / "out"
        rc = main(["chain", "--config", str(cfg), "--library", str(lib_dir),
                   "--outdir", str(outdir)])
        assert rc == 0
        assert "protected" in capsys.readouterr().out
        report = json.loads((outdir / "report.json").read_text())
        assert report["verdicts"]["3 nW (reported-minimum)"] == "protected"
        assert report["p_max_dbm"][0] == -60.0
        budget = (outdir / "budget.csv").read_text().splitlines()
        assert budget[0] == "wavelength_nm,p_min_dbm,p_max_dbm,threshold_dbm"
        assert len(budget) == 402

    def test_vulnerable_window_fixture(self, tmp_path):
        grid = canonical_grid()
        vals = np.where(grid <= 410.0, 90.0, 100.0)
        loss = LossSpectrum(grid, vals, np.zeros(grid.size, bool), floor_db=150.0)
        comp = Component(id="windowed", kind="custom", losses={"forward": loss},
                         provenance="synthetic")
        lib_dir = tmp_path / "lib"
        write_library({comp.id: comp}, lib_dir)
        cfg = tmp_path / "audit.chain.json"
        chain_config(cfg, [("windowed", "forward")])
        outdir = tmp_path / "out"
        assert main(["chain", "--config", str(cfg), "--library", str(lib_dir),
                     "--outdir", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assessment = report["assessments"]["max_power"][0]
        assert assessment["verdict"] == "vulnerable"
        assert assessment["bands"] == [
            {"lo_nm": 400.0, "hi_nm": 410.0, "severity": "highest", "floored_only": False}
        ]

    def test_bundled_library_default(self, tmp_path):
        cfg = tmp_path / "audit.chain.json"
        chain_config(cfg, [("voa-em", "0V"), ("cwdm1", "com->1550")])
        outdir = tmp_path / "out"
        assert main(["chain", "--config", str(cfg), "--outdir", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        # 40 - (10.7 + 10.0) dBm of best-case power is far above 3 nW.
        assert report["verdicts"]["3 nW (reported-minimum)"] == "vulnerable"

    def test_library_env_var(self, tmp_path, monkeypatch):
        lib_dir = tmp_path / "lib"
        make_flat_library(lib_dir, db=120.0)
        monkeypatch.setenv("IPAUDIT_LIBRARY", str(lib_dir))
        cfg = tmp_path / "audit.chain.json"
        chain_config(cfg, [("flat", "forward")])
        outdir = tmp_path / "out"
        assert main(["chain", "--config", str(cfg), "--outdir", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["p_max_dbm"][0] == -80.0

    def test_threshold_override(self, tmp_path):
        lib_dir = tmp_path / "lib"
        make_flat_library(lib_dir, db=100.0)
        cfg = tmp_path / "audit.chain.json"
        chain_config(cfg, [("flat", "forward")])
        outdir = tmp_path / "out"
        assert main(["chain", "--config", str(cfg), "--library", str(lib_dir),
                     "--threshold-nw", "0.0001", "--outdir", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        # 1e-4 nW = -100 dBm, below the -60 dBm curve: now vulnerable.
        assert report["verdicts"]["0.0001 nW (cli-override)"] == "vulnerable"

    def test_unresolvable_component_exits_one(self, tmp_path, capsys):
        lib_dir = tmp_path / "lib"
        make_flat_library(lib_dir)
        cfg = tmp_path / "audit.chain.json"
        chain_config(cfg, [("ghost", "forward")])
        outdir = tmp_path / "out"
        rc = main(["chain", "--config", str(cfg), "--library", str(lib_dir),
                   "--outdir", str(outdir)])
        assert rc == 1
        assert "unknown component" in capsys.readouterr().err
        assert not outdir.exists()

    def test_does_not_mutate_the_library(self, tmp_path):
        lib_dir = tmp_path / "lib"
        make_flat_library(lib_dir, db=100.0)
        before = tree_bytes(lib_dir)
        cfg = tmp_path / "audit.chain.json"
        chain_config(cfg, [("flat", "forward")])
        main(["chain", "--config", str(cfg), "--library", str(lib_dir),
              "--outdir", str(tmp_path / "out")])
        assert tree_bytes(lib_dir) == before


class TestLibraryCommand:
    def test_lists_bundled_components(self, capsys):
        assert main(["library"]) == 0
        out = capsys.readouterr().out
        assert "cwdm1" in out and "isolator-dual" in out
        assert "15 component(s) ok" in out

    def test_export_and_reload(self, tmp_path, capsys):
        export = tmp_path / "lib"
        assert main(["library", "--export", str(export)]) == 0
        assert main(["library", "--library", str(export)]) == 0
        out = capsys.readouterr().out
        assert "15 component(s) ok" in out

    def test_invalid_directory_exits_one(self, tmp_path, capsys):
        assert main(["library", "--library", str(tmp_path / "missing")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ipaudit:") and "not found" in err


class TestExitCodes:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ipaudit", "usd", "--n", "1",
             "--x-max", "1", "--step", "0.5", "--outdir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "usd_ratio.csv").exists()

    def test_error_diagnostic_is_single_line(self, capsys):
        main(["library", "--library", "/definitely/not/here"])
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1


class TestFailClosed:
    """Non-finite or unresolvable inputs exit 1 with one diagnostic line and
    write nothing.  Run as subprocesses with a timeout, because a NaN once
    sent the J0 series into an endless loop."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["scw", "--m", "nan"], "J0"),
            (["usd", "--alpha", "nan"], "alpha_mag must be finite"),
            (["usd", "--n", "10"], "undefined ratio"),
            (["chain", "--threshold-nw", "nan"], "must be finite"),
            (["chain", "--threshold-nw", "inf"], "must be finite"),
        ],
        ids=["scw-m-nan", "usd-alpha-nan", "usd-n-10", "chain-threshold-nan",
             "chain-threshold-inf"],
    )
    def test_exits_one_without_outputs(self, tmp_path, argv, fragment):
        if argv[0] == "chain":
            cfg = tmp_path / "audit.chain.json"
            chain_config(cfg, [("voa-em", "0V")])
            argv = argv + ["--config", str(cfg)]
        outdir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "ipaudit", *argv, "--outdir", str(outdir)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("ipaudit:") and fragment in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not outdir.exists()


class TestDeterminism:
    def run_twice(self, argv_fn, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(argv_fn(out_a)) == 0
        assert main(argv_fn(out_b)) == 0
        a = tree_bytes(out_a)
        b = tree_bytes(out_b)
        assert a and a == b

    def test_usd_byte_identical(self, tmp_path):
        self.run_twice(lambda out: ["usd", "--outdir", str(out)], tmp_path)

    def test_scw_byte_identical(self, tmp_path):
        self.run_twice(lambda out: ["scw", "--outdir", str(out)], tmp_path)

    def test_chain_byte_identical(self, tmp_path):
        cfg = tmp_path / "audit.chain.json"
        chain_config(cfg, [("voa-em", "0V"), ("isolator-dual", "backward")])
        self.run_twice(
            lambda out: ["chain", "--config", str(cfg), "--outdir", str(out)], tmp_path
        )
