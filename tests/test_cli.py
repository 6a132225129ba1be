"""Tests for the command-line front end: outputs, exit codes, determinism."""

import faulthandler
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ipaudit.cli import build_parser, main
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


def edit_metadata(comp_dir, edit):
    path = comp_dir / "metadata.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))
    return path


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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"slots": [1]}, "slot 0 must be an object, got 1"),
            ({"slots": [], "input_power_dbm": "x"}, "input_power_dbm must be a number, got 'x'"),
            ({"slots": [], "input_power_dbm": True}, "input_power_dbm must be a number, got True"),
            ({"slots": 5}, "slots must be a list, got 5"),
            ({"slots": [{"alternatives": 5}]}, "slot 0 alternatives must be a list, got 5"),
            ({"slots": [{"alternatives": {"component": "voa-em", "direction": "0V"}}]},
             "slot 0 alternatives must be a list, got {'component': 'voa-em', 'direction': '0V'}"),
            ({"slots": [], "thresholds": 5}, "thresholds must be a list, got 5"),
            ({"slots": [], "thresholds": {"power": 3}},
             "thresholds must be a list, got {'power': 3}"),
            ({"slots": [], "input_power_dbm": 10**400},
             f"input_power_dbm must be a finite number, got {10**400}"),
            ({"slots": [], "thresholds": [{"power": -(10**400)}]},
             f"threshold 0 power must be a finite number, got {-(10**400)}"),
            ({"slots": [], "thresholds": [{"power": 3, "wavelength_nm": 10**400}]},
             f"threshold 0 wavelength_nm must be a finite number, got {10**400}"),
        ],
        ids=["slot-not-object", "power-string", "power-bool", "slots-int", "alternatives-int",
             "alternatives-object", "thresholds-int", "thresholds-object", "power-overflows",
             "threshold-power-overflows", "threshold-wavelength-overflows"],
    )
    def test_descriptor_of_the_wrong_type_exits_one(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "audit.chain.json"
        cfg.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["chain", "--config", str(cfg), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"ipaudit: {cfg}: {message}\n"
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

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"directions": ["0V"]}, "directions must be an object, got ['0V']"),
            ({"directions": {"forward": 5}}, "directions 'forward' must be a string, got 5"),
            ({"anchors": 5}, "anchors must be a list, got 5"),
            ({"anchors": [5]}, "anchor 0 must be an object, got 5"),
            ({"anchors": [{"direction": "forward", "wavelength_nm": None, "loss_db": 1.0}]},
             "anchor 0 wavelength_nm must be a number, got None"),
            ({"id": 5}, "id must be a string, got 5"),
            ({"anchors": [{"wavelength_nm": 500.0, "loss_db": 50.0}]},
             "anchor 0 missing key 'direction'"),
            ({"anchors": [{"direction": "forward", "loss_db": 50.0}]},
             "anchor 0 missing key 'wavelength_nm'"),
            ({"anchors": [{"direction": ["x"], "wavelength_nm": 500.0, "loss_db": 50.0}]},
             "anchor 0 direction must be a string, got ['x']"),
            ({"anchors": [{"direction": "forward", "wavelength_nm": 500.0, "loss_db": 50.0,
                           "is_minimum": "false"}]},
             "anchor 0 is_minimum must be a boolean, got 'false'"),
            ({"anchors": [{"direction": "forward", "wavelength_nm": 500.0, "loss_db": 50.0,
                           "is_minimum": 0}]},
             "anchor 0 is_minimum must be a boolean, got 0"),
            ({"anchors": [{"direction": "forward", "wavelength_nm": 500.0, "loss_db": 50.0,
                           "source": None}]},
             "anchor 0 source must be a string, got None"),
            ({"anchors": [{"direction": "forward", "wavelength_nm": 123.0, "loss_db": 60.0,
                           "is_minimum": True}]},
             "anchor 'forward' at 123.0 nm is not on the canonical 400-800 nm grid"),
            ({"anchors": [{"direction": "forward", "wavelength_nm": w, "loss_db": 50.0,
                           "is_minimum": True} for w in (500.0, 600.0)]},
             "direction 'forward' has more than one minimum anchor"),
        ],
        ids=["directions-list", "direction-file-number", "anchors-number", "anchor-number",
             "anchor-wavelength-null", "id-number", "anchor-direction-missing",
             "anchor-wavelength-missing", "anchor-direction-list", "anchor-minimum-string",
             "anchor-minimum-number", "anchor-source-null", "anchor-off-the-grid",
             "second-minimum-anchor"],
    )
    def test_metadata_of_the_wrong_type_exits_one(self, tmp_path, capsys, edit, message):
        make_flat_library(tmp_path / "lib")
        path = edit_metadata(tmp_path / "lib" / "flat", lambda m: m.update(edit))
        assert main(["library", "--library", str(tmp_path / "lib")]) == 1
        assert capsys.readouterr().err == f"ipaudit: {path}: {message}\n"

    def test_anchor_defaults_and_a_boolean_minimum_are_read(self, tmp_path, capsys):
        make_flat_library(tmp_path / "lib")
        anchors = [{"direction": "forward", "wavelength_nm": 500, "loss_db": 50.0},
                   {"direction": "forward", "wavelength_nm": 600.0, "loss_db": 50,
                    "source": "measured", "is_minimum": True}]
        edit_metadata(tmp_path / "lib" / "flat", lambda m: m.update(anchors=anchors))
        assert main(["library", "--library", str(tmp_path / "lib")]) == 0
        out = capsys.readouterr().out
        assert "  forward: 50.0 dB @ 500.0 nm [published-text]\n" in out
        assert "  forward: 50.0 dB @ 600.0 nm [measured] (minimum)\n" in out

    def test_metadata_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        make_flat_library(tmp_path / "lib")
        path = tmp_path / "lib" / "flat" / "metadata.json"
        path.write_text("5")
        assert main(["library", "--library", str(tmp_path / "lib")]) == 1
        assert capsys.readouterr().err == f"ipaudit: {path}: metadata must be an object, got 5\n"


class TestOutputFiles:
    """Each subcommand stages all its outputs under fresh random temp names
    before it replaces any of them, and leaves no temp file behind."""

    def test_usd_keeps_a_users_tmp_file(self, tmp_path):
        mine = tmp_path / "usd_ratio.csv.tmp"
        mine.write_text("mine\n")
        assert main(["usd", "--n", "1", "--outdir", str(tmp_path)]) == 0
        assert mine.read_text() == "mine\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "usd_probability.csv", "usd_ratio.csv", "usd_ratio.csv.tmp"]

    def test_usd_onto_a_directory_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "usd_ratio.csv").mkdir()
        assert main(["usd", "--n", "1", "--outdir", str(tmp_path)]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.rglob("*")] == ["usd_ratio.csv"]

    def test_export_onto_a_regular_file_adds_no_file(self, tmp_path, capsys):
        export = tmp_path / "E"
        export.mkdir()
        (export / "voa-em").write_text("x\n")
        assert main(["library", "--export", str(export)]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        # Nor a directory: the component directories made before the refusal are gone.
        assert list(export.rglob("*")) == [export / "voa-em"]
        assert (export / "voa-em").read_text() == "x\n"

    def test_export_name_collision_writes_nothing(self, tmp_path, capsys):
        lib = tmp_path / "lib"
        make_flat_library(lib, comp_id="aa")
        make_flat_library(lib, comp_id="zz")
        clash = {"a b": "forward.csv", "a-b": "forward.csv"}  # both export as a-b.csv
        edit_metadata(lib / "zz", lambda m: m["directions"].update(clash))
        export = tmp_path / "E"
        assert main(["library", "--library", str(lib), "--export", str(export)]) == 1
        assert "collision" in capsys.readouterr().err
        assert not export.exists()

    def test_export_refuses_an_id_that_leaves_the_root(self, tmp_path, capsys):
        lib = tmp_path / "lib"
        make_flat_library(lib)
        edit_metadata(lib / "flat", lambda m: m.update(id="../escaped"))
        export = tmp_path / "E" / "in"
        assert main(["library", "--library", str(lib), "--export", str(export)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "'../escaped' must be one path segment" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lib"]

    def test_nan_anchor_is_refused_naming_its_file(self, tmp_path, capsys):
        lib = tmp_path / "lib"
        make_flat_library(lib)
        anchor = {"direction": "forward", "wavelength_nm": 500.0, "loss_db": math.nan}
        path = edit_metadata(lib / "flat", lambda m: m.update(anchors=[anchor]))
        assert main(["library", "--library", str(lib), "--export", str(tmp_path / "E")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ipaudit: {path}: anchor 'forward' must be finite")
        assert not (tmp_path / "E").exists()


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


# Prints the ipaudit modules loaded after `import ipaudit.cli`, after a `usd` run
# and after a later `scw` run, one JSON list each, between the lines the runs print.
IMPORT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("ipaudit."))
import ipaudit.cli
print(json.dumps(loaded()))
ipaudit.cli.main(["usd", "--n", "1", "--x-max", "1", "--step", "0.5", "--outdir", sys.argv[1]])
print(json.dumps(loaded()))
ipaudit.cli.main(["scw", "--dm", "1", "--step", "0.5", "--outdir", sys.argv[1]])
print(json.dumps(loaded()))
"""


class TestImports:
    """Each command imports only the modules it runs; the package imports none."""

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(tmp_path_factory.mktemp("usd"))],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]

    def test_the_entry_import_loads_only_what_every_command_uses(self, loaded):
        assert loaded[0] == ["ipaudit.cli", "ipaudit.output", "numpy"]

    def test_usd_loads_neither_components_nor_budget(self, loaded):
        assert loaded[1] == ["ipaudit.cli", "ipaudit.output", "ipaudit.statemath", "numpy"]

    def test_scw_leaves_spectra_unloaded(self, loaded):
        assert loaded[2] == ["ipaudit.cli", "ipaudit.output", "ipaudit.scw",
                             "ipaudit.statemath", "numpy"]

    def test_package_names_resolve_to_their_modules_attributes(self):
        import importlib

        import ipaudit

        for name in ipaudit.__all__:
            module = importlib.import_module(f"ipaudit.{ipaudit._EXPORTS[name]}")
            assert getattr(ipaudit, name) is getattr(module, name)
        assert set(ipaudit.__all__) <= set(dir(ipaudit))
        with pytest.raises(AttributeError, match="'ipaudit' has no attribute 'usd_asymptotic'"):
            ipaudit.usd_asymptotic


class TestRepeatedCalls:
    """`main` reuses one parser for every call in a process, so no call may
    see what an earlier one parsed."""

    CHAIN = ["chain", "--config", "audit.chain.json", "--outdir", "out"]
    SEQUENCE = [
        ["usd", "--n", "x"],
        ["--version"],
        CHAIN + ["--threshold-nw", "1"],
        CHAIN + ["--threshold-nw", "1"],
        CHAIN,
    ]

    def run(self, workdir, argv, capsys, monkeypatch):
        workdir.mkdir()
        chain_config(workdir / "audit.chain.json", [("voa-em", "0V")],
                     thresholds=[{"power": 3.0, "unit": "nW", "source": "descriptor"}])
        monkeypatch.chdir(workdir)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        return rc, out, err, tree_bytes(workdir)

    def test_each_call_matches_a_first_call(self, tmp_path, capsys, monkeypatch):
        runs = [self.run(tmp_path / f"seq{i}", argv, capsys, monkeypatch)
                for i, argv in enumerate(self.SEQUENCE)]
        for i, argv in enumerate(self.SEQUENCE):
            build_parser.cache_clear()
            assert self.run(tmp_path / f"first{i}", argv, capsys, monkeypatch) == runs[i], argv
        assert [rc for rc, *_ in runs] == [2, 0, 0, 0, 0]
        assert "invalid int value: 'x'" in runs[0][2]
        assert runs[1][1] == "ipaudit 0.1.0\n"
        verdicts = [list(json.loads(files["out/report.json"])["verdicts"]) for *_, files in runs[2:]]
        assert verdicts == [["1 nW (cli-override)"]] * 2 + [["3 nW (descriptor)"]]


class TestFailClosed:
    """Non-finite or unresolvable inputs exit 1 with one diagnostic line and
    write nothing.  A NaN once sent the J0 series into an endless loop, so
    each case runs under a faulthandler watchdog that dumps the stacks and
    ends the process after 60 s."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["scw", "--m", "nan"], "J0"),
            (["usd", "--alpha", "nan"], "alpha_mag must be finite"),
            (["usd", "--n", "10"], "undefined ratio"),
            (["chain", "--threshold-nw", "nan"], "must be finite"),
            (["chain", "--threshold-nw", "inf"], "must be finite"),
            (["usd", "--n", "8", "--alpha", "0.85"], "undefined ratio"),
            (["usd", "--n", "10", "--alpha", "1.2"], "undefined ratio"),
            (["usd", "--x-max", "inf"], "finite and positive"),
            (["usd", "--x-max", "1e9", "--step", "1e-9"], "MAX_GRID_POINTS"),
            (["scw", "--m", "0", "--dm", "inf"], "finite and positive"),
            (["losses", "--grid", "400:inf:1"], "invalid grid"),
            (["losses", "--floor-db", "nan"], "floor_db must be finite"),
            (["losses", "--floor-db", "inf"], "floor_db must be finite"),
            (["usd", "--n", "100000"], "MAX_GRAM_ENTRIES"),
            (["usd", "--alpha", "1e200"], "alpha_mag must be finite"),
            (["scw", "--alpha0-sq", "nan"], "alpha0_sq must be finite"),
            (["scw", "--alpha0-sq", "inf"], "alpha0_sq must be finite"),
        ],
        ids=["scw-m-nan", "usd-alpha-nan", "usd-n-10", "chain-threshold-nan",
             "chain-threshold-inf", "usd-n-8-alpha-0.85", "usd-n-10-alpha-1.2",
             "usd-x-max-inf", "usd-grid-over-cap", "scw-dm-inf", "losses-grid-inf",
             "losses-floor-nan", "losses-floor-inf", "usd-n-over-gram-cap",
             "usd-alpha-square-overflows", "scw-alpha0-sq-nan", "scw-alpha0-sq-inf"],
    )
    def test_exits_one_without_outputs(self, tmp_path, capsys, argv, fragment):
        self.assert_refused(tmp_path, capsys, argv, fragment)

    @pytest.mark.parametrize("power", [math.nan, math.inf], ids=["nan", "inf"])
    def test_chain_non_finite_input_power(self, tmp_path, capsys, power):
        self.assert_refused(tmp_path, capsys, ["chain"], "input_power_dbm", input_power_dbm=power)

    @pytest.mark.parametrize(
        "key, literal",
        [("wavelength_nm", "-5"), ("wavelength_nm", "0"), ("wavelength_nm", "NaN"),
         ("wavelength_nm", "Infinity"), ("wavelength_nm", "1e309"),
         ("input_power_dbm", "1e309")],
        ids=["wavelength-negative", "wavelength-zero", "wavelength-nan", "wavelength-inf",
             "wavelength-overflows", "input-power-overflows"],
    )
    def test_descriptor_number_out_of_range_names_the_file(self, tmp_path, capsys, key,
                                                           literal):
        cfg, outdir = tmp_path / "audit.chain.json", tmp_path / "out"
        if key == "input_power_dbm":
            chain_config(cfg, [("voa-em", "0V")], input_power_dbm="@")
        else:
            chain_config(cfg, [("voa-em", "0V")], thresholds=[{"power": 3.0, key: "@"}])
        cfg.write_text(cfg.read_text().replace('"@"', literal))
        assert main(["chain", "--config", str(cfg), "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ipaudit: {cfg}: ") and f"{key} must be finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["chain", "library"])
    def test_deeply_nested_json_is_refused_naming_the_file(self, tmp_path, capsys, command):
        outdir = tmp_path / "out"
        nested = "[" * 100_000 + "]" * 100_000
        if command == "chain":
            path = tmp_path / "audit.chain.json"
            argv = ["chain", "--config", str(path), "--outdir", str(outdir)]
        else:
            make_flat_library(tmp_path / "lib")
            path = tmp_path / "lib" / "flat" / "metadata.json"
            argv = ["library", "--library", str(tmp_path / "lib"), "--export", str(outdir)]
        path.write_text(nested)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ipaudit: {path}: invalid JSON (")
        assert len(err.strip().splitlines()) == 1
        assert not outdir.exists()

    def test_python_m_ipaudit_refuses_a_nan_modulation_index(self, tmp_path):
        outdir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "ipaudit", "scw", "--m", "nan", "--outdir", str(outdir)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("ipaudit:") and "J0" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not outdir.exists()

    def assert_refused(self, tmp_path, capsys, argv, fragment, input_power_dbm=40.0):
        outdir = tmp_path / "out"
        if argv[0] == "chain":
            cfg = tmp_path / "audit.chain.json"
            chain_config(cfg, [("voa-em", "0V")], input_power_dbm=input_power_dbm)
            argv = argv + ["--config", str(cfg)]
        if argv[0] == "losses":
            ref, mes = tmp_path / "ref.csv", tmp_path / "mes.csv"
            write_raw_spectrum(ref, np.ones(401))
            write_raw_spectrum(mes, np.full(401, 1e-9))
            argv = argv + ["--ref", str(ref), "--mes", str(mes), "--out", str(outdir / "loss.csv")]
        else:
            argv = argv + ["--outdir", str(outdir)]
        faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
        try:
            rc = main(argv)
        finally:
            faulthandler.cancel_dump_traceback_later()
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("ipaudit:") and fragment in err
        assert len(err.strip().splitlines()) == 1
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
