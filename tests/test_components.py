"""Tests for the component library: bundled reference data and disk format."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from ipaudit.components import (
    _REFERENCE_SPECS,
    _build_component,
    Anchor,
    Component,
    load_component,
    load_library,
    reference_library,
    write_library,
)
from ipaudit.spectra import LossSpectrum, canonical_grid

# Published point values the bundled library must reproduce bit-exactly:
# (component, direction, wavelength_nm, loss_db)
POINT_VALUES = [
    ("cwdm1", "com->1550", 680.0, 10.0),
    ("cwdm2", "com->1550", 679.0, 10.7),
    ("cwdm3", "com->1550", 662.0, 9.7),
    ("dwdm", "com->1550", 665.0, 10.3),
    ("isolator-dual", "backward", 784.0, 44.5),
    ("circulator-4port", "port3->port1", 419.0, 31.1),
    ("voa-em", "0V", 761.0, 10.7),
    ("voa-eo", "0V", 557.0, 21.8),
]


def flat_component(comp_id="flat", kind="custom", db=10.0, floor=120.0, **kwargs):
    grid = canonical_grid()
    loss = LossSpectrum(grid, np.full(grid.size, db), np.zeros(grid.size, bool), floor_db=floor)
    return Component(id=comp_id, kind=kind, losses={"forward": loss},
                     provenance="synthetic", **kwargs)


class TestReferenceLibrary:
    def test_every_point_value_is_hit_exactly(self):
        lib = reference_library()
        for comp_id, direction, wl, db in POINT_VALUES:
            curve = lib[comp_id].losses[direction]
            idx = int(np.flatnonzero(curve.wavelengths_nm == wl)[0])
            assert curve.loss_db[idx] == db
            assert float(curve.loss_db.min()) == db
            assert curve.wavelengths_nm[np.argmin(curve.loss_db)] == wl

    def test_anchors_carry_the_point_values(self):
        lib = reference_library()
        for comp_id, direction, wl, db in POINT_VALUES:
            matches = [
                a for a in lib[comp_id].anchors
                if a.direction == direction and a.wavelength_nm == wl
            ]
            assert len(matches) == 1
            assert matches[0].loss_db == db
            assert matches[0].is_minimum

    def test_curves_are_synthetic_and_on_canonical_grid(self):
        grid = canonical_grid()
        for comp in reference_library().values():
            assert comp.provenance == "synthetic"
            for loss in comp.losses.values():
                assert np.array_equal(loss.wavelengths_nm, grid)

    def test_isolator_sits_mostly_at_the_floor(self):
        curve = reference_library()["isolator-dual"].losses["backward"]
        assert curve.floored.mean() > 0.8
        window = ~curve.floored
        wls = curve.wavelengths_nm[window]
        assert wls.min() > 760.0 and wls.max() <= 800.0

    def test_circulator_adjacent_ports_fully_floored(self):
        curve = reference_library()["circulator-4port"].losses["port2->port1"]
        assert curve.floored.all()
        assert np.all(curve.loss_db == curve.floor_db)

    def test_circulator_reverse_path_opens_in_the_blue(self):
        curve = reference_library()["circulator-4port"].losses["port3->port1"]
        blue = curve.wavelengths_nm <= 500.0
        assert not curve.floored[blue].any()
        assert np.all(curve.loss_db[blue] < 50.0)

    def test_scattering_attenuators_are_nearly_flat(self):
        curve = reference_library()["foa-scat-20db"].losses["forward"]
        assert curve.loss_db.min() >= 25.0 - 1e-9
        assert curve.loss_db.max() <= 27.0 + 1e-9

    def test_rebuild_is_deterministic(self):
        # The library is built once per process, so compare it with components
        # built here from the same recipes, field by field and bit for bit.
        fresh = {spec.id: _build_component(spec) for spec in _REFERENCE_SPECS}
        shared = reference_library()
        assert list(shared) == list(fresh)
        for comp_id, comp in fresh.items():
            got = shared[comp_id]
            assert (got.id, got.kind, got.provenance, got.anchors) == (
                comp.id, comp.kind, comp.provenance, comp.anchors)
            assert list(got.losses) == list(comp.losses)
            for direction, loss in comp.losses.items():
                for field in dataclasses.fields(LossSpectrum):
                    a = getattr(got.losses[direction], field.name)
                    b = getattr(loss, field.name)
                    if isinstance(b, np.ndarray):
                        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                    else:
                        assert a == b

    def test_each_call_returns_a_new_dict_of_the_same_components(self):
        a, b = reference_library(), reference_library()
        assert a is not b
        assert list(a) == list(b)
        assert all(a[comp_id] is b[comp_id] for comp_id in a)

    def test_editing_one_dict_does_not_reach_the_next(self):
        a = reference_library()
        a["extra"] = flat_component("extra")
        del a["voa-em"]
        a["cwdm1"] = a["cwdm2"]
        b = reference_library()
        assert "extra" not in b
        assert b["voa-em"].id == "voa-em"
        assert b["cwdm1"].id == "cwdm1"

    def test_shared_arrays_are_read_only(self):
        for comp in reference_library().values():
            for loss in comp.losses.values():
                for arr in (loss.loss_db, loss.floored, loss.wavelengths_nm):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = arr[1]
                    with pytest.raises(ValueError, match="read-only"):
                        arr += arr


class TestComponentType:
    def test_losses_are_read_only(self):
        comp = reference_library()["voa-em"]
        with pytest.raises(TypeError):
            comp.losses["0V"] = comp.losses["0V"]
        with pytest.raises(TypeError):
            del comp.losses["0V"]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            flat_component(kind="teleporter")

    def test_rejects_unknown_provenance(self):
        grid = canonical_grid()
        loss = LossSpectrum(grid, np.zeros(grid.size), np.zeros(grid.size, bool))
        with pytest.raises(ValueError, match="provenance"):
            Component(id="x", kind="custom", losses={"forward": loss}, provenance="guess")

    def test_rejects_off_grid_spectra(self):
        loss = LossSpectrum([400.0, 401.0], [1.0, 2.0], [False, False])
        with pytest.raises(ValueError, match="canonical"):
            Component(id="x", kind="custom", losses={"forward": loss}, provenance="synthetic")

    def test_rejects_empty_losses(self):
        with pytest.raises(ValueError, match="no direction"):
            Component(id="x", kind="custom", losses={}, provenance="synthetic")

    def test_anchor_must_reference_a_direction(self):
        with pytest.raises(ValueError, match="unknown direction"):
            flat_component(anchors=(Anchor("backward", 500.0, 1.0),))

    @pytest.mark.parametrize("wavelength", [123.0, 500.5, 801.0])
    def test_anchor_must_be_on_the_canonical_grid(self, wavelength):
        with pytest.raises(ValueError, match=f"at {wavelength} nm is not on the canonical"):
            flat_component(anchors=(Anchor("forward", wavelength, 10.0),))

    def test_one_minimum_anchor_per_direction(self):
        flat_component(anchors=(Anchor("forward", 500.0, 10.0, is_minimum=True),
                                Anchor("forward", 600.0, 10.0)))
        with pytest.raises(ValueError, match="'forward' has more than one minimum anchor"):
            flat_component(anchors=(Anchor("forward", 500.0, 10.0, is_minimum=True),
                                    Anchor("forward", 600.0, 10.0, is_minimum=True)))

    @pytest.mark.parametrize("comp_id", [".", "..", "../escaped", "a\\b", "a\0b"])
    def test_id_must_be_one_path_segment(self, comp_id):
        with pytest.raises(ValueError, match=f"id {re.escape(repr(comp_id))} must be one path"):
            flat_component(comp_id=comp_id)

    @pytest.mark.parametrize("field", ["wavelength_nm", "loss_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_anchor_must_be_finite(self, field, value):
        kwargs = {"direction": "forward", "wavelength_nm": 500.0, "loss_db": 1.0, field: value}
        with pytest.raises(ValueError, match="must be finite"):
            Anchor(**kwargs)


class TestLibraryRoundTrip:
    def test_reference_library_round_trips_bit_exactly(self, tmp_path):
        lib = reference_library()
        write_library(lib, tmp_path)
        back = load_library(tmp_path)
        assert sorted(back) == sorted(lib)
        for comp_id, comp in lib.items():
            other = back[comp_id]
            assert other.kind == comp.kind
            assert other.provenance == comp.provenance
            assert other.anchors == comp.anchors
            assert sorted(other.losses) == sorted(comp.losses)
            for direction, loss in comp.losses.items():
                got = other.losses[direction]
                assert np.array_equal(got.wavelengths_nm, loss.wavelengths_nm)
                assert np.array_equal(got.loss_db, loss.loss_db)
                assert np.array_equal(got.floored, loss.floored)
                assert got.floor_db == loss.floor_db

    def test_point_values_survive_the_disk_format(self, tmp_path):
        write_library(reference_library(), tmp_path)
        back = load_library(tmp_path)
        for comp_id, direction, wl, db in POINT_VALUES:
            curve = back[comp_id].losses[direction]
            idx = int(np.flatnonzero(curve.wavelengths_nm == wl)[0])
            assert curve.loss_db[idx] == db
            anchors = [
                a for a in back[comp_id].anchors
                if a.direction == direction and a.wavelength_nm == wl
            ]
            assert anchors[0].loss_db == db

    def test_direction_labels_with_arrows_round_trip(self, tmp_path):
        write_library(reference_library(), tmp_path)
        meta = json.loads((tmp_path / "cwdm1" / "metadata.json").read_text())
        assert "com->1550" in meta["directions"]
        assert "->" not in meta["directions"]["com->1550"]

    def test_missing_metadata_is_an_error(self, tmp_path):
        (tmp_path / "broken").mkdir()
        with pytest.raises(ValueError, match="metadata"):
            load_component(tmp_path / "broken")

    def test_missing_library_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_library(tmp_path / "nowhere")

    def test_empty_library_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no components"):
            load_library(tmp_path)

    def test_direction_name_collision_writes_nothing(self, tmp_path):
        grid = canonical_grid()
        loss = LossSpectrum(grid, np.zeros(grid.size), np.zeros(grid.size, bool))
        clash = Component(id="zz", kind="custom", losses={"a b": loss, "a-b": loss},
                          provenance="synthetic")
        lib = {"aa": flat_component(comp_id="aa"), "zz": clash}
        with pytest.raises(ValueError, match="collision"):
            write_library(lib, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_anchor_refusal_names_the_metadata_file(self, tmp_path):
        comp = flat_component(anchors=(Anchor("forward", 500.0, 10.0),))
        write_library({comp.id: comp}, tmp_path)
        meta_path = tmp_path / "flat" / "metadata.json"
        meta = json.loads(meta_path.read_text())
        meta["anchors"][0]["loss_db"] = math.nan
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(meta_path))}: anchor 'forward'"):
            load_component(tmp_path / "flat")

    def test_write_is_deterministic(self, tmp_path):
        lib = reference_library()
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        write_library(lib, a_dir)
        write_library(lib, b_dir)
        a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()
