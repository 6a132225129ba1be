"""Fiber-optic component library: loss spectra per propagation direction.

A component carries one insertion-loss spectrum per direction label (for
example "com->1550" for a WDM filter, "backward" for an isolator, "0V" for
an unpowered variable attenuator).  The bundled reference library encodes
the published point values of real components measured over 400-800 nm:
only minima and coarse ranges are public, so the full curves shipped here
are synthetic envelopes (provenance "synthetic") anchored bit-exactly at the
published points.  Anchor entries record those datasheet-grade values so
they survive serialization round trips unchanged.

On disk a library is one directory per component holding a metadata.json
plus one loss CSV per direction.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .spectra import (
    DEFAULT_FLOOR_DB,
    LossSpectrum,
    canonical_grid,
    json_text,
    json_value,
    load_loss_csv,
    loss_csv_text,
    write_files,
)

__all__ = [
    "KINDS",
    "PROVENANCES",
    "Anchor",
    "Component",
    "reference_library",
    "write_library",
    "load_library",
    "load_component",
]

KINDS = (
    "voa-em",
    "voa-eo",
    "foa-absorption",
    "foa-scattering",
    "cwdm",
    "dwdm",
    "isolator",
    "circulator",
    "beamsplitter",
    "custom",
)

PROVENANCES = ("published-table", "published-text", "measured", "synthetic")


@dataclass(frozen=True)
class Anchor:
    """A published point value: loss at one wavelength for one direction."""

    direction: str
    wavelength_nm: float
    loss_db: float
    source: str = "published-text"
    is_minimum: bool = False  # anchor is the global minimum of its curve

    def __post_init__(self) -> None:
        if self.source not in PROVENANCES:
            raise ValueError(f"unknown anchor source {self.source!r}")
        if not (math.isfinite(self.wavelength_nm) and math.isfinite(self.loss_db)):
            raise ValueError(
                f"anchor {self.direction!r} must be finite, got "
                f"{self.loss_db} dB @ {self.wavelength_nm} nm"
            )


@dataclass(frozen=True)
class Component:
    """A fiber-optic element with direction-dependent loss spectra."""

    id: str
    kind: str
    losses: Mapping[str, LossSpectrum]
    provenance: str
    anchors: tuple[Anchor, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("component id must be non-empty")
        if self.id in (".", "..") or any(c in str(self.id) for c in "/\\\0"):
            raise ValueError(f"component id {self.id!r} must be one path segment")
        if self.kind not in KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not self.losses:
            raise ValueError(f"component {self.id!r} has no direction spectra")
        grid = canonical_grid()
        for direction, loss in self.losses.items():
            if not np.array_equal(loss.wavelengths_nm, grid):
                raise ValueError(
                    f"component {self.id!r} direction {direction!r} is not on "
                    "the canonical 400-800 nm grid"
                )
        for anchor in self.anchors:
            if anchor.direction not in self.losses:
                raise ValueError(
                    f"anchor references unknown direction {anchor.direction!r}"
                )
        object.__setattr__(self, "losses", MappingProxyType(dict(self.losses)))


# ---------------------------------------------------------------------------
# Bundled reference library
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Dip:
    center_nm: float
    loss_db: float
    width_nm: float


@dataclass(frozen=True)
class _CurveSpec:
    """Recipe for a deterministic synthetic loss curve.

    base + a slow cosine ripple, with Gaussian dips pulled down to the
    published anchor values.  Values exceeding floor_db are reported at the
    floor and flagged, mirroring how a real measurement would saturate.
    """

    base_db: float
    ripple_db: float = 0.0
    ripple_period_nm: float = 260.0
    dips: tuple[_Dip, ...] = ()
    floor_db: float = DEFAULT_FLOOR_DB


def _synthesize(spec: _CurveSpec) -> LossSpectrum:
    grid = canonical_grid()
    vals = spec.base_db + spec.ripple_db * np.cos(
        2.0 * np.pi * (grid - grid[0]) / spec.ripple_period_nm
    )
    for dip in spec.dips:
        idx = int(np.flatnonzero(grid == dip.center_nm)[0])
        depth = vals[idx] - dip.loss_db
        vals = vals - depth * np.exp(-(((grid - dip.center_nm) / dip.width_nm) ** 2))
        vals[idx] = dip.loss_db  # anchor the published value bit-exactly
    floored = vals > spec.floor_db
    vals = np.where(floored, spec.floor_db, vals)
    if np.any(vals < 0):
        raise ValueError("synthetic curve went negative; adjust the recipe")
    return LossSpectrum(grid, vals, floored, floor_db=spec.floor_db)


@dataclass(frozen=True)
class _ComponentSpec:
    id: str
    kind: str
    directions: Mapping[str, _CurveSpec]
    anchors: tuple[Anchor, ...] = ()


_REFERENCE_SPECS: tuple[_ComponentSpec, ...] = (
    _ComponentSpec(
        id="voa-em",
        kind="voa-em",
        directions={
            "0V": _CurveSpec(base_db=16.0, ripple_db=1.2, ripple_period_nm=310.0,
                             dips=(_Dip(761.0, 10.7, 14.0),)),
            # Powered state: losses wander between roughly 13.7 and 30 dB.
            "5V": _CurveSpec(base_db=21.85, ripple_db=8.15, ripple_period_nm=270.0),
        },
        anchors=(Anchor("0V", 761.0, 10.7, "published-text", is_minimum=True),),
    ),
    _ComponentSpec(
        id="voa-eo",
        kind="voa-eo",
        directions={
            "0V": _CurveSpec(base_db=28.0, ripple_db=1.0, ripple_period_nm=330.0,
                             dips=(_Dip(557.0, 21.8, 14.0),)),
            # Powered state rises into the noise floor over part of the range.
            "5V": _CurveSpec(base_db=37.35, ripple_db=13.65, ripple_period_nm=290.0),
        },
        anchors=(Anchor("0V", 557.0, 21.8, "published-text", is_minimum=True),),
    ),
    _ComponentSpec(
        id="foa-abs-20db-a",
        kind="foa-absorption",
        directions={
            "forward": _CurveSpec(base_db=20.0, ripple_db=1.0, ripple_period_nm=300.0,
                                  dips=(_Dip(405.0, 8.1, 11.0), _Dip(780.0, 3.4, 13.0))),
        },
        anchors=(
            Anchor("forward", 405.0, 8.1, "published-text"),
            Anchor("forward", 780.0, 3.4, "published-text", is_minimum=True),
        ),
    ),
    _ComponentSpec(
        id="foa-abs-20db-b",
        kind="foa-absorption",
        directions={
            "forward": _CurveSpec(base_db=20.0, ripple_db=1.0, ripple_period_nm=280.0,
                                  dips=(_Dip(405.0, 8.6, 11.0), _Dip(780.0, 4.3, 13.0))),
        },
        anchors=(
            Anchor("forward", 405.0, 8.6, "published-text"),
            Anchor("forward", 780.0, 4.3, "published-text", is_minimum=True),
        ),
    ),
    _ComponentSpec(
        id="foa-abs-10db",
        kind="foa-absorption",
        directions={
            "forward": _CurveSpec(base_db=10.0, ripple_db=0.6, ripple_period_nm=300.0,
                                  dips=(_Dip(405.0, 2.7, 11.0), _Dip(780.0, 0.9, 13.0))),
        },
        anchors=(
            Anchor("forward", 405.0, 2.7, "published-text"),
            Anchor("forward", 780.0, 0.9, "published-text", is_minimum=True),
        ),
    ),
    # Scattering-based attenuators are nearly flat across the visible range.
    _ComponentSpec(
        id="foa-scat-20db",
        kind="foa-scattering",
        directions={"forward": _CurveSpec(base_db=26.0, ripple_db=1.0, ripple_period_nm=420.0)},
    ),
    _ComponentSpec(
        id="foa-scat-15db",
        kind="foa-scattering",
        directions={"forward": _CurveSpec(base_db=14.3, ripple_db=1.3, ripple_period_nm=420.0)},
    ),
    _ComponentSpec(
        id="foa-scat-5db",
        kind="foa-scattering",
        directions={"forward": _CurveSpec(base_db=11.0, ripple_db=0.2, ripple_period_nm=420.0)},
    ),
    _ComponentSpec(
        id="cwdm1",
        kind="cwdm",
        directions={
            "com->1550": _CurveSpec(base_db=17.0, ripple_db=2.0, ripple_period_nm=230.0,
                                    dips=(_Dip(680.0, 10.0, 10.0),)),
            "com->ref": _CurveSpec(base_db=20.0, ripple_db=5.0, ripple_period_nm=260.0),
        },
        anchors=(Anchor("com->1550", 680.0, 10.0, "published-table", is_minimum=True),),
    ),
    _ComponentSpec(
        id="cwdm2",
        kind="cwdm",
        directions={
            "com->1550": _CurveSpec(base_db=17.5, ripple_db=2.0, ripple_period_nm=240.0,
                                    dips=(_Dip(679.0, 10.7, 10.0),)),
            "com->ref": _CurveSpec(base_db=19.5, ripple_db=5.0, ripple_period_nm=250.0),
        },
        anchors=(Anchor("com->1550", 679.0, 10.7, "published-table", is_minimum=True),),
    ),
    _ComponentSpec(
        id="cwdm3",
        kind="cwdm",
        directions={
            "com->1550": _CurveSpec(base_db=16.5, ripple_db=2.0, ripple_period_nm=220.0,
                                    dips=(_Dip(662.0, 9.7, 10.0),)),
            "com->ref": _CurveSpec(base_db=20.5, ripple_db=5.0, ripple_period_nm=270.0),
        },
        anchors=(Anchor("com->1550", 662.0, 9.7, "published-table", is_minimum=True),),
    ),
    _ComponentSpec(
        id="dwdm",
        kind="dwdm",
        directions={
            "com->1550": _CurveSpec(base_db=17.0, ripple_db=2.0, ripple_period_nm=210.0,
                                    dips=(_Dip(665.0, 10.3, 10.0),)),
            "com->ref": _CurveSpec(base_db=21.0, ripple_db=5.0, ripple_period_nm=240.0),
        },
        anchors=(Anchor("com->1550", 665.0, 10.3, "published-table", is_minimum=True),),
    ),
    # Dual-stage isolator, probing against the isolation direction: buried in
    # the measurement floor except for a window near 780 nm.
    _ComponentSpec(
        id="isolator-dual",
        kind="isolator",
        directions={
            "backward": _CurveSpec(base_db=58.0, ripple_db=2.0, ripple_period_nm=240.0,
                                   dips=(_Dip(784.0, 44.5, 14.0),)),
        },
        anchors=(Anchor("backward", 784.0, 44.5, "published-text", is_minimum=True),),
    ),
    # Four-port circulator: the port3->port1 path opens up below ~506 nm,
    # adjacent-port isolation stays below the floor everywhere.
    _ComponentSpec(
        id="circulator-4port",
        kind="circulator",
        directions={
            "port3->port1": _CurveSpec(base_db=52.0, ripple_db=0.8, ripple_period_nm=300.0,
                                       dips=(_Dip(419.0, 31.1, 54.0),)),
            "port2->port1": _CurveSpec(base_db=56.0, ripple_db=1.5, ripple_period_nm=270.0),
        },
        anchors=(Anchor("port3->port1", 419.0, 31.1, "published-text", is_minimum=True),),
    ),
    # Splitting ratios drift away from nominal outside the telecom band; no
    # public numbers, so this entry is purely synthetic.
    _ComponentSpec(
        id="bs-50-50",
        kind="beamsplitter",
        directions={
            "port2->port1": _CurveSpec(base_db=4.5, ripple_db=1.2, ripple_period_nm=330.0),
        },
    ),
)


def _build_component(spec: _ComponentSpec) -> Component:
    losses = {d: _synthesize(c) for d, c in spec.directions.items()}
    for anchor in spec.anchors:
        curve = losses[anchor.direction]
        idx = int(np.flatnonzero(curve.wavelengths_nm == anchor.wavelength_nm)[0])
        if curve.loss_db[idx] != anchor.loss_db:
            raise AssertionError(
                f"{spec.id}/{anchor.direction}: curve does not hit the anchor "
                f"value at {anchor.wavelength_nm} nm"
            )
        if anchor.is_minimum:
            if float(curve.loss_db.min()) != anchor.loss_db:
                raise AssertionError(
                    f"{spec.id}/{anchor.direction}: anchor is not the curve minimum"
                )
            if int(np.argmin(curve.loss_db)) != idx:
                raise AssertionError(
                    f"{spec.id}/{anchor.direction}: curve minimum sits at the "
                    "wrong wavelength"
                )
    return Component(
        id=spec.id,
        kind=spec.kind,
        losses=losses,
        provenance="synthetic",
        anchors=spec.anchors,
    )


@functools.cache
def _reference_components() -> tuple[Component, ...]:
    return tuple(_build_component(spec) for spec in _REFERENCE_SPECS)


def reference_library() -> dict[str, Component]:
    """The bundled library: a new dict per call of components built once per
    process and shared, which is safe as Component, its losses mapping and
    every spectrum array are read-only."""
    return {comp.id: comp for comp in _reference_components()}


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------

_METADATA_NAME = "metadata.json"
# Anchor fields in Anchor's order, with the JSON kind each must be.
_ANCHOR_KINDS = {"direction": "a string", "wavelength_nm": "a number", "loss_db": "a number",
                 "source": "a string", "is_minimum": "a boolean"}
_ANCHOR_DEFAULTS = {"source": "published-text", "is_minimum": False}


def _direction_filename(direction: str) -> str:
    safe = direction.replace("->", "-to-")
    safe = re.sub(r"[^A-Za-z0-9._-]", "-", safe)
    return safe + ".csv"


def write_library(library: Mapping[str, Component], root: str | Path) -> None:
    """Materialize a library as one directory per component under root.

    Every file is rendered before any is written, so a refusal writes nothing.
    """
    root = Path(root)
    files = {}
    for comp_id in sorted(library):
        comp = library[comp_id]
        directions = {}
        for direction in sorted(comp.losses):
            fname = _direction_filename(direction)
            if fname in directions.values():
                raise ValueError(
                    f"component {comp.id!r}: direction file name collision for {direction!r}"
                )
            directions[direction] = fname
            files[root / comp.id / fname] = loss_csv_text(comp.losses[direction])
        files[root / comp.id / _METADATA_NAME] = json_text({
            "id": comp.id,
            "kind": comp.kind,
            "provenance": comp.provenance,
            "directions": directions,
            "anchors": [asdict(a) for a in comp.anchors],
        })
    write_files(files)


def load_component(comp_dir: str | Path) -> Component:
    """Load one component directory (metadata.json plus direction CSVs)."""
    comp_dir = Path(comp_dir)
    meta_path = comp_dir / _METADATA_NAME
    if not meta_path.is_file():
        raise ValueError(f"{comp_dir}: missing {_METADATA_NAME}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: invalid JSON ({exc})") from exc
    for key in ("id", "kind", "provenance", "directions"):
        if key not in json_value(meta_path, "metadata", meta, "an object"):
            raise ValueError(f"{meta_path}: missing key {key!r}")
    comp_id = json_value(meta_path, "id", meta["id"], "a string")
    losses = {
        d: load_loss_csv(comp_dir / json_value(meta_path, f"directions {d!r}", f, "a string"))
        for d, f in json_value(meta_path, "directions", meta["directions"], "an object").items()
    }
    anchors = []
    for i, a in enumerate(json_value(meta_path, "anchors", meta.get("anchors", []), "a list")):
        a = _ANCHOR_DEFAULTS | json_value(meta_path, f"anchor {i}", a, "an object")
        if missing := [key for key in _ANCHOR_KINDS if key not in a]:
            raise ValueError(f"{meta_path}: anchor {i} missing key {missing[0]!r}")
        anchors.append([json_value(meta_path, f"anchor {i} {key}", a[key], kind)
                        for key, kind in _ANCHOR_KINDS.items()])
    try:
        return Component(
            id=comp_id,
            kind=meta["kind"],
            losses=losses,
            provenance=meta["provenance"],
            anchors=tuple(Anchor(*fields) for fields in anchors),
        )
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from exc


def load_library(root: str | Path) -> dict[str, Component]:
    """Load every component directory under root, keyed by component id."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"component library directory not found: {root}")
    library: dict[str, Component] = {}
    for comp_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        comp = load_component(comp_dir)
        if comp.id in library:
            raise ValueError(f"duplicate component id {comp.id!r} in {root}")
        library[comp.id] = comp
    if not library:
        raise ValueError(f"no components found under {root}")
    return library
