"""Spectrometer data handling: raw spectra, run averaging, insertion loss.

Raw broadband spectra come in as wavelength/value CSV files in linear power
(arbitrary units).  The insertion loss of an element under test is

    loss_dB(lambda) = -10 * log10(P_mes / (P_ref * T_f))

where P_ref and P_mes are the powers measured without and with the element
and T_f is the transmission of any neutral filters inserted to extend the
dynamic range.  The measurement chain has a finite dynamic range (about
50 dB here); computed losses above the configured floor are reported *at*
the floor and flagged, because the true value is only known to be at least
that large.  Repeated runs are combined by a pointwise mean with a sample
standard deviation kept alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "UNIT_LINEAR",
    "UNIT_DB",
    "DEFAULT_FLOOR_DB",
    "canonical_grid",
    "Spectrum",
    "AggregatedSpectrum",
    "LossSpectrum",
    "load_spectrum",
    "aggregate_runs",
    "insertion_loss",
    "resample",
    "load_loss_csv",
    "loss_csv_text",
    "write_loss_csv",
]

UNIT_LINEAR = "linear-power"
UNIT_DB = "dB"
_UNITS = (UNIT_LINEAR, UNIT_DB)

DEFAULT_FLOOR_DB = 50.0

# Analysis grid: 400-800 nm inclusive at 1 nm steps (the 1.5 nm instrument
# resolution rounds naturally onto it).  All budget work runs on this grid.
CANONICAL_MIN_NM = 400.0
CANONICAL_MAX_NM = 800.0
CANONICAL_STEP_NM = 1.0

_DB_PER_DECADE = 10.0
_LN10 = math.log(10.0)


def canonical_grid() -> np.ndarray:
    """The 401-point analysis wavelength grid, 400..800 nm step 1 nm."""
    n = int(round((CANONICAL_MAX_NM - CANONICAL_MIN_NM) / CANONICAL_STEP_NM))
    return CANONICAL_MIN_NM + np.arange(n + 1) * CANONICAL_STEP_NM


def _freeze(a, dtype=float) -> np.ndarray:
    """Defensive copy marked read-only (instances are immutable)."""
    out = np.array(a, dtype=dtype, ndmin=1)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Spectrum:
    """Wavelength-indexed samples of power (linear) or a level in dB."""

    wavelengths_nm: np.ndarray
    values: np.ndarray
    unit: str = UNIT_LINEAR
    meta: str = ""

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.wavelengths_nm, dtype=float))
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if w.size == 0:
            raise ValueError("empty spectrum")
        if w.shape != v.shape or w.ndim != 1:
            raise ValueError(
                f"wavelengths and values must be 1-d and equally long, "
                f"got {w.shape} and {v.shape}"
            )
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(v)):
            raise ValueError("non-finite wavelength or value")
        if np.any(np.diff(w) <= 0):
            raise ValueError("wavelengths must be strictly increasing")
        if self.unit not in _UNITS:
            raise ValueError(f"unit must be one of {_UNITS}, got {self.unit!r}")
        if self.unit == UNIT_LINEAR and np.any(v < 0):
            raise ValueError("linear-power values must be >= 0")
        object.__setattr__(self, "wavelengths_nm", _freeze(w))
        object.__setattr__(self, "values", _freeze(v))

    def __len__(self) -> int:
        return self.wavelengths_nm.size


@dataclass(frozen=True)
class AggregatedSpectrum:
    """Mean of repeated runs plus the pointwise sample standard deviation."""

    spectrum: Spectrum
    stddev: np.ndarray | None
    n_runs: int

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if (self.n_runs > 1) != (self.stddev is not None):
            raise ValueError("stddev must be present exactly when n_runs > 1")
        if self.stddev is not None:
            s = np.asarray(self.stddev, dtype=float)
            if s.shape != self.spectrum.wavelengths_nm.shape:
                raise ValueError("stddev length does not match the spectrum")
            object.__setattr__(self, "stddev", _freeze(s))


@dataclass(frozen=True)
class LossSpectrum:
    """Insertion loss in dB with dynamic-range flags and run statistics.

    Points where the computed loss exceeded the measurement floor carry
    floored=True and hold exactly the floor value; the true loss there is
    only known to be at least floor_db.
    """

    wavelengths_nm: np.ndarray
    loss_db: np.ndarray
    floored: np.ndarray
    floor_db: float = DEFAULT_FLOOR_DB
    n_runs: int = 1
    stddev_db: np.ndarray | None = None
    meta: str = ""

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.wavelengths_nm, dtype=float))
        loss = np.atleast_1d(np.asarray(self.loss_db, dtype=float))
        fl = np.atleast_1d(np.asarray(self.floored, dtype=bool))
        if w.size == 0:
            raise ValueError("empty loss spectrum")
        if not (w.shape == loss.shape == fl.shape) or w.ndim != 1:
            raise ValueError("wavelengths, losses and flags must be 1-d and equally long")
        if np.any(np.diff(w) <= 0):
            raise ValueError("wavelengths must be strictly increasing")
        if not np.all(np.isfinite(loss)):
            raise ValueError("non-finite loss value")
        if np.any(loss < 0):
            raise ValueError("losses must be >= 0 dB (clamp before constructing)")
        if not 0 < self.floor_db < math.inf:
            raise ValueError(f"floor_db must be finite and positive, got {self.floor_db}")
        if np.any(loss[fl] != self.floor_db):
            raise ValueError("floored points must hold exactly the floor value")
        if (self.n_runs > 1) != (self.stddev_db is not None):
            raise ValueError("stddev_db must be present exactly when n_runs > 1")
        object.__setattr__(self, "wavelengths_nm", _freeze(w))
        object.__setattr__(self, "loss_db", _freeze(loss))
        object.__setattr__(self, "floored", _freeze(fl, dtype=bool))
        if self.stddev_db is not None:
            s = np.atleast_1d(np.asarray(self.stddev_db, dtype=float))
            if s.shape != w.shape:
                raise ValueError("stddev_db length does not match the grid")
            object.__setattr__(self, "stddev_db", _freeze(s))

    def __len__(self) -> int:
        return self.wavelengths_nm.size


def _read_csv(path: Path, headers: Sequence[list[str]]) -> tuple[list[str], np.ndarray]:
    """Comment bodies and numeric rows of a CSV file.

    Blank lines are skipped and '#' lines are returned as comments, in file
    order.  The first other line must be one of `headers`; every later line
    must have as many fields as that header, each a float.  Errors name
    `path:line`.  Rows come back as a 2-d float array, one row per data line.
    """
    comments: list[str] = []
    n_cols = 0
    values: list[float] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line.lstrip("#").strip())
            continue
        parts = line.split(",")
        if not n_cols:
            if [c.strip() for c in parts] not in headers:
                expected = " or ".join(repr(",".join(h)) for h in headers)
                raise ValueError(f"{path}:{lineno}: expected header {expected}, got {line!r}")
            n_cols = len(parts)
            continue
        if len(parts) != n_cols:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
    if not values:
        raise ValueError(f"{path}: empty spectrum")
    return comments, np.array(values).reshape(-1, n_cols)


def load_spectrum(path: str | Path) -> Spectrum:
    """Read a spectrum CSV (header wavelength_nm,value, '#' comments).

    A comment line '# unit: linear-power' or '# unit: dB' declares the unit
    (default linear-power).  Rows are sorted by wavelength; duplicate
    wavelengths are rejected.
    """
    path = Path(path)
    comments, rows = _read_csv(path, [["wavelength_nm", "value"]])
    unit = UNIT_LINEAR
    notes = []
    for body in comments:
        if body.lower().startswith("unit:"):
            unit = body.split(":", 1)[1].strip()
        else:
            notes.append(body)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    w = rows[:, 0]
    if np.any(np.diff(w) == 0):
        dup = w[np.flatnonzero(np.diff(w) == 0)[0]]
        raise ValueError(f"{path}: duplicate wavelength {dup} nm")
    meta = "; ".join([f"source: {path.name}"] + notes)
    return Spectrum(w, rows[:, 1], unit=unit, meta=meta)


def aggregate_runs(runs: Sequence[Spectrum], mode: str = "mean") -> AggregatedSpectrum:
    """Combine repeated measurement runs taken on one wavelength grid.

    mode "mean" (the default, matching how repeated measurements are
    averaged) takes the pointwise arithmetic mean; mode "median" resists
    single-pixel outliers.  The pointwise sample standard deviation is
    recorded whenever there is more than one run.
    """
    if len(runs) == 0:
        raise ValueError("no runs to aggregate")
    if mode not in ("mean", "median"):
        raise ValueError(f"unknown mode {mode!r}; expected 'mean' or 'median'")
    first = runs[0]
    for r in runs[1:]:
        if not np.array_equal(r.wavelengths_nm, first.wavelengths_nm):
            raise ValueError("runs are not on identical wavelength grids")
        if r.unit != first.unit:
            raise ValueError("runs mix units")
    if first.unit != UNIT_LINEAR:
        raise ValueError("run aggregation expects linear-power spectra")
    stack = np.vstack([r.values for r in runs])
    center = np.mean(stack, axis=0) if mode == "mean" else np.median(stack, axis=0)
    n = len(runs)
    stddev = np.std(stack, axis=0, ddof=1) if n > 1 else None
    combined = Spectrum(
        first.wavelengths_nm.copy(),
        center,
        unit=first.unit,
        meta=f"{mode} of {n} runs",
    )
    return AggregatedSpectrum(combined, stddev, n)


def _as_spectrum(s: Spectrum | AggregatedSpectrum) -> Spectrum:
    return s.spectrum if isinstance(s, AggregatedSpectrum) else s


def insertion_loss(
    ref: Spectrum | AggregatedSpectrum,
    mes: Spectrum | AggregatedSpectrum,
    filters: Spectrum | None = None,
    floor_db: float = DEFAULT_FLOOR_DB,
) -> LossSpectrum:
    """Insertion loss -10*log10(P_mes / (P_ref * T_f)) with floor handling.

    All inputs must share one wavelength grid (resample first).  T_f is taken
    from `filters` (linear transmission, or a dB level converted to one);
    omit it for unity transmission.  Losses above floor_db are reported at
    the floor and flagged; negative computed losses (measurement noise; a
    passive element cannot amplify) are clamped to 0 and noted in meta.

    Run statistics attached to `mes` or `ref` propagate into a pointwise
    loss standard deviation via first-order error propagation; n_runs is the
    larger of the two run counts.
    """
    ref_s = _as_spectrum(ref)
    mes_s = _as_spectrum(mes)
    if not np.array_equal(ref_s.wavelengths_nm, mes_s.wavelengths_nm):
        raise ValueError("reference and measurement grids differ; resample first")
    if ref_s.unit != UNIT_LINEAR or mes_s.unit != UNIT_LINEAR:
        raise ValueError("insertion loss expects linear-power spectra")
    if filters is not None:
        if not np.array_equal(filters.wavelengths_nm, ref_s.wavelengths_nm):
            raise ValueError("filter grid differs; resample first")
        tf = filters.values if filters.unit == UNIT_LINEAR else 10.0 ** (filters.values / 10.0)
    else:
        tf = np.ones_like(ref_s.values)
    denom = ref_s.values * tf
    if np.any(denom <= 0):
        bad = ref_s.wavelengths_nm[np.flatnonzero(denom <= 0)[0]]
        raise ValueError(f"zero reference power at {bad} nm")
    with np.errstate(divide="ignore"):
        loss = -_DB_PER_DECADE * np.log10(mes_s.values / denom)
    floored = loss > floor_db
    loss = np.where(floored, floor_db, loss)
    negative = loss < 0
    n_neg = int(np.count_nonzero(negative))
    loss = np.where(negative, 0.0, loss)
    notes = []
    if n_neg:
        notes.append(f"clamped {n_neg} negative loss value(s) to 0 dB")

    # First-order propagation of the linear-power scatter into dB; the
    # scatter of both sides, where repeated runs give one, adds in quadrature.
    scattered = [
        s for s in (mes, ref) if isinstance(s, AggregatedSpectrum) and s.stddev is not None
    ]
    n_runs = max([s.n_runs for s in scattered], default=1)
    stddev_db = None
    if scattered:
        rel_sq = np.zeros_like(loss)
        for s in scattered:
            with np.errstate(divide="ignore", invalid="ignore"):
                rel_sq += np.where(s.spectrum.values > 0, s.stddev / s.spectrum.values, 0.0) ** 2
        stddev_db = (_DB_PER_DECADE / _LN10) * np.sqrt(rel_sq)
    return LossSpectrum(
        ref_s.wavelengths_nm.copy(),
        loss,
        floored,
        floor_db=floor_db,
        n_runs=n_runs,
        stddev_db=stddev_db,
        meta="; ".join(notes),
    )


def resample(s: Spectrum, grid: Sequence[float] | np.ndarray) -> Spectrum:
    """Linearly interpolate a spectrum onto a new wavelength grid.

    Interpolation is linear in the stored unit (linear power for raw
    spectra, dB for dB-tagged ones).  Grid points must lie inside the
    sampled range; extrapolation is refused.  Points coinciding with samples
    pass through exactly.
    """
    grid = np.asarray(grid, dtype=float)
    w = s.wavelengths_nm
    if grid.size == 0:
        raise ValueError("empty target grid")
    if np.any(grid < w[0]) or np.any(grid > w[-1]):
        raise ValueError(
            f"target grid [{grid.min()}, {grid.max()}] nm requires extrapolation "
            f"outside [{w[0]}, {w[-1]}] nm"
        )
    vals = np.interp(grid, w, s.values)
    return Spectrum(grid, vals, unit=s.unit, meta=s.meta)


def loss_csv_text(loss: LossSpectrum) -> str:
    """Loss spectrum rendered as CSV text (exact float round-trip via repr)."""
    lines = [f"# floor_db: {float(loss.floor_db)!r}", f"# n_runs: {loss.n_runs}"]
    if loss.meta:
        lines.append(f"# meta: {loss.meta}")
    with_std = loss.stddev_db is not None
    header = "wavelength_nm,loss_db,floored"
    if with_std:
        header += ",stddev_db"
    lines.append(header)
    for i, (w, v, f) in enumerate(zip(loss.wavelengths_nm, loss.loss_db, loss.floored)):
        row = f"{float(w)!r},{float(v)!r},{int(f)}"
        if with_std:
            row += f",{float(loss.stddev_db[i])!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_loss_csv(loss: LossSpectrum, path: str | Path) -> None:
    """Write a loss spectrum as CSV."""
    Path(path).write_text(loss_csv_text(loss), encoding="utf-8")


def load_loss_csv(path: str | Path) -> LossSpectrum:
    """Read a loss spectrum written by write_loss_csv."""
    columns = ["wavelength_nm", "loss_db", "floored"]
    comments, rows = _read_csv(Path(path), [columns, columns + ["stddev_db"]])
    floor_db = DEFAULT_FLOOR_DB
    n_runs = 1
    meta = ""
    for body in comments:
        if body.startswith("floor_db:"):
            floor_db = float(body.split(":", 1)[1])
        elif body.startswith("n_runs:"):
            n_runs = int(body.split(":", 1)[1])
        elif body.startswith("meta:"):
            meta = body.split(":", 1)[1].strip()
    return LossSpectrum(
        rows[:, 0],
        rows[:, 1],
        rows[:, 2] != 0,
        floor_db=floor_db,
        n_runs=n_runs,
        stddev_db=rows[:, 3] if rows.shape[1] == 4 else None,
        meta=meta,
    )
