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

import contextlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "UNIT_LINEAR",
    "UNIT_DB",
    "DEFAULT_FLOOR_DB",
    "canonical_grid",
    "Spectrum",
    "LossSpectrum",
    "load_spectrum",
    "aggregate_runs",
    "insertion_loss",
    "resample",
    "load_loss_csv",
    "loss_csv_text",
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


def _check_runs(obj, columns: Mapping[str, type], stddev: str) -> None:
    """The check both spectrum types share; it freezes the arrays it checks.

    The grid `wavelengths_nm` is non-empty, 1-d, finite and strictly
    increasing, and each of `columns` is as long, of its dtype, and finite
    unless bool.  Run statistics: n_runs >= 1, and the `stddev` array is
    present exactly when n_runs > 1, on the grid, finite and >= 0.
    """
    w = _freeze(obj.wavelengths_nm)
    if w.size == 0:
        raise ValueError("empty spectrum")
    if w.ndim != 1 or not np.isfinite(w).all():
        raise ValueError("wavelengths must be 1-d and finite")
    if (w[1:] <= w[:-1]).any():
        raise ValueError("wavelengths must be strictly increasing")
    object.__setattr__(obj, "wavelengths_nm", w)
    if not obj.n_runs >= 1:
        raise ValueError(f"n_runs must be >= 1, got {obj.n_runs}")
    if (obj.n_runs > 1) != (getattr(obj, stddev) is not None):
        raise ValueError(f"{stddev} must be present exactly when n_runs > 1")
    if obj.n_runs > 1:
        columns = {**columns, stddev: float}
    for name, dtype in columns.items():
        a = _freeze(getattr(obj, name), dtype)
        if a.shape != w.shape:
            raise ValueError(f"{name} must be on the wavelength grid, got {a.shape} for {w.shape}")
        if dtype is float and not np.isfinite(a).all():
            raise ValueError(f"non-finite {name}")
        if name == stddev and (a < 0).any():
            raise ValueError(f"{stddev} must be >= 0")
        object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class Spectrum:
    """Wavelength-indexed samples of power (linear) or a level in dB.

    A combination of repeated runs records their number in n_runs and, when
    there is more than one, the pointwise sample standard deviation of the
    runs (ddof = 1) in stddev; that is the scatter of one run, not the
    uncertainty of the mean.
    """

    wavelengths_nm: np.ndarray
    values: np.ndarray
    unit: str = UNIT_LINEAR
    meta: str = ""
    n_runs: int = 1
    stddev: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_runs(self, {"values": float}, "stddev")
        if self.unit not in _UNITS:
            raise ValueError(f"unit must be one of {_UNITS}, got {self.unit!r}")
        if self.unit == UNIT_LINEAR and (self.values < 0).any():
            raise ValueError("linear-power values must be >= 0")

    def __len__(self) -> int:
        return self.wavelengths_nm.size


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
        _check_runs(self, {"loss_db": float, "floored": bool}, "stddev_db")
        if (self.loss_db < 0).any():
            raise ValueError("losses must be >= 0 dB (clamp before constructing)")
        if not 0 < self.floor_db < math.inf:
            raise ValueError(f"floor_db must be finite and positive, got {self.floor_db}")
        if (self.loss_db[self.floored] != self.floor_db).any():
            raise ValueError("floored points must hold exactly the floor value")

    def __len__(self) -> int:
        return self.wavelengths_nm.size


def _read_csv(path: Path, headers: Sequence[list[str]]) -> tuple[list[str], np.ndarray]:
    """Comment bodies and numeric rows of a CSV file.

    Blank lines are skipped and '#' lines are returned as comments, in file
    order.  The first other line must be one of `headers`; every later line
    must have as many fields as that header, each a float.  Errors name
    `path:line`.  Rows come back as a 2-d float array, one row per data line.
    One numpy call parses the lines after the header; where it refuses them, the loop goes on.
    """
    comments: list[str] = []
    n_cols = 0
    values: list[float] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, raw in enumerate(lines, start=1):
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
            if any(body := lines[lineno:]):  # numpy warns on no data; the loop refuses that
                with contextlib.suppress(ValueError):
                    rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
                    if rows.shape[1] == n_cols:
                        return comments, rows
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


class Cells(tuple):
    """Numbers as text, each the repr of its value: rendered once, then shared by
    every file that writes them.  `finite` is False if one is NaN or +-inf."""

    __slots__ = ()
    finite = property(frozenset({"nan", "inf", "-inf"}).isdisjoint)  # no non-finite repr


def cells(values) -> Cells:
    """Each value's repr over `.tolist()`: floats round-trip exactly, ints stay ints."""
    return Cells(map(repr, np.asarray(values).tolist()))


def csv_text(header: str, columns: Sequence, comments: Sequence[str] = ()) -> str:
    """CSV text: a '# ' line per comment, the header, then one row per index.

    Every number is the repr of its value, as `cells` renders it; a column
    given as `Cells` is written as it is.
    """
    rows = map(",".join, zip(*(c if isinstance(c, Cells) else cells(c) for c in columns)))
    return "\n".join([*(f"# {c}" for c in comments), header, *rows]) + "\n"


def json_text(doc) -> str:
    """What json.dumps writes for `doc` with an indent of 2, sorted keys and no NaN,
    plus a newline, a `Cells` standing for the list of its numbers: 2-space indented,
    key-sorted, ASCII-escaped RFC 8259 JSON; every number is its repr; NaN and
    +-inf raise ValueError.  Each flat list or object is one C-encoder call."""
    return _json(doc, "\n") + "\n"


def _json(doc, indent: str) -> str:
    inner = indent + "  "
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        return json.dumps(doc, allow_nan=False)
    if isinstance(doc, Cells):
        if not doc.finite:
            raise ValueError("Out of range float values are not JSON compliant")
        items = doc
    elif not any(issubclass(t, (dict, list, tuple))
                 for t in set(map(type, doc.values() if isinstance(doc, dict) else doc))):
        seps = ("," + inner, ": ")  # a flat container: one call, its brackets cut off
        items = [json.dumps(doc, sort_keys=True, allow_nan=False, separators=seps)[1:-1]]
    elif isinstance(doc, dict):  # each key as json writes it, str or not
        items = [json.dumps({k: 0}, allow_nan=False)[1:-4] + ": " + _json(v, inner)
                 for k, v in sorted(doc.items())]
    else:
        items = [_json(v, inner) for v in doc]
    brackets = "{}" if isinstance(doc, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def json_value(path: Path, field: str, value, kind: str):
    """`value`, read as `field` of JSON file `path`, checked to be `kind`: "a number"
    (then returned as a float), "a list", "an object", "a string" or "a boolean"; a
    bool is only the last.  A refusal is one line naming the file and the field."""
    types = {"a number": (int, float), "a list": list, "an object": dict, "a string": str,
             "a boolean": bool}[kind]
    if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
        raise ValueError(f"{path}: {field} must be {kind}, got {value!r}")
    if kind != "a number":
        return value
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{path}: {field} must be a finite number, got {value!r}") from None


def write_files(files: Mapping[Path, str]) -> None:
    """Write each text to its path, making missing parent directories.

    Every text is first staged in a fresh temp file beside its target, opened
    exclusively under a random name (mode 0666 minus the umask); only then is
    each renamed over its target.  Nothing is replaced until all is rendered and
    staged; no temp file, nor any directory it made and left empty, outlives it.
    """
    staged: dict[Path, Path] = {}
    made: list[Path] = []  # in the order made, so each comes after its parent
    try:
        for path, text in files.items():
            if path.is_dir():  # refused here rather than half-way through the renames
                raise IsADirectoryError(f"{path} is a directory")
            if not path.parent.is_dir():
                made += reversed([d for d in path.parents if not d.exists()])
                path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            try:
                fh = open(tmp, "x", encoding="utf-8")
            except OSError as exc:  # name the target, not the random temp file
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
            with fh:
                staged[tmp] = path
                fh.write(text)
        for tmp, path in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        for d in reversed(made):
            with contextlib.suppress(OSError):  # not empty, or never made
                d.rmdir()


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


def aggregate_runs(runs: Sequence[Spectrum], mode: str = "mean") -> Spectrum:
    """Combine repeated measurement runs taken on one wavelength grid.

    mode "mean" (the default, matching how repeated measurements are
    averaged) takes the pointwise arithmetic mean; mode "median" resists
    single-pixel outliers.  The pointwise sample standard deviation is
    recorded whenever there is more than one run.  Each run must be a
    single run: a spectrum that already combines runs is refused.
    """
    if len(runs) == 0:
        raise ValueError("no runs to aggregate")
    if mode not in ("mean", "median"):
        raise ValueError(f"unknown mode {mode!r}; expected 'mean' or 'median'")
    first = runs[0]
    for r in runs:
        _single_run(r, "each run to aggregate")
        if not np.array_equal(r.wavelengths_nm, first.wavelengths_nm):
            raise ValueError("runs are not on identical wavelength grids")
        if r.unit != first.unit:
            raise ValueError("runs mix units")
    if first.unit != UNIT_LINEAR:
        raise ValueError("run aggregation expects linear-power spectra")
    stack = np.vstack([r.values for r in runs])
    center = np.mean(stack, axis=0) if mode == "mean" else np.median(stack, axis=0)
    n = len(runs)
    return Spectrum(
        first.wavelengths_nm,
        center,
        unit=first.unit,
        meta=f"{mode} of {n} runs",
        n_runs=n,
        stddev=np.std(stack, axis=0, ddof=1) if n > 1 else None,
    )


def _single_run(s: Spectrum, role: str) -> None:
    """Refuse a combined spectrum where its stddev would be dropped."""
    if s.n_runs > 1:
        raise ValueError(f"{role} must be a single run, not a combination of {s.n_runs} runs")


def insertion_loss(
    ref: Spectrum,
    mes: Spectrum,
    filters: Spectrum | None = None,
    floor_db: float = DEFAULT_FLOOR_DB,
) -> LossSpectrum:
    """Insertion loss -10*log10(P_mes / (P_ref * T_f)) with floor handling.

    All inputs must share one wavelength grid (resample first).  T_f is taken
    from `filters` (linear transmission, or a dB level converted to one);
    omit it for unity transmission.  Losses above floor_db are reported at
    the floor and flagged; negative computed losses (measurement noise; a
    passive element cannot amplify) are clamped to 0 and noted in meta.

    Run statistics of `mes` or `ref` propagate into a pointwise loss
    standard deviation via first-order error propagation; n_runs is the
    larger of the two run counts.  `filters` must be a single run.
    """
    if not np.array_equal(ref.wavelengths_nm, mes.wavelengths_nm):
        raise ValueError("reference and measurement grids differ; resample first")
    if ref.unit != UNIT_LINEAR or mes.unit != UNIT_LINEAR:
        raise ValueError("insertion loss expects linear-power spectra")
    if filters is not None:
        if not np.array_equal(filters.wavelengths_nm, ref.wavelengths_nm):
            raise ValueError("filter grid differs; resample first")
        _single_run(filters, "the filter spectrum")
        tf = filters.values if filters.unit == UNIT_LINEAR else 10.0 ** (filters.values / 10.0)
    else:
        tf = np.ones_like(ref.values)
    denom = ref.values * tf
    if np.any(denom <= 0):
        bad = ref.wavelengths_nm[np.flatnonzero(denom <= 0)[0]]
        raise ValueError(f"zero reference power at {bad} nm")
    with np.errstate(divide="ignore"):
        loss = -_DB_PER_DECADE * np.log10(mes.values / denom)
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
    scattered = [s for s in (mes, ref) if s.stddev is not None]
    stddev_db = None
    if scattered:
        rel_sq = np.zeros_like(loss)
        for s in scattered:
            with np.errstate(divide="ignore", invalid="ignore"):
                rel_sq += np.where(s.values > 0, s.stddev / s.values, 0.0) ** 2
        stddev_db = (_DB_PER_DECADE / _LN10) * np.sqrt(rel_sq)
    return LossSpectrum(
        ref.wavelengths_nm,
        loss,
        floored,
        floor_db=floor_db,
        n_runs=max(mes.n_runs, ref.n_runs),
        stddev_db=stddev_db,
        meta="; ".join(notes),
    )


def resample(s: Spectrum, grid: Sequence[float] | np.ndarray) -> Spectrum:
    """Linearly interpolate a spectrum onto a new wavelength grid.

    Interpolation is linear in the stored unit (linear power for raw
    spectra, dB for dB-tagged ones).  Grid points must lie inside the
    sampled range; extrapolation is refused.  Points coinciding with samples
    pass through exactly.  Resample each run, then combine them: a spectrum
    combined from several runs is refused.
    """
    _single_run(s, "the spectrum to resample")
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
    comments = [f"floor_db: {float(loss.floor_db)!r}", f"n_runs: {loss.n_runs}"]
    if loss.meta:
        comments.append(f"meta: {loss.meta}")
    header = "wavelength_nm,loss_db,floored"
    columns = [loss.wavelengths_nm, loss.loss_db, loss.floored.astype(int)]
    if loss.stddev_db is not None:
        header += ",stddev_db"
        columns.append(loss.stddev_db)
    return csv_text(header, columns, comments)


def load_loss_csv(path: str | Path) -> LossSpectrum:
    """Read a loss spectrum written by loss_csv_text; refusals name the file."""
    path = Path(path)
    columns = ["wavelength_nm", "loss_db", "floored"]
    comments, rows = _read_csv(path, [columns, columns + ["stddev_db"]])
    floor_db = DEFAULT_FLOOR_DB
    n_runs = 1
    meta = ""
    try:
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
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
