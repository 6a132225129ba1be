"""Eavesdropper power budgets along chains of fiber-optic components.

The strongest probe an attacker can push into a fiber without damaging it is
taken as 40 dBm (configurable); after passing the transmitter's component
chain the deliverable power at wavelength lambda is

    P_dBm(lambda) = input_power_dbm - sum of insertion losses along the path.

Where several alternative components could occupy a slot (exact models are
rarely public), per-wavelength minimum and maximum total-loss envelopes
bound the attacker's best and worst case.  Wavelength bands where the
deliverable power exceeds a published attack threshold (the smallest on
record is 3 nW) are vulnerabilities; bands whose excess rests only on
floored loss data (true loss known only to be at least the measurement
floor) are reported as indeterminate rather than vulnerable.  Short
wavelengths are flagged as the most severe, since the underlying
photorefractive disturbance strengthens as the wavelength drops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .components import Component
from .spectra import LossSpectrum, canonical_grid

__all__ = [
    "DAMAGE_LIMIT_DBM",
    "DEFAULT_THRESHOLDS",
    "convert_power",
    "IpaThreshold",
    "Slot",
    "Chain",
    "PowerBudget",
    "ChainEnvelope",
    "chain_power",
    "envelope",
    "Band",
    "ThresholdAssessment",
    "AssessmentReport",
    "assess_ipa",
    "load_chain_config",
]

# Fiber power-damage bound used as the default injected power.
DAMAGE_LIMIT_DBM = 40.0

_LINEAR_UNITS = {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "nW": 1e-9, "pW": 1e-12}


def convert_power(value: float, from_unit: str, to_unit: str) -> float:
    """Convert optical power between dBm and linear units (W..pW).

    dBm = 10*log10(P / 1 mW).  Linear inputs must be positive.
    """
    for unit in (from_unit, to_unit):
        if unit != "dBm" and unit not in _LINEAR_UNITS:
            raise ValueError(f"unknown power unit {unit!r}")
    if from_unit == to_unit:
        return float(value)
    if from_unit == "dBm":
        watts = 1e-3 * 10.0 ** (value / 10.0)
    else:
        if value <= 0:
            raise ValueError(f"linear power must be positive, got {value} {from_unit}")
        watts = value * _LINEAR_UNITS[from_unit]
    if to_unit == "dBm":
        return 10.0 * math.log10(watts / 1e-3)
    return watts / _LINEAR_UNITS[to_unit]


@dataclass(frozen=True)
class IpaThreshold:
    """A published minimum probe power for a successful modulator attack."""

    power: float
    unit: str = "nW"
    wavelength_nm: float | None = None
    source: str = ""

    def __post_init__(self) -> None:
        if self.unit not in ("nW", "dBm"):
            raise ValueError(f"threshold unit must be 'nW' or 'dBm', got {self.unit!r}")
        if not math.isfinite(self.power):
            raise ValueError(f"threshold power must be finite, got {self.power} {self.unit}")
        if self.unit == "nW" and self.power <= 0:
            raise ValueError(f"threshold power must be positive, got {self.power} nW")

    def to_dbm(self) -> float:
        return convert_power(self.power, self.unit, "dBm")

    def label(self) -> str:
        tag = f"{self.power:g} {self.unit}"
        return f"{tag} ({self.source})" if self.source else tag


# The only attack power published as a hard number; other reported working
# points are setup-specific and should be supplied per audit.
DEFAULT_THRESHOLDS: tuple[IpaThreshold, ...] = (
    IpaThreshold(3.0, "nW", source="reported-minimum"),
)


@dataclass(frozen=True)
class Slot:
    """One position along the injection path, with alternative fills.

    Each alternative is a (component id, direction label) pair; the audit
    does not know which concrete part a vendor chose, so all candidates are
    carried and the envelope spans them.
    """

    alternatives: tuple[tuple[str, str], ...]
    name: str = ""

    def __post_init__(self) -> None:
        alts = tuple((str(c), str(d)) for c, d in self.alternatives)
        if not alts:
            raise ValueError(f"slot {self.name!r} has no alternatives")
        object.__setattr__(self, "alternatives", alts)


@dataclass(frozen=True)
class Chain:
    """Ordered component slots along the eavesdropper's injection path."""

    slots: tuple[Slot, ...]
    input_power_dbm: float = DAMAGE_LIMIT_DBM

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))


def _resolve(
    chain: Chain, library: Mapping[str, Component]
) -> list[list[LossSpectrum]]:
    """Loss spectra per slot per alternative; validates ids and directions."""
    resolved: list[list[LossSpectrum]] = []
    grid = None
    for i, slot in enumerate(chain.slots):
        losses = []
        for comp_id, direction in slot.alternatives:
            comp = library.get(comp_id)
            if comp is None:
                raise ValueError(f"slot {i} ({slot.name!r}): unknown component {comp_id!r}")
            loss = comp.losses.get(direction)
            if loss is None:
                raise ValueError(
                    f"slot {i} ({slot.name!r}): component {comp_id!r} has no "
                    f"direction {direction!r} (has {sorted(comp.losses)})"
                )
            if grid is None:
                grid = loss.wavelengths_nm
            elif not np.array_equal(loss.wavelengths_nm, grid):
                raise ValueError("chain mixes wavelength grids")
            losses.append(loss)
        resolved.append(losses)
    return resolved


def _exact_colsums(arrays: Sequence[np.ndarray], n_points: int) -> np.ndarray:
    """Pointwise exact sum of loss curves (order-independent via fsum)."""
    if not arrays:
        return np.zeros(n_points)
    return np.array([math.fsum(col) for col in zip(*arrays)])


@dataclass(frozen=True)
class PowerBudget:
    """Deliverable probe power per wavelength for one concrete chain."""

    wavelengths_nm: np.ndarray
    power_dbm: np.ndarray
    conservative_flags: np.ndarray


def chain_power(
    chain: Chain,
    library: Mapping[str, Component],
    selection: Sequence[int],
) -> PowerBudget:
    """Power budget for one concrete component choice per slot.

    P(lambda) = input_power_dbm - sum of the selected losses; slots commute
    exactly (the sum is evaluated exactly before the single final rounding).
    Points where any selected loss was floored are flagged conservative.
    """
    resolved = _resolve(chain, library)
    if len(selection) != len(chain.slots):
        raise ValueError(
            f"selection names {len(selection)} slots, chain has {len(chain.slots)}"
        )
    chosen: list[LossSpectrum] = []
    for i, (sel, options) in enumerate(zip(selection, resolved)):
        if not 0 <= sel < len(options):
            raise ValueError(f"slot {i}: selection index {sel} out of range")
        chosen.append(options[sel])
    grid = resolved[0][0].wavelengths_nm if resolved else canonical_grid()
    total = _exact_colsums([c.loss_db for c in chosen], grid.size)
    flags = np.zeros(grid.size, dtype=bool)
    for c in chosen:
        flags |= c.floored
    return PowerBudget(grid, chain.input_power_dbm - total, flags)


@dataclass(frozen=True)
class ChainEnvelope:
    """Pointwise extremes of the total chain loss over all alternatives.

    Because the total is a per-slot sum, minimizing (maximizing) each slot
    independently at each wavelength is exactly the minimum (maximum) over
    all concrete selections.  Flags mark wavelengths where the extremal
    alternative's loss was floored.
    """

    wavelengths_nm: np.ndarray
    min_total_db: np.ndarray
    max_total_db: np.ndarray
    min_conservative: np.ndarray
    max_conservative: np.ndarray


def envelope(chain: Chain, library: Mapping[str, Component]) -> ChainEnvelope:
    """Min/max total-loss envelopes of a chain over its slot alternatives."""
    resolved = _resolve(chain, library)
    grid = resolved[0][0].wavelengths_nm if resolved else canonical_grid()
    n = grid.size
    min_parts, max_parts = [], []
    min_flags = np.zeros(n, dtype=bool)
    max_flags = np.zeros(n, dtype=bool)
    for options in resolved:
        losses = np.vstack([o.loss_db for o in options])
        floored = np.vstack([o.floored for o in options])
        cols = np.arange(n)
        lo_idx = np.argmin(losses, axis=0)
        hi_idx = np.argmax(losses, axis=0)
        min_parts.append(losses[lo_idx, cols])
        max_parts.append(losses[hi_idx, cols])
        min_flags |= floored[lo_idx, cols]
        max_flags |= floored[hi_idx, cols]
    return ChainEnvelope(
        wavelengths_nm=grid,
        min_total_db=_exact_colsums(min_parts, n),
        max_total_db=_exact_colsums(max_parts, n),
        min_conservative=min_flags,
        max_conservative=max_flags,
    )


def _find_bands(above: np.ndarray) -> np.ndarray:
    """Maximal runs of True in `above`, as rows of [start, stop) indices."""
    return np.flatnonzero(np.diff(above, prepend=False, append=False)).reshape(-1, 2)


@dataclass(frozen=True)
class Band:
    """One contiguous exceedance band with its evidence quality."""

    lo_nm: float
    hi_nm: float
    severity: str  # "highest" for the shortest-wavelength band, else "normal"
    floored_only: bool  # every point rests on floored (conservative) loss data


@dataclass(frozen=True)
class ThresholdAssessment:
    threshold: IpaThreshold
    threshold_dbm: float
    verdict: str  # "protected" | "vulnerable" | "indeterminate"
    bands: tuple[Band, ...]


@dataclass(frozen=True)
class AssessmentReport:
    """Full audit of a chain: envelope power curves and per-threshold verdicts.

    p_max_dbm is the attacker-best curve (minimum total loss), p_min_dbm the
    attacker-worst one.  Verdicts follow the attacker-best curve; the
    min_power side is reported for context.
    """

    chain_input_dbm: float
    wavelengths_nm: np.ndarray
    p_max_dbm: np.ndarray
    p_min_dbm: np.ndarray
    max_conservative: np.ndarray
    min_conservative: np.ndarray
    max_power: tuple[ThresholdAssessment, ...]
    min_power: tuple[ThresholdAssessment, ...]

    @property
    def verdicts(self) -> dict[str, str]:
        """Verdict per threshold label, judged on the attacker-best curve."""
        return {a.threshold.label(): a.verdict for a in self.max_power}

    def to_dict(self) -> dict:
        def assessments(items: tuple[ThresholdAssessment, ...]) -> list[dict]:
            return [
                {
                    "threshold": {
                        "power": a.threshold.power,
                        "unit": a.threshold.unit,
                        "wavelength_nm": a.threshold.wavelength_nm,
                        "source": a.threshold.source,
                    },
                    "threshold_dbm": a.threshold_dbm,
                    "verdict": a.verdict,
                    "bands": [
                        {
                            "lo_nm": b.lo_nm,
                            "hi_nm": b.hi_nm,
                            "severity": b.severity,
                            "floored_only": b.floored_only,
                        }
                        for b in a.bands
                    ],
                }
                for a in items
            ]

        return {
            "input_power_dbm": self.chain_input_dbm,
            "wavelength_nm": [float(w) for w in self.wavelengths_nm],
            "p_max_dbm": [float(p) for p in self.p_max_dbm],
            "p_min_dbm": [float(p) for p in self.p_min_dbm],
            "max_conservative": [bool(f) for f in self.max_conservative],
            "min_conservative": [bool(f) for f in self.min_conservative],
            "assessments": {
                "max_power": assessments(self.max_power),
                "min_power": assessments(self.min_power),
            },
            "verdicts": self.verdicts,
        }


def _assess_curve(
    wavelengths: np.ndarray,
    power_dbm: np.ndarray,
    flags: np.ndarray,
    thresholds: Sequence[IpaThreshold],
) -> tuple[ThresholdAssessment, ...]:
    out = []
    for thr in thresholds:
        thr_dbm = thr.to_dbm()
        bands = [
            Band(
                lo_nm=float(wavelengths[start]),
                hi_nm=float(wavelengths[stop - 1]),
                severity="highest" if rank == 0 else "normal",
                floored_only=bool(np.all(flags[start:stop])),
            )
            for rank, (start, stop) in enumerate(_find_bands(power_dbm > thr_dbm))
        ]
        if not bands:
            verdict = "protected"
        elif any(not b.floored_only for b in bands):
            verdict = "vulnerable"
        else:
            verdict = "indeterminate"
        out.append(
            ThresholdAssessment(
                threshold=thr,
                threshold_dbm=thr_dbm,
                verdict=verdict,
                bands=tuple(bands),
            )
        )
    return tuple(out)


def assess_ipa(
    chain: Chain,
    library: Mapping[str, Component],
    thresholds: Sequence[IpaThreshold] = DEFAULT_THRESHOLDS,
) -> AssessmentReport:
    """Audit a chain against attack thresholds on both envelope extremes.

    Bands are ordered by wavelength and the shortest-wavelength band is
    marked highest severity (the attack works better further into the
    visible).  A threshold whose every exceedance band rests purely on
    floored loss data is judged indeterminate: the floor only bounds the
    true loss from below, so the computed power there is an overestimate.
    """
    if not thresholds:
        raise ValueError("at least one threshold is required")
    env = envelope(chain, library)
    p_max = chain.input_power_dbm - env.min_total_db
    p_min = chain.input_power_dbm - env.max_total_db
    return AssessmentReport(
        chain_input_dbm=chain.input_power_dbm,
        wavelengths_nm=env.wavelengths_nm,
        p_max_dbm=p_max,
        p_min_dbm=p_min,
        max_conservative=env.min_conservative,
        min_conservative=env.max_conservative,
        max_power=_assess_curve(env.wavelengths_nm, p_max, env.min_conservative, thresholds),
        min_power=_assess_curve(env.wavelengths_nm, p_min, env.max_conservative, thresholds),
    )


def load_chain_config(path: str | Path) -> tuple[Chain, tuple[IpaThreshold, ...]]:
    """Parse a chain descriptor JSON file.

    Schema:
        {
          "input_power_dbm": 40.0,                      # optional
          "thresholds": [{"power": 3.0, "unit": "nW",
                          "source": "...",              # optional fields
                          "wavelength_nm": 650.0}],
          "slots": [
            {"name": "attenuator",
             "alternatives": [
               {"component": "voa-em", "direction": "0V"},
               {"component": "voa-eo", "direction": "0V"}]}
          ]
        }
    Thresholds default to the 3 nW registry entry when omitted.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ValueError(f"chain descriptor not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "slots" not in doc:
        raise ValueError(f"{path}: chain descriptor must be an object with 'slots'")
    slots = []
    for i, slot_doc in enumerate(doc["slots"]):
        alts = slot_doc.get("alternatives")
        if not alts:
            raise ValueError(f"{path}: slot {i} has no alternatives")
        pairs = []
        for alt in alts:
            try:
                pairs.append((alt["component"], alt["direction"]))
            except (TypeError, KeyError) as exc:
                raise ValueError(
                    f"{path}: slot {i}: each alternative needs 'component' and 'direction'"
                ) from exc
        slots.append(Slot(tuple(pairs), name=str(slot_doc.get("name", f"slot{i}"))))
    chain = Chain(tuple(slots), input_power_dbm=float(doc.get("input_power_dbm", DAMAGE_LIMIT_DBM)))
    thr_docs = doc.get("thresholds")
    if thr_docs is None:
        thresholds = DEFAULT_THRESHOLDS
    else:
        thresholds = tuple(
            IpaThreshold(
                power=float(t["power"]),
                unit=str(t.get("unit", "nW")),
                wavelength_nm=(None if t.get("wavelength_nm") is None else float(t["wavelength_nm"])),
                source=str(t.get("source", "")),
            )
            for t in thr_docs
        )
        if not thresholds:
            raise ValueError(f"{path}: thresholds list is empty")
    return chain, thresholds
