"""ipaudit: spectral security auditing of fiber-QKD transmitter optics.

The package answers two questions about a QKD transmitter facing
induced-photorefraction probing in the 400-800 nm range:

1. If the probe distorts the prepared states, what does the eavesdropper
   gain?  (`statemath` for phase-remapped coherent constellations and their
   unambiguous-discrimination probability, `scw` for subcarrier-wave
   modulation-index attacks and the Holevo bound.)

2. How much probe power can reach the modulator in the first place?
   (`spectra` for measured insertion-loss curves, `components` for the
   direction-resolved component library, `budget` for chained power budgets,
   loss envelopes and vulnerability verdicts.)

A command-line front end (`ipaudit`, module `ipaudit.cli`) binds the pieces
into reproducible audit runs and plot-ready CSV exports, every file written
through `output`.
"""

import importlib

# Each public name and the module that defines it.  Importing the package loads
# none of them: a name's module is imported on first use (PEP 562), so a command
# pays only for the modules it runs.
_EXPORTS = {
    name: module
    for module, names in {
        "statemath": ("MAX_GRAM_ENTRIES", "MAX_GRID_POINTS", "gram_matrix", "ratio_curve",
                      "usd_probability", "usd_ratio"),
        "scw": ("HOLEVO_INDEX_MAX", "bessel_j0", "binary_entropy", "holevo_bound",
                "holevo_curve"),
        "spectra": ("DEFAULT_FLOOR_DB", "LossSpectrum", "Spectrum", "aggregate_runs",
                    "canonical_grid", "insertion_loss", "load_loss_csv", "load_spectrum",
                    "loss_csv_text", "resample"),
        "components": ("Anchor", "Component", "load_library", "reference_library",
                       "write_library"),
        "budget": ("DAMAGE_LIMIT_DBM", "DEFAULT_THRESHOLDS", "AssessmentReport", "Chain",
                   "IpaThreshold", "Slot", "assess_ipa", "convert_power", "envelope",
                   "load_chain_config"),
    }.items()
    for name in names
}
__all__ = [*_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
